//! Sequence encoding: Enformer-style one-hot DNA and protein tiles.

use drai_tensor::Tensor;

/// Sequence alphabet for biological one-hot encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    symbols: Vec<u8>,
    lookup: [Option<u8>; 256],
}

impl Alphabet {
    /// DNA: A, C, G, T (N and other ambiguity codes encode as all-zero).
    pub fn dna() -> Alphabet {
        Alphabet::new(b"ACGT")
    }

    /// Custom alphabet from ASCII symbols (case-insensitive lookup).
    pub(crate) fn new(symbols: &[u8]) -> Alphabet {
        let mut lookup = [None; 256];
        for (i, &s) in symbols.iter().enumerate() {
            lookup[s.to_ascii_uppercase() as usize] = Some(i as u8);
            lookup[s.to_ascii_lowercase() as usize] = Some(i as u8);
        }
        Alphabet {
            symbols: symbols.to_vec(),
            lookup,
        }
    }

    /// Alphabet size.
    pub(crate) fn len(&self) -> usize {
        self.symbols.len()
    }

    /// One-hot encode a sequence to `[len, alphabet]` f32 (Enformer
    /// layout). Unknown symbols (e.g. `N`) become all-zero rows.
    pub fn one_hot(&self, sequence: &str) -> Tensor<f32> {
        let bytes = sequence.as_bytes();
        let k = self.len();
        let mut data = vec![0.0_f32; bytes.len() * k];
        for (row, &b) in bytes.iter().enumerate() {
            if let Some(i) = self.lookup[b as usize] {
                data[row * k + i as usize] = 1.0;
            }
        }
        let rows = bytes.len();
        Tensor::from_vec(data, &[rows, k]).unwrap_or_else(|_| Tensor::zeros(&[rows, k]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_one_hot() {
        let t = Alphabet::dna().one_hot("ACGT");
        assert_eq!(t.shape(), &[4, 4]);
        // Identity matrix.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.get(&[i, j]).unwrap(), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn dna_lowercase_and_n() {
        let a = Alphabet::dna();
        let t = a.one_hot("acgN");
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0); // a → A
        assert_eq!(t.get(&[3, 0]).unwrap(), 0.0); // N → all zero
        let row: Vec<f32> = (0..4).map(|j| t.get(&[3, j]).unwrap()).collect();
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_sequence() {
        let t = Alphabet::dna().one_hot("");
        assert_eq!(t.shape(), &[0, 4]);
    }
}
