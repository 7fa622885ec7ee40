//! Panic-free fixed-width byte-array extraction for format parsers.
//!
//! Parsers bounds-check before slicing, so these helpers never see a
//! short slice in practice; if one ever does, the missing bytes read as
//! zero instead of aborting the worker thread — a corrupt field then
//! surfaces through the parser's own validation (CRCs, counts, magic
//! checks) as a `FormatError` the pipeline can quarantine.

/// First `N` bytes of `b`, zero-extended.
pub(crate) fn arr<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    a
}

/// First 2 bytes of `b`, zero-extended.
pub(crate) fn arr2(b: &[u8]) -> [u8; 2] {
    arr(b)
}

/// First 4 bytes of `b`, zero-extended.
pub(crate) fn arr4(b: &[u8]) -> [u8; 4] {
    arr(b)
}

/// First 8 bytes of `b`, zero-extended.
pub(crate) fn arr8(b: &[u8]) -> [u8; 8] {
    arr(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_slices_round_trip() {
        assert_eq!(arr2(&[1, 2]), [1, 2]);
        assert_eq!(arr4(&[1, 2, 3, 4]), [1, 2, 3, 4]);
        assert_eq!(arr8(&[1, 2, 3, 4, 5, 6, 7, 8]), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn long_slices_truncate_short_slices_zero_extend() {
        assert_eq!(arr4(&[9, 9, 9, 9, 9, 9]), [9, 9, 9, 9]);
        assert_eq!(arr4(&[7]), [7, 0, 0, 0]);
        assert_eq!(arr8(&[]), [0; 8]);
    }
}
