//! FASTA sequence file parsing/writing for the bio archetype.
//!
//! Enformer-style genomic pipelines ingest DNA as FASTA. It is a simple
//! line-oriented format, but real files are messy — wrapped sequence
//! lines, CRLF endings, empty trailing lines — which this parser handles.

use crate::{malformed, FormatError};

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header line without the leading `>` (id + optional description).
    pub header: String,
    /// Sequence with line wrapping removed (uppercased).
    pub sequence: String,
}

impl FastaRecord {
    /// The id: the header up to the first whitespace.
    pub fn id(&self) -> &str {
        self.header.split_whitespace().next().unwrap_or("")
    }
}

/// Parse FASTA text into records.
pub fn parse_fasta(text: &str) -> Result<Vec<FastaRecord>, FormatError> {
    let mut records = Vec::new();
    let mut header: Option<String> = None;
    let mut seq = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('>') {
            if let Some(prev) = header.take() {
                records.push(FastaRecord {
                    header: prev,
                    sequence: std::mem::take(&mut seq),
                });
            }
            header = Some(h.trim().to_string());
        } else {
            if header.is_none() {
                return Err(malformed(
                    "fasta",
                    format!("line {}: sequence before header", lineno + 1),
                ));
            }
            for c in line.chars() {
                if c.is_ascii_alphabetic() || c == '*' || c == '-' {
                    seq.push(c.to_ascii_uppercase());
                } else {
                    return Err(malformed(
                        "fasta",
                        format!("line {}: invalid character {c:?}", lineno + 1),
                    ));
                }
            }
        }
    }
    if let Some(prev) = header {
        records.push(FastaRecord {
            header: prev,
            sequence: seq,
        });
    }
    Ok(records)
}

/// Write records as FASTA with sequence lines wrapped at `width`.
pub fn write_fasta(records: &[FastaRecord], width: usize) -> String {
    let width = width.max(1);
    let mut out = String::new();
    for r in records {
        out.push('>');
        out.push_str(&r.header);
        out.push('\n');
        let bytes = r.sequence.as_bytes();
        for chunk in bytes.chunks(width) {
            out.push_str(&String::from_utf8_lossy(chunk));
            out.push('\n');
        }
        if r.sequence.is_empty() {
            // Keep a blank sequence line out; header alone suffices.
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fasta_round_trip_with_wrapping() {
        let records = vec![
            FastaRecord {
                header: "chr1 test sequence".into(),
                sequence: "ACGTACGTACGTACGTACGT".into(),
            },
            FastaRecord {
                header: "chr2".into(),
                sequence: "GGGCCC".into(),
            },
        ];
        let text = write_fasta(&records, 8);
        assert!(text.contains(">chr1 test sequence\nACGTACGT\nACGTACGT\nACGT\n"));
        assert_eq!(parse_fasta(&text).unwrap(), records);
    }

    #[test]
    fn fasta_id_extraction() {
        let r = FastaRecord {
            header: "seq42 description here".into(),
            sequence: "A".into(),
        };
        assert_eq!(r.id(), "seq42");
    }

    #[test]
    fn fasta_handles_crlf_and_case() {
        let text = ">x\r\nacgt\r\nACGT\r\n";
        let recs = parse_fasta(text).unwrap();
        assert_eq!(recs[0].sequence, "ACGTACGT");
    }

    #[test]
    fn fasta_rejects_garbage() {
        assert!(parse_fasta("ACGT\n>x\n").is_err()); // seq before header
        assert!(parse_fasta(">x\nAC GT\n").is_err()); // space in sequence
        assert!(parse_fasta(">x\nAC1T\n").is_err()); // digit
        assert!(parse_fasta("").unwrap().is_empty());
    }

    #[test]
    fn fasta_gap_and_stop_allowed() {
        let recs = parse_fasta(">p\nMKV-*\n").unwrap();
        assert_eq!(recs[0].sequence, "MKV-*");
    }
}
