//! RFC-4180 CSV parsing and writing for tabular (EHR-style) ingest.
//!
//! Handles quoted fields, embedded commas/newlines/quotes, and CRLF
//! endings. The bio archetype's synthetic clinical tables arrive through
//! this module before anonymization.

use crate::{malformed, FormatError};

/// A parsed CSV table: header plus rows (all fields as strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    /// Column names from the first row.
    pub header: Vec<String>,
    /// Data rows; every row has `header.len()` fields.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Index of a named column.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// All values of a named column.
    pub fn column(&self, name: &str) -> Option<Vec<&str>> {
        let i = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[i].as_str()).collect())
    }

    /// Parse a column as f64, with empty fields → NaN (the missing-value
    /// convention consumed by the imputation kernels).
    pub fn numeric_column(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.column_index(name)?;
        Some(
            self.rows
                .iter()
                .map(|r| {
                    let s = r[i].trim();
                    if s.is_empty() {
                        f64::NAN
                    } else {
                        s.parse().unwrap_or(f64::NAN)
                    }
                })
                .collect(),
        )
    }
}

/// Parse CSV text with a header row.
pub fn parse_csv(text: &str) -> Result<CsvTable, FormatError> {
    let mut records = parse_records(text)?;
    if records.is_empty() {
        return Err(malformed("csv", "empty input (no header)"));
    }
    let header = records.remove(0);
    for (i, row) in records.iter().enumerate() {
        if row.len() != header.len() {
            return Err(malformed(
                "csv",
                format!(
                    "row {} has {} fields, header has {}",
                    i + 1,
                    row.len(),
                    header.len()
                ),
            ));
        }
    }
    Ok(CsvTable {
        header,
        rows: records,
    })
}

fn parse_records(text: &str) -> Result<Vec<Vec<String>>, FormatError> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(malformed("csv", "quote inside unquoted field"));
                    }
                    in_quotes = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(malformed("csv", "unterminated quoted field"));
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    // Drop fully empty trailing records produced by blank lines.
    records.retain(|r| !(r.len() == 1 && r[0].is_empty()));
    Ok(records)
}

fn needs_quoting(s: &str) -> bool {
    s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

/// Write a table as CSV (quoting only where required).
pub fn write_csv(table: &CsvTable) -> String {
    let mut out = String::new();
    let write_row = |out: &mut String, row: &[String]| {
        for (i, f) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if needs_quoting(f) {
                out.push('"');
                out.push_str(&f.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(f);
            }
        }
        out.push('\n');
    };
    write_row(&mut out, &table.header);
    for row in &table.rows {
        write_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CsvTable {
        CsvTable {
            header: vec!["mrn".into(), "name".into(), "age".into(), "note".into()],
            rows: vec![
                vec![
                    "1001".into(),
                    "Doe, Jane".into(),
                    "42".into(),
                    "stable".into(),
                ],
                vec![
                    "1002".into(),
                    "O\"Brien".into(),
                    "".into(),
                    "line1\nline2".into(),
                ],
            ],
        }
    }

    #[test]
    fn round_trip_with_quoting() {
        let t = table();
        let text = write_csv(&t);
        assert_eq!(parse_csv(&text).unwrap(), t);
    }

    #[test]
    fn simple_parse() {
        let t = parse_csv("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.header, vec!["a", "b"]);
        assert_eq!(t.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn crlf_and_no_trailing_newline() {
        let t = parse_csv("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1], vec!["3", "4"]);
    }

    #[test]
    fn quoted_fields() {
        let t = parse_csv("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.rows[0], vec!["x,y", "say \"hi\""]);
    }

    #[test]
    fn embedded_newline() {
        let t = parse_csv("a,b\n\"1\n2\",3\n").unwrap();
        assert_eq!(t.rows[0][0], "1\n2");
    }

    #[test]
    fn column_accessors() {
        let t = parse_csv("id,score\nA,1.5\nB,\nC,oops\n").unwrap();
        assert_eq!(t.column("id").unwrap(), vec!["A", "B", "C"]);
        let scores = t.numeric_column("score").unwrap();
        assert_eq!(scores[0], 1.5);
        assert!(scores[1].is_nan()); // empty → NaN
        assert!(scores[2].is_nan()); // unparseable → NaN
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(parse_csv("a,b\n1\n").is_err());
        assert!(parse_csv("a,b\n1,2,3\n").is_err());
    }

    #[test]
    fn malformed_quotes_rejected() {
        assert!(parse_csv("a\n\"unterminated\n").is_err());
        assert!(parse_csv("a\nfoo\"bar\n").is_err());
        assert!(parse_csv("").is_err());
    }

    #[test]
    fn empty_fields_preserved() {
        let t = parse_csv("a,b,c\n,,\nx,,z\n").unwrap();
        assert_eq!(t.rows[0], vec!["", "", ""]);
        assert_eq!(t.rows[1], vec!["x", "", "z"]);
    }
}
