//! Extended XYZ structure files for the materials archetype.
//!
//! The XYZ format stores molecular/crystal frames as:
//!
//! ```text
//! <natoms>
//! <comment line: key=value properties, e.g. energy=-13.4 lattice="...">
//! <element> <x> <y> <z> [extra columns]
//! ...
//! ```
//!
//! OMat24/AFLOW-style pipelines parse millions of such frames before graph
//! encoding. This module supports multi-frame files, per-frame `key=value`
//! properties (quoted values allowed), and per-atom force columns.
//!
//! Frames do not depend on each other, so both directions work one frame
//! per [`par_map`] item, in input order. Who owns which copy:
//! [`write_xyz`] writes each frame into a `String` of its own, every
//! coordinate converted once, into it (`push_fixed8`: no `String` per
//! value), and owns the one output they are joined into. [`parse_xyz`]
//! borrows the text — frames, lines and tokens are slices of it — and
//! allocates only a slice per frame and what a [`Frame`] keeps: its
//! atoms, their element names, its properties. An ASCII atom line is cut
//! on its bytes and a plain decimal coordinate is read without std's
//! general float parser; each gives what std's path gives.

use crate::{malformed, FormatError};
use drai_io::parallel::par_map;
use std::collections::BTreeMap;
use std::fmt::Write;

/// One atom: element symbol and Cartesian position (Å).
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Element symbol (e.g. "Si").
    pub element: String,
    /// Position [x, y, z].
    pub position: [f64; 3],
    /// Optional per-atom force [fx, fy, fz].
    pub force: Option<[f64; 3]>,
}

/// One structure frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Atoms in file order.
    pub atoms: Vec<Atom>,
    /// Frame-level properties from the comment line (`energy`, `lattice`...).
    pub properties: BTreeMap<String, String>,
}

impl Frame {
    /// Frame energy, if the `energy` property parses as f64.
    pub fn energy(&self) -> Option<f64> {
        self.properties.get("energy")?.parse().ok()
    }

    /// Count atoms of each element.
    pub fn composition(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for a in &self.atoms {
            *out.entry(a.element.as_str()).or_insert(0) += 1;
        }
        out
    }
}

/// Parse (possibly multi-frame) extended XYZ text.
///
/// The text is cut into frames on the caller (`cut_frames`), then each
/// frame is parsed on [`par_map`], in order. The result is the one a
/// single pass over the lines gives: of a frame error and a cut error,
/// the one earlier in the text wins, and every cut frame precedes the
/// cut error, so a frame error wins whenever there is one.
pub fn parse_xyz(text: &str) -> Result<Vec<Frame>, FormatError> {
    let (cut, cut_error) = cut_frames(text);
    let frames = par_map(cut, parse_frame)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    cut_error.map(|()| frames)
}

/// One frame as [`cut_frames`] finds it: the index of its first atom
/// line, its comment line, and its `natoms` atom lines, terminators
/// included, as one slice of the text.
struct FrameText<'a> {
    first_line: usize,
    comment: &'a str,
    natoms: usize,
    atom_lines: &'a str,
}

/// A line as `parse_xyz` reads it: `str::lines`' line with every
/// trailing `\r` trimmed.
fn trim_line(raw: &str) -> &str {
    raw.strip_suffix('\n').unwrap_or(raw).trim_end_matches('\r')
}

/// `str::lines` with each line's terminator kept and its index, and
/// the text not read yet in `rest`.
struct Lines<'a> {
    rest: &'a str,
    index: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        if self.rest.is_empty() {
            return None;
        }
        let len = self.rest.find('\n').map_or(self.rest.len(), |n| n + 1);
        let (line, rest) = self.rest.split_at(len);
        self.rest = rest;
        self.index += 1;
        Some((self.index - 1, line))
    }
}

/// Cut `text` into frames: the frames up to the first error, and that
/// error. A frame's atom count is checked against the lines that remain
/// before anything is reserved for it, so a hostile count is a
/// "truncated" error, never an allocation.
fn cut_frames(text: &str) -> (Vec<FrameText<'_>>, Result<(), FormatError>) {
    let mut frames = Vec::new();
    let mut lines = Lines {
        rest: text,
        index: 0,
    };
    while let Some((i, raw)) = lines.next() {
        let count = trim_line(raw).trim();
        if count.is_empty() {
            continue;
        }
        let Ok(natoms) = count.parse::<usize>() else {
            let detail = format!("line {}: expected atom count", i + 1);
            return (frames, Err(malformed("xyz", detail)));
        };
        let Some((_, comment)) = lines.next() else {
            return (frames, Err(malformed("xyz", "missing comment line")));
        };
        let atom_lines = lines.rest;
        if lines.by_ref().take(natoms).count() < natoms {
            let detail = format!("frame at line {} truncated: wants {natoms} atoms", i + 1);
            return (frames, Err(malformed("xyz", detail)));
        }
        frames.push(FrameText {
            first_line: i + 2,
            comment: trim_line(comment),
            natoms,
            atom_lines: &atom_lines[..atom_lines.len() - lines.rest.len()],
        });
    }
    (frames, Ok(()))
}

/// Parse one frame [`cut_frames`] found; line numbers in errors are the
/// text's.
fn parse_frame(frame: FrameText<'_>) -> Result<Frame, FormatError> {
    let properties = parse_properties(frame.comment);
    let mut atoms = Vec::with_capacity(frame.natoms);
    for (j, raw) in (frame.first_line..).zip(frame.atom_lines.split_inclusive('\n')) {
        let mut cols = [""; 7];
        let ncols = split_columns(trim_line(raw), &mut cols);
        if ncols != 4 && ncols != 7 {
            return Err(malformed(
                "xyz",
                format!("line {}: expected 4 or 7 columns, got {ncols}", j + 1),
            ));
        }
        let parse = |s: &str, what: &str| -> Result<f64, FormatError> {
            plain_decimal(s)
                .or_else(|| s.parse().ok())
                .ok_or_else(|| malformed("xyz", format!("line {}: bad {what} {s:?}", j + 1)))
        };
        let position = [
            parse(cols[1], "x")?,
            parse(cols[2], "y")?,
            parse(cols[3], "z")?,
        ];
        let force = if ncols == 7 {
            Some([
                parse(cols[4], "fx")?,
                parse(cols[5], "fy")?,
                parse(cols[6], "fz")?,
            ])
        } else {
            None
        };
        atoms.push(Atom {
            element: cols[0].to_string(),
            position,
            force,
        });
    }
    Ok(Frame { atoms, properties })
}

/// `line.split_whitespace()` into `cols` (the first seven tokens) and
/// the number of tokens. An ASCII line is cut on its bytes at the ASCII
/// members of `char::is_whitespace` (tab to carriage return, space);
/// any other line, which may hold Unicode white space, takes std's path.
fn split_columns<'a>(line: &'a str, cols: &mut [&'a str; 7]) -> usize {
    let mut ncols = 0;
    let mut keep = |token: &'a str| {
        if let Some(slot) = cols.get_mut(ncols) {
            *slot = token;
        }
        ncols += 1;
    };
    if line.is_ascii() {
        let mut start = 0;
        for (i, b) in line.bytes().enumerate() {
            if matches!(b, b'\t'..=b'\r' | b' ') {
                if start < i {
                    keep(&line[start..i]);
                }
                start = i + 1;
            }
        }
        if start < line.len() {
            keep(&line[start..]);
        }
    } else {
        line.split_whitespace().for_each(keep);
    }
    ncols
}

/// Powers of ten up to 10¹⁵, each exact in `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// `s` as `str::parse::<f64>` reads it, when `s` is a plain decimal
/// `[-]digits[.digits]` of at most 15 digits in all; `None` for anything
/// else. Its digits `m` (< 10¹⁵ < 2⁵³) and `10^k` for its `k` fraction
/// digits are exact in `f64`, so the one correctly rounded division
/// `m / 10^k` is the correctly rounded value (Clinger's fast path).
fn plain_decimal(s: &str) -> Option<f64> {
    let (negative, body) = match s.as_bytes().split_first() {
        Some((b'-', body)) => (true, body),
        _ => (false, s.as_bytes()),
    };
    let (int, frac) = match body.iter().position(|&b| b == b'.') {
        Some(dot) => (&body[..dot], &body[dot + 1..]),
        None => (body, &[][..]),
    };
    let dot_without_digits = frac.is_empty() && int.len() < body.len();
    if int.is_empty() || dot_without_digits || int.len() + frac.len() > 15 {
        return None;
    }
    // Two loops, not a chain of the two slices: the chain costs a branch
    // per digit.
    let mut m = 0u64;
    for part in [int, frac] {
        for &b in part {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            m = m * 10 + u64::from(digit);
        }
    }
    let value = m as f64 / POW10[frac.len()];
    Some(if negative { -value } else { value })
}

/// Parse `key=value` pairs; values may be double-quoted to contain spaces.
fn parse_properties(line: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        let key_end = rest
            .find(|c: char| c == '=' || c.is_whitespace())
            .unwrap_or(rest.len());
        let (key, after_key) = rest.split_at(key_end);
        let Some(after_eq) = after_key.strip_prefix('=') else {
            // A bare token (free-text comment) — skip it.
            rest = after_key.trim_start();
            continue;
        };
        let (value, after_value) = match after_eq.strip_prefix('"') {
            // An unclosed quote takes the rest of the line.
            Some(quoted) => quoted.split_once('"').unwrap_or((quoted, "")),
            None => after_eq.split_at(after_eq.find(char::is_whitespace).unwrap_or(after_eq.len())),
        };
        if !key.is_empty() {
            out.insert(key.to_string(), value.to_string());
        }
        rest = after_value.trim_start();
    }
    out
}

/// Append `x` as `format!("{x:.8}")` would print it, without the
/// `String` per value: the binary fraction `mant × 2^-shift` times 10⁸ is
/// an exact integer ratio in `u128`, rounded half-even on its exact
/// remainder, and its digits go through a stack buffer. Values whose
/// scaled magnitude would not fit `u64` (|x| ≥ 9 × 10¹⁰) and non-finite
/// ones take std's path.
fn push_fixed8(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as u32;
    if biased == 0x7FF || x.abs() >= 9e10 {
        let _ = write!(out, "{x:.8}");
        return;
    }
    let fraction = bits & ((1 << 52) - 1);
    // |x| < 2^37, so the exponent of the 53-bit mantissa is ≤ -16.
    let (mant, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | (1 << 52), 1075 - biased),
    };
    // mant × 10⁸ < 2^80: shifted further than that, it rounds to zero.
    let scaled = match shift {
        81.. => 0,
        _ => {
            let exact = u128::from(mant) * 100_000_000;
            let floor = (exact >> shift) as u64;
            let rem = exact & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            floor + u64::from(rem > half || (rem == half && floor & 1 == 1))
        }
    };
    // Sign, ≤ 11 integer digits, point, 8 decimals: filled from the end.
    let mut buf = [b'0'; 24];
    let mut at = buf.len();
    let mut decimals = scaled % 100_000_000;
    for _ in 0..8 {
        at -= 1;
        buf[at] = b'0' + (decimals % 10) as u8;
        decimals /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    let mut integer = scaled / 100_000_000;
    loop {
        at -= 1;
        buf[at] = b'0' + (integer % 10) as u8;
        integer /= 10;
        if integer == 0 {
            break;
        }
    }
    if x.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Write frames as extended XYZ: each frame written on [`par_map`] into
/// a `String` of its own, and the frames joined in order.
pub fn write_xyz(frames: &[Frame]) -> String {
    let parts = par_map(frames, write_frame);
    let mut out = String::with_capacity(parts.iter().map(String::len).sum());
    for part in &parts {
        out.push_str(part);
    }
    out
}

/// One frame as extended XYZ.
fn write_frame(f: &Frame) -> String {
    // About 13 bytes a coordinate; growth covers what the guess misses.
    let mut out = String::with_capacity(64 + f.atoms.len() * 84);
    let _ = writeln!(out, "{}", f.atoms.len());
    for (n, (k, v)) in f.properties.iter().enumerate() {
        if n > 0 {
            out.push(' ');
        }
        out.push_str(k);
        out.push('=');
        if v.contains(' ') || v.is_empty() {
            out.push('"');
            out.push_str(v);
            out.push('"');
        } else {
            out.push_str(v);
        }
    }
    out.push('\n');
    for a in &f.atoms {
        out.push_str(&a.element);
        for c in a.position.iter().chain(a.force.iter().flatten()) {
            out.push(' ');
            push_fixed8(&mut out, *c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si_frame() -> Frame {
        Frame {
            atoms: vec![
                Atom {
                    element: "Si".into(),
                    position: [0.0, 0.0, 0.0],
                    force: Some([0.1, -0.2, 0.0]),
                },
                Atom {
                    element: "Si".into(),
                    position: [1.3575, 1.3575, 1.3575],
                    force: Some([-0.1, 0.2, 0.0]),
                },
                Atom {
                    element: "O".into(),
                    position: [2.715, 0.0, 0.0],
                    force: Some([0.0, 0.0, 0.0]),
                },
            ],
            properties: [
                ("energy".to_string(), "-13.47".to_string()),
                (
                    "lattice".to_string(),
                    "5.43 0 0 0 5.43 0 0 0 5.43".to_string(),
                ),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn round_trip_multi_frame() {
        let frames = vec![si_frame(), si_frame()];
        let text = write_xyz(&frames);
        let back = parse_xyz(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].atoms.len(), 3);
        assert_eq!(back[0].properties["energy"], "-13.47");
        assert_eq!(back[0].properties["lattice"], "5.43 0 0 0 5.43 0 0 0 5.43");
        for (a, b) in back[0].atoms.iter().zip(&frames[0].atoms) {
            assert_eq!(a.element, b.element);
            for k in 0..3 {
                assert!((a.position[k] - b.position[k]).abs() < 1e-8);
                assert!((a.force.unwrap()[k] - b.force.unwrap()[k]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn frame_accessors() {
        let f = si_frame();
        assert_eq!(f.energy(), Some(-13.47));
        let comp = f.composition();
        assert_eq!(comp["Si"], 2);
        assert_eq!(comp["O"], 1);
    }

    #[test]
    fn positions_without_forces() {
        let text = "2\nenergy=1.5\nH 0 0 0\nH 0 0 0.74\n";
        let frames = parse_xyz(text).unwrap();
        assert_eq!(frames[0].atoms[1].position[2], 0.74);
        assert_eq!(frames[0].atoms[0].force, None);
        assert_eq!(frames[0].energy(), Some(1.5));
    }

    #[test]
    fn free_text_comment_tolerated() {
        let text = "1\ngenerated by dft run 42 energy=-3.0\nC 1 2 3\n";
        let frames = parse_xyz(text).unwrap();
        assert_eq!(frames[0].energy(), Some(-3.0));
    }

    #[test]
    fn malformed_rejected() {
        assert!(parse_xyz("notanumber\ncomment\n").is_err());
        assert!(parse_xyz("2\ncomment\nH 0 0 0\n").is_err()); // missing atom
        assert!(parse_xyz("1\ncomment\nH 0 0\n").is_err()); // 3 columns
        assert!(parse_xyz("1\ncomment\nH a b c\n").is_err()); // bad float
        assert!(parse_xyz("1\n").is_err()); // no comment line
        assert!(parse_xyz("").unwrap().is_empty());
    }

    /// An atom count is outside input: one the file cannot hold is a
    /// truncated frame, whatever it would do to an index or a
    /// reservation.
    #[test]
    fn hostile_atom_counts_are_truncation_errors() {
        for (count, lines) in [
            (usize::MAX, "c\nH 0 0 0\n"),
            (usize::MAX - 1, "c\nH 0 0 0\n"),
            (usize::MAX, "c\n"),
            (2, "c\nH 0 0 0\n"),
            (1, "c\n"),
        ] {
            match parse_xyz(&format!("{count}\n{lines}")) {
                Err(FormatError::Malformed { detail, .. }) => assert_eq!(
                    detail,
                    format!("frame at line 1 truncated: wants {count} atoms")
                ),
                other => panic!("{count}: {other:?}"),
            }
        }
        // The count is taken against what is left after this frame's own
        // two lines, not against the whole file.
        let second = parse_xyz("1\nc\nH 0 0 0\n3\nc\nH 0 0 0\nH 0 0 0\n");
        assert!(second.unwrap_err().to_string().contains("line 4 truncated"));
    }

    #[test]
    fn fixed_point_writer_prints_what_std_prints() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.3575,
            0.1,
            0.5e-8,
            1.5e-8,
            0.999999995,
            123456.789,
            -5e-324,
            8.99e10,
            9e10,
            -1e300,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        for x in cases {
            let mut out = String::from(">");
            push_fixed8(&mut out, x);
            assert_eq!(out, format!(">{x:.8}"));
        }
    }

    #[test]
    fn blank_lines_between_frames() {
        let text = "1\ne=1\nH 0 0 0\n\n\n1\ne=2\nHe 1 1 1\n";
        let frames = parse_xyz(text).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].atoms[0].element, "He");
    }

    #[test]
    fn plain_decimals_parse_as_std_parses_them() {
        let fast = [
            "0",
            "-0",
            "-0.000",
            "7",
            "12.5",
            "-3.14159265",
            "0.1",
            "0.3",
            "123456789012345",
            "-999999999999999",
            "9.99999999999999",
            "0.00000000000001",
            "1.23456789012345",
        ];
        for s in fast {
            let want: f64 = s.parse().unwrap();
            assert_eq!(
                plain_decimal(s).map(f64::to_bits),
                Some(want.to_bits()),
                "{s}"
            );
        }
        // Other spellings std reads (or refuses) are left to it.
        let slow = [
            ".5",
            "-.5",
            "1.",
            "+1",
            "1e5",
            "1.5E-3",
            "inf",
            "-inf",
            "NaN",
            "1.2.3",
            "1..2",
            "-",
            "--1",
            "1,5",
            "1234567890123456",
            "0.000000000000001",
            "12345678.90123456",
        ];
        for s in slow {
            assert_eq!(plain_decimal(s), None, "{s}");
        }
        // Seeded decimals of 1 to 15 digits, the dot anywhere.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..20_000 {
            let digits = 1 + next(15) as usize;
            let mut s: String = (0..digits)
                .map(|_| char::from(b'0' + next(10) as u8))
                .collect();
            let dot = next(digits as u64) as usize;
            if dot > 0 {
                s.insert(dot, '.');
            }
            if next(2) == 0 {
                s.insert(0, '-');
            }
            let want: f64 = s.parse().unwrap();
            assert_eq!(
                plain_decimal(&s).map(f64::to_bits),
                Some(want.to_bits()),
                "{s}"
            );
        }
    }

    #[test]
    fn ascii_and_unicode_lines_split_alike() {
        for line in [
            "H 0 0 0",
            "  He\t1 2\x0b3\x0c4 5\r6  ",
            "C\u{a0}0 0 0\u{2003}1",
            "a b c d e f g h i",
            "",
            " \t ",
        ] {
            let mut cols = [""; 7];
            let n = split_columns(line, &mut cols);
            let want: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(n, want.len(), "{line:?}");
            assert_eq!(cols[..n.min(7)], want[..n.min(7)], "{line:?}");
        }
    }

    #[test]
    fn scientific_notation_coordinates() {
        let text = "1\nx=y\nFe 1.5e-3 -2E2 0.0\n";
        let frames = parse_xyz(text).unwrap();
        assert_eq!(frames[0].atoms[0].position, [0.0015, -200.0, 0.0]);
    }
}
