//! Minimal ZIP archive writer/reader (STORE method only) with CRC-32.
//!
//! This is the container behind `.npz` shards: each member is an `.npy`
//! file stored uncompressed (matching `numpy.savez`, which also stores).
//! Implements the classic ZIP structures — local file headers, central
//! directory, end-of-central-directory — for archives < 4 GiB (no ZIP64).

use crate::bytes::{arr2, arr4};
use crate::{malformed, unsupported, FormatError};
use drai_io::crc32;

const LOCAL_MAGIC: u32 = 0x04034B50;
const CENTRAL_MAGIC: u32 = 0x02014B50;
const EOCD_MAGIC: u32 = 0x06054B50;

/// An archive member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZipEntry {
    /// Member file name (forward-slash separated).
    pub name: String,
    /// Member contents.
    pub data: Vec<u8>,
}

/// Bytes a member costs beyond its name (twice) and data: local header,
/// central directory record.
const MEMBER_OVERHEAD: usize = 30 + 46;
/// Bytes of the end-of-central-directory record.
const EOCD_LEN: usize = 22;

/// Length of the archive [`ZipWriter`] produces for members of the given
/// `(name length, data length)`.
pub fn archive_len(members: impl IntoIterator<Item = (usize, usize)>) -> usize {
    members
        .into_iter()
        .map(|(name, data)| MEMBER_OVERHEAD + 2 * name + data)
        .sum::<usize>()
        + EOCD_LEN
}

/// Incremental STORE-mode archive writer: each member's bytes are
/// produced straight into the archive buffer, checksummed where they lie,
/// and the local header in front of them patched with CRC and size.
///
/// Fails if a size would exceed the 32-bit ZIP limits (callers shard well
/// below 4 GiB; there is no ZIP64 support).
#[derive(Debug)]
pub struct ZipWriter {
    out: Vec<u8>,
    central: Vec<u8>,
    members: usize,
}

impl ZipWriter {
    /// A writer whose buffer holds `archive_bytes` (see [`archive_len`])
    /// without growing.
    pub fn with_capacity(archive_bytes: usize) -> ZipWriter {
        ZipWriter {
            out: Vec::with_capacity(archive_bytes),
            central: Vec::new(),
            members: 0,
        }
    }

    /// Add member `name`; `write` appends its contents to the buffer it is
    /// handed (and must do nothing else to it).
    pub fn member(
        &mut self,
        name: &str,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), FormatError> {
        let out = &mut self.out;
        let offset = u32::try_from(out.len())
            .map_err(|_| unsupported("zip", "archive exceeds 4 GiB (no ZIP64)"))?;
        let name_len = u16::try_from(name.len())
            .map_err(|_| unsupported("zip", format!("member name of {} bytes", name.len())))?;

        // Local file header; CRC and sizes follow the data.
        out.extend_from_slice(&LOCAL_MAGIC.to_le_bytes());
        out.extend_from_slice(&20u16.to_le_bytes()); // version needed
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&0u16.to_le_bytes()); // method: STORE
        out.extend_from_slice(&0u16.to_le_bytes()); // mod time
        out.extend_from_slice(&0u16.to_le_bytes()); // mod date
        let patch_at = out.len();
        out.extend_from_slice(&[0; 12]); // crc, compressed, uncompressed
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // extra len
        out.extend_from_slice(name.as_bytes());
        let data_at = out.len();
        write(out);
        let crc = crc32(&out[data_at..]);
        let size = u32::try_from(out.len() - data_at)
            .map_err(|_| unsupported("zip", format!("member `{name}` exceeds 4 GiB")))?;
        out[patch_at..patch_at + 4].copy_from_slice(&crc.to_le_bytes());
        out[patch_at + 4..patch_at + 8].copy_from_slice(&size.to_le_bytes());
        out[patch_at + 8..patch_at + 12].copy_from_slice(&size.to_le_bytes());

        // Central directory record.
        let central = &mut self.central;
        central.extend_from_slice(&CENTRAL_MAGIC.to_le_bytes());
        central.extend_from_slice(&20u16.to_le_bytes()); // version made by
        central.extend_from_slice(&20u16.to_le_bytes()); // version needed
        central.extend_from_slice(&0u16.to_le_bytes()); // flags
        central.extend_from_slice(&0u16.to_le_bytes()); // method
        central.extend_from_slice(&0u16.to_le_bytes()); // time
        central.extend_from_slice(&0u16.to_le_bytes()); // date
        central.extend_from_slice(&crc.to_le_bytes());
        central.extend_from_slice(&size.to_le_bytes());
        central.extend_from_slice(&size.to_le_bytes());
        central.extend_from_slice(&name_len.to_le_bytes());
        central.extend_from_slice(&0u16.to_le_bytes()); // extra
        central.extend_from_slice(&0u16.to_le_bytes()); // comment
        central.extend_from_slice(&0u16.to_le_bytes()); // disk number
        central.extend_from_slice(&0u16.to_le_bytes()); // internal attrs
        central.extend_from_slice(&0u32.to_le_bytes()); // external attrs
        central.extend_from_slice(&offset.to_le_bytes());
        central.extend_from_slice(name.as_bytes());
        self.members += 1;
        Ok(())
    }

    /// Append the central directory and its end record; the archive.
    pub fn finish(self) -> Result<Vec<u8>, FormatError> {
        let ZipWriter {
            mut out,
            central,
            members,
        } = self;
        let cd_offset = u32::try_from(out.len())
            .map_err(|_| unsupported("zip", "archive exceeds 4 GiB (no ZIP64)"))?;
        let cd_size = u32::try_from(central.len())
            .map_err(|_| unsupported("zip", "central directory exceeds 4 GiB"))?;
        let members = u16::try_from(members)
            .map_err(|_| unsupported("zip", "more than 65535 members (no ZIP64)"))?;
        out.extend_from_slice(&central);
        // End of central directory.
        out.extend_from_slice(&EOCD_MAGIC.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // this disk
        out.extend_from_slice(&0u16.to_le_bytes()); // cd disk
        out.extend_from_slice(&members.to_le_bytes());
        out.extend_from_slice(&members.to_le_bytes());
        out.extend_from_slice(&cd_size.to_le_bytes());
        out.extend_from_slice(&cd_offset.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // comment len
        Ok(out)
    }
}

/// Build a STORE-mode ZIP archive from `(name, data)` members.
///
/// Fails if total size would exceed the 32-bit ZIP limits (callers shard
/// well below 4 GiB; there is no ZIP64 support).
pub fn write_zip(entries: &[ZipEntry]) -> Result<Vec<u8>, FormatError> {
    let mut zip = ZipWriter::with_capacity(archive_len(
        entries.iter().map(|e| (e.name.len(), e.data.len())),
    ));
    for entry in entries {
        zip.member(&entry.name, |out| out.extend_from_slice(&entry.data))?;
    }
    zip.finish()
}

fn rd_u16(b: &[u8], at: usize) -> Result<u16, FormatError> {
    b.get(at..at + 2)
        .map(|s| u16::from_le_bytes(arr2(s)))
        .ok_or_else(|| malformed("zip", "truncated"))
}

fn rd_u32(b: &[u8], at: usize) -> Result<u32, FormatError> {
    b.get(at..at + 4)
        .map(|s| u32::from_le_bytes(arr4(s)))
        .ok_or_else(|| malformed("zip", "truncated"))
}

/// Parse a ZIP archive, verifying each member's CRC-32. Only STORE members
/// are supported; a DEFLATE member produces [`FormatError::Unsupported`].
pub fn read_zip(bytes: &[u8]) -> Result<Vec<ZipEntry>, FormatError> {
    // Locate EOCD by scanning backwards (comment may pad the tail).
    if bytes.len() < 22 {
        return Err(malformed("zip", "too short for EOCD"));
    }
    let mut eocd = None;
    let scan_floor = bytes.len().saturating_sub(22 + u16::MAX as usize);
    for pos in (scan_floor..=bytes.len() - 22).rev() {
        if rd_u32(bytes, pos)? == EOCD_MAGIC {
            eocd = Some(pos);
            break;
        }
    }
    let eocd = eocd.ok_or_else(|| malformed("zip", "no end-of-central-directory"))?;
    let count = rd_u16(bytes, eocd + 10)? as usize;
    let cd_offset = rd_u32(bytes, eocd + 16)? as usize;

    let mut entries = Vec::with_capacity(count);
    let mut pos = cd_offset;
    for _ in 0..count {
        if rd_u32(bytes, pos)? != CENTRAL_MAGIC {
            return Err(malformed("zip", "bad central directory magic"));
        }
        let method = rd_u16(bytes, pos + 10)?;
        let crc = rd_u32(bytes, pos + 16)?;
        let csize = rd_u32(bytes, pos + 20)? as usize;
        let usize_ = rd_u32(bytes, pos + 24)? as usize;
        let name_len = rd_u16(bytes, pos + 28)? as usize;
        let extra_len = rd_u16(bytes, pos + 30)? as usize;
        let comment_len = rd_u16(bytes, pos + 32)? as usize;
        let local_offset = rd_u32(bytes, pos + 42)? as usize;
        let name = bytes
            .get(pos + 46..pos + 46 + name_len)
            .ok_or_else(|| malformed("zip", "truncated name"))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| malformed("zip", "non-UTF-8 name"))?
            .to_string();
        pos += 46 + name_len + extra_len + comment_len;

        if method != 0 {
            return Err(unsupported(
                "zip",
                format!("compression method {method} in {name}"),
            ));
        }
        if csize != usize_ {
            return Err(malformed("zip", "stored sizes disagree"));
        }

        // Jump to the local header to find the data (local extra field may
        // differ from the central one).
        if rd_u32(bytes, local_offset)? != LOCAL_MAGIC {
            return Err(malformed("zip", "bad local header magic"));
        }
        let l_name = rd_u16(bytes, local_offset + 26)? as usize;
        let l_extra = rd_u16(bytes, local_offset + 28)? as usize;
        let data_start = local_offset + 30 + l_name + l_extra;
        let data = bytes
            .get(data_start..data_start + csize)
            .ok_or_else(|| malformed("zip", "truncated member data"))?
            .to_vec();
        if crc32(&data) != crc {
            return Err(FormatError::Io(drai_io::IoError::ChecksumMismatch {
                context: format!("zip member {name}"),
            }));
        }
        entries.push(ZipEntry { name, data });
    }
    Ok(entries)
}

/// Find one member by name.
pub fn find_entry<'a>(entries: &'a [ZipEntry], name: &str) -> Option<&'a ZipEntry> {
    entries.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ZipEntry> {
        vec![
            ZipEntry {
                name: "a.npy".into(),
                data: vec![1, 2, 3, 4, 5],
            },
            ZipEntry {
                name: "dir/b.npy".into(),
                data: (0..=255u8).collect(),
            },
            ZipEntry {
                name: "empty.npy".into(),
                data: vec![],
            },
        ]
    }

    #[test]
    fn round_trip() {
        let entries = sample();
        let bytes = write_zip(&entries).unwrap();
        let back = read_zip(&bytes).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_archive() {
        let bytes = write_zip(&[]).unwrap();
        assert_eq!(bytes.len(), 22); // EOCD only
        assert!(read_zip(&bytes).unwrap().is_empty());
    }

    #[test]
    fn structure_markers() {
        let bytes = write_zip(&sample()).unwrap();
        assert_eq!(&bytes[..4], &LOCAL_MAGIC.to_le_bytes());
        assert_eq!(
            &bytes[bytes.len() - 22..bytes.len() - 18],
            &EOCD_MAGIC.to_le_bytes()
        );
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = write_zip(&sample()).unwrap();
        // Flip one byte of the first member's data (offset 30 + name).
        bytes[30 + 5 + 2] ^= 0xFF;
        assert!(matches!(
            read_zip(&bytes),
            Err(FormatError::Io(drai_io::IoError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = write_zip(&sample()).unwrap();
        assert!(read_zip(&bytes[..bytes.len() - 4]).is_err());
        assert!(read_zip(&bytes[..10]).is_err());
        assert!(read_zip(b"PK").is_err());
    }

    #[test]
    fn find_by_name() {
        let entries = sample();
        assert_eq!(
            find_entry(&entries, "a.npy").unwrap().data,
            vec![1, 2, 3, 4, 5]
        );
        assert!(find_entry(&entries, "missing").is_none());
    }

    #[test]
    fn tolerates_trailing_comment_space() {
        // EOCD scan must find the record even with a trailing comment.
        let mut bytes = write_zip(&sample()).unwrap();
        let n = bytes.len();
        bytes[n - 2] = 4; // comment length = 4
        bytes.extend_from_slice(b"note");
        let back = read_zip(&bytes).unwrap();
        assert_eq!(back.len(), 3);
    }
}
