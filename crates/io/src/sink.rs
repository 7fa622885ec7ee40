//! Storage backends for shard output.
//!
//! The shard engine writes through a [`StorageSink`] so the same pipeline
//! can target a real filesystem ([`LocalFs`]), an in-memory store
//! ([`MemSink`], used by tests), or the simulated striped parallel
//! filesystem in `drai-sim` (which implements this trait to model
//! Lustre-style OST striping for the scaling experiments).

//!
//! Telemetry: both built-in sinks count `io.sink.bytes_written`,
//! `io.sink.files_written`, and `io.sink.bytes_read`; [`LocalFs`]
//! additionally records `io.sink.fsync_ns` (the `sync_all` latency of
//! each durable write) and `io.sink.dirsync_ns` (the parent-directory
//! sync that makes the publishing rename itself durable).
//!
//! Resilience wrappers live in sibling modules: [`crate::fault`]
//! injects deterministic failures around any sink, and [`crate::retry`]
//! retries transient ones with deterministic backoff.

use crate::names;
use crate::IoError;
use drai_telemetry::{Registry, Stopwatch};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

fn count_write(bytes: usize) {
    let registry = Registry::current();
    registry
        .handle(&names::SINK_BYTES_WRITTEN, [])
        .add(bytes as u64);
    registry.handle(&names::SINK_FILES_WRITTEN, []).incr();
}

fn count_read(bytes: usize) {
    Registry::current()
        .handle(&names::SINK_BYTES_READ, [])
        .add(bytes as u64);
}

/// A flat namespace of named byte blobs. Names may contain `/` separators;
/// backends create intermediate directories as needed. Implementations must
/// be thread-safe: parallel shard writers call `write_file` concurrently.
///
/// Reads lend, writes copy: `write_file` takes the caller's bytes by
/// reference and stores a copy of its own, and `read_file` hands out the
/// stored blob itself, shared and immutable. A reader that only hashes,
/// scans or parses a blob uses it in place; one that edits it makes its
/// own copy (`.to_vec()`). A lent blob keeps its bytes after its name is
/// overwritten or deleted.
pub trait StorageSink: Send + Sync {
    /// Write (create or replace) a named blob.
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError>;
    /// Read a named blob in full, as the stored bytes shared rather than
    /// a copy; a missing one is [`IoError::NotFound`].
    fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError>;
    /// List all blob names, sorted. A backend's own scratch files (a
    /// staging file of an unfinished write) are not blobs.
    fn list(&self) -> Result<Vec<String>, IoError>;
    /// Remove a blob (ok if absent).
    fn delete(&self, name: &str) -> Result<(), IoError>;
    /// True if the blob exists.
    ///
    /// Contract: `exists` is a *metadata probe* — callers (the shard
    /// manifest paths, resumable pipelines) may issue it per blob and
    /// expect O(1) cost with no effect on the `io.sink.bytes_read`
    /// counter. The trait default reads the entire blob (O(size), and
    /// inflates read telemetry); it exists only so trivial backends
    /// compile. Every real backend must override it with a metadata
    /// check, and wrapper sinks (retry/fault) must forward to the inner
    /// backend's override rather than inherit the default.
    fn exists(&self, name: &str) -> bool {
        self.read_file(name).is_ok()
    }
}

/// Refuse a blob name that is empty, absolute, or has a `..` or a
/// leading `.` segment (an inner `.`, as in `a/./b`, is dropped by the
/// path parser and passes). Every sink calls this before it stores a
/// blob, so all of them take the same names.
pub fn validate_name(name: &str) -> Result<(), IoError> {
    let relative = Path::new(name)
        .components()
        .all(|c| matches!(c, Component::Normal(_)));
    if name.is_empty() || !relative {
        return Err(IoError::Format {
            blob: name.to_string(),
            what: "a blob name must be a non-empty relative path of plain segments".to_string(),
        });
    }
    Ok(())
}

/// Filesystem-backed sink rooted at a directory.
#[derive(Debug, Clone)]
pub struct LocalFs {
    root: PathBuf,
}

impl LocalFs {
    /// Sink rooted at `root` (created if missing).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, IoError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| IoError::os(root.display().to_string(), e))?;
        Ok(LocalFs { root })
    }

    fn path_of(&self, name: &str) -> Result<PathBuf, IoError> {
        validate_name(name)?;
        Ok(self.root.join(name))
    }
}

/// Process-unique suffix counter for staging files (combined with the
/// pid so concurrent processes sharing a sink root cannot collide).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Staging path for an atomic write of `path`. The unique suffix is
/// *appended to the full file name* — `with_extension` would map names
/// differing only in their final extension (`data.json`, `data.csv`) to
/// the same staging file, letting concurrent writers clobber each
/// other's in-flight bytes.
fn staging_path(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!("{STAGING_MARK}{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// What [`staging_path`] puts between a blob's file name and its
/// `<pid>.<n>` suffix.
const STAGING_MARK: &str = ".tmp-write.";

/// Whether `file_name` is a staging file: an in-flight write's, or one
/// a crashed write left behind. Neither is a blob.
fn is_staging(file_name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    file_name
        .rsplit_once(STAGING_MARK)
        .and_then(|(_, suffix)| suffix.split_once('.'))
        .is_some_and(|(pid, n)| digits(pid) && digits(n))
}

impl StorageSink for LocalFs {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
        let path = self.path_of(name)?;
        let os = |e| IoError::os(name, e);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(os)?;
        }
        // Write-then-rename so a concurrent reader never observes a
        // partially written shard.
        let tmp = staging_path(&path);
        let write_and_rename = || -> std::io::Result<()> {
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(data)?;
                let fsync_start = Stopwatch::start();
                f.sync_all()?;
                Registry::current()
                    .handle(&names::SINK_FSYNC_NS, [])
                    .record(fsync_start.elapsed_ns());
            }
            fs::rename(&tmp, &path)
        };
        if let Err(e) = write_and_rename() {
            // Don't leak the staging file on any failure path.
            let _ = fs::remove_file(&tmp);
            return Err(os(e));
        }
        // The rename only becomes durable once the parent directory's
        // entry is on stable storage; without this a crash can lose the
        // rename even though the file data itself was synced.
        #[cfg(unix)]
        if let Some(parent) = path.parent() {
            let dirsync_start = Stopwatch::start();
            fs::File::open(parent)
                .and_then(|dir| dir.sync_all())
                .map_err(os)?;
            Registry::current()
                .handle(&names::SINK_DIRSYNC_NS, [])
                .record(dirsync_start.elapsed_ns());
        }
        count_write(data.len());
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
        let os = |e| IoError::os(name, e);
        let mut file = fs::File::open(self.path_of(name)?).map_err(os)?;
        // A published file is never written in place (writes stage and
        // rename), so the open handle's length is the blob's length.
        let len = file.metadata().map_err(os)?.len();
        let len = usize::try_from(len).map_err(|_| IoError::Format {
            blob: name.to_string(),
            what: format!("{len} bytes do not fit in memory"),
        })?;
        // One allocation, read into where it lies: an exact-size iterator
        // collects straight into the `Arc`, and `make_mut` of an `Arc`
        // nothing else holds yet lends its bytes without cloning them.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        file.read_exact(Arc::make_mut(&mut data)).map_err(os)?;
        count_read(data.len());
        Ok(data)
    }

    fn list(&self) -> Result<Vec<String>, IoError> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let os = |e| IoError::os(dir.display().to_string(), e);
            for entry in fs::read_dir(&dir).map_err(os)? {
                let entry = entry.map_err(os)?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if is_staging(&entry.file_name().to_string_lossy()) {
                    // An unfinished write's scratch file, not a blob.
                } else if let Ok(rel) = path.strip_prefix(&self.root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn delete(&self, name: &str) -> Result<(), IoError> {
        let path = self.path_of(name)?;
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(IoError::os(name, e)),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).map(|p| p.exists()).unwrap_or(false)
    }
}

/// In-memory sink for tests and benchmarks that must exclude disk effects.
///
/// One mutex guards the name map, and every stage worker, shard-writer
/// thread and cache lookup of a run goes through it, so it is held for
/// map operations only: payloads are copied in before it is taken, a
/// reader takes a pointer under the lock (blobs sit behind an `Arc`,
/// and `read_file` lends that `Arc` itself, so no payload byte is
/// copied out), and a replaced or deleted blob is freed once the guard
/// and every lent pointer to it are gone.
#[derive(Debug, Default, Clone)]
pub struct MemSink {
    files: Arc<Mutex<BTreeMap<String, Arc<[u8]>>>>,
}

impl MemSink {
    /// Empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently stored.
    pub fn total_bytes(&self) -> usize {
        self.files.lock().values().map(|blob| blob.len()).sum()
    }

    /// Number of stored blobs.
    pub fn file_count(&self) -> usize {
        self.files.lock().len()
    }
}

impl StorageSink for MemSink {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
        validate_name(name)?;
        let (name, blob) = (name.to_string(), Arc::from(data));
        let replaced = self.files.lock().insert(name, blob);
        drop(replaced);
        count_write(data.len());
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
        let blob = self.files.lock().get(name).cloned();
        let blob = blob.ok_or_else(|| IoError::NotFound {
            blob: name.to_string(),
        })?;
        count_read(blob.len());
        Ok(blob)
    }

    fn list(&self) -> Result<Vec<String>, IoError> {
        Ok(self.files.lock().keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> Result<(), IoError> {
        let removed = self.files.lock().remove(name);
        drop(removed);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(sink: &dyn StorageSink) {
        sink.write_file("a.bin", b"hello").unwrap();
        sink.write_file("sub/dir/b.bin", b"world").unwrap();
        assert_eq!(&*sink.read_file("a.bin").unwrap(), b"hello");
        assert_eq!(&*sink.read_file("sub/dir/b.bin").unwrap(), b"world");
        assert!(sink.exists("a.bin"));
        assert!(!sink.exists("missing.bin"));
        let names = sink.list().unwrap();
        assert!(names.contains(&"a.bin".to_string()));
        assert!(names.contains(&"sub/dir/b.bin".to_string()));
        // Overwrite.
        sink.write_file("a.bin", b"replaced").unwrap();
        assert_eq!(&*sink.read_file("a.bin").unwrap(), b"replaced");
        // Delete (idempotent).
        sink.delete("a.bin").unwrap();
        sink.delete("a.bin").unwrap();
        assert!(!sink.exists("a.bin"));
        assert!(sink.read_file("a.bin").is_err());
    }

    #[test]
    fn mem_sink_semantics() {
        let sink = MemSink::new();
        exercise(&sink);
        assert_eq!(sink.file_count(), 1);
        assert_eq!(sink.total_bytes(), 5);
    }

    #[test]
    fn local_fs_semantics() {
        let dir = std::env::temp_dir().join(format!("drai-io-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = LocalFs::new(&dir).unwrap();
        exercise(&sink);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_same_stem_writes_do_not_collide() {
        // Regression: `with_extension("tmp-write")` staged `d.json` and
        // `d.csv` at the *same* path, so concurrent writers clobbered
        // each other's staging file. The unique suffix must keep every
        // in-flight write isolated.
        let dir = std::env::temp_dir().join(format!("drai-io-stem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = LocalFs::new(&dir).unwrap();
        let exts = ["json", "csv", "bin", "txt"];
        std::thread::scope(|s| {
            for (t, ext) in exts.iter().enumerate() {
                let sink = &sink;
                s.spawn(move || {
                    let payload = vec![t as u8 + 1; 4096];
                    for _ in 0..50 {
                        sink.write_file(&format!("d.{ext}"), &payload).unwrap();
                    }
                });
            }
        });
        for (t, ext) in exts.iter().enumerate() {
            assert_eq!(
                &*sink.read_file(&format!("d.{ext}")).unwrap(),
                vec![t as u8 + 1; 4096],
                "d.{ext} was clobbered by a sibling extension's staging file"
            );
        }
        // No staging litter after success.
        for name in sink.list().unwrap() {
            assert!(!name.contains("tmp-write"), "leftover staging file {name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_file_cleaned_up_on_error() {
        // Force the rename to fail by squatting a *directory* on the
        // destination path: the data writes fine, rename(tmp, dir)
        // fails, and the staging file must not be left behind.
        let dir = std::env::temp_dir().join(format!("drai-io-cleanup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = LocalFs::new(&dir).unwrap();
        std::fs::create_dir_all(dir.join("blocked")).unwrap();
        std::fs::write(dir.join("blocked/child"), b"x").unwrap();
        assert!(sink.write_file("blocked", b"payload").is_err());
        let leftovers: Vec<String> = sink
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.contains("tmp-write"))
            .collect();
        assert!(leftovers.is_empty(), "staging litter: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_fs_lists_no_staging_file() {
        // A write in flight, or one a crash cut short, leaves
        // `<name>.tmp-write.<pid>.<n>` beside the blob: not a blob.
        let dir = std::env::temp_dir().join(format!("drai-io-staging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = LocalFs::new(&dir).unwrap();
        sink.write_file("sub/d.json", b"real").unwrap();
        std::fs::write(dir.join("sub/d.json.tmp-write.4242.7"), b"torn").unwrap();
        std::fs::write(dir.join("top.bin.tmp-write.1.0"), b"torn").unwrap();
        // A blob whose name merely contains the marker is still listed.
        sink.write_file("odd.tmp-write.notes", b"kept").unwrap();
        assert_eq!(sink.list().unwrap(), ["odd.tmp-write.notes", "sub/d.json"]);
        assert_eq!(&*sink.read_file("sub/d.json").unwrap(), b"real");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_escaping_names() {
        let sink = MemSink::new();
        assert!(sink.write_file("../evil", b"x").is_err());
        assert!(sink.write_file("/abs", b"x").is_err());
        assert!(sink.write_file("", b"x").is_err());
        assert!(sink.write_file("ok/../evil", b"x").is_err());
    }

    #[test]
    fn mem_sink_holds_its_lock_for_map_operations_only() {
        // One thread writes (overwriting, so old blobs are freed too),
        // then reads, 8 MiB blobs in a loop while this one probes an
        // unrelated name. A probe takes the sink's one mutex; were
        // payloads copied in, freed or cloned out under it, the typical
        // probe would wait out a good part of a copy. A read lends the
        // stored blob, so it is far quicker than a write and runs many
        // more rounds to span as many probes. Medians, so a descheduled
        // thread cannot decide the test.
        const BLOB: usize = 8 << 20;
        let sink = MemSink::new();
        sink.write_file("unrelated", b"x").unwrap();
        let payload = vec![0xA5u8; BLOB];
        let median = |mut samples: Vec<u64>| {
            samples.sort_unstable();
            samples[samples.len() / 2]
        };
        let copy_ns = median(
            (0..5)
                .map(|_| {
                    let t = Stopwatch::start();
                    std::hint::black_box(payload.to_vec());
                    t.elapsed_ns()
                })
                .collect(),
        );
        let probe_beside = |what: &str, rounds: usize, work: &(dyn Fn(usize) + Sync)| {
            let done = std::sync::atomic::AtomicBool::new(false);
            let mut probes: Vec<u64> = Vec::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    (0..rounds).for_each(work);
                    done.store(true, AtomicOrdering::Release);
                });
                while !done.load(AtomicOrdering::Acquire) {
                    let t = Stopwatch::start();
                    assert!(sink.exists("unrelated"));
                    probes.push(t.elapsed_ns());
                    // Paced, so probes sample the whole loop evenly and
                    // do not bunch up in the gaps between two copies.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            });
            assert!(probes.len() >= 24, "{what}: only {} probes", probes.len());
            let waited = median(probes);
            assert!(
                waited < copy_ns / 8,
                "{what}: the median probe waited {waited} ns beside copies of \
                 {copy_ns} ns — the sink moves payload bytes under its lock"
            );
        };
        probe_beside("write_file", 24, &|i| {
            sink.write_file(&format!("big/{}", i % 2), &payload)
                .unwrap()
        });
        probe_beside("read_file", 1 << 18, &|_| {
            assert_eq!(sink.read_file("big/0").unwrap().len(), BLOB)
        });
    }

    #[test]
    fn concurrent_writes() {
        let sink = MemSink::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..50 {
                        sink.write_file(&format!("t{t}/f{i}"), &[t as u8; 64])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(sink.file_count(), 400);
    }
}
