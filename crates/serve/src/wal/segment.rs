//! Segment storage: the one seam every byte of the log crosses.
//!
//! Each shard owns `wal_dir/shard-<idx>/`, holding `seg-<NNNNNN>.wal` files
//! with monotonically increasing indices. Records append to the
//! highest-indexed segment; rotation cuts a new one; compaction deletes
//! whole old segments once every live stream has a snapshot in a newer one
//! (see [`super::writer`]). Nothing is ever rewritten in place — a segment
//! is append-only while live and immutable once rotated, which is what
//! makes concurrent catch-up reads safe without locks. The one exception
//! is recovery truncating a torn tail, before any writer or reader exists.
//!
//! Every file-system call of the log sits in this module, behind
//! [`SegmentStore`]: the writer, recovery and catch-up name segments by
//! [`SegmentId`] and never touch a path or a file; the deployment's secret
//! is stored and read through the same seam. [`FsStore`] is the std
//! implementation; tests run the same code over `super::fault::FaultStore`,
//! an in-memory store that fails, tears and crashes on cue.
//!
//! A segment is read one way, through [`SegmentReader`]: fixed
//! [`BLOCK`]-sized reads into one reused buffer, each record handed to
//! [`scan_one`], the only record parser. What a caller does with an invalid
//! record is its policy; recovery and catch-up are two such policies.

use crate::wal::record::{declared_len, scan_one, Decode, Scan, HEADER_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".wal";

/// The deployment's secret ([`super::secret`]), in the root.
pub(crate) const SECRET_FILE: &str = "secret";

/// Bytes [`SegmentReader`] asks the store for at a time, and the size its
/// buffer starts at. The buffer grows past it only to hold one record
/// longer than a block.
pub(crate) const BLOCK: usize = 64 * 1024;

/// One segment of one shard's log: what every store operation takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SegmentId {
    /// The shard whose log holds the segment.
    pub(crate) shard: usize,
    /// The segment's index in that log.
    pub(crate) idx: u64,
}

/// The shard's log directory under the WAL root.
pub(crate) fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// File name of segment `idx` (zero-padded so lexical order is index order).
pub(crate) fn segment_file_name(idx: u64) -> String {
    format!("{SEG_PREFIX}{idx:06}{SEG_SUFFIX}")
}

/// Parse a segment index back out of a file name; `None` for foreign files
/// (editor droppings, temp files), which listing ignores.
pub(crate) fn parse_segment_idx(name: &str) -> Option<u64> {
    name.strip_prefix(SEG_PREFIX)?
        .strip_suffix(SEG_SUFFIX)?
        .parse()
        .ok()
}

/// What [`SegmentStore::create_or_open`] had to create.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Created {
    /// The shard directory did not exist.
    pub(crate) dir: bool,
    /// The segment did not exist.
    pub(crate) file: bool,
}

/// Every operation the log performs on storage.
pub(crate) trait SegmentStore: Send + Sync {
    /// The WAL root; segment names in errors are relative to it.
    fn root(&self) -> &Path;

    /// A shard's segment indices, ascending. A missing shard directory is
    /// an empty log, not an error (first boot).
    fn list(&self, shard: usize) -> io::Result<Vec<u64>>;

    /// Open `seg` for appending, creating the shard directory and the
    /// segment if missing, and say which it created. Syncs no directory:
    /// [`SegmentStore::open_append`] does.
    fn create_or_open(&self, seg: SegmentId) -> io::Result<(Box<dyn SegmentHandle>, Created)>;

    /// Make the directory entries created so far durable: the shard's
    /// segments for `Some(shard)`, the shard directories for `None` (the
    /// root).
    fn sync_dir(&self, shard: Option<usize>) -> io::Result<()>;

    /// Open an existing segment for reading (`NotFound` once compacted).
    fn open(&self, seg: SegmentId) -> io::Result<Box<dyn SegmentHandle>>;

    /// Cut `seg` to `len` bytes and make the cut durable.
    fn truncate(&self, seg: SegmentId, len: u64) -> io::Result<()>;

    /// Delete `seg`.
    fn remove(&self, seg: SegmentId) -> io::Result<()>;

    /// The stored secret's bytes, `None` if none was ever stored.
    fn read_secret(&self) -> io::Result<Option<Vec<u8>>>;

    /// Create the secret (owner-only, the root too if missing) holding
    /// `bytes`, and sync it; the caller syncs the root's entry.
    fn write_secret(&self, bytes: &[u8]) -> io::Result<()>;

    /// [`SegmentStore::create_or_open`], then sync every directory the
    /// creation added an entry to — the root after a new shard directory,
    /// the shard directory after a new segment — so a record acknowledged
    /// in a fresh segment cannot vanish with the segment's name after power
    /// loss. Returns whether the segment was created.
    fn open_append(&self, seg: SegmentId) -> io::Result<(Box<dyn SegmentHandle>, bool)> {
        let (handle, created) = self.create_or_open(seg)?;
        if created.dir {
            self.sync_dir(None)?;
        }
        if created.file {
            self.sync_dir(Some(seg.shard))?;
        }
        Ok((handle, created.file))
    }

    /// Where `seg` lives under this store's root — the name errors and
    /// the operator's log give it.
    fn path(&self, seg: SegmentId) -> PathBuf {
        shard_dir(self.root(), seg.shard).join(segment_file_name(seg.idx))
    }
}

/// One open segment.
pub(crate) trait SegmentHandle: Send {
    /// Append one whole record, handed to storage in one `write`.
    fn append(&mut self, record: &[u8]) -> io::Result<()>;

    /// Make every appended byte durable (`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;

    /// The segment's current length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Read bytes at `off` into `buf`; how many were read (0 at the end).
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize>;
}

/// The log on the local file system, rooted at the `--wal-dir`.
#[derive(Debug)]
pub(crate) struct FsStore {
    root: PathBuf,
}

impl FsStore {
    /// A store over the WAL rooted at `root`.
    pub(crate) fn new(root: &Path) -> FsStore {
        FsStore {
            root: root.to_path_buf(),
        }
    }
}

impl SegmentStore for FsStore {
    fn root(&self) -> &Path {
        &self.root
    }

    fn list(&self, shard: usize) -> io::Result<Vec<u64>> {
        let entries = match std::fs::read_dir(shard_dir(&self.root, shard)) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut idxs = Vec::new();
        for entry in entries {
            if let Some(idx) = entry?.file_name().to_str().and_then(parse_segment_idx) {
                idxs.push(idx);
            }
        }
        idxs.sort_unstable();
        Ok(idxs)
    }

    fn create_or_open(&self, seg: SegmentId) -> io::Result<(Box<dyn SegmentHandle>, Created)> {
        let dir = shard_dir(&self.root, seg.shard);
        let mut created = Created::default();
        if !dir.is_dir() {
            std::fs::create_dir_all(&dir)?;
            created.dir = true;
        }
        let path = dir.join(segment_file_name(seg.idx));
        let file = match OpenOptions::new().append(true).create_new(true).open(&path) {
            Ok(f) => {
                created.file = true;
                f
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                OpenOptions::new().append(true).open(&path)?
            }
            Err(e) => return Err(e),
        };
        Ok((Box::new(FsSegment(file)), created))
    }

    fn sync_dir(&self, shard: Option<usize>) -> io::Result<()> {
        let dir = match shard {
            Some(shard) => shard_dir(&self.root, shard),
            None => self.root.clone(),
        };
        sync_dir_at(&dir)
    }

    fn open(&self, seg: SegmentId) -> io::Result<Box<dyn SegmentHandle>> {
        Ok(Box::new(FsSegment(File::open(self.path(seg))?)))
    }

    fn truncate(&self, seg: SegmentId, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(self.path(seg))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn remove(&self, seg: SegmentId) -> io::Result<()> {
        std::fs::remove_file(self.path(seg))
    }

    fn read_secret(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.root.join(SECRET_FILE)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            read => read.map(Some),
        }
    }

    fn write_secret(&self, bytes: &[u8]) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        let mut opts = OpenOptions::new();
        #[cfg(unix)]
        std::os::unix::fs::OpenOptionsExt::mode(&mut opts, 0o600);
        let mut file = (opts.write(true).create_new(true)).open(self.root.join(SECRET_FILE))?;
        file.write_all(bytes)?;
        file.sync_all()
    }
}

/// `fsync` a directory, so the entries created in it survive power loss.
/// A file system that cannot sync a directory (`EINVAL`) has nothing more
/// to offer, so that is not a failure.
#[cfg(unix)]
fn sync_dir_at(dir: &Path) -> io::Result<()> {
    match File::open(dir)?.sync_all() {
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
        other => other,
    }
}

/// Directories cannot be opened as files here; creation is as durable as
/// the platform makes it.
#[cfg(not(unix))]
fn sync_dir_at(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// A segment file, open for appending or for reading.
#[derive(Debug)]
struct FsSegment(File);

impl SegmentHandle for FsSegment {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        self.0.write_all(record)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    #[cfg(unix)]
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        std::os::unix::fs::FileExt::read_at(&self.0, buf, off)
    }

    #[cfg(not(unix))]
    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = &self.0;
        f.seek(SeekFrom::Start(off))?;
        f.read(buf)
    }
}

/// Walks one segment at a time, record by record, in bounded memory: the
/// buffer holds one [`BLOCK`] of the segment, and grows only to hold a
/// record longer than that whose declared length fits in what is left of
/// the segment. A longer declaration is reported [`Scan::Corrupt`] by
/// [`scan_one`] without a byte allocated for it. One reader serves every
/// segment of a scan, so the buffer is allocated once.
pub(crate) struct SegmentReader {
    handle: Option<Box<dyn SegmentHandle>>,
    /// Segment length when opened: a concurrent append past it is the next
    /// scan's.
    seg_len: u64,
    /// Segment offset of `buf[start]`: the end of the last whole record.
    off: u64,
    buf: Vec<u8>,
    /// `buf[start..filled]` holds segment bytes `off..`.
    start: usize,
    filled: usize,
}

impl SegmentReader {
    /// A reader with no segment open.
    pub(crate) fn new() -> SegmentReader {
        SegmentReader {
            handle: None,
            seg_len: 0,
            off: 0,
            buf: vec![0; BLOCK],
            start: 0,
            filled: 0,
        }
    }

    /// Start reading `seg` at its first byte.
    pub(crate) fn open(&mut self, store: &dyn SegmentStore, seg: SegmentId) -> io::Result<()> {
        self.handle = None;
        (self.seg_len, self.off, self.start, self.filled) = (0, 0, 0, 0);
        let handle = store.open(seg)?;
        self.seg_len = handle.len()?;
        self.handle = Some(handle);
        Ok(())
    }

    /// The segment's length when it was opened.
    pub(crate) fn len(&self) -> u64 {
        self.seg_len
    }

    /// Where the next record starts: the end of the last whole record
    /// returned.
    pub(crate) fn offset(&self) -> u64 {
        self.off
    }

    /// The record at [`SegmentReader::offset`], as [`scan_one`] judges it
    /// over the segment under `decode`; the `end` of a [`Scan::Record`] or
    /// [`Scan::Skipped`] is a segment offset.
    pub(crate) fn next(&mut self, decode: Decode) -> io::Result<Scan> {
        self.fill(0)?;
        let left = self.seg_len - self.off;
        if let Some(need) = declared_len(&self.buf[self.start..self.filled]) {
            if need as u64 <= left {
                self.fill(need)?;
            }
        }
        let mut scan = scan_one(&self.buf[self.start..self.filled], 0, decode);
        if let Scan::Record { end, .. } | Scan::Skipped { end } = &mut scan {
            self.start += *end;
            self.off += *end as u64;
            *end = self.off as usize;
        }
        Ok(scan)
    }

    /// Make the window hold at least `want` bytes (at least a header, for
    /// 0) or every byte left in the segment, reading whole blocks.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        let left = self.seg_len - self.off;
        let want = (want.max(HEADER_LEN) as u64).min(left) as usize;
        let have = self.filled - self.start;
        if have >= want {
            return Ok(());
        }
        let Some(handle) = &self.handle else {
            return Ok(());
        };
        self.buf.copy_within(self.start..self.filled, 0);
        (self.start, self.filled) = (0, have);
        if want > self.buf.len() {
            self.buf.resize(want, 0);
        }
        let cap = (self.buf.len() as u64).min(left) as usize;
        while self.filled < want {
            let at = self.off + self.filled as u64;
            let n = handle.read_at(at, &mut self.buf[self.filled..cap])?;
            if n == 0 {
                // Shorter than when opened: the end is here.
                self.seg_len = at;
                break;
            }
            self.filled += n;
        }
        Ok(())
    }

    /// The buffer's size: one block, or the longest record read.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort_lexically() {
        assert_eq!(segment_file_name(0), "seg-000000.wal");
        assert_eq!(segment_file_name(42), "seg-000042.wal");
        assert_eq!(parse_segment_idx("seg-000042.wal"), Some(42));
        assert_eq!(parse_segment_idx("seg-junk.wal"), None);
        assert_eq!(parse_segment_idx("other.txt"), None);
        assert!(segment_file_name(9) < segment_file_name(10));
    }

    #[test]
    fn listing_ignores_foreign_files_and_sorts() {
        let root = std::env::temp_dir().join(format!("bfly-wal-seg-test-{}", std::process::id()));
        let dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["seg-000002.wal", "seg-000000.wal", "notes.txt"] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        assert_eq!(FsStore::new(&root).list(0).unwrap(), vec![0, 2]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_log() {
        let root = std::env::temp_dir().join("bfly-wal-definitely-missing-dir");
        assert!(FsStore::new(&root).list(0).unwrap().is_empty());
    }
}
