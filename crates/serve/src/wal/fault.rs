//! An in-memory [`SegmentStore`] that fails on cue, for tests: the writer,
//! recovery, catch-up and the shard worker run over it unchanged.
//!
//! It keeps, per segment, the bytes appended, how many of them the last
//! `sync` made durable, and whether the segment's directory entry was ever
//! synced (and per shard directory, whether its entry in the root was).
//! Faults are armed per operation and call number:
//!
//! * [`Fault::Fail`] makes the call return an error of a chosen kind and do
//!   nothing else;
//! * [`Fault::Tear`] makes an `append` or a secret write keep a seeded
//!   prefix of its bytes, then fail, as a write cut short by a full disk
//!   does.
//!
//! [`FaultStore::crash`] is power loss: every byte past a segment's last
//! sync is dropped, and so is every segment (or shard directory, or the
//! secret) whose directory entry was never synced. A removal is durable at
//! once.

use crate::wal::segment::{Created, SegmentHandle, SegmentId, SegmentStore};
use bfly_common::rng::{Rng, SmallRng};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The store and handle operations, as faults and call counts name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    List,
    Create,
    SyncDir,
    Open,
    Truncate,
    Remove,
    Append,
    Sync,
    Len,
    ReadAt,
    ReadSecret,
    WriteSecret,
}

/// What an armed call does instead of succeeding.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fault {
    /// Return an error of this kind.
    Fail(io::ErrorKind),
    /// (`append` and `write_secret` only) keep a seeded prefix of the
    /// bytes, then fail.
    Tear,
}

#[derive(Debug, Default)]
struct MemSegment {
    data: Vec<u8>,
    /// Bytes the last `sync` made durable.
    synced: usize,
    /// The segment's entry in its shard directory was synced.
    entry_synced: bool,
}

#[derive(Debug)]
struct State {
    rng: SmallRng,
    /// Shard directories, and whether each one's entry in the root was synced.
    dirs: BTreeMap<usize, bool>,
    segs: BTreeMap<SegmentId, MemSegment>,
    /// The stored secret, and whether its entry in the root was synced.
    secret: Option<(Vec<u8>, bool)>,
    calls: HashMap<Op, u64>,
    faults: HashMap<(Op, u64), Fault>,
}

impl State {
    /// Count a call of `op`; the armed fault's error, if it fails.
    fn call(&mut self, op: Op) -> io::Result<Option<Fault>> {
        let n = self.calls.entry(op).or_default();
        let fault = self.faults.remove(&(op, *n));
        *n += 1;
        match fault {
            Some(Fault::Fail(kind)) => Err(io::Error::new(kind, format!("injected {op:?} fault"))),
            other => Ok(other),
        }
    }

    fn seg(&mut self, seg: SegmentId) -> io::Result<&mut MemSegment> {
        self.segs
            .get_mut(&seg)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no segment {seg:?}")))
    }
}

/// The in-memory, fault-injecting store.
#[derive(Debug)]
pub(crate) struct FaultStore {
    root: PathBuf,
    state: Arc<Mutex<State>>,
}

fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl FaultStore {
    /// An empty store; `seed` picks where torn appends are cut.
    pub(crate) fn new(seed: u64) -> Arc<FaultStore> {
        Arc::new(FaultStore {
            root: PathBuf::from("fault-store"),
            state: Arc::new(Mutex::new(State {
                rng: SmallRng::seed_from_u64(seed),
                dirs: BTreeMap::new(),
                segs: BTreeMap::new(),
                secret: None,
                calls: HashMap::new(),
                faults: HashMap::new(),
            })),
        })
    }

    /// Arm `fault` on call number `k` (counted from 0 since the store was
    /// made) of `op`.
    pub(crate) fn inject(&self, op: Op, k: u64, fault: Fault) {
        lock(&self.state).faults.insert((op, k), fault);
    }

    /// Calls of `op` so far.
    pub(crate) fn calls(&self, op: Op) -> u64 {
        lock(&self.state).calls.get(&op).copied().unwrap_or(0)
    }

    /// Power loss: keep only what was synced, data and directory entries
    /// alike.
    pub(crate) fn crash(&self) {
        let mut st = lock(&self.state);
        st.dirs.retain(|_, durable| *durable);
        st.secret = st.secret.take().filter(|(_, durable)| *durable);
        let State { dirs, segs, .. } = &mut *st;
        segs.retain(|seg, s| s.entry_synced && dirs.contains_key(&seg.shard));
        for s in segs.values_mut() {
            s.data.truncate(s.synced);
        }
    }

    fn handle(&self, seg: SegmentId) -> Box<dyn SegmentHandle> {
        Box::new(MemHandle {
            seg,
            state: self.state.clone(),
        })
    }
}

impl SegmentStore for FaultStore {
    fn root(&self) -> &Path {
        &self.root
    }

    fn list(&self, shard: usize) -> io::Result<Vec<u64>> {
        let mut st = lock(&self.state);
        st.call(Op::List)?;
        Ok(st
            .segs
            .keys()
            .filter(|seg| seg.shard == shard)
            .map(|seg| seg.idx)
            .collect())
    }

    fn create_or_open(&self, seg: SegmentId) -> io::Result<(Box<dyn SegmentHandle>, Created)> {
        let mut st = lock(&self.state);
        st.call(Op::Create)?;
        let created = Created {
            dir: !st.dirs.contains_key(&seg.shard),
            file: !st.segs.contains_key(&seg),
        };
        st.dirs.entry(seg.shard).or_insert(false);
        st.segs.entry(seg).or_default();
        Ok((self.handle(seg), created))
    }

    fn sync_dir(&self, shard: Option<usize>) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.call(Op::SyncDir)?;
        match shard {
            None => {
                st.dirs.values_mut().for_each(|durable| *durable = true);
                if let Some((_, durable)) = &mut st.secret {
                    *durable = true;
                }
            }
            Some(shard) => st
                .segs
                .iter_mut()
                .filter(|(seg, _)| seg.shard == shard)
                .for_each(|(_, s)| s.entry_synced = true),
        }
        Ok(())
    }

    fn open(&self, seg: SegmentId) -> io::Result<Box<dyn SegmentHandle>> {
        let mut st = lock(&self.state);
        st.call(Op::Open)?;
        st.seg(seg)?;
        Ok(self.handle(seg))
    }

    fn truncate(&self, seg: SegmentId, len: u64) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.call(Op::Truncate)?;
        let s = st.seg(seg)?;
        s.data.truncate(len as usize);
        s.synced = s.data.len();
        Ok(())
    }

    fn remove(&self, seg: SegmentId) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.call(Op::Remove)?;
        st.seg(seg)?;
        st.segs.remove(&seg);
        Ok(())
    }

    fn read_secret(&self) -> io::Result<Option<Vec<u8>>> {
        let mut st = lock(&self.state);
        st.call(Op::ReadSecret)?;
        Ok(st.secret.as_ref().map(|(bytes, _)| bytes.clone()))
    }

    fn write_secret(&self, bytes: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        let fault = st.call(Op::WriteSecret)?;
        if st.secret.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "secret exists",
            ));
        }
        let keep = match fault {
            Some(Fault::Tear) => st.rng.gen_below(bytes.len() as u64) as usize,
            _ => bytes.len(),
        };
        st.secret = Some((bytes[..keep].to_vec(), false));
        match fault {
            Some(Fault::Tear) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!(
                    "injected torn secret write: {keep} of {} bytes",
                    bytes.len()
                ),
            )),
            _ => Ok(()),
        }
    }
}

/// A handle on one in-memory segment.
struct MemHandle {
    seg: SegmentId,
    state: Arc<Mutex<State>>,
}

impl SegmentHandle for MemHandle {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        let fault = st.call(Op::Append)?;
        let keep = match fault {
            Some(Fault::Tear) => st.rng.gen_below(record.len() as u64) as usize,
            _ => record.len(),
        };
        st.seg(self.seg)?.data.extend_from_slice(&record[..keep]);
        match fault {
            Some(Fault::Tear) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected torn append: {keep} of {} bytes", record.len()),
            )),
            _ => Ok(()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        st.call(Op::Sync)?;
        let s = st.seg(self.seg)?;
        s.synced = s.data.len();
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        let mut st = lock(&self.state);
        st.call(Op::Len)?;
        Ok(st.seg(self.seg)?.data.len() as u64)
    }

    fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut st = lock(&self.state);
        st.call(Op::ReadAt)?;
        let data = &st.seg(self.seg)?.data;
        let from = (off as usize).min(data.len());
        let n = buf.len().min(data.len() - from);
        buf[..n].copy_from_slice(&data[from..from + n]);
        Ok(n)
    }
}
