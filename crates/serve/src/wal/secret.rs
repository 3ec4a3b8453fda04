//! The deployment's secret: the base seed every stream's noise is keyed on,
//! stored once beside the shard directories before any shard opens, as
//! `seed:u64 | crc32:u32` little-endian, so a restart without `--seed`
//! replays and continues its streams. A file of another length or checksum
//! refuses the start rather than guess.

use crate::config::WalConfig;
use crate::wal::segment::{FsStore, SegmentStore, SECRET_FILE};
use bfly_common::crc32::crc32;
use bfly_common::{Error, Result};

/// The seed in a stored secret, or why its bytes cannot be trusted.
fn decode(bytes: &[u8]) -> std::result::Result<u64, String> {
    if bytes.len() != 12 {
        return Err(format!("is torn or short ({} bytes, not 12)", bytes.len()));
    }
    let (seed, crc) = bytes.split_at(8);
    if crc32(seed).to_le_bytes() != crc {
        return Err("fails its checksum".into());
    }
    Ok(u64::from_le_bytes(seed.try_into().expect("8 bytes")))
}

/// The base seed a node on the log at `wal` runs under: the stored secret
/// (a different `given` seed is refused), else `given` or a fresh draw from
/// the OS, stored durably first. Shard logs with no stored secret need
/// `given`. Every refusal or failure is a named `wal secret` error.
pub fn base_seed(wal: &WalConfig, shards: usize, given: Option<u64>) -> Result<u64> {
    bind_secret(&FsStore::new(&wal.dir), shards, given)
}

/// [`base_seed`] over `store`.
pub(crate) fn bind_secret(
    store: &dyn SegmentStore,
    shards: usize,
    given: Option<u64>,
) -> Result<u64> {
    let path = store.root().join(SECRET_FILE);
    let refuse = |why: String| Error::Parse(format!("wal secret {} {why}", path.display()));
    let stored = (store.read_secret()).map_err(|e| refuse(format!("is unreadable: {e}")))?;
    if let Some(bytes) = stored {
        let stored = decode(&bytes).map_err(|why| {
            refuse(format!(
                "{why}; remove it and restart with the --seed the log was written under"
            ))
        })?;
        return match given {
            Some(seed) if seed != stored => Err(refuse(
                "holds another seed than --seed; start without --seed to use it".into(),
            )),
            _ => Ok(stored),
        };
    }
    let seed = match given {
        Some(seed) => seed,
        None => {
            for shard in 0..shards {
                if !store.list(shard)?.is_empty() {
                    return Err(refuse(
                        "is missing but shard logs exist; restart with the --seed they \
                         were written under"
                            .into(),
                    ));
                }
            }
            bfly_common::rng::os_seed().map_err(|e| refuse(format!("cannot be drawn: {e}")))?
        }
    };
    let mut bytes = seed.to_le_bytes().to_vec();
    bytes.extend(crc32(&bytes).to_le_bytes());
    (store.write_secret(&bytes))
        .and_then(|()| store.sync_dir(None))
        .map_err(|e| refuse(format!("could not be stored: {e}")))?;
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::fanout::SubscriberRegistry;
    use crate::node::NodeCore;
    use crate::wal::fault::{Fault, FaultStore, Op};
    use crate::wal::segment::SegmentId;
    use std::io::ErrorKind;
    use std::sync::Arc;

    fn cfg(seed: u64) -> ServeConfig {
        ServeConfig {
            shards: 2,
            window: 20,
            c: 3,
            every: 5,
            seed,
            wal: Some(WalConfig::new("fault-store")),
            ..ServeConfig::default()
        }
    }

    /// Start a node over `store`: the error it refuses with, if it does.
    fn start(store: &Arc<FaultStore>, seed: u64) -> Option<String> {
        let registry = Arc::new(SubscriberRegistry::new());
        match NodeCore::start_in(&cfg(seed), &registry, Some(store.clone())) {
            Ok((core, workers)) => {
                core.on_shutdown();
                workers.into_iter().for_each(|w| w.join().unwrap());
                None
            }
            Err(e) => Some(e.to_string()),
        }
    }

    #[test]
    fn any_damage_to_a_stored_secret_is_refused() {
        let store = FaultStore::new(0);
        let seed = bind_secret(&*store, 2, None).unwrap();
        let bytes = store.read_secret().unwrap().unwrap();
        assert_eq!(decode(&bytes), Ok(seed));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).unwrap_err().contains("torn or short"));
        }
        let mut flipped = bytes;
        flipped[3] ^= 1;
        assert!(decode(&flipped).unwrap_err().contains("checksum"));
    }

    #[test]
    fn a_stored_secret_is_used_kept_and_defended() {
        let store = FaultStore::new(0);
        let drawn = bind_secret(&*store, 2, None).unwrap();
        assert_eq!(bind_secret(&*store, 2, None).unwrap(), drawn);
        assert_eq!(bind_secret(&*store, 2, Some(drawn)).unwrap(), drawn);
        let err = bind_secret(&*store, 2, Some(drawn ^ 1))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("wal secret") && err.contains("another seed"),
            "{err}"
        );
        assert_eq!(store.calls(Op::WriteSecret), 1, "stored once");
        // Durable: the root was synced after the write.
        store.crash();
        assert_eq!(bind_secret(&*store, 2, None).unwrap(), drawn);
    }

    #[test]
    fn a_node_stores_its_seed_before_a_shard_opens_and_refuses_another() {
        let store = FaultStore::new(0);
        assert_eq!(start(&store, 7), None);
        assert!(store.calls(Op::Create) > 0, "the shards opened");
        assert_eq!(
            bind_secret(&*store, 2, None).unwrap(),
            7,
            "the seed was stored"
        );
        let err = start(&store, 8).unwrap();
        assert!(err.contains("another seed"), "{err}");
    }

    #[test]
    fn a_failed_secret_write_or_sync_refuses_the_bind_before_any_shard_opens() {
        for op in [Op::WriteSecret, Op::SyncDir] {
            let store = FaultStore::new(0);
            store.inject(op, 0, Fault::Fail(ErrorKind::StorageFull));
            let err = start(&store, 7).expect("the bind must be refused");
            assert!(
                err.contains("wal secret") && err.contains("could not be stored"),
                "{err}"
            );
            assert_eq!(store.calls(Op::List), 0, "{op:?}: a shard was recovered");
            assert_eq!(store.calls(Op::Create), 0, "{op:?}: a shard opened");
        }
    }

    #[test]
    fn a_torn_or_short_secret_refuses_the_start() {
        for seed in 0..8 {
            let store = FaultStore::new(seed);
            store.inject(Op::WriteSecret, 0, Fault::Tear);
            assert!(start(&store, 7).unwrap().contains("could not be stored"));
            for given in [None, Some(7)] {
                let err = bind_secret(&*store, 2, given).unwrap_err().to_string();
                assert!(err.contains("torn or short"), "{err}");
            }
            let err = start(&store, 7).unwrap();
            assert!(err.contains("torn or short"), "{err}");
            assert_eq!(store.calls(Op::Create), 0);
        }
    }

    #[test]
    fn logs_without_a_secret_need_an_explicit_seed() {
        // Shard logs and no secret, as a log written before secrets were.
        let store = FaultStore::new(0);
        store.open_append(SegmentId { shard: 1, idx: 0 }).unwrap();
        let err = bind_secret(&*store, 2, None).unwrap_err().to_string();
        assert!(err.contains("is missing but shard logs exist"), "{err}");
        assert_eq!(store.calls(Op::WriteSecret), 0);
        assert_eq!(bind_secret(&*store, 2, Some(7)).unwrap(), 7);
        assert_eq!(bind_secret(&*store, 2, None).unwrap(), 7);
    }
}
