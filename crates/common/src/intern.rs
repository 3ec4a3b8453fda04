//! Hash-consed itemset interner.
//!
//! The publish path used to deep-clone `ItemSet` values at every layer
//! (miner result → FEC partition → republication pins → release entries →
//! attack views). Interning collapses all of that to a copyable
//! [`ItemsetId`]: each distinct itemset is stored once in a global arena
//! and every later mention is a 4-byte handle. Resolution returns
//! `&'static ItemSet` — the arena deliberately never frees (the id space
//! is bounded by the number of *distinct* itemsets ever published, which
//! hash-consing keeps small), so handles stay valid without lifetimes or
//! reference counting.
//!
//! Equality of ids is equality of itemsets: `intern` is injective over
//! itemset values, which is what lets FECs, caches, and views key on the
//! id directly.
//!
//! **Concurrency.** [`ItemsetId::resolve`] is the hottest call in the
//! publish/metrics/attack loops and is **lock-free**: ids index into an
//! append-only arena of geometrically growing chunks whose slots are
//! published with release/acquire atomics, so parallel breach enumeration
//! and metric evaluation never contend on a lock per resolve. Only
//! `intern`'s insert path (and the `get` probe) takes the `RwLock` that
//! guards the hash-consing map.

use crate::ItemSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{OnceLock, RwLock};

/// Copyable handle to an interned [`ItemSet`].
///
/// Two ids are equal iff the itemsets they intern are equal. Ids are
/// *not* ordered (order of allocation is an artifact of publish order, so
/// `Ord` is deliberately not derived); sort by [`ItemsetId::resolve`]
/// when a canonical order is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItemsetId(u32);

/// First chunk holds `1 << BASE_BITS` slots; chunk `k` holds twice as many
/// as chunk `k − 1`, so [`N_CHUNKS`] chunks cover the whole `u32` id space
/// while small runs allocate only one 8 KiB chunk.
const BASE_BITS: u32 = 10;
const BASE: u32 = 1 << BASE_BITS;
/// Chunk `22` ends at id `2³² − BASE`; together with the `interner full`
/// guard on id allocation, 23 chunks cover every assignable id.
const N_CHUNKS: usize = 23;

/// `id → (chunk index, offset within chunk)`.
fn locate(id: u32) -> (usize, usize) {
    let bucket = (id >> BASE_BITS) + 1;
    let k = (31 - bucket.leading_zeros()) as usize;
    let chunk_start = ((BASE as u64) << k) - BASE as u64;
    (k, (id as u64 - chunk_start) as usize)
}

/// Number of slots in chunk `k`.
fn chunk_len(k: usize) -> usize {
    (BASE as usize) << k
}

struct Interner {
    ids: HashMap<&'static ItemSet, u32>,
    /// Ids allocated so far (the next id to hand out).
    len: u32,
}

struct Shared {
    /// Directory of arena chunks. Each entry points at the first slot of a
    /// leaked `[AtomicPtr<ItemSet>; chunk_len(k)]`; null until allocated.
    /// Chunks are allocated and slots written only under `state`'s write
    /// lock, but read lock-free (acquire loads pair with the release
    /// stores below).
    dir: [AtomicPtr<AtomicPtr<ItemSet>>; N_CHUNKS],
    state: RwLock<Interner>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        dir: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        state: RwLock::new(Interner {
            ids: HashMap::new(),
            len: 0,
        }),
    })
}

impl ItemsetId {
    /// Intern `itemset`, returning its stable handle. Equal itemsets always
    /// receive the same id, no matter how often or from which thread they
    /// are interned.
    pub fn intern(itemset: &ItemSet) -> ItemsetId {
        // Fast path: already interned (read lock only).
        if let Some(id) = Self::get(itemset) {
            return id;
        }
        let s = shared();
        let mut w = s.state.write().expect("interner lock poisoned");
        // Re-check under the write lock: another thread may have won.
        if let Some(&id) = w.ids.get(itemset) {
            return ItemsetId(id);
        }
        let id = w.len;
        if id == u32::MAX {
            panic!("interner full");
        }
        let (k, offset) = locate(id);
        let mut chunk = s.dir[k].load(Ordering::Acquire);
        if chunk.is_null() {
            // Exactly one writer exists (we hold the write lock), so this
            // allocation cannot race another.
            let fresh: Box<[AtomicPtr<ItemSet>]> = (0..chunk_len(k))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            chunk = Box::leak(fresh).as_mut_ptr();
            s.dir[k].store(chunk, Ordering::Release);
        }
        let stored: &'static ItemSet = Box::leak(Box::new(itemset.clone()));
        // Publish the slot before the id can escape: the release store here
        // pairs with resolve's acquire load, and any thread holding this id
        // received it after this point.
        unsafe { &*chunk.add(offset) }
            .store(stored as *const ItemSet as *mut ItemSet, Ordering::Release);
        w.len = id + 1;
        w.ids.insert(stored, id);
        ItemsetId(id)
    }

    /// Look up the id of an itemset **without** interning it. `None` means
    /// the itemset has never been interned — for attack views built from
    /// published releases that reads as "never published", which is exactly
    /// the missing-support semantics the derivation code wants.
    pub fn get(itemset: &ItemSet) -> Option<ItemsetId> {
        shared()
            .state
            .read()
            .expect("interner lock poisoned")
            .ids
            .get(itemset)
            .copied()
            .map(ItemsetId)
    }

    /// The interned itemset. O(1) and **lock-free**: two acquire loads into
    /// the chunked arena. The reference is `'static` because the arena
    /// never frees.
    pub fn resolve(self) -> &'static ItemSet {
        let (k, offset) = locate(self.0);
        let chunk = shared().dir[k].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "resolve of unallocated chunk");
        let slot = unsafe { &*chunk.add(offset) }.load(Ordering::Acquire);
        debug_assert!(!slot.is_null(), "resolve of unpublished id");
        // Safety: ids are only obtainable from `intern`/`get`, whose release
        // stores happen-before any cross-thread transfer of the id; the
        // pointee is leaked and immutable.
        unsafe { &*slot }
    }

    /// The raw index (useful only for dense side tables / diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ItemsetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_round_trips() {
        let s: ItemSet = "abc".parse().unwrap();
        let id = ItemsetId::intern(&s);
        assert_eq!(id.resolve(), &s);
    }

    #[test]
    fn equal_itemsets_share_an_id() {
        let a: ItemSet = "xy".parse().unwrap();
        let b = ItemSet::from_ids([a.items()[0].id(), a.items()[1].id()]);
        assert_eq!(ItemsetId::intern(&a), ItemsetId::intern(&b));
        assert_ne!(
            ItemsetId::intern(&a),
            ItemsetId::intern(&"xyz".parse().unwrap())
        );
    }

    #[test]
    fn get_does_not_intern() {
        let probe = ItemSet::from_ids([9_000_001, 9_000_002, 9_000_003]);
        assert_eq!(ItemsetId::get(&probe), None);
        let id = ItemsetId::intern(&probe);
        assert_eq!(ItemsetId::get(&probe), Some(id));
    }

    #[test]
    fn chunk_geometry_covers_the_id_space_contiguously() {
        // Successive ids map to successive (chunk, offset) pairs with no
        // gaps or overlaps across chunk boundaries.
        let mut expected = (0usize, 0usize);
        for id in 0u32..10 * BASE {
            let (k, off) = locate(id);
            assert_eq!((k, off), expected, "id {id}");
            expected = if off + 1 == chunk_len(k) {
                (k + 1, 0)
            } else {
                (k, off + 1)
            };
        }
        // Spot-check the top of the id space stays in bounds.
        let (k, off) = locate(u32::MAX - 1);
        assert!(k < N_CHUNKS, "chunk index {k} out of directory");
        assert!(off < chunk_len(k));
    }

    #[test]
    fn arena_crosses_chunk_boundaries() {
        // Intern enough distinct itemsets to guarantee ids past the first
        // 1024-slot chunk exist somewhere in the arena, then resolve a
        // fresh batch (the global interner is shared across tests, so
        // assert on round-trips rather than absolute indices).
        let sets: Vec<ItemSet> = (0..2 * BASE)
            .map(|i| ItemSet::from_ids([7_000_000 + i, 7_100_000 + i]))
            .collect();
        let ids: Vec<ItemsetId> = sets.iter().map(ItemsetId::intern).collect();
        for (s, id) in sets.iter().zip(&ids) {
            assert_eq!(id.resolve(), s);
        }
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let sets: Vec<ItemSet> = (0..64)
            .map(|i| ItemSet::from_ids([8_000_000 + i, 8_000_100 + i]))
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sets = sets.clone();
                std::thread::spawn(move || sets.iter().map(ItemsetId::intern).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<ItemsetId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &results[1..] {
            assert_eq!(ids, &results[0]);
        }
        for (s, id) in sets.iter().zip(&results[0]) {
            assert_eq!(id.resolve(), s);
        }
    }

    #[test]
    fn concurrent_resolve_while_interning() {
        // Readers hammer resolve on a published prefix while writers extend
        // the arena — the lock-free read path must always see fully
        // initialized itemsets.
        let base: Vec<ItemsetId> = (0..256)
            .map(|i| ItemsetId::intern(&ItemSet::from_ids([6_000_000 + i, 6_000_500 + i])))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..200 {
                        for id in &base {
                            assert!(!id.resolve().is_empty());
                        }
                    }
                });
            }
            s.spawn(|| {
                for i in 0..2000u32 {
                    ItemsetId::intern(&ItemSet::from_ids([6_500_000 + i, 6_600_000 + i]));
                }
            });
        });
    }
}
