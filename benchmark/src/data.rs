//! Inputs, made from `--seed` before any clock starts.
//!
//! Each workload replays one *period* of a fixed dataset in a cycle. The
//! dataset's Quest pattern table is part of the workload's identity
//! (`Workload::table_seed`), because mining and publication cost follow the
//! frequent-itemset structure of the data: ten different pattern tables
//! gave a 12 % quartile spread of single-threaded `protect` time, ten
//! segments of one table's stream 8 %, and a random relabelling of the item
//! alphabet moved `mine_pos` by 40 % (Moment's CET depends on item order) —
//! all wider than any bound the benchmark could then honour. `--seed`
//! therefore decides what does not decide cost: the slide at which replay
//! enters the period, and the stream keys (so also each stream's noise
//! seed, and on the routed workload which node owns which key). The same
//! seed gives the same bytes; two seeds give different bytes, different
//! releases, and the same work.

use crate::spec::Workload;
use bfly_common::{BinaryFrame, ItemSet, Rng, SmallRng};
use bfly_serve::{ClusterMap, Request};

/// One stream key's share of the inputs.
pub struct StreamData {
    pub key: String,
    /// One slide's transactions per entry, in replay order; the stream is
    /// these slides repeated for ever.
    pub batches: Vec<Vec<ItemSet>>,
    /// The same slides as wire bytes (one ingest request each).
    pub requests: Vec<Vec<u8>>,
}

pub struct Dataset {
    pub streams: Vec<StreamData>,
    /// The reply every ingest request must get, byte for byte.
    pub ok_reply: Vec<u8>,
}

/// The placement a router over two one-shard nodes computes. Only the slot
/// arithmetic matters to callers; the addresses are never dialled.
pub fn two_node_map() -> ClusterMap {
    let nodes = vec![
        "127.0.0.1:1".parse().expect("addr"),
        "127.0.0.1:2".parse().expect("addr"),
    ];
    ClusterMap::federated(1, nodes, 1)
}

/// Stream keys for `seed`: on the routed workload the second key is the
/// first candidate a two-node map places on the other node, so each node
/// owns exactly one stream.
fn stream_keys(w: &Workload, seed: u64) -> Vec<String> {
    let mut keys = vec![format!("s{seed}-0")];
    if w.keys == 1 {
        return keys;
    }
    assert!(
        w.keys == 2 && w.routed,
        "two keys only on the routed workload"
    );
    let map = two_node_map();
    let first = map.owner_of(&keys[0]).node;
    let second = (1..)
        .map(|n| format!("s{seed}-{n}"))
        .find(|k| map.owner_of(k).node != first)
        .expect("some key lands on the other node");
    keys.push(second);
    keys
}

pub fn generate(w: &Workload, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb77e_f1a9_5eed_0001);
    let slides = w.slides_per_cycle();
    let phase = rng.gen_range_usize(slides);
    let keys = stream_keys(w, seed);
    let streams = keys
        .into_iter()
        .enumerate()
        .map(|(idx, key)| {
            let period = w
                .profile
                .source(w.table_seed + idx as u64)
                .take_vec(w.period);
            let mut batches: Vec<Vec<ItemSet>> = period
                .chunks(w.every)
                .map(|chunk| chunk.iter().map(|t| t.items().clone()).collect())
                .collect();
            batches.rotate_left(phase);
            let requests = batches
                .iter()
                .map(|batch| encode_request(w.json, &key, batch))
                .collect();
            StreamData {
                key,
                batches,
                requests,
            }
        })
        .collect();
    Dataset {
        streams,
        ok_reply: format!("{}\n", bfly_serve::protocol::ingest_ok(w.every)).into_bytes(),
    }
}

fn encode_request(json: bool, key: &str, batch: &[ItemSet]) -> Vec<u8> {
    if json {
        let req = Request::Ingest {
            stream: key.to_string(),
            batch: batch.to_vec(),
        };
        format!("{}\n", req.to_json()).into_bytes()
    } else {
        BinaryFrame::Ingest {
            stream: key.to_string(),
            batch: batch.to_vec(),
        }
        .encode()
    }
}
