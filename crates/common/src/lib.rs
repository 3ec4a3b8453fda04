//! Shared substrate for the Butterfly output-privacy reproduction.
//!
//! This crate provides the vocabulary the rest of the workspace speaks:
//! [`Item`]s, [`ItemSet`]s, generalized [`Pattern`]s with negated items,
//! [`Transaction`]s, in-memory transaction [`Database`]s with support
//! counting, the [`SlidingWindow`] stream model of the paper (§III-A), and
//! plain-text `.dat` transaction I/O compatible with the FIMI repository
//! format used by the original BMS datasets.
//!
//! Everything here is deterministic and allocation-conscious: itemsets are
//! kept as sorted vectors of item ids so subset tests, unions, and hashing
//! are `O(n)` merges rather than hash-set operations.

pub mod crc32;
pub mod database;
pub mod error;
pub mod fixtures;
pub mod frame;
pub mod hash;
pub mod intern;
pub mod io;
pub mod item;
pub mod itemset;
pub mod json;
pub mod ndjson;
pub mod pattern;
pub mod pool;
pub mod rng;
pub mod tidmap;
pub mod transaction;
pub mod window;

pub use database::Database;
pub use error::{Error, Result};
pub use frame::{BinaryEntry, BinaryFrame, Frame, FrameCodec, FrameMode, Inbound, IngestChunk};
pub use hash::fnv1a;
pub use intern::ItemsetId;
pub use item::Item;
pub use itemset::ItemSet;
pub use json::Json;
pub use ndjson::FrameReader;
pub use pattern::Pattern;
pub use rng::{Rng, SmallRng};
pub use tidmap::{SupportMemo, TidBitmap, TidScratch, VerticalIndex};
pub use transaction::Transaction;
pub use window::{SlidingWindow, WindowDelta};

/// Support of an itemset or pattern: a count of matching records.
pub type Support = u64;

/// A sanitized (perturbed) support as published by Butterfly. Signed because
/// zero-bias noise on a small support may legitimately go negative; consumers
/// that need a displayable value clamp at zero (see
/// `bfly-core::release::SanitizedItemset::display_support`).
pub type SanitizedSupport = i64;
