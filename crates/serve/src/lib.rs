//! `bfly_serve`: a sharded multi-tenant stream service over the Butterfly
//! output-privacy pipeline.
//!
//! The batch CLI (`butterfly protect`) runs one pipeline over one file.
//! This crate runs *many* pipelines behind one TCP listener: clients tag
//! each transaction with a stream key (a tenant), keys are hashed onto a
//! fixed set of shard worker threads, each key gets its own independently
//! seeded [`bfly_core::StreamPipeline`], and every sanitized window release
//! fans out to the key's subscriber connections.
//!
//! Design invariants, in the order they matter:
//!
//! 1. **Output privacy is preserved per tenant.** Each stream key owns a
//!    full pipeline (window, miner, publisher) with a key-derived noise
//!    seed; no state, and in particular no randomness, is shared across
//!    keys.
//! 2. **Determinism survives the network.** A stream's releases depend only
//!    on (config, seed, key, record order). The integration tests assert a
//!    TCP round trip is bit-identical to an in-process run.
//! 3. **Memory is bounded everywhere.** Bounded shard ingress queues (full
//!    ⇒ explicit `overloaded` shed replies), bounded per-connection
//!    outbound queues (full ⇒ slow subscriber disconnected), bounded frame
//!    sizes. Overload degrades loudly; it never buffers silently.
//! 4. **Shutdown drains.** Accepted records are processed, full windows
//!    with pending records are flushed, subscribers get `closed` events,
//!    every thread is joined.
//!
//! The crate layers as placement → node → router: [`placement`] is the one
//! key→owner mapping every process shares; the node layer wraps everything
//! that owns streams (shards, WAL, bindings) behind a facade; the router
//! layer is a stateless forwarding tier over N nodes speaking the same
//! client protocol (`serve --role router --nodes <addrs>`). A
//! single-process deployment is the degenerate one-node cluster,
//! byte-identical to the pre-federation wire.
//!
//! Wire protocol reference: [`protocol`]. Entry points: [`Server::bind`]
//! and [`Client::connect`].

mod binding;
pub mod client;
pub mod config;
mod fanout;
mod node;
pub mod placement;
pub mod protocol;
mod reactor;
mod router;
pub mod server;
mod shard;
pub mod stats;
pub mod wal;

pub use bfly_common::FrameMode;
pub use client::Client;
pub use config::{parse_node_list, ServeConfig, ServeRole, WalConfig, WalSyncPolicy};
pub use placement::{ClusterMap, Owner};
pub use protocol::Request;
pub use server::Server;
pub use stats::{ReactorStats, ShardStats, WalStats};
