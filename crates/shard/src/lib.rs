//! # prague-shard
//!
//! The index backend of every PRAGUE system: the A²F/A²I action-aware
//! indexes as 1..N shards behind one read facade ([`ShardedIndexes`]).
//! With more than one shard it partitions a [`prague_graph::GraphDb`] by
//! consistent hash of the graph id, mines each shard independently (in
//! parallel on a [`prague_par::Pool`] when one is supplied), and merges
//! per-shard FSG lists with one cheap k-way
//! [`prague_idset::IdSet::union_all`]; with one shard it mines the
//! database whole and serves the lone shard's lists as they are.
//!
//! The engine is *exact*: the two-wave mining protocol ([`mine_sharded`])
//! reconstructs the whole-database miner's frequent set, negative border,
//! and support lists value-for-value, in the same `(size, CAM)` order, so
//! a system answers every query byte-identically at every shard count —
//! sharding is purely a build-time and memory-locality optimization.
//!
//! * [`plan`] — stateless consistent-hash placement ([`ShardPlan`]).
//! * [`partition`] — the partitioned database ([`ShardedDb`]).
//! * [`mine`] — two-wave shard-parallel mining ([`mine_sharded`]).
//! * [`facade`] — per-shard indexes behind one merged read facade
//!   ([`ShardedIndexes`]).

#![warn(missing_docs)]

pub mod facade;
pub mod mine;
pub mod partition;
pub mod plan;

pub use facade::{ShardBuildStats, ShardedIndexes};
pub use mine::{mine_sharded, ShardMineStats};
pub use partition::ShardedDb;
pub use plan::ShardPlan;
