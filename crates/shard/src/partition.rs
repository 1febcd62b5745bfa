//! Database partitioning: a [`ShardPlan`] applied to a [`GraphDb`].
//!
//! Each shard gets a *local* database (its member graphs, re-numbered
//! densely from 0 so the shard miners see an ordinary `GraphDb`) plus the
//! ascending list of *global* ids its local ids map back to. Shard-local
//! co-location means a shard's miner, index, and verifier never touch
//! another shard's graphs.

use crate::plan::ShardPlan;
use prague_graph::{GraphDb, GraphId};
use std::sync::Arc;

/// A database split into per-shard locals by consistent hash of the
/// graph id.
#[derive(Debug)]
pub struct ShardedDb {
    plan: ShardPlan,
    /// Global ids of each shard's members, ascending; `members[s][local]`
    /// is the global id of shard `s`'s graph `local`.
    members: Vec<Vec<GraphId>>,
    /// Per-shard local databases (graphs cloned out of the source db, in
    /// member order).
    locals: Vec<Arc<GraphDb>>,
}

impl ShardedDb {
    /// Partition `db` under `plan`. Each shard's member list (and hence
    /// its local numbering) is ascending in the global ids.
    pub fn partition(db: &GraphDb, plan: ShardPlan) -> Self {
        let members = plan.members(db.len());
        let locals = members
            .iter()
            .map(|m| {
                let graphs = m.iter().map(|&gid| db.graph(gid).clone()).collect();
                Arc::new(GraphDb::from_graphs(graphs))
            })
            .collect();
        ShardedDb {
            plan,
            members,
            locals,
        }
    }

    /// The placement this partition was built under.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.locals.len()
    }

    /// Global ids of each shard's members (ascending per shard).
    pub fn members(&self) -> &[Vec<GraphId>] {
        &self.members
    }

    /// Per-shard local databases.
    pub fn locals(&self) -> &[Arc<GraphDb>] {
        &self.locals
    }

    /// Total graphs across all shards.
    pub fn total(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }
}

/// Shard imbalance of a set of member lists: largest shard relative to
/// the ideal even split, ×1000 (so 1000 = perfectly even, 1500 = largest
/// shard 1.5× the even share). Empty databases report 1000.
pub(crate) fn imbalance_x1000(members: &[Vec<GraphId>]) -> u64 {
    let total: usize = members.iter().map(Vec::len).sum();
    if total == 0 {
        return 1000;
    }
    let max = members.iter().map(Vec::len).max().unwrap_or(0);
    (max as u64) * (members.len() as u64) * 1000 / (total as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prague_graph::{Graph, Label};

    fn tiny_db(n: usize) -> GraphDb {
        let mut db = GraphDb::new();
        for i in 0..n {
            let mut g = Graph::new();
            let a = g.add_node(Label((i % 3) as u16));
            let b = g.add_node(Label(1));
            let _ = g.add_edge(a, b);
            db.push(g);
        }
        db
    }

    #[test]
    fn partition_covers_every_graph_exactly_once() {
        let db = tiny_db(97);
        for shards in [1usize, 2, 5] {
            let sharded = ShardedDb::partition(&db, ShardPlan::new(shards));
            assert_eq!(sharded.total(), db.len());
            let mut seen: Vec<GraphId> = sharded.members().iter().flatten().copied().collect();
            seen.sort_unstable();
            let want: Vec<GraphId> = (0..db.len() as GraphId).collect();
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn members_ascend_and_map_to_identical_graphs() {
        let db = tiny_db(40);
        let sharded = ShardedDb::partition(&db, ShardPlan::new(3));
        for (s, (mem, local)) in sharded.members().iter().zip(sharded.locals()).enumerate() {
            assert!(
                mem.windows(2).all(|w| w[0] < w[1]),
                "shard {s} not ascending"
            );
            assert_eq!(mem.len(), local.len());
            for (lid, &gid) in mem.iter().enumerate() {
                assert_eq!(
                    prague_graph::cam_code(local.graph(lid as GraphId)),
                    prague_graph::cam_code(db.graph(gid))
                );
            }
        }
    }

    #[test]
    fn single_shard_partition_is_the_whole_db() {
        let db = tiny_db(10);
        let sharded = ShardedDb::partition(&db, ShardPlan::new(1));
        assert_eq!(sharded.shards(), 1);
        assert_eq!(imbalance_x1000(sharded.members()), 1000);
        assert_eq!(sharded.members().first().map(Vec::len), Some(db.len()));
    }
}
