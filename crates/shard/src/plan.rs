//! Consistent-hash shard placement.
//!
//! Graphs are assigned to shards by a jump consistent hash
//! (Lamping & Veach, "A Fast, Minimal Memory, Consistent Hash
//! Algorithm") over a SplitMix64 pre-mix of the graph id. The placement
//! is stateless — any component holding a [`ShardPlan`] can compute the
//! owning shard of any graph without a directory — and *monotone* in the
//! shard count: growing from `n` to `n+1` shards moves only `1/(n+1)` of
//! the keys, so a future re-shard relocates the minimum possible data.

use prague_graph::GraphId;

/// Stateless shard placement: `shards` buckets over a consistent hash of
/// the graph id. Copyable so verify jobs can carry it into closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
}

impl ShardPlan {
    /// A plan with `shards` buckets (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, u32::MAX as usize) as u32;
        ShardPlan { shards }
    }

    /// Number of shards (always ≥ 1).
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Whether this plan is the degenerate single-shard layout.
    pub fn is_single(&self) -> bool {
        self.shards == 1
    }

    /// The shard owning graph `gid`. Always `< self.shards()`.
    pub fn shard_of(&self, gid: GraphId) -> usize {
        jump_hash(splitmix64(gid as u64), self.shards) as usize
    }

    /// Global ids `0..db_len` grouped by owning shard, ascending within
    /// each shard — the member lists of a database of `db_len` graphs.
    pub fn members(&self, db_len: usize) -> Vec<Vec<GraphId>> {
        let mut members: Vec<Vec<GraphId>> = vec![Vec::new(); self.shards()];
        for gid in 0..db_len as GraphId {
            if let Some(m) = members.get_mut(self.shard_of(gid)) {
                m.push(gid);
            }
        }
        members
    }
}

/// SplitMix64 finalizer: graph ids are small consecutive integers, so
/// they must be mixed before the jump hash (whose quality depends on the
/// key's high bits).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Jump consistent hash: maps `key` to a bucket in `0..buckets` such
/// that raising the bucket count relocates only the minimal key share.
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    let mut b: i64 = 0;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let denom = ((key >> 33).wrapping_add(1)) as f64;
        j = (((b.wrapping_add(1)) as f64) * ((1u64 << 31) as f64 / denom)) as i64;
    }
    // `b` stays in `0..buckets` (it only ever holds a previous `j` that
    // passed the loop guard), so the cast is lossless.
    b as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_is_identity() {
        let plan = ShardPlan::new(1);
        assert!(plan.is_single());
        for gid in 0..100u32 {
            assert_eq!(plan.shard_of(gid), 0);
        }
    }

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(ShardPlan::new(0).shards(), 1);
    }

    #[test]
    fn placement_is_in_range_and_roughly_balanced() {
        for shards in [2usize, 3, 8] {
            let plan = ShardPlan::new(shards);
            let mut counts = vec![0usize; shards];
            let n = 8_000u32;
            for gid in 0..n {
                let s = plan.shard_of(gid);
                assert!(s < shards);
                if let Some(c) = counts.get_mut(s) {
                    *c += 1;
                }
            }
            let ideal = n as usize / shards;
            for &c in &counts {
                // Within 15% of an even split at this sample size.
                assert!(
                    c as f64 > ideal as f64 * 0.85 && (c as f64) < ideal as f64 * 1.15,
                    "shard count {c} far from ideal {ideal} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn growing_the_plan_moves_few_keys() {
        let a = ShardPlan::new(4);
        let b = ShardPlan::new(5);
        let n = 10_000u32;
        let moved = (0..n).filter(|&g| a.shard_of(g) != b.shard_of(g)).count();
        // Jump hash moves ~1/5 of keys when growing 4 -> 5.
        assert!(moved < (n as usize) * 3 / 10, "moved {moved} of {n}");
    }

    #[test]
    fn placement_is_deterministic() {
        let plan = ShardPlan::new(8);
        let first: Vec<usize> = (0..64u32).map(|g| plan.shard_of(g)).collect();
        let second: Vec<usize> = (0..64u32).map(|g| plan.shard_of(g)).collect();
        assert_eq!(first, second);
    }
}
