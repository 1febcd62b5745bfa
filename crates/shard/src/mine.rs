//! Two-wave sharded mining with exact global reassembly.
//!
//! Each shard mines its local database independently (W1) at the
//! pro-rated local threshold `⌈α·n_s⌉`, recording every fragment its
//! gSpan walk visits. The coordinator forms the union `P` of locally
//! frequent fragments and asks each shard to expand the members of `P`
//! it did not expand itself (W2), so every shard ends up holding the
//! exact local support list of every fragment that could be globally
//! frequent or on the global negative border. The assembly translates
//! shard-local graph ids back to global ids, merges the per-shard lists,
//! and classifies against the *global* threshold `⌈α·N⌉`.
//!
//! The result is value-identical to unsharded mining: same frequent set,
//! same negative border, same support lists (see the correctness notes
//! in `prague_mining::shardmine` for the pigeonhole/expansion argument),
//! and in the same `(size, CAM)` order `MiningResult::from_output` gives
//! every mining result, so index ids agree across shard counts.

use crate::partition::ShardedDb;
use prague_graph::{CamCode, Graph, GraphId};
use prague_mining::dfscode::DfsCode;
use prague_mining::{
    complete_records, mine_recorded, CompletionRequest, FragmentRecord, MinedFragment,
    MiningConfig, MiningOutput,
};
use prague_par::{CancelToken, Pool};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock accounting for one sharded mining run. `shard_ms[s]` is
/// shard `s`'s total W1+W2 time — on a machine with ≥ `shards` cores the
/// mining critical path is `max(shard_ms) + merge_ms`.
#[derive(Debug, Clone, Default)]
pub struct ShardMineStats {
    /// Per-shard mining wall time (W1 + W2), milliseconds.
    pub shard_ms: Vec<u64>,
    /// Serial assembly (translate + merge + classify) wall time, ms.
    pub merge_ms: u64,
}

impl ShardMineStats {
    /// The parallel critical path: slowest shard plus the serial merge.
    pub fn critical_path_ms(&self) -> u64 {
        self.shard_ms.iter().copied().max().unwrap_or(0) + self.merge_ms
    }
}

pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_millis() as u64)
}

/// Run one closure per shard, on `pool` when given (each job owns its
/// inputs), serially otherwise. A pool slot that comes back empty (job
/// panicked — unreachable for the panic-free miners, but never trusted)
/// is recomputed serially so the result is always complete.
fn per_shard<T, F>(pool: Option<&Arc<Pool>>, jobs: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    match pool {
        Some(pool) if jobs.len() > 1 => {
            let jobs: Vec<Arc<F>> = jobs.into_iter().map(Arc::new).collect();
            let token = CancelToken::new();
            let submitted: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let job = Arc::clone(job);
                    move |_t: &CancelToken| job()
                })
                .collect();
            let batch = pool.submit_batch(&token, submitted);
            batch
                .join()
                .into_iter()
                .zip(&jobs)
                .map(|(slot, job)| slot.unwrap_or_else(|| job()))
                .collect()
        }
        _ => jobs.iter().map(|job| job()).collect(),
    }
}

/// Mine `sharded` at support ratio `alpha` with fragments capped at
/// `max_edges`, running the per-shard waves on `pool` when given.
/// Returns the globally classified output plus timing stats.
pub fn mine_sharded(
    sharded: &ShardedDb,
    alpha: f64,
    max_edges: usize,
    pool: Option<&Arc<Pool>>,
) -> (MiningOutput, ShardMineStats) {
    // ---- W1: independent local mining at pro-rated thresholds --------
    let w1_jobs: Vec<_> = sharded
        .locals()
        .iter()
        .map(|local| {
            let local = Arc::clone(local);
            move || {
                let config = MiningConfig::from_ratio(local.len(), alpha, max_edges);
                timed(|| mine_recorded(&local, &config))
            }
        })
        .collect();
    let w1 = per_shard(pool, w1_jobs);
    let mut shard_ms: Vec<u64> = w1.iter().map(|(_, ms)| *ms).collect();

    // ---- coordinator: P = fragments locally frequent somewhere -------
    // (below the size cap, so they are expansion candidates). Every
    // globally frequent fragment is locally frequent on >= 1 shard by
    // the pigeonhole bound, so P ⊇ the expandable global frequent set.
    let mut p: BTreeMap<CamCode, DfsCode> = BTreeMap::new();
    for (recs, _) in &w1 {
        for r in recs {
            if r.frequent && r.size() < max_edges {
                p.entry(r.cam.clone()).or_insert_with(|| r.code.clone());
            }
        }
    }

    // ---- W2: each shard expands the P-members it skipped -------------
    let w2_jobs: Vec<_> = sharded
        .locals()
        .iter()
        .zip(&w1)
        .map(|(local, (recs, _))| {
            let local = Arc::clone(local);
            let expanded: BTreeSet<CamCode> = recs
                .iter()
                .filter(|r| r.frequent && r.size() < max_edges)
                .map(|r| r.cam.clone())
                .collect();
            let req = CompletionRequest {
                expand: p
                    .iter()
                    .filter(|(cam, _)| !expanded.contains(*cam))
                    .map(|(cam, code)| (code.clone(), cam.clone()))
                    .collect(),
            };
            let already: BTreeSet<CamCode> = recs.iter().map(|r| r.cam.clone()).collect();
            move || timed(|| complete_records(&local, &req, &already))
        })
        .collect();
    let w2 = per_shard(pool, w2_jobs);
    for (ms_slot, (_, ms)) in shard_ms.iter_mut().zip(&w2) {
        *ms_slot += ms;
    }

    // ---- assembly: translate, merge, classify globally ---------------
    let ((frequent, negative_border), merge_ms) = timed(|| {
        assemble(
            sharded,
            w1.iter().map(|(r, _)| r.as_slice()),
            w2.iter().map(|(r, _)| r.as_slice()),
            alpha,
            max_edges,
        )
    });

    (
        MiningOutput {
            frequent,
            negative_border,
        },
        ShardMineStats { shard_ms, merge_ms },
    )
}

struct Merged {
    graph: Graph,
    size: usize,
    parent: Option<CamCode>,
    fsg: Vec<GraphId>,
}

fn assemble<'a>(
    sharded: &ShardedDb,
    w1: impl Iterator<Item = &'a [FragmentRecord]>,
    w2: impl Iterator<Item = &'a [FragmentRecord]>,
    alpha: f64,
    max_edges: usize,
) -> (Vec<MinedFragment>, Vec<MinedFragment>) {
    let mut merged: BTreeMap<CamCode, Merged> = BTreeMap::new();
    for (members, recs) in sharded
        .members()
        .iter()
        .zip(w1)
        .chain(sharded.members().iter().zip(w2))
    {
        for r in recs {
            let entry = merged.entry(r.cam.clone()).or_insert_with(|| Merged {
                graph: r.graph.clone(),
                size: r.size(),
                parent: r.parent_cam.clone(),
                fsg: Vec::new(),
            });
            // Translate shard-local ids to global ids. Local numbering is
            // dense and in member-list order, so this is a direct lookup;
            // an out-of-range local id cannot occur (the miner only emits
            // ids < local db len) and would be dropped, not panic.
            entry.fsg.extend(
                r.fsg_ids
                    .iter()
                    .filter_map(|&lid| members.get(lid as usize).copied()),
            );
        }
    }

    // Per-shard lists are ascending in global ids but shard id ranges
    // interleave, so each merged list needs one final sort.
    for m in merged.values_mut() {
        m.fsg.sort_unstable();
    }

    let threshold = MiningConfig::from_ratio(sharded.total(), alpha, max_edges).min_support;
    let frequent_cams: BTreeSet<&CamCode> = merged
        .iter()
        .filter(|(_, m)| m.fsg.len() >= threshold)
        .map(|(cam, _)| cam)
        .collect();

    let mut frequent: Vec<(usize, CamCode, MinedFragment)> = Vec::new();
    let mut border: Vec<(usize, CamCode, MinedFragment)> = Vec::new();
    for (cam, m) in &merged {
        let frag = MinedFragment {
            graph: m.graph.clone(),
            cam: cam.clone(),
            fsg_ids: m.fsg.clone(),
        };
        if m.fsg.len() >= threshold {
            frequent.push((m.size, cam.clone(), frag));
        } else if m.parent.as_ref().is_none_or(|p| frequent_cams.contains(p)) {
            // Negative border: infrequent with a (globally) frequent
            // min-code parent, or an infrequent 1-edge root.
            border.push((m.size, cam.clone(), frag));
        }
        // else: visited only because a locally-frequent but globally
        // infrequent parent expanded it; the unsharded walk never
        // enumerates it, so it is dropped.
    }
    frequent.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    border.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    (
        frequent.into_iter().map(|(_, _, f)| f).collect(),
        border.into_iter().map(|(_, _, f)| f).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use prague_graph::{GraphDb, Label};
    use prague_mining::mine;

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// A database with repeated motifs across several label families so
    /// sharding splits support sets non-trivially.
    fn motif_db(copies: usize) -> GraphDb {
        let mut db = GraphDb::new();
        for i in 0..copies {
            db.push(path(&[0, 1, 0]));
            db.push(path(&[0, 1, 1, 0]));
            db.push(path(&[2, 0, 1]));
            db.push({
                let mut g = path(&[0, 0, 0]);
                g.add_edge(2, 0).unwrap();
                g
            });
            if i % 2 == 0 {
                db.push(path(&[3, 3]));
            }
        }
        db
    }

    fn by_cam(frags: &[MinedFragment]) -> BTreeMap<CamCode, Vec<GraphId>> {
        frags
            .iter()
            .map(|f| (f.cam.clone(), f.fsg_ids.clone()))
            .collect()
    }

    #[test]
    fn sharded_mining_matches_unsharded_values() {
        let db = motif_db(6);
        for alpha in [0.1, 0.25, 0.5] {
            for max_edges in [2usize, 3, 4] {
                let config = MiningConfig::from_ratio(db.len(), alpha, max_edges);
                let plain = mine(&db, &config);
                for shards in [1usize, 2, 3] {
                    let sharded = ShardedDb::partition(&db, ShardPlan::new(shards));
                    let (out, stats) = mine_sharded(&sharded, alpha, max_edges, None);
                    assert_eq!(
                        by_cam(&out.frequent),
                        by_cam(&plain.frequent),
                        "frequent mismatch at alpha={alpha} max_edges={max_edges} shards={shards}"
                    );
                    assert_eq!(
                        by_cam(&out.negative_border),
                        by_cam(&plain.negative_border),
                        "border mismatch at alpha={alpha} max_edges={max_edges} shards={shards}"
                    );
                    assert_eq!(stats.shard_ms.len(), shards);
                }
            }
        }
    }

    #[test]
    fn sharded_output_order_is_shard_count_independent() {
        let db = motif_db(4);
        let collect = |shards: usize| {
            let sharded = ShardedDb::partition(&db, ShardPlan::new(shards));
            let (out, _) = mine_sharded(&sharded, 0.2, 3, None);
            let f: Vec<CamCode> = out.frequent.iter().map(|f| f.cam.clone()).collect();
            let b: Vec<CamCode> = out.negative_border.iter().map(|f| f.cam.clone()).collect();
            (f, b)
        };
        assert_eq!(collect(1), collect(2));
        assert_eq!(collect(2), collect(3));
    }

    #[test]
    fn pooled_and_serial_waves_agree() {
        let db = motif_db(5);
        let sharded = ShardedDb::partition(&db, ShardPlan::new(3));
        let (serial, _) = mine_sharded(&sharded, 0.15, 3, None);
        let pool = Arc::new(Pool::new(2, prague_obs::Obs::disabled()));
        let (pooled, stats) = mine_sharded(&sharded, 0.15, 3, Some(&pool));
        assert_eq!(by_cam(&serial.frequent), by_cam(&pooled.frequent));
        assert_eq!(
            by_cam(&serial.negative_border),
            by_cam(&pooled.negative_border)
        );
        assert!(stats.critical_path_ms() >= stats.merge_ms);
    }

    #[test]
    fn empty_database_mines_to_nothing() {
        let db = GraphDb::new();
        let sharded = ShardedDb::partition(&db, ShardPlan::new(4));
        let (out, _) = mine_sharded(&sharded, 0.1, 3, None);
        assert!(out.frequent.is_empty());
        assert!(out.negative_border.is_empty());
    }
}
