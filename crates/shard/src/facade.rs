//! Per-shard action-aware indexes behind one merged read facade.
//!
//! Each shard builds its own [`ActionAwareIndexes`] from the *global*
//! mining result restricted to its member graphs — same fragments, same
//! order, same ids, only the FSG lists restricted (kept in global graph
//! ids). Every `A2fId`/`A2iId` is therefore valid on every shard, and
//! any shard's index doubles as the structural *catalog* (CAM lookup,
//! sizes, DAG edges) for SPIG classification. FSG fan-out merges the
//! per-shard lists with [`IdSet::union_all`] behind a bounded cache — or,
//! when the plan has a single shard, is that shard's own list: this
//! facade is the index backend of every system, whatever its size.

use crate::mine::{mine_sharded, timed};
use crate::partition::{imbalance_x1000, ShardedDb};
use crate::plan::ShardPlan;
use parking_lot::Mutex;
use prague_graph::{Graph, GraphDb, GraphId};
use prague_idset::IdSet;
use prague_index::{A2fConfig, A2fId, A2iId, ActionAwareIndexes, IndexFootprint, StoreError};
use prague_mining::{mine_classified, MinedFragment, MiningResult};
use prague_obs::{names, Obs};
use prague_par::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Merged-set cache entries kept before wholesale eviction. Sized for
/// the hot fragment working set of an interactive session; one entry is
/// one `Arc<IdSet>` (compressed), so the cap bounds facade memory.
const FSG_CACHE_CAP: usize = 8192;

/// Offline accounting for one sharded build, surfaced as `shard.*`
/// counters once an [`Obs`] handle is attached.
#[derive(Debug, Clone, Default)]
pub struct ShardBuildStats {
    /// Per-shard offline wall time (mining W1+W2 plus that shard's index
    /// build), milliseconds.
    pub shard_ms: Vec<u64>,
    /// Serial cross-shard work (mining assembly), milliseconds.
    pub merge_ms: u64,
    /// Largest shard vs the even split, ×1000 (1000 = perfectly even).
    pub imbalance_x1000: u64,
}

impl ShardBuildStats {
    /// The build critical path on a machine with ≥ shards cores: the
    /// slowest shard plus the serial merge.
    pub fn critical_path_ms(&self) -> u64 {
        self.shard_ms.iter().copied().max().unwrap_or(0) + self.merge_ms
    }
}

/// N per-shard [`ActionAwareIndexes`] plus the merge machinery that
/// makes them answer global queries.
#[derive(Debug)]
pub struct ShardedIndexes {
    plan: ShardPlan,
    shards: Vec<ActionAwareIndexes>,
    stats: ShardBuildStats,
    stats_emitted: bool,
    /// `(kind, id) -> merged set`; kind 0 = A²F, 1 = A²I.
    cache: Mutex<BTreeMap<(u8, u32), Arc<IdSet>>>,
}

/// Restrict `ids` (ascending) to the ascending `members` list.
fn restrict(ids: &[GraphId], members: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::new();
    let mut mi = members.iter().peekable();
    for &id in ids {
        while let Some(&&m) = mi.peek() {
            if m < id {
                mi.next();
            } else {
                break;
            }
        }
        if mi.peek() == Some(&&id) {
            out.push(id);
        }
    }
    out
}

/// The global mining result with every FSG list cut down to one shard's
/// members (in global ids, empty lists kept) — same fragments in the
/// same order, so index ids align across shards. Built literally, not
/// via `MiningResult::from_output`, which would re-classify fragments
/// whose restricted support happens to be empty.
fn restrict_result(result: &MiningResult, members: &[GraphId]) -> MiningResult {
    let cut = |frags: &[MinedFragment]| {
        frags
            .iter()
            .map(|f| MinedFragment {
                graph: f.graph.clone(),
                cam: f.cam.clone(),
                fsg_ids: restrict(&f.fsg_ids, members),
            })
            .collect()
    };
    MiningResult {
        frequent: cut(&result.frequent),
        difs: cut(&result.difs),
        nif_count: result.nif_count,
    }
}

impl ShardedIndexes {
    /// Mine `db` and build one index pair per shard of `plan`. One shard
    /// is mined whole ([`mine_classified`]); more are partitioned and
    /// mined shard-parallel on `pool` ([`mine_sharded`]) — the classified
    /// result is the same either way. Returns the indexes plus that
    /// global [`MiningResult`] (for build statistics; the indexes
    /// themselves only hold the restricted lists).
    pub fn build(
        db: &GraphDb,
        plan: ShardPlan,
        alpha: f64,
        max_edges: usize,
        config: &A2fConfig,
        pool: Option<&Arc<Pool>>,
    ) -> Result<(Self, MiningResult), StoreError> {
        let (result, mine_ms, merge_ms) = if plan.is_single() {
            let (result, ms) = timed(|| mine_classified(db, alpha, max_edges));
            (result, vec![ms], 0)
        } else {
            let sharded = ShardedDb::partition(db, plan);
            let (output, stats) = mine_sharded(&sharded, alpha, max_edges, pool);
            (
                MiningResult::from_output(output),
                stats.shard_ms,
                stats.merge_ms,
            )
        };
        let mut indexes = Self::from_result(db, plan, &result, config)?;
        for (ms, mined) in indexes.stats.shard_ms.iter_mut().zip(mine_ms) {
            *ms += mined;
        }
        indexes.stats.merge_ms = merge_ms;
        Ok((indexes, result))
    }

    /// Build the per-shard indexes from an existing *global* mining
    /// result — no mining. Lets callers reuse one mining pass across
    /// several index configurations (the experiment harness's α/β
    /// sweeps, a loaded catalog) at any shard count.
    pub fn from_result(
        db: &GraphDb,
        plan: ShardPlan,
        result: &MiningResult,
        config: &A2fConfig,
    ) -> Result<Self, StoreError> {
        // Built serially: the build cost is dominated by mining.
        let build_shard = |local: &MiningResult| {
            let (indexes, ms) = timed(|| ActionAwareIndexes::build(local, config));
            indexes.map(|ix| (ix, ms))
        };
        // The lone shard of a single plan owns every graph, so the global
        // result is already its restricted result: no member lists, no copy.
        let (built, imbalance_x1000) = if plan.is_single() {
            (build_shard(result).map(|b| vec![b]), 1000)
        } else {
            let members = plan.members(db.len());
            let built = members
                .iter()
                .map(|m| build_shard(&restrict_result(result, m)))
                .collect();
            (built, imbalance_x1000(&members))
        };
        let (shards, shard_ms) = built?.into_iter().unzip();
        Ok(ShardedIndexes {
            plan,
            shards,
            stats: ShardBuildStats {
                shard_ms,
                merge_ms: 0,
                imbalance_x1000,
            },
            stats_emitted: false,
            cache: Mutex::new(BTreeMap::new()),
        })
    }

    /// The placement the shards were built under.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Offline build accounting.
    pub fn stats(&self) -> &ShardBuildStats {
        &self.stats
    }

    /// The per-shard index pairs, in shard order.
    pub fn shards(&self) -> &[ActionAwareIndexes] {
        &self.shards
    }

    /// The structural catalog: CAM lookups, fragment sizes, and DAG
    /// navigation are identical on every shard (the shards share the
    /// global fragment order), so shard 0 answers for all of them. Only
    /// FSG lists differ per shard — resolve those through
    /// [`ShardedIndexes::a2f_fsg`] / [`ShardedIndexes::a2i_fsg`].
    pub fn catalog(&self) -> &ActionAwareIndexes {
        // Invariant: `ShardPlan` clamps to >= 1 shard, so the vector is
        // never empty.
        // audit:allow(panic-reachable): guarded by the ShardPlan >= 1 invariant established in build()
        self.shards.first().expect("at least one shard") // audit:allow(panic-path): ShardPlan clamps to >= 1 shard
    }

    /// Global FSG ids of frequent fragment `id`: the per-shard lists
    /// merged with one k-way union, memoized in a bounded cache. A lone
    /// shard's list is already global and is handed back as the index
    /// caches it — no union, no lock, no cache entry.
    pub fn a2f_fsg(&self, id: A2fId) -> Result<Arc<IdSet>, StoreError> {
        if self.plan.is_single() {
            return self.catalog().a2f.fsg_ids(id);
        }
        if let Some(hit) = self.cache.lock().get(&(0, id)) {
            return Ok(Arc::clone(hit));
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            parts.push(shard.a2f.fsg_ids(id)?);
        }
        Ok(self.memoize(0, id, parts))
    }

    /// Global FSG ids of DIF `id`, merged across shards (a lone shard's
    /// list as is, like [`ShardedIndexes::a2f_fsg`]).
    pub fn a2i_fsg(&self, id: A2iId) -> Arc<IdSet> {
        if self.plan.is_single() {
            return self.catalog().a2i.fsg_ids(id);
        }
        if let Some(hit) = self.cache.lock().get(&(1, id)) {
            return Arc::clone(hit);
        }
        let parts: Vec<Arc<IdSet>> = self
            .shards
            .iter()
            .map(|shard| shard.a2i.fsg_ids(id))
            .collect();
        self.memoize(1, id, parts)
    }

    fn memoize(&self, kind: u8, id: u32, parts: Vec<Arc<IdSet>>) -> Arc<IdSet> {
        let merged = Arc::new(IdSet::union_all(&parts));
        let mut cache = self.cache.lock();
        if cache.len() >= FSG_CACHE_CAP {
            cache.clear();
        }
        cache.insert((kind, id), Arc::clone(&merged));
        merged
    }

    /// Attach an observability handle to every shard and (once) emit the
    /// offline `shard.*` build counters into it.
    pub fn set_obs(&mut self, obs: Obs) {
        for shard in &mut self.shards {
            shard.a2f.set_obs(obs.clone());
            shard.a2i.set_obs(obs.clone());
        }
        if !self.stats_emitted && obs.is_enabled() {
            self.stats_emitted = true;
            for &ms in &self.stats.shard_ms {
                obs.add(names::SHARD_BUILD_MS, ms);
            }
            obs.add(names::SHARD_MERGE_MS, self.stats.merge_ms);
            obs.add(names::SHARD_IMBALANCE_X1000, self.stats.imbalance_x1000);
        }
    }

    /// Register a freshly inserted graph with its *owning* shard only
    /// (the other shards never see it) and drop the merged-set cache.
    pub fn register_graph(&mut self, gid: GraphId, g: &Graph) -> Result<(), StoreError> {
        let s = self.plan.shard_of(gid);
        if let Some(shard) = self.shards.get_mut(s) {
            let ActionAwareIndexes { a2f, a2i } = shard;
            a2f.register_graph(gid, g)?;
            let a2f = &*a2f;
            a2i.register_graph(gid, g, |cam| a2f.lookup(cam).is_some());
        }
        self.cache.lock().clear();
        Ok(())
    }

    /// Pre-resolve every shard's FSG lists (see
    /// [`prague_index::A2fIndex::warm`]).
    pub fn warm(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard.a2f.warm()?;
        }
        Ok(())
    }

    /// Combined footprint across all shards.
    pub fn footprint(&self) -> IndexFootprint {
        let mut total = IndexFootprint {
            memory_bytes: 0,
            disk_bytes: 0,
        };
        for shard in &self.shards {
            let f = shard.footprint();
            total.memory_bytes += f.memory_bytes;
            total.disk_bytes += f.disk_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prague_graph::Label;
    use prague_index::DfBacking;

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    fn motif_db() -> GraphDb {
        let mut db = GraphDb::new();
        for i in 0..8 {
            db.push(path(&[0, 1, 0]));
            db.push(path(&[0, 1, 1, 0]));
            db.push(path(&[2, 0, 1]));
            if i % 2 == 0 {
                db.push(path(&[3, 3, 0]));
            }
        }
        db
    }

    fn config() -> A2fConfig {
        A2fConfig {
            beta: 2,
            backing: DfBacking::TempDisk,
            store_full_ids: false,
        }
    }

    #[test]
    fn restrict_is_sorted_intersection() {
        assert_eq!(restrict(&[1, 4, 7, 9], &[0, 4, 9, 12]), vec![4, 9]);
        assert_eq!(restrict(&[], &[1, 2]), Vec::<GraphId>::new());
        assert_eq!(restrict(&[1, 2], &[]), Vec::<GraphId>::new());
    }

    #[test]
    fn merged_fsg_sets_match_the_unsharded_index() {
        let db = motif_db();
        let result = mine_classified(&db, 0.2, 3);
        let whole = ActionAwareIndexes::build(&result, &config()).unwrap();
        for shards in [1usize, 2, 3] {
            let (sharded, _) =
                ShardedIndexes::build(&db, ShardPlan::new(shards), 0.2, 3, &config(), None)
                    .unwrap();
            assert_eq!(sharded.shard_count(), shards);
            // Same catalog: every fragment's CAM resolves to an id with
            // the same size on both sides, and the merged FSG list is
            // value-identical to the unsharded one.
            let catalog = sharded.catalog();
            assert_eq!(catalog.a2f.fragment_count(), whole.a2f.fragment_count());
            for (id, _, _) in whole.a2f.iter_meta() {
                let cam = whole.a2f.cam(id).clone();
                let sid = catalog.a2f.lookup(&cam).expect("cam present in catalog");
                assert_eq!(catalog.a2f.size(sid), whole.a2f.size(id));
                let merged = sharded.a2f_fsg(sid).unwrap();
                assert_eq!(
                    merged.to_vec(),
                    whole.a2f.fsg_ids(id).unwrap().to_vec(),
                    "a2f fsg mismatch at {shards} shards"
                );
                // The one-shard bypass: the shard's own cached list, not
                // a union of it.
                assert_eq!(
                    Arc::ptr_eq(&merged, &catalog.a2f.fsg_ids(sid).unwrap()),
                    shards == 1
                );
            }
            assert_eq!(catalog.a2i.len(), whole.a2i.len());
            for (id, entry) in whole.a2i.iter() {
                let sid = catalog.a2i.lookup(&entry.cam).expect("dif present");
                let merged = sharded.a2i_fsg(sid);
                assert_eq!(
                    merged.to_vec(),
                    whole.a2i.fsg_ids(id).to_vec(),
                    "a2i fsg mismatch at {shards} shards"
                );
                assert_eq!(Arc::ptr_eq(&merged, &catalog.a2i.fsg_ids(sid)), shards == 1);
            }
        }
    }

    #[test]
    fn fsg_cache_serves_repeat_lookups() {
        let db = motif_db();
        let (sharded, _) =
            ShardedIndexes::build(&db, ShardPlan::new(2), 0.2, 3, &config(), None).unwrap();
        let first = sharded
            .catalog()
            .a2f
            .iter_meta()
            .next()
            .map(|(id, _, _)| id);
        if let Some(id) = first {
            let a = sharded.a2f_fsg(id).unwrap();
            let b = sharded.a2f_fsg(id).unwrap();
            assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        }
    }

    #[test]
    fn register_graph_updates_only_the_owning_shard() {
        let db = motif_db();
        let (mut sharded, _) =
            ShardedIndexes::build(&db, ShardPlan::new(3), 0.2, 3, &config(), None).unwrap();
        let whole_before: BTreeMap<u32, Vec<u32>> = sharded
            .catalog()
            .a2f
            .iter_meta()
            .map(|(id, _, _)| (id, sharded.a2f_fsg(id).unwrap().to_vec()))
            .collect();
        let gid = db.len() as GraphId;
        let g = path(&[0, 1, 0]);
        sharded.register_graph(gid, &g).unwrap();
        let owner = sharded.plan().shard_of(gid);
        for (s, shard) in sharded.shards().iter().enumerate() {
            for (id, _, _) in shard.a2f.iter_meta() {
                let has = shard.a2f.fsg_ids(id).unwrap().contains(gid);
                if s != owner {
                    assert!(!has, "non-owning shard {s} saw the new graph");
                }
            }
        }
        // The merged view now includes the new graph exactly where the
        // fragment embeds in it.
        for (id, before) in &whole_before {
            let after = sharded.a2f_fsg(*id).unwrap().to_vec();
            let without: Vec<u32> = after.iter().copied().filter(|&x| x != gid).collect();
            assert_eq!(&without, before);
        }
    }

    #[test]
    fn set_obs_emits_build_counters_once() {
        let db = motif_db();
        let (mut sharded, _) =
            ShardedIndexes::build(&db, ShardPlan::new(2), 0.2, 3, &config(), None).unwrap();
        let obs = Obs::enabled();
        sharded.set_obs(obs.clone());
        sharded.set_obs(obs.clone());
        let snap = obs.snapshot().unwrap();
        assert_eq!(
            snap.counter(names::SHARD_IMBALANCE_X1000),
            Some(sharded.stats().imbalance_x1000)
        );
    }
}
