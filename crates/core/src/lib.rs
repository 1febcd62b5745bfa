//! # prague (prague-core)
//!
//! PRAGUE — *PRactical visuAl Graph QUery blEnder* (Jin, Bhowmick, Choi,
//! Zhou; ICDE 2012): a unified framework that blends visual subgraph query
//! **formulation** with query **processing**. Instead of waiting for the
//! user to finish drawing, PRAGUE processes the query fragment after every
//! drawn edge, exploiting GUI latency to keep the system response time
//! (SRT) at Run-click near zero — and, unlike its predecessor GBLENDER,
//! seamlessly supports subgraph *similarity* queries and cheap query
//! *modification* through the spindle-shaped graph (SPIG) set.
//!
//! ## Quick start
//!
//! ```
//! use prague::{PragueSystem, SystemParams};
//! use prague_graph::{Graph, GraphDb, Label};
//!
//! // a tiny database of labeled graphs
//! let mut db = GraphDb::new();
//! for _ in 0..4 {
//!     let mut g = Graph::new();
//!     let c1 = g.add_node(Label(0));
//!     let s = g.add_node(Label(1));
//!     let c2 = g.add_node(Label(0));
//!     g.add_edge(c1, s).unwrap();
//!     g.add_edge(s, c2).unwrap();
//!     db.push(g);
//! }
//!
//! // offline: mine fragments and build the action-aware indexes
//! let system = PragueSystem::build(db, SystemParams::default()).unwrap();
//!
//! // online: a user formulates a query edge-at-a-time
//! let mut session = system.session(2);
//! let c1 = session.add_node(Label(0));
//! let s = session.add_node(Label(1));
//! let step = session.add_edge(c1, s).unwrap();
//! assert!(step.candidate_count > 0);
//! let outcome = session.run().unwrap();
//! assert!(!outcome.results.is_empty());
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod history;
pub mod modify;
pub mod persist;
pub mod results;
pub mod session;
pub mod verify;

pub use candidates::{
    exact_sub_candidate_set, exact_sub_candidates, similar_sub_candidates, CandMemo,
    LevelCandidates, SimilarCandidates,
};
pub use history::{ActionKind, ActionRecord, SessionLog};
pub use modify::{deletion_options, suggest_deletion, DeletionSuggestion};
pub use results::{similar_results_gen, similar_results_gen_with, SimilarMatch, SimilarResults};
pub use session::{
    ModifyOutcome, QueryResults, RunOutcome, Session, SessionError, StepOutcome, StepStatus,
};
pub use verify::{
    exact_verification, exact_verification_obs, exact_verification_par, SimVerifier, VerifyCost,
};

pub use prague_shard::{ShardBuildStats, ShardPlan, ShardedIndexes};

use prague_graph::{GraphDb, LabelTable};
use prague_index::{A2fConfig, ActionAwareIndexes, DfBacking, IndexFootprint, StoreError};
use prague_mining::MiningResult;
use prague_obs::Obs;
use prague_par::Pool;
use std::sync::Arc;

/// Offline construction parameters (defaults follow the paper's real-dataset
/// settings: α = 0.1, β = 8, fragments capped at the maximum query size 10).
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// Minimum support ratio α.
    pub alpha: f64,
    /// Fragment size threshold β (MF/DF split).
    pub beta: usize,
    /// Mining size cap (≥ the largest query you intend to formulate).
    pub max_fragment_edges: usize,
    /// DF-index storage backing.
    pub backing: DfBacking,
    /// Index shard count. The indexes are always `shards` A²F/A²I pairs
    /// behind one [`ShardedIndexes`] facade, graphs placed by consistent
    /// hash of their id; with more than one shard mining runs
    /// shard-parallel. Query answers are byte-identical at every count.
    pub shards: usize,
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            alpha: 0.1,
            beta: 8,
            max_fragment_edges: 10,
            backing: DfBacking::TempDisk,
            shards: 1,
        }
    }
}

/// Offline build statistics.
#[derive(Debug, Clone, Copy)]
pub struct BuildStats {
    /// Number of frequent fragments mined.
    pub frequent_fragments: usize,
    /// Number of DIFs indexed.
    pub difs: usize,
    /// Number of non-discriminative infrequent fragments touched by mining.
    pub nifs_seen: usize,
    /// Offline build wall time.
    pub build_time: std::time::Duration,
}

fn a2f_config(params: &SystemParams) -> A2fConfig {
    A2fConfig {
        beta: params.beta,
        backing: params.backing.clone(),
        store_full_ids: false,
    }
}

/// A built PRAGUE system: the database plus its action-aware indexes.
/// Create interactive [`Session`]s with [`PragueSystem::session`].
pub struct PragueSystem {
    /// Shared so background verification jobs can outlive the borrow a
    /// [`Session`] holds on the system (they clone the `Arc`, not the db).
    db: Arc<GraphDb>,
    labels: LabelTable,
    indexes: ShardedIndexes,
    params: SystemParams,
    stats: BuildStats,
    /// Graphs inserted since construction (see `insert_graph`).
    inserted: usize,
    /// Bumped on every index mutation; [`Session`]s snapshot it so their
    /// CAM-keyed candidate memos can detect (and discard on) index drift.
    index_epoch: u64,
    obs: Obs,
    /// Verification worker count; 1 = sequential (no pool).
    threads: usize,
    pool: Option<Arc<Pool>>,
}

impl PragueSystem {
    /// Mine `db` and build both indexes.
    pub fn build(db: GraphDb, params: SystemParams) -> Result<Self, StoreError> {
        Self::build_with_labels(db, LabelTable::new(), params)
    }

    /// [`PragueSystem::build`] keeping a label table for name-based lookups
    /// (the GUI's label panel). Shard-parallel mining runs on a transient
    /// pool: the system's verification pool is configured only after
    /// construction, via [`PragueSystem::set_threads`].
    pub fn build_with_labels(
        db: GraphDb,
        labels: LabelTable,
        params: SystemParams,
    ) -> Result<Self, StoreError> {
        let t0 = std::time::Instant::now();
        let plan = ShardPlan::new(params.shards);
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(plan.shards());
        let pool = (workers > 1).then(|| Arc::new(Pool::new(workers, Obs::disabled())));
        let (indexes, result) = ShardedIndexes::build(
            &db,
            plan,
            params.alpha,
            params.max_fragment_edges,
            &a2f_config(&params),
            pool.as_ref(),
        )?;
        Ok(Self::assemble(db, labels, indexes, &result, params, t0))
    }

    /// Build from an existing mining result (lets callers reuse one mining
    /// pass across several index configurations, as the α/β sweeps in the
    /// experiment harness do).
    pub fn from_mining_result(
        db: GraphDb,
        labels: LabelTable,
        result: MiningResult,
        params: SystemParams,
    ) -> Result<Self, StoreError> {
        let t0 = std::time::Instant::now();
        let plan = ShardPlan::new(params.shards);
        let indexes = ShardedIndexes::from_result(&db, plan, &result, &a2f_config(&params))?;
        Ok(Self::assemble(db, labels, indexes, &result, params, t0))
    }

    fn assemble(
        db: GraphDb,
        labels: LabelTable,
        indexes: ShardedIndexes,
        result: &MiningResult,
        params: SystemParams,
        t0: std::time::Instant,
    ) -> Self {
        PragueSystem {
            db: Arc::new(db),
            labels,
            indexes,
            params,
            stats: BuildStats {
                frequent_fragments: result.frequent.len(),
                difs: result.difs.len(),
                nifs_seen: result.nif_count,
                build_time: t0.elapsed(),
            },
            inserted: 0,
            index_epoch: 0,
            obs: Obs::disabled(),
            threads: 1,
            pool: None,
        }
    }

    /// Attach an observability handle: the indexes (and their DF blob
    /// store) report to it immediately, and every [`Session`] created
    /// afterwards records its spans/counters there. Pass
    /// [`Obs::enabled`] to start collecting; the default is a disabled
    /// handle with no recording overhead beyond one branch per probe.
    pub fn set_obs(&mut self, obs: Obs) {
        self.indexes.set_obs(obs.clone());
        self.obs = obs;
        // the verification pool records `par.*` into the system handle
        self.rebuild_pool();
    }

    /// Set the verification worker count. `1` (the default) forces the
    /// original sequential path — no pool exists, no background jobs are
    /// ever submitted. `n ≥ 2` spawns a [`prague_par::Pool`]:
    /// [`Session::run`] fans VF2 candidate tests out in chunks, and
    /// `Session::add_edge` / `delete_edge` additionally start verification
    /// speculatively during user think time (cancelled if the query is
    /// modified first). Results are byte-identical to sequential in every
    /// mode.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.rebuild_pool();
    }

    fn rebuild_pool(&mut self) {
        self.pool = if self.threads > 1 {
            Some(Arc::new(Pool::new(self.threads, self.obs.clone())))
        } else {
            None
        };
    }

    /// Configured verification worker count (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The verification pool, when `threads > 1`.
    pub fn pool(&self) -> Option<&Arc<Pool>> {
        self.pool.as_ref()
    }

    /// The attached observability handle (disabled unless
    /// [`PragueSystem::set_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Start a formulation session with subgraph distance threshold σ.
    pub fn session(&self, sigma: usize) -> Session<'_> {
        Session::new(self, sigma)
    }

    /// Start a formulation session that co-owns the system through this
    /// `Arc`. Unlike [`PragueSystem::session`] the result is
    /// `Session<'static>`, so it can be stored (e.g. in the
    /// `prague-server` session manager) and moved across threads while
    /// other sessions share the same read-mostly system. Note the system
    /// behind a shared `Arc` cannot be mutated ([`PragueSystem::insert_graph`]
    /// needs `&mut`), so live sessions never observe an index-epoch change.
    pub fn session_shared(self: &Arc<Self>, sigma: usize) -> Session<'static> {
        Session::new_shared(Arc::clone(self), sigma)
    }

    /// The data graphs.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The data graphs as a shareable handle (cloned into background
    /// verification jobs so they never borrow the system).
    pub fn db_arc(&self) -> &Arc<GraphDb> {
        &self.db
    }

    /// The label table (empty unless provided at build time).
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The structural *catalog* of the action-aware indexes (CAM lookup,
    /// fragment sizes, DAG edges; identical on every shard). FSG lists
    /// read directly from the catalog cover only its shard, so candidate
    /// generation resolves them through [`PragueSystem::indexes_ref`].
    pub fn indexes(&self) -> &ActionAwareIndexes {
        self.indexes.catalog()
    }

    /// The index facade candidate generation and modification
    /// suggestions read FSG lists through.
    pub fn indexes_ref(&self) -> &ShardedIndexes {
        &self.indexes
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.indexes.shard_count()
    }

    /// The placement plan when there is more than one shard
    /// (verification uses it to chunk shard-locally).
    pub fn shard_plan(&self) -> Option<ShardPlan> {
        let plan = self.indexes.plan();
        (!plan.is_single()).then_some(plan)
    }

    /// Offline build accounting: per-shard mining + index wall time, the
    /// serial merge, and the placement imbalance.
    pub fn shard_stats(&self) -> &ShardBuildStats {
        self.indexes.stats()
    }

    /// Build parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Offline build statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Combined index footprint (Table II / Fig 10(a) accounting; summed
    /// across shards).
    pub fn index_footprint(&self) -> IndexFootprint {
        self.indexes.footprint()
    }

    /// Pre-resolve all FSG-id lists (see [`prague_index::A2fIndex::warm`]).
    /// Call once after build when steady-state step latencies matter.
    pub fn warm(&self) -> Result<(), prague_index::StoreError> {
        self.indexes.warm()
    }

    /// Insert a data graph into the running system, maintaining both
    /// indexes so that query answers stay exact (the paper's future-work
    /// item). Fragment *classification* is not revisited — a fragment that
    /// crosses the α·|D| threshold keeps its old role until a rebuild — so
    /// pruning quality (not correctness) drifts; rebuild via
    /// [`PragueSystem::build`] once [`PragueSystem::inserted_fraction`]
    /// gets large (a few percent is a good trigger).
    ///
    /// Returns the new graph's id.
    pub fn insert_graph(
        &mut self,
        g: prague_graph::Graph,
    ) -> Result<prague_graph::GraphId, prague_index::StoreError> {
        // `make_mut` clones only if a background job still holds the db —
        // impossible here, since `&mut self` excludes live sessions.
        let gid = Arc::make_mut(&mut self.db).push(g);
        let g = self.db.graph(gid).clone();
        self.indexes.register_graph(gid, &g)?;
        self.inserted += 1;
        self.index_epoch += 1;
        Ok(gid)
    }

    /// Monotone version counter of the action-aware indexes: bumped by
    /// every [`PragueSystem::insert_graph`]. Cached candidate sets are
    /// valid only within one epoch.
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch
    }

    /// Fraction of the database inserted since the last full build.
    pub fn inserted_fraction(&self) -> f64 {
        if self.db.is_empty() {
            0.0
        } else {
            self.inserted as f64 / self.db.len() as f64
        }
    }
}
