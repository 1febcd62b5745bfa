//! Verification: exact candidate verification (subgraph-isomorphism tests)
//! and `SimVerify` — the paper's VF2 extension to MCCS-based similarity
//! verification (Section VI-C).
//!
//! `SimVerify(q, R_ver(i), i)` checks, for each candidate graph, whether
//! *some* connected `i`-edge subgraph of `q` embeds in it — equivalently
//! `|mccs(G, q)| ≥ i`. The SPIG set already materializes every connected
//! subgraph of `q` per level, so verification reuses those fragments
//! (deduplicated by CAM code) instead of re-enumerating subgraphs.
//!
//! Exact verification of `R_q` is `SimVerify` at level `|q|`, where the
//! only fragment is `q` itself, so this module has one engine over a
//! fragment list: one per-candidate loop (`verify_chunk`), one pool
//! `submit`, one merge (`complete`) and one cost-model decision
//! (`verify`). The public entry points only pick the fragment list and
//! add their own `verify.exact.*` / `verify.sim.*` counters.

use crate::PragueSystem;
use prague_graph::vf2::{is_subgraph_cancellable, MatchOrder, MatchOutcome, MatchState};
use prague_graph::{Graph, GraphDb, GraphId};
use prague_idset::IdSet;
use prague_obs::{names, Obs};
use prague_par::{tuning, Batch, CancelToken, Pool};
use prague_shard::ShardPlan;
use prague_spig::{SpigSet, VisualQuery};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Live per-candidate VF2 cost model driving the adaptive scheduler.
///
/// Two EWMAs, updated from every completed verification batch (parallel
/// chunks and sequential fallbacks alike) and seeded from
/// [`tuning::SEED_STATES_PER_CANDIDATE`] / [`tuning::SEED_NS_PER_STATE`]:
///
/// * **states per candidate** — sizes pool chunks so each job expands
///   roughly [`tuning::CHUNK_TARGET_STATES`] VF2 states, replacing the
///   old static floor (cheap candidates coalesce, expensive ones split);
/// * **ns per state** — converts the state estimate into nanoseconds for
///   the sequential-fallback decision against the pool's measured
///   per-job overhead.
///
/// The model only shapes *scheduling* (chunk boundaries, pool vs.
/// sequential); results and the `verify.vf2_states` counter are
/// byte-identical whatever it predicts, because chunks partition the
/// candidate set in order and the merge is order-preserving.
#[derive(Debug, Clone)]
pub struct VerifyCost {
    states_per_cand: f64,
    ns_per_state: f64,
}

impl Default for VerifyCost {
    fn default() -> Self {
        VerifyCost::new()
    }
}

impl VerifyCost {
    /// A model holding only the priors (used by a fresh session).
    pub fn new() -> Self {
        VerifyCost::seeded(tuning::SEED_STATES_PER_CANDIDATE, tuning::SEED_NS_PER_STATE)
    }

    /// A model with explicit per-candidate cost estimates. Test/bench
    /// hook: lets a caller place a batch deterministically on either side
    /// of the fallback threshold.
    pub fn seeded(states_per_cand: f64, ns_per_state: f64) -> Self {
        VerifyCost {
            states_per_cand: states_per_cand.max(1.0),
            ns_per_state: ns_per_state.max(1.0),
        }
    }

    /// Fold one completed batch (its candidate count, VF2 states, and
    /// busy nanoseconds) into the EWMAs.
    pub fn observe(&mut self, candidates: u64, states: u64, busy_ns: u64) {
        if candidates == 0 {
            return;
        }
        let w = tuning::EWMA_WEIGHT;
        let spc = states as f64 / candidates as f64;
        self.states_per_cand = ((1.0 - w) * self.states_per_cand + w * spc).max(1.0);
        if states > 0 {
            let nps = busy_ns as f64 / states as f64;
            self.ns_per_state = ((1.0 - w) * self.ns_per_state + w * nps).max(1.0);
        }
    }

    /// Estimated cost of verifying `n` candidates, in nanoseconds.
    pub fn est_batch_ns(&self, n: usize) -> u64 {
        (n as f64 * self.states_per_cand * self.ns_per_state) as u64
    }

    /// Whether an `n`-candidate batch is worth fanning out on a pool with
    /// the given measured per-job overhead: its estimated cost must reach
    /// [`tuning::FALLBACK_OVERHEAD_MULT`] overheads, otherwise fan-out
    /// bookkeeping dominates and the batch runs sequentially.
    pub fn should_parallelize(&self, n: usize, job_overhead_ns: u64) -> bool {
        self.est_batch_ns(n) >= tuning::FALLBACK_OVERHEAD_MULT.saturating_mul(job_overhead_ns)
    }

    /// Adaptive chunk length for fanning `n` candidates over `threads`
    /// workers: ~[`tuning::CHUNK_TARGET_STATES`] VF2 states per job by
    /// the current estimate, capped to keep ≥
    /// [`tuning::CHUNKS_PER_WORKER`] chunks per worker when `n` allows,
    /// clamped to `[CHUNK_MIN, CHUNK_MAX]`.
    fn chunk_len(&self, n: usize, threads: usize) -> usize {
        let by_cost = (tuning::CHUNK_TARGET_STATES as f64 / self.states_per_cand).ceil() as usize;
        let headroom = n
            .div_ceil(threads.max(1) * tuning::CHUNKS_PER_WORKER)
            .max(1);
        by_cost
            .min(headroom)
            .clamp(tuning::CHUNK_MIN, tuning::CHUNK_MAX)
    }
}

/// A fragment list: graphs with prebuilt VF2 match orders, shared with
/// pool jobs by `Arc`. A candidate passes when *any* fragment embeds in it.
type Fragments = Arc<Vec<(Graph, MatchOrder)>>;

/// A fragment with its match order, built once per fragment.
fn fragment(g: Graph) -> (Graph, MatchOrder) {
    let order = MatchOrder::new(&g);
    (g, order)
}

/// The fragment list of exact verification: `q` itself, the only level-`|q|`
/// fragment.
pub(crate) fn exact_fragments(q: &Graph) -> Fragments {
    Arc::new(vec![fragment(q.clone())])
}

/// Where a batch may fan out: the pool, the database handle its jobs
/// clone, and the shard plan its chunks are bucketed by.
#[derive(Clone, Copy)]
pub(crate) struct Fanout<'a> {
    pool: &'a Pool,
    db: &'a Arc<GraphDb>,
    plan: Option<ShardPlan>,
}

impl<'a> Fanout<'a> {
    /// The system's fan-out, `None` when it runs without a pool.
    pub(crate) fn of(system: &'a PragueSystem) -> Option<Self> {
        system.pool().map(|pool| Fanout {
            pool,
            db: system.db_arc(),
            plan: system.shard_plan(),
        })
    }
}

/// The result of one chunk (or of a whole batch run inline): the surviving
/// candidates in the order tested, the VF2 states expanded, the time spent
/// expanding them (feeds the [`VerifyCost`] EWMAs), and whether the loop
/// stopped early on a cancelled token.
#[derive(Debug, Default)]
pub(crate) struct VerifyChunk {
    verified: Vec<GraphId>,
    states: u64,
    busy_ns: u64,
    cancelled: bool,
}

/// The per-candidate loop: for each id in order, try the fragments in
/// order until one embeds. One [`MatchState`] is threaded through every
/// test, so the loop allocates nothing per candidate. `cancel` is the
/// batch token's flag on the pool and a never-raised flag inline, where
/// the search equals plain VF2 in result and state count.
fn verify_chunk(
    frags: &[(Graph, MatchOrder)],
    ids: impl IntoIterator<Item = GraphId>,
    db: &GraphDb,
    cancel: &AtomicBool,
) -> VerifyChunk {
    let t0 = Instant::now();
    let mut state = MatchState::default();
    let mut out = VerifyChunk::default();
    'ids: for id in ids {
        let g = db.graph(id);
        for (frag, order) in frags {
            let (res, st) = is_subgraph_cancellable(frag, g, order, &mut state, cancel);
            out.states += st;
            match res {
                MatchOutcome::Found => {
                    out.verified.push(id);
                    break;
                }
                MatchOutcome::NotFound => {}
                MatchOutcome::Cancelled => {
                    out.cancelled = true;
                    break 'ids;
                }
            }
        }
    }
    out.busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

/// Partition a candidate set into id chunks for the pool. Without a shard
/// plan, chunks are in-order slices of ascending iteration — each chunk is
/// the only `Vec` built, and concatenating them reproduces the sequential
/// order exactly. With a multi-shard plan, ids are first bucketed by their
/// owning shard (each bucket ascending, buckets in shard order) so every
/// chunk touches one shard's graphs; the merge restores global id order
/// with one `sort_unstable`, keeping results byte-identical. Chunk length
/// comes from the live cost model ([`VerifyCost::chunk_len`]).
fn chunked_ids(
    candidates: &IdSet,
    threads: usize,
    cost: &VerifyCost,
    plan: Option<ShardPlan>,
) -> Vec<Vec<GraphId>> {
    let n = candidates.len();
    let cl = cost.chunk_len(n, threads).max(1);
    if let Some(plan) = plan.filter(|p| !p.is_single()) {
        let mut buckets: Vec<Vec<GraphId>> = vec![Vec::new(); plan.shards()];
        for id in candidates.iter() {
            // always `Some`: `shard_of` is below `shards()`
            if let Some(bucket) = buckets.get_mut(plan.shard_of(id)) {
                bucket.push(id);
            }
        }
        let mut chunks = Vec::with_capacity(n.div_ceil(cl));
        for bucket in &buckets {
            for chunk in bucket.chunks(cl) {
                chunks.push(chunk.to_vec());
            }
        }
        return chunks;
    }
    let mut chunks = Vec::with_capacity(n.div_ceil(cl));
    let mut it = candidates.iter();
    loop {
        let ids: Vec<GraphId> = it.by_ref().take(cl).collect();
        if ids.is_empty() {
            break;
        }
        chunks.push(ids);
    }
    chunks
}

/// Submit chunked jobs testing `frags` against `candidates`. Chunks
/// partition `candidates` and the batch preserves submission order, so
/// `complete` reassembles the sequential output exactly. Jobs clone the
/// fragment and database handles — nothing borrows the caller — which is
/// what lets `Session` keep a batch in flight across user think time.
pub(crate) fn submit(
    frags: &Fragments,
    candidates: &IdSet,
    fan: Fanout<'_>,
    token: &CancelToken,
    cost: &VerifyCost,
) -> Batch<VerifyChunk> {
    let jobs: Vec<_> = chunked_ids(candidates, fan.pool.threads(), cost, fan.plan)
        .into_iter()
        .map(|ids| {
            let (frags, db) = (Arc::clone(frags), Arc::clone(fan.db));
            move |token: &CancelToken| verify_chunk(&frags, ids, &db, token.flag())
        })
        .collect();
    fan.pool.submit_batch(token, jobs)
}

/// Produce the verified ids of `candidates`: join `batch` (the wait is the
/// `par.verify` span) and merge its chunks in order, or — with no batch,
/// or one with a cancelled or lost chunk — run the whole set inline on the
/// calling thread. Output and `verify.vf2_states` are identical either
/// way; the batch's cost feeds the model.
fn complete(
    frags: &Fragments,
    candidates: &IdSet,
    db: &GraphDb,
    batch: Option<Batch<VerifyChunk>>,
    obs: &Obs,
    cost: &mut VerifyCost,
) -> Vec<GraphId> {
    let parts = batch.map(|batch| {
        let _merge_span = obs.span(names::PAR_VERIFY);
        batch.join()
    });
    let merged = parts.and_then(|parts| {
        let mut all = VerifyChunk::default();
        for part in parts {
            let chunk = part.filter(|chunk| !chunk.cancelled)?;
            all.verified.extend_from_slice(&chunk.verified);
            all.states += chunk.states;
            all.busy_ns += chunk.busy_ns;
        }
        // Restore global id order after a shard-bucketed chunking (a no-op
        // for the contiguous in-order chunks of a one-shard system).
        all.verified.sort_unstable();
        Some(all)
    });
    let all = merged
        .unwrap_or_else(|| verify_chunk(frags, candidates.iter(), db, &AtomicBool::new(false)));
    cost.observe(candidates.len() as u64, all.states, all.busy_ns);
    obs.add(names::VERIFY_VF2_STATES, all.states);
    all.verified
}

/// The adaptive scheduler: with somewhere to fan out, estimate the batch's
/// cost from the live model and chunk it over the pool when the estimate
/// pays for the fan-out; otherwise (counted in `par.seq_fallbacks`), and
/// always without a pool, run it inline.
fn verify(
    frags: &Fragments,
    candidates: &IdSet,
    db: &GraphDb,
    fan: Option<Fanout<'_>>,
    obs: &Obs,
    cost: &mut VerifyCost,
) -> Vec<GraphId> {
    let batch = fan.and_then(|fan| {
        let n = candidates.len();
        obs.add(names::PAR_EST_COST_NS, cost.est_batch_ns(n));
        if cost.should_parallelize(n, fan.pool.job_overhead_ns()) {
            Some(submit(frags, candidates, fan, &CancelToken::new(), cost))
        } else {
            obs.add(names::PAR_SEQ_FALLBACKS, 1);
            None
        }
    });
    complete(frags, candidates, db, batch, obs, cost)
}

/// Exact verification as `Session::run` reaches it: merge `batch` when the
/// think-time batch for this canvas exists, otherwise schedule over `fan`.
/// Runs inside the `verify.exact` span and feeds the
/// `verify.exact.candidates` / `verify.exact.free` /
/// `verify.exact.embeddings` counters; `verification_free` (or an edgeless
/// `q`) passes the candidates through untested.
#[allow(clippy::too_many_arguments)] // the session's full verify context
pub(crate) fn exact_verification_on(
    q: &Graph,
    candidates: &IdSet,
    db: &GraphDb,
    verification_free: bool,
    obs: &Obs,
    batch: Option<Batch<VerifyChunk>>,
    fan: Option<Fanout<'_>>,
    cost: &mut VerifyCost,
) -> Vec<GraphId> {
    let _span = obs.span(names::VERIFY_EXACT);
    obs.add(names::VERIFY_EXACT_CANDIDATES, candidates.len() as u64);
    let verified = if verification_free || q.edge_count() == 0 {
        obs.add(names::VERIFY_EXACT_FREE, candidates.len() as u64);
        candidates.to_vec()
    } else {
        let frags = exact_fragments(q);
        match batch {
            Some(_) => complete(&frags, candidates, db, batch, obs, cost),
            None => verify(&frags, candidates, db, fan, obs, cost),
        }
    };
    obs.add(names::VERIFY_EXACT_EMBEDDINGS, verified.len() as u64);
    verified
}

/// Exact verification of `R_q`: keep candidates in which `q` actually
/// embeds. `verification_free` short-circuits the test (the paper skips
/// verification when the query fragment is itself an indexed fragment —
/// "by performing subgraph isomorphism test *if necessary*").
pub fn exact_verification(
    q: &Graph,
    candidates: &IdSet,
    db: &GraphDb,
    verification_free: bool,
) -> Vec<GraphId> {
    exact_verification_obs(q, candidates, db, verification_free, &Obs::disabled())
}

/// [`exact_verification`] reporting to an observability handle: runs
/// inside a `verify.exact` span and feeds the `verify.exact.candidates` /
/// `verify.exact.free` / `verify.exact.embeddings` / `verify.vf2_states`
/// counters.
pub fn exact_verification_obs(
    q: &Graph,
    candidates: &IdSet,
    db: &GraphDb,
    verification_free: bool,
    obs: &Obs,
) -> Vec<GraphId> {
    let cost = &mut VerifyCost::new();
    exact_verification_on(q, candidates, db, verification_free, obs, None, None, cost)
}

/// [`exact_verification_obs`] routed through the adaptive scheduler:
/// sequential on the calling thread when the cost estimate cannot pay for
/// pool fan-out (counted in `par.seq_fallbacks`), otherwise chunked by the
/// model and merged in order. Output, counters, and `verify.vf2_states`
/// accounting are byte-identical to the sequential path either way.
#[allow(clippy::too_many_arguments)] // the session's full verify context
pub fn exact_verification_par(
    q: &Graph,
    candidates: &IdSet,
    db: &Arc<GraphDb>,
    verification_free: bool,
    obs: &Obs,
    pool: &Pool,
    cost: &mut VerifyCost,
    plan: Option<ShardPlan>,
) -> Vec<GraphId> {
    let fan = Some(Fanout { pool, db, plan });
    exact_verification_on(q, candidates, db, verification_free, obs, None, fan, cost)
}

/// A reusable verifier for one query's similarity levels: the distinct
/// level-`i` fragments of the query with prebuilt VF2 match orders.
pub struct SimVerifier {
    /// level -> distinct fragments, shared with pool jobs.
    fragments: BTreeMap<usize, Fragments>,
    obs: Obs,
    /// When set to a multi-shard plan, `verify_par` buckets candidates by
    /// owning shard before chunking (locality) and restores global id
    /// order on merge.
    shard_plan: Option<ShardPlan>,
}

impl SimVerifier {
    /// Collect the distinct fragments of levels `[lowest, q_size]` from the
    /// SPIG set. Each distinct fragment's [`MatchOrder`] is built here,
    /// once — `Session` caches the whole verifier across `run` calls so
    /// repeated runs of an unmodified query rebuild nothing.
    pub fn from_spigs(query: &VisualQuery, set: &SpigSet, lowest: usize, q_size: usize) -> Self {
        let mut fragments = BTreeMap::new();
        for i in lowest.max(1)..=q_size {
            let frags = crate::candidates::distinct_level_fragments(set, i)
                .into_iter()
                .map(|(_, mask)| fragment(query.fragment(mask)))
                .collect();
            fragments.insert(i, Arc::new(frags));
        }
        SimVerifier {
            fragments,
            obs: Obs::disabled(),
            shard_plan: None,
        }
    }

    /// Attach an observability handle; verification feeds the
    /// `verify.sim.candidates` / `verify.sim.embeddings` /
    /// `verify.vf2_states` counters through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Attach the system's shard plan so [`SimVerifier::verify_par`]
    /// chunks candidates shard-locally. `None` (the default) keeps the
    /// plain in-order chunking.
    pub fn set_shard_plan(&mut self, plan: Option<ShardPlan>) {
        self.shard_plan = plan;
    }

    /// `SimVerify`: of `candidates`, the graphs containing at least one
    /// level-`i` fragment of the query.
    pub fn verify(&self, candidates: &IdSet, level: usize, db: &GraphDb) -> Vec<GraphId> {
        self.verify_on(candidates, level, db, None, &mut VerifyCost::new())
    }

    /// [`SimVerifier::verify`] routed through the adaptive scheduler: the
    /// same cost-based sequential fallback and model-driven chunking as
    /// [`exact_verification_par`], with output and the `verify.vf2_states`
    /// total identical to the sequential path.
    pub fn verify_par(
        &self,
        candidates: &IdSet,
        level: usize,
        db: &Arc<GraphDb>,
        pool: &Pool,
        cost: &mut VerifyCost,
    ) -> Vec<GraphId> {
        let plan = self.shard_plan;
        self.verify_on(candidates, level, db, Some(Fanout { pool, db, plan }), cost)
    }

    /// `SimVerify` scheduled over `fan` (inline when `None`), feeding the
    /// `verify.sim.*` counters.
    pub(crate) fn verify_on(
        &self,
        candidates: &IdSet,
        level: usize,
        db: &GraphDb,
        fan: Option<Fanout<'_>>,
        cost: &mut VerifyCost,
    ) -> Vec<GraphId> {
        self.obs
            .add(names::VERIFY_SIM_CANDIDATES, candidates.len() as u64);
        let Some(frags) = self.fragments.get(&level) else {
            return Vec::new();
        };
        let verified = verify(frags, candidates, db, fan, &self.obs, cost);
        self.obs
            .add(names::VERIFY_SIM_EMBEDDINGS, verified.len() as u64);
        verified
    }

    /// Number of distinct fragments at a level (diagnostics).
    pub fn fragment_count(&self, level: usize) -> usize {
        self.fragments.get(&level).map_or(0, |f| f.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prague_graph::Label;

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn exact_verification_filters() {
        let mut db = GraphDb::new();
        db.push(path(&[0, 1, 0])); // contains C-S
        db.push(path(&[0, 0])); // does not
        let q = path(&[0, 1]);
        let cands = IdSet::from_sorted_slice(&[0, 1]);
        assert_eq!(exact_verification(&q, &cands, &db, false), vec![0]);
        // verification-free passes through
        assert_eq!(exact_verification(&q, &cands, &db, true), vec![0, 1]);
    }

    /// A batch whose chunks were all cancelled is redone inline at
    /// `complete`: output and every `verify.*` counter equal the
    /// sequential path, and nothing the cancelled chunks did is counted.
    #[test]
    fn cancelled_batch_is_redone_sequentially() {
        let mut db = GraphDb::new();
        for i in 0..40u16 {
            db.push(path(&[0, i % 2, 0, 1]));
        }
        let db = Arc::new(db);
        let q = path(&[0, 1, 0]);
        let ids: Vec<GraphId> = (0..40).collect();
        let cands = IdSet::from_sorted_slice(&ids);
        let verify_counters = |obs: &Obs| {
            let snap = obs.snapshot().expect("obs enabled");
            [
                names::VERIFY_EXACT_CANDIDATES,
                names::VERIFY_EXACT_EMBEDDINGS,
                names::VERIFY_VF2_STATES,
            ]
            .map(|name| snap.counter(name))
        };
        let seq_obs = Obs::enabled();
        let seq = exact_verification_obs(&q, &cands, &db, false, &seq_obs);
        assert_eq!(seq.len(), 20);

        let obs = Obs::enabled();
        let pool = Pool::new(2, obs.clone());
        let fan = Fanout {
            pool: &pool,
            db: &db,
            plan: None,
        };
        let token = CancelToken::new();
        token.cancel();
        // one candidate per chunk estimate, so the batch has several chunks
        let mut cost = VerifyCost::seeded(tuning::CHUNK_TARGET_STATES as f64, 1.0);
        let batch = submit(&exact_fragments(&q), &cands, fan, &token, &cost);
        let redone =
            exact_verification_on(&q, &cands, &db, false, &obs, Some(batch), None, &mut cost);
        assert_eq!(redone, seq);
        assert_eq!(verify_counters(&obs), verify_counters(&seq_obs));
        let snap = obs.snapshot().expect("obs enabled");
        assert!(snap.counter(names::PAR_CANCELLATIONS).unwrap_or(0) > 1);
        assert_eq!(snap.counter(names::PAR_SEQ_FALLBACKS), None);
    }
}
