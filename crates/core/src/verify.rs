//! Verification: exact candidate verification (subgraph-isomorphism tests)
//! and `SimVerify` — the paper's VF2 extension to MCCS-based similarity
//! verification (Section VI-C).
//!
//! `SimVerify(q, R_ver(i), i)` checks, for each candidate graph, whether
//! *some* connected `i`-edge subgraph of `q` embeds in it — equivalently
//! `|mccs(G, q)| ≥ i`. The SPIG set already materializes every connected
//! subgraph of `q` per level, so verification reuses those fragments
//! (deduplicated by CAM code) instead of re-enumerating subgraphs.

use prague_graph::vf2::{
    is_subgraph_cancellable, is_subgraph_with_order_counting, MatchOrder, MatchOutcome, MatchState,
};
use prague_graph::{Graph, GraphDb, GraphId};
use prague_idset::IdSet;
use prague_obs::{names, Obs};
use prague_par::{tuning, Batch, CancelToken, Pool};
use prague_shard::ShardPlan;
use prague_spig::{SpigSet, VisualQuery};
use std::collections::BTreeMap;
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
    let _span = obs.span(names::VERIFY_EXACT);
    obs.add(names::VERIFY_EXACT_CANDIDATES, candidates.len() as u64);
    if verification_free || q.edge_count() == 0 {
        obs.add(names::VERIFY_EXACT_FREE, candidates.len() as u64);
        obs.add(names::VERIFY_EXACT_EMBEDDINGS, candidates.len() as u64);
        return candidates.to_vec();
    }
    let (verified, states) = exact_seq_core(q, candidates, db);
    obs.add(names::VERIFY_VF2_STATES, states);
    obs.add(names::VERIFY_EXACT_EMBEDDINGS, verified.len() as u64);
    verified
}

/// The sequential VF2 filter shared by the sequential path and the
/// fallback of the parallel path: one match order, candidates tested in
/// id order.
fn exact_seq_core(q: &Graph, candidates: &IdSet, db: &GraphDb) -> (Vec<GraphId>, u64) {
    let order = MatchOrder::new(q);
    let mut states = 0u64;
    let verified: Vec<GraphId> = candidates
        .iter()
        .filter(|&id| {
            let (found, st) = is_subgraph_with_order_counting(q, db.graph(id), &order);
            states += st;
            found
        })
        .collect();
    (verified, states)
}

/// The result of one worker chunk: the surviving candidates of the chunk
/// (in candidate order), the VF2 states the chunk expanded, the time it
/// spent expanding them (feeds the [`VerifyCost`] EWMAs), and whether the
/// chunk stopped early on a cancelled token.
#[derive(Debug, Default)]
pub(crate) struct VerifyChunk {
    verified: Vec<GraphId>,
    states: u64,
    busy_ns: u64,
    cancelled: bool,
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
            buckets[plan.shard_of(id)].push(id);
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

/// Submit chunked VF2 jobs testing `q` against `candidates` on `pool`.
/// Chunks partition `candidates` (shard-bucketed when `plan` is a
/// multi-shard plan) and the batch preserves submission order; the merge
/// in [`complete_exact_batch`] sorts the concatenation, so the result is
/// the sequential output exactly. Jobs clone `q`/`db` handles — nothing
/// borrows the caller — which is what lets `Session` keep a batch in
/// flight across user think time.
pub(crate) fn submit_exact_batch(
    q: &Graph,
    candidates: &IdSet,
    db: &Arc<GraphDb>,
    pool: &Pool,
    token: &CancelToken,
    cost: &VerifyCost,
    plan: Option<ShardPlan>,
) -> Batch<VerifyChunk> {
    let q = Arc::new(q.clone());
    let order = Arc::new(MatchOrder::new(&q));
    let jobs: Vec<_> = chunked_ids(candidates, pool.threads(), cost, plan)
        .into_iter()
        .map(|ids| {
            let (q, order, db) = (Arc::clone(&q), Arc::clone(&order), Arc::clone(db));
            move |token: &CancelToken| {
                let t0 = Instant::now();
                let mut state = MatchState::default();
                let mut out = VerifyChunk::default();
                for &id in &ids {
                    if token.is_cancelled() {
                        out.cancelled = true;
                        break;
                    }
                    let (res, st) =
                        is_subgraph_cancellable(&q, db.graph(id), &order, &mut state, token.flag());
                    out.states += st;
                    match res {
                        MatchOutcome::Found => out.verified.push(id),
                        MatchOutcome::NotFound => {}
                        MatchOutcome::Cancelled => {
                            out.cancelled = true;
                            break;
                        }
                    }
                }
                out.busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                out
            }
        })
        .collect();
    pool.submit_batch(token, jobs)
}

/// Join `batch` and merge its chunks into the final exact result,
/// emitting the same counters as the sequential path. Runs inside the
/// `verify.exact` span with the join/merge wait under `par.verify`. If
/// any chunk was cancelled or lost (possible only for a stale batch), the
/// merge is abandoned and the candidates are re-verified sequentially —
/// output is identical either way.
pub(crate) fn complete_exact_batch(
    q: &Graph,
    candidates: &IdSet,
    db: &GraphDb,
    obs: &Obs,
    batch: Batch<VerifyChunk>,
    cost: &mut VerifyCost,
) -> Vec<GraphId> {
    let _span = obs.span(names::VERIFY_EXACT);
    obs.add(names::VERIFY_EXACT_CANDIDATES, candidates.len() as u64);
    let parts = {
        let _merge_span = obs.span(names::PAR_VERIFY);
        batch.join()
    };
    let mut verified = Vec::new();
    let mut states = 0u64;
    let mut busy_ns = 0u64;
    let mut intact = true;
    for part in parts {
        match part {
            Some(chunk) if !chunk.cancelled => {
                verified.extend_from_slice(&chunk.verified);
                states += chunk.states;
                busy_ns += chunk.busy_ns;
            }
            _ => {
                intact = false;
                break;
            }
        }
    }
    if !intact {
        let t0 = Instant::now();
        let (v, s) = exact_seq_core(q, candidates, db);
        verified = v;
        states = s;
        busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    // Restore global id order after a shard-bucketed chunking (a no-op for
    // the contiguous in-order chunks of a one-shard system).
    verified.sort_unstable();
    cost.observe(candidates.len() as u64, states, busy_ns);
    obs.add(names::VERIFY_VF2_STATES, states);
    obs.add(names::VERIFY_EXACT_EMBEDDINGS, verified.len() as u64);
    verified
}

/// [`exact_verification_obs`] routed through the adaptive scheduler:
/// estimate the batch's cost from the live model, run it sequentially on
/// the calling thread when the estimate cannot pay for pool fan-out
/// (counted in `par.seq_fallbacks`), otherwise chunk it by the model and
/// merge in order. Output, counters, and `verify.vf2_states` accounting
/// are byte-identical to the sequential path either way.
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
    if verification_free || q.edge_count() == 0 {
        return exact_verification_obs(q, candidates, db, verification_free, obs);
    }
    let n = candidates.len();
    let overhead = pool.job_overhead_ns();
    obs.add(names::PAR_EST_COST_NS, cost.est_batch_ns(n));
    if !cost.should_parallelize(n, overhead) {
        obs.add(names::PAR_SEQ_FALLBACKS, 1);
        let _span = obs.span(names::VERIFY_EXACT);
        obs.add(names::VERIFY_EXACT_CANDIDATES, n as u64);
        let t0 = Instant::now();
        let (verified, states) = exact_seq_core(q, candidates, db);
        let busy = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        cost.observe(n as u64, states, busy);
        obs.add(names::VERIFY_VF2_STATES, states);
        obs.add(names::VERIFY_EXACT_EMBEDDINGS, verified.len() as u64);
        return verified;
    }
    let token = CancelToken::new();
    let batch = submit_exact_batch(q, candidates, db, pool, &token, cost, plan);
    complete_exact_batch(q, candidates, db, obs, batch, cost)
}

/// A reusable verifier for one query's similarity levels: the distinct
/// level-`i` fragments of the query with prebuilt VF2 match orders.
pub struct SimVerifier {
    /// level -> distinct fragments (graph + match order). `Arc` so
    /// parallel verification jobs share a level's fragment set without
    /// cloning graphs per chunk.
    fragments: BTreeMap<usize, Arc<Vec<(Graph, MatchOrder)>>>,
    obs: Obs,
    /// When set to a multi-shard plan, `verify_par` buckets candidates by
    /// owning shard before chunking (locality) and restores global id
    /// order on merge.
    shard_plan: Option<ShardPlan>,
}

impl SimVerifier {
    /// Collect the distinct fragments of levels `[lowest, q_size)` from the
    /// SPIG set. Each distinct fragment's [`MatchOrder`] is built here,
    /// once — `Session` caches the whole verifier across `run` calls so
    /// repeated runs of an unmodified query rebuild nothing.
    pub fn from_spigs(query: &VisualQuery, set: &SpigSet, lowest: usize, q_size: usize) -> Self {
        let mut fragments = BTreeMap::new();
        for i in lowest.max(1)..=q_size {
            let frags: Vec<(Graph, MatchOrder)> =
                crate::candidates::distinct_level_fragments(set, i)
                    .into_iter()
                    .map(|(_, mask)| {
                        let g = query.fragment(mask);
                        let order = MatchOrder::new(&g);
                        (g, order)
                    })
                    .collect();
            fragments.insert(i, Arc::new(frags));
        }
        SimVerifier {
            fragments,
            obs: Obs::disabled(),
            shard_plan: None,
        }
    }

    /// Attach an observability handle; [`SimVerifier::verify`] feeds the
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
        self.obs
            .add(names::VERIFY_SIM_CANDIDATES, candidates.len() as u64);
        if !self.fragments.contains_key(&level) {
            return Vec::new();
        }
        let (verified, states) = self.verify_core(candidates, level, db);
        self.obs.add(names::VERIFY_VF2_STATES, states);
        self.obs
            .add(names::VERIFY_SIM_EMBEDDINGS, verified.len() as u64);
        verified
    }

    /// The sequential `SimVerify` filter: for each candidate in order, try
    /// the level's fragments in order until one embeds.
    fn verify_core(&self, candidates: &IdSet, level: usize, db: &GraphDb) -> (Vec<GraphId>, u64) {
        let Some(frags) = self.fragments.get(&level) else {
            return (Vec::new(), 0);
        };
        let mut states = 0u64;
        let verified: Vec<GraphId> = candidates
            .iter()
            .filter(|&id| {
                let g = db.graph(id);
                frags.iter().any(|(frag, order)| {
                    let (found, st) = is_subgraph_with_order_counting(frag, g, order);
                    states += st;
                    found
                })
            })
            .collect();
        (verified, states)
    }

    /// [`SimVerifier::verify`] routed through the adaptive scheduler:
    /// same cost-based sequential fallback and model-driven chunking as
    /// [`exact_verification_par`]. Chunks test the same fragments in the
    /// same per-candidate order as the sequential path, and the in-order
    /// merge makes the output — and the `verify.vf2_states` total —
    /// identical to it.
    pub fn verify_par(
        &self,
        candidates: &IdSet,
        level: usize,
        db: &Arc<GraphDb>,
        pool: &Pool,
        cost: &mut VerifyCost,
    ) -> Vec<GraphId> {
        self.obs
            .add(names::VERIFY_SIM_CANDIDATES, candidates.len() as u64);
        let Some(frags) = self.fragments.get(&level) else {
            return Vec::new();
        };
        let n = candidates.len();
        let overhead = pool.job_overhead_ns();
        self.obs.add(names::PAR_EST_COST_NS, cost.est_batch_ns(n));
        if !cost.should_parallelize(n, overhead) {
            self.obs.add(names::PAR_SEQ_FALLBACKS, 1);
            let t0 = Instant::now();
            let (verified, states) = self.verify_core(candidates, level, db);
            let busy = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cost.observe(n as u64, states, busy);
            self.obs.add(names::VERIFY_VF2_STATES, states);
            self.obs
                .add(names::VERIFY_SIM_EMBEDDINGS, verified.len() as u64);
            return verified;
        }
        let token = CancelToken::new();
        let jobs: Vec<_> = chunked_ids(candidates, pool.threads(), cost, self.shard_plan)
            .into_iter()
            .map(|ids| {
                let (frags, db) = (Arc::clone(frags), Arc::clone(db));
                move |token: &CancelToken| {
                    let t0 = Instant::now();
                    let mut state = MatchState::default();
                    let mut out = VerifyChunk::default();
                    for &id in &ids {
                        let g = db.graph(id);
                        let mut hit = false;
                        for (frag, order) in frags.iter() {
                            let (res, st) =
                                is_subgraph_cancellable(frag, g, order, &mut state, token.flag());
                            out.states += st;
                            match res {
                                MatchOutcome::Found => {
                                    hit = true;
                                    break;
                                }
                                MatchOutcome::NotFound => {}
                                MatchOutcome::Cancelled => {
                                    out.cancelled = true;
                                    out.busy_ns =
                                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                    return out;
                                }
                            }
                        }
                        if hit {
                            out.verified.push(id);
                        }
                    }
                    out.busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    out
                }
            })
            .collect();
        let parts = {
            let _merge_span = self.obs.span(names::PAR_VERIFY);
            pool.submit_batch(&token, jobs).join()
        };
        let mut verified = Vec::new();
        let mut states = 0u64;
        let mut busy_ns = 0u64;
        let mut intact = true;
        for part in parts {
            match part {
                Some(chunk) if !chunk.cancelled => {
                    verified.extend_from_slice(&chunk.verified);
                    states += chunk.states;
                    busy_ns += chunk.busy_ns;
                }
                _ => {
                    intact = false;
                    break;
                }
            }
        }
        if !intact {
            // Unreachable with the fresh token above, but never lose
            // results: redo sequentially (counters already cover the
            // candidate add; emit only states/embeddings below).
            let t0 = Instant::now();
            let (v, s) = self.verify_core(candidates, level, db);
            verified = v;
            states = s;
            busy_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        // Restore global id order after a shard-bucketed chunking (a no-op
        // for the contiguous in-order chunks of a one-shard system).
        verified.sort_unstable();
        cost.observe(candidates.len() as u64, states, busy_ns);
        self.obs.add(names::VERIFY_VF2_STATES, states);
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
}
