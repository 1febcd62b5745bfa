//! The PRAGUE formulation session — Algorithm 1 as a state machine.
//!
//! A [`Session`] tracks one user's visual query formulation over a built
//! [`crate::PragueSystem`]. The GUI actions of the paper map to methods:
//!
//! | paper action | method |
//! |--------------|--------|
//! | `New` (draw edge)        | [`Session::add_edge`] |
//! | `Modify` (delete edge)   | [`Session::delete_edge`] / [`Session::delete_suggested`] |
//! | `SimQuery` (opt in)      | [`Session::choose_similarity`] |
//! | `Run`                    | [`Session::run`] |
//!
//! After every action the session refreshes its candidate state (exact
//! `R_q`, or the per-level similarity candidates once `simFlag` is set) by
//! exploiting the SPIG set — the work the paper hides inside GUI latency.
//! Each action reports its processing time so the experiment harness can
//! check it fits the latency budget, and [`Session::run`] reports the SRT
//! (the only work the user actually waits for).

use crate::candidates::{
    exact_sub_candidate_set, similar_sub_candidates, CandMemo, SimilarCandidates,
};
use crate::history::{ActionKind, ActionRecord, SessionLog};
use crate::modify::{suggest_deletion, DeletionSuggestion};
use crate::results::{similar_results_gen_with, SimilarResults};
use crate::verify::{
    exact_fragments, exact_verification_on, submit, Fanout, SimVerifier, VerifyChunk, VerifyCost,
};
use crate::PragueSystem;
use prague_graph::{GraphId, Label};
use prague_idset::IdSet;
use prague_index::StoreError;
use prague_obs::{names, Obs};
use prague_par::{Batch, CancelToken};
use prague_spig::{EdgeLabelId, QueryError, SpigError, SpigSet, VNodeId, VisualQuery};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced by session actions.
#[derive(Debug)]
pub enum SessionError {
    /// Invalid canvas operation.
    Query(QueryError),
    /// SPIG maintenance failure (internal invariant).
    Spig(SpigError),
    /// DF-index store I/O failure while resolving candidates.
    Store(StoreError),
    /// `Run` on an empty query.
    EmptyQuery,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Query(e) => write!(f, "{e}"),
            SessionError::Spig(e) => write!(f, "{e}"),
            SessionError::Store(e) => write!(f, "{e}"),
            SessionError::EmptyQuery => write!(f, "cannot run an empty query"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<QueryError> for SessionError {
    fn from(e: QueryError) -> Self {
        SessionError::Query(e)
    }
}

impl From<SpigError> for SessionError {
    fn from(e: SpigError) -> Self {
        SessionError::Spig(e)
    }
}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}

/// The `Status` column of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The query fragment is an indexed frequent fragment with matches.
    Frequent,
    /// The query fragment is infrequent (DIF or NIF) but `R_q` is non-empty.
    Infrequent,
    /// No exact match exists (or the session is already in similarity mode).
    Similar,
}

/// Outcome of one `New` (edge addition) action.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Label ℓ of the new edge.
    pub edge: EdgeLabelId,
    /// Fragment status after this step.
    pub status: StepStatus,
    /// `|R_q|` (exact mode) or the distinct similarity candidate count.
    pub candidate_count: usize,
    /// Time spent constructing the SPIG.
    pub spig_time: Duration,
    /// Time spent refreshing candidates.
    pub candidate_time: Duration,
    /// Time spent computing the deletion suggestion (zero unless `R_q`
    /// just became empty in exact mode).
    pub suggest_time: Duration,
    /// When `R_q` just became empty in exact mode: the system's deletion
    /// suggestion (the paper's option dialogue, Algorithm 1 line 8).
    pub suggestion: Option<DeletionSuggestion>,
}

impl StepOutcome {
    /// Total processing charged against GUI latency for this step: SPIG
    /// construction + candidate refresh + (when offered) the deletion
    /// suggestion probe. This is the complete per-step cost — previously
    /// the suggestion probe was silently folded into `candidate_time`;
    /// the `session.add_edge` span tree breaks the three phases out.
    pub fn total_time(&self) -> Duration {
        self.spig_time + self.candidate_time + self.suggest_time
    }
}

/// Outcome of a `Modify` (edge deletion) action.
#[derive(Debug, Clone)]
pub struct ModifyOutcome {
    /// The deleted edge.
    pub edge: EdgeLabelId,
    /// Candidate count after deletion.
    pub candidate_count: usize,
    /// Time to update the SPIG set and refresh candidates — the paper's
    /// query modification cost (Tables IV and V).
    pub modify_time: Duration,
}

/// Final query results.
#[derive(Debug, Clone)]
pub enum QueryResults {
    /// Exact matches (subgraph containment), ascending graph id.
    Exact(Vec<GraphId>),
    /// Ranked approximate matches.
    Similar(SimilarResults),
}

impl QueryResults {
    /// Number of result graphs.
    pub fn len(&self) -> usize {
        match self {
            QueryResults::Exact(v) => v.len(),
            QueryResults::Similar(r) => r.matches.len(),
        }
    }

    /// Whether no graph matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of the `Run` action.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The results.
    pub results: QueryResults,
    /// System response time: everything the user waits for after pressing
    /// Run (final verification and, if needed, the fallback similarity
    /// search).
    pub srt: Duration,
}

/// A [`SimVerifier`] cached across `run` calls, keyed by the canvas
/// generation and σ it was built for.
struct CachedVerifier {
    generation: u64,
    sigma: usize,
    verifier: SimVerifier,
}

/// How a [`Session`] reaches its [`PragueSystem`]: borrowed (the
/// original single-user shape — the session cannot outlive the system and
/// the system cannot mutate while it lives) or shared through an [`Arc`]
/// (the `prague-server` shape — hundreds of `Session<'static>`s co-own
/// one read-mostly system and can be stored in a session manager). Both
/// deref to the same `&PragueSystem`, so every session method is
/// oblivious to the ownership mode.
enum SystemHandle<'a> {
    Borrowed(&'a PragueSystem),
    Shared(Arc<PragueSystem>),
}

impl std::ops::Deref for SystemHandle<'_> {
    type Target = PragueSystem;

    fn deref(&self) -> &PragueSystem {
        match self {
            SystemHandle::Borrowed(s) => s,
            SystemHandle::Shared(s) => s,
        }
    }
}

/// One user's formulation session.
pub struct Session<'a> {
    system: SystemHandle<'a>,
    /// Subgraph distance threshold σ for similarity search.
    pub sigma: usize,
    query: VisualQuery,
    spigs: SpigSet,
    sim_flag: bool,
    rq: Arc<IdSet>,
    rq_empty: bool,
    sim_candidates: Option<SimilarCandidates>,
    log: SessionLog,
    obs: Obs,
    /// Bumped on every canvas mutation; versions the cached similarity
    /// verifier.
    generation: u64,
    /// The speculative exact-verification batch running on the pool while
    /// the user thinks: submitted after a canvas change, consumed by `run`,
    /// cancelled by the next canvas change — so it is always for the
    /// current canvas.
    pending: Option<Batch<VerifyChunk>>,
    sim_verifier: Option<CachedVerifier>,
    /// CAM-keyed candidate-set memo: survives `add_edge` / `delete_edge` /
    /// `relabel_node`, so re-formulating a fragment seen earlier in the
    /// session (most notably: deleting an edge, whose `q − e` candidates
    /// were cached when the prefix was drawn) is pure cache replay.
    memo: CandMemo,
    memo_enabled: bool,
    /// Index epoch snapshotted at creation. The indexes cannot actually
    /// mutate while this session borrows the system (`insert_graph` needs
    /// `&mut`), but the memo guards itself anyway: on drift it is cleared
    /// before serving anything.
    index_epoch: u64,
    /// Live per-candidate VF2 cost model: sizes pool chunks and decides
    /// the sequential fallback, seeded with priors and updated from every
    /// completed verification batch of this session.
    verify_cost: VerifyCost,
}

// The server hands sessions across connection-handler threads and parks
// them inside a shared manager; both moves are only sound if these hold,
// so pin them at compile time rather than trusting auto-trait drift.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Session<'static>>();
    assert_sync::<PragueSystem>();
};

impl<'a> Session<'a> {
    pub(crate) fn new(system: &'a PragueSystem, sigma: usize) -> Self {
        Self::with_handle(SystemHandle::Borrowed(system), sigma)
    }

    /// A session that co-owns the system: the `prague-server` entry point,
    /// where sessions outlive any one borrow of the shared [`PragueSystem`].
    pub(crate) fn new_shared(system: Arc<PragueSystem>, sigma: usize) -> Session<'static> {
        Session::with_handle(SystemHandle::Shared(system), sigma)
    }

    fn with_handle(system: SystemHandle<'a>, sigma: usize) -> Session<'a> {
        let obs = system.obs().clone();
        let mut spigs = SpigSet::new();
        spigs.set_obs(obs.clone());
        let index_epoch = system.index_epoch();
        Session {
            system,
            sigma,
            query: VisualQuery::new(),
            spigs,
            sim_flag: false,
            rq: Arc::new(IdSet::new()),
            rq_empty: false,
            sim_candidates: None,
            log: SessionLog::default(),
            memo: CandMemo::new(obs.clone()),
            memo_enabled: true,
            index_epoch,
            obs,
            generation: 0,
            pending: None,
            sim_verifier: None,
            verify_cost: VerifyCost::new(),
        }
    }

    /// Enable or disable the CAM-keyed candidate memo (enabled by default).
    /// Disabling does not drop cached entries; re-enabling reuses them.
    /// Exists for benchmarking the memo's effect — production sessions have
    /// no reason to turn it off.
    pub fn set_memo_enabled(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
    }

    /// The session's candidate memo (diagnostics: entry count, byte size).
    pub fn memo(&self) -> &CandMemo {
        &self.memo
    }

    /// The memo handle candidate generation should use right now.
    fn memo_opt(&self) -> Option<&CandMemo> {
        if self.memo_enabled {
            Some(&self.memo)
        } else {
            None
        }
    }

    /// Defensive index-epoch check: if the system's indexes changed since
    /// this session snapshotted them (impossible through safe APIs while
    /// the session lives, but cheap to verify), the memo is stale — drop
    /// every entry before serving candidates from it.
    fn check_index_epoch(&mut self) {
        let epoch = self.system.index_epoch();
        if self.index_epoch != epoch {
            self.memo.clear();
            self.index_epoch = epoch;
        }
    }

    /// The observability handle this session records into (inherited from
    /// the system at creation time).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Cancel and discard any in-flight background verification. The
    /// workers observe the token within a few dozen VF2 states and stop;
    /// the discarded batch's slots are freed when its last job finishes.
    fn cancel_pending(&mut self) {
        if let Some(batch) = self.pending.take() {
            batch.cancel();
        }
    }

    /// Called after every successful canvas mutation: bump the canvas
    /// generation, cancel superseded background work, and — when a pool is
    /// configured, the session is in exact mode, and `R_q` actually needs
    /// verification — start verifying speculatively during user think
    /// time. `run` consumes the batch.
    fn after_canvas_change(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.cancel_pending();
        if self.sim_flag || self.rq.is_empty() {
            return;
        }
        let Some(fan) = Fanout::of(&self.system) else {
            return;
        };
        if self
            .spigs
            .target_vertex(&self.query)
            .is_some_and(|v| v.fragment_list.is_indexed())
        {
            // verification-free: `run` passes R_q through untested
            return;
        }
        // Speculative batches are submitted regardless of the cost
        // estimate: they run inside think time, where pool overhead costs
        // the user nothing — the cost-based fallback only gates the
        // synchronous paths the user actually waits on.
        let frags = exact_fragments(self.query.graph());
        let token = CancelToken::new();
        self.pending = Some(submit(&frags, &self.rq, fan, &token, &self.verify_cost));
    }

    /// Whether a speculative verification batch is in flight (diagnostic;
    /// meaningful only when the system has a pool).
    pub fn has_pending_verification(&self) -> bool {
        self.pending.is_some()
    }

    /// The fragment status implied by the current session state.
    fn current_status(&self) -> StepStatus {
        if self.sim_flag || (self.rq_empty && !self.query.is_empty()) {
            StepStatus::Similar
        } else if self
            .spigs
            .target_vertex(&self.query)
            .is_some_and(|v| v.fragment_list.freq_id.is_some())
        {
            StepStatus::Frequent
        } else {
            StepStatus::Infrequent
        }
    }

    /// Drop a node onto the canvas (no processing — nodes only matter once
    /// wired, exactly as in the paper's edge-at-a-time model).
    pub fn add_node(&mut self, label: Label) -> VNodeId {
        self.query.add_node(label)
    }

    /// Convenience: add a node by label name resolved against the system's
    /// label table.
    pub fn add_named_node(&mut self, name: &str) -> Option<VNodeId> {
        self.system.labels().get(name).map(|l| self.add_node(l))
    }

    /// `New` action: draw an edge and process the grown fragment — one
    /// formulation step of the paper's Algorithm 1 (lines 3–15): SPIG-set
    /// maintenance, then the exact (or, once `simFlag` is set, similarity)
    /// candidate refresh, all inside GUI latency.
    ///
    /// # Errors
    ///
    /// * [`SessionError::Query`] — the edge is invalid on the canvas
    ///   (unknown endpoint, self-loop, duplicate, or the 64-edge cap);
    /// * [`SessionError::Spig`] / [`SessionError::Store`] — SPIG
    ///   maintenance or DF-index I/O failed. The canvas is rolled back, so
    ///   the session stays consistent after any error.
    ///
    /// # Panics
    ///
    /// Never panics.
    ///
    /// # Observability
    ///
    /// Runs inside a `session.add_edge` span with `spig.construct`,
    /// `candidates.exact`/`candidates.similar`, and (when `R_q` becomes
    /// empty) `modify.suggest` child phases; the step's end-to-end latency
    /// feeds the `session.step_ns` histogram.
    pub fn add_edge(&mut self, u: VNodeId, v: VNodeId) -> Result<StepOutcome, SessionError> {
        let edge = self.query.add_edge(u, v)?;
        let step_span = self.obs.span(names::SESSION_ADD_EDGE);
        let t0 = Instant::now();
        if let Err(e) = self.spigs.on_new_edge(
            &self.query,
            &self.system.indexes().a2f,
            &self.system.indexes().a2i,
        ) {
            // Roll the canvas back so the session stays consistent. The
            // rollback deletes the edge added two statements ago, so it
            // cannot fail — but if it ever does, the canvas has diverged
            // from the SPIG set; count it instead of discarding silently.
            if self.query.delete_edge(edge).is_err() {
                self.obs.add(names::SESSION_ROLLBACK_FAILED, 1);
            }
            return Err(e.into());
        }
        let spig_time = t0.elapsed();

        let mut suggest_time = Duration::ZERO;
        let (status, candidate_count, suggestion, candidate_time) = if self.sim_flag {
            let cand_span = self.obs.span(names::CANDIDATES_SIMILAR);
            self.refresh_similar()?;
            let candidate_time = cand_span.finish();
            (
                StepStatus::Similar,
                self.sim_candidates
                    .as_ref()
                    .map_or(0, SimilarCandidates::distinct_candidates),
                None,
                candidate_time,
            )
        } else {
            let cand_span = self.obs.span(names::CANDIDATES_EXACT);
            self.refresh_exact()?;
            let candidate_time = cand_span.finish();
            if self.rq_empty {
                // Algorithm 1 lines 7–8: offer modification or similarity.
                let sug_span = self.obs.span(names::MODIFY_SUGGEST);
                let suggestion = suggest_deletion(
                    &self.query,
                    &self.spigs,
                    self.system.indexes_ref(),
                    self.system.db().len(),
                    self.memo_opt(),
                )?;
                suggest_time = sug_span.finish();
                (StepStatus::Similar, 0, suggestion, candidate_time)
            } else {
                let target = self.spigs.target_vertex(&self.query);
                let status = match target {
                    Some(v) if v.fragment_list.freq_id.is_some() => StepStatus::Frequent,
                    _ => StepStatus::Infrequent,
                };
                (status, self.rq.len(), None, candidate_time)
            }
        };
        self.after_canvas_change();
        let step_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, step_time);
        self.log.push(ActionRecord {
            kind: ActionKind::New { edge },
            status,
            candidates: candidate_count,
            elapsed: step_time,
        });
        Ok(StepOutcome {
            edge,
            status,
            candidate_count,
            spig_time,
            candidate_time,
            suggest_time,
            suggestion,
        })
    }

    /// `SimQuery` action: continue as a subgraph *similarity* query
    /// (Algorithm 1 lines 13–15). From here on, every step refreshes the
    /// per-level similarity candidates instead of the exact `R_q`, and
    /// `Run` ranks approximate matches by subgraph distance (Section VI).
    /// Returns the distinct similarity candidate count.
    ///
    /// # Errors
    ///
    /// [`SessionError::Store`] — DF-index I/O failed while resolving the
    /// per-level candidate sets. The `simFlag` stays set (retrying the next
    /// action re-attempts the refresh).
    ///
    /// # Panics
    ///
    /// Never panics.
    pub fn choose_similarity(&mut self) -> Result<usize, SessionError> {
        let step_span = self.obs.span(names::SESSION_CHOOSE_SIMILARITY);
        self.sim_flag = true;
        // exact-mode background work is useless from here on
        self.cancel_pending();
        {
            let _cand_span = self.obs.span(names::CANDIDATES_SIMILAR);
            self.refresh_similar()?;
        }
        let candidates = self
            .sim_candidates
            .as_ref()
            .map_or(0, SimilarCandidates::distinct_candidates);
        let step_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, step_time);
        self.log.push(ActionRecord {
            kind: ActionKind::SimQuery,
            status: StepStatus::Similar,
            candidates,
            elapsed: step_time,
        });
        Ok(candidates)
    }

    /// `Modify` action: delete edge `eℓ` (any live edge the user picks,
    /// provided the query stays connected).
    pub fn delete_edge(&mut self, edge: EdgeLabelId) -> Result<ModifyOutcome, SessionError> {
        self.query.delete_edge(edge)?;
        let step_span = self.obs.span(names::SESSION_DELETE_EDGE);
        self.spigs.on_delete_edge(edge);
        let candidate_count = self.refresh_after_modify()?;
        self.after_canvas_change();
        let modify_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, modify_time);
        self.log.push(ActionRecord {
            kind: ActionKind::Delete { edges: vec![edge] },
            status: self.current_status(),
            candidates: candidate_count,
            elapsed: modify_time,
        });
        Ok(ModifyOutcome {
            edge,
            candidate_count,
            modify_time,
        })
    }

    /// `Modify` action, batched: delete several edges at once. The *final*
    /// query must stay connected and non-empty; intermediate states need
    /// not be (any superset of a connected edge set is connected, so the
    /// per-edge application below cannot transiently disconnect). The paper
    /// notes single-edge deletion "is trivial to extend to multiple edge
    /// deletions" — this is that extension.
    pub fn delete_edges(&mut self, edges: &[EdgeLabelId]) -> Result<ModifyOutcome, SessionError> {
        // validate on a trial canvas first so the session never half-applies
        let mut trial = self.query.clone();
        for &e in edges {
            trial.delete_edge(e)?;
        }
        let step_span = self.obs.span(names::SESSION_DELETE_EDGE);
        for &e in edges {
            // cannot fail: the same sequence was just validated on the trial
            // canvas, but thread the error rather than panicking
            self.query.delete_edge(e)?;
            self.spigs.on_delete_edge(e);
        }
        let candidate_count = self.refresh_after_modify()?;
        self.after_canvas_change();
        let modify_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, modify_time);
        self.log.push(ActionRecord {
            kind: ActionKind::Delete {
                edges: edges.to_vec(),
            },
            status: self.current_status(),
            candidates: candidate_count,
            elapsed: modify_time,
        });
        Ok(ModifyOutcome {
            edge: edges.last().copied().unwrap_or(0),
            candidate_count,
            modify_time,
        })
    }

    /// Relabel a canvas node (the paper's footnote 5: "node relabeling can
    /// be expressed as deletion of edge(s) followed by insertion of new
    /// edge(s) and node"). Incident edges are deleted, the node's label
    /// changed, and the edges re-drawn under fresh labels ℓ — each re-drawn
    /// edge gets a new SPIG, exactly as if the user had drawn it. Returns
    /// the new edge labels in re-insertion order.
    pub fn relabel_node(
        &mut self,
        node: VNodeId,
        new_label: Label,
    ) -> Result<Vec<EdgeLabelId>, SessionError> {
        let incident: Vec<(EdgeLabelId, VNodeId, VNodeId)> = self
            .query
            .live_edges()
            .into_iter()
            .filter(|&(_, u, v)| u == node || v == node)
            .collect();
        let step_span = self.obs.span(names::SESSION_RELABEL);
        for &(label, _, _) in &incident {
            self.query.delete_edge_unchecked(label)?;
            self.spigs.on_delete_edge(label);
        }
        self.query.set_node_label(node, new_label)?;
        let mut new_edges = Vec::with_capacity(incident.len());
        for &(_, u, v) in &incident {
            let l = self.query.add_edge(u, v)?;
            self.spigs.on_new_edge(
                &self.query,
                &self.system.indexes().a2f,
                &self.system.indexes().a2i,
            )?;
            new_edges.push(l);
        }
        let candidates = self.refresh_after_modify()?;
        self.after_canvas_change();
        let step_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, step_time);
        self.log.push(ActionRecord {
            kind: ActionKind::Relabel {
                node,
                new_edges: new_edges.clone(),
            },
            status: self.current_status(),
            candidates,
            elapsed: step_time,
        });
        Ok(new_edges)
    }

    fn refresh_after_modify(&mut self) -> Result<usize, SessionError> {
        if self.sim_flag {
            let _cand_span = self.obs.span(names::CANDIDATES_SIMILAR);
            self.refresh_similar()?;
            Ok(self
                .sim_candidates
                .as_ref()
                .map_or(0, SimilarCandidates::distinct_candidates))
        } else {
            let _cand_span = self.obs.span(names::CANDIDATES_EXACT);
            self.refresh_exact()?;
            Ok(self.rq.len())
        }
    }

    /// Apply the system's current deletion suggestion, if any.
    pub fn delete_suggested(&mut self) -> Result<Option<ModifyOutcome>, SessionError> {
        match self.suggest_deletion()? {
            Some(s) => Ok(Some(self.delete_edge(s.edge)?)),
            None => Ok(None),
        }
    }

    /// The system's deletion suggestion for the current query.
    pub fn suggest_deletion(&self) -> Result<Option<DeletionSuggestion>, SessionError> {
        let _span = self.obs.span(names::MODIFY_SUGGEST);
        Ok(suggest_deletion(
            &self.query,
            &self.spigs,
            self.system.indexes_ref(),
            self.system.db().len(),
            self.memo_opt(),
        )?)
    }

    /// `Run` action: produce final results (Algorithm 1 lines 16–23).
    ///
    /// In exact mode the pre-computed candidate set `R_q` is verified by
    /// VF2 (skipped entirely — "verification-free" — when the query
    /// fragment is itself an indexed fragment); when that yields nothing,
    /// the session falls back to similarity search (lines 19–21), so `Run`
    /// never returns an empty exact result without offering approximate
    /// matches. The reported [`RunOutcome::srt`] is the paper's system
    /// response time: the only work the user actually waits for.
    ///
    /// # Errors
    ///
    /// * [`SessionError::EmptyQuery`] — nothing was drawn yet;
    /// * [`SessionError::Store`] — DF-index I/O failed during the
    ///   similarity fallback.
    ///
    /// # Panics
    ///
    /// Never panics.
    ///
    /// # Observability
    ///
    /// Runs inside a `session.run` span with `verify.exact` and — on the
    /// similarity path — `candidates.similar` and `results.similar` child
    /// phases; the SRT feeds the `session.step_ns` histogram.
    pub fn run(&mut self) -> Result<RunOutcome, SessionError> {
        if self.query.is_empty() {
            return Err(SessionError::EmptyQuery);
        }
        let step_span = self.obs.span(names::SESSION_RUN);
        let t0 = Instant::now();
        let results = if !self.sim_flag {
            let verification_free = self
                .spigs
                .target_vertex(&self.query)
                .is_some_and(|v| v.fragment_list.is_indexed());
            // The think-time batch, if any, is joined and merged (usually
            // already complete); otherwise the candidates are scheduled now.
            let batch = self.pending.take();
            let exact = exact_verification_on(
                self.query.graph(),
                &self.rq,
                self.system.db(),
                verification_free,
                &self.obs,
                batch,
                Fanout::of(&self.system),
                &mut self.verify_cost,
            );
            if exact.is_empty() {
                // Algorithm 1 lines 19–21: fall back to similarity search.
                {
                    let _cand_span = self.obs.span(names::CANDIDATES_SIMILAR);
                    self.refresh_similar()?;
                }
                QueryResults::Similar(self.generate_similar())
            } else {
                QueryResults::Exact(exact)
            }
        } else {
            if self.sim_candidates.is_none() {
                let _cand_span = self.obs.span(names::CANDIDATES_SIMILAR);
                self.refresh_similar()?;
            }
            QueryResults::Similar(self.generate_similar())
        };
        let srt = t0.elapsed();
        let step_time = step_span.finish();
        self.obs.observe_ns(names::SESSION_STEP_NS, step_time);
        self.log.push(ActionRecord {
            kind: ActionKind::Run,
            status: self.current_status(),
            candidates: results.len(),
            elapsed: srt,
        });
        Ok(RunOutcome { results, srt })
    }

    fn refresh_exact(&mut self) -> Result<(), SessionError> {
        self.check_index_epoch();
        let rq = match self.spigs.target_vertex(&self.query) {
            Some(v) => exact_sub_candidate_set(
                v,
                self.system.indexes_ref(),
                self.system.db().len(),
                self.memo_opt(),
            )?,
            None => Arc::new(IdSet::new()),
        };
        self.rq = rq;
        self.rq_empty = self.rq.is_empty();
        Ok(())
    }

    fn refresh_similar(&mut self) -> Result<(), SessionError> {
        self.check_index_epoch();
        self.sim_candidates = Some(similar_sub_candidates(
            self.query.size(),
            self.sigma,
            &self.spigs,
            self.system.indexes_ref(),
            self.system.db().len(),
            self.memo_opt(),
        )?);
        Ok(())
    }

    fn generate_similar(&mut self) -> SimilarResults {
        let _span = self.obs.span(names::RESULTS_SIMILAR);
        let q_size = self.query.size();
        let lowest = q_size.saturating_sub(self.sigma).max(1);
        // Rebuild the verifier (distinct fragments + their MatchOrders)
        // only when the canvas or σ changed since the last run; repeated
        // runs of an unmodified query reuse it as-is.
        let reusable = self
            .sim_verifier
            .take()
            .filter(|c| c.generation == self.generation && c.sigma == self.sigma);
        let cached = self.sim_verifier.insert(reusable.unwrap_or_else(|| {
            let mut verifier = SimVerifier::from_spigs(&self.query, &self.spigs, lowest, q_size);
            verifier.set_obs(self.obs.clone());
            CachedVerifier {
                generation: self.generation,
                sigma: self.sigma,
                verifier,
            }
        }));
        let empty = SimilarCandidates::default();
        let candidates = self.sim_candidates.as_ref().unwrap_or(&empty);
        let verify_cost = &mut self.verify_cost;
        let (db, fan) = (self.system.db(), Fanout::of(&self.system));
        similar_results_gen_with(q_size, candidates, |ids, level| {
            cached.verifier.verify_on(ids, level, db, fan, verify_cost)
        })
    }

    /// The query canvas.
    pub fn query(&self) -> &VisualQuery {
        &self.query
    }

    /// The SPIG set.
    pub fn spigs(&self) -> &SpigSet {
        &self.spigs
    }

    /// Whether the session switched to similarity mode.
    pub fn is_similarity(&self) -> bool {
        self.sim_flag
    }

    /// Current exact candidate set `R_q` (meaningful in exact mode),
    /// materialized as a sorted id list.
    pub fn exact_candidates(&self) -> Vec<GraphId> {
        self.rq.to_vec()
    }

    /// `R_q` in its native compressed representation (shared, not copied).
    pub fn exact_candidate_set(&self) -> &IdSet {
        &self.rq
    }

    /// Current similarity candidates, if computed.
    pub fn similarity_candidates(&self) -> Option<&SimilarCandidates> {
        self.sim_candidates.as_ref()
    }

    /// The session's action trace (the paper's Figure 3 table).
    pub fn log(&self) -> &SessionLog {
        &self.log
    }
}

impl Drop for Session<'_> {
    /// Abandoning a session cancels its in-flight background batch so
    /// pool workers stop promptly; the pool itself drains and joins
    /// cleanly regardless (see `prague_par::Pool`).
    fn drop(&mut self) {
        self.cancel_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PragueSystem, SystemParams};
    use prague_graph::{Graph, GraphDb};

    fn chain(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// C=0, S=1, O=2: C-S-C frequent; C-S-O rare; S-S absent.
    fn system() -> PragueSystem {
        let mut db = GraphDb::new();
        for _ in 0..6 {
            db.push(chain(&[0, 1, 0]));
        }
        for _ in 0..4 {
            db.push(chain(&[0, 0, 0, 0]));
        }
        db.push(chain(&[0, 1, 2]));
        PragueSystem::build(
            db,
            SystemParams {
                alpha: 0.3,
                beta: 2,
                max_fragment_edges: 5,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn statuses_track_fragment_nature() {
        let s = system();
        let mut session = s.session(1);
        let c1 = session.add_node(Label(0));
        let sx = session.add_node(Label(1));
        let c2 = session.add_node(Label(0));
        let step = session.add_edge(c1, sx).unwrap();
        assert_eq!(step.status, StepStatus::Frequent);
        let step = session.add_edge(sx, c2).unwrap();
        assert_eq!(step.status, StepStatus::Frequent);
        assert_eq!(step.candidate_count, 6);
    }

    #[test]
    fn dead_edge_triggers_similar_and_suggestion() {
        let s = system();
        let mut session = s.session(1);
        let c1 = session.add_node(Label(0));
        let s1 = session.add_node(Label(1));
        let c2 = session.add_node(Label(0));
        let s2 = session.add_node(Label(1));
        session.add_edge(c1, s1).unwrap();
        session.add_edge(s1, c2).unwrap();
        let step = session.add_edge(s1, s2).unwrap(); // S-S: absent
        assert_eq!(step.status, StepStatus::Similar);
        assert_eq!(step.candidate_count, 0);
        let sug = step.suggestion.expect("suggestion offered");
        assert_eq!(sug.edge, 3);
        assert_eq!(sug.candidates.len(), 6);
    }

    #[test]
    fn run_is_repeatable_and_logged() {
        let s = system();
        let mut session = s.session(1);
        let c1 = session.add_node(Label(0));
        let sx = session.add_node(Label(1));
        session.add_edge(c1, sx).unwrap();
        let a = session.run().unwrap();
        let b = session.run().unwrap();
        assert_eq!(a.results.len(), b.results.len());
        // log: 1 New + 2 Runs
        assert_eq!(session.log().len(), 3);
        assert!(session.log().fits_latency(Duration::from_secs(2)));
        let table = session.log().render();
        assert!(table.contains("draw e1"));
        assert!(table.contains("RUN"));
    }

    #[test]
    fn choose_similarity_then_more_edges() {
        let s = system();
        let mut session = s.session(2);
        let c1 = session.add_node(Label(0));
        let sx = session.add_node(Label(1));
        let c2 = session.add_node(Label(0));
        session.add_edge(c1, sx).unwrap();
        let n = session.choose_similarity().unwrap();
        assert!(n > 0);
        assert!(session.is_similarity());
        // further edges refresh similarity candidates (Alg 1 line 15)
        let step = session.add_edge(sx, c2).unwrap();
        assert_eq!(step.status, StepStatus::Similar);
        assert!(session.similarity_candidates().is_some());
    }

    #[test]
    fn named_nodes_resolve_via_label_table() {
        let mut db = GraphDb::new();
        db.push(chain(&[0, 1]));
        db.push(chain(&[0, 1]));
        let labels = prague_graph::LabelTable::from_names(["C", "S"]);
        let s = PragueSystem::build_with_labels(
            db,
            labels,
            SystemParams {
                alpha: 0.5,
                beta: 2,
                max_fragment_edges: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut session = s.session(1);
        assert!(session.add_named_node("C").is_some());
        assert!(session.add_named_node("Xx").is_none());
    }

    #[test]
    fn add_edge_errors_do_not_corrupt_state() {
        let s = system();
        let mut session = s.session(1);
        let c1 = session.add_node(Label(0));
        let sx = session.add_node(Label(1));
        session.add_edge(c1, sx).unwrap();
        // duplicate edge rejected, session unchanged
        assert!(session.add_edge(sx, c1).is_err());
        assert_eq!(session.query().size(), 1);
        assert_eq!(session.log().len(), 1);
        assert!(session.run().is_ok());
    }
}
