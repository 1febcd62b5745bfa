//! Canonical metric names — the single in-code source of truth for the
//! "performance model" table in `ARCHITECTURE.md`.
//!
//! Every span, counter, and histogram emitted by the instrumented crates
//! uses a constant from this module. The integration test
//! `tests/integration_obs.rs` (registered under `prague-core`) parses the
//! ARCHITECTURE.md table and asserts it equals [`ALL`], so renaming a
//! metric without updating the docs fails CI — and vice versa.

use crate::MetricKind;

// ---- spans -----------------------------------------------------------

/// One interactive `add edge` step end-to-end (SPIG maintenance plus
/// candidate refresh).
pub const SESSION_ADD_EDGE: &str = "session.add_edge";
/// One interactive `delete edge` step (single- and multi-edge deletes).
pub const SESSION_DELETE_EDGE: &str = "session.delete_edge";
/// One node relabel step.
pub const SESSION_RELABEL: &str = "session.relabel";
/// Switching the session into similarity mode.
pub const SESSION_CHOOSE_SIMILARITY: &str = "session.choose_similarity";
/// Final `run`: exact verification, with similarity fallback when empty.
pub const SESSION_RUN: &str = "session.run";
/// SPIG set maintenance for one new edge (covers all affected SPIGs).
pub const SPIG_CONSTRUCT: &str = "spig.construct";
/// CAM canonical-code computation inside SPIG construction.
pub const SPIG_CAM: &str = "spig.cam";
/// SPIG set maintenance after an edge deletion.
pub const SPIG_DELETE: &str = "spig.delete";
/// Exact candidate refresh from the SPIG frontier.
pub const CANDIDATES_EXACT: &str = "candidates.exact";
/// Similarity candidate refresh (subgraph-similarity mode).
pub const CANDIDATES_SIMILAR: &str = "candidates.similar";
/// Deletion-suggestion probe after an empty exact step.
pub const MODIFY_SUGGEST: &str = "modify.suggest";
/// VF2 verification of exact candidates at `run` time.
pub const VERIFY_EXACT: &str = "verify.exact";
/// Similarity result generation at `run` time (fragment verification).
pub const RESULTS_SIMILAR: &str = "results.similar";
/// Joining/merging a parallel verification batch at `run` time (the wait
/// for worker results; near zero when background verification already
/// finished during think time).
pub const PAR_VERIFY: &str = "par.verify";

// ---- counters --------------------------------------------------------

/// Canvas rollbacks (after a failed formulation step) that themselves
/// failed, leaving the canvas out of sync with the SPIG set. Expected to
/// stay at zero; any increment is a bug signal, never silent.
pub const SESSION_ROLLBACK_FAILED: &str = "session.rollback_failed";
/// SPIG vertices materialized during construction.
pub const SPIG_VERTICES: &str = "spig.vertices";
/// A²F index lookups that found an entry.
pub const A2F_HITS: &str = "index.a2f.hits";
/// A²F index lookups that missed.
pub const A2F_MISSES: &str = "index.a2f.misses";
/// A²I index lookups that found an entry.
pub const A2I_HITS: &str = "index.a2i.hits";
/// A²I index lookups that missed.
pub const A2I_MISSES: &str = "index.a2i.misses";
/// Blob-store reads served from the in-memory cache.
pub const STORE_CACHE_HITS: &str = "index.store.cache_hits";
/// Blob-store reads that had to touch the backing file.
pub const STORE_CACHE_MISSES: &str = "index.store.cache_misses";
/// Cache entries evicted to stay under the capacity budget.
pub const STORE_EVICTIONS: &str = "index.store.evictions";
/// Bytes read from the backing file (cache misses only).
pub const STORE_READ_BYTES: &str = "index.store.read_bytes";
/// Candidate graphs submitted to exact VF2 verification.
pub const VERIFY_EXACT_CANDIDATES: &str = "verify.exact.candidates";
/// Candidates confirmed as embeddings by exact verification.
pub const VERIFY_EXACT_EMBEDDINGS: &str = "verify.exact.embeddings";
/// Candidates accepted verification-free (size-equal CAM match).
pub const VERIFY_EXACT_FREE: &str = "verify.exact.free";
/// Candidate graphs submitted to similarity verification.
pub const VERIFY_SIM_CANDIDATES: &str = "verify.sim.candidates";
/// Candidates confirmed by similarity verification.
pub const VERIFY_SIM_EMBEDDINGS: &str = "verify.sim.embeddings";
/// VF2 search states expanded across all verifications.
pub const VERIFY_VF2_STATES: &str = "verify.vf2_states";
/// Jobs executed by the verification thread pool.
pub const PAR_JOBS: &str = "par.jobs";
/// Jobs a worker stole from a sibling's queue.
pub const PAR_STEALS: &str = "par.steals";
/// Jobs that finished under a cancelled token (superseded work that
/// stopped early).
pub const PAR_CANCELLATIONS: &str = "par.cancellations";
/// Nanoseconds workers spent executing jobs; divided by elapsed wall time
/// times thread count this is the pool's utilization.
pub const PAR_BUSY_NS: &str = "par.busy_ns";
/// Pool mutexes recovered from poisoning (a worker panicked while holding
/// a lock). Never silent: every recovery increments this counter.
pub const PAR_POISONED: &str = "par.poisoned";
/// Times a worker parked on the condvar after exhausting its spin budget.
/// Low parks with high jobs means spin-then-park absorbed the gaps
/// between think-time batches; parks ≈ jobs means the pool kept going
/// cold between submissions.
pub const PAR_PARKS: &str = "par.parks";
/// Estimated batch cost (ns, cumulative over submission decisions) from
/// the verify layer's EWMA cost model — the left-hand side of every
/// pool-vs-sequential decision.
pub const PAR_EST_COST_NS: &str = "par.est_cost_ns";
/// Measured per-job pool overhead (ns), calibrated once per pool from a
/// batch of no-op jobs — the right-hand side of the fallback decision.
pub const PAR_JOB_OVERHEAD_NS: &str = "par.job_overhead_ns";
/// Verification batches that skipped the pool because their estimated
/// cost was below the parallelism payoff threshold
/// (`fallback.overhead_mult` × `par.job_overhead_ns`).
pub const PAR_SEQ_FALLBACKS: &str = "par.seq_fallbacks";
/// Per-shard offline build time (mining waves plus that shard's index
/// build), milliseconds, one add per shard — the sum is total shard
/// work; divided by the shard count it is the mean per-shard build.
pub const SHARD_BUILD_MS: &str = "shard.build_ms";
/// Serial cross-shard assembly time (support-list translate + merge +
/// global classification), milliseconds.
pub const SHARD_MERGE_MS: &str = "shard.merge_ms";
/// Largest shard relative to the ideal even split, ×1000 (1000 =
/// perfectly balanced; 1500 = largest shard holds 1.5× the even share).
pub const SHARD_IMBALANCE_X1000: &str = "shard.imbalance_x1000";
/// Candidate-set memo lookups answered from the CAM-keyed cache.
pub const CAND_MEMO_HITS: &str = "cand.memo_hits";
/// Candidate-set memo lookups that had to compute the set.
pub const CAND_MEMO_MISSES: &str = "cand.memo_misses";
/// Approximate heap bytes admitted into the candidate-set memo
/// (compressed `IdSet` containers; shared sets counted once per entry).
pub const CAND_IDSET_BYTES: &str = "cand.idset_bytes";

// ---- service layer (prague-server) -----------------------------------
//
// The `srv.*` family is emitted by `prague-server`'s `SessionManager`
// and connection loop, not by `Session` itself, so it lives in its own
// [`SRV_ALL`] table — documented by the `srv-names` marker table of
// ARCHITECTURE.md § "Service layer" and pinned by
// `tests/integration_service.rs`.

/// Sessions opened (`open` frames accepted by the manager).
pub const SRV_SESSIONS_OPENED: &str = "srv.sessions_opened";
/// Sessions closed explicitly (`close` frames, including connection
/// teardown closing the sessions the connection had opened).
pub const SRV_SESSIONS_CLOSED: &str = "srv.sessions_closed";
/// Sessions expired by the idle sweep (no frame within the idle timeout).
pub const SRV_SESSIONS_EXPIRED: &str = "srv.sessions_expired";
/// Sessions evicted for exceeding their per-session memory budget
/// (measured in candidate-memo heap bytes, the `cand.idset_bytes` pool).
pub const SRV_SESSIONS_EVICTED: &str = "srv.sessions_evicted";
/// Protocol frames processed (every well-formed request, ok or error).
pub const SRV_FRAMES: &str = "srv.frames";
/// Frames answered with a typed error (malformed JSON, unknown session,
/// oversized line, rejected action — never a panic).
pub const SRV_FRAME_ERRORS: &str = "srv.frame_errors";
/// End-to-end latency of each processed frame (latency buckets) — the
/// service-level per-edge-step SRT of `BENCH_service.json`.
pub const SRV_FRAME_NS: &str = "srv.frame_ns";
/// Time a session's verify-carrying frame waited for its fair-scheduler
/// grant before touching the shared pool (latency buckets). Growth here
/// under load means sessions are queueing behind each other's
/// verification, not that verification itself got slower.
pub const SRV_QUEUE_WAIT_NS: &str = "srv.queue_wait_ns";
/// Bytes handed to the socket by each reply write (count buckets): the
/// replies, newlines included, to every complete line of one read.
pub const SRV_REPLY_BYTES: &str = "srv.reply_bytes";
/// Time inside each reply write (latency buckets). `srv.frame_ns` is
/// handling, this is transport: a slow frame with a fast write was slow
/// in the manager, and the reverse means the peer or the network.
pub const SRV_WRITE_NS: &str = "srv.write_ns";
/// Time a connection's replies were held back because it had run past
/// its burst allowance at the sustained frame rate (latency buckets; one
/// observation per held write, none when nothing was held). Neither
/// handling nor transport: a client that sends faster than the service
/// answers a connection.
pub const SRV_PACE_NS: &str = "srv.pace_ns";

/// Every documented service-layer metric with its kind, in table order.
/// The `srv-names` table of ARCHITECTURE.md must list exactly these.
pub const SRV_ALL: &[(&str, MetricKind)] = &[
    (SRV_SESSIONS_OPENED, MetricKind::Counter),
    (SRV_SESSIONS_CLOSED, MetricKind::Counter),
    (SRV_SESSIONS_EXPIRED, MetricKind::Counter),
    (SRV_SESSIONS_EVICTED, MetricKind::Counter),
    (SRV_FRAMES, MetricKind::Counter),
    (SRV_FRAME_ERRORS, MetricKind::Counter),
    (SRV_FRAME_NS, MetricKind::Histogram),
    (SRV_QUEUE_WAIT_NS, MetricKind::Histogram),
    (SRV_REPLY_BYTES, MetricKind::Histogram),
    (SRV_WRITE_NS, MetricKind::Histogram),
    (SRV_PACE_NS, MetricKind::Histogram),
];

// ---- histograms ------------------------------------------------------

/// Blob-store backing-file read latency (latency buckets).
pub const STORE_READ_NS: &str = "index.store.read_ns";
/// SPIG level width: vertices per level (count buckets).
pub const SPIG_LEVEL_WIDTH: &str = "spig.level_width";
/// End-to-end latency of each interactive action (latency buckets); this
/// is the per-step SRT from the paper's Section VIII.
pub const SESSION_STEP_NS: &str = "session.step_ns";

/// Every documented metric name with its kind, sorted by kind then name
/// order as they appear above. `ARCHITECTURE.md` must list exactly these.
pub const ALL: &[(&str, MetricKind)] = &[
    (SESSION_ADD_EDGE, MetricKind::Span),
    (SESSION_DELETE_EDGE, MetricKind::Span),
    (SESSION_RELABEL, MetricKind::Span),
    (SESSION_CHOOSE_SIMILARITY, MetricKind::Span),
    (SESSION_RUN, MetricKind::Span),
    (SPIG_CONSTRUCT, MetricKind::Span),
    (SPIG_CAM, MetricKind::Span),
    (SPIG_DELETE, MetricKind::Span),
    (CANDIDATES_EXACT, MetricKind::Span),
    (CANDIDATES_SIMILAR, MetricKind::Span),
    (MODIFY_SUGGEST, MetricKind::Span),
    (VERIFY_EXACT, MetricKind::Span),
    (RESULTS_SIMILAR, MetricKind::Span),
    (PAR_VERIFY, MetricKind::Span),
    (SESSION_ROLLBACK_FAILED, MetricKind::Counter),
    (SPIG_VERTICES, MetricKind::Counter),
    (A2F_HITS, MetricKind::Counter),
    (A2F_MISSES, MetricKind::Counter),
    (A2I_HITS, MetricKind::Counter),
    (A2I_MISSES, MetricKind::Counter),
    (STORE_CACHE_HITS, MetricKind::Counter),
    (STORE_CACHE_MISSES, MetricKind::Counter),
    (STORE_EVICTIONS, MetricKind::Counter),
    (STORE_READ_BYTES, MetricKind::Counter),
    (VERIFY_EXACT_CANDIDATES, MetricKind::Counter),
    (VERIFY_EXACT_EMBEDDINGS, MetricKind::Counter),
    (VERIFY_EXACT_FREE, MetricKind::Counter),
    (VERIFY_SIM_CANDIDATES, MetricKind::Counter),
    (VERIFY_SIM_EMBEDDINGS, MetricKind::Counter),
    (VERIFY_VF2_STATES, MetricKind::Counter),
    (PAR_JOBS, MetricKind::Counter),
    (PAR_STEALS, MetricKind::Counter),
    (PAR_CANCELLATIONS, MetricKind::Counter),
    (PAR_BUSY_NS, MetricKind::Counter),
    (PAR_POISONED, MetricKind::Counter),
    (PAR_PARKS, MetricKind::Counter),
    (PAR_EST_COST_NS, MetricKind::Counter),
    (PAR_JOB_OVERHEAD_NS, MetricKind::Counter),
    (PAR_SEQ_FALLBACKS, MetricKind::Counter),
    (SHARD_BUILD_MS, MetricKind::Counter),
    (SHARD_MERGE_MS, MetricKind::Counter),
    (SHARD_IMBALANCE_X1000, MetricKind::Counter),
    (CAND_MEMO_HITS, MetricKind::Counter),
    (CAND_MEMO_MISSES, MetricKind::Counter),
    (CAND_IDSET_BYTES, MetricKind::Counter),
    (STORE_READ_NS, MetricKind::Histogram),
    (SPIG_LEVEL_WIDTH, MetricKind::Histogram),
    (SESSION_STEP_NS, MetricKind::Histogram),
];

#[cfg(test)]
mod tests {
    use super::{ALL, SRV_ALL};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_dotted_lowercase() {
        let mut seen = BTreeSet::new();
        for (name, _) in ALL.iter().chain(SRV_ALL) {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "metric name {name} must be lowercase dotted"
            );
            assert!(name.contains('.'), "metric name {name} must be namespaced");
        }
    }
}
