//! Million-graph sharded-scale profile: GraphGen-style synthetic database
//! at `PRAGUE_SHARD_SCALE` graphs (headline: 1 000 000), offline-built at
//! 1, 2 and 4 shards, with the query side replayed per round and
//! identity-checked. Writes `BENCH_shard.json`.
//!
//! ## What the speedup column means
//!
//! The sharded build's win is *parallel mining*: each shard mines (and
//! indexes) only its members, so on a machine with ≥ N cores the offline
//! build's wall time is the slowest shard plus the serial cross-shard
//! assembly — `ShardBuildStats::critical_path_ms`. This host is a
//! single-core box, so the profile reports the measured per-shard walls
//! and gates on the *critical path* (each shard's wall is really
//! measured; only the "they run at once" part is modeled). At 1 shard
//! the lone shard mines the whole database and the critical path is
//! simply its measured mine+index wall. `speedup` is
//! `critical_path(1 shard) / critical_path(N shards)` — near-linear
//! scaling is the headline claim (pigeonhole keeps wave 1 complete, so
//! shards never re-mine the whole database).
//!
//! ## The formulation-latency gate
//!
//! Sharding must not cost the GUI anything: per-edge-step latency (SPIG
//! maintenance + merged cross-shard candidate generation) has to stay
//! inside the think-time budget — the 2 s GUI latency cap that sizes the
//! think pause in `exp_par_scaling` (`GUI_LATENCY`). Steps are timed at
//! `threads = 1` so the measurement is the pure session-thread cost, and
//! the p99 over every edge step of every derived query is gated per
//! round. Results and `verify.vf2_states` must be byte-identical across
//! shard counts — the differential suite's property, re-checked here at
//! scale.
//!
//! Output: `BENCH_shard.json` (override via `PRAGUE_SHARD_OUT`). Scale
//! via `PRAGUE_SHARD_SCALE` (graphs; default 20 000 — CI-sized). If
//! `PRAGUE_SHARD_GATE` is set (e.g. `1.6`), the profile asserts the
//! 2-shard build speedup reaches it *and* every round's step p99 is
//! inside the think budget — the CI gate in `docs/benchmarks.md`.

use prague::{QueryResults, SystemParams};
use prague_bench::GUI_LATENCY;
use prague_datagen::{
    derive_containment_query, graphgen_generate_streaming, GraphGenConfig, QuerySpec,
};
use prague_graph::{GraphDb, GraphId};
use prague_obs::{names, Obs};
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Shallow mining cap (3-edge fragments): the 6–8-edge derived queries
/// always verify, and mining cost dominates the offline build — the
/// regime sharding exists for.
const SHALLOW_MINING_EDGES: usize = 3;
const ALPHA: f64 = 0.1;
/// Small alphabet (the paper's synthetic family uses sparse labels):
/// keeps fragments genuinely frequent at every scale.
const LABEL_COUNT: u16 = 8;
/// Streaming-generation batch: peak generator memory is one batch, not
/// the whole database.
const STREAM_BATCH: usize = 50_000;
/// Derived containment query sizes (edges).
const QUERY_SIZES: [usize; 3] = [6, 7, 8];

struct Round {
    shards: usize,
    build_wall: Duration,
    critical_path_ms: u64,
    shard_ms: Vec<u64>,
    merge_ms: u64,
    imbalance_x1000: u64,
    step_p50_ms: f64,
    step_p99_ms: f64,
    step_max_ms: f64,
    run_ms: f64,
    vf2_states: u64,
}

fn result_ids(r: &QueryResults) -> Vec<GraphId> {
    match r {
        QueryResults::Exact(ids) => ids.clone(),
        QueryResults::Similar(s) => s.ids(),
    }
}

/// `q`-quantile of an ascending slice (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64) * q).round() as usize],
    }
}

/// Replay every derived query, timing each `add_edge` (the per-step GUI
/// cost: SPIG maintenance + merged candidate generation) and each Run.
/// Returns (sorted step latencies ms, total run ms, per-query ids).
fn replay_timed(
    system: &prague::PragueSystem,
    specs: &[QuerySpec],
) -> (Vec<f64>, f64, Vec<Vec<GraphId>>) {
    let mut steps = Vec::new();
    let mut run_ms = 0.0;
    let mut ids = Vec::new();
    for spec in specs {
        let mut session = system.session(2);
        let nodes: Vec<_> = spec
            .node_labels
            .iter()
            .map(|&l| session.add_node(l))
            .collect();
        for &(u, v) in &spec.edges {
            let t0 = Instant::now();
            session
                .add_edge(nodes[u as usize], nodes[v as usize])
                .expect("derived query edges are valid");
            steps.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let t0 = Instant::now();
        let outcome = session.run().expect("runnable");
        run_ms += t0.elapsed().as_secs_f64() * 1e3;
        ids.push(result_ids(&outcome.results));
    }
    steps.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    (steps, run_ms, ids)
}

fn main() {
    let scale: usize = std::env::var("PRAGUE_SHARD_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let config = GraphGenConfig {
        graphs: scale,
        seed: 0x51AB5,
        avg_edges: 30.0,
        density: 0.1,
        label_count: LABEL_COUNT,
    };

    let t0 = Instant::now();
    let mut db = GraphDb::new();
    let labels = graphgen_generate_streaming(&config, STREAM_BATCH, |batch| {
        for (_, g) in batch.iter() {
            db.push(g.clone());
        }
    });
    eprintln!(
        "[shard-scale] generated {scale} graphs in {:.2}s (streaming, batch {STREAM_BATCH})",
        t0.elapsed().as_secs_f64()
    );

    let specs: Vec<QuerySpec> = QUERY_SIZES
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            (0..20u64)
                .find_map(|attempt| {
                    derive_containment_query(
                        &db,
                        size,
                        0x51AB5 + i as u64 * 7919 + attempt * 104_729,
                        &format!("S{}", i + 1),
                    )
                })
                .expect("containment query derivable")
        })
        .collect();

    let budget = GUI_LATENCY;
    let mut rounds: Vec<Round> = Vec::new();
    let mut baseline: Option<(Vec<Vec<GraphId>>, u64)> = None;

    for &shards in &SHARD_COUNTS {
        let t0 = Instant::now();
        let mut system = prague::PragueSystem::build_with_labels(
            db.clone(),
            labels.clone(),
            SystemParams {
                alpha: ALPHA,
                beta: 2,
                max_fragment_edges: SHALLOW_MINING_EDGES,
                shards,
                ..Default::default()
            },
        )
        .expect("index build");
        let build_wall = t0.elapsed();
        system.warm().expect("fresh store warms");
        system.set_threads(1); // pure session-thread step cost
        system.set_obs(Obs::enabled());

        let stats = system.shard_stats();

        let (steps, run_ms, ids) = replay_timed(&system, &specs);
        let states = system
            .obs()
            .snapshot()
            .expect("obs enabled")
            .counter(names::VERIFY_VF2_STATES)
            .unwrap_or(0);
        match &baseline {
            None => baseline = Some((ids, states)),
            Some((base_ids, base_states)) => {
                assert_eq!(base_ids, &ids, "results diverged at {shards} shards");
                assert_eq!(
                    *base_states, states,
                    "vf2 state accounting drifted at {shards} shards"
                );
            }
        }
        rounds.push(Round {
            shards,
            build_wall,
            critical_path_ms: stats.critical_path_ms(),
            shard_ms: stats.shard_ms.clone(),
            merge_ms: stats.merge_ms,
            imbalance_x1000: stats.imbalance_x1000,
            step_p50_ms: quantile(&steps, 0.50),
            step_p99_ms: quantile(&steps, 0.99),
            step_max_ms: quantile(&steps, 1.0),
            run_ms,
            vf2_states: states,
        });
    }

    let base_cp = rounds[0].critical_path_ms.max(1) as f64;
    let mut entries = Vec::new();
    let mut speedup_at_2 = 0.0f64;
    let mut worst_p99 = 0.0f64;
    for r in &rounds {
        let speedup = base_cp / r.critical_path_ms.max(1) as f64;
        if r.shards == 2 {
            speedup_at_2 = speedup;
        }
        worst_p99 = worst_p99.max(r.step_p99_ms);
        eprintln!(
            "[shard-scale] shards {}: build wall {:.2}s critical path {:.2}s \
             (speedup {:.2}x) merge {}ms imbalance {} | step p50 {:.2}ms \
             p99 {:.2}ms max {:.2}ms run {:.2}ms vf2 states {}",
            r.shards,
            r.build_wall.as_secs_f64(),
            r.critical_path_ms as f64 / 1e3,
            speedup,
            r.merge_ms,
            r.imbalance_x1000,
            r.step_p50_ms,
            r.step_p99_ms,
            r.step_max_ms,
            r.run_ms,
            r.vf2_states
        );
        entries.push(format!(
            concat!(
                "{{\"shards\":{},\"build_ms\":{:.3},\"critical_path_ms\":{},",
                "\"speedup\":{:.3},\"shard_ms\":{:?},\"merge_ms\":{},",
                "\"imbalance_x1000\":{},\"step_p50_ms\":{:.3},",
                "\"step_p99_ms\":{:.3},\"step_max_ms\":{:.3},\"run_ms\":{:.3},",
                "\"vf2_states\":{}}}"
            ),
            r.shards,
            r.build_wall.as_secs_f64() * 1e3,
            r.critical_path_ms,
            base_cp / r.critical_path_ms.max(1) as f64,
            r.shard_ms,
            r.merge_ms,
            r.imbalance_x1000,
            r.step_p50_ms,
            r.step_p99_ms,
            r.step_max_ms,
            r.run_ms,
            r.vf2_states
        ));
    }

    let json = format!(
        concat!(
            "{{\"experiment\":\"fig10m_scale\",\"graphs\":{},\"label_count\":{},",
            "\"alpha\":{},\"max_fragment_edges\":{},\"stream_batch\":{},",
            "\"queries\":{},\"budget_ms\":{:.3},\"rounds\":[{}]}}"
        ),
        scale,
        LABEL_COUNT,
        ALPHA,
        SHALLOW_MINING_EDGES,
        STREAM_BATCH,
        specs.len(),
        budget.as_secs_f64() * 1e3,
        entries.join(",")
    );
    let out = std::env::var("PRAGUE_SHARD_OUT").unwrap_or_else(|_| "BENCH_shard.json".into());
    std::fs::write(&out, &json).expect("write BENCH_shard.json");
    eprintln!("[shard-scale] wrote {out} ({} bytes)", json.len());

    if let Ok(gate) = std::env::var("PRAGUE_SHARD_GATE") {
        let gate: f64 = gate.parse().expect("PRAGUE_SHARD_GATE is a float");
        assert!(
            speedup_at_2 >= gate,
            "build speedup gate failed: {speedup_at_2:.2}x < {gate:.2}x at 2 shards \
             (see BENCH_shard.json)"
        );
        let budget_ms = budget.as_secs_f64() * 1e3;
        assert!(
            worst_p99 <= budget_ms,
            "step-latency gate failed: p99 {worst_p99:.2}ms > think budget {budget_ms:.0}ms"
        );
        eprintln!(
            "[shard-scale] gate passed: {speedup_at_2:.2}x >= {gate:.2}x, \
             step p99 {worst_p99:.2}ms <= {budget_ms:.0}ms"
        );
    }
}
