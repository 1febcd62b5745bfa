//! Differential suite for the parallel cancellable verification engine:
//! everything observable from a session — per-step candidate sets, run
//! results after every step, modification behavior, similarity rankings,
//! and the obs counters — must be byte-identical at every thread count,
//! with the sequential `--threads 1` path as the reference. Similarity
//! output is additionally checked against the brute-force mccs oracle.

#[path = "common/mod.rs"]
mod common;

use common::oracle_similarity;
use prague::{
    exact_verification_obs, exact_verification_par, PragueSystem, QueryResults, SimVerifier,
    SystemParams, VerifyCost,
};
use prague_datagen::{MoleculeConfig, QuerySpec};
use prague_graph::{Graph, GraphDb, GraphId, Label, NodeId};
use prague_idset::IdSet;
use prague_obs::{names, Obs};
use prague_par::{tuning, Pool};
use proptest::prelude::*;
use std::time::Duration;

fn connected_graph(max_n: usize, label_count: u16) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..label_count, n);
        let parents = proptest::collection::vec(proptest::num::u32::ANY, n - 1);
        let extras = proptest::collection::vec((0..n, 0..n), 0..=2);
        (labels, parents, extras).prop_map(move |(labels, parents, extras)| {
            let mut g = Graph::new();
            for &l in &labels {
                g.add_node(Label(l));
            }
            for (i, &p) in parents.iter().enumerate() {
                g.add_edge((i + 1) as NodeId, (p as usize % (i + 1)) as NodeId)
                    .unwrap();
            }
            for &(a, b) in &extras {
                if a != b {
                    let _ = g.add_edge(a as NodeId, b as NodeId);
                }
            }
            g
        })
    })
}

fn small_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec(connected_graph(6, 3), 4..10).prop_map(GraphDb::from_graphs)
}

/// A query spec from a random connected graph, edges in connected growth
/// order (same shape as `integration_properties.rs`).
fn query_spec() -> impl Strategy<Value = QuerySpec> {
    connected_graph(5, 3).prop_map(|g| {
        let mut order: Vec<u32> = Vec::new();
        let mut wired = std::collections::HashSet::new();
        while order.len() < g.edge_count() {
            for e in 0..g.edge_count() as u32 {
                if order.contains(&e) {
                    continue;
                }
                let edge = g.edge(e);
                if order.is_empty() || wired.contains(&edge.u) || wired.contains(&edge.v) {
                    order.push(e);
                    wired.insert(edge.u);
                    wired.insert(edge.v);
                }
            }
        }
        let mut node_map = vec![u32::MAX; g.node_count()];
        let mut node_labels = Vec::new();
        let mut edges = Vec::new();
        for &e in &order {
            let edge = g.edge(e);
            for &n in &[edge.u, edge.v] {
                if node_map[n as usize] == u32::MAX {
                    node_map[n as usize] = node_labels.len() as u32;
                    node_labels.push(g.label(n));
                }
            }
            edges.push((node_map[edge.u as usize], node_map[edge.v as usize]));
        }
        QuerySpec {
            name: "P".into(),
            node_labels,
            edges,
            similar_at: None,
        }
    })
}

fn build(db: GraphDb, alpha: f64) -> PragueSystem {
    PragueSystem::build(
        db,
        SystemParams {
            alpha,
            beta: 2,
            max_fragment_edges: 6,
            ..Default::default()
        },
    )
    .expect("builds")
}

fn result_ids(r: &QueryResults) -> Vec<GraphId> {
    match r {
        QueryResults::Exact(ids) => ids.clone(),
        QueryResults::Similar(s) => s.ids(),
    }
}

/// Everything a full edit script makes observable, for cross-thread-count
/// comparison. `Run` is clicked after every step, so each step's pending
/// background batch is either joined (matching generation) or superseded
/// by the next edit — both paths must reproduce the sequential answer.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    step_candidates: Vec<(usize, Vec<GraphId>)>,
    step_results: Vec<Vec<GraphId>>,
    after_delete: Option<(Vec<GraphId>, Vec<GraphId>)>,
    similar: Vec<(GraphId, usize)>,
}

/// Replay `spec` as an edit script: add each edge (Run after every add),
/// delete the last removable edge and Run, then switch to similarity and
/// Run once more.
fn run_script(system: &PragueSystem, spec: &QuerySpec, sigma: usize) -> Trace {
    let mut trace = Trace::default();
    let mut session = system.session(sigma);
    let nodes: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| session.add_node(l))
        .collect();
    let mut edge_ids = Vec::new();
    for &(u, v) in &spec.edges {
        let step = session
            .add_edge(nodes[u as usize], nodes[v as usize])
            .expect("spec edges are valid");
        edge_ids.push(step.edge);
        trace
            .step_candidates
            .push((step.candidate_count, session.exact_candidates().to_vec()));
        let outcome = session.run().expect("runnable mid-formulation");
        trace.step_results.push(result_ids(&outcome.results));
    }
    // Modify: delete the most recent deletable edge, if any
    if let Some(&edge) = edge_ids
        .iter()
        .rev()
        .filter(|_| spec.edges.len() >= 2)
        .find(|&&e| session.query().edge_is_deletable(e))
    {
        session.delete_edge(edge).expect("checked deletable");
        let candidates = session.exact_candidates().to_vec();
        let outcome = session.run().expect("runnable after delete");
        trace.after_delete = Some((candidates, result_ids(&outcome.results)));
        // restore so the similarity phase sees the full query
        let idx = edge_ids.iter().position(|&e| e == edge).unwrap();
        let (u, v) = spec.edges[idx];
        session
            .add_edge(nodes[u as usize], nodes[v as usize])
            .expect("re-adding a deleted edge");
        session.run().expect("runnable after re-add");
    }
    session.choose_similarity().expect("similarity switch");
    let outcome = session.run().expect("runnable in similarity");
    if let QueryResults::Similar(results) = outcome.results {
        trace.similar = results
            .matches
            .iter()
            .map(|m| (m.graph_id, m.distance))
            .collect();
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole differential property: a full edit script traced at
    /// 1, 2 and 4 threads produces identical candidate sets, identical
    /// Run results at every step, and identical similarity rankings —
    /// and the similarity ranking agrees with the brute-force
    /// `|mccs| ≥ i` oracle.
    #[test]
    fn parallel_session_is_byte_identical_to_sequential(
        db in small_db(),
        spec in query_spec(),
        sigma in 1usize..3,
    ) {
        let mut system = build(db, 0.35);
        let mut reference: Option<Trace> = None;
        let mut query_graph: Option<Graph> = None;
        for threads in [1usize, 2, 4] {
            system.set_threads(threads);
            let trace = run_script(&system, &spec, sigma);
            match &reference {
                None => {
                    // capture the final query for the oracle check
                    let mut session = system.session(sigma);
                    let nodes: Vec<_> = spec
                        .node_labels
                        .iter()
                        .map(|&l| session.add_node(l))
                        .collect();
                    for &(u, v) in &spec.edges {
                        session.add_edge(nodes[u as usize], nodes[v as usize]).unwrap();
                    }
                    query_graph = Some(session.query().graph().clone());
                    reference = Some(trace);
                }
                Some(base) => prop_assert_eq!(
                    base, &trace,
                    "trace diverged at {} threads", threads
                ),
            }
        }
        // SimVerify output vs the mccs oracle on the sequential reference
        let q = query_graph.expect("captured");
        let mut got = reference.expect("captured").similar;
        got.sort_unstable();
        let mut want = oracle_similarity(&q, system.db(), sigma);
        want.sort_unstable();
        prop_assert_eq!(got, want, "similarity output disagrees with the mccs oracle");
    }

    /// Exact verification is `SimVerify` at level `|q|`: over the whole
    /// database, `exact_verification` and a `SimVerifier` built from the
    /// same session keep the same ids and expand the same VF2 states.
    #[test]
    fn exact_verification_is_simverify_at_level_q(db in small_db(), spec in query_spec()) {
        let system = build(db, 0.35);
        let mut session = system.session(1);
        let nodes: Vec<_> = spec.node_labels.iter().map(|&l| session.add_node(l)).collect();
        for &(u, v) in &spec.edges {
            session.add_edge(nodes[u as usize], nodes[v as usize]).unwrap();
        }
        let size = session.query().size();
        let all: Vec<GraphId> = (0..system.db().len() as GraphId).collect();
        let all = IdSet::from_sorted_slice(&all);
        let (exact_obs, sim_obs) = (Obs::enabled(), Obs::enabled());
        let mut verifier = SimVerifier::from_spigs(session.query(), session.spigs(), size, size);
        verifier.set_obs(sim_obs.clone());
        prop_assert_eq!(verifier.fragment_count(size), 1);
        prop_assert_eq!(
            exact_verification_obs(session.query().graph(), &all, system.db(), false, &exact_obs),
            verifier.verify(&all, size, system.db())
        );
        let states = |obs: &Obs| obs.snapshot().expect("obs enabled").counter(names::VERIFY_VF2_STATES);
        prop_assert_eq!(states(&exact_obs), states(&sim_obs));
    }
}

/// Molecule fixture mined shallow (≤ 3-edge fragments) so a 4-edge query
/// is never indexed: its candidates always need verification, forcing
/// real pool work.
fn shallow_molecule_system() -> PragueSystem {
    let ds = prague_datagen::molecules_generate(&MoleculeConfig {
        graphs: 150,
        seed: 0x0B51,
        ..Default::default()
    });
    PragueSystem::build_with_labels(
        ds.db,
        ds.labels,
        SystemParams {
            alpha: 0.1,
            beta: 2,
            max_fragment_edges: 3,
            ..Default::default()
        },
    )
    .expect("system builds")
}

/// One C-C-C-S-C chain session with Run at the end; returns the results
/// and the obs counters of interest.
fn chain_run(system: &PragueSystem) -> (Vec<GraphId>, u64, u64) {
    let c = system.labels().get("C").expect("carbon label");
    let s = system.labels().get("S").expect("sulfur label");
    let mut session = system.session(2);
    let labels = [c, c, c, s, c];
    let nodes: Vec<_> = labels.iter().map(|&l| session.add_node(l)).collect();
    for w in nodes.windows(2) {
        session.add_edge(w[0], w[1]).expect("connected step");
    }
    let outcome = session.run().expect("runnable");
    let ids = result_ids(&outcome.results);
    let snap = system.obs().snapshot().expect("obs enabled");
    (
        ids,
        snap.counter(names::VERIFY_VF2_STATES).unwrap_or(0),
        snap.counter(names::PAR_JOBS).unwrap_or(0),
    )
}

/// Background verification work that was cancelled mid-flight must leave
/// no trace in the verification counters: `verify.vf2_states` is identical
/// at every thread count, even though the pool demonstrably ran jobs.
#[test]
fn cancelled_and_parallel_work_never_pollutes_counters() {
    let mut system = shallow_molecule_system();
    let mut reference: Option<(Vec<GraphId>, u64)> = None;
    for threads in [1usize, 4, 4] {
        system.set_threads(threads);
        system.set_obs(Obs::enabled()); // fresh handle per round
        let (ids, states, jobs) = chain_run(&system);
        assert!(states > 0, "a 4-edge unindexed query must verify");
        if threads > 1 {
            assert!(jobs > 0, "pool saw no jobs despite threads = {threads}");
        }
        match &reference {
            None => reference = Some((ids, states)),
            Some((ref_ids, ref_states)) => {
                assert_eq!(ref_ids, &ids, "results differ at {threads} threads");
                assert_eq!(
                    *ref_states, states,
                    "vf2 state accounting differs at {threads} threads"
                );
            }
        }
    }
}

/// Rapid edit/cancel churn at 1, 2 and 8 threads, including dropping a
/// session with verification still in flight: no deadlock, no lost
/// results, the pool drains, and every thread count agrees on the final
/// answer.
#[test]
fn session_stress_rapid_edits_and_mid_flight_drop() {
    let mut system = shallow_molecule_system();
    let c = system.labels().get("C").expect("carbon label");
    let s = system.labels().get("S").expect("sulfur label");
    let mut reference: Option<Vec<GraphId>> = None;
    for threads in [1usize, 2, 8] {
        system.set_threads(threads);
        for round in 0..3 {
            let mut session = system.session(2);
            let labels = [c, c, c, s, c];
            let nodes: Vec<_> = labels.iter().map(|&l| session.add_node(l)).collect();
            // rapid-fire edits with no Run in between: every add supersedes
            // the previous speculative batch
            let mut last_edge = None;
            for w in nodes.windows(2) {
                last_edge = Some(session.add_edge(w[0], w[1]).expect("connected step").edge);
            }
            let e = last_edge.expect("edges added");
            session.delete_edge(e).expect("leaf edge removable");
            session
                .add_edge(nodes[3], nodes[4])
                .expect("re-adding the leaf edge");
            if round == 1 {
                // abandon with work pending: Drop must cancel, the pool
                // must drain, and the next round must be unaffected
                drop(session);
                if let Some(pool) = system.pool() {
                    assert!(
                        pool.wait_idle(Duration::from_secs(10)),
                        "pool stuck after mid-flight session drop"
                    );
                }
                continue;
            }
            let outcome = session.run().expect("runnable");
            let ids = result_ids(&outcome.results);
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(r, &ids, "results differ at {threads} threads"),
            }
        }
        if let Some(pool) = system.pool() {
            assert!(
                pool.wait_idle(Duration::from_secs(10)),
                "pool did not drain at {threads} threads"
            );
        }
    }
}

/// The sequential-fallback boundary is cost-driven: with the model seeded
/// so the estimated batch cost sits just below the payoff threshold
/// (`fallback.overhead_mult` × the measured per-job overhead), the batch
/// must run inline — `par.seq_fallbacks` fires and the only pool jobs are
/// the calibration no-ops. Seeded just above, the batch must fan out —
/// `par.jobs` grows past the calibration batch and no fallback fires.
/// Either way the verified ids and `verify.vf2_states` are identical to
/// the plain sequential path — for exact verification and for `SimVerify`
/// alike, since both are the one engine.
#[test]
fn sequential_fallback_boundary_is_cost_driven() {
    // 12 three-node paths; the even ones contain the C-S query edge.
    let mut db = GraphDb::new();
    let mut ids: Vec<GraphId> = Vec::new();
    for i in 0..12u16 {
        let mut g = Graph::new();
        let a = g.add_node(Label(0));
        let b = g.add_node(Label(if i % 2 == 0 { 1 } else { 0 }));
        let c = g.add_node(Label(0));
        g.add_edge(a, b).expect("fresh edge");
        g.add_edge(b, c).expect("fresh edge");
        ids.push(db.push(g));
    }
    let system = build(db, 0.3);
    let db = system.db_arc();
    let mut session = system.session(1);
    let (qa, qb) = (session.add_node(Label(0)), session.add_node(Label(1)));
    session.add_edge(qa, qb).expect("fresh edge");
    let q = session.query().graph();
    let cands = IdSet::from_sorted_slice(&ids);
    let sim = |obs: &Obs| {
        let mut verifier = SimVerifier::from_spigs(session.query(), session.spigs(), 1, 1);
        verifier.set_obs(obs.clone());
        verifier
    };

    type Seq<'a> = Box<dyn Fn(&Obs) -> Vec<GraphId> + 'a>;
    type Par<'a> = Box<dyn Fn(&Obs, &Pool, &mut VerifyCost) -> Vec<GraphId> + 'a>;
    let inputs: [(&str, Seq, Par); 2] = [
        (
            "exact",
            Box::new(|obs| exact_verification_obs(q, &cands, db, false, obs)),
            Box::new(|obs, pool, cost| {
                exact_verification_par(q, &cands, db, false, obs, pool, cost, None)
            }),
        ),
        (
            "SimVerify",
            Box::new(|obs| sim(obs).verify(&cands, 1, db)),
            Box::new(|obs, pool, cost| sim(obs).verify_par(&cands, 1, db, pool, cost)),
        ),
    ];
    let calibration = tuning::CALIBRATION_JOBS as u64;
    for (name, seq, par) in &inputs {
        // Sequential reference: ids and vf2 state count.
        let ref_obs = Obs::enabled();
        let ref_ids = seq(&ref_obs);
        assert_eq!(ref_ids, [0, 2, 4, 6, 8, 10], "{name}");
        let ref_states = ref_obs
            .snapshot()
            .expect("obs enabled")
            .counter(names::VERIFY_VF2_STATES)
            .unwrap_or(0);
        assert!(
            ref_states > 0,
            "{name}: reference run must expand VF2 states"
        );

        for expect_pool in [false, true] {
            let obs = Obs::enabled();
            let pool = Pool::new(2, obs.clone());
            let overhead = pool.job_overhead_ns();
            let threshold = tuning::FALLBACK_OVERHEAD_MULT.saturating_mul(overhead);
            // Seed states-per-candidate at 1 and pick ns-per-state so the
            // estimate lands at 0.9× (below) or 1.1× (above) the threshold.
            let factor = if expect_pool { 1.1 } else { 0.9 };
            let nps = factor * threshold as f64 / cands.len() as f64;
            let mut cost = VerifyCost::seeded(1.0, nps);
            assert_eq!(cost.should_parallelize(cands.len(), overhead), expect_pool);

            let verified = par(&obs, &pool, &mut cost);
            assert_eq!(verified, ref_ids, "{name}: expect_pool={expect_pool}");

            let snap = obs.snapshot().expect("obs enabled");
            assert_eq!(
                snap.counter(names::VERIFY_VF2_STATES).unwrap_or(0),
                ref_states,
                "{name}: vf2 accounting drifted (expect_pool={expect_pool})"
            );
            let jobs = snap.counter(names::PAR_JOBS).unwrap_or(0);
            let fallbacks = snap.counter(names::PAR_SEQ_FALLBACKS).unwrap_or(0);
            if expect_pool {
                assert_eq!(
                    fallbacks, 0,
                    "{name}: cheap-batch fallback fired above threshold"
                );
                assert!(
                    jobs > calibration,
                    "{name}: batch above threshold never reached the pool (jobs = {jobs})"
                );
            } else {
                assert_eq!(
                    fallbacks, 1,
                    "{name}: batch below threshold was not run inline"
                );
                assert_eq!(
                    jobs, calibration,
                    "{name}: batch below threshold still sent jobs to the pool"
                );
            }
        }
    }
}
