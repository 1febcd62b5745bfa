//! Differential suite for the index facade: N shards ≡ 1 shard. A system
//! built with `shards > 1` must be observably *byte-identical* to the
//! one-shard system — per-step candidate sets, Run results after every
//! step, deletion and relabel behavior, similarity rankings, and the
//! `verify.vf2_states` accounting — across full edit scripts, at every
//! shard count, sequentially and on a verification pool.

#[path = "common/mod.rs"]
mod common;

use prague::{PragueSystem, QueryResults, SystemParams};
use prague_datagen::{MoleculeConfig, QuerySpec};
use prague_graph::{Graph, GraphDb, GraphId, Label, NodeId};
use prague_obs::{names, Obs};
use proptest::prelude::*;

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
/// order (same shape as `integration_par.rs`).
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
            name: "S".into(),
            node_labels,
            edges,
            similar_at: None,
        }
    })
}

fn build(db: GraphDb, alpha: f64, shards: usize) -> PragueSystem {
    PragueSystem::build(
        db,
        SystemParams {
            alpha,
            beta: 2,
            max_fragment_edges: 6,
            shards,
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

/// Everything a full edit script makes observable, for cross-shard-count
/// comparison — including the VF2 state accounting, which must not drift
/// however candidates are bucketed across shards.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    step_candidates: Vec<(usize, Vec<GraphId>)>,
    step_results: Vec<Vec<GraphId>>,
    after_delete: Option<(Vec<GraphId>, Vec<GraphId>)>,
    after_relabel: Option<(Vec<GraphId>, Vec<GraphId>)>,
    similar: Vec<(GraphId, usize)>,
    vf2_states: u64,
}

/// Replay `spec` as an edit script: add each edge (Run after every add),
/// delete the last removable edge and Run, relabel node 0 and Run, then
/// switch to similarity and Run once more.
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
            .push((step.candidate_count, session.exact_candidates()));
        let outcome = session.run().expect("runnable mid-formulation");
        trace.step_results.push(result_ids(&outcome.results));
    }
    // Modify: delete the most recent deletable edge, then restore it.
    if let Some(&edge) = edge_ids
        .iter()
        .rev()
        .filter(|_| spec.edges.len() >= 2)
        .find(|&&e| session.query().edge_is_deletable(e))
    {
        session.delete_edge(edge).expect("checked deletable");
        let candidates = session.exact_candidates();
        let outcome = session.run().expect("runnable after delete");
        trace.after_delete = Some((candidates, result_ids(&outcome.results)));
        let idx = edge_ids.iter().position(|&e| e == edge).unwrap();
        let (u, v) = spec.edges[idx];
        session
            .add_edge(nodes[u as usize], nodes[v as usize])
            .expect("re-adding a deleted edge");
        session.run().expect("runnable after re-add");
    }
    // Relabel node 0 to the next label in the tiny alphabet and Run.
    if spec.edges.len() >= 2 {
        let new_label = Label((spec.node_labels[0].0 + 1) % 3);
        session
            .relabel_node(nodes[0], new_label)
            .expect("relabel is always expressible");
        let candidates = session.exact_candidates();
        let outcome = session.run().expect("runnable after relabel");
        trace.after_relabel = Some((candidates, result_ids(&outcome.results)));
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
    drop(session);
    trace.vf2_states = system
        .obs()
        .snapshot()
        .expect("obs enabled")
        .counter(names::VERIFY_VF2_STATES)
        .unwrap_or(0);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The differential property: systems built over the same database
    /// at 1, 2 and 8 shards — the 1-shard build reading its lone shard's
    /// lists directly, the others through the union cache — trace full
    /// edit scripts identically, both sequentially and on a 2-worker
    /// pool, down to the `verify.vf2_states` counter.
    #[test]
    fn n_shards_are_byte_identical_to_one_shard(
        db in small_db(),
        spec in query_spec(),
        sigma in 1usize..3,
    ) {
        let mut reference: Option<Trace> = None;
        for shards in [1usize, 2, 8] {
            let mut system = build(db.clone(), 0.35, shards);
            prop_assert_eq!(system.shard_count(), shards);
            for threads in [1usize, 2] {
                system.set_threads(threads);
                system.set_obs(Obs::enabled()); // fresh counters per script
                let trace = run_script(&system, &spec, sigma);
                match &reference {
                    None => reference = Some(trace),
                    Some(base) => prop_assert_eq!(
                        base, &trace,
                        "trace diverged at {} shards / {} threads", shards, threads
                    ),
                }
            }
        }
    }
}

/// Molecule fixture mined shallow (≤ 3-edge fragments) so a 4-edge query
/// always needs verification — real VF2 work routed through the
/// shard-bucketed chunking.
fn molecule_system(shards: usize) -> PragueSystem {
    let ds = prague_datagen::molecules_generate(&MoleculeConfig {
        graphs: 120,
        seed: 0x5AAD,
        ..Default::default()
    });
    PragueSystem::build_with_labels(
        ds.db,
        ds.labels,
        SystemParams {
            alpha: 0.1,
            beta: 2,
            max_fragment_edges: 3,
            shards,
            ..Default::default()
        },
    )
    .expect("system builds")
}

fn chain_results(system: &PragueSystem) -> (Vec<GraphId>, Vec<GraphId>) {
    let c = system.labels().get("C").expect("carbon label");
    let s = system.labels().get("S").expect("sulfur label");
    let mut session = system.session(2);
    let labels = [c, c, c, s, c];
    let nodes: Vec<_> = labels.iter().map(|&l| session.add_node(l)).collect();
    for w in nodes.windows(2) {
        session.add_edge(w[0], w[1]).expect("connected step");
    }
    let candidates = session.exact_candidates();
    let outcome = session.run().expect("runnable");
    (candidates, result_ids(&outcome.results))
}

/// Live insertion keeps every shard count in lockstep: after
/// `insert_graph` the index epoch bumps, the merged FSG view includes the
/// new graph on its owning shard only, and query answers stay identical.
#[test]
fn insertion_keeps_sharded_answers_identical() {
    let extra = {
        // A C-C-C-S-C chain: guaranteed to match the probe query.
        let ds = prague_datagen::molecules_generate(&MoleculeConfig {
            graphs: 1,
            seed: 0xADD,
            ..Default::default()
        });
        let mut g = Graph::new();
        let c = ds.labels.get("C").expect("carbon label");
        let s = ds.labels.get("S").expect("sulfur label");
        let n: Vec<_> = [c, c, c, s, c].iter().map(|&l| g.add_node(l)).collect();
        for w in n.windows(2) {
            g.add_edge(w[0], w[1]).expect("fresh edge");
        }
        g
    };
    let mut reference: Option<(Vec<GraphId>, Vec<GraphId>)> = None;
    for shards in [1usize, 2, 8] {
        let mut system = molecule_system(shards);
        let epoch = system.index_epoch();
        let gid = system.insert_graph(extra.clone()).expect("insert");
        assert_eq!(gid as usize, system.db().len() - 1);
        assert!(system.index_epoch() > epoch, "epoch must bump on insert");
        let (candidates, results) = chain_results(&system);
        assert!(
            results.contains(&gid),
            "inserted chain must match at {shards} shards"
        );
        match &reference {
            None => reference = Some((candidates, results)),
            Some(base) => assert_eq!(
                base,
                &(candidates, results),
                "insertion answers diverged at {shards} shards"
            ),
        }
    }
}

/// Every build reports its accounting: per-shard wall times, the serial
/// merge, and the imbalance ratio, surfaced both through `shard_stats()`
/// and as `shard.*` counters on the obs handle.
#[test]
fn build_reports_stats_and_counters() {
    for shards in [1usize, 4] {
        let mut system = molecule_system(shards);
        assert_eq!(system.shard_count(), shards);
        assert_eq!(system.shard_plan().is_some(), shards > 1);
        let stats = system.shard_stats().clone();
        assert_eq!(stats.shard_ms.len(), shards);
        assert!(stats.imbalance_x1000 >= 1000, "max shard >= even split");
        let obs = Obs::enabled();
        system.set_obs(obs.clone());
        let snap = obs.snapshot().expect("enabled");
        assert_eq!(
            snap.counter(names::SHARD_IMBALANCE_X1000),
            Some(stats.imbalance_x1000)
        );
        assert!(snap.counter(names::SHARD_MERGE_MS).is_some());
    }
    // A lone shard holds everything and waits on no merge.
    let single = molecule_system(1);
    assert_eq!(single.shard_stats().imbalance_x1000, 1000);
    assert_eq!(single.shard_stats().merge_ms, 0);
}
