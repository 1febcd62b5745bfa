//! Cross-crate property tests on small random databases: exact answers,
//! similarity answers, and formulation-sequence invariance (the paper's
//! Lemma 2 consequence).

#[path = "common/mod.rs"]
mod common;

use common::{oracle_containment, oracle_similarity, replay_sequence};
use prague::{PragueSystem, QueryResults, SystemParams};
use prague_datagen::QuerySpec;
use prague_graph::{Graph, GraphDb, Label, NodeId};
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

/// A query spec built from a random connected graph: edges in a connected
/// growth order.
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

/// The shard counts the oracle properties run at: the one-shard bypass and
/// a merged multi-shard facade.
fn shard_count() -> impl Strategy<Value = usize> {
    proptest::bool::ANY.prop_map(|merged| if merged { 3 } else { 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exact_results_match_oracle(
        db in small_db(),
        spec in query_spec(),
        alpha in 0.2f64..0.6,
        shards in shard_count(),
    ) {
        let system = build(db, alpha, shards);
        let mut session = system.session(2);
        let order: Vec<usize> = (0..spec.edges.len()).collect();
        replay_sequence(&mut session, &spec, &order);
        let truth = oracle_containment(session.query().graph(), system.db());
        // completeness at candidate level
        for id in &truth {
            prop_assert!(session.exact_candidates().contains(id));
        }
        let outcome = session.run().unwrap();
        match outcome.results {
            QueryResults::Exact(ids) => prop_assert_eq!(ids, truth),
            QueryResults::Similar(_) => prop_assert!(truth.is_empty()),
        }
    }

    #[test]
    fn similarity_results_match_oracle(
        db in small_db(),
        spec in query_spec(),
        sigma in 1usize..3,
        shards in shard_count(),
    ) {
        let system = build(db, 0.4, shards);
        let mut session = system.session(sigma);
        let order: Vec<usize> = (0..spec.edges.len()).collect();
        replay_sequence(&mut session, &spec, &order);
        session.choose_similarity().unwrap();
        let outcome = session.run().unwrap();
        let QueryResults::Similar(results) = outcome.results else {
            return Err(TestCaseError::fail("expected similar results"));
        };
        let mut got: Vec<(u32, usize)> = results.matches.iter().map(|m| (m.graph_id, m.distance)).collect();
        got.sort_unstable();
        let mut want = oracle_similarity(session.query().graph(), system.db(), sigma);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sequence_invariance_of_candidates(db in small_db(), spec in query_spec()) {
        // Lemma 2 consequence: different formulation sequences yield the
        // same final candidate sets and the same run results.
        if spec.edges.len() < 2 { return Ok(()); }
        let system = build(db, 0.35, 1);
        let sequences = {
            let mut v = vec![(0..spec.edges.len()).collect::<Vec<_>>()];
            v.extend(spec.alternative_sequences(2, 77));
            v
        };
        let mut exact_sets: Vec<Vec<u32>> = Vec::new();
        let mut sim_counts: Vec<usize> = Vec::new();
        for seq in &sequences {
            let mut session = system.session(2);
            replay_sequence(&mut session, &spec, seq);
            exact_sets.push(session.exact_candidates().to_vec());
            let n = session.choose_similarity().unwrap();
            sim_counts.push(n);
        }
        for w in exact_sets.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "exact candidates differ by sequence");
        }
        for w in sim_counts.windows(2) {
            prop_assert_eq!(w[0], w[1], "similarity candidate counts differ by sequence");
        }
    }
}
