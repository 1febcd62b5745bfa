//! Query-modification tests (Algorithm 6): deletion suggestions, SPIG-set
//! maintenance under deletion, and equivalence with from-scratch
//! formulation of the modified query.

#[path = "common/mod.rs"]
mod common;

use common::{oracle_containment, replay};
use prague::{PragueSystem, QueryResults, SystemParams};
use prague_datagen::{
    derive_containment_query, derive_similarity_query, DeriveConfig, MoleculeConfig, QueryKind,
    QuerySpec,
};

fn build_system() -> PragueSystem {
    let ds = prague_datagen::molecules_generate(&MoleculeConfig {
        graphs: 200,
        mean_nodes: 12.0,
        ..Default::default()
    });
    PragueSystem::build_with_labels(
        ds.db,
        ds.labels,
        SystemParams {
            alpha: 0.15,
            beta: 3,
            max_fragment_edges: 7,
            ..Default::default()
        },
    )
    .expect("system builds")
}

/// Formulate `spec` fresh and return its exact candidates after completion.
fn fresh_candidates(system: &PragueSystem, spec: &QuerySpec) -> Vec<u32> {
    let mut s = system.session(2);
    replay(&mut s, spec);
    s.exact_candidates().to_vec()
}

#[test]
fn suggestion_restores_nonempty_candidates() {
    let system = build_system();
    let spec = derive_similarity_query(
        system.db(),
        &[],
        &DeriveConfig {
            size: 5,
            kind: QueryKind::WorstCase,
            seed: 5,
        },
        "M",
    )
    .expect("derivable");
    let mut session = system.session(2);
    let steps = replay(&mut session, &spec);
    assert_eq!(session.exact_candidates().len(), 0);
    // the last step added the absent-pair edge; the suggestion must exist
    // and deleting it must restore candidates (the prefix has support >= 1)
    let last = steps.last().unwrap();
    let suggestion = last
        .suggestion
        .clone()
        .or_else(|| session.suggest_deletion().unwrap())
        .expect("a deletable edge exists");
    assert!(
        !suggestion.candidates.is_empty(),
        "suggested deletion should restore candidates"
    );
    let outcome = session.delete_edge(suggestion.edge).expect("deletable");
    assert_eq!(outcome.candidate_count, suggestion.candidates.len());
    assert!(!session.exact_candidates().is_empty());
}

#[test]
fn suggestion_maximizes_candidates() {
    let system = build_system();
    let spec = derive_similarity_query(
        system.db(),
        &[],
        &DeriveConfig {
            size: 6,
            kind: QueryKind::WorstCase,
            seed: 31,
        },
        "M",
    )
    .expect("derivable");
    let mut session = system.session(2);
    replay(&mut session, &spec);
    let options = prague::deletion_options(
        session.query(),
        session.spigs(),
        system.indexes_ref(),
        system.db().len(),
    )
    .unwrap();
    if options.is_empty() {
        return;
    }
    let best = options.iter().map(|&(_, c)| c).max().unwrap();
    let suggestion = session.suggest_deletion().unwrap().expect("options exist");
    assert_eq!(suggestion.candidates.len(), best);
}

#[test]
fn deletion_equals_fresh_formulation() {
    // After deleting an edge, candidates and final results must equal a
    // from-scratch session over the modified query.
    let system = build_system();
    for seed in [11u64, 13, 19] {
        let Some(spec) = derive_containment_query(system.db(), 5, seed, "D") else {
            continue;
        };
        let mut session = system.session(2);
        replay(&mut session, &spec);
        // delete the first deletable edge
        let Some(&label) = session
            .query()
            .live_labels()
            .iter()
            .find(|&&l| session.query().edge_is_deletable(l))
        else {
            continue;
        };
        // build the equivalent spec without that edge
        let deleted_idx = (label - 1) as usize; // labels are 1-based in add order
        let mut reduced = spec.clone();
        reduced.edges.remove(deleted_idx);
        // re-order so every prefix is connected
        let order = valid_order(&reduced);
        let reduced_ordered = QuerySpec {
            edges: order.iter().map(|&i| reduced.edges[i]).collect(),
            ..reduced.clone()
        };
        if !reduced_ordered.validate() {
            continue;
        }

        session.delete_edge(label).expect("deletable");
        let after: Vec<u32> = session.exact_candidates().to_vec();
        let fresh = fresh_candidates(&system, &reduced_ordered);
        assert_eq!(
            after, fresh,
            "seed {seed}: candidates diverge after deletion"
        );

        // final results agree with brute force
        let outcome = session.run().unwrap();
        if let QueryResults::Exact(ids) = outcome.results {
            assert_eq!(
                ids,
                oracle_containment(session.query().graph(), system.db())
            );
        }
    }
}

/// Any connected-prefix order of the spec's edges.
#[allow(clippy::needless_range_loop)]
fn valid_order(spec: &QuerySpec) -> Vec<usize> {
    let n = spec.edges.len();
    let mut order = Vec::new();
    let mut used = vec![false; n];
    let mut wired = std::collections::HashSet::new();
    while order.len() < n {
        let mut advanced = false;
        for i in 0..n {
            if used[i] {
                continue;
            }
            let (u, v) = spec.edges[i];
            if order.is_empty() || wired.contains(&u) || wired.contains(&v) {
                used[i] = true;
                wired.insert(u);
                wired.insert(v);
                order.push(i);
                advanced = true;
            }
        }
        if !advanced {
            break; // disconnected remainder; caller validates
        }
    }
    order
}

#[test]
fn deletions_preserve_candidate_completeness() {
    let system = build_system();
    let spec = derive_containment_query(system.db(), 6, 3, "D").expect("derivable");
    let mut session = system.session(2);
    replay(&mut session, &spec);
    // delete two deletable edges
    for _ in 0..2 {
        let candidates: Vec<u32> = session
            .query()
            .live_labels()
            .into_iter()
            .filter(|&l| session.query().edge_is_deletable(l))
            .collect();
        if let Some(&l) = candidates.first() {
            session.delete_edge(l).unwrap();
        }
    }
    // state remains consistent: candidates superset of truth
    let truth = oracle_containment(session.query().graph(), system.db());
    for id in &truth {
        assert!(session.exact_candidates().contains(id));
    }
    let outcome = session.run().unwrap();
    if let QueryResults::Exact(ids) = outcome.results {
        assert_eq!(ids, truth);
    }
}

#[test]
fn modification_in_similarity_mode() {
    let system = build_system();
    let spec = derive_similarity_query(
        system.db(),
        &[],
        &DeriveConfig {
            size: 5,
            kind: QueryKind::WorstCase,
            seed: 41,
        },
        "M",
    )
    .expect("derivable");
    let mut session = system.session(2);
    replay(&mut session, &spec);
    session.choose_similarity().unwrap();
    // delete any deletable edge; the similarity candidates must refresh
    let Some(&label) = session
        .query()
        .live_labels()
        .iter()
        .find(|&&l| session.query().edge_is_deletable(l))
    else {
        return;
    };
    session.delete_edge(label).unwrap();
    assert!(session.similarity_candidates().is_some());
    // run still works and matches the oracle size
    let outcome = session.run().unwrap();
    if let QueryResults::Similar(results) = outcome.results {
        let want = common::oracle_similarity(session.query().graph(), system.db(), 2);
        assert_eq!(results.matches.len(), want.len());
    }
}

#[test]
fn undeletable_edges_rejected_cleanly() {
    let system = build_system();
    let mut session = system.session(2);
    let a = session.add_node(prague_graph::Label(0));
    let b = session.add_node(prague_graph::Label(0));
    session.add_edge(a, b).unwrap();
    // single edge is not deletable
    assert!(session.delete_edge(1).is_err());
    // session still consistent
    assert_eq!(session.query().size(), 1);
    assert!(session.run().is_ok());
}

#[test]
fn batched_deletion_equals_sequential() {
    let system = build_system();
    let spec = derive_containment_query(system.db(), 6, 29, "B").expect("derivable");
    // find two edges deletable together (validate on a canvas clone)
    let mut probe = system.session(2);
    replay(&mut probe, &spec);
    let labels = probe.query().live_labels();
    let mut pair = None;
    'outer: for i in 0..labels.len() {
        for j in 0..labels.len() {
            if i == j {
                continue;
            }
            let mut trial = probe.query().clone();
            if trial.delete_edge(labels[i]).is_ok() && trial.delete_edge(labels[j]).is_ok() {
                pair = Some((labels[i], labels[j]));
                break 'outer;
            }
        }
    }
    let Some((a, b)) = pair else { return };

    let mut batched = system.session(2);
    replay(&mut batched, &spec);
    let out = batched.delete_edges(&[a, b]).expect("validated pair");
    assert_eq!(out.edge, b);

    let mut sequential = system.session(2);
    replay(&mut sequential, &spec);
    sequential.delete_edge(a).unwrap();
    sequential.delete_edge(b).unwrap();

    assert_eq!(batched.exact_candidates(), sequential.exact_candidates());
    assert_eq!(
        batched.query().live_labels(),
        sequential.query().live_labels()
    );
}

#[test]
fn batched_deletion_invalid_leaves_session_untouched() {
    let system = build_system();
    let spec = derive_containment_query(system.db(), 4, 2, "B").expect("derivable");
    let mut session = system.session(2);
    replay(&mut session, &spec);
    let before = session.exact_candidates().to_vec();
    let labels = session.query().live_labels();
    // deleting everything must fail (empty query not allowed)
    assert!(session.delete_edges(&labels).is_err());
    assert_eq!(session.exact_candidates(), before);
    assert_eq!(session.query().size(), spec.size());
}

#[test]
fn relabel_node_equals_fresh_formulation() {
    let system = build_system();
    let spec = derive_containment_query(system.db(), 5, 37, "R").expect("derivable");
    let mut session = system.session(2);
    replay(&mut session, &spec);

    // relabel node 0 to a different atom
    let old_label = spec.node_labels[0];
    let new_label = prague_graph::Label(if old_label.0 == 0 { 1 } else { 0 });
    let new_edges = session.relabel_node(0, new_label).expect("relabel");
    assert!(!new_edges.is_empty() || spec.edges.iter().all(|&(u, v)| u != 0 && v != 0));

    // fresh session over the relabeled query
    let mut relabeled = spec.clone();
    relabeled.node_labels[0] = new_label;
    let mut fresh = system.session(2);
    replay(&mut fresh, &relabeled);

    assert_eq!(session.exact_candidates(), fresh.exact_candidates());
    // and the final results agree with brute force on the relabeled graph
    let truth = oracle_containment(&relabeled.graph(), system.db());
    if let QueryResults::Exact(ids) = session.run().unwrap().results {
        assert_eq!(ids, truth);
    } else {
        assert!(truth.is_empty());
    }
}

#[test]
fn relabel_isolated_node_is_cheap() {
    let system = build_system();
    let mut session = system.session(2);
    let a = session.add_node(prague_graph::Label(0));
    let b = session.add_node(prague_graph::Label(0));
    let lonely = session.add_node(prague_graph::Label(2));
    session.add_edge(a, b).unwrap();
    let new_edges = session
        .relabel_node(lonely, prague_graph::Label(3))
        .unwrap();
    assert!(new_edges.is_empty());
    assert_eq!(session.query().size(), 1);
}
