//! Differential tests for the compressed candidate-set engine: the
//! `IdSet`/`CandMemo` pipeline must produce byte-identical candidate sets
//! to the original sorted-`Vec` algorithm at every step of randomized
//! interactive sessions — additions, deletions, and re-additions alike —
//! and the session memo must behave as pure cache replay across edits.

use prague::{CandMemo, PragueSystem, SimilarCandidates, SystemParams};
use prague_datagen::QuerySpec;
use prague_graph::{Graph, GraphDb, GraphId, Label, NodeId};
use prague_index::{A2fIndex, A2iIndex};
use prague_obs::{names, Obs};
use prague_spig::{SpigSet, SpigVertex};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Reference implementation: the pre-IdSet sorted-Vec algorithms, verbatim.
// ---------------------------------------------------------------------------

fn intersect_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn difference_sorted(a: &[GraphId], b: &[GraphId]) -> Vec<GraphId> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0usize;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// `ExactSubCandidates` exactly as shipped before the engine change,
/// including the eagerly materialized `(0..db_len)` fallback.
fn ref_exact(v: &SpigVertex, a2f: &A2fIndex, a2i: &A2iIndex, db_len: usize) -> Vec<GraphId> {
    let fl = &v.fragment_list;
    if fl.dead {
        return Vec::new();
    }
    if let Some(fid) = fl.freq_id {
        return a2f.fsg_ids(fid).expect("store readable").to_vec();
    }
    if let Some(did) = fl.dif_id {
        return a2i.fsg_ids(did).to_vec();
    }
    let mut lists: Vec<Vec<GraphId>> = Vec::new();
    for &fid in &fl.phi {
        lists.push(a2f.fsg_ids(fid).expect("store readable").to_vec());
    }
    for &did in &fl.upsilon {
        lists.push(a2i.fsg_ids(did).to_vec());
    }
    if lists.is_empty() {
        return (0..db_len as GraphId).collect();
    }
    lists.sort_by_key(Vec::len);
    let mut acc = lists[0].clone();
    for l in &lists[1..] {
        if acc.is_empty() {
            break;
        }
        acc = intersect_sorted(&acc, l);
    }
    acc
}

/// `SimilarSubCandidates` as shipped before the engine change: per-level
/// `(free, ver)` sorted id lists with `ver := ver \ free`.
fn ref_similar(
    q_size: usize,
    sigma: usize,
    set: &SpigSet,
    a2f: &A2fIndex,
    a2i: &A2iIndex,
    db_len: usize,
) -> BTreeMap<usize, (Vec<GraphId>, Vec<GraphId>)> {
    let mut out = BTreeMap::new();
    if q_size == 0 {
        return out;
    }
    let lowest = q_size.saturating_sub(sigma).max(1);
    for i in (lowest..=q_size).rev() {
        let mut free: Vec<GraphId> = Vec::new();
        let mut ver: Vec<GraphId> = Vec::new();
        for (v, _mask) in prague::candidates::distinct_level_fragments(set, i) {
            let cands = ref_exact(v, a2f, a2i, db_len);
            if v.fragment_list.is_indexed() {
                free = union_sorted(&free, &cands);
            } else {
                ver = union_sorted(&ver, &cands);
            }
        }
        ver = difference_sorted(&ver, &free);
        out.insert(i, (free, ver));
    }
    out
}

// ---------------------------------------------------------------------------
// Random-session scaffolding (same shape as integration_properties.rs).
// ---------------------------------------------------------------------------

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
    proptest::collection::vec(connected_graph(6, 3), 4..9).prop_map(GraphDb::from_graphs)
}

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
            name: "C".into(),
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

/// Compare the live engine against the reference at the session's current
/// canvas state: exact candidates (memo-on session state AND a memo-off
/// direct call AND a cross-step test memo) and per-level similarity sets,
/// ids in order.
fn check_state(
    session: &prague::session::Session<'_>,
    system: &PragueSystem,
    memo: &CandMemo,
    sigma: usize,
) -> Result<(), TestCaseError> {
    let a2f = &system.indexes().a2f;
    let a2i = &system.indexes().a2i;
    let db_len = system.db().len();

    // Exact: session state (computed through its own memo) vs reference.
    if let Some(v) = session.spigs().target_vertex(session.query()) {
        let want = ref_exact(v, a2f, a2i, db_len);
        prop_assert_eq!(
            session.exact_candidates(),
            want.clone(),
            "session R_q diverges from sorted-vec reference"
        );
        // Memo-off direct call and cross-step memoized call agree too.
        let ix = system.indexes_ref();
        let bare = prague::exact_sub_candidate_set(v, ix, db_len, None).unwrap();
        prop_assert_eq!(bare.to_vec(), want.clone());
        let memod = prague::exact_sub_candidate_set(v, ix, db_len, Some(memo)).unwrap();
        prop_assert_eq!(memod.to_vec(), want);
    }

    // Similarity: every level, free and ver, ids in order.
    let q_size = session.query().size();
    let want = ref_similar(q_size, sigma, session.spigs(), a2f, a2i, db_len);
    for with_memo in [None, Some(memo)] {
        let got: SimilarCandidates = prague::similar_sub_candidates(
            q_size,
            sigma,
            session.spigs(),
            system.indexes_ref(),
            db_len,
            with_memo,
        )
        .unwrap();
        prop_assert_eq!(got.levels.len(), want.len(), "level sets differ");
        for (level, (free, ver)) in &want {
            let lc = &got.levels[level];
            prop_assert_eq!(lc.free.to_vec(), free.clone(), "free @ level {}", level);
            prop_assert_eq!(lc.ver.to_vec(), ver.clone(), "ver @ level {}", level);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The acceptance-gate differential: random db, random query, grown
    /// edge-at-a-time, then edges deleted and re-added — the engine must
    /// match the sorted-vec reference byte-for-byte after every action.
    #[test]
    fn engine_matches_sorted_vec_reference(
        db in small_db(),
        spec in query_spec(),
        alpha in 0.25f64..0.55,
        sigma in 1usize..3,
    ) {
        let system = build(db, alpha);
        let test_memo = CandMemo::new(Obs::disabled());
        let mut session = system.session(sigma);
        let nodes: Vec<_> = spec.node_labels.iter().map(|&l| session.add_node(l)).collect();
        for &(u, v) in &spec.edges {
            session.add_edge(nodes[u as usize], nodes[v as usize]).unwrap();
            check_state(&session, &system, &test_memo, sigma)?;
        }
        // Delete up to two deletable edges, checking after each; re-add the
        // last deleted edge and check the memo-replayed state too.
        let mut readd: Option<(u32, u32)> = None;
        for _ in 0..2 {
            let edges = session.query().live_edges();
            let Some(&(label, u, v)) = edges
                .iter()
                .find(|&&(l, _, _)| session.query().edge_is_deletable(l))
            else {
                break;
            };
            session.delete_edge(label).unwrap();
            check_state(&session, &system, &test_memo, sigma)?;
            readd = Some((u, v));
        }
        if let Some((u, v)) = readd {
            session.add_edge(u, v).unwrap();
            check_state(&session, &system, &test_memo, sigma)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Memo-invalidation / replay regression tests (deterministic).
// ---------------------------------------------------------------------------

fn molecule_system() -> PragueSystem {
    let ds = prague_datagen::molecules_generate(&prague_datagen::MoleculeConfig {
        graphs: 150,
        mean_nodes: 10.0,
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

/// `delete_edge` then `add_edge` of the same edge must land the session in
/// exactly the state a fresh session reaches over the same final query —
/// and the re-add must be served from the memo (hits observed, no growth).
#[test]
fn delete_then_readd_is_pure_cache_replay() {
    let mut system = molecule_system();
    system.set_obs(Obs::enabled());
    let Some(spec) = prague_datagen::derive_containment_query(system.db(), 5, 17, "D") else {
        panic!("derivable query expected from generated molecules");
    };
    let mut session = system.session(2);
    let nodes: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| session.add_node(l))
        .collect();
    for &(u, v) in &spec.edges {
        session
            .add_edge(nodes[u as usize], nodes[v as usize])
            .unwrap();
    }
    let formulated = session.exact_candidates();

    // Find a deletable edge, delete it, then re-draw it.
    let edges = session.query().live_edges();
    let Some(&(label, u, v)) = edges
        .iter()
        .find(|&&(l, _, _)| session.query().edge_is_deletable(l))
    else {
        panic!("query of size 5 has a deletable edge");
    };
    let entries_before = session.memo().len();
    let hits_before = system
        .obs()
        .snapshot()
        .and_then(|s| s.counter(names::CAND_MEMO_HITS))
        .unwrap_or(0);
    session.delete_edge(label).unwrap();
    session.add_edge(u, v).unwrap();

    // Byte-identical to both the pre-edit state and a fresh formulation.
    assert_eq!(session.exact_candidates(), formulated);
    let mut fresh = system.session(2);
    let nodes: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| fresh.add_node(l))
        .collect();
    for &(u, v) in &spec.edges {
        fresh
            .add_edge(nodes[u as usize], nodes[v as usize])
            .unwrap();
    }
    assert_eq!(session.exact_candidates(), fresh.exact_candidates());

    // Replay, not recomputation: every fragment CAM the edit touched was
    // already cached, so the memo gained nothing and served hits.
    assert_eq!(
        session.memo().len(),
        entries_before,
        "edit of a previously-formulated fragment must not grow the memo"
    );
    let hits_after = system
        .obs()
        .snapshot()
        .and_then(|s| s.counter(names::CAND_MEMO_HITS))
        .unwrap_or(0);
    assert!(
        hits_after > hits_before,
        "re-added fragment must be served from the memo (hits {hits_before} -> {hits_after})"
    );
}

/// Disabling the memo changes nothing about the answers.
#[test]
fn memo_disabled_sessions_agree() {
    let system = molecule_system();
    let Some(spec) = prague_datagen::derive_containment_query(system.db(), 6, 23, "M") else {
        panic!("derivable query expected from generated molecules");
    };
    let mut on = system.session(2);
    let mut off = system.session(2);
    off.set_memo_enabled(false);
    let nodes_on: Vec<_> = spec.node_labels.iter().map(|&l| on.add_node(l)).collect();
    let nodes_off: Vec<_> = spec.node_labels.iter().map(|&l| off.add_node(l)).collect();
    for &(u, v) in &spec.edges {
        on.add_edge(nodes_on[u as usize], nodes_on[v as usize])
            .unwrap();
        off.add_edge(nodes_off[u as usize], nodes_off[v as usize])
            .unwrap();
        assert_eq!(on.exact_candidates(), off.exact_candidates());
    }
    assert!(
        off.memo().is_empty(),
        "disabled memo must not admit entries"
    );
    assert!(
        !on.memo().is_empty(),
        "enabled memo must have admitted entries"
    );
}

/// Inserting a graph bumps the system's index epoch; a session created
/// before the insert would hold stale cached sets, so the epoch guard must
/// clear its memo before serving anything.
#[test]
fn index_epoch_bumps_on_insert() {
    let mut system = molecule_system();
    assert_eq!(system.index_epoch(), 0);
    let g = system.db().graph(0).clone();
    system.insert_graph(g).unwrap();
    assert_eq!(system.index_epoch(), 1);
}
