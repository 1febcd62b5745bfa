//! Query modification support (Algorithm 6, Section VII).
//!
//! When the exact candidate set becomes empty, PRAGUE can *suggest* which
//! edge to delete so that the remaining query fragment has matches again:
//! for every deletable edge `e_i`, the fragment `q − e_i` is already a SPIG
//! vertex at level `|q|−1`, so its candidate count is available without any
//! recomputation — the suggestion is the edge whose deletion leaves the
//! largest candidate set. The user is free to delete any other edge; either
//! way the SPIG set is updated by dropping `S_d` and every vertex whose
//! Edge List contains `e_d` — no per-step recomputation, unlike GBLENDER.
//!
//! Probing every deletable edge touches one level-(`|q|−1`) fragment per
//! edge — exactly the fragments the session's [`CandMemo`] already holds
//! from formulating the prefix, so with the memo attached the whole probe
//! is cache replay: sets are compared by [`prague_idset::IdSet::len`]
//! (no materialization) and only the winner is expanded into ids.

use crate::candidates::{exact_sub_candidate_set, CandMemo};
use prague_graph::GraphId;
use prague_idset::IdSet;
use prague_index::StoreError;
use prague_shard::ShardedIndexes;
use prague_spig::{EdgeLabelId, SpigSet, VisualQuery};
use std::sync::Arc;

/// A deletion suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletionSuggestion {
    /// The edge whose deletion maximizes the remaining candidate set.
    pub edge: EdgeLabelId,
    /// Candidate FSG ids of `q − edge`.
    pub candidates: Vec<GraphId>,
}

/// Evaluate every deletable edge and return the best suggestion
/// (Algorithm 6, lines 3–8). Returns `None` when no single-edge deletion
/// keeps the query connected, or the query is trivial. With `memo`, the
/// per-edge candidate sets are served from the session's CAM-keyed cache.
pub fn suggest_deletion(
    query: &VisualQuery,
    set: &SpigSet,
    ix: &ShardedIndexes,
    db_len: usize,
    memo: Option<&CandMemo>,
) -> Result<Option<DeletionSuggestion>, StoreError> {
    let live = query.live_mask();
    let mut best: Option<(EdgeLabelId, Arc<IdSet>)> = None;
    for label in query.live_labels() {
        if !query.edge_is_deletable(label) {
            continue;
        }
        let mask = live & !(1u64 << (label - 1));
        // q − e_i is a connected (|q|−1)-edge fragment: find its SPIG vertex.
        let Some(vertex) = set.vertex_by_mask(mask) else {
            continue;
        };
        let candidates = exact_sub_candidate_set(vertex, ix, db_len, memo)?;
        let better = match &best {
            None => true,
            Some((_, b)) => candidates.len() > b.len(),
        };
        if better {
            best = Some((label, candidates));
        }
    }
    Ok(best.map(|(edge, set)| DeletionSuggestion {
        edge,
        candidates: set.to_vec(),
    }))
}

/// Candidate count for each deletable edge (diagnostics / UI display).
pub fn deletion_options(
    query: &VisualQuery,
    set: &SpigSet,
    ix: &ShardedIndexes,
    db_len: usize,
) -> Result<Vec<(EdgeLabelId, usize)>, StoreError> {
    let live = query.live_mask();
    let mut out = Vec::new();
    for label in query.live_labels() {
        if !query.edge_is_deletable(label) {
            continue;
        }
        let mask = live & !(1u64 << (label - 1));
        if let Some(vertex) = set.vertex_by_mask(mask) {
            let count = exact_sub_candidate_set(vertex, ix, db_len, None)?.len();
            out.push((label, count));
        }
    }
    Ok(out)
}
