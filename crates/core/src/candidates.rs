//! Candidate generation: `ExactSubCandidates` (Algorithm 3) and
//! `SimilarSubCandidates` (Algorithm 4), on top of the compressed
//! candidate-set engine ([`prague_idset::IdSet`]).
//!
//! Both operate purely on SPIG vertices and the action-aware indexes — no
//! data graph is touched until verification. Exact candidates for an indexed
//! fragment are its FSG ids (verification-free when the query *is* the
//! fragment); for a NIF they are the intersection of the FSG ids of its
//! frequent Φ-subgraphs and DIF Υ-subgraphs, a superset of the true answer.
//!
//! A fragment's candidate set is a pure function of its isomorphism class
//! (CAM code) and the indexes, and identical CAM fragments recur across SPIG
//! levels, across the SPIGs of different anchor edges, and across successive
//! edits — so generation is memoized in a CAM-keyed [`CandMemo`]. `Session`
//! holds one memo for its whole lifetime; see ARCHITECTURE.md
//! ("Candidate-set engine") for the invalidation rules.

use prague_graph::{CamCode, GraphId};
use prague_idset::{intersect_all, IdSet, Memo};
use prague_index::StoreError;
use prague_obs::{names, Obs};
use prague_shard::ShardedIndexes;
use prague_spig::{SpigSet, SpigVertex};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// CAM-keyed memo of candidate sets, instrumented via `prague-obs`
/// (`cand.memo_hits` / `cand.memo_misses` / `cand.idset_bytes`).
///
/// Entries are keyed by the fragment's CAM code alone: the cached set
/// depends only on the isomorphism class and the action-aware indexes, and
/// the indexes cannot change while a `Session` borrows the system (index
/// mutation requires `&mut PragueSystem`). A system-level index epoch is
/// still snapshotted defensively — see [`crate::Session`].
pub struct CandMemo {
    inner: Mutex<Memo<CamCode>>,
    /// Second tier: whole [`SimilarCandidates`] keyed by the full query's
    /// CAM code (its level-`|q|` SPIG vertex) and σ. The complete per-level
    /// output is a pure function of the query's isomorphism class, σ, and
    /// the indexes, so replaying an earlier query state — the delete/re-add
    /// loop — skips even the SPIG fragment walk and per-level union work.
    similar: Mutex<BTreeMap<(CamCode, usize), Arc<SimilarCandidates>>>,
    obs: Obs,
}

impl std::fmt::Debug for CandMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandMemo")
            .field("len", &self.len())
            .finish()
    }
}

impl CandMemo {
    /// An empty memo reporting to `obs`.
    pub fn new(obs: Obs) -> Self {
        CandMemo {
            inner: Mutex::new(Memo::new()),
            similar: Mutex::new(BTreeMap::new()),
            obs,
        }
    }

    /// The cached candidate set for `cam`, if present. Counts one
    /// `cand.memo_hits` or `cand.memo_misses`.
    pub fn lookup(&self, cam: &CamCode) -> Option<Arc<IdSet>> {
        let hit = self.lock().get(cam);
        match hit {
            Some(_) => self.obs.add(names::CAND_MEMO_HITS, 1),
            None => self.obs.add(names::CAND_MEMO_MISSES, 1),
        }
        hit
    }

    /// Cache `set` under `cam`, growing `cand.idset_bytes` by the admitted
    /// heap footprint.
    pub fn admit(&self, cam: &CamCode, set: Arc<IdSet>) {
        let mut memo = self.lock();
        let before = memo.bytes();
        if memo.insert(cam.clone(), set) {
            let grown = memo.bytes().saturating_sub(before);
            drop(memo);
            self.obs.add(names::CAND_IDSET_BYTES, grown as u64);
        }
    }

    /// The cached whole-query similarity output for the query whose full
    /// fragment has CAM code `cam`, at slack `sigma`. Counts one
    /// `cand.memo_hits` or `cand.memo_misses`.
    pub fn lookup_similar(&self, cam: &CamCode, sigma: usize) -> Option<Arc<SimilarCandidates>> {
        let hit = self.lock_similar().get(&(cam.clone(), sigma)).cloned();
        match hit {
            Some(_) => self.obs.add(names::CAND_MEMO_HITS, 1),
            None => self.obs.add(names::CAND_MEMO_MISSES, 1),
        }
        hit
    }

    /// Cache a whole-query similarity output, growing `cand.idset_bytes` by
    /// the admitted heap footprint.
    pub fn admit_similar(&self, cam: &CamCode, sigma: usize, sc: Arc<SimilarCandidates>) {
        let bytes = similar_heap_bytes(&sc);
        if self
            .lock_similar()
            .insert((cam.clone(), sigma), sc)
            .is_none()
        {
            self.obs.add(names::CAND_IDSET_BYTES, bytes as u64);
        }
    }

    /// Number of cached fragment classes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Approximate heap bytes retained by cached sets (both tiers).
    pub fn bytes(&self) -> usize {
        let similar_bytes: usize = self
            .lock_similar()
            .values()
            .map(|sc| similar_heap_bytes(sc))
            .sum();
        self.lock().bytes() + similar_bytes
    }

    /// Drop every entry (index-epoch invalidation).
    pub fn clear(&self) {
        self.lock().clear();
        self.lock_similar().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo<CamCode>> {
        // A poisoned lock only means a panic mid-insert; the map itself is
        // always structurally valid, so keep serving it.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[allow(clippy::type_complexity)]
    fn lock_similar(
        &self,
    ) -> std::sync::MutexGuard<'_, BTreeMap<(CamCode, usize), Arc<SimilarCandidates>>> {
        match self.similar.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// Heap footprint of a cached whole-query similarity output.
fn similar_heap_bytes(sc: &SimilarCandidates) -> usize {
    sc.levels
        .values()
        .map(|lc| lc.free.heap_bytes() + lc.ver.heap_bytes())
        .sum()
}

/// `ExactSubCandidates` (Algorithm 3) as a shared compressed set: the
/// candidate FSG ids for the fragment represented by SPIG vertex `v`.
///
/// * indexed frequent fragment → its exact `fsgIds` from A²F (shared
///   directly with the index cache — no copy);
/// * indexed DIF → its exact `fsgIds` from A²I;
/// * NIF → intersection over Φ (A²F lookups) and Υ (A²I lookups), a
///   superset that needs verification;
/// * dead (contains a zero-support edge) → `∅`, exactly.
///
/// The degenerate no-information case (never produced by a well-formed SPIG
/// over complete indexes, but handled defensively) is the lazy universe
/// `[0, db_len)` — nothing is materialized just to be intersected away.
///
/// With `memo`, the whole computation is skipped for a CAM class seen
/// before (any level, any SPIG, any earlier edit of the session).
pub fn exact_sub_candidate_set(
    v: &SpigVertex,
    ix: &ShardedIndexes,
    db_len: usize,
    memo: Option<&CandMemo>,
) -> Result<Arc<IdSet>, StoreError> {
    let fl = &v.fragment_list;
    if fl.dead {
        return Ok(Arc::new(IdSet::new()));
    }
    if let Some(hit) = memo.and_then(|m| m.lookup(&v.cam)) {
        return Ok(hit);
    }
    let set = if let Some(fid) = fl.freq_id {
        ix.a2f_fsg(fid)?
    } else if let Some(did) = fl.dif_id {
        ix.a2i_fsg(did)
    } else {
        let mut lists: Vec<Arc<IdSet>> = Vec::with_capacity(fl.phi.len() + fl.upsilon.len());
        for &fid in &fl.phi {
            lists.push(ix.a2f_fsg(fid)?);
        }
        for &did in &fl.upsilon {
            lists.push(ix.a2i_fsg(did));
        }
        if lists.is_empty() {
            Arc::new(IdSet::universe(db_len as u32))
        } else {
            Arc::new(intersect_all(lists))
        }
    };
    if let Some(m) = memo {
        m.admit(&v.cam, set.clone());
    }
    Ok(set)
}

/// [`exact_sub_candidate_set`] materialized into the legacy sorted-`Vec`
/// shape (compatibility surface for baselines and experiments; the
/// interactive pipeline stays on sets).
pub fn exact_sub_candidates(
    v: &SpigVertex,
    ix: &ShardedIndexes,
    db_len: usize,
) -> Result<Vec<GraphId>, StoreError> {
    Ok(exact_sub_candidate_set(v, ix, db_len, None)?.to_vec())
}

/// Whether the fragment of `v` is *exactly* indexed, making its candidate
/// set verification-free for containment of that fragment.
pub fn is_verification_free(v: &SpigVertex) -> bool {
    v.fragment_list.is_indexed()
}

/// Per-level output of `SimilarSubCandidates`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelCandidates {
    /// `R_free(i)`: verification-free candidates (from indexed fragments).
    pub free: IdSet,
    /// `R_ver(i)`: candidates needing verification (from NIF fragments),
    /// already excluding `free`.
    pub ver: IdSet,
}

impl LevelCandidates {
    /// `|R_free(i) ∪ R_ver(i)|` (the sets are disjoint by construction).
    pub fn total(&self) -> usize {
        self.free.len() + self.ver.len()
    }
}

/// Output of `SimilarSubCandidates` (Algorithm 4): candidates per SPIG
/// level `i`, for `|q|−σ ≤ i ≤ |q|−1`.
#[derive(Debug, Clone, Default)]
pub struct SimilarCandidates {
    /// Level → candidates. Higher level = more similar (distance `|q|−i`).
    pub levels: BTreeMap<usize, LevelCandidates>,
}

impl SimilarCandidates {
    /// `|⋃_i R_free(i) ∪ R_ver(i)|` — the candidate-set size reported in the
    /// paper's Figures 9(b)–(e) and 10(d)–(e).
    pub fn distinct_candidates(&self) -> usize {
        let mut all = IdSet::new();
        for lc in self.levels.values() {
            all.union_with(&lc.free);
            all.union_with(&lc.ver);
        }
        all.len()
    }

    /// Distinct verification-free candidates across levels.
    pub fn distinct_free(&self) -> usize {
        let mut all = IdSet::new();
        for lc in self.levels.values() {
            all.union_with(&lc.free);
        }
        all.len()
    }
}

/// The level-`i` SPIG fragments deduplicated by isomorphism class (CAM
/// code), in level order. Identical fragments have identical candidate
/// sets *and* identical verification behavior, so both Algorithm 4's
/// candidate gathering and `SimVerify`'s fragment collection
/// ([`crate::verify::SimVerifier::from_spigs`]) share this one dedup.
pub fn distinct_level_fragments(
    set: &SpigSet,
    level: usize,
) -> Vec<(&SpigVertex, prague_spig::LabelMask)> {
    let mut seen = std::collections::BTreeSet::new();
    set.level_fragments(level)
        .into_iter()
        .filter(|(v, _)| seen.insert(v.cam.clone()))
        .collect()
}

/// `SimilarSubCandidates` (Algorithm 4): gather candidates for the levels
/// `|q|` down to `|q|−σ` of the SPIG set.
///
/// The paper's pseudo-code starts at level `|q|−1` because its similarity
/// path is only entered once `R_q = ∅` (no exact match can exist). This
/// implementation also processes level `|q|` so that a user who opts into
/// similarity early still receives exact matches ranked first (distance 0),
/// as Definition 3 requires; when `R_q = ∅` the extra level contributes
/// nothing, and every level-`|q|` candidate is also a level-`|q|−1`
/// candidate, so reported candidate-set sizes are unchanged.
///
/// `memo` short-circuits per-fragment generation exactly as in
/// [`exact_sub_candidate_set`], and additionally caches the *whole* output
/// keyed by the query's own CAM code and σ — a replayed query state (the
/// delete/re-add loop) returns without walking any SPIG level.
pub fn similar_sub_candidates(
    q_size: usize,
    sigma: usize,
    set: &SpigSet,
    ix: &ShardedIndexes,
    db_len: usize,
    memo: Option<&CandMemo>,
) -> Result<SimilarCandidates, StoreError> {
    let mut out = SimilarCandidates::default();
    if q_size == 0 {
        return Ok(out);
    }
    // Whole-query tier: the complete per-level output is a pure function
    // of the query's isomorphism class (the CAM of its level-|q| SPIG
    // vertex), σ, and the indexes — so a replayed query state (the
    // delete/re-add loop) returns without walking any SPIG level.
    let top_cam: Option<CamCode> = memo.and_then(|_| {
        distinct_level_fragments(set, q_size)
            .first()
            .map(|(v, _)| v.cam.clone())
    });
    if let (Some(m), Some(cam)) = (memo, top_cam.as_ref()) {
        if let Some(sc) = m.lookup_similar(cam, sigma) {
            return Ok(sc.as_ref().clone());
        }
    }
    let lowest = q_size.saturating_sub(sigma).max(1);
    for i in (lowest..=q_size).rev() {
        let mut free = IdSet::new();
        let mut ver = IdSet::new();
        for (v, _mask) in distinct_level_fragments(set, i) {
            let cands = exact_sub_candidate_set(v, ix, db_len, memo)?;
            if is_verification_free(v) {
                free.union_with(cands.as_ref());
            } else {
                ver.union_with(cands.as_ref());
            }
        }
        ver.difference_with(&free);
        out.levels.insert(i, LevelCandidates { free, ver });
    }
    if let (Some(m), Some(cam)) = (memo, top_cam.as_ref()) {
        m.admit_similar(cam, sigma, Arc::new(out.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[GraphId]) -> IdSet {
        IdSet::from_sorted_slice(ids)
    }

    #[test]
    fn level_candidates_total() {
        let lc = LevelCandidates {
            free: set(&[1, 2]),
            ver: set(&[3]),
        };
        assert_eq!(lc.total(), 3);
    }

    #[test]
    fn similar_candidates_distinct_counts() {
        let mut sc = SimilarCandidates::default();
        sc.levels.insert(
            3,
            LevelCandidates {
                free: set(&[1, 2]),
                ver: set(&[3]),
            },
        );
        sc.levels.insert(
            2,
            LevelCandidates {
                free: set(&[2, 4]),
                ver: set(&[3, 5]),
            },
        );
        assert_eq!(sc.distinct_candidates(), 5);
        assert_eq!(sc.distinct_free(), 3);
    }

    #[test]
    fn memo_round_trips_and_counts() {
        let obs = Obs::enabled();
        let memo = CandMemo::new(obs.clone());
        let cam = prague_graph::cam_code(&{
            let mut g = prague_graph::Graph::new();
            let a = g.add_node(prague_graph::Label(0));
            let b = g.add_node(prague_graph::Label(1));
            g.add_edge(a, b).unwrap();
            g
        });
        assert!(memo.lookup(&cam).is_none());
        memo.admit(&cam, Arc::new(set(&[1, 5])));
        assert_eq!(
            memo.lookup(&cam).map(|s| s.to_vec()),
            Some(vec![1, 5]),
            "admitted set is returned"
        );
        assert!(memo.bytes() > 0);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter(names::CAND_MEMO_HITS), Some(1));
        assert_eq!(snap.counter(names::CAND_MEMO_MISSES), Some(1));
        assert!(snap.counter(names::CAND_IDSET_BYTES).unwrap_or(0) > 0);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.bytes(), 0);
    }
}
