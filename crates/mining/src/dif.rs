//! Discriminative infrequent fragment (DIF) extraction.
//!
//! A DIF is a *smallest* infrequent fragment: an infrequent fragment all of
//! whose proper subgraphs are frequent (or a single infrequent edge). The
//! paper indexes only DIFs in the A²I index because every infrequent
//! fragment contains a DIF, so DIFs suffice to identify infrequent query
//! fragments (Section III).
//!
//! gSpan's negative border (infrequent extensions of frequent fragments)
//! is exactly the set of infrequent fragments whose minimum-code prefix is
//! frequent; the DIFs are the border fragments whose *every* largest proper
//! connected subgraph is frequent — checked here against the mined frequent
//! set, by CAM code.

use crate::gspan::{MinedFragment, MiningOutput};
use prague_graph::enumerate::{connected_edge_subsets_by_size, mask_edges};
use prague_graph::{cam_code, CamCode};
use std::collections::{BTreeMap, BTreeSet};

/// The fully-classified mining result consumed by the index builders.
#[derive(Debug)]
pub struct MiningResult {
    /// The frequent set `F` (complete up to the mining size cap).
    pub frequent: Vec<MinedFragment>,
    /// The discriminative infrequent fragments `I_d`, with exact FSG ids.
    pub difs: Vec<MinedFragment>,
    /// Number of negative-border fragments that were *not* discriminative
    /// (NIFs touched by the miner) — reported for statistics only.
    pub nif_count: usize,
}

impl MiningResult {
    /// Classify a raw [`MiningOutput`] into frequent set + DIFs.
    pub fn from_output(output: MiningOutput) -> Self {
        let frequent_cams: BTreeSet<&CamCode> = output.frequent.iter().map(|f| &f.cam).collect();
        let mut difs = Vec::new();
        let mut nif_count = 0usize;
        for frag in output.negative_border {
            if is_dif(&frag, &frequent_cams) {
                difs.push(frag);
            } else {
                nif_count += 1;
            }
        }
        // The total order `(size, CAM)`: ascending size as the A2F/A2I
        // arrays expect, and CAM inside a size class so index ids do not
        // depend on which miner thread finished first.
        let canonical =
            |a: &MinedFragment, b: &MinedFragment| (a.size(), &a.cam).cmp(&(b.size(), &b.cam));
        let mut frequent = output.frequent;
        frequent.sort_by(canonical);
        difs.sort_by(canonical);
        MiningResult {
            frequent,
            difs,
            nif_count,
        }
    }

    /// Frequent fragments keyed by CAM code (ordered, for deterministic
    /// iteration by the index builders).
    pub fn frequent_by_cam(&self) -> BTreeMap<&CamCode, &MinedFragment> {
        self.frequent.iter().map(|f| (&f.cam, f)).collect()
    }

    /// DIFs keyed by CAM code (ordered, for deterministic iteration).
    pub fn difs_by_cam(&self) -> BTreeMap<&CamCode, &MinedFragment> {
        self.difs.iter().map(|f| (&f.cam, f)).collect()
    }
}

/// Whether `frag` (known infrequent) is discriminative: size 1, or every
/// largest proper connected subgraph is frequent.
///
/// Checking only the `(|g|−1)`-edge connected subgraphs is equivalent to the
/// paper's `sub(g) ⊂ F` condition: every smaller connected subgraph extends
/// (inside `g`) to a `(|g|−1)`-edge connected subgraph, and subgraphs of
/// frequent fragments are frequent by support anti-monotonicity.
fn is_dif(frag: &MinedFragment, frequent_cams: &BTreeSet<&CamCode>) -> bool {
    let size = frag.size();
    if size == 1 {
        return true;
    }
    let levels = connected_edge_subsets_by_size(&frag.graph)
        // audit:allow(panic-reachable): mined fragments respect the 64-edge mining cap, the only failure mode of connected_edge_subsets_by_size
        .expect("fragments are small (mining size cap <= 64 edges)");
    levels[size - 1].iter().all(|&mask| {
        let (sub, _) = frag.graph.edge_subgraph(&mask_edges(mask));
        frequent_cams.contains(&cam_code(&sub))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gspan::{mine, MiningConfig};
    use prague_graph::{Graph, GraphDb, Label};

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// D with C-S edges frequent, C-S-C present once (infrequent).
    fn db() -> GraphDb {
        // labels: 0 = C, 1 = S
        let mut d = GraphDb::new();
        d.push(path(&[0, 1]));
        d.push(path(&[0, 1]));
        d.push(path(&[0, 1, 0])); // contains C-S-C once
        d.push(path(&[0, 0]));
        d.push(path(&[0, 0]));
        d.push(path(&[0, 0, 0]));
        d
    }

    #[test]
    fn dif_properties_hold() {
        let out = mine(
            &db(),
            &MiningConfig {
                min_support: 3,
                max_edges: 3,
            },
        );
        let result = MiningResult::from_output(out);
        let frequent_cams: BTreeSet<&CamCode> = result.frequent.iter().map(|f| &f.cam).collect();
        // Property: every DIF's proper subgraphs are all frequent.
        for d in &result.difs {
            assert!(d.support() < 3);
            if d.size() > 1 {
                let levels = connected_edge_subsets_by_size(&d.graph).unwrap();
                for &mask in &levels[d.size() - 1] {
                    let (sub, _) = d.graph.edge_subgraph(&mask_edges(mask));
                    assert!(frequent_cams.contains(&cam_code(&sub)));
                }
            }
        }
    }

    #[test]
    fn csc_is_dif_in_example_db() {
        // C-S (sup 3) and C-C (sup 3) frequent; C-S-C (sup 1) infrequent
        // with both subgraphs (C-S) frequent -> DIF.
        let out = mine(
            &db(),
            &MiningConfig {
                min_support: 3,
                max_edges: 3,
            },
        );
        let result = MiningResult::from_output(out);
        let csc = cam_code(&path(&[0, 1, 0]));
        assert!(
            result.difs.iter().any(|d| d.cam == csc),
            "C-S-C should be a DIF"
        );
        // C-C-C has sup 1 < 3, and its subgraph C-C has sup 3 -> also a DIF
        let ccc = cam_code(&path(&[0, 0, 0]));
        assert!(result.difs.iter().any(|d| d.cam == ccc));
    }

    #[test]
    fn size_one_infrequent_is_dif() {
        let mut d = db();
        d.push(path(&[5, 6])); // unique labels -> infrequent single edge
        let out = mine(
            &d,
            &MiningConfig {
                min_support: 3,
                max_edges: 3,
            },
        );
        let result = MiningResult::from_output(out);
        let rare = cam_code(&path(&[5, 6]));
        assert!(result.difs.iter().any(|f| f.cam == rare));
    }

    #[test]
    fn difs_sorted_by_size() {
        let out = mine(
            &db(),
            &MiningConfig {
                min_support: 3,
                max_edges: 3,
            },
        );
        let result = MiningResult::from_output(out);
        for w in result.difs.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
    }

    #[test]
    fn classified_order_ignores_miner_output_order() {
        let config = MiningConfig {
            min_support: 3,
            max_edges: 3,
        };
        let cams = |r: &MiningResult| -> Vec<Vec<CamCode>> {
            [&r.frequent, &r.difs]
                .map(|list| list.iter().map(|f| f.cam.clone()).collect())
                .to_vec()
        };
        let forward = MiningResult::from_output(mine(&db(), &config));
        let mut shuffled = mine(&db(), &config);
        shuffled.frequent.reverse();
        shuffled.negative_border.reverse();
        assert_eq!(cams(&forward), cams(&MiningResult::from_output(shuffled)));
    }

    #[test]
    fn every_infrequent_fragment_contains_a_dif() {
        // Paper property: given g infrequent, exists DIF g' ⊆ g.
        let d = db();
        let out = mine(
            &d,
            &MiningConfig {
                min_support: 3,
                max_edges: 3,
            },
        );
        let result = MiningResult::from_output(out);
        // collect every connected fragment of every data graph with support < 3
        use prague_graph::vf2::is_subgraph;
        let mut support: BTreeMap<CamCode, (Graph, BTreeSet<u32>)> = BTreeMap::new();
        for (gid, g) in d.iter() {
            let levels = connected_edge_subsets_by_size(g).unwrap();
            for level in levels.iter().skip(1).take(3) {
                for &mask in level {
                    let (sub, _) = g.edge_subgraph(&mask_edges(mask));
                    let cam = cam_code(&sub);
                    support
                        .entry(cam)
                        .or_insert_with(|| (sub, BTreeSet::new()))
                        .1
                        .insert(gid);
                }
            }
        }
        for (frag, ids) in support.values() {
            if ids.len() < 3 {
                assert!(
                    result.difs.iter().any(|dif| is_subgraph(&dif.graph, frag)),
                    "infrequent fragment without DIF subgraph: {frag:?}"
                );
            }
        }
    }
}
