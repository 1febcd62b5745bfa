//! gSpan frequent-fragment mining over a database of small graphs
//! (Yan & Han, ICDM 2002), extended to also emit the *negative border* —
//! the minimal infrequent fragments from which discriminative infrequent
//! fragments (DIFs) are extracted (see [`crate::dif`]).
//!
//! The miner enumerates fragments by minimum DFS code with rightmost-path
//! extension, counts support as the number of distinct data graphs
//! containing the fragment, and records the exact FSG-id list
//! (`fsgIds(g)` in the paper) for every frequent fragment and every
//! infrequent extension it touches.

use crate::dfscode::{
    gather_extensions, graph_from_code, is_min, root_projections, DfsCode, DfsEdge, Proj,
    ProjScratch,
};
use prague_graph::{cam_code, CamCode, Graph, GraphDb, GraphId};

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Absolute minimum support (`α·|D|` in the paper, rounded up, min 1).
    pub min_support: usize,
    /// Largest fragment size (edge count) to mine. The paper mines all
    /// frequent fragments; capping at the maximum query size (10 in its
    /// study) is lossless for query processing since no lookup exceeds |q|.
    pub max_edges: usize,
}

impl MiningConfig {
    /// Config from a support *ratio* `alpha` (the paper's α) for a database
    /// of `db_len` graphs.
    pub fn from_ratio(db_len: usize, alpha: f64, max_edges: usize) -> Self {
        let min_support = ((db_len as f64) * alpha).ceil().max(1.0) as usize;
        MiningConfig {
            min_support,
            max_edges,
        }
    }
}

/// A mined fragment: its graph, CAM code and the identifiers of the data
/// graphs containing it (`fsgIds`, sorted ascending).
#[derive(Debug, Clone)]
pub struct MinedFragment {
    /// The fragment graph.
    pub graph: Graph,
    /// Canonical CAM code (index key).
    pub cam: CamCode,
    /// Sorted identifiers of the fragment support graphs.
    pub fsg_ids: Vec<GraphId>,
}

impl MinedFragment {
    /// Absolute support `sup(g) = |D_g|`.
    pub fn support(&self) -> usize {
        self.fsg_ids.len()
    }

    /// Fragment size `|g|` (edge count).
    pub fn size(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Raw mining output: the frequent set `F` (complete up to
/// [`MiningConfig::max_edges`]) and the minimal infrequent extensions
/// encountered (the negative border — a superset of the DIFs).
#[derive(Debug, Default)]
pub struct MiningOutput {
    /// All frequent fragments, each enumerated exactly once.
    pub frequent: Vec<MinedFragment>,
    /// Infrequent fragments on the negative border (deduplicated by
    /// minimum-DFS-code enumeration), with their FSG ids.
    pub negative_border: Vec<MinedFragment>,
}

impl MiningOutput {
    /// Number of frequent fragments of each size, indexed by edge count.
    pub fn frequent_size_histogram(&self) -> Vec<usize> {
        let mut h = Vec::new();
        for f in &self.frequent {
            let s = f.size();
            if h.len() <= s {
                h.resize(s + 1, 0);
            }
            h[s] += 1;
        }
        h
    }
}

/// Count distinct graph ids in a projection list (entries are grouped by
/// parent order, so gids arrive non-decreasing).
pub(crate) fn distinct_gids(projs: &[Proj]) -> Vec<GraphId> {
    let mut out = Vec::new();
    let mut last = u32::MAX;
    for p in projs {
        if p.gid != last {
            debug_assert!(out.last().is_none_or(|&l| l < p.gid));
            out.push(p.gid);
            last = p.gid;
        }
    }
    out
}

/// Mine one root (a distinct 1-edge code) and everything above it.
fn mine_root(
    graphs: &[Graph],
    config: &MiningConfig,
    (l0, le, l1): (
        prague_graph::Label,
        prague_graph::Label,
        prague_graph::Label,
    ),
    projs: Vec<Proj>,
    scratch: &mut ProjScratch,
    out: &mut MiningOutput,
) {
    let code: DfsCode = vec![DfsEdge {
        from: 0,
        to: 1,
        from_label: l0,
        edge_label: le,
        to_label: l1,
    }];
    let fsg_ids = distinct_gids(&projs);
    let frag = || {
        let graph = graph_from_code(&code);
        let cam = cam_code(&graph);
        MinedFragment {
            graph,
            cam,
            fsg_ids: fsg_ids.clone(),
        }
    };
    if fsg_ids.len() >= config.min_support {
        out.frequent.push(frag());
        if config.max_edges > 1 {
            let mut levels = vec![projs];
            let mut code = code;
            subgraph_mining(graphs, config, &mut code, &mut levels, scratch, out);
        }
    } else {
        // A size-1 infrequent fragment is a DIF by definition.
        out.negative_border.push(frag());
    }
}

/// Mine the database (single-threaded).
pub fn mine(db: &GraphDb, config: &MiningConfig) -> MiningOutput {
    let graphs = db.graphs();
    let mut out = MiningOutput::default();
    let mut scratch = ProjScratch::default();
    for (key, projs) in root_projections(graphs) {
        mine_root(graphs, config, key, projs, &mut scratch, &mut out);
    }
    out
}

/// Mine the database with `threads` worker threads. Each distinct 1-edge
/// root (and everything grown from it) is an independent unit of work —
/// minimum-DFS-code pruning guarantees no fragment is produced by two
/// roots, so outputs merge by concatenation — in thread-completion order,
/// so the fragment order of the raw output is scheduling-dependent;
/// [`crate::MiningResult::from_output`] sorts by `(size, CAM)`, which is
/// what makes index ids reproducible.
pub fn mine_parallel(db: &GraphDb, config: &MiningConfig, threads: usize) -> MiningOutput {
    let graphs = db.graphs();
    let roots: Vec<_> = root_projections(graphs).into_iter().collect();
    if threads <= 1 || roots.len() <= 1 {
        let mut out = MiningOutput::default();
        let mut scratch = ProjScratch::default();
        for (key, projs) in roots {
            mine_root(graphs, config, key, projs, &mut scratch, &mut out);
        }
        return out;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let roots = std::sync::Mutex::new(roots.into_iter().map(Some).collect::<Vec<_>>());
    let outputs = std::sync::Mutex::new(Vec::<MiningOutput>::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, 8) {
            scope.spawn(|| {
                let mut scratch = ProjScratch::default();
                let mut out = MiningOutput::default();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let work = {
                        // audit:allow(panic-reachable): offline mining scope — a poisoned lock means a sibling miner already panicked, and aborting the build is correct
                        let mut guard = roots.lock().expect("no poisoned miners");
                        guard.get_mut(i).and_then(Option::take)
                    };
                    match work {
                        Some((key, projs)) => {
                            mine_root(graphs, config, key, projs, &mut scratch, &mut out)
                        }
                        None => break,
                    }
                }
                // audit:allow(panic-reachable): offline mining scope — a poisoned lock means a sibling miner already panicked, and aborting the build is correct
                outputs.lock().expect("no poisoned miners").push(out);
            });
        }
    });
    let mut merged = MiningOutput::default();
    // audit:allow(panic-reachable): after scope() every worker has joined; poisoning here means a miner panicked and the build must not continue on partial output
    for out in outputs.into_inner().expect("threads joined") {
        merged.frequent.extend(out.frequent);
        merged.negative_border.extend(out.negative_border);
    }
    merged
}

fn subgraph_mining(
    graphs: &[Graph],
    config: &MiningConfig,
    code: &mut DfsCode,
    levels: &mut Vec<Vec<Proj>>,
    scratch: &mut ProjScratch,
    out: &mut MiningOutput,
) {
    let extensions = gather_extensions(graphs, code, levels, scratch);
    for (ext, projs) in extensions {
        let edge = ext.to_dfs_edge(code);
        code.push(edge);
        // Only minimum codes are expanded/recorded: every fragment is thus
        // visited exactly once, and non-minimal duplicates are pruned here.
        if is_min(code) {
            let fsg_ids = distinct_gids(&projs);
            let graph = graph_from_code(code);
            let cam = cam_code(&graph);
            let fragment = MinedFragment {
                graph,
                cam,
                fsg_ids,
            };
            if fragment.support() >= config.min_support {
                let recurse = code.len() < config.max_edges;
                out.frequent.push(fragment);
                if recurse {
                    levels.push(projs);
                    subgraph_mining(graphs, config, code, levels, scratch, out);
                    levels.pop();
                }
            } else {
                out.negative_border.push(fragment);
            }
        }
        code.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prague_graph::enumerate::{connected_edge_subsets_by_size, mask_edges};
    use prague_graph::Label;
    use std::collections::HashMap;

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// Brute-force oracle: every connected fragment (by CAM) with its exact
    /// fsgIds, enumerated from all connected subgraphs of all data graphs.
    fn oracle(db: &GraphDb, max_edges: usize) -> HashMap<CamCode, Vec<GraphId>> {
        let mut map: HashMap<CamCode, Vec<GraphId>> = HashMap::new();
        for (gid, g) in db.iter() {
            let levels = connected_edge_subsets_by_size(g).unwrap();
            let mut seen = std::collections::HashSet::new();
            for level in levels.iter().take(max_edges + 1).skip(1) {
                for &mask in level {
                    let (sub, _) = g.edge_subgraph(&mask_edges(mask));
                    let cam = cam_code(&sub);
                    if seen.insert(cam.clone()) {
                        map.entry(cam).or_default().push(gid);
                    }
                }
            }
        }
        map
    }

    fn tiny_db() -> GraphDb {
        let mut db = GraphDb::new();
        db.push(path(&[0, 1, 0]));
        db.push(path(&[0, 1, 1]));
        db.push(path(&[0, 1, 0, 1]));
        db.push({
            let mut g = path(&[0, 0, 0]);
            g.add_edge(2, 0).unwrap();
            g
        });
        db.push(path(&[2, 2]));
        db
    }

    #[test]
    fn frequent_set_matches_oracle() {
        let db = tiny_db();
        let oracle_map = oracle(&db, 4);
        for min_support in 1..=4 {
            let cfg = MiningConfig {
                min_support,
                max_edges: 4,
            };
            let got = mine(&db, &cfg);
            // every mined frequent fragment is correct
            for f in &got.frequent {
                let want = oracle_map
                    .get(&f.cam)
                    .unwrap_or_else(|| panic!("mined fragment not in oracle"));
                assert_eq!(&f.fsg_ids, want, "fsgIds mismatch for {:?}", f.graph);
                assert!(f.support() >= min_support);
            }
            // every oracle-frequent fragment is mined
            let mined: std::collections::HashSet<_> =
                got.frequent.iter().map(|f| f.cam.clone()).collect();
            for (cam, ids) in &oracle_map {
                if ids.len() >= min_support {
                    assert!(
                        mined.contains(cam),
                        "missing frequent fragment (sup={})",
                        ids.len()
                    );
                }
            }
            // no duplicates
            assert_eq!(mined.len(), got.frequent.len());
        }
    }

    #[test]
    fn negative_border_fragments_are_infrequent_with_exact_ids() {
        let db = tiny_db();
        let oracle_map = oracle(&db, 4);
        let cfg = MiningConfig {
            min_support: 3,
            max_edges: 4,
        };
        let got = mine(&db, &cfg);
        for f in &got.negative_border {
            assert!(f.support() < 3);
            assert_eq!(&f.fsg_ids, oracle_map.get(&f.cam).unwrap());
        }
        // no duplicates in the border
        let cams: std::collections::HashSet<_> =
            got.negative_border.iter().map(|f| f.cam.clone()).collect();
        assert_eq!(cams.len(), got.negative_border.len());
    }

    #[test]
    fn max_edges_cap_respected() {
        let db = tiny_db();
        let cfg = MiningConfig {
            min_support: 1,
            max_edges: 2,
        };
        let got = mine(&db, &cfg);
        assert!(got.frequent.iter().all(|f| f.size() <= 2));
        assert!(got.negative_border.iter().all(|f| f.size() <= 2));
        assert!(got.frequent.iter().any(|f| f.size() == 2));
    }

    #[test]
    fn support_is_antimonotone() {
        let db = tiny_db();
        let cfg = MiningConfig {
            min_support: 1,
            max_edges: 4,
        };
        let got = mine(&db, &cfg);
        // index by cam for subgraph checks
        for f in &got.frequent {
            if f.size() < 2 {
                continue;
            }
            // every (size-1) connected subgraph must have support >= f's
            let levels = connected_edge_subsets_by_size(&f.graph).unwrap();
            for &mask in &levels[f.size() - 1] {
                let (sub, _) = f.graph.edge_subgraph(&mask_edges(mask));
                let sub_cam = cam_code(&sub);
                let parent = got
                    .frequent
                    .iter()
                    .find(|p| p.cam == sub_cam)
                    .expect("subgraph of frequent fragment is frequent");
                assert!(parent.support() >= f.support());
                // containment of fsgIds (paper, Section III)
                for id in &f.fsg_ids {
                    assert!(parent.fsg_ids.contains(id));
                }
            }
        }
    }

    #[test]
    fn histogram_counts_sizes() {
        let db = tiny_db();
        let cfg = MiningConfig {
            min_support: 2,
            max_edges: 3,
        };
        let got = mine(&db, &cfg);
        let h = got.frequent_size_histogram();
        assert_eq!(h.iter().sum::<usize>(), got.frequent.len());
    }

    #[test]
    fn from_ratio_rounds_up() {
        let c = MiningConfig::from_ratio(10_000, 0.1, 10);
        assert_eq!(c.min_support, 1000);
        let c = MiningConfig::from_ratio(5, 0.3, 10);
        assert_eq!(c.min_support, 2);
        let c = MiningConfig::from_ratio(3, 0.0, 10);
        assert_eq!(c.min_support, 1);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use prague_graph::{Graph, Label};

    fn path(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut db = GraphDb::new();
        for i in 0..20u16 {
            db.push(path(&[i % 3, (i + 1) % 3, i % 2, 1]));
        }
        let cfg = MiningConfig {
            min_support: 3,
            max_edges: 4,
        };
        let seq = mine(&db, &cfg);
        let par = mine_parallel(&db, &cfg, 4);
        let key = |f: &MinedFragment| (f.cam.clone(), f.fsg_ids.clone());
        let mut a: Vec<_> = seq.frequent.iter().map(key).collect();
        let mut b: Vec<_> = par.frequent.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let mut a: Vec<_> = seq.negative_border.iter().map(key).collect();
        let mut b: Vec<_> = par.negative_border.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
