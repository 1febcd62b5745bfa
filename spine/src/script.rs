//! Frame scripts: what one user sends, derived from the database.
//!
//! A *trace* is one user's script — `open`, the nodes, the edges, an
//! optional `similar`, `run`, an optional modify tail, `close`. Traces are
//! derived from the generated database with the repository's own
//! `derive_containment_query` / `derive_similarity_query`, every seed
//! coming from `--seed`, so the same seed gives byte-identical frames and
//! the program under test only ever sees the frames.

use prague_datagen::{
    derive_containment_query, derive_similarity_query, DeriveConfig, QueryKind, QuerySpec,
};
use prague_graph::{Graph, GraphDb, Label};
use prague_spig::VisualQuery;
use std::fmt::Write as _;

/// One frame of a trace, in the form every replay level can execute: the
/// socket and `handle_line` levels render it to a protocol line, the
/// direct level calls the matching `Session` method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open,
    Node(Label),
    Edge(u32, u32),
    Similar,
    Run,
    Delete(u32),
    Relabel(u32, Label),
    Close,
}

/// The latency class a frame is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `open` / `node` / `similar` / `close`: service overhead only.
    Light,
    /// `edge`: one formulation step.
    Step,
    /// `run`: the SRT the user waits for.
    Run,
    /// `delete` / `relabel`.
    Modify,
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Open | Op::Node(_) | Op::Similar | Op::Close => Class::Light,
            Op::Edge(..) => Class::Step,
            Op::Run => Class::Run,
            Op::Delete(_) | Op::Relabel(..) => Class::Modify,
        }
    }

    /// Append this frame's protocol line (newline included) to `out`.
    pub fn render(self, session: u64, out: &mut String) {
        // Writing to a String cannot fail.
        let _ = match self {
            Op::Open => write!(out, "{{\"op\":\"open\",\"sigma\":{SIGMA}}}"),
            Op::Node(l) => write!(
                out,
                "{{\"op\":\"node\",\"session\":{session},\"label\":{}}}",
                l.0
            ),
            Op::Edge(u, v) => write!(
                out,
                "{{\"op\":\"edge\",\"session\":{session},\"u\":{u},\"v\":{v}}}"
            ),
            Op::Similar => write!(out, "{{\"op\":\"similar\",\"session\":{session}}}"),
            Op::Run => write!(out, "{{\"op\":\"run\",\"session\":{session}}}"),
            Op::Delete(e) => write!(
                out,
                "{{\"op\":\"delete\",\"session\":{session},\"edge\":{e}}}"
            ),
            Op::Relabel(n, l) => write!(
                out,
                "{{\"op\":\"relabel\",\"session\":{session},\"node\":{n},\"label\":{}}}",
                l.0
            ),
            Op::Close => write!(out, "{{\"op\":\"close\",\"session\":{session}}}"),
        };
        out.push('\n');
    }
}

/// Subgraph distance threshold every session opens with (the paper's σ).
pub const SIGMA: usize = 2;

/// One user's script.
#[derive(Debug, Clone)]
pub struct Trace {
    pub ops: Vec<Op>,
}

/// splitmix64: the harness's only random source, so scripts do not depend
/// on the vendored `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// How a workload turns derived queries into traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// Draw, run; containment queries of five or more edges then delete
    /// one edge and run again.
    Formulate,
    /// Draw a 7–9-edge query, then six rounds of delete, run, re-draw,
    /// relabel there and back, run.
    Edit,
}

/// Query sizes, cycled in this order so that every seed draws the same
/// size mix and the first trace of a pass is large enough to carry the
/// modify tail.
const SIZES: [usize; 6] = [7, 5, 9, 4, 8, 6];
const EDIT_SIZES: [usize; 3] = [8, 7, 9];
const EDIT_ROUNDS: usize = 6;

/// The kind of query behind each position of a pass, period 16: twelve
/// containment, three worst-case and one best-case similarity, interleaved
/// so that any prefix of a pass has about the same mix.
fn formulate_kind(i: usize) -> Option<QueryKind> {
    match i % 16 {
        1 | 5 | 13 => Some(QueryKind::WorstCase),
        9 => Some(QueryKind::BestCase),
        _ => None,
    }
}

/// Derive the `count` traces of a pass.
///
/// `frequent` are the mined frequent fragments (best-case similarity
/// queries grow one of them by an edge that occurs nowhere in the
/// database); `labels` is the number of node labels the database uses.
pub fn derive_traces(
    db: &GraphDb,
    frequent: &[Graph],
    labels: u16,
    recipe: Recipe,
    count: usize,
    seed: u64,
) -> Vec<Trace> {
    let deepest = frequent.iter().map(Graph::edge_count).max().unwrap_or(0);
    let mut rng = Rng(seed);
    (0..count)
        .map(|i| {
            let name = format!("T{i}");
            match recipe {
                Recipe::Formulate => {
                    let size = SIZES[i % SIZES.len()];
                    let similar = formulate_kind(i).and_then(|kind| {
                        similarity_spec(db, frequent, deepest, kind, size, &mut rng, &name)
                    });
                    match similar {
                        Some(spec) => formulate_trace(&spec, true),
                        None => {
                            formulate_trace(&containment_spec(db, size, &mut rng, &name), false)
                        }
                    }
                }
                Recipe::Edit => {
                    let size = EDIT_SIZES[i % EDIT_SIZES.len()];
                    let spec = containment_spec(db, size, &mut rng, &name);
                    edit_trace(&spec, labels, &mut rng)
                }
            }
        })
        .collect()
}

fn containment_spec(db: &GraphDb, size: usize, rng: &mut Rng, name: &str) -> QuerySpec {
    // Small graphs cannot host a large query; shrink until one fits.
    for size in (1..=size).rev() {
        for _ in 0..8 {
            if let Some(spec) = derive_containment_query(db, size, rng.next(), name) {
                return spec;
            }
        }
    }
    panic!("no containment query derivable: the database has no edges");
}

fn similarity_spec(
    db: &GraphDb,
    frequent: &[Graph],
    deepest: usize,
    kind: QueryKind,
    size: usize,
    rng: &mut Rng,
    name: &str,
) -> Option<QuerySpec> {
    // A best-case query is a mined fragment plus one edge, so it can be at
    // most one edge larger than the mining depth.
    let size = match kind {
        QueryKind::BestCase => size.min(deepest + 1),
        QueryKind::WorstCase => size,
    };
    if size < 2 {
        return None;
    }
    (0..4).find_map(|_| {
        let cfg = DeriveConfig {
            size,
            kind,
            seed: rng.next(),
        };
        derive_similarity_query(db, frequent, &cfg, name)
    })
}

/// `open`, the nodes, the edges — shared by both recipes. Returns the
/// canvas shadow that later frames need edge labels from.
fn draw(spec: &QuerySpec, ops: &mut Vec<Op>) -> VisualQuery {
    let mut canvas = VisualQuery::new();
    ops.push(Op::Open);
    for &l in &spec.node_labels {
        canvas.add_node(l);
        ops.push(Op::Node(l));
    }
    for &(u, v) in &spec.edges {
        canvas
            .add_edge(u, v)
            .expect("derived specs are simple graphs");
        ops.push(Op::Edge(u, v));
    }
    canvas
}

/// The newest edge whose deletion keeps the query connected.
fn newest_deletable(canvas: &VisualQuery) -> Option<(u32, u32, u32)> {
    canvas
        .live_edges()
        .into_iter()
        .rev()
        .find(|&(e, _, _)| canvas.edge_is_deletable(e))
}

fn formulate_trace(spec: &QuerySpec, similar: bool) -> Trace {
    let mut ops = Vec::with_capacity(spec.node_labels.len() + spec.edges.len() + 6);
    let canvas = draw(spec, &mut ops);
    if similar {
        ops.push(Op::Similar);
    }
    ops.push(Op::Run);
    if !similar && spec.edges.len() >= 5 {
        if let Some((e, _, _)) = newest_deletable(&canvas) {
            ops.push(Op::Delete(e));
            ops.push(Op::Run);
        }
    }
    ops.push(Op::Close);
    Trace { ops }
}

/// Mirror `Session::relabel_node` on the canvas shadow so later `delete`
/// frames name the edge labels the server will have assigned.
fn shadow_relabel(canvas: &mut VisualQuery, node: u32, label: Label) {
    let incident: Vec<(u32, u32, u32)> = canvas
        .live_edges()
        .into_iter()
        .filter(|&(_, u, v)| u == node || v == node)
        .collect();
    for &(e, _, _) in &incident {
        canvas
            .delete_edge_unchecked(e)
            .expect("deleting a live edge");
    }
    canvas
        .set_node_label(node, label)
        .expect("node has no live edges now");
    for &(_, u, v) in &incident {
        canvas.add_edge(u, v).expect("re-drawing a deleted edge");
    }
}

/// Draw the query, then `EDIT_ROUNDS` × {`delete` a deletable edge, `run`,
/// re-draw it, `relabel` a node to another label, `relabel` it back,
/// `run`}. Both runs are on a query that has exact answers (the drawn one,
/// or it less one edge), so their cost does not depend on what the
/// relabelled query happens to match; the relabels still pay for the SPIG
/// rebuild and the candidate refresh of a query the user never runs.
fn edit_trace(spec: &QuerySpec, labels: u16, rng: &mut Rng) -> Trace {
    let mut ops = Vec::with_capacity(64);
    let mut canvas = draw(spec, &mut ops);
    for _ in 0..EDIT_ROUNDS {
        let live = canvas.live_edges();
        let deletable: Vec<(u32, u32, u32)> = live
            .iter()
            .copied()
            .filter(|&(e, _, _)| canvas.edge_is_deletable(e))
            .collect();
        let (_, node, _) = live[rng.below(live.len())];
        let degree = live
            .iter()
            .filter(|&&(_, u, v)| u == node || v == node)
            .count();
        // Every re-drawn edge takes a fresh label ℓ, and labels stop at 64.
        let newest = live.last().map_or(0, |e| e.0) as usize;
        if deletable.is_empty() || newest + 1 + 2 * degree > 64 {
            break;
        }
        let (e, u, v) = deletable[rng.below(deletable.len())];
        canvas.delete_edge(e).expect("edge is deletable");
        ops.push(Op::Delete(e));
        ops.push(Op::Run);
        canvas.add_edge(u, v).expect("re-drawing a deleted edge");
        ops.push(Op::Edge(u, v));
        let old = canvas.node_label(node).expect("node of a live edge");
        let other = Label((old.0 + 1 + rng.below(2) as u16) % labels.max(1));
        for label in [other, old] {
            shadow_relabel(&mut canvas, node, label);
            ops.push(Op::Relabel(node, label));
        }
        ops.push(Op::Run);
    }
    ops.push(Op::Close);
    Trace { ops }
}

/// Every frame of a pass as protocol text with session 0: what the
/// determinism test compares byte for byte.
#[cfg(test)]
pub fn render_all(traces: &[Trace]) -> String {
    let mut out = String::new();
    for t in traces {
        for op in &t.ops {
            op.render(0, &mut out);
        }
    }
    out
}
