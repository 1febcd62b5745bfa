//! The direct replay level: a trace executed through `Session` calls, with
//! no protocol and no manager in between.
//!
//! It serves two purposes. Rendered to the wire format, its results are the
//! replies the socket must give (the answer check). Timed, it is the level
//! below `handle_line` in the layered replay, so the manager's self time is
//! `handle_line` minus this, frame by frame.

use crate::script::{Op, Trace, SIGMA};
use prague::{PragueSystem, QueryResults, RunOutcome, Session, StepStatus};
use prague_graph::vf2::{is_subgraph_with_order, MatchOrder};
use prague_graph::{mccs, Graph, GraphDb, GraphId};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// What a `run` frame returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunInfo {
    pub similar: bool,
    pub results: usize,
}

/// Time inside one `Session::add_edge`, as the call itself reports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepParts {
    pub spig_ns: u64,
    pub candidates_ns: u64,
    pub suggest_ns: u64,
}

/// One frame executed directly.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The reply the service must give, up to (not including) the timing
    /// field that differs from call to call.
    pub expected: String,
    pub run: Option<RunInfo>,
    /// Wall time of the `Session` call.
    pub call_ns: u64,
    pub parts: Option<StepParts>,
    /// SPIG vertices after an `edge` frame.
    pub spig_vertices: usize,
    /// Live edges after an `edge` frame.
    pub query_size: usize,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn status_str(s: StepStatus) -> &'static str {
    match s {
        StepStatus::Frequent => "frequent",
        StepStatus::Infrequent => "infrequent",
        StepStatus::Similar => "similar",
    }
}

fn join_ids(ids: impl Iterator<Item = u32>, out: &mut String) {
    for (i, id) in ids.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
}

fn render_run(out: &RunOutcome) -> String {
    let mut s = String::from("{\"ok\":true,");
    match &out.results {
        QueryResults::Exact(ids) => {
            s.push_str("\"kind\":\"exact\",\"results\":[");
            join_ids(ids.iter().copied(), &mut s);
        }
        QueryResults::Similar(sim) => {
            s.push_str("\"kind\":\"similar\",\"results\":[");
            for (i, m) in sim.matches.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"graph\":{},\"distance\":{}}}",
                    m.graph_id, m.distance
                );
            }
        }
    }
    s.push_str("],\"srt_ns\":");
    s
}

/// Replay `trace` on a fresh session of `system`. `on_run` sees the session
/// and the outcome at every `run` frame (the brute-force check hooks in
/// there). Returns the frames and the candidate memo's size at close.
pub fn replay(
    system: &Arc<PragueSystem>,
    trace: &Trace,
    mut on_run: impl FnMut(&Session<'static>, &RunOutcome),
) -> (Vec<Frame>, usize) {
    let mut session = system.session_shared(SIGMA);
    let mut frames = Vec::with_capacity(trace.ops.len());
    for &op in &trace.ops {
        let mut frame = Frame {
            expected: String::new(),
            run: None,
            call_ns: 0,
            parts: None,
            spig_vertices: 0,
            query_size: 0,
        };
        let t = Instant::now();
        match op {
            Op::Open => frame.expected.push_str("{\"ok\":true,\"session\":"),
            Op::Node(l) => {
                let n = session.add_node(l);
                frame.call_ns = ns(t);
                let _ = write!(frame.expected, "{{\"ok\":true,\"node\":{n}}}");
            }
            Op::Edge(u, v) => {
                let out = session.add_edge(u, v).expect("scripted edge is valid");
                frame.call_ns = ns(t);
                frame.parts = Some(StepParts {
                    spig_ns: out.spig_time.as_nanos() as u64,
                    candidates_ns: out.candidate_time.as_nanos() as u64,
                    suggest_ns: out.suggest_time.as_nanos() as u64,
                });
                frame.spig_vertices = session.spigs().total_vertices();
                frame.query_size = session.query().size();
                let _ = write!(
                    frame.expected,
                    "{{\"ok\":true,\"edge\":{},\"status\":\"{}\",\"candidates\":{}",
                    out.edge,
                    status_str(out.status),
                    out.candidate_count
                );
                if let Some(sug) = &out.suggestion {
                    let _ = write!(frame.expected, ",\"suggested_edge\":{}", sug.edge);
                }
                frame.expected.push_str(",\"elapsed_ns\":");
            }
            Op::Similar => {
                let n = session
                    .choose_similarity()
                    .expect("similarity candidates resolve");
                frame.call_ns = ns(t);
                let _ = write!(frame.expected, "{{\"ok\":true,\"candidates\":{n}}}");
            }
            Op::Run => {
                let out = session.run().expect("scripted run has a query");
                frame.call_ns = ns(t);
                frame.run = Some(RunInfo {
                    similar: matches!(out.results, QueryResults::Similar(_)),
                    results: out.results.len(),
                });
                frame.expected = render_run(&out);
                on_run(&session, &out);
            }
            Op::Delete(e) => {
                let out = session
                    .delete_edges(&[e])
                    .expect("scripted delete is valid");
                frame.call_ns = ns(t);
                let _ = write!(
                    frame.expected,
                    "{{\"ok\":true,\"candidates\":{},\"elapsed_ns\":",
                    out.candidate_count
                );
            }
            Op::Relabel(n, l) => {
                let new_edges = session
                    .relabel_node(n, l)
                    .expect("scripted relabel is valid");
                frame.call_ns = ns(t);
                frame.expected.push_str("{\"ok\":true,\"new_edges\":[");
                join_ids(new_edges.iter().copied(), &mut frame.expected);
                frame.expected.push_str("]}");
            }
            Op::Close => frame.expected.push_str("{\"ok\":true,\"closed\":true}"),
        }
        frames.push(frame);
    }
    let memo_bytes = session.memo().bytes();
    (frames, memo_bytes)
}

/// The answer a scan of the whole database gives: every graph `q` embeds
/// in, or — when there is none, or the session is in similarity mode —
/// every graph within distance σ of `q`.
pub fn brute_force(q: &Graph, db: &GraphDb, similar: bool) -> (bool, Vec<GraphId>) {
    if !similar {
        let order = MatchOrder::new(q);
        let exact: Vec<GraphId> = db
            .iter()
            .filter(|(_, g)| is_subgraph_with_order(q, g, &order))
            .map(|(id, _)| id)
            .collect();
        if !exact.is_empty() {
            return (false, exact);
        }
    }
    // PRAGUE's similarity levels stop at one common edge, so a graph that
    // shares nothing with the query is never an answer.
    let sigma = SIGMA.min(q.edge_count().saturating_sub(1));
    let near = db
        .iter()
        .filter(|(_, g)| mccs::within_distance(q, g, sigma).expect("queries have at most 64 edges"))
        .map(|(id, _)| id)
        .collect();
    (true, near)
}

/// Whether `out` is the answer [`brute_force`] gives for the session's
/// current query.
pub fn matches_brute_force(session: &Session<'static>, out: &RunOutcome, db: &GraphDb) -> bool {
    let (similar, mut want) = brute_force(session.query().graph(), db, session.is_similarity());
    let mut got = match &out.results {
        QueryResults::Exact(ids) if !similar => ids.clone(),
        QueryResults::Similar(sim) if similar => sim.ids(),
        _ => return false,
    };
    got.sort_unstable();
    want.sort_unstable();
    got == want
}
