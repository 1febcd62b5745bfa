//! Service-layer integration: the multi-session query service must be a
//! transparent multiplexer over single-user sessions.
//!
//! Four angles, mirroring the service contract in ARCHITECTURE.md
//! § "Service layer":
//!
//! * **cross-session determinism** (proptest): N sessions replaying N
//!   edit scripts *concurrently* through the manager — protocol frames,
//!   OS interleaving, fair-gate admission and all — observe exactly the
//!   per-step statuses, candidate counts, suggestions, results, and
//!   total `verify.vf2_states` of the same N scripts replayed
//!   *sequentially* on plain borrowed `Session`s;
//! * **protocol robustness**: a storm of malformed, oversized, and
//!   abruptly-disconnected TCP connections produces typed error frames
//!   and clean teardown — never a panic, never a leaked session, and
//!   `par.poisoned == 0` afterwards;
//! * **fairness**: a 12-edge heavy session hammering the shared pool
//!   cannot starve 32 light sessions out of interactive step latency;
//! * **docs drift**: the `srv-names` table in ARCHITECTURE.md matches
//!   `prague_obs::names::SRV_ALL`, and live service traffic emits only
//!   documented `srv.*` metrics.

use prague::session::{Session, StepStatus};
use prague::{PragueSystem, QueryResults, SystemParams};
use prague_datagen::{derive_containment_query, MoleculeConfig, QuerySpec};
use prague_graph::{Graph, GraphDb, Label, NodeId};
use prague_obs::json::{self, Value};
use prague_obs::{names, Obs};
use prague_server::{Server, ServerConfig, SessionManager, SystemClock, FRAME_BURST, FRAME_RATE};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// shared fixtures (same shapes as integration_par.rs)
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
    proptest::collection::vec(connected_graph(6, 3), 4..10).prop_map(GraphDb::from_graphs)
}

/// A query spec from a random connected graph, edges in connected growth
/// order.
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

fn build(db: GraphDb) -> PragueSystem {
    PragueSystem::build(
        db,
        SystemParams {
            alpha: 0.3,
            beta: 2,
            max_fragment_edges: 6,
            ..Default::default()
        },
    )
    .expect("builds")
}

/// Molecule fixture mined shallow so multi-edge queries always verify on
/// the shared pool.
fn shallow_molecule_system(threads: usize) -> PragueSystem {
    let ds = prague_datagen::molecules_generate(&MoleculeConfig {
        graphs: 150,
        seed: 0x0B51,
        ..Default::default()
    });
    let mut system = PragueSystem::build_with_labels(
        ds.db,
        ds.labels,
        SystemParams {
            alpha: 0.1,
            beta: 2,
            max_fragment_edges: 3,
            ..Default::default()
        },
    )
    .expect("system builds");
    system.set_obs(Obs::enabled());
    if threads > 1 {
        system.set_threads(threads);
    }
    system
}

// ---------------------------------------------------------------------------
// response parsing helpers
// ---------------------------------------------------------------------------

fn parsed(line: &str) -> Value {
    json::parse(line).unwrap_or_else(|e| panic!("response not valid JSON ({e}): {line}"))
}

fn field_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field '{key}' in {v:?}")) as u64
}

fn field_str(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field '{key}' in {v:?}"))
        .to_owned()
}

fn assert_ok(v: &Value, line: &str) {
    let ok = match v.get("ok") {
        Some(Value::Bool(b)) => *b,
        _ => false,
    };
    assert!(ok, "frame not ok: {line}");
}

// ---------------------------------------------------------------------------
// cross-session determinism (the differential proptest)
// ---------------------------------------------------------------------------

/// Everything a replayed script makes observable through the protocol,
/// with timing fields excluded.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// Per edge step: (status, candidate count, suggested edge if any).
    steps: Vec<(String, u64, Option<u64>)>,
    /// Per Run (one after every edge): (kind, results). Exact matches
    /// carry distance 0.
    runs: Vec<(String, Vec<(u64, u64)>)>,
}

fn status_name(s: StepStatus) -> &'static str {
    match s {
        StepStatus::Frequent => "frequent",
        StepStatus::Infrequent => "infrequent",
        StepStatus::Similar => "similar",
    }
}

/// Reference replay: a plain borrowed session, no service in sight.
fn replay_plain(session: &mut Session<'_>, spec: &QuerySpec) -> Trace {
    let mut trace = Trace {
        steps: Vec::new(),
        runs: Vec::new(),
    };
    let nodes: Vec<_> = spec
        .node_labels
        .iter()
        .map(|&l| session.add_node(l))
        .collect();
    for &(u, v) in &spec.edges {
        let step = session
            .add_edge(nodes[u as usize], nodes[v as usize])
            .expect("spec edges are valid");
        trace.steps.push((
            status_name(step.status).to_owned(),
            step.candidate_count as u64,
            step.suggestion.as_ref().map(|s| u64::from(s.edge)),
        ));
        let outcome = session.run().expect("runnable mid-formulation");
        let (kind, results) = match outcome.results {
            QueryResults::Exact(ids) => (
                "exact".to_owned(),
                ids.iter().map(|&g| (u64::from(g), 0)).collect(),
            ),
            QueryResults::Similar(sim) => (
                "similar".to_owned(),
                sim.matches
                    .iter()
                    .map(|m| (u64::from(m.graph_id), m.distance as u64))
                    .collect(),
            ),
        };
        trace.runs.push((kind, results));
    }
    trace
}

/// Service replay: the same script through protocol frames against the
/// shared manager.
fn replay_service(mgr: &SessionManager, spec: &QuerySpec, sigma: usize) -> Trace {
    let mut trace = Trace {
        steps: Vec::new(),
        runs: Vec::new(),
    };
    let open = mgr.handle_line(&format!("{{\"op\":\"open\",\"sigma\":{sigma}}}"), None);
    let open_v = parsed(&open);
    assert_ok(&open_v, &open);
    let sid = field_u64(&open_v, "session");
    for (i, &l) in spec.node_labels.iter().enumerate() {
        let resp = mgr.handle_line(
            &format!("{{\"op\":\"node\",\"session\":{sid},\"label\":{}}}", l.0),
            None,
        );
        let v = parsed(&resp);
        assert_ok(&v, &resp);
        assert_eq!(field_u64(&v, "node"), i as u64, "canvas ids are dense");
    }
    for &(u, v) in &spec.edges {
        let resp = mgr.handle_line(
            &format!("{{\"op\":\"edge\",\"session\":{sid},\"u\":{u},\"v\":{v}}}"),
            None,
        );
        let ev = parsed(&resp);
        assert_ok(&ev, &resp);
        trace.steps.push((
            field_str(&ev, "status"),
            field_u64(&ev, "candidates"),
            ev.get("suggested_edge")
                .and_then(Value::as_f64)
                .map(|f| f as u64),
        ));
        let run = mgr.handle_line(&format!("{{\"op\":\"run\",\"session\":{sid}}}"), None);
        let rv = parsed(&run);
        assert_ok(&rv, &run);
        let results = rv
            .get("results")
            .and_then(Value::as_array)
            .expect("run carries results")
            .iter()
            .map(|m| match m {
                Value::Number(id) => (*id as u64, 0u64),
                obj => (field_u64(obj, "graph"), field_u64(obj, "distance")),
            })
            .collect();
        trace.runs.push((field_str(&rv, "kind"), results));
    }
    let close = mgr.handle_line(&format!("{{\"op\":\"close\",\"session\":{sid}}}"), None);
    assert_ok(&parsed(&close), &close);
    trace
}

fn vf2_states(obs: &Obs) -> u64 {
    obs.snapshot()
        .expect("obs enabled")
        .counter(names::VERIFY_VF2_STATES)
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole differential: concurrent multi-session service
    /// replay ≡ sequential single-session replay, per step and in total
    /// VF2 accounting, at 1 and 4 verification threads.
    #[test]
    fn concurrent_sessions_match_sequential_replay(
        db in small_db(),
        specs in proptest::collection::vec(query_spec(), 2..5),
        sigma in 1usize..3,
    ) {
        for threads in [1usize, 4] {
            let mut system = build(db.clone());
            if threads > 1 {
                system.set_threads(threads);
            }

            // Phase 1 — sequential reference on borrowed sessions.
            let seq_obs = Obs::enabled();
            system.set_obs(seq_obs.clone());
            let mut expected = Vec::with_capacity(specs.len());
            for spec in &specs {
                let mut session = system.session(sigma);
                expected.push(replay_plain(&mut session, spec));
            }
            let seq_states = vf2_states(&seq_obs);

            // Phase 2 — the same scripts, concurrently, through the
            // service (protocol frames, fair gate, shared Arc system).
            let srv_obs = Obs::enabled();
            system.set_obs(srv_obs.clone());
            let mgr = SessionManager::new(
                Arc::new(system),
                ServerConfig::default(),
                Arc::new(SystemClock::new()),
            );
            let got: Vec<Trace> = std::thread::scope(|scope| {
                let handles: Vec<_> = specs
                    .iter()
                    .map(|spec| scope.spawn(|| replay_service(&mgr, spec, sigma)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread"))
                    .collect()
            });
            let srv_states = vf2_states(&srv_obs);

            prop_assert_eq!(
                &got, &expected,
                "service traces diverged from sequential replay at {} threads", threads
            );
            prop_assert_eq!(
                srv_states, seq_states,
                "vf2 accounting diverged at {} threads", threads
            );
            prop_assert_eq!(mgr.session_count(), 0, "all sessions closed");
        }
    }
}

// ---------------------------------------------------------------------------
// protocol robustness over TCP
// ---------------------------------------------------------------------------

fn service(threads: usize, cfg: ServerConfig) -> Arc<SessionManager> {
    Arc::new(SessionManager::new(
        Arc::new(shallow_molecule_system(threads)),
        cfg,
        Arc::new(SystemClock::new()),
    ))
}

/// One frame, one `write`: the terminator travels with the body, so the
/// frame is never split into two segments with Nagle holding the second
/// until the server's delayed ACK.
fn send_line(stream: &mut TcpStream, line: &str) {
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    stream.write_all(frame.as_bytes()).expect("client write");
}

/// Read one reply exactly as it came off the socket, terminator included.
fn read_raw(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("client read");
    line
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    read_raw(reader).trim().to_owned()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn malformed_and_hostile_connections_get_typed_errors_and_clean_teardown() {
    let mgr = service(2, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let addr = server.local_addr();

    // A storm of malformed frames on one connection: every one gets a
    // typed error frame and the connection stays usable throughout.
    let (mut stream, mut reader) = connect(addr);
    let hostile: &[(&str, &str)] = &[
        ("this is not json", "bad_json"),
        ("{\"op\":\"warp\"}", "unknown_op"),
        ("{}", "bad_frame"),
        ("[1,2,3]", "bad_frame"),
        ("\"just a string\"", "bad_frame"),
        ("{\"op\":\"edge\",\"session\":1,\"u\":0}", "bad_frame"),
        ("{\"op\":\"run\",\"session\":424242}", "unknown_session"),
        ("{\"op\":\"open\",\"sigma\":-3}", "bad_frame"),
        (
            "{\"op\":\"node\",\"session\":1,\"label\":\"C\"}",
            "bad_frame",
        ),
        ("{\"op\":\"run\",\"session\":1e40}", "bad_frame"),
    ];
    for &(frame, code) in hostile {
        send_line(&mut stream, frame);
        let resp = read_line(&mut reader);
        let v = parsed(&resp);
        assert_eq!(field_str(&v, "error"), code, "for frame {frame}: {resp}");
    }
    // A nesting bomb inside the line cap: 16k `[`s must come back as
    // one typed bad_json frame (the parser's depth cap), not recurse
    // the connection thread's stack into an abort.
    let bomb = "[".repeat(16 * 1024);
    send_line(&mut stream, &bomb);
    let resp = read_line(&mut reader);
    assert_eq!(field_str(&parsed(&resp), "error"), "bad_json", "{resp}");
    // ... and a valid frame on the same connection still works.
    send_line(&mut stream, "{\"op\":\"ping\"}");
    let pong = read_line(&mut reader);
    assert_ok(&parsed(&pong), &pong);
    drop(stream);

    // An unterminated line one byte over the cap: one line_too_long
    // frame, then the server hangs up (EOF on the client side). Exactly
    // MAX_LINE + 1 bytes so the server has drained everything we sent
    // before it closes — the FIN, and the error frame, arrive cleanly.
    let (mut stream, mut reader) = connect(addr);
    let garbage = vec![b'x'; prague_server::MAX_LINE + 1];
    stream.write_all(&garbage).expect("oversized write");
    stream.flush().expect("flush");
    let resp = read_line(&mut reader);
    assert_eq!(field_str(&parsed(&resp), "error"), "line_too_long");
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server must close after an oversized line");
    drop(stream);

    // A newline-*terminated* line one byte over the cap: same documented
    // contract — one line_too_long frame, then the server hangs up.
    // (If the kernel happens to fragment delivery so the cap is crossed
    // before the newline arrives, the unterminated path answers instead;
    // both reply line_too_long and close, but a close with unread bytes
    // can RST the frame away — so the frame is asserted only when it
    // arrives, the closure always.)
    let (mut stream, mut reader) = connect(addr);
    let mut long_line = vec![b'x'; prague_server::MAX_LINE + 1];
    long_line.push(b'\n');
    stream.write_all(&long_line).expect("oversized write");
    stream.flush().expect("flush");
    let mut first = String::new();
    if reader.read_line(&mut first).is_ok() && !first.trim().is_empty() {
        assert_eq!(field_str(&parsed(first.trim()), "error"), "line_too_long");
    }
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(
        n, 0,
        "server must close after a terminated oversized line too"
    );
    drop(stream);

    // Mid-verify disconnect: a 4-edge carbon chain is never an indexed
    // fragment here (shallow mining), so a speculative verify batch is
    // in flight on the pool — then the client vanishes without a close
    // frame. The transport must close the session, whose drop cancels
    // the batch.
    let (mut stream, mut reader) = connect(addr);
    send_line(&mut stream, "{\"op\":\"open\"}");
    let open = read_line(&mut reader);
    let sid = field_u64(&parsed(&open), "session");
    for _ in 0..5 {
        send_line(
            &mut stream,
            &format!("{{\"op\":\"node\",\"session\":{sid},\"name\":\"C\"}}"),
        );
        read_line(&mut reader);
    }
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4)] {
        send_line(
            &mut stream,
            &format!("{{\"op\":\"edge\",\"session\":{sid},\"u\":{u},\"v\":{v}}}"),
        );
        let resp = read_line(&mut reader);
        assert_ok(&parsed(&resp), &resp);
    }
    assert_eq!(mgr.session_count(), 1);
    drop((stream, reader)); // abrupt: no close frame (both fd clones!)
    wait_until("abandoned session reaped", || mgr.session_count() == 0);

    // Half-close: open a session, shut down the write side only. The
    // server sees EOF and tears the connection's sessions down.
    let (stream, mut reader) = connect(addr);
    let mut writer = stream.try_clone().expect("clone");
    send_line(&mut writer, "{\"op\":\"open\"}");
    let open = read_line(&mut reader);
    assert_ok(&parsed(&open), &open);
    assert_eq!(mgr.session_count(), 1);
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    wait_until("half-closed session reaped", || mgr.session_count() == 0);
    drop(stream);

    // After the storm: a fresh connection runs a full happy path …
    let (mut stream, mut reader) = connect(addr);
    send_line(&mut stream, "{\"op\":\"open\"}");
    let sid = field_u64(&parsed(&read_line(&mut reader)), "session");
    for name in ["C", "C", "C"] {
        send_line(
            &mut stream,
            &format!("{{\"op\":\"node\",\"session\":{sid},\"name\":\"{name}\"}}"),
        );
        read_line(&mut reader);
    }
    for (u, v) in [(0u32, 1u32), (1, 2)] {
        send_line(
            &mut stream,
            &format!("{{\"op\":\"edge\",\"session\":{sid},\"u\":{u},\"v\":{v}}}"),
        );
        let resp = read_line(&mut reader);
        assert_ok(&parsed(&resp), &resp);
    }
    send_line(
        &mut stream,
        &format!("{{\"op\":\"run\",\"session\":{sid}}}"),
    );
    let run = read_line(&mut reader);
    let rv = parsed(&run);
    assert_ok(&rv, &run);
    assert_eq!(field_str(&rv, "kind"), "exact", "{run}");
    send_line(
        &mut stream,
        &format!("{{\"op\":\"close\",\"session\":{sid}}}"),
    );
    let close = read_line(&mut reader);
    assert_ok(&parsed(&close), &close);

    // … and nothing was poisoned or leaked along the way.
    let snap = mgr.system().obs().snapshot().expect("obs enabled");
    assert_eq!(
        snap.counter(names::PAR_POISONED).unwrap_or(0),
        0,
        "the storm must not poison any lock"
    );
    assert!(snap.counter(names::SRV_FRAME_ERRORS).unwrap_or(0) >= hostile.len() as u64);
    assert_eq!(mgr.session_count(), 0);
    let stats = mgr.lifecycle_stats();
    assert_eq!(
        stats.opened, stats.closed,
        "every opened session was closed"
    );
    server.shutdown();
}

#[test]
fn sessions_are_connection_scoped() {
    let mgr = service(1, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let addr = server.local_addr();

    let (mut conn_a, mut reader_a) = connect(addr);
    send_line(&mut conn_a, "{\"op\":\"open\"}");
    let open = read_line(&mut reader_a);
    let sid = field_u64(&parsed(&open), "session");

    // Another connection guesses the (sequential) id: every session-
    // addressed op — close included — is answered as if the session did
    // not exist, so it can neither observe nor destroy A's state.
    let (mut conn_b, mut reader_b) = connect(addr);
    for frame in [
        format!("{{\"op\":\"node\",\"session\":{sid},\"name\":\"C\"}}"),
        format!("{{\"op\":\"run\",\"session\":{sid}}}"),
        format!("{{\"op\":\"close\",\"session\":{sid}}}"),
    ] {
        send_line(&mut conn_b, &frame);
        let resp = read_line(&mut reader_b);
        assert_eq!(
            field_str(&parsed(&resp), "error"),
            "unknown_session",
            "for frame {frame}: {resp}"
        );
    }
    // B can still open and use its own session …
    send_line(&mut conn_b, "{\"op\":\"open\"}");
    let b_open = read_line(&mut reader_b);
    let b_sid = field_u64(&parsed(&b_open), "session");
    assert_ne!(b_sid, sid);
    send_line(
        &mut conn_b,
        &format!("{{\"op\":\"node\",\"session\":{b_sid},\"name\":\"C\"}}"),
    );
    let resp = read_line(&mut reader_b);
    assert_ok(&parsed(&resp), &resp);

    // … and A's session survived the probing, still usable by A.
    assert!(mgr.is_live(sid));
    send_line(
        &mut conn_a,
        &format!("{{\"op\":\"node\",\"session\":{sid},\"name\":\"C\"}}"),
    );
    let resp = read_line(&mut reader_a);
    assert_ok(&parsed(&resp), &resp);
    send_line(
        &mut conn_a,
        &format!("{{\"op\":\"close\",\"session\":{sid}}}"),
    );
    let close = read_line(&mut reader_a);
    assert_ok(&parsed(&close), &close);
    drop((conn_a, reader_a, conn_b, reader_b));
    server.shutdown();
}

#[test]
fn connection_cap_refuses_extra_connections_with_a_typed_frame() {
    let mgr = service(
        1,
        ServerConfig {
            max_conns: 1,
            ..Default::default()
        },
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let addr = server.local_addr();

    // First connection: admitted, live (the pong proves its thread is
    // registered with the accept loop before we try the second one).
    let (mut one, mut reader_one) = connect(addr);
    send_line(&mut one, "{\"op\":\"ping\"}");
    let pong = read_line(&mut reader_one);
    assert_ok(&parsed(&pong), &pong);

    // Second connection: refused with one typed frame, then EOF.
    let (_two, mut reader_two) = connect(addr);
    let resp = read_line(&mut reader_two);
    assert_eq!(field_str(&parsed(&resp), "error"), "too_many_connections");
    let mut rest = Vec::new();
    let n = reader_two.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "refused connection must be closed");

    // Dropping the admitted connection frees its slot (the accept loop
    // reaps finished threads on the next accept).
    drop((one, reader_one));
    wait_until("freed connection slot admits a newcomer", || {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return false;
        };
        if s.set_read_timeout(Some(Duration::from_secs(5))).is_err() {
            return false;
        }
        let mut r = BufReader::new(match s.try_clone() {
            Ok(c) => c,
            Err(_) => return false,
        });
        if s.write_all(b"{\"op\":\"ping\"}\n").is_err() {
            return false;
        }
        let mut line = String::new();
        r.read_line(&mut line).ok();
        line.contains("\"pong\":true")
    });
    server.shutdown();
}

// ---------------------------------------------------------------------------
// the reply path: one buffer, one write per read
// ---------------------------------------------------------------------------

/// `reply` with the digits of its timing field (`elapsed_ns` / `srt_ns`,
/// the only bytes of a reply that differ between two replays) removed.
fn untimed(reply: &str) -> String {
    let mut out = reply.to_owned();
    for key in ["\"elapsed_ns\":", "\"srt_ns\":"] {
        if let Some(at) = out.find(key) {
            let from = at + key.len();
            let digits = out[from..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(from..from + digits, "");
        }
    }
    out
}

#[test]
fn ping_round_trip_over_loopback_is_not_stalled_by_the_transport() {
    let mgr = service(1, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let (mut stream, mut reader) = connect(server.local_addr());
    let mut round_trips: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            send_line(&mut stream, "{\"op\":\"ping\"}");
            let pong = read_raw(&mut reader);
            let took = t0.elapsed();
            assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
            took
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    // A reply sent as body-then-newline without TCP_NODELAY waits for the
    // client's delayed ACK: 40 ms and up on every frame. Handling a ping
    // takes microseconds, so anything near that is the transport.
    assert!(
        median < Duration::from_millis(5),
        "median ping round trip {median:?}: replies are stalling in the transport"
    );
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn a_connection_past_its_burst_is_answered_at_the_sustained_rate() {
    let mgr = service(1, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let (mut stream, mut reader) = connect(server.local_addr());
    let mut pings = |n: u32| {
        let t0 = Instant::now();
        for _ in 0..n {
            send_line(&mut stream, "{\"op\":\"ping\"}");
            assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"pong\":true}\n");
        }
        t0.elapsed()
    };
    let at_rate = |n: u32| Duration::from_secs(1) * n / FRAME_RATE;

    // The burst allowance is answered as fast as it is handled …
    let burst = pings(FRAME_BURST);
    assert!(
        burst < at_rate(FRAME_BURST) / 2,
        "{FRAME_BURST} pings took {burst:?}: the burst is being paced"
    );
    // … and a client that keeps going without a pause gets FRAME_RATE
    // frames a second: no faster, and — the schedule being absolute, so
    // late wake-ups do not add up — not much slower either.
    let paced = pings(50);
    assert!(
        paced >= at_rate(50) * 9 / 10 && paced < at_rate(50) * 3,
        "50 pings past the burst took {paced:?}, {:?} at the sustained rate",
        at_rate(50)
    );
    // Time without frames is credit: after 300 ms, 20 frames go straight
    // through again.
    std::thread::sleep(Duration::from_millis(300));
    let after_lull = pings(20);
    assert!(
        after_lull < at_rate(20) / 2,
        "20 pings after a lull took {after_lull:?}"
    );
    drop((stream, reader));
    server.shutdown();

    // The holds are on the server's own books, apart from handling and
    // transport: about one per paced frame, adding up to the paced time.
    let snap = mgr.system().obs().snapshot().expect("obs enabled");
    let held = snap
        .histogram(names::SRV_PACE_NS)
        .expect("holds are metered");
    assert!((40..=60).contains(&held.count), "{} holds", held.count);
    let sum = Duration::from_nanos(held.sum);
    assert!(
        sum <= paced && sum >= paced / 2,
        "held {sum:?} of {paced:?}"
    );
}

#[test]
fn pipelined_and_split_frames_are_answered_once_each_in_order() {
    let mgr = service(1, ServerConfig::default());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let (mut stream, mut reader) = connect(server.local_addr());

    // Three frames in one write: three replies, in request order.
    stream
        .write_all(
            b"{\"op\":\"open\"}\n{\"op\":\"node\",\"session\":1,\"name\":\"C\"}\n{\"op\":\"stats\"}\n",
        )
        .expect("pipelined write");
    assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"session\":1}\n");
    assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"node\":0}\n");
    let stats = read_raw(&mut reader);
    assert!(stats.contains("\"sessions\":1"), "{stats}");

    // One frame split mid-line across two writes (the first flushed onto
    // the wire before the second is sent): answered once, when complete,
    // and a frame glued behind its tail is answered after it.
    stream
        .write_all(b"{\"op\":\"node\",\"sess")
        .expect("first half");
    std::thread::sleep(Duration::from_millis(50));
    stream
        .write_all(b"ion\":1,\"name\":\"C\"}\n{\"op\":\"ping\"}\n")
        .expect("second half");
    assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"node\":1}\n");
    assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"pong\":true}\n");

    // Nothing else is in flight: the next reply is the next frame's.
    send_line(&mut stream, "{\"op\":\"close\",\"session\":1}");
    let closed = read_raw(&mut reader);
    assert_eq!(closed, "{\"ok\":true,\"closed\":true}\n");
    drop((stream, reader));
    server.shutdown();

    // The write meter saw every byte the client read, in fewer writes
    // than there were frames (six frames, at most four reads).
    let snap = mgr.system().obs().snapshot().expect("obs enabled");
    let bytes = snap
        .histogram(names::SRV_REPLY_BYTES)
        .expect("reply writes are metered");
    let read = "{\"ok\":true,\"session\":1}\n{\"ok\":true,\"node\":0}\n{\"ok\":true,\"node\":1}\n{\"ok\":true,\"pong\":true}\n"
        .len()
        + stats.len()
        + closed.len();
    assert_eq!(bytes.sum, read as u64);
    assert!(bytes.count < 6, "{} writes for 6 frames", bytes.count);
    let write_ns = snap
        .histogram(names::SRV_WRITE_NS)
        .expect("reply writes are timed");
    assert_eq!(write_ns.count, bytes.count);
}

/// The reply rendering of the parent commit (`Vec<String>` + `join`
/// inside nested `format!`s), kept here as the reference the streamed
/// rendering must reproduce byte for byte.
fn joined_run_reply(reply: &Value) -> String {
    let results = reply
        .get("results")
        .and_then(Value::as_array)
        .expect("run carries results");
    let kind = field_str(reply, "kind");
    let rendered: Vec<String> = results
        .iter()
        .map(|m| match m {
            Value::Number(id) => (*id as u64).to_string(),
            obj => format!(
                "{{\"graph\":{},\"distance\":{}}}",
                field_u64(obj, "graph"),
                field_u64(obj, "distance")
            ),
        })
        .collect();
    format!(
        "{{\"ok\":true,\"kind\":\"{kind}\",\"results\":[{}],\"srt_ns\":{}}}",
        rendered.join(","),
        field_u64(reply, "srt_ns")
    )
}

#[test]
fn a_run_reply_larger_than_64_kib_arrives_intact() {
    // 16 000 copies of one C-S edge: the one-edge query matches them all,
    // so the reply lists 16 000 ids — about 90 KiB, past the line cap
    // that bounds *requests* and past any one socket buffer write.
    const GRAPHS: usize = 16_000;
    let mut edge = Graph::new();
    let (c, s) = (edge.add_node(Label(0)), edge.add_node(Label(1)));
    edge.add_edge(c, s).expect("distinct endpoints");
    let db = GraphDb::from_graphs(vec![edge; GRAPHS]);
    let mgr = Arc::new(SessionManager::new(
        Arc::new(build(db)),
        ServerConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&mgr)).expect("bind");
    let (mut stream, mut reader) = connect(server.local_addr());
    for frame in [
        "{\"op\":\"open\"}",
        "{\"op\":\"node\",\"session\":1,\"label\":0}",
        "{\"op\":\"node\",\"session\":1,\"label\":1}",
        "{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":1}",
    ] {
        send_line(&mut stream, frame);
        let resp = read_line(&mut reader);
        assert_ok(&parsed(&resp), &resp);
    }
    send_line(&mut stream, "{\"op\":\"run\",\"session\":1}");
    let raw = read_raw(&mut reader);
    assert!(raw.len() > 64 * 1024, "reply is only {} bytes", raw.len());
    let run = raw.strip_suffix('\n').expect("terminated");
    assert!(!run.contains('\n'), "one reply, one line");
    let rv = parsed(run);
    assert_ok(&rv, &run[..80]);
    let ids: Vec<u64> = rv
        .get("results")
        .and_then(Value::as_array)
        .expect("run carries results")
        .iter()
        .map(|v| v.as_f64().expect("exact results are ids") as u64)
        .collect();
    assert_eq!(ids, (0..GRAPHS as u64).collect::<Vec<_>>());
    assert_eq!(run, joined_run_reply(&rv), "rendering drifted");

    // Four of them pipelined: more output than the server buffers for
    // one read, so it is written out in parts — still whole, in order.
    let four = "{\"op\":\"run\",\"session\":1}\n".repeat(4);
    stream.write_all(four.as_bytes()).expect("pipelined runs");
    for _ in 0..4 {
        assert_eq!(untimed(&read_raw(&mut reader)), untimed(&raw));
    }
    send_line(&mut stream, "{\"op\":\"ping\"}");
    assert_eq!(read_raw(&mut reader), "{\"ok\":true,\"pong\":true}\n");
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn socket_bytes_equal_handle_line_for_every_op_and_error_kind() {
    // Two managers over one system: the same frames produce the same
    // session ids and the same state, one behind a socket, one called
    // directly. Every reply must be `handle_line`'s return value plus
    // one newline — nothing reordered, merged, dropped or re-rendered.
    let cfg = ServerConfig {
        max_sessions: 2,
        max_conns: 1,
        ..Default::default()
    };
    let system = Arc::new(shallow_molecule_system(1));
    let manager = |cfg: &ServerConfig| {
        Arc::new(SessionManager::new(
            Arc::clone(&system),
            cfg.clone(),
            Arc::new(SystemClock::new()),
        ))
    };
    let direct = manager(&cfg);
    let served = manager(&cfg);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&served)).expect("bind");
    let (mut stream, mut reader) = connect(server.local_addr());
    let mut owned = prague_server::ConnSessions::new();

    // (frame, the reply's "error" code or "" for ok)
    let script: &[(&str, &str)] = &[
        ("{\"op\":\"ping\"}", ""),
        ("{\"op\":\"stats\"}", ""),
        ("{\"op\":\"open\",\"sigma\":2}", ""),
        ("{\"op\":\"open\"}", ""),
        ("{\"op\":\"open\"}", "server_full"),
        ("{\"op\":\"close\",\"session\":2}", ""),
        ("{\"op\":\"close\",\"session\":2}", "unknown_session"),
        ("{\"op\":\"run\",\"session\":1}", "query_error"),
        ("{\"op\":\"node\",\"session\":1,\"name\":\"C\"}", ""),
        ("{\"op\":\"node\",\"session\":1,\"name\":\"C\"}", ""),
        ("{\"op\":\"node\",\"session\":1,\"name\":\"C\"}", ""),
        ("{\"op\":\"node\",\"session\":1,\"name\":\"C\"}", ""),
        ("{\"op\":\"node\",\"session\":1,\"label\":0}", ""),
        (
            "{\"op\":\"node\",\"session\":1,\"name\":\"Qq\"}",
            "unknown_label",
        ),
        ("{\"op\":\"node\",\"session\":1}", "bad_frame"),
        ("{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":1}", ""),
        (
            "{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":1}",
            "query_error",
        ),
        (
            "{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":77}",
            "query_error",
        ),
        ("{\"op\":\"edge\",\"session\":1,\"u\":1,\"v\":2}", ""),
        ("{\"op\":\"edge\",\"session\":1,\"u\":2,\"v\":3}", ""),
        ("{\"op\":\"edge\",\"session\":1,\"u\":3,\"v\":4}", ""),
        ("{\"op\":\"run\",\"session\":1}", ""),
        ("{\"op\":\"delete\",\"session\":1,\"edge\":4}", ""),
        (
            "{\"op\":\"delete\",\"session\":1,\"edges\":[99]}",
            "query_error",
        ),
        (
            "{\"op\":\"relabel\",\"session\":1,\"node\":1,\"label\":1}",
            "",
        ),
        (
            "{\"op\":\"relabel\",\"session\":1,\"node\":1,\"label\":0}",
            "",
        ),
        (
            "{\"op\":\"relabel\",\"session\":1,\"node\":99,\"label\":0}",
            "query_error",
        ),
        ("{\"op\":\"run\",\"session\":1}", ""),
        ("{\"op\":\"similar\",\"session\":1}", ""),
        ("{\"op\":\"run\",\"session\":1}", ""),
        ("{\"op\":\"stats\"}", ""),
        ("{\"op\":\"warp\"}", "unknown_op"),
        ("this is not json", "bad_json"),
        ("", "bad_json"),
        ("{\"op\":\"run\",\"session\":424242}", "unknown_session"),
        ("{\"op\":\"close\",\"session\":1}", ""),
    ];
    let mut kinds = std::collections::BTreeSet::new();
    for &(frame, code) in script {
        let expected = direct.handle_line(frame, Some(&mut owned));
        send_line(&mut stream, frame);
        let raw = read_raw(&mut reader);
        assert_eq!(
            untimed(&raw),
            untimed(&expected) + "\n",
            "for frame {frame}"
        );
        let v = parsed(raw.trim_end());
        let got = v.get("error").and_then(Value::as_str).unwrap_or("");
        assert_eq!(got, code, "for frame {frame}: {raw}");
        if let Some(kind) = v.get("kind").and_then(Value::as_str) {
            kinds.insert(kind.to_owned());
            assert_eq!(raw.trim_end(), joined_run_reply(&v), "rendering drifted");
        }
        if let Some(edges) = v.get("new_edges").and_then(Value::as_array) {
            let joined: Vec<String> = edges
                .iter()
                .map(|e| (e.as_f64().expect("edge ids") as u64).to_string())
                .collect();
            assert_eq!(
                raw.trim_end(),
                format!("{{\"ok\":true,\"new_edges\":[{}]}}", joined.join(","))
            );
        }
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["exact", "similar"],
        "the script must see both run kinds"
    );

    // `too_many_connections`: the scripted connection holds the only slot.
    let (_refused, mut refused_reader) = connect(server.local_addr());
    assert_eq!(
        read_raw(&mut refused_reader),
        "{\"ok\":false,\"error\":\"too_many_connections\",\"message\":\"connection limit reached\"}\n"
    );

    // `line_too_long`, terminated: what `handle_line` says about the same
    // line, then the hang-up. (When the kernel delivers the line so that
    // the cap is crossed before its newline has been read, the
    // unterminated path answers instead and its close can reset the
    // frame away — so the bytes are asserted when they arrive.)
    let long = "x".repeat(prague_server::MAX_LINE + 1);
    let expected = direct.handle_line(&long, Some(&mut owned)) + "\n";
    let unterminated =
        "{\"ok\":false,\"error\":\"line_too_long\",\"message\":\"frame exceeds the line cap\"}\n";
    send_line(&mut stream, &long);
    let mut raw = String::new();
    if reader.read_line(&mut raw).is_ok() && !raw.is_empty() {
        assert!(raw == expected || raw == unterminated, "{raw}");
    }
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap_or(0), 0, "hang-up");
    drop((stream, reader));

    // `line_too_long`, unterminated: exactly one byte over the cap, so
    // the server has read everything sent before it answers and closes.
    wait_until("the only connection slot is free again", || {
        let Ok(mut s) = TcpStream::connect(server.local_addr()) else {
            return false;
        };
        let garbage = vec![b'x'; prague_server::MAX_LINE + 1];
        if s.set_read_timeout(Some(Duration::from_secs(5))).is_err()
            || s.write_all(&garbage).is_err()
        {
            return false;
        }
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).ok();
        if reply.contains("too_many_connections") {
            return false;
        }
        assert_eq!(reply, unterminated);
        true
    });
    server.shutdown();
}

// ---------------------------------------------------------------------------
// fairness: heavy vs light sessions
// ---------------------------------------------------------------------------

/// Replay `spec` through the service once, returning each edge frame's
/// handling latency.
fn timed_replay(mgr: &SessionManager, spec: &QuerySpec) -> Vec<Duration> {
    let open = mgr.handle_line("{\"op\":\"open\"}", None);
    let sid = field_u64(&parsed(&open), "session");
    for &l in &spec.node_labels {
        mgr.handle_line(
            &format!("{{\"op\":\"node\",\"session\":{sid},\"label\":{}}}", l.0),
            None,
        );
    }
    let mut latencies = Vec::with_capacity(spec.edges.len());
    for &(u, v) in &spec.edges {
        let t0 = Instant::now();
        let resp = mgr.handle_line(
            &format!("{{\"op\":\"edge\",\"session\":{sid},\"u\":{u},\"v\":{v}}}"),
            None,
        );
        latencies.push(t0.elapsed());
        let ev = parsed(&resp);
        assert_ok(&ev, &resp);
    }
    mgr.handle_line(&format!("{{\"op\":\"run\",\"session\":{sid}}}"), None);
    mgr.handle_line(&format!("{{\"op\":\"close\",\"session\":{sid}}}"), None);
    latencies
}

fn p99(mut xs: Vec<Duration>) -> Duration {
    assert!(!xs.is_empty());
    xs.sort_unstable();
    xs[(xs.len() - 1) * 99 / 100]
}

#[test]
fn heavy_session_cannot_starve_light_sessions() {
    let mgr = service(
        4,
        ServerConfig {
            fair_slots: 4,
            per_session_quota: 1,
            ..Default::default()
        },
    );
    let db = mgr.system().db();
    let heavy_spec = (3..100u64)
        .find_map(|seed| derive_containment_query(db, 12, seed, "heavy"))
        .expect("a 12-edge containment query exists");
    let light_spec = (3..100u64)
        .find_map(|seed| derive_containment_query(db, 2, seed, "light"))
        .expect("a 2-edge containment query exists");

    // Solo baseline: light sessions with the service to themselves.
    let mut solo = Vec::new();
    for _ in 0..20 {
        solo.extend(timed_replay(&mgr, &light_spec));
    }
    let solo_p99 = p99(solo);

    // Storm: one heavy session replays a 12-edge script in a loop while
    // 32 light sessions (8 workers × 4 sessions each) keep stepping.
    let stop = AtomicBool::new(false);
    let light_latencies: Vec<Duration> = std::thread::scope(|scope| {
        let heavy = scope.spawn(|| {
            let mut rounds = 0u32;
            loop {
                timed_replay(&mgr, &heavy_spec);
                rounds += 1;
                if stop.load(Ordering::SeqCst) {
                    return rounds;
                }
            }
        });
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    for _ in 0..4 {
                        mine.extend(timed_replay(&mgr, &light_spec));
                    }
                    mine
                })
            })
            .collect();
        let collected: Vec<Duration> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("light worker"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        let rounds = heavy.join().expect("heavy worker");
        assert!(rounds >= 1, "the heavy session must actually run");
        collected
    });

    let light_p99 = p99(light_latencies);
    // Starvation looks like light steps queueing behind the heavy
    // session's entire pool backlog — hundreds of ms and up. The pinned
    // bound is deliberately generous (CPU oversubscription inflates
    // absolute numbers on CI) while staying far below that regime.
    let bound = solo_p99 * 50 + Duration::from_millis(50);
    assert!(
        light_p99 <= bound,
        "light sessions starved: p99 {light_p99:?} vs solo {solo_p99:?} (bound {bound:?})"
    );

    // The gate's wait accounting saw traffic.
    let snap = mgr.system().obs().snapshot().expect("obs enabled");
    assert!(snap.counter(names::SRV_FRAMES).unwrap_or(0) > 0);
    assert!(snap.histogram(names::SRV_QUEUE_WAIT_NS).is_some());
}

// ---------------------------------------------------------------------------
// docs drift: the srv-names table
// ---------------------------------------------------------------------------

/// Parse the rows between the `srv-names` markers of ARCHITECTURE.md
/// into `(name, kind-label)` pairs, in document order (same parser shape
/// as `integration_obs.rs` uses for the core table).
fn documented_srv_metrics() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ARCHITECTURE.md");
    let text = std::fs::read_to_string(path).expect("ARCHITECTURE.md readable");
    let begin = text
        .find("<!-- srv-names:begin -->")
        .expect("srv-names:begin marker present");
    let end = text
        .find("<!-- srv-names:end -->")
        .expect("srv-names:end marker present");
    let mut rows = Vec::new();
    for line in text[begin..end].lines() {
        let mut cells = line.split('|').map(str::trim);
        let Some(first) = cells.nth(1) else { continue };
        let Some(name) = first.strip_prefix('`').and_then(|s| s.strip_suffix('`')) else {
            continue;
        };
        let kind = cells.next().expect("kind cell present").to_string();
        rows.push((name.to_string(), kind));
    }
    rows
}

#[test]
fn architecture_srv_table_matches_names_in_code() {
    let documented = documented_srv_metrics();
    let in_code: Vec<(String, String)> = names::SRV_ALL
        .iter()
        .map(|&(name, kind)| (name.to_string(), kind.label().to_string()))
        .collect();
    assert_eq!(
        documented, in_code,
        "ARCHITECTURE.md § Service layer and prague_obs::names::SRV_ALL \
         must list exactly the same metrics in the same order"
    );
}

/// Live service traffic emits `srv.*` metrics — and only documented ones.
#[test]
fn service_traffic_emits_only_documented_srv_metrics() {
    let mgr = service(1, ServerConfig::default());
    let spec = (3..100u64)
        .find_map(|seed| derive_containment_query(mgr.system().db(), 2, seed, "emit"))
        .expect("a 2-edge containment query exists");
    timed_replay(&mgr, &spec);
    mgr.handle_line("{\"op\":\"stats\"}", None);
    mgr.handle_line("not json", None);
    let snap = mgr.system().obs().snapshot().expect("obs enabled");
    let documented: std::collections::BTreeSet<&str> =
        names::SRV_ALL.iter().map(|&(n, _)| n).collect();
    for name in snap.counter_names() {
        if name.starts_with("srv.") {
            assert!(
                documented.contains(name.as_str()),
                "undocumented srv counter: {name}"
            );
        }
    }
    for name in snap.histogram_names() {
        if name.starts_with("srv.") {
            assert!(
                documented.contains(name.as_str()),
                "undocumented srv histogram: {name}"
            );
        }
    }
    for &counter in &[
        names::SRV_SESSIONS_OPENED,
        names::SRV_SESSIONS_CLOSED,
        names::SRV_FRAMES,
        names::SRV_FRAME_ERRORS,
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "expected traffic on {counter}"
        );
    }
    assert!(snap.histogram(names::SRV_FRAME_NS).is_some());
}
