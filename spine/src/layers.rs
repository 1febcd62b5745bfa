//! The traced run: the per-layer metrics.
//!
//! Nothing is traced inside the program. The harness replays the same
//! frames at each boundary it can reach from outside — `parse_request`,
//! `SessionManager::handle_line`, the `Session` calls, then the kernels
//! below them on the workload's own data — and records a span per call.
//! An obs-on pass through `handle_line`, with the workload's concurrency
//! and think time, reads the counters the program already keeps. The pass
//! is fixed (each trace once), so counts repeat from run to run.

use crate::direct::{self, Frame as Direct};
use crate::drive::{drive, InProcess, Plan, Record, Socket, Transport, Until};
use crate::measure::{drive_all, manager_for, warm_up};
use crate::report::{Metric, Report};
use crate::script::{Class, Op, Trace, SIGMA};
use crate::spans::Spans;
use crate::stats::{percentile, percentile_ns};
use crate::workload::{self, Mined, SetupTimes, Spec, POOL_THREADS};
use bytes::BytesMut;
use prague::{exact_verification, exact_verification_par, PragueSystem, SimVerifier, VerifyCost};
use prague_graph::vf2::{is_subgraph_with_order_counting, MatchOrder};
use prague_graph::{cam_code, mccs, CamCode, Graph};
use prague_idset::IdSet;
use prague_index::{codec, A2fConfig, ActionAwareIndexes, BlobStore, DfBacking};
use prague_obs::{names, Obs, Snapshot};
use prague_server::{parse_request, Server};
use prague_shard::{ShardPlan, ShardedIndexes};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket round trips timed for the transport's share.
const PINGS: usize = 24;
/// Data graphs each query is matched against in the graph kernels.
const VF2_SAMPLE: usize = 64;
const MCCS_SAMPLE: usize = 8;
/// FSG lists taken from each index for the set kernels.
const LIST_SAMPLE: usize = 256;

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Collects metrics; a metric without samples reads 0 with `n` 0.
struct Out(Report);

impl Out {
    fn value(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric::new(name, unit, Some(value), n));
    }

    fn p(&mut self, name: &'static str, unit: &'static str, ns: &[u64], p: f64, per_unit: f64) {
        self.value(
            name,
            unit,
            percentile_ns(ns, p, per_unit).unwrap_or(0.0),
            ns.len(),
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traces without their `run` frames: the cheap replay that warms
/// every index cache and times the steps alone.
fn steps_only(traces: &[Trace]) -> Vec<Trace> {
    traces
        .iter()
        .map(|t| Trace {
            ops: t.ops.iter().copied().filter(|&op| op != Op::Run).collect(),
        })
        .collect()
}

/// Median `add_edge` time over the steps-only traces, in microseconds, on
/// the second of two replays so that no lazily built list is charged.
fn warm_step_p50_us(system: &Arc<PragueSystem>, steps: &[Trace]) -> f64 {
    direct_pass(system, steps);
    percentile_ns(&edge_ns(&direct_pass(system, steps).0), 50.0, 1e3).unwrap_or(0.0)
}

/// Replay every trace directly, timed.
fn direct_pass(system: &Arc<PragueSystem>, traces: &[Trace]) -> (Vec<Vec<Direct>>, Vec<usize>) {
    traces
        .iter()
        .map(|t| direct::replay(system, t, |_, _| {}))
        .unzip()
}

fn edge_ns(frames: &[Vec<Direct>]) -> Vec<u64> {
    frames
        .iter()
        .flatten()
        .filter(|f| f.parts.is_some())
        .map(|f| f.call_ns)
        .collect()
}

/// The query on the canvas at a trace's first `run`, its exact candidate
/// set, and — in similarity mode — the candidates of every level that
/// need verification, with the verifier for them.
struct AtRun {
    query: Graph,
    exact: Option<IdSet>,
    similar: Option<(SimVerifier, Vec<(usize, IdSet)>)>,
}

fn at_first_run(system: &Arc<PragueSystem>, trace: &Trace) -> Option<AtRun> {
    let mut session = system.session_shared(SIGMA);
    for &op in &trace.ops {
        match op {
            Op::Open | Op::Close => {}
            Op::Node(l) => {
                session.add_node(l);
            }
            Op::Edge(u, v) => {
                session.add_edge(u, v).ok()?;
            }
            Op::Similar => {
                session.choose_similarity().ok()?;
            }
            Op::Delete(e) => {
                session.delete_edges(&[e]).ok()?;
            }
            Op::Relabel(n, l) => {
                session.relabel_node(n, l).ok()?;
            }
            Op::Run => break,
        }
    }
    let query = session.query().graph().clone();
    let exact = (!session.is_similarity() && !session.exact_candidate_set().is_empty())
        .then(|| session.exact_candidate_set().clone());
    let similar = session.similarity_candidates().map(|sc| {
        let size = session.query().size();
        let mut verifier = SimVerifier::from_spigs(
            session.query(),
            session.spigs(),
            size.saturating_sub(SIGMA).max(1),
            size,
        );
        verifier.set_shard_plan(system.shard_plan());
        let levels = sc
            .levels
            .iter()
            .filter(|(_, lc)| !lc.ver.is_empty())
            .map(|(&level, lc)| (level, lc.ver.clone()))
            .collect();
        (verifier, levels)
    });
    Some(AtRun {
        query,
        exact,
        similar,
    })
}

/// `graph`, `core.verify*`: the kernels under `Session::run`, on the
/// traces' own queries and candidate sets.
fn verify_kernels(system: &Arc<PragueSystem>, at_runs: &[AtRun], out: &mut Out) {
    let db = system.db_arc();
    let pool = system.pool().expect("the workload runs with a pool");
    // Speculative batches of the sessions the queries came from were
    // cancelled when those sessions dropped; let the workers notice.
    pool.wait_idle(Duration::from_secs(2));
    let sample = |n: usize| {
        let stride = (db.len() / n).max(1);
        (0..db.len()).step_by(stride).take(n)
    };
    let (mut cam, mut mccs_ns) = (Vec::new(), Vec::new());
    let (mut vf2_ns, mut vf2_states) = (0u64, 0u64);
    let (mut seq_ns, mut par_ns, mut candidates) = (0u64, 0u64, 0u64);
    let (mut sim_seq_ns, mut sim_par_ns, mut sim_sets) = (0u64, 0u64, 0usize);
    for at in at_runs {
        let t = Instant::now();
        black_box(cam_code(black_box(&at.query)));
        cam.push(ns(t));
        let order = MatchOrder::new(&at.query);
        for id in sample(VF2_SAMPLE) {
            let t = Instant::now();
            let (_, states) =
                is_subgraph_with_order_counting(&at.query, db.graph(id as u32), &order);
            vf2_ns += ns(t);
            vf2_states += states;
        }
        for id in sample(MCCS_SAMPLE) {
            let t = Instant::now();
            black_box(mccs::within_distance(&at.query, db.graph(id as u32), SIGMA).ok());
            mccs_ns.push(ns(t));
        }
        if let Some(rq) = &at.exact {
            let t = Instant::now();
            let seq = exact_verification(&at.query, rq, db, false);
            seq_ns += ns(t);
            let t = Instant::now();
            let par = exact_verification_par(
                &at.query,
                rq,
                db,
                false,
                &Obs::disabled(),
                pool,
                &mut VerifyCost::new(),
                system.shard_plan(),
            );
            par_ns += ns(t);
            assert_eq!(seq, par, "parallel verification changed the answer");
            candidates += rq.len() as u64;
        }
        if let Some((verifier, levels)) = &at.similar {
            for (level, ver) in levels {
                let t = Instant::now();
                let seq = verifier.verify(ver, *level, db);
                sim_seq_ns += ns(t);
                let t = Instant::now();
                let par = verifier.verify_par(ver, *level, db, pool, &mut VerifyCost::new());
                sim_par_ns += ns(t);
                assert_eq!(seq, par, "parallel SimVerify changed the answer");
                sim_sets += 1;
            }
        }
    }
    out.p("graph.cam_p50_us", "us", &cam, 50.0, 1e3);
    out.value(
        "graph.vf2_ns_per_state",
        "ns",
        ratio(vf2_ns as f64, vf2_states as f64),
        vf2_states as usize,
    );
    out.p("graph.mccs_p50_us", "us", &mccs_ns, 50.0, 1e3);
    out.value(
        "core.verify_exact_seq_ms_per_kcand",
        "ms",
        ratio(seq_ns as f64 / 1e6, candidates as f64 / 1e3),
        candidates as usize,
    );
    out.value(
        "core.verify_exact_par_speedup",
        "x",
        ratio(seq_ns as f64, par_ns as f64),
        candidates as usize,
    );
    out.value(
        "core.sim_verify_par_speedup",
        "x",
        ratio(sim_seq_ns as f64, sim_par_ns as f64),
        sim_sets,
    );
}

/// The FSG lists the workload's steps intersect and unite, as the built
/// index serves them.
fn fsg_lists(system: &PragueSystem) -> Vec<Arc<IdSet>> {
    let ix = system.indexes_ref();
    let catalog = system.indexes();
    let a2f = (0..catalog.a2f.fragment_count().min(LIST_SAMPLE) as u32)
        .map(|id| ix.a2f_fsg(id).expect("a warmed index reads back"));
    let a2i = (0..catalog.a2i.len().min(LIST_SAMPLE) as u32).map(|id| ix.a2i_fsg(id));
    a2f.chain(a2i).collect()
}

/// `idset`: the set algebra on real lists, so densities are the workload's.
fn idset_kernels(system: &PragueSystem, out: &mut Out) {
    let lists = fsg_lists(system);
    let (mut inter_ns, mut inter_ids) = (0u64, 0usize);
    for pair in lists.windows(2) {
        let mut a = (*pair[0]).clone();
        let t = Instant::now();
        a.intersect_with(&pair[1]);
        inter_ns += ns(t);
        black_box(&a);
        inter_ids += pair[0].len() + pair[1].len();
    }
    let (mut union_ns, mut union_ids) = (0u64, 0usize);
    for group in lists.chunks(4) {
        let t = Instant::now();
        black_box(IdSet::union_all(group));
        union_ns += ns(t);
        union_ids += group.iter().map(|s| s.len()).sum::<usize>();
    }
    let ids: usize = lists.iter().map(|s| s.len()).sum();
    let bytes: usize = lists.iter().map(|s| s.heap_bytes()).sum();
    out.value(
        "idset.intersect_ns_per_kid",
        "ns",
        ratio(inter_ns as f64, inter_ids as f64 / 1e3),
        inter_ids,
    );
    out.value(
        "idset.union_all_ns_per_kid",
        "ns",
        ratio(union_ns as f64, union_ids as f64 / 1e3),
        union_ids,
    );
    out.value(
        "idset.bytes_per_id",
        "B",
        ratio(bytes as f64, ids as f64),
        ids,
    );
}

/// The index configuration the workload's own system was built with.
fn a2f_config(spec: &Spec) -> A2fConfig {
    A2fConfig {
        beta: spec.beta,
        backing: DfBacking::TempDisk,
        store_full_ids: false,
    }
}

/// `index`: CAM lookups, cold FSG reconstruction and the DF blob store.
fn index_kernels(
    spec: &Spec,
    system: &PragueSystem,
    mined: &Mined,
    queries: &[CamCode],
    out: &mut Out,
) -> Result<(), String> {
    let store_err = |e| format!("blob store: {e}");
    let catalog = system.indexes();
    let mut cams: Vec<CamCode> = queries.to_vec();
    cams.extend((0..catalog.a2f.fragment_count() as u32).map(|id| catalog.a2f.cam(id).clone()));
    let per_lookup: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for cam in &cams {
                black_box(catalog.a2f.lookup(black_box(cam)));
                black_box(catalog.a2i.lookup(black_box(cam)));
            }
            ns(t) as f64 / (2 * cams.len()) as f64
        })
        .collect();
    out.value(
        "index.lookup_p50_ns",
        "ns",
        percentile(&per_lookup, 50.0).unwrap_or(0.0),
        per_lookup.len() * 2 * cams.len(),
    );

    let fresh = ActionAwareIndexes::build(&mined.mining, &a2f_config(spec)).map_err(store_err)?;
    // Largest fragments first: each call then rebuilds one list from its
    // own delIds and its children's lists, which are already resolved.
    let cold: Vec<u64> = (0..fresh.a2f.fragment_count() as u32)
        .rev()
        .map(|id| {
            let t = Instant::now();
            black_box(fresh.a2f.fsg_ids(id).ok());
            ns(t)
        })
        .collect();
    out.p("index.fsg_cold_p50_us", "us", &cold, 50.0, 1e3);

    let store = BlobStore::create_temp("spine").map_err(store_err)?;
    let mut handles = Vec::with_capacity(mined.mining.frequent.len());
    for f in &mined.mining.frequent {
        let mut buf = BytesMut::new();
        codec::put_graph(&mut buf, &f.graph);
        codec::put_sorted_ids(&mut buf, &f.fsg_ids);
        handles.push(store.append(&buf).map_err(store_err)?);
    }
    let total = store.file_len() as usize;
    let read_all = || -> Result<Vec<u64>, String> {
        handles
            .iter()
            .map(|&h| {
                let t = Instant::now();
                black_box(store.read(h).map_err(store_err)?);
                Ok(ns(t))
            })
            .collect()
    };
    store.set_cache_capacity(total * 2);
    read_all()?;
    let hits = read_all()?;
    // A quarter of the data fits: a cyclic scan then misses on every read.
    store.set_cache_capacity(total / 4);
    read_all()?;
    let misses = read_all()?;
    out.p("index.store_read_hit_ns", "ns", &hits, 50.0, 1.0);
    out.p("index.store_read_miss_us", "us", &misses, 50.0, 1e3);
    out.value(
        "index.footprint_mb",
        "MiB",
        system.index_footprint().total_mb(),
        1,
    );
    Ok(())
}

/// `shard`: the facade's union cache, cold and hit, on a fresh two-shard
/// index over the same mining result.
fn shard_kernels(spec: &Spec, mined: &Mined, out: &mut Out) -> Result<(), String> {
    let t = Instant::now();
    let facade = ShardedIndexes::from_result(
        &mined.db,
        ShardPlan::new(2),
        &mined.mining,
        &a2f_config(spec),
    )
    .map_err(|e| format!("shard build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    // Warm the shards' own lists so the first facade call pays for the
    // union only.
    facade.warm().map_err(|e| format!("shard warm: {e}"))?;
    let ids = 0..facade.catalog().a2f.fragment_count().min(LIST_SAMPLE) as u32;
    let time_all = || -> Vec<u64> {
        ids.clone()
            .map(|id| {
                let t = Instant::now();
                black_box(facade.a2f_fsg(id).ok());
                ns(t)
            })
            .collect()
    };
    let cold = time_all();
    let hit = time_all();
    out.p("shard.fsg_union_cold_p50_us", "us", &cold, 50.0, 1e3);
    out.p("shard.fsg_union_hit_p50_ns", "ns", &hit, 50.0, 1.0);
    out.value("shard.build_s", "s", build_s, 1);
    Ok(())
}

/// Round-trip time of `ping` over the socket minus its time through
/// `handle_line`: what the transport adds to every frame.
fn transport_share(server: &Server, manager: &Arc<prague_server::SessionManager>) -> (f64, usize) {
    let mut socket = Socket::connect(server.local_addr()).expect("connect to own listener");
    let mut local = InProcess::new(Arc::clone(manager));
    let time = |t: &mut dyn FnMut()| -> Vec<u64> {
        (0..PINGS)
            .map(|_| {
                let start = Instant::now();
                t();
                ns(start)
            })
            .collect()
    };
    let ping = "{\"op\":\"ping\"}\n";
    let over_socket = time(&mut || {
        socket.call(ping).expect("ping over loopback");
    });
    let in_process = time(&mut || {
        local.call(ping).expect("in-process calls cannot fail");
    });
    let p50 = |v: &[u64]| percentile_ns(v, 50.0, 1e3).unwrap_or(0.0);
    ((p50(&over_socket) - p50(&in_process)).max(0.0), PINGS)
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn histogram_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64)
}

/// The span trees of the one-by-one pass, and what falls out of them.
struct FrameSpans {
    spans: Spans,
    /// `handle_line` self time on `edge` frames, microseconds, signed.
    manager_self: Vec<f64>,
    /// The same on `run` frames: rendering the reply.
    run_self: Vec<f64>,
    run_bytes: Vec<f64>,
}

/// One tree per frame: `server.handle_line` ⊃ `server.parse`, `core.<call>`
/// ⊃ `spig.construct`, `core.candidates`, `core.suggest`. The levels were
/// timed in separate replays and are aligned by position in the pass.
fn frame_spans(
    traces: &[Trace],
    directs: &[Vec<Direct>],
    seq: &Record,
    parse_ns: &[Vec<u64>],
) -> FrameSpans {
    let mut out = FrameSpans {
        spans: Spans::default(),
        manager_self: Vec::new(),
        run_self: Vec::new(),
        run_bytes: Vec::new(),
    };
    let spans = &mut out.spans;
    let mut clock = 0u64;
    // One lane, one pass: the samples are in pass order.
    for (frame, s) in seq.samples.iter().enumerate() {
        let (t, o) = s.at;
        let d = &directs[t][o];
        let op = traces[t].ops[o];
        let frame = frame as u32;
        let root = spans.push("server.handle_line", clock, s.latency_ns, None, frame);
        spans.push("server.parse", clock, parse_ns[t][o], Some(root), frame);
        let call_name = match op {
            Op::Open | Op::Close => None,
            Op::Node(_) => Some("core.add_node"),
            Op::Edge(..) => Some("core.add_edge"),
            Op::Similar => Some("core.choose_similarity"),
            Op::Run => Some("core.run"),
            Op::Delete(_) => Some("core.delete"),
            Op::Relabel(..) => Some("core.relabel"),
        };
        if let Some(name) = call_name {
            let start = clock + parse_ns[t][o];
            let call = spans.push(name, start, d.call_ns, Some(root), frame);
            if let Some(parts) = d.parts {
                let mut at = start;
                for (name, dur) in [
                    ("spig.construct", parts.spig_ns),
                    ("core.candidates", parts.candidates_ns),
                    ("core.suggest", parts.suggest_ns),
                ] {
                    spans.push(name, at, dur, Some(call), frame);
                    at += dur;
                }
            }
        }
        clock += s.latency_ns;
        if op.class() == Class::Step || op == Op::Run {
            // Timed in different replays, one frame's difference can be
            // negative; the median over the pass is not.
            let self_us = (s.latency_ns as f64 - parse_ns[t][o] as f64 - d.call_ns as f64) / 1e3;
            if op == Op::Run {
                out.run_self.push(self_us);
                out.run_bytes.push(s.reply_bytes as f64);
            } else {
                out.manager_self.push(self_us);
            }
        }
    }
    out
}

/// Run one workload layer by layer.
pub fn run(
    spec: &Spec,
    seed: u64,
    scratch: &Path,
    trace_out: Option<&Path>,
) -> Result<Report, String> {
    let mut out = Out(Report::new(spec.name, seed));
    let mut times = SetupTimes::default();
    let mined = workload::generate_and_mine(spec, seed, &mut times);
    let fragments = mined.mining.frequent.len() + mined.mining.difs.len();
    let spare = mined.duplicate();
    let system = workload::index(spec, mined, spec.shards, &mut times);
    let traces = workload::traces(spec, &system, seed, &mut times);
    // With think time a pass is one trace per live session, so the traced
    // passes end within the run's time budget.
    let pass = if spec.think.is_zero() {
        &traces[..]
    } else {
        &traces[..spec.lanes().min(traces.len())]
    };

    // Level: direct `Session` calls. Also the answers the other levels
    // must reproduce.
    let system = Arc::new(system);
    let manager = manager_for(&system);
    warm_up(&manager, &traces);
    let steps = steps_only(&traces);
    let step_p50_us = warm_step_p50_us(&system, &steps);
    let (directs, memo_bytes) = direct_pass(&system, &traces);

    // Level: `handle_line`, one frame at a time, aligned with the direct
    // level by position in the pass.
    let one_by_one = Plan {
        first_lane: 0,
        slots: 1,
        lanes: 1,
        think: Duration::ZERO,
        until: Until::OnePass,
    };
    let mut conn = InProcess::new(Arc::clone(&manager));
    let seq = drive(&mut conn, &traces, &directs, one_by_one);
    drop(conn);

    // Level: `parse_request` alone.
    let mut line = String::new();
    let parse_ns: Vec<Vec<u64>> = traces
        .iter()
        .map(|trace| {
            trace
                .ops
                .iter()
                .map(|op| {
                    line.clear();
                    op.render(1, &mut line);
                    let t = Instant::now();
                    black_box(parse_request(black_box(line.trim_end())).ok());
                    ns(t)
                })
                .collect()
        })
        .collect();

    // Level: the socket, for the transport's own share.
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager))
        .map_err(|e| format!("bind loopback: {e}"))?;
    let (transport_us, pings) = transport_share(&server, &manager);
    server.shutdown();

    // The obs-off pass with the workload's own concurrency and think time.
    let concurrent = |manager: &Arc<prague_server::SessionManager>| {
        let mut conns: Vec<InProcess> = (0..spec.connections)
            .map(|_| InProcess::new(Arc::clone(manager)))
            .collect();
        drive_all(&mut conns, spec, pass, &directs, Until::OnePass)
    };
    // Without think time that is the pass just played, frame by frame.
    let off = if spec.lanes() == 1 && spec.think.is_zero() {
        None
    } else {
        Some(concurrent(&manager).0)
    };

    // Take the system back, switch obs on, and play the same pass again.
    drop(manager);
    let mut system =
        Arc::try_unwrap(system).map_err(|_| "a session outlived the obs-off pass".to_owned())?;
    system.set_obs(Obs::enabled());
    let system = Arc::new(system);
    let manager = manager_for(&system);
    warm_up(&manager, &traces);
    let before = system.obs().snapshot().expect("obs is enabled");
    let (on, on_wall) = concurrent(&manager);
    // Speculative batches still running belong to this pass.
    if let Some(pool) = system.pool() {
        pool.wait_idle(Duration::from_secs(2));
    }
    let after = system.obs().snapshot().expect("obs is enabled");
    drop(manager);
    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    let mut report_failures = |rec: &Record| {
        out.0.attempted += rec.attempted;
        out.0.failed += rec.failed;
        out.0.notes.extend(rec.failures.iter().cloned());
    };
    report_failures(&seq);
    if let Some(off) = &off {
        report_failures(off);
    }
    report_failures(&on);
    let off = off.as_ref().unwrap_or(&seq);

    let FrameSpans {
        spans,
        manager_self,
        run_self,
        run_bytes,
    } = frame_spans(&traces, &directs, &seq, &parse_ns);
    if let Some(path) = trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        spans
            .write_csv(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for (name, self_ns) in spans.self_by_name() {
        out.0.detail(name, self_ns as f64 / 1e6);
    }
    out.0.detail("spans", spans.len() as f64);

    // ---- server ----
    out.value("server.transport_p50_us", "us", transport_us, pings);
    let all_parse: Vec<u64> = parse_ns.iter().flatten().copied().collect();
    out.p("server.parse_p50_us", "us", &all_parse, 50.0, 1e3);
    for (name, selfs) in [
        ("server.manager_self_p50_us", &manager_self),
        ("server.run_reply_self_p50_us", &run_self),
    ] {
        let p50 = percentile(selfs, 50.0).unwrap_or(0.0);
        out.value(name, "us", p50.max(0.0), selfs.len());
    }
    out.value(
        "server.run_reply_bytes_p50",
        "B",
        percentile(&run_bytes, 50.0).unwrap_or(0.0),
        run_bytes.len(),
    );
    out.value(
        "server.gate_wait_share",
        "share",
        ratio(
            histogram_sum(&after, names::SRV_QUEUE_WAIT_NS)
                - histogram_sum(&before, names::SRV_QUEUE_WAIT_NS),
            histogram_sum(&after, names::SRV_FRAME_NS)
                - histogram_sum(&before, names::SRV_FRAME_NS),
        ),
        on.samples.len(),
    );
    out.value(
        "server.frame_errors",
        "count",
        delta(names::SRV_FRAME_ERRORS),
        on.samples.len(),
    );

    // ---- core and spig, from the direct level ----
    let flat = || {
        directs
            .iter()
            .flatten()
            .zip(traces.iter().flat_map(|t| &t.ops))
    };
    let edges = edge_ns(&directs);
    out.p("core.add_edge_p50_us", "us", &edges, 50.0, 1e3);
    out.p("core.add_edge_p95_us", "us", &edges, 95.0, 1e3);
    let parts = || directs.iter().flatten().filter_map(|f| f.parts);
    let total_edge: f64 = edges.iter().map(|&v| v as f64).sum();
    let spig: f64 = parts().map(|p| p.spig_ns as f64).sum();
    let cand: f64 = parts().map(|p| p.candidates_ns as f64).sum();
    let suggest: f64 = parts().map(|p| p.suggest_ns as f64).sum();
    out.value(
        "core.add_edge_attributed_share",
        "share",
        ratio(spig + cand + suggest, total_edge),
        edges.len(),
    );
    out.value(
        "core.candidates_share",
        "share",
        ratio(cand, spig + cand + suggest),
        edges.len(),
    );
    let calls = |keep: &dyn Fn(&Direct, Op) -> bool| -> Vec<u64> {
        flat()
            .filter(|(f, &op)| keep(f, op))
            .map(|(f, _)| f.call_ns)
            .collect()
    };
    let exact_runs = calls(&|f, _| f.run.is_some_and(|r| !r.similar));
    let similar_runs = calls(&|f, _| f.run.is_some_and(|r| r.similar));
    out.p("core.run_exact_p50_ms", "ms", &exact_runs, 50.0, 1e6);
    out.p("core.run_similar_p50_ms", "ms", &similar_runs, 50.0, 1e6);
    let results: Vec<f64> = directs
        .iter()
        .flatten()
        .filter_map(|f| f.run.map(|r| r.results as f64))
        .collect();
    out.value(
        "core.results_per_run_p50",
        "count",
        percentile(&results, 50.0).unwrap_or(0.0),
        results.len(),
    );
    out.p(
        "core.candidates_similar_p50_us",
        "us",
        &calls(&|_, op| op == Op::Similar),
        50.0,
        1e3,
    );
    out.p(
        "core.delete_p50_us",
        "us",
        &calls(&|_, op| matches!(op, Op::Delete(_))),
        50.0,
        1e3,
    );
    out.p(
        "core.relabel_p50_us",
        "us",
        &calls(&|_, op| matches!(op, Op::Relabel(..))),
        50.0,
        1e3,
    );
    let hits = delta(names::CAND_MEMO_HITS);
    out.value(
        "core.memo_hit_share",
        "share",
        ratio(hits, hits + delta(names::CAND_MEMO_MISSES)),
        on.samples.len(),
    );
    out.value(
        "core.memo_kb_per_session",
        "KiB",
        ratio(
            memo_bytes.iter().sum::<usize>() as f64 / 1024.0,
            memo_bytes.len() as f64,
        ),
        memo_bytes.len(),
    );
    let exact_srt: Vec<u64> = off
        .samples
        .iter()
        .filter(|s| s.run.is_some_and(|r| !r.similar))
        .filter_map(|s| s.srt_ns)
        .collect();
    out.value(
        "core.spec_hidden_share",
        "share",
        ratio(
            exact_srt.iter().filter(|&&v| v < 1_000_000).count() as f64,
            exact_srt.len() as f64,
        ),
        exact_srt.len(),
    );
    out.value(
        "core.vf2_states",
        "count",
        delta(names::VERIFY_VF2_STATES),
        on.samples.len(),
    );
    out.value(
        "spig.construct_share",
        "share",
        ratio(spig, total_edge),
        edges.len(),
    );
    let at8: Vec<u64> = directs
        .iter()
        .flatten()
        .filter(|f| f.query_size == 8)
        .filter_map(|f| f.parts.map(|p| p.spig_ns))
        .collect();
    out.p("spig.construct_p50_us_at8", "us", &at8, 50.0, 1e3);
    let grown: Vec<f64> = directs
        .iter()
        .flat_map(|t| {
            let mut before = 0usize;
            t.iter().filter(|f| f.parts.is_some()).map(move |f| {
                let grew = f.spig_vertices.saturating_sub(before);
                before = f.spig_vertices;
                grew as f64
            })
        })
        .collect();
    out.value(
        "spig.vertices_per_step",
        "count",
        ratio(grown.iter().sum(), grown.len() as f64),
        grown.len(),
    );

    // ---- par, from the obs-on pass ----
    let pool = system.pool().expect("the workload runs with a pool");
    out.value(
        "par.job_overhead_ns",
        "ns",
        pool.job_overhead_ns() as f64,
        1,
    );
    let jobs = delta(names::PAR_JOBS);
    out.value("par.jobs", "count", jobs, on.samples.len());
    out.value(
        "par.cancelled_share",
        "share",
        ratio(delta(names::PAR_CANCELLATIONS), jobs),
        jobs as usize,
    );
    out.value(
        "par.busy_share",
        "share",
        ratio(
            delta(names::PAR_BUSY_NS),
            POOL_THREADS as f64 * on_wall.as_nanos() as f64,
        ),
        jobs as usize,
    );
    out.value("par.parks", "count", delta(names::PAR_PARKS), jobs as usize);
    out.value(
        "par.seq_fallbacks",
        "count",
        delta(names::PAR_SEQ_FALLBACKS),
        jobs as usize,
    );

    // ---- obs and the harness itself ----
    // The same frames in both passes: the median of the paired ratios is
    // steadier than a ratio of sums that a few long runs dominate.
    let off_at: BTreeMap<(usize, usize), u64> =
        off.samples.iter().map(|s| (s.at, s.latency_ns)).collect();
    let paired: Vec<f64> = on
        .samples
        .iter()
        .filter_map(|s| Some(s.latency_ns as f64 / *off_at.get(&s.at)? as f64))
        .collect();
    out.value(
        "obs.enabled_overhead_share",
        "share",
        percentile(&paired, 50.0).unwrap_or(1.0) - 1.0,
        paired.len(),
    );
    out.p("client.late_p50_ms", "ms", &off.late_ns, 50.0, 1e6);
    out.p("client.self_p50_us", "us", &off.self_ns, 50.0, 1e3);

    // ---- kernels on the workload's own data ----
    let at_runs: Vec<AtRun> = traces
        .iter()
        .filter_map(|t| at_first_run(&system, t))
        .collect();
    verify_kernels(&system, &at_runs, &mut out);
    idset_kernels(&system, &mut out);
    let query_cams: Vec<CamCode> = at_runs.iter().map(|at| cam_code(&at.query)).collect();
    index_kernels(spec, &system, &spare, &query_cams, &mut out)?;
    shard_kernels(spec, &spare, &mut out)?;

    let t = Instant::now();
    let catalog = scratch.join("catalog.prgc");
    prague::persist::save_catalog(&catalog, &spare.db, &spare.labels, &spare.mining)
        .and_then(|()| prague::persist::load_catalog(&catalog))
        .map_err(|e| format!("catalog round trip: {e}"))?;
    out.value(
        "core.catalog_roundtrip_s",
        "s",
        t.elapsed().as_secs_f64(),
        1,
    );

    // The same steps on the other shard count: what the facade costs.
    let other_shards = if spec.shards == 1 { 2 } else { 1 };
    let other = Arc::new(workload::index(
        spec,
        spare,
        other_shards,
        &mut SetupTimes::default(),
    ));
    let other_p50_us = warm_step_p50_us(&other, &steps);
    let (one, two) = if spec.shards == 1 {
        (step_p50_us, other_p50_us)
    } else {
        (other_p50_us, step_p50_us)
    };
    out.value(
        "shard.step_overhead_ratio",
        "x",
        ratio(two, one),
        edges.len(),
    );

    // ---- set-up stages ----
    out.value("index.build_s", "s", times.index_s, 1);
    out.value("index.warm_s", "s", times.warm_s, 1);
    out.value("mining.mine_s", "s", times.mine_s, 1);
    out.value("mining.fragments", "count", fragments as f64, 1);
    out.value("datagen.generate_s", "s", times.generate_s, 1);
    out.value("datagen.derive_s", "s", times.derive_s, 1);

    out.0.finish()
}
