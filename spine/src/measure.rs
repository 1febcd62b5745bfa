//! The end-to-end run: a real server on loopback, driven over TCP with obs
//! disabled, every answer checked.

use crate::direct::{self, Frame as Expected};
use crate::drive::{
    drive, parse_session, InProcess, Plan, Record, Sample, Socket, Transport, Until,
};
use crate::report::{Metric, Report};
use crate::script::{Class, Op, Trace};
use crate::stats::{median, percentile_ns, tail_mean_ns};
use crate::workload::{self, SetupTimes, Spec};
use prague::PragueSystem;
use prague_server::{Server, ServerConfig, SessionManager, SystemClock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traces played through `handle_line` before anything is timed.
const WARM_UP_TRACES: usize = 8;
/// Every n-th trace is also checked against a scan of the whole database.
const BRUTE_FORCE_EVERY: usize = 8;
/// The scans stop once they have taken this long, so the check cannot eat
/// the run's time budget; how many were made is reported.
const BRUTE_FORCE_BUDGET: Duration = Duration::from_millis(2500);

/// A service ready for clients.
pub struct Service {
    pub system: Arc<PragueSystem>,
    pub server: Server,
    pub sockets: Vec<Socket>,
}

pub fn manager_for(system: &Arc<PragueSystem>) -> Arc<SessionManager> {
    Arc::new(SessionManager::new(
        Arc::clone(system),
        ServerConfig::default(),
        Arc::new(SystemClock::new()),
    ))
}

/// Play the first traces through the manager so lazily built state (the
/// pool's overhead calibration, the shard facade's union cache, the DF
/// read cache) exists before the window opens.
pub fn warm_up(manager: &Arc<SessionManager>, traces: &[Trace]) {
    let mut conn = InProcess::new(Arc::clone(manager));
    let mut line = String::new();
    for trace in traces.iter().take(WARM_UP_TRACES) {
        let mut session = 0u64;
        for &op in &trace.ops {
            line.clear();
            op.render(session, &mut line);
            let reply = conn.call(&line).expect("in-process calls cannot fail");
            if op == Op::Open {
                session = parse_session(reply).expect("open frame carries the session id");
            }
        }
    }
}

/// Start the service over an indexed system: manager, warm-up, listener,
/// client connections.
pub fn serve(system: PragueSystem, traces: &[Trace], connections: usize) -> Service {
    let system = Arc::new(system);
    let manager = manager_for(&system);
    warm_up(&manager, traces);
    let server = Server::bind("127.0.0.1:0", manager).expect("bind loopback");
    let sockets = (0..connections)
        .map(|_| Socket::connect(server.local_addr()).expect("connect to own listener"))
        .collect();
    Service {
        system,
        server,
        sockets,
    }
}

/// The replies the service must give, from a direct `Session` replay of
/// every trace, with every n-th trace also checked against a scan.
/// Returns the replies, the scans made and the scans that disagreed.
pub fn expected_replies(
    system: &Arc<PragueSystem>,
    traces: &[Trace],
) -> (Vec<Vec<Expected>>, u64, u64) {
    let started = Instant::now();
    let (mut scans, mut wrong) = (0u64, 0u64);
    let expected = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let (frames, _) = direct::replay(system, trace, |session, out| {
                if i % BRUTE_FORCE_EVERY == 0 && started.elapsed() < BRUTE_FORCE_BUDGET {
                    scans += 1;
                    if !direct::matches_brute_force(session, out, system.db()) {
                        wrong += 1;
                    }
                }
            });
            frames
        })
        .collect();
    (expected, scans, wrong)
}

/// Peak resident set of this process so far, in MiB; `None` where the
/// kernel does not say.
fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Drive every connection until `until`, one thread each.
pub fn drive_all<T: Transport + Send>(
    transports: &mut [T],
    spec: &Spec,
    traces: &[Trace],
    expected: &[Vec<Expected>],
    until: Until,
) -> (Record, Duration) {
    let start = Instant::now();
    let mut all = Record::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter_mut()
            .enumerate()
            .map(|(c, transport)| {
                let plan = Plan {
                    first_lane: c * spec.sessions_per_conn,
                    slots: spec.sessions_per_conn,
                    lanes: spec.lanes(),
                    think: spec.think,
                    until,
                };
                scope.spawn(move || drive(transport, traces, expected, plan))
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
    });
    let wall = all.finished.map_or(start.elapsed(), |end| end - start);
    (all, wall)
}

fn latencies(rec: &Record, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    rec.samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ns)
        .collect()
}

/// Run one workload end to end.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    // Set up several times and report the median. Deriving the traces is
    // the harness's work, not the service's, and its time depends on the
    // luck of the seed (the worst-case queries are found by rejection), so
    // it is done once and reported on its own, outside `setup_s`.
    let mut times = SetupTimes::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut traces = Vec::new();
    let mut service: Option<Service> = None;
    for _ in 0..SETUPS {
        // Only one service is alive at a time.
        if let Some(previous) = service.take() {
            shutdown(previous);
        }
        let t = Instant::now();
        let system = workload::build_system(spec, seed, &mut times);
        let mut built = t.elapsed().as_secs_f64();
        if traces.is_empty() {
            traces = workload::traces(spec, &system, seed, &mut times);
        }
        let t = Instant::now();
        service = Some(serve(system, &traces, spec.connections));
        built += t.elapsed().as_secs_f64();
        setups.push(built);
    }
    let mut service = service.expect("at least one set-up");

    let (expected, scans, wrong) = expected_replies(&service.system, &traces);

    let until = Until::Deadline(Instant::now() + Duration::from_secs_f64(seconds));
    let (rec, wall) = drive_all(&mut service.sockets, spec, &traces, &expected, until);
    let rss = rss_peak_mb();
    shutdown(service);

    let mut report = Report::new(spec.name, seed);
    report.attempted = rec.attempted + scans;
    report.failed = rec.failed + wrong;
    report.notes = rec.failures.clone();
    if wrong > 0 {
        report
            .notes
            .push(format!("{wrong} of {scans} brute-force scans disagree"));
    }
    report.detail("generate_s", times.generate_s);
    report.detail("mine_s", times.mine_s);
    report.detail("index_s", times.index_s);
    report.detail("warm_s", times.warm_s);
    report.detail("derive_s", times.derive_s);
    report.detail("window_s", wall.as_secs_f64());
    report.detail("frames_ok", rec.samples.len() as f64);
    report.detail("brute_force_scans", scans as f64);
    report.detail(
        "traces_completed",
        rec.samples
            .iter()
            .filter(|s| matches!(traces[s.at.0].ops[s.at.1], Op::Close))
            .count() as f64,
    );

    let all = latencies(&rec, |_| true);
    let steps = latencies(&rec, |s| s.class == Class::Step);
    let exact = latencies(&rec, |s| s.run.is_some_and(|r| !r.similar));
    let modify = latencies(&rec, |s| s.class == Class::Modify);
    let light = latencies(&rec, |s| s.class == Class::Light);

    report.push(Metric::new("setup_s", "s", median(&setups), setups.len()));
    report.push(Metric::new(
        "frames_per_s",
        "1/s",
        (!all.is_empty()).then(|| all.len() as f64 / wall.as_secs_f64()),
        all.len(),
    ));
    let ms = |ns: &[u64], p: f64| percentile_ns(ns, p, 1e6);
    report.push(Metric::new(
        "frame_tail_ms",
        "ms",
        tail_mean_ns(&all, 1e6),
        all.len(),
    ));
    report.push(Metric::new(
        "step_p50_ms",
        "ms",
        ms(&steps, 50.0),
        steps.len(),
    ));
    report.push(Metric::new(
        "step_tail_ms",
        "ms",
        tail_mean_ns(&steps, 1e6),
        steps.len(),
    ));
    report.push(Metric::new(
        "run_exact_p50_ms",
        "ms",
        ms(&exact, 50.0),
        exact.len(),
    ));
    report.push(Metric::new(
        "modify_p50_ms",
        "ms",
        ms(&modify, 50.0),
        modify.len(),
    ));
    report.push(Metric::new(
        "light_p50_ms",
        "ms",
        ms(&light, 50.0),
        light.len(),
    ));
    report.push(Metric::new("rss_peak_mb", "MiB", rss, 1));
    report.finish()
}

/// Stop the listener, join its threads and free the system.
pub fn shutdown(service: Service) {
    drop(service.sockets);
    service.server.shutdown();
    drop(service.system);
}
