//! The session manager: many users, one system.
//!
//! A [`SessionManager`] hosts every live [`prague::session::Session`]
//! over one shared, read-mostly [`PragueSystem`] (indexes behind an
//! `Arc`, co-owned via [`PragueSystem::session_shared`]). The manager is
//! the service-side enforcement point for the paper's interactivity
//! premise: each individual session's per-step work must keep fitting
//! inside GUI think time even when hundreds of sessions share one
//! verification pool. Three mechanisms make that hold:
//!
//! * **fair admission** — verify-carrying frames (`edge`, `delete`,
//!   `relabel`, `run`) pass through a [`FairGate`] keyed by session id,
//!   so a heavy session queues behind every light session's next step
//!   instead of monopolising the pool (wait time: `srv.queue_wait_ns`);
//! * **memory caps** — after each frame the session's candidate-memo
//!   footprint ([`prague::candidates::CandMemo::bytes`], the
//!   `cand.idset_bytes` gauge's per-session analogue) is checked against
//!   [`ServerConfig::session_memory_cap`]; an over-budget session is
//!   evicted (`srv.sessions_evicted`) without touching its neighbours;
//! * **idle expiry** — sessions unused for
//!   [`ServerConfig::idle_timeout`] are swept (`srv.sessions_expired`)
//!   at most once per quarter timeout, and a frame addressing one is
//!   refused on lookup in between, against an injected [`Clock`] so the
//!   lifecycle is testable without sleeping. Dropping a session cancels
//!   its in-flight speculative verification through the existing
//!   generation/cancel path.
//!
//! Frames for *different* sessions execute concurrently (each session
//! sits behind its own mutex; the manager map is locked only for
//! lookup); frames for the same session serialize, which matches one
//! user at one canvas.
//!
//! Sessions are **connection-scoped**: ids are sequential and therefore
//! guessable, so frames arriving over a TCP connection may only address
//! sessions that connection opened ([`ConnSessions::owns`]); a frame
//! for anyone else's session is answered `unknown_session`, exactly as
//! if the session did not exist.

use crate::clock::Clock;
use crate::protocol::{parse_request, ProtoError, Request};
use prague::session::{QueryResults, Session, SessionError, StepStatus};
use prague::PragueSystem;
use prague_graph::Label;
use prague_obs::{names, Obs};
use prague_par::FairGate;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Service tuning knobs. Defaults suit an interactive deployment in
/// front of a pool of a few workers; every test overrides what it pins.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// σ used by `open` frames that don't specify one.
    pub default_sigma: usize,
    /// Hard cap on concurrently live sessions; `open` beyond it fails
    /// with `server_full`.
    pub max_sessions: usize,
    /// Hard cap on concurrently served TCP connections; an accept past
    /// it is answered with one `too_many_connections` error frame and
    /// closed (enforced by the transport, configured here so one struct
    /// carries every service knob).
    pub max_conns: usize,
    /// Per-session candidate-memo budget in bytes; a session observed
    /// over budget after a frame is evicted.
    pub session_memory_cap: usize,
    /// Sessions idle longer than this are expired: by a sweep that frames
    /// trigger at most once per quarter of this timeout, and on lookup,
    /// so an expired session is never served.
    pub idle_timeout: Duration,
    /// Global verify-admission slots (the [`FairGate`] total).
    pub fair_slots: usize,
    /// Per-session admission quota (the [`FairGate`] per-key cap).
    pub per_session_quota: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            default_sigma: 2,
            max_sessions: 1024,
            max_conns: 1024,
            session_memory_cap: 64 << 20,
            idle_timeout: Duration::from_secs(300),
            fair_slots: 8,
            per_session_quota: 2,
        }
    }
}

/// Lifecycle counters mirrored outside the obs registry so `stats`
/// frames can report them even when observability is disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct LifecycleStats {
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions closed by request.
    pub closed: u64,
    /// Sessions swept by idle expiry.
    pub expired: u64,
    /// Sessions evicted over the memory cap.
    pub evicted: u64,
}

struct Slot {
    session: Mutex<Session<'static>>,
    /// Last-used stamp in [`Clock`] nanoseconds; read by the idle sweep
    /// without taking the session mutex.
    last_used_ns: AtomicU64,
}

struct ManagerState {
    /// Live sessions. Growth is bounded by `max_sessions` (enforced in
    /// `open`) plus the idle sweep and memory-cap eviction.
    sessions: BTreeMap<u64, Arc<Slot>>,
    next_id: u64,
    stats: LifecycleStats,
}

/// Hosts all live sessions over one shared [`PragueSystem`]. See the
/// [module docs](self) for the scheduling and lifecycle contract.
pub struct SessionManager {
    system: Arc<PragueSystem>,
    cfg: ServerConfig,
    clock: Arc<dyn Clock>,
    gate: FairGate,
    obs: Obs,
    state: Mutex<ManagerState>,
    /// [`Clock`] time from which the next frame runs the idle sweep;
    /// frames before it skip the sweep (see
    /// [`SessionManager::sweep_if_due`]).
    next_sweep_ns: AtomicU64,
}

/// `write!` into a reply buffer. Writing to a `String` cannot fail, so
/// there is no error to propagate.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {{
        let _ = write!($out, $($arg)*);
    }};
}

/// Mutex recovery: manager state is updated in whole steps, so poisoning
/// by a panicking frame handler is survivable; count it like the pool
/// does rather than wedging every later frame.
fn lock<'a, T>(m: &'a Mutex<T>, obs: &Obs) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        obs.add(names::PAR_POISONED, 1);
        poisoned.into_inner()
    })
}

impl SessionManager {
    /// A manager over `system`, using `clock` for idle expiry. The
    /// observability handle is inherited from the system.
    pub fn new(system: Arc<PragueSystem>, cfg: ServerConfig, clock: Arc<dyn Clock>) -> Self {
        let obs = system.obs().clone();
        SessionManager {
            gate: FairGate::new(cfg.fair_slots, cfg.per_session_quota, obs.clone()),
            system,
            cfg,
            clock,
            obs,
            state: Mutex::new(ManagerState {
                sessions: BTreeMap::new(),
                next_id: 1,
                stats: LifecycleStats::default(),
            }),
            next_sweep_ns: AtomicU64::new(0),
        }
    }

    /// The manager's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shared system.
    pub fn system(&self) -> &Arc<PragueSystem> {
        &self.system
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        lock(&self.state, &self.obs).sessions.len()
    }

    /// Lifecycle counters so far.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        lock(&self.state, &self.obs).stats
    }

    /// Whether a session id is currently live.
    pub fn is_live(&self, id: u64) -> bool {
        lock(&self.state, &self.obs).sessions.contains_key(&id)
    }

    /// Open a session; returns its id, or `None` when the manager is at
    /// [`ServerConfig::max_sessions`].
    pub fn open(&self, sigma: Option<usize>) -> Option<u64> {
        self.sweep_idle();
        let sigma = sigma.unwrap_or(self.cfg.default_sigma);
        let session = self.system.session_shared(sigma);
        let mut state = lock(&self.state, &self.obs);
        if state.sessions.len() >= self.cfg.max_sessions {
            return None;
        }
        let id = state.next_id;
        state.next_id = state.next_id.wrapping_add(1);
        state.sessions.insert(
            id,
            Arc::new(Slot {
                session: Mutex::new(session),
                last_used_ns: AtomicU64::new(self.clock.now_ns()),
            }),
        );
        state.stats.opened += 1;
        drop(state);
        self.obs.add(names::SRV_SESSIONS_OPENED, 1);
        Some(id)
    }

    /// Close a session (idempotent). Dropping the last handle cancels
    /// any in-flight speculative verification via `Session`'s own drop.
    pub fn close(&self, id: u64) -> bool {
        let mut state = lock(&self.state, &self.obs);
        let existed = state.sessions.remove(&id).is_some();
        if existed {
            state.stats.closed += 1;
            drop(state);
            self.obs.add(names::SRV_SESSIONS_CLOSED, 1);
        }
        existed
    }

    fn idle_timeout_ns(&self) -> u64 {
        u64::try_from(self.cfg.idle_timeout.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether `slot` has gone unused past the idle timeout as of `now`.
    fn is_idle(&self, slot: &Slot, now: u64) -> bool {
        let stale =
            now.saturating_sub(slot.last_used_ns.load(Ordering::SeqCst)) > self.idle_timeout_ns();
        // A held session mutex means a frame is mid-flight on it right
        // now — not idle, however stale the stamp looks (e.g. a long
        // fair-gate wait under heavy contention). Poisoned counts as
        // free: the frame that held it is gone, and expiring the wreck
        // is the right outcome.
        stale
            && !matches!(
                slot.session.try_lock(),
                Err(std::sync::TryLockError::WouldBlock)
            )
    }

    /// Expire every session idle longer than the configured timeout.
    /// Frames run it at most once per quarter timeout (`sweep_if_due`);
    /// also callable directly (tests, a serve loop's housekeeping tick).
    pub fn sweep_idle(&self) {
        let now = self.clock.now_ns();
        let mut state = lock(&self.state, &self.obs);
        let before = state.sessions.len();
        // Removing the map entry drops the manager's handle; the session
        // itself (and its pending-verify cancellation) drops when any
        // concurrent frame on it finishes.
        state.sessions.retain(|_, slot| !self.is_idle(slot, now));
        let n = (before - state.sessions.len()) as u64;
        if n > 0 {
            state.stats.expired += n;
            drop(state);
            self.obs.add(names::SRV_SESSIONS_EXPIRED, n);
        }
    }

    /// The per-frame sweep, throttled: walking every live session (state
    /// mutex plus a `try_lock` each) on every frame made each frame
    /// O(sessions). A quarter of the timeout between sweeps keeps memory
    /// reclamation prompt, and [`SessionManager::slot`] checks the
    /// addressed session's own stamp, so an expired session is never
    /// served in between.
    fn sweep_if_due(&self) {
        let now = self.clock.now_ns();
        let due = self.next_sweep_ns.load(Ordering::SeqCst);
        let next = now.saturating_add(self.idle_timeout_ns() / 4);
        // One winner per interval; losers' frames proceed unswept.
        if now >= due
            && self
                .next_sweep_ns
                .compare_exchange(due, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.sweep_idle();
        }
    }

    /// Look up a live session, expiring it on the spot if its own stamp
    /// is past the timeout (the sweep that would have caught it may not
    /// have run yet).
    fn slot(&self, id: u64) -> Option<Arc<Slot>> {
        let now = self.clock.now_ns();
        let mut state = lock(&self.state, &self.obs);
        let slot = state.sessions.get(&id).cloned()?;
        if self.is_idle(&slot, now) {
            state.sessions.remove(&id);
            state.stats.expired += 1;
            drop(state);
            self.obs.add(names::SRV_SESSIONS_EXPIRED, 1);
            return None;
        }
        Some(slot)
    }

    /// Evict `id` after a frame observed it over the memory cap.
    fn evict(&self, id: u64) {
        let mut state = lock(&self.state, &self.obs);
        if state.sessions.remove(&id).is_some() {
            state.stats.evicted += 1;
            drop(state);
            self.obs.add(names::SRV_SESSIONS_EVICTED, 1);
        }
    }

    /// Handle one raw request line: parse, dispatch, and append the
    /// response frame (no terminator) to `out` — the one rendering path;
    /// the transport passes its per-connection output buffer, so a reply
    /// is rendered once, into the bytes that go to the socket. Whatever
    /// `out` already holds is left untouched. Never panics; every failure
    /// becomes an `"ok": false` frame. `opened`/`closed` session ids are
    /// appended to `lifecycle` when provided so a connection can tear
    /// down what it owns — and when provided, session-addressed frames
    /// are restricted to the sessions that connection opened (others get
    /// `unknown_session`).
    pub fn handle_line_into(
        &self,
        line: &str,
        lifecycle: Option<&mut ConnSessions>,
        out: &mut String,
    ) {
        let t0 = Instant::now();
        self.obs.add(names::SRV_FRAMES, 1);
        match parse_request(line) {
            Ok(req) => self.dispatch(req, lifecycle, out),
            Err(e) => self.fail(&e, out),
        }
        self.obs.observe_ns(names::SRV_FRAME_NS, t0.elapsed());
    }

    /// [`SessionManager::handle_line_into`] into a fresh `String`.
    pub fn handle_line(&self, line: &str, lifecycle: Option<&mut ConnSessions>) -> String {
        let mut out = String::new();
        self.handle_line_into(line, lifecycle, &mut out);
        out
    }

    /// Handle an already-parsed request (the manager-level entry point
    /// used by tests and the bench harness).
    pub fn handle(&self, req: Request) -> String {
        let mut out = String::new();
        self.dispatch(req, None, &mut out);
        out
    }

    fn dispatch(&self, req: Request, lifecycle: Option<&mut ConnSessions>, out: &mut String) {
        self.sweep_if_due();
        // Sessions are connection-scoped: ids are sequential (guessable),
        // so a frame arriving over a connection may only address sessions
        // that connection opened — anything else is answered exactly like
        // a dead session, revealing nothing. In-process callers (tests,
        // the bench harness) pass no `lifecycle` and stay unrestricted.
        if let (Some(conn), Some(sid)) = (lifecycle.as_ref(), req.session_id()) {
            if !conn.owns(sid) {
                return self.unknown_session(sid, out);
            }
        }
        match req {
            Request::Ping => out.push_str("{\"ok\":true,\"pong\":true}"),
            Request::Open { sigma } => match self.open(sigma) {
                Some(id) => {
                    if let Some(conn) = lifecycle {
                        conn.track(id);
                    }
                    put!(out, "{{\"ok\":true,\"session\":{id}}}");
                }
                None => self.fail(
                    &ProtoError {
                        code: "server_full",
                        message: "session limit reached".to_owned(),
                    },
                    out,
                ),
            },
            Request::Close { session } => {
                if let Some(conn) = lifecycle {
                    conn.untrack(session);
                }
                if self.close(session) {
                    out.push_str("{\"ok\":true,\"closed\":true}");
                } else {
                    self.unknown_session(session, out);
                }
            }
            Request::Stats => self.stats_frame(out),
            Request::Node {
                session,
                label,
                name,
            } => self.with_session(session, out, |mgr, s, out| {
                let label = match (label, name) {
                    (Some(l), _) => Label(l),
                    (None, Some(n)) => match mgr.system.labels().get(&n) {
                        Some(l) => l,
                        None => {
                            return Err(ProtoError {
                                code: "unknown_label",
                                message: format!("label name '{n}' not in the label table"),
                            })
                        }
                    },
                    (None, None) => {
                        return Err(bad_session_frame("'node' needs 'label' or 'name'"))
                    }
                };
                put!(out, "{{\"ok\":true,\"node\":{}}}", s.add_node(label));
                Ok(())
            }),
            Request::Edge { session, u, v } => {
                self.with_session_gated(session, out, |_, s, out| {
                    let step = s.add_edge(u, v).map_err(session_error)?;
                    put!(
                        out,
                        "{{\"ok\":true,\"edge\":{},\"status\":\"{}\",\"candidates\":{}",
                        step.edge,
                        status_str(step.status),
                        step.candidate_count
                    );
                    if let Some(sug) = &step.suggestion {
                        put!(out, ",\"suggested_edge\":{}", sug.edge);
                    }
                    put!(out, ",\"elapsed_ns\":{}}}", step.total_time().as_nanos());
                    Ok(())
                })
            }
            Request::Delete { session, edges } => {
                self.with_session_gated(session, out, |_, s, out| {
                    let step = s.delete_edges(&edges).map_err(session_error)?;
                    put!(
                        out,
                        "{{\"ok\":true,\"candidates\":{},\"elapsed_ns\":{}}}",
                        step.candidate_count,
                        step.modify_time.as_nanos()
                    );
                    Ok(())
                })
            }
            Request::Relabel {
                session,
                node,
                label,
            } => self.with_session_gated(session, out, |_, s, out| {
                let new_edges = s.relabel_node(node, Label(label)).map_err(session_error)?;
                out.push_str("{\"ok\":true,\"new_edges\":[");
                put_list(out, &new_edges, |out, e| put!(out, "{e}"));
                out.push_str("]}");
                Ok(())
            }),
            Request::Similar { session } => self.with_session(session, out, |_, s, out| {
                let n = s.choose_similarity().map_err(session_error)?;
                put!(out, "{{\"ok\":true,\"candidates\":{n}}}");
                Ok(())
            }),
            Request::Run { session } => self.with_session_gated(session, out, |_, s, out| {
                let run = s.run().map_err(session_error)?;
                match &run.results {
                    QueryResults::Exact(ids) => {
                        out.push_str("{\"ok\":true,\"kind\":\"exact\",\"results\":[");
                        put_list(out, ids, |out, id| put!(out, "{id}"));
                    }
                    QueryResults::Similar(sim) => {
                        out.push_str("{\"ok\":true,\"kind\":\"similar\",\"results\":[");
                        put_list(out, &sim.matches, |out, m| {
                            put!(
                                out,
                                "{{\"graph\":{},\"distance\":{}}}",
                                m.graph_id,
                                m.distance
                            );
                        });
                    }
                }
                put!(out, "],\"srt_ns\":{}}}", run.srt.as_nanos());
                Ok(())
            }),
        }
    }

    /// Run `f` on the session, serialized against other frames for the
    /// same session, stamping last-used and enforcing the memory cap.
    /// `f` appends its reply to `out`; if it fails — even after writing
    /// part of one — `out` is cut back to where the frame began and the
    /// error frame goes there instead.
    fn with_session<F>(&self, id: u64, out: &mut String, f: F)
    where
        F: FnOnce(&Self, &mut Session<'static>, &mut String) -> Result<(), ProtoError>,
    {
        let Some(slot) = self.slot(id) else {
            return self.unknown_session(id, out);
        };
        slot.last_used_ns
            .store(self.clock.now_ns(), Ordering::SeqCst);
        let mark = out.len();
        let mut session = lock(&slot.session, &self.obs);
        // Holding the session mutex across the handler IS the contract —
        // frames for one session serialize (one user, one canvas). The
        // guard is per-session and never nested inside the manager-state
        // or gate locks, so no ordering cycle.
        // audit:allow(lock-across-call): per-session serialization by design
        let result = f(self, &mut session, out);
        let over_cap = session.memo().bytes() > self.cfg.session_memory_cap;
        drop(session);
        // Stamp again now the frame is done: idleness is measured from
        // the end of the last frame, not its start, so a frame that
        // waited a long time at the fair gate doesn't leave a stale
        // stamp behind for the next sweep to misread.
        slot.last_used_ns
            .store(self.clock.now_ns(), Ordering::SeqCst);
        if over_cap {
            self.evict(id);
        }
        if let Err(e) = result {
            out.truncate(mark);
            self.fail(&e, out);
        }
    }

    /// Like [`SessionManager::with_session`], but admission to the shared
    /// verification pool passes through the fair gate first: the frame
    /// blocks until this session is granted a slot, and the wait is
    /// recorded as `srv.queue_wait_ns`.
    fn with_session_gated<F>(&self, id: u64, out: &mut String, f: F)
    where
        F: FnOnce(&Self, &mut Session<'static>, &mut String) -> Result<(), ProtoError>,
    {
        self.with_session(id, out, |mgr, session, out| {
            let permit = mgr.gate.acquire(id);
            mgr.obs
                .observe_ns(names::SRV_QUEUE_WAIT_NS, permit.waited());
            f(mgr, session, out)
        });
    }

    /// Count a failed frame and append its error frame to `out`.
    fn fail(&self, e: &ProtoError, out: &mut String) {
        self.obs.add(names::SRV_FRAME_ERRORS, 1);
        out.push_str(&e.to_frame());
    }

    fn unknown_session(&self, id: u64, out: &mut String) {
        self.fail(
            &ProtoError {
                code: "unknown_session",
                message: format!("no live session {id}"),
            },
            out,
        );
    }

    fn stats_frame(&self, out: &mut String) {
        // `stats` reports what a sweep would find, not what the last one
        // left behind.
        self.sweep_idle();
        let state = lock(&self.state, &self.obs);
        let sessions = state.sessions.len();
        let stats = state.stats;
        drop(state);
        put!(out, "{{\"ok\":true,\"sessions\":{sessions},\"opened\":{},\"closed\":{},\"expired\":{},\"evicted\":{},\"db_graphs\":{}}}",
                stats.opened,
                stats.closed,
                stats.expired,
                stats.evicted,
                self.system.db().len());
    }
}

/// Append `items`, comma-separated, each rendered by `item`.
fn put_list<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    let mut rest = items.iter();
    if let Some(first) = rest.next() {
        item(out, first);
    }
    for x in rest {
        out.push(',');
        item(out, x);
    }
}

/// Sessions owned by one connection, so the transport can close them on
/// disconnect (clean teardown: no leaked sessions, no leaked
/// speculative-verify batches).
#[derive(Debug, Default)]
pub struct ConnSessions {
    ids: Vec<u64>,
}

impl ConnSessions {
    /// An empty ownership set.
    pub fn new() -> Self {
        ConnSessions { ids: Vec::new() }
    }

    /// The owned session ids.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Whether this connection opened (and has not closed) `id`. The
    /// manager consults this before dispatching any session-addressed
    /// frame that arrived over a connection.
    pub fn owns(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    fn track(&mut self, id: u64) {
        self.ids.push(id);
    }

    fn untrack(&mut self, id: u64) {
        self.ids.retain(|&i| i != id);
    }

    /// Close every owned session against `manager` (idempotent).
    pub fn close_all(&mut self, manager: &SessionManager) {
        for id in self.ids.drain(..) {
            manager.close(id);
        }
    }
}

fn status_str(s: StepStatus) -> &'static str {
    match s {
        StepStatus::Frequent => "frequent",
        StepStatus::Infrequent => "infrequent",
        StepStatus::Similar => "similar",
    }
}

fn bad_session_frame(message: &str) -> ProtoError {
    ProtoError {
        code: "bad_frame",
        message: message.to_owned(),
    }
}

/// A session-layer failure rendered as a protocol error: stable code
/// `query_error`, message from the session (escaping happens once, at
/// frame render time in [`error_frame`]).
fn session_error(e: SessionError) -> ProtoError {
    ProtoError {
        code: "query_error",
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use prague::{PragueSystem, SystemParams};
    use prague_graph::{Graph, GraphDb};

    fn chain(labels: &[u16]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = labels.iter().map(|&l| g.add_node(Label(l))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    /// Same shape as the core session tests: C-S-C frequent, C-S-O rare.
    fn system(threads: usize) -> Arc<PragueSystem> {
        let mut db = GraphDb::new();
        for _ in 0..6 {
            db.push(chain(&[0, 1, 0]));
        }
        for _ in 0..4 {
            db.push(chain(&[0, 0, 0, 0]));
        }
        db.push(chain(&[0, 1, 2]));
        let mut sys = PragueSystem::build(
            db,
            SystemParams {
                alpha: 0.3,
                beta: 2,
                max_fragment_edges: 5,
                ..Default::default()
            },
        )
        .unwrap();
        sys.set_obs(Obs::enabled());
        if threads > 1 {
            sys.set_threads(threads);
        }
        Arc::new(sys)
    }

    fn manager_with(cfg: ServerConfig, threads: usize) -> (SessionManager, Arc<FakeClock>) {
        let clock = Arc::new(FakeClock::new());
        let mgr = SessionManager::new(system(threads), cfg, clock.clone());
        (mgr, clock)
    }

    fn draw_edge(mgr: &SessionManager, id: u64) {
        let a = mgr.handle(Request::Node {
            session: id,
            label: Some(0),
            name: None,
        });
        assert!(a.contains("\"ok\":true"), "node frame failed: {a}");
        let b = mgr.handle(Request::Node {
            session: id,
            label: Some(1),
            name: None,
        });
        assert!(b.contains("\"ok\":true"), "node frame failed: {b}");
        let e = mgr.handle(Request::Edge {
            session: id,
            u: 0,
            v: 1,
        });
        assert!(e.contains("\"ok\":true"), "edge frame failed: {e}");
    }

    #[test]
    fn idle_sessions_expire_against_the_fake_clock() {
        let (mgr, clock) = manager_with(
            ServerConfig {
                idle_timeout: Duration::from_secs(60),
                ..Default::default()
            },
            1,
        );
        let idle = mgr.open(None).unwrap();
        clock.advance(Duration::from_secs(40));
        let fresh = mgr.open(None).unwrap();
        draw_edge(&mgr, idle); // touch: resets the idle stamp
        clock.advance(Duration::from_secs(50));
        draw_edge(&mgr, fresh); // 90s idle for `idle`? no — touched at t=40
        mgr.sweep_idle();
        // `idle` was last used at t=40, now t=90: 50s idle, under timeout.
        assert!(mgr.is_live(idle));
        assert!(mgr.is_live(fresh));
        clock.advance(Duration::from_secs(55));
        mgr.sweep_idle();
        // t=145: `idle` 105s idle → expired; `fresh` 55s idle → alive.
        assert!(!mgr.is_live(idle));
        assert!(mgr.is_live(fresh));
        assert_eq!(mgr.lifecycle_stats().expired, 1);
        // frames for the expired session now fail with a typed error
        let resp = mgr.handle(Request::Run { session: idle });
        assert!(resp.contains("unknown_session"), "{resp}");
    }

    #[test]
    fn over_budget_session_is_evicted_others_untouched() {
        let (mgr, _clock) = manager_with(
            ServerConfig {
                session_memory_cap: 1, // any memo traffic exceeds this
                ..Default::default()
            },
            1,
        );
        let heavy = mgr.open(None).unwrap();
        let light = mgr.open(None).unwrap();
        // C-S, S-O: the two-edge fragment is infrequent, so its exact
        // candidates are computed by intersection and admitted to the
        // memo — that is the footprint the cap meters.
        for label in [0u16, 1, 2] {
            let resp = mgr.handle(Request::Node {
                session: heavy,
                label: Some(label),
                name: None,
            });
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
        for (u, v) in [(0u32, 1u32), (1, 2)] {
            let resp = mgr.handle(Request::Edge {
                session: heavy,
                u,
                v,
            });
            // With a 1-byte cap the first admitting step already evicts;
            // a later frame for the evicted id gets the typed error.
            assert!(
                resp.contains("\"ok\":true") || resp.contains("unknown_session"),
                "{resp}"
            );
        }
        assert!(
            !mgr.is_live(heavy),
            "session over the memory cap must be evicted"
        );
        assert!(mgr.is_live(light), "neighbours stay untouched");
        assert_eq!(mgr.lifecycle_stats().evicted, 1);
        // The cap meters each session individually: the light session is
        // only evicted once *it* admits memo entries past the (1-byte)
        // budget — which its own first steps then do.
        draw_edge(&mgr, light);
        assert!(!mgr.is_live(light));
        assert_eq!(mgr.lifecycle_stats().evicted, 2);
    }

    #[test]
    fn expiry_with_speculative_verify_in_flight_is_clean() {
        let (mgr, clock) = manager_with(
            ServerConfig {
                idle_timeout: Duration::from_secs(10),
                ..Default::default()
            },
            2, // pool on: edges submit speculative verify batches
        );
        let id = mgr.open(None).unwrap();
        // C-S-O is infrequent with a non-empty R_q → a speculative batch
        // is pending after this edge (the canvas is not an indexed
        // fragment, so `run` would have to verify).
        let n0 = mgr.handle(Request::Node {
            session: id,
            label: Some(1),
            name: None,
        });
        assert!(n0.contains("\"ok\":true"));
        let n1 = mgr.handle(Request::Node {
            session: id,
            label: Some(2),
            name: None,
        });
        assert!(n1.contains("\"ok\":true"));
        let e = mgr.handle(Request::Edge {
            session: id,
            u: 0,
            v: 1,
        });
        assert!(e.contains("\"ok\":true"), "{e}");
        // Expire it while the background batch may still be in flight:
        // the drop path cancels via the generation/cancel token.
        clock.advance(Duration::from_secs(11));
        mgr.sweep_idle();
        assert!(!mgr.is_live(id));
        assert_eq!(mgr.lifecycle_stats().expired, 1);
        // The pool survives and a fresh session still verifies fine.
        let id2 = mgr.open(None).unwrap();
        draw_edge(&mgr, id2);
        let run = mgr.handle(Request::Run { session: id2 });
        assert!(run.contains("\"kind\":\"exact\""), "{run}");
        let snap = mgr.system().obs().snapshot().expect("obs enabled");
        assert_eq!(
            snap.counter(names::PAR_POISONED).unwrap_or(0),
            0,
            "teardown must not poison the pool"
        );
    }

    #[test]
    fn open_respects_the_session_cap() {
        let (mgr, _clock) = manager_with(
            ServerConfig {
                max_sessions: 2,
                ..Default::default()
            },
            1,
        );
        assert!(mgr.open(None).is_some());
        let second = mgr.open(None).unwrap();
        assert!(mgr.open(None).is_none(), "cap reached");
        assert!(mgr.close(second));
        assert!(mgr.open(None).is_some(), "closing frees a slot");
        let resp = mgr.handle(Request::Open { sigma: None });
        assert!(resp.contains("server_full"), "{resp}");
    }

    #[test]
    fn stats_frame_reports_lifecycle() {
        let (mgr, clock) = manager_with(
            ServerConfig {
                idle_timeout: Duration::from_secs(5),
                ..Default::default()
            },
            1,
        );
        let a = mgr.open(None).unwrap();
        let _b = mgr.open(None).unwrap();
        mgr.close(a);
        clock.advance(Duration::from_secs(6));
        mgr.sweep_idle();
        let stats = mgr.handle(Request::Stats);
        assert!(stats.contains("\"sessions\":0"), "{stats}");
        assert!(stats.contains("\"opened\":2"), "{stats}");
        assert!(stats.contains("\"closed\":1"), "{stats}");
        assert!(stats.contains("\"expired\":1"), "{stats}");
        assert!(stats.contains("\"db_graphs\":11"), "{stats}");
    }

    #[test]
    fn in_flight_frame_survives_a_concurrent_idle_sweep() {
        let (mgr, clock) = manager_with(
            ServerConfig {
                idle_timeout: Duration::from_secs(10),
                ..Default::default()
            },
            1,
        );
        let id = mgr.open(None).unwrap();
        // Simulate a frame stuck far past the idle timeout (e.g. a long
        // fair-gate wait under contention): while the handler holds the
        // session mutex, a concurrent sweep runs against a stale stamp.
        // The held mutex marks the session in flight, so the sweep must
        // skip it rather than expire it mid-frame.
        let mut resp = String::new();
        mgr.with_session(id, &mut resp, |m, _s, out| {
            clock.advance(Duration::from_secs(60));
            m.sweep_idle();
            assert!(m.is_live(id), "swept while a frame was in flight");
            out.push_str("{\"ok\":true}");
            Ok(())
        });
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // The stamp was refreshed when the frame *finished*: an
        // immediate sweep keeps the session, one past the timeout
        // expires it.
        mgr.sweep_idle();
        assert!(mgr.is_live(id));
        clock.advance(Duration::from_secs(11));
        mgr.sweep_idle();
        assert!(!mgr.is_live(id));
        assert_eq!(mgr.lifecycle_stats().expired, 1);
    }

    #[test]
    fn frames_sweep_once_per_quarter_timeout_and_never_serve_an_expired_session() {
        let (mgr, clock) = manager_with(
            ServerConfig {
                idle_timeout: Duration::from_secs(60),
                ..Default::default()
            },
            1,
        );
        let addressed = mgr.open(None).unwrap();
        let bystander = mgr.open(None).unwrap();
        clock.advance(Duration::from_secs(50));
        mgr.handle(Request::Ping); // sweeps (nothing is idle); next sweep due at t=65
        clock.advance(Duration::from_secs(11));
        // t=61: both sessions are past the timeout and no sweep is due.
        // A frame skips the walk over every session …
        mgr.handle(Request::Ping);
        assert!(mgr.is_live(addressed) && mgr.is_live(bystander));
        // … but the session a frame addresses is checked on lookup.
        let resp = mgr.handle(Request::Run { session: addressed });
        assert!(resp.contains("unknown_session"), "{resp}");
        assert!(!mgr.is_live(addressed));
        assert!(mgr.is_live(bystander));
        assert_eq!(mgr.lifecycle_stats().expired, 1);
        // t=66: the sweep is due again and the next frame runs it.
        clock.advance(Duration::from_secs(5));
        mgr.handle(Request::Ping);
        assert!(!mgr.is_live(bystander));
        assert_eq!(mgr.lifecycle_stats().expired, 2);
    }

    /// `reply` without the digits of its timing field, the only bytes
    /// that differ between two replays of one script.
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

    /// Frames that between them reach every arm of `dispatch`, ok and
    /// failing, for session 1 of a fresh manager.
    const FRAMES: &[&str] = &[
        "{\"op\":\"ping\"}",
        "{\"op\":\"open\"}",
        "{\"op\":\"stats\"}",
        "{\"op\":\"node\",\"session\":1,\"label\":0}",
        "{\"op\":\"node\",\"session\":1,\"label\":1}",
        "{\"op\":\"node\",\"session\":1,\"name\":\"nope\"}",
        "{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":1}",
        "{\"op\":\"edge\",\"session\":1,\"u\":1,\"v\":2}",
        "{\"op\":\"edge\",\"session\":1,\"u\":2,\"v\":3}",
        "{\"op\":\"delete\",\"session\":1,\"edge\":1}",
        "{\"op\":\"relabel\",\"session\":1,\"node\":0,\"label\":2}",
        "{\"op\":\"similar\",\"session\":1}",
        "{\"op\":\"run\",\"session\":1}",
        "{\"op\":\"run\",\"session\":7}",
        "{\"op\":\"close\",\"session\":1}",
        "{\"op\":\"warp\"}",
        "not json",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `handle_line_into` appends exactly what `handle_line` returns
        /// and never touches what the buffer already held — the transport
        /// relies on this to collect a read's replies in one buffer.
        #[test]
        fn handle_line_into_appends_exactly_the_reply(
            prefix in proptest::collection::vec(0x20u16..0x7f, 0..40),
            script in proptest::collection::vec(0..FRAMES.len(), 1..40),
        ) {
            let system = system(1);
            let twin = |system: &Arc<PragueSystem>| {
                SessionManager::new(
                    Arc::clone(system),
                    ServerConfig::default(),
                    Arc::new(FakeClock::new()),
                )
            };
            let (whole, appended) = (twin(&system), twin(&system));
            let prefix: String = prefix.iter().map(|&c| char::from(c as u8)).collect();
            let mut buf = prefix.clone();
            for &i in &script {
                let reply = whole.handle_line(FRAMES[i], None);
                let mark = buf.len();
                appended.handle_line_into(FRAMES[i], None, &mut buf);
                proptest::prop_assert_eq!(&buf[..prefix.len()], prefix.as_str());
                proptest::prop_assert_eq!(untimed(&buf[mark..]), untimed(&reply), "{}", FRAMES[i]);
            }

            // A handler that fails after writing part of its reply: the
            // part is cut away and the error frame stands in its place.
            let id = appended.open(None).unwrap();
            let mark = buf.len();
            let failure = bad_session_frame("failed halfway");
            appended.with_session(id, &mut buf, |_, _, out| {
                out.push_str("{\"ok\":true,\"results\":[1,2,");
                Err(failure.clone())
            });
            proptest::prop_assert_eq!(&buf[..prefix.len()], prefix.as_str());
            proptest::prop_assert_eq!(&buf[mark..], failure.to_frame());
        }
    }

    #[test]
    fn connections_cannot_address_each_others_sessions() {
        let (mgr, _clock) = manager_with(ServerConfig::default(), 1);
        let mut conn_a = ConnSessions::new();
        let mut conn_b = ConnSessions::new();
        let open = mgr.handle_line("{\"op\":\"open\"}", Some(&mut conn_a));
        assert!(open.contains("\"session\":1"), "{open}");
        // B probes A's (sequential, guessable) id: every session-
        // addressed op — close included — is answered exactly as if the
        // session did not exist.
        for frame in [
            "{\"op\":\"node\",\"session\":1,\"label\":0}",
            "{\"op\":\"edge\",\"session\":1,\"u\":0,\"v\":1}",
            "{\"op\":\"run\",\"session\":1}",
            "{\"op\":\"close\",\"session\":1}",
        ] {
            let resp = mgr.handle_line(frame, Some(&mut conn_b));
            assert!(resp.contains("unknown_session"), "{frame}: {resp}");
        }
        // A's session survived the probing, still usable by A …
        assert!(mgr.is_live(1));
        let resp = mgr.handle_line(
            "{\"op\":\"node\",\"session\":1,\"label\":0}",
            Some(&mut conn_a),
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // … and by in-process callers (no connection, no restriction).
        let resp = mgr.handle_line("{\"op\":\"node\",\"session\":1,\"label\":1}", None);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    #[test]
    fn conn_sessions_close_all_is_idempotent() {
        let (mgr, _clock) = manager_with(ServerConfig::default(), 1);
        let mut conn = ConnSessions::new();
        let open = mgr.handle_line("{\"op\":\"open\"}", Some(&mut conn));
        assert!(open.contains("\"session\":1"), "{open}");
        assert_eq!(conn.ids(), &[1]);
        let close = mgr.handle_line("{\"op\":\"close\",\"session\":1}", Some(&mut conn));
        assert!(close.contains("\"closed\":true"), "{close}");
        assert!(conn.ids().is_empty(), "explicit close untracks");
        conn.close_all(&mgr); // nothing left: no double-close
        assert_eq!(mgr.lifecycle_stats().closed, 1);
    }
}
