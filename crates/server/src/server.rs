//! The TCP transport: one thread per connection, one JSON frame per line.
//!
//! The transport is deliberately thin — all protocol and scheduling
//! logic lives in [`SessionManager`] — and hardened at the edges:
//!
//! * every accepted stream has `TCP_NODELAY` set, and the replies to all
//!   complete lines of one read leave in one `write_all`, rendered
//!   straight into the buffer that is written (see `run_conn`): a reply
//!   sent as body-then-newline under Nagle waits ~40 ms for the peer's
//!   delayed ACK, on every frame;
//! * a connection is answered at a **steady sustained rate**: its first
//!   [`FRAME_BURST`] frames (and any frames after a lull) are answered as
//!   fast as they are handled, past that its replies leave
//!   [`FRAME_RATE`] per second (see `Pace`). A canvas with a person
//!   at it never comes near the rate; a client that loops without
//!   think time is held to it, so what it is served does not depend on
//!   what its queries happen to cost, and the speculative verification
//!   its last step started gets the pause to finish in;
//! * lines are read with an explicit [`crate::protocol::MAX_LINE`] cap;
//!   a peer that streams past it — newline-terminated or not — gets one
//!   `line_too_long` error frame and the connection is closed (buffers
//!   never balloon);
//! * concurrent connections are capped at
//!   [`crate::ServerConfig::max_conns`]; an accept past the cap is
//!   answered with one `too_many_connections` frame and closed, so a
//!   connection flood cannot exhaust threads;
//! * a half-closed or reset connection tears down cleanly: every session
//!   the connection opened (and did not close) is closed for it, which
//!   cancels any in-flight speculative verification via the session's
//!   own drop path;
//! * reads use a bounded timeout so connection threads observe shutdown
//!   promptly without idle connections spinning; [`Server`] joins its
//!   accept loop and every connection thread on
//!   [`Server::shutdown`]/drop — no leaked threads.

use crate::manager::{ConnSessions, SessionManager};
use crate::protocol::{error_frame, MAX_LINE};
use prague_obs::{names, Obs};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval for the accept loop; bounds how long shutdown waits on
/// an idle listener.
const POLL: Duration = Duration::from_millis(20);

/// Read timeout for connection sockets. EOF and data wake a read
/// immediately regardless, so this only paces how often an *idle*
/// connection re-checks the shutdown flag — long enough that parked
/// connections barely burn CPU, short enough that shutdown stays
/// prompt.
const READ_POLL: Duration = Duration::from_millis(200);

/// Output buffered for one read's worth of pipelined frames is written
/// out early once it passes this many bytes (replies stay in order), and
/// a connection's output buffer keeps at most this much capacity between
/// writes — so neither a burst of large replies nor one huge one balloons
/// a connection's memory.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Frames per second one connection is answered at once its burst
/// allowance is spent. PRAGUE's premise is that a step hides inside GUI
/// think time (seconds per edge); a connection multiplexing a dozen
/// canvases sends a few tens of frames a second. A peer past this rate
/// is not a person drawing: holding it here keeps one no-think client
/// from taking the connection's core and the shared verification pool
/// with batches it cancels on its next frame, and makes its frame rate a
/// property of the service instead of the cost of its queries.
pub const FRAME_RATE: u32 = 80;

/// Frames a connection may be answered ahead of [`FRAME_RATE`]: the
/// burst a front end sends when it replays saved canvases (open + nodes
/// + edges, a few dozen frames each) goes through unpaced.
pub const FRAME_BURST: u32 = 128;

/// One frame's share of a second at [`FRAME_RATE`].
const FRAME_INTERVAL: Duration = Duration::from_nanos(1_000_000_000 / FRAME_RATE as u64);

/// How far ahead of [`FRAME_RATE`] a connection may be answered: the
/// time [`FRAME_BURST`] frames take at that rate.
const BURST_ALLOWANCE: Duration =
    Duration::from_nanos(FRAME_INTERVAL.as_nanos() as u64 * FRAME_BURST as u64);

/// A running query service bound to a TCP port.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections against `manager`.
    pub fn bind(addr: &str, manager: Arc<SessionManager>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || accept_loop(&listener, &manager, &flag));
        Ok(Server {
            addr: local,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join every connection thread, and return. Also
    /// runs on drop; calling it explicitly just makes teardown visible.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            // A panicked accept loop already tore the service down; there
            // is nothing further to unwind here.
            drop(handle.join());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, manager: &Arc<SessionManager>, shutdown: &Arc<AtomicBool>) {
    // Connection handles live only on this thread; reaped as connections
    // finish so the list tracks live connections, not connection history.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                conns.retain(|h| !h.is_finished());
                if conns.len() >= manager.config().max_conns {
                    // Refuse past the cap: one typed frame, then close.
                    // A flood therefore costs one write per attempt, not
                    // a thread.
                    let mut frame = error_frame("too_many_connections", "connection limit reached");
                    frame.push('\n');
                    drop(stream.write_all(frame.as_bytes()));
                    continue;
                }
                let manager = Arc::clone(manager);
                let flag = Arc::clone(shutdown);
                conns.push(std::thread::spawn(move || {
                    serve_conn(stream, &manager, &flag)
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in conns {
        drop(h.join());
    }
}

/// Serve one connection until EOF, error, oversized line, or shutdown.
/// On every exit path the connection's surviving sessions are closed.
fn serve_conn(stream: TcpStream, manager: &Arc<SessionManager>, shutdown: &Arc<AtomicBool>) {
    let mut owned = ConnSessions::new();
    run_conn(stream, manager, shutdown, &mut owned);
    owned.close_all(manager);
}

/// A connection's reply schedule (the generic cell rate algorithm: a token
/// bucket of [`FRAME_BURST`] refilled at [`FRAME_RATE`], kept as one
/// instant). `due` is when the connection's frames so far would all have
/// been answered at exactly the sustained rate; the connection may run
/// ahead of that by the burst allowance and no further. The schedule is
/// absolute — a sleep that overshoots is not added to the next frame's
/// wait — so a paced connection gets `FRAME_RATE` frames a second, not
/// slightly fewer.
struct Pace {
    due: Instant,
}

impl Pace {
    /// Account for one answered frame. Time in which the connection sent
    /// nothing, or in which handling took longer than a frame's interval,
    /// is credit: it brings `now` closer to `due` (never past it).
    fn frame(&mut self, now: Instant) {
        self.due = self.due.max(now) + FRAME_INTERVAL;
    }

    /// How long the replies rendered so far must wait before they leave.
    fn hold(&self, now: Instant) -> Duration {
        self.due
            .saturating_duration_since(now)
            .saturating_sub(BURST_ALLOWANCE)
    }
}

/// The connection loop. Two buffers live as long as the connection:
///
/// * `partial` — the unterminated tail of what has been read: the start
///   of a line whose newline has not arrived. Only freshly read bytes
///   are searched for `\n`, and a line that arrives whole in one read is
///   parsed where it was read, never copied;
/// * `out` — the replies to every complete line of one read, each with
///   its newline, in request order. It leaves in **one** `write_all`
///   per read, so a reply is never split across segments behind a
///   delayed ACK, and pipelined frames are answered in one segment.
///
/// Before the write, a connection that has run further ahead of
/// [`FRAME_RATE`] than its burst allowance waits until it is back inside
/// it (see [`Pace`]). The wait comes after handling, so a frame that
/// took longer than its interval is not held at all.
fn run_conn(
    mut stream: TcpStream,
    manager: &Arc<SessionManager>,
    shutdown: &Arc<AtomicBool>,
    owned: &mut ConnSessions,
) {
    // Replies are small and the peer is waiting on each: never hold one
    // back to coalesce it (Nagle).
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let obs = manager.system().obs();
    let mut partial: Vec<u8> = Vec::new();
    let mut out = String::new();
    let mut pace = Pace {
        due: Instant::now(),
    };
    let mut chunk = [0u8; 4096];
    while !shutdown.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF / half-close
            Ok(n) => {
                let Some(fresh) = chunk.get(..n) else { return };
                let mut pieces = fresh.split(|&b| b == b'\n');
                // `split` always yields a last piece: what follows the
                // final newline (all of `fresh` when there is none).
                let tail = pieces.next_back().unwrap_or_default();
                let mut hang_up = false;
                for piece in pieces {
                    let line = if partial.is_empty() {
                        piece
                    } else {
                        partial.extend_from_slice(piece);
                        partial.as_slice()
                    };
                    let text = String::from_utf8_lossy(line);
                    let text = text.trim();
                    manager.handle_line_into(text, Some(owned), &mut out);
                    out.push('\n');
                    pace.frame(Instant::now());
                    // Same cap `parse_request` enforces: an over-long
                    // *terminated* line got its `line_too_long` frame
                    // just now; then the documented hang-up — matching
                    // the unterminated path.
                    hang_up = text.len() > MAX_LINE;
                    partial.clear();
                    if hang_up {
                        break;
                    }
                    if out.len() >= OUT_HIGH_WATER && send(&mut stream, obs, &mut out).is_err() {
                        return;
                    }
                }
                if !hang_up {
                    partial.extend_from_slice(tail);
                    if partial.len() > MAX_LINE {
                        // The peer is streaming an unterminated frame
                        // past the cap: reply once, then hang up.
                        out.push_str(&error_frame("line_too_long", "frame exceeds the line cap"));
                        out.push('\n');
                        hang_up = true;
                    }
                }
                if !wait_out(&pace, obs, shutdown)
                    || send(&mut stream, obs, &mut out).is_err()
                    || hang_up
                {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return, // reset / broken pipe
        }
    }
}

/// Sleep until `pace` lets the connection's replies leave; `false` when
/// the server is shutting down instead. Almost always no wait at all. A
/// wait is slept in slices of at most [`READ_POLL`], so a paced
/// connection observes shutdown as promptly as an idle one, and with obs
/// enabled it is metered (`srv.pace_ns`) — time a frame spent neither in
/// handling (`srv.frame_ns`) nor in the write (`srv.write_ns`).
fn wait_out(pace: &Pace, obs: &Obs, shutdown: &AtomicBool) -> bool {
    let hold = pace.hold(Instant::now());
    if hold.is_zero() {
        return true;
    }
    obs.observe_ns(names::SRV_PACE_NS, hold);
    let mut left = hold;
    while !left.is_zero() {
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let slice = left.min(READ_POLL);
        std::thread::sleep(slice);
        left -= slice;
    }
    true
}

/// Write everything in `out` to the socket in one `write_all` and empty
/// it. With obs enabled the write is metered (`srv.reply_bytes`,
/// `srv.write_ns`), which separates transport time from handling time
/// (`srv.frame_ns`).
fn send(stream: &mut TcpStream, obs: &Obs, out: &mut String) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let t0 = obs.is_enabled().then(Instant::now);
    let written = stream.write_all(out.as_bytes());
    if let Some(t0) = t0 {
        obs.observe_count(names::SRV_REPLY_BYTES, out.len() as u64);
        obs.observe_ns(names::SRV_WRITE_NS, t0.elapsed());
    }
    out.clear();
    // One huge reply must not pin its buffer for the connection's life.
    out.shrink_to(OUT_HIGH_WATER);
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_goes_unheld_and_the_frame_after_it_waits_one_interval() {
        let t0 = Instant::now();
        let mut pace = Pace { due: t0 };
        for _ in 0..FRAME_BURST {
            pace.frame(t0);
            assert_eq!(pace.hold(t0), Duration::ZERO);
        }
        pace.frame(t0);
        assert_eq!(pace.hold(t0), FRAME_INTERVAL);
        // The schedule is absolute: waking late shortens the next wait,
        // it is not added to it.
        let late = t0 + FRAME_INTERVAL + FRAME_INTERVAL / 2;
        assert_eq!(pace.hold(late), Duration::ZERO);
        pace.frame(late);
        assert_eq!(pace.hold(late), FRAME_INTERVAL / 2);
    }

    #[test]
    fn frames_at_the_sustained_rate_are_never_held_and_a_lull_earns_one_burst() {
        let t0 = Instant::now();
        let mut pace = Pace { due: t0 };
        let mut now = t0;
        for _ in 0..10 * FRAME_BURST {
            now += FRAME_INTERVAL;
            pace.frame(now);
            assert_eq!(pace.hold(now), Duration::ZERO);
        }
        // However long the connection was quiet, the credit is one burst.
        now += Duration::from_secs(3600);
        for _ in 0..FRAME_BURST {
            pace.frame(now);
        }
        assert_eq!(pace.hold(now), Duration::ZERO);
        pace.frame(now);
        assert_eq!(pace.hold(now), FRAME_INTERVAL);
    }

    #[test]
    fn a_frame_that_took_longer_than_its_interval_is_credit_for_the_next() {
        let t0 = Instant::now();
        let mut pace = Pace { due: t0 };
        for _ in 0..=FRAME_BURST {
            pace.frame(t0);
        }
        // Three intervals of handling: that frame and the two after it
        // leave at once.
        let now = t0 + FRAME_INTERVAL * 4;
        pace.frame(now);
        pace.frame(now);
        pace.frame(now);
        assert_eq!(pace.hold(now), Duration::ZERO);
        pace.frame(now);
        assert_eq!(pace.hold(now), FRAME_INTERVAL);
    }
}
