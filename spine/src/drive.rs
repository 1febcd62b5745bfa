//! The closed-loop client: one thread per connection, one outstanding
//! frame per connection, several interleaved sessions per connection when
//! the workload has think time.
//!
//! The same loop drives a TCP socket (the measured window) and
//! `SessionManager::handle_line` (warm-up and the traced passes), so both
//! see the same frames in the same order with the same pauses.

use crate::direct::{Frame as Expected, RunInfo};
use crate::script::{Class, Op, Trace};
use prague_server::{ConnSessions, SessionManager};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A frame that gets no reply within this long counts as failed.
pub const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Where frames go.
pub trait Transport {
    /// Send one protocol line (newline included) and return the reply
    /// line, without its newline.
    fn call(&mut self, line: &str) -> std::io::Result<&str>;
}

/// A real connection to the service.
pub struct Socket {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` that belong to the reply being returned.
    reply_len: usize,
}

impl Socket {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Socket> {
        let stream = TcpStream::connect(addr)?;
        // The client must not add Nagle delays of its own to the numbers.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        Ok(Socket {
            stream,
            buf: Vec::with_capacity(1 << 16),
            reply_len: 0,
        })
    }
}

impl Transport for Socket {
    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        // One write per frame: the request leaves in one segment.
        self.stream.write_all(line.as_bytes())?;
        self.buf.drain(..self.reply_len);
        self.reply_len = 0;
        let deadline = Instant::now() + FRAME_TIMEOUT;
        let mut scanned = 0;
        loop {
            if let Some(nl) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                self.reply_len = scanned + nl + 1;
                let reply = &self.buf[..scanned + nl];
                return std::str::from_utf8(reply)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
            }
            scanned = self.buf.len();
            if Instant::now() >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The manager called in process, with a connection's session ownership.
pub struct InProcess {
    manager: Arc<SessionManager>,
    owned: ConnSessions,
    reply: String,
}

impl InProcess {
    pub fn new(manager: Arc<SessionManager>) -> InProcess {
        InProcess {
            manager,
            owned: ConnSessions::new(),
            reply: String::new(),
        }
    }
}

impl Transport for InProcess {
    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.reply = self
            .manager
            .handle_line(line.trim_end(), Some(&mut self.owned));
        Ok(&self.reply)
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        self.owned.close_all(&self.manager);
    }
}

/// When a connection stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Cycle through the pass until this instant; sessions still open then
    /// are closed and the frames that close them are not counted.
    Deadline(Instant),
    /// Each trace of the pass exactly once.
    OnePass,
}

/// One connection's share of the work.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Index of this connection's first lane.
    pub first_lane: usize,
    /// Sessions this connection interleaves.
    pub slots: usize,
    /// Lanes over all connections: lane `l` plays traces `l`, `l + lanes`, …
    pub lanes: usize,
    pub think: Duration,
    pub until: Until,
}

/// One frame's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub run: Option<RunInfo>,
    /// Send to reply, nanoseconds.
    pub latency_ns: u64,
    /// `srt_ns` of a `run` reply.
    pub srt_ns: Option<u64>,
    pub reply_bytes: usize,
    /// Position of the frame in the pass: (trace, op).
    pub at: (usize, usize),
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct Record {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the error message.
    pub failures: Vec<String>,
    /// How long after its due time each frame was sent (think workloads).
    pub late_ns: Vec<u64>,
    /// Harness time per frame: reply received to next frame sent, pauses
    /// excluded.
    pub self_ns: Vec<u64>,
    /// When the last counted frame was done.
    pub finished: Option<Instant>,
}

impl Record {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Record) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(4);
        self.late_ns.extend(other.late_ns);
        self.self_ns.extend(other.self_ns);
        self.finished = self.finished.max(other.finished);
    }
}

struct Slot {
    /// Next trace of this lane.
    trace: usize,
    op: usize,
    session: u64,
    due: Instant,
    done: bool,
}

/// The session id an `open` reply carries.
pub fn parse_session(reply: &str) -> Option<u64> {
    let rest = reply.strip_prefix("{\"ok\":true,\"session\":")?;
    rest.strip_suffix('}')?.parse().ok()
}

/// The `srt_ns` field a `run` reply ends with.
fn parse_srt(reply: &str) -> Option<u64> {
    let (_, tail) = reply.rsplit_once(",\"srt_ns\":")?;
    tail.strip_suffix('}')?.parse().ok()
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Play this connection's lanes over `transport`, checking every reply
/// against `expected` (indexed like `traces`).
pub fn drive<T: Transport>(
    transport: &mut T,
    traces: &[Trace],
    expected: &[Vec<Expected>],
    plan: Plan,
) -> Record {
    let mut rec = Record::default();
    let start = Instant::now();
    let mut slots: Vec<Slot> = (0..plan.slots)
        .map(|s| Slot {
            trace: plan.first_lane + s,
            op: 0,
            session: 0,
            due: start,
            done: false,
        })
        .collect();
    let mut line = String::with_capacity(128);
    let mut last_reply_at: Option<Instant> = None;
    // The session whose next frame has been due longest goes first.
    while let Some(slot) = slots.iter_mut().filter(|s| !s.done).min_by_key(|s| s.due) {
        let index = match plan.until {
            Until::Deadline(_) => slot.trace % traces.len(),
            Until::OnePass if slot.trace < traces.len() => slot.trace,
            Until::OnePass => {
                slot.done = true;
                continue;
            }
        };
        let mut paused = Duration::ZERO;
        let now = Instant::now();
        if let Until::Deadline(end) = plan.until {
            // A frame due after the deadline is never sent, so nobody
            // sleeps past the end of the window.
            if now.max(slot.due) >= end {
                break;
            }
        }
        if slot.due > now {
            paused = slot.due - now;
            std::thread::sleep(paused);
        }
        let op = traces[index].ops[slot.op];
        let want = &expected[index][slot.op];
        line.clear();
        op.render(slot.session, &mut line);
        let sent = Instant::now();
        if !plan.think.is_zero() {
            rec.late_ns
                .push(ns(sent.saturating_duration_since(slot.due)));
        }
        if let Some(prev) = last_reply_at {
            rec.self_ns
                .push(ns(sent.duration_since(prev).saturating_sub(paused)));
        }
        rec.attempted += 1;
        let reply = match transport.call(&line) {
            Ok(reply) => reply,
            Err(e) => {
                // The connection is no longer in step with its replies.
                rec.fail(format!("{}: {e}", line.trim_end()));
                rec.finished = Some(Instant::now());
                return rec;
            }
        };
        let got = Instant::now();
        last_reply_at = Some(got);
        if reply.starts_with(want.expected.as_str()) {
            if op == Op::Open {
                match parse_session(reply) {
                    Some(id) => slot.session = id,
                    None => rec.fail(format!("open: unreadable reply {reply}")),
                }
            }
            rec.samples.push(Sample {
                class: op.class(),
                run: want.run,
                latency_ns: ns(got - sent),
                srt_ns: parse_srt(reply),
                reply_bytes: reply.len(),
                at: (index, slot.op),
            });
        } else {
            let shown: String = reply.chars().take(160).collect();
            rec.fail(format!(
                "trace {index} frame {} {}: got {shown}",
                slot.op,
                line.trim_end()
            ));
        }
        slot.op += 1;
        if slot.op == traces[index].ops.len() {
            slot.op = 0;
            slot.session = 0;
            slot.trace += plan.lanes;
        }
        slot.due = Instant::now() + plan.think;
    }
    rec.finished = Some(Instant::now());
    // Hang up politely: sessions cut off by the deadline are closed, and
    // these frames are not part of the measurement.
    for slot in slots.iter().filter(|s| s.op > 0 && s.session != 0) {
        line.clear();
        Op::Close.render(slot.session, &mut line);
        let _ = transport.call(&line);
    }
    rec
}
