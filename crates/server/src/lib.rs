//! # prague-server
//!
//! The multi-session query service: many concurrent formulation
//! sessions, one shared PRAGUE system, one fair verification pool.
//!
//! The paper evaluates PRAGUE as a single user at a canvas; a deployed
//! service fronts *many* canvases at once. This crate supplies that
//! layer, std-only like the rest of the workspace:
//!
//! * [`protocol`] — a line-oriented JSON protocol (one object per line:
//!   `open` / `node` / `edge` / `delete` / `relabel` / `similar` /
//!   `run` / `stats` / `close` / `ping`), parsed with the workspace's
//!   serde-free parser and hardened against malformed input;
//! * [`manager`] — the [`SessionManager`]: hundreds of
//!   `Session<'static>`s co-owning one read-mostly
//!   [`prague::PragueSystem`], with per-session memory caps, idle
//!   expiry against an injectable [`Clock`], and fair admission of
//!   verify-carrying frames onto the shared pool through
//!   [`prague_par::FairGate`] so a heavy session cannot starve light
//!   ones out of their GUI latency budget;
//! * [`server`] — a thread-per-connection TCP transport that tears
//!   down cleanly on disconnect (sessions closed, speculative
//!   verification cancelled, threads joined), answers one read's frames
//!   in one write, and holds a connection that sends without think time
//!   to [`FRAME_RATE`] frames a second past a burst of [`FRAME_BURST`];
//! * [`clock`] — the deterministic time source the lifecycle tests
//!   drive ([`FakeClock`]) and production runs on ([`SystemClock`]).
//!
//! Service behavior is observable through the `srv.*` metrics
//! documented in ARCHITECTURE.md § "Service layer" and pinned by
//! `tests/integration_service.rs`; `prague serve` (the CLI) and
//! `exp_service_load` (the bench harness) are the two front doors.

#![warn(missing_docs)]

pub mod clock;
pub mod manager;
pub mod protocol;
pub mod server;

pub use clock::{Clock, FakeClock, SystemClock};
pub use manager::{ConnSessions, LifecycleStats, ServerConfig, SessionManager};
pub use protocol::{parse_request, ProtoError, Request, MAX_LINE};
pub use server::{Server, FRAME_BURST, FRAME_RATE};
