//! The transaction serving layer: an open-loop, stored-procedure front
//! end over the closed-loop CC engine.
//!
//! The paper's drivers are closed loops — each worker generates its next
//! transaction the instant the previous one finishes, so offered load
//! always equals capacity. A real service faces the opposite regime:
//! producers submit at *their* rate, and the engine must queue, prioritize,
//! shed, and answer. This module adds that front end without touching the
//! hot path:
//!
//! * [`TxnService::submit`] — many producer threads submit
//!   `(procedure, args, priority)`; the call builds the template via the
//!   [`ProcRegistry`], round-robins it onto a per-worker bounded queue,
//!   and returns a [`TxnTicket`] that resolves exactly once.
//! * One CC worker per shard drains its queue through the existing
//!   monomorphized [`CcProtocol`](crate::schemes::CcProtocol) executor —
//!   the same [`dispatch_protocol!`](crate::dispatch_protocol)-bound loop
//!   the benches measure.
//! * **Backpressure:** each shard is bounded; a full shard either blocks
//!   the producer or returns [`SubmitError::QueueFull`] per
//!   [`ServeConfig::block_on_full`].
//! * **Priorities:** two classes with a starvation-free dequeue discipline
//!   (at most [`ServeConfig::high_burst`] consecutive high-class dequeues
//!   while low-class work waits).
//! * **Load shedding:** admission sheds low-class requests when a shard's
//!   depth reaches [`ServeConfig::shed_depth`] (high-class at twice that),
//!   or when the observed queue-to-ack p99 crosses
//!   [`ServeConfig::shed_ack_p99_ns`]. Shed requests resolve their ticket
//!   as [`TicketStatus::Shed`] immediately — bounded latency, visible
//!   rejection, no silent queue growth.
//! * **Drain/shutdown:** [`TxnService::cancel_token`] stops admission from
//!   anywhere; [`TxnService::shutdown`] closes the queues, lets workers
//!   drain every accepted request, joins them, and returns the merged
//!   [`RunStats`](abyss_common::RunStats) — queue-to-ack latency per
//!   priority class and shed counts included, flowing into the metrics
//!   snapshot and both exporters.

mod queue;
mod registry;
mod service;
mod ticket;

pub use registry::{ProcFn, ProcId, ProcRegistry};
pub use service::{CancelToken, TxnService};
pub use ticket::{TicketStatus, TxnTicket};

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No stored procedure registered under that name.
    UnknownProc,
    /// The target shard is at capacity and
    /// [`ServeConfig::block_on_full`] is off.
    QueueFull,
    /// The service is shutting down; admission is closed.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownProc => write!(f, "unknown stored procedure"),
            SubmitError::QueueFull => write!(f, "request queue full"),
            SubmitError::Stopped => write!(f, "service stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Serving-layer tunables. Defaults suit tests and small benches; the
/// `fig_service` harness sweeps the interesting ones.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-shard queue bound across both priority classes. A full shard
    /// exerts backpressure per [`ServeConfig::block_on_full`].
    pub queue_capacity: usize,
    /// Depth at which admission sheds low-class requests; high-class
    /// requests shed at twice this (capped by the capacity). Must be
    /// `> 0` and `<= queue_capacity` — shedding is the pressure valve
    /// *before* the hard bound.
    pub shed_depth: usize,
    /// Queue-to-ack p99 threshold (ns) above which low-class admission
    /// sheds even when the queue is shallow. `0` disables latency-based
    /// shedding. The gauge is each worker's observed p99, refreshed every
    /// few hundred acks.
    pub shed_ack_p99_ns: u64,
    /// On a full shard: `true` blocks the producer until space frees (or
    /// the service stops); `false` fails fast with
    /// [`SubmitError::QueueFull`].
    pub block_on_full: bool,
    /// Maximum consecutive high-class dequeues while low-class work
    /// waits — the starvation bound. Must be `>= 1`.
    pub high_burst: u32,
    /// Expected producer-thread count, used only to decide whether the
    /// park table should collapse to its early-yield spin ladder
    /// (workers + producers > cores).
    pub producer_hint: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            shed_depth: 512,
            shed_ack_p99_ns: 0,
            block_on_full: true,
            high_burst: 8,
            producer_hint: 1,
        }
    }
}

impl ServeConfig {
    /// Panics on nonsensical combinations (zero bounds, shed beyond
    /// capacity).
    pub fn validate(&self) {
        assert!(self.queue_capacity > 0, "queue_capacity must be > 0");
        assert!(
            self.shed_depth > 0 && self.shed_depth <= self.queue_capacity,
            "shed_depth must be in 1..=queue_capacity (got {} of {})",
            self.shed_depth,
            self.queue_capacity
        );
        assert!(self.high_burst >= 1, "high_burst must be >= 1");
    }
}
