//! Readiness-driven actor engine: tens of thousands of card sessions on a
//! handful of worker threads.
//!
//! A round-robin that visits every live session each lap burns one visit per
//! *waiting* session — card channel drained, no chunk push pending — whether
//! or not it can make progress: noise at hundreds of sessions, the
//! bottleneck at tens of thousands (O(sessions) work per lap). The actor
//! engine inverts the control flow: a session is **parked** when its mailbox
//! is drained and re-enqueued only when a new event — an APDU batch, a chunk
//! push — arrives, so the engine does O(changed work) per step, never
//! O(sessions).
//!
//! It is the workspace's one session executor. Event-driven sessions use
//! [`ActorEngine::run`]; pull sessions that only need quantum-bounded steps
//! go through [`crate::service::SessionScheduler`], which seeds them ready
//! with [`ActorEngine::run_ready`] (an [`ActorStatus::Ready`] session is
//! requeued without an event, so it self-drives to completion).
//!
//! # Architecture
//!
//! ```text
//!   driver thread ── send(actor, event) ──▶ bounded Mailbox (per actor)
//!                                            │ Parked → Scheduled: enqueue
//!                                            ▼
//!             ┌──────────── injector queue ─────────────┐
//!             │                                          │
//!   ┌─ worker 0 ─┐   ┌─ worker 1 ─┐    ...   ┌─ worker N-1 ─┐
//!   │ local FIFO │◀─▶│ local FIFO │◀──steal──▶│  local FIFO  │
//!   └────────────┘   └────────────┘           └──────────────┘
//!        │ claim: Scheduled → Running, drain ≤ batch events,
//!        ▼ deliver to ActorSession::on_event
//!   post-step: Ready or queued events → requeue (tail of local FIFO)
//!              drained + Parked        → park (no queue holds the id)
//!              Complete / Err          → retire (sends are rejected)
//! ```
//!
//! # Mailbox states
//!
//! Every actor owns one bounded mailbox whose state machine is guarded by a
//! single mutex (see `mailbox.rs`):
//!
//! * **Parked** — no queued events and no run-queue entry; only a send can
//!   wake the actor.
//! * **Scheduled** — the actor's id sits in *exactly one* run queue (a
//!   worker-local FIFO or the shared injector), waiting to be claimed.
//! * **Running** — a worker claimed the id and is delivering events.
//! * **Complete** — the actor retired (completed or failed); sends are
//!   rejected, queued events are dropped, blocked senders are woken.
//!
//! # Park/unpark protocol (no lost wakeup)
//!
//! The park decision and the send race on purpose — and resolve under the
//! same mailbox mutex. A sender pushes its event and, *iff* the state is
//! `Parked`, transitions it to `Scheduled` and enqueues the id. A worker
//! finishing a dispatch re-checks the queue under that same mutex: if a send
//! landed while the actor was `Running`, the queue is non-empty and the
//! worker requeues instead of parking. Either the sender sees `Parked` and
//! enqueues, or the worker sees the event and requeues — an event can never
//! sit in a mailbox whose actor is parked (`actor_park_unpark_never_loses_a_
//! wakeup` model-checks every interleaving of this hand-off).
//!
//! # No double-step
//!
//! An id enters a run queue only on the `Parked → Scheduled` transition (by
//! a sender) or the `Running → Scheduled` transition (by the one worker that
//! was running it), both under the mailbox mutex, and claiming an id is the
//! `Scheduled → Running` transition. The id therefore sits in at most one
//! queue at any time and at most one worker runs a given actor —
//! `actor_under_worker_race_is_stepped_exactly_once` soaks this with racing
//! workers under the model checker.
//!
//! # Fairness guarantee
//!
//! A dispatch delivers at most `batch` events; a still-ready actor is
//! requeued at the **tail** of the stepping worker's local FIFO, and workers
//! drain their local FIFO front-to-back, stealing (again from the front)
//! only when it is empty. Between two dispatches of one actor, every other
//! actor scheduled on that worker is dispatched once — a chatty session
//! cannot starve woken ones (`tests/actor_equivalence.rs` pins this with 1
//! chatty + 100 idle sessions).
//!
//! # Model checking
//!
//! The engine is built entirely on `sdds_sync` primitives (mutexes,
//! condvars, atomics, scoped threads) — no new shim was needed — so the
//! *same* sources run under the `sdds-check` bounded-exhaustive interleaving
//! checker when compiled with `--cfg sdds_check`
//! (`crates/check/tests/actor_invariants.rs`).

pub mod engine;
mod mailbox;

pub use engine::{ActorEngine, ActorHandle, ActorReport, FinishedActor, SendError};
pub use mailbox::MailboxState;

/// What an actor reports after handling an event (or a granted step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorStatus {
    /// The actor has more self-driven work: re-enqueue it even if its
    /// mailbox is empty (used by the [`crate::service::SessionScheduler`]
    /// adapter, whose sessions pull rather than react).
    Ready,
    /// The actor is waiting for input: park it once its mailbox drains.
    Parked,
    /// The actor finished; retire it and reject further sends.
    Complete,
}

/// A session the actor engine can drive by events.
///
/// Implementations react to events ([`ActorSession::on_event`]) and may also
/// accept event-less steps ([`ActorSession::on_step`]) when they previously
/// reported [`ActorStatus::Ready`]. An `Err` from either hook retires the
/// actor with the message, exactly like a failing
/// [`crate::service::Schedulable`] step.
pub trait ActorSession: Send {
    /// What the actor's mailbox carries (an APDU batch, a chunk push, …).
    type Event: Send;

    /// Delivers one event; returns the actor's readiness afterwards.
    fn on_event(&mut self, event: Self::Event) -> Result<ActorStatus, String>;

    /// Grants a step with no pending event — only reachable after the actor
    /// reported [`ActorStatus::Ready`] (or when seeded ready, see
    /// [`ActorEngine::run_ready`]).
    fn on_step(&mut self) -> Result<ActorStatus, String>;
}
