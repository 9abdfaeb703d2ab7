//! The single naming authority for metric families.
//!
//! Every family the workspace registers lives here as a `pub const`, so the
//! instrumentation call sites cannot drift apart on spelling and the
//! `doc-sync` lint rule can hold ARCHITECTURE.md's metric table to exactly
//! this list: each string constant in this file must appear in the book.

/// Requests served, per shard (the per-shard "hit" count).
pub const SERVE_REQUESTS: &str = "dsp.serve.requests";
/// Total payload bytes served, per shard.
pub const SERVE_BYTES: &str = "dsp.serve.bytes";
/// Chunk requests served, per shard.
pub const SERVE_CHUNKS: &str = "dsp.serve.chunks";
/// Rule blobs served, per shard.
pub const SERVE_RULE_BLOBS: &str = "dsp.serve.rule_blobs";
/// Bytes of rule blobs served, per shard (a subset of `dsp.serve.bytes`).
pub const SERVE_RULE_BYTES: &str = "dsp.serve.rule_bytes";
/// Requests answered from a pinned replica instead of the home shard.
pub const SERVE_REPLICA_ROUTES: &str = "dsp.serve.replica_routes";
/// Stale-revision rejections, per shard.
pub const SERVE_STALE: &str = "dsp.serve.stale_revisions";
/// Wall-clock latency of one `ShardedStore::serve` call, in nanoseconds.
pub const SERVE_LATENCY: &str = "dsp.serve.latency_ns";

/// Typed failures, labelled `error=<kind>` (see the `error_*` constants).
pub const ERRORS: &str = "dsp.errors";

/// Actor dispatches (mailbox claims that ran a session).
pub const ACTOR_DISPATCHES: &str = "actors.dispatches";
/// Dispatches a worker claimed from another worker's run queue.
pub const ACTOR_STEALS: &str = "actors.steals";
/// Actors parked after a dispatch drained their mailbox.
pub const ACTOR_PARKS: &str = "actors.parks";
/// Sends that found the actor parked and rescheduled it.
pub const ACTOR_UNPARKS: &str = "actors.unparks";
/// Condvar broadcasts that woke the worker pool.
pub const ACTOR_WAKES: &str = "actors.wakes";
/// Times a sender blocked on a full mailbox (backpressure stalls).
pub const ACTOR_MAILBOX_STALLS: &str = "actors.mailbox_stalls";
/// Wall-clock latency of one actor dispatch, in nanoseconds.
pub const ACTOR_DISPATCH_LATENCY: &str = "actors.dispatch_latency_ns";

/// APDU round-trips between terminal and card (after batching).
pub const SESSION_APDUS: &str = "session.apdu_round_trips";
/// Bytes crossing the terminal/card wire, both directions.
pub const SESSION_WIRE_BYTES: &str = "session.wire_bytes";
/// Authorized events delivered to the client view.
pub const SESSION_EVENTS: &str = "session.events_delivered";

/// `ERRORS` label for a stale pinned revision.
pub const ERROR_STALE_REVISION: &str = "error=stale_revision";
/// `ERRORS` label for a document id the store does not hold.
pub const ERROR_NOT_FOUND: &str = "error=not_found";
/// `ERRORS` label for a subject with no rule blob on the document.
pub const ERROR_NO_RULES: &str = "error=no_rules_for_subject";
/// `ERRORS` label for a send into a retired actor mailbox.
pub const ERROR_MAILBOX_CLOSED: &str = "error=mailbox_closed";
