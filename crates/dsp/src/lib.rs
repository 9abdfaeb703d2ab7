//! Untrusted Document Service Provider (DSP).
//!
//! "The data are kept encrypted at the server" (§1); the DSP "hosts encrypted
//! XML documents shared by users as well as encrypted access rules" (§3). The
//! DSP is **untrusted**: it only ever sees ciphertext, Merkle proofs and
//! protected rule blobs, and it cannot alter them without detection (the SOE
//! verifies everything). This crate provides:
//!
//! * [`store`] — the encrypted document / protected rule store with versioning,
//! * [`obs`] — the DSP's telemetry, including the byte accounting of
//!   everything it serves: each shard's registered [`ShardObs`] cells are the
//!   only store of its serve counts, read back as [`ServerStats`],
//! * [`dissemination`] — the broadcast unit of experiment E6: already
//!   encrypted [`StreamItem`]s (produced by the trusted, proxy-side
//!   `sdds_proxy::DisseminationChannel`, which keeps the key and the
//!   cleartext stream out of this crate) are broadcast to subscribers over
//!   unsecured channels, and each subscriber's SOE filters what its user may
//!   see,
//! * [`service`] — the one serving path ([`service::DspService`], a
//!   single-tenant DSP being `DspService::new(1)`) and the concurrent
//!   multi-client layer of experiment E10: the
//!   FNV-sharded store ([`service::ShardedStore`]), the fair round-robin
//!   [`service::SessionScheduler`] multiplexing many card sessions, the
//!   [`service::FanOutDisseminator`] (one ciphertext per item shared across
//!   M subscriber mailboxes), and the [`service::ServiceModel`] capacity math (see the
//!   module docs for the architecture diagram and the knob → paper-experiment
//!   mapping),
//! * [`actors`] — the readiness-driven actor engine of experiment E11: one
//!   bounded mailbox per session, a work-stealing executor over N workers,
//!   and park/unpark stepping so the serving loop does O(changed work) per
//!   step instead of O(sessions). It is the only executor: the
//!   [`service::SessionScheduler`] runs its sessions on it too.

#![forbid(unsafe_code)]

pub mod actors;
pub mod dissemination;
pub mod obs;
pub mod service;
pub mod store;

pub use actors::{ActorEngine, ActorReport, ActorSession, ActorStatus, FinishedActor};
pub use dissemination::StreamItem;
pub use obs::{ActorObs, DspObs, ErrorObs, ServeObs, ServerStats, SessionObs, ShardObs};
pub use service::{
    DspService, FanOutDisseminator, HotPolicy, Schedulable, ScheduleReport, ServiceModel,
    SessionScheduler, ShardedStore, StepOutcome,
};
pub use store::{DocumentRecord, DspStore};
