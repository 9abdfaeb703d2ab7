//! The DSP's telemetry bundle: one [`Registry`] + one [`FlightRecorder`]
//! feeding per-layer handle structs.
//!
//! [`DspObs`] owns the registry; the layer structs ([`ServeObs`],
//! [`ActorObs`], [`SessionObs`]) are cheap bundles of
//! `Arc`-backed handles the hot paths clone out of it. Components that run
//! without a service (a bare [`crate::ShardedStore`], a scheduler in a unit
//! test) fall back to *detached* handles — same cells, no registry — so
//! instrumentation never becomes a constructor burden.
//!
//! Detached bundles carry `live == false` and the hot paths skip their
//! telemetry work entirely: a detached component pays nothing, and — just as
//! important — adds no scheduling points to the `sdds-check` model-checked
//! scenarios, which all build components stand-alone. Registered bundles
//! (everything a [`crate::DspService`] hands out) are live. The one
//! exception is the serve accounting: each [`ShardObs`] is the only store of
//! its shard's serve counts (read back as [`ServerStats`]), so those cells
//! count whether the bundle is live or not.
//!
//! Metric family names live in [`sdds_obs::families`]; the `doc-sync` lint
//! rule keeps ARCHITECTURE.md's metric table synchronized with that module.

use sdds_core::CoreError;
use sdds_obs::{families, Counter, FlightRecorder, Histogram, ObsSnapshot, Registry};

/// Flight-recorder lanes: enough for the worker counts the schedulers use;
/// callers key lanes by worker or shard index (wrapped into range).
const RECORDER_LANES: usize = 8;
/// Spans each lane retains (overwrite-oldest beyond this).
const RECORDER_CAPACITY: usize = 256;

/// Labelled error counters — one per typed failure the serving and actor
/// layers can produce. Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct ErrorObs {
    /// `StaleRevision` rejections (republish under a pinned reader).
    pub stale_revision: Counter,
    /// `NotFound` (unknown document id).
    pub not_found: Counter,
    /// `NoRulesForSubject` (unprovisioned subject).
    pub no_rules: Counter,
    /// Sends into a retired actor mailbox.
    pub mailbox_closed: Counter,
}

impl ErrorObs {
    fn registered(registry: &Registry) -> Self {
        ErrorObs {
            stale_revision: registry
                .counter_with(families::ERRORS, Some(families::ERROR_STALE_REVISION)),
            not_found: registry.counter_with(families::ERRORS, Some(families::ERROR_NOT_FOUND)),
            no_rules: registry.counter_with(families::ERRORS, Some(families::ERROR_NO_RULES)),
            mailbox_closed: registry
                .counter_with(families::ERRORS, Some(families::ERROR_MAILBOX_CLOSED)),
        }
    }
}

/// Serving statistics of a DSP (a whole service, or one shard of the
/// [`crate::service::ShardedStore`]): a plain-value [`ShardObs::snapshot`].
///
/// Every served payload is counted by exactly one `ShardObs::record_*` call,
/// inside the shard that served it — so `bytes_served` counts headers,
/// chunks + proofs and rule blobs each exactly once, and merging per-shard
/// statistics cannot double- or under-count any class of payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served.
    pub requests: usize,
    /// Payload bytes served (headers, chunks, proofs, rule blobs).
    pub bytes_served: usize,
    /// Chunk requests served.
    pub chunks_served: usize,
    /// Rule-blob requests served.
    pub rule_blobs_served: usize,
    /// Bytes of protected rule blobs served (a subset of `bytes_served`).
    pub rule_bytes_served: usize,
}

impl ServerStats {
    /// Merges the counters of another server (or shard) into this one.
    pub fn merge(&mut self, other: &ServerStats) {
        self.requests += other.requests;
        self.bytes_served += other.bytes_served;
        self.chunks_served += other.chunks_served;
        self.rule_blobs_served += other.rule_blobs_served;
        self.rule_bytes_served += other.rule_bytes_served;
    }
}

/// Per-shard serving handles: the only store of the shard's serve counts
/// (`dsp.serve.*`, labelled per shard) plus routing and staleness tallies.
///
/// Serve counts are the only thing a DSP read mutates, so keeping them in
/// relaxed counters is what lets every `fetch_*` run under a shard's
/// **read** lock. Relaxed ordering is enough: the counters are independent
/// monotonic tallies, never used to synchronise other memory, and
/// [`ShardObs::snapshot`] is read either under the shard's write lock
/// (reset) or after the traffic of interest quiesced (reporting). The
/// [`Default`] form is detached (no registry) and still counts. Clones share
/// cells.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    requests: Counter,
    bytes_served: Counter,
    chunks_served: Counter,
    rule_blobs_served: Counter,
    rule_bytes_served: Counter,
    /// Requests this shard answered from a replica clone.
    pub replica_routes: Counter,
    /// Stale-revision rejections raised while this shard served.
    pub stale_revisions: Counter,
}

impl ShardObs {
    /// Handles registered in `registry`, labelled with the owning shard
    /// (`"shard=3"`).
    fn registered(registry: &Registry, label: &str) -> Self {
        let counter = |family| registry.counter_with(family, Some(label));
        ShardObs {
            requests: counter(families::SERVE_REQUESTS),
            bytes_served: counter(families::SERVE_BYTES),
            chunks_served: counter(families::SERVE_CHUNKS),
            rule_blobs_served: counter(families::SERVE_RULE_BLOBS),
            rule_bytes_served: counter(families::SERVE_RULE_BYTES),
            replica_routes: counter(families::SERVE_REPLICA_ROUTES),
            stale_revisions: counter(families::SERVE_STALE),
        }
    }

    /// Records one served document header of `bytes` payload.
    pub fn record_header(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
    }

    /// Records one served chunk (ciphertext + proof) of `bytes` payload.
    pub fn record_chunk(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.chunks_served.inc();
    }

    /// Records one served protected rule blob of `bytes` payload.
    pub fn record_rules(&self, bytes: usize) {
        self.requests.inc();
        self.bytes_served.add(bytes as u64);
        self.rule_blobs_served.inc();
        self.rule_bytes_served.add(bytes as u64);
    }

    /// A plain-value snapshot of the serve counts.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get() as usize,
            bytes_served: self.bytes_served.get() as usize,
            chunks_served: self.chunks_served.get() as usize,
            rule_blobs_served: self.rule_blobs_served.get() as usize,
            rule_bytes_served: self.rule_bytes_served.get() as usize,
        }
    }

    /// Zeroes the serve counts (call under the owning shard's write lock so
    /// no concurrent serve is torn across the reset). Routing and staleness
    /// tallies are left alone.
    pub fn reset(&self) {
        self.requests.reset();
        self.bytes_served.reset();
        self.chunks_served.reset();
        self.rule_blobs_served.reset();
        self.rule_bytes_served.reset();
    }
}

/// Serving-path telemetry of a [`crate::ShardedStore`]. Clones share cells.
#[derive(Debug, Clone)]
pub struct ServeObs {
    shards: Vec<ShardObs>,
    /// Wall-clock latency of one `serve` call, nanoseconds.
    pub latency: Histogram,
    /// Labelled typed-failure counters.
    pub errors: ErrorObs,
    /// Flight recorder the serve spans land in (lane = serving shard).
    pub recorder: FlightRecorder,
    /// False for detached bundles: the serve path skips telemetry entirely.
    pub live: bool,
}

impl ServeObs {
    /// Handles registered in `registry` (shard counters labelled
    /// `shard=<i>`), recording spans into `recorder`.
    pub fn registered(
        registry: &Registry,
        recorder: FlightRecorder,
        errors: ErrorObs,
        shards: usize,
    ) -> Self {
        ServeObs {
            shards: (0..shards.max(1))
                .map(|index| ShardObs::registered(registry, &format!("shard={index}")))
                .collect(),
            latency: registry.histogram(families::SERVE_LATENCY),
            errors,
            recorder,
            live: true,
        }
    }

    /// Detached handles (no registry) for stand-alone stores and tests.
    pub fn detached(shards: usize) -> Self {
        ServeObs {
            shards: (0..shards.max(1)).map(|_| ShardObs::default()).collect(),
            latency: Histogram::new(),
            errors: ErrorObs::default(),
            recorder: FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY),
            live: false,
        }
    }

    /// Handles of shard `index` (wrapped into range).
    pub fn shard(&self, index: usize) -> &ShardObs {
        let len = self.shards.len().max(1);
        // lint: infallible — index is wrapped into 0..len and shards is non-empty by construction
        &self.shards[index % len]
    }

    /// Closes the accounting of one serve: latency histogram, a flight
    /// record on the serving shard's lane, and — on failure — the labelled
    /// error counters (stale revisions also count against the shard).
    /// No-op on a detached bundle.
    pub fn finish_serve(&self, shard: usize, started_nanos: u64, error: Option<&CoreError>) {
        if !self.live {
            return;
        }
        let duration = self.recorder.now_nanos().saturating_sub(started_nanos);
        self.latency.record(duration);
        self.recorder
            .record(shard, "dsp.serve", started_nanos, duration);
        match error {
            Some(CoreError::StaleRevision { .. }) => {
                self.shard(shard).stale_revisions.inc();
                self.errors.stale_revision.inc();
            }
            Some(CoreError::NotFound { .. }) => self.errors.not_found.inc(),
            Some(CoreError::NoRulesForSubject { .. }) => self.errors.no_rules.inc(),
            _ => {}
        }
    }
}

/// Actor-engine telemetry: the park/unpark protocol made visible. Clones
/// share cells.
#[derive(Debug, Clone)]
pub struct ActorObs {
    /// Dispatches (mailbox claims that ran a session).
    pub dispatches: Counter,
    /// Dispatches claimed from another worker's run queue.
    pub steals: Counter,
    /// Actors parked after a dispatch drained their mailbox.
    pub parks: Counter,
    /// Sends that found the actor parked and rescheduled it.
    pub unparks: Counter,
    /// Condvar broadcasts waking the worker pool.
    pub wakes: Counter,
    /// Times a sender blocked on a full mailbox (backpressure).
    pub mailbox_stalls: Counter,
    /// Sends rejected by a retired mailbox.
    pub mailbox_closed: Counter,
    /// Wall-clock latency of one dispatch, nanoseconds.
    pub dispatch_latency: Histogram,
    /// Flight recorder the dispatch spans land in (lane = worker index).
    pub recorder: FlightRecorder,
    /// False for detached bundles: the dispatch path skips telemetry
    /// entirely.
    pub live: bool,
}

impl ActorObs {
    fn registered(registry: &Registry, recorder: FlightRecorder, errors: &ErrorObs) -> Self {
        ActorObs {
            dispatches: registry.counter(families::ACTOR_DISPATCHES),
            steals: registry.counter(families::ACTOR_STEALS),
            parks: registry.counter(families::ACTOR_PARKS),
            unparks: registry.counter(families::ACTOR_UNPARKS),
            wakes: registry.counter(families::ACTOR_WAKES),
            mailbox_stalls: registry.counter(families::ACTOR_MAILBOX_STALLS),
            mailbox_closed: errors.mailbox_closed.clone(),
            dispatch_latency: registry.histogram(families::ACTOR_DISPATCH_LATENCY),
            recorder,
            live: true,
        }
    }

    /// Detached handles (no registry) for stand-alone engines.
    pub fn detached() -> Self {
        ActorObs {
            dispatches: Counter::new(),
            steals: Counter::new(),
            parks: Counter::new(),
            unparks: Counter::new(),
            wakes: Counter::new(),
            mailbox_stalls: Counter::new(),
            mailbox_closed: Counter::new(),
            dispatch_latency: Histogram::new(),
            recorder: FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY),
            live: false,
        }
    }
}

/// Card-session telemetry: what crossed the terminal/card wire and what the
/// client actually received. Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct SessionObs {
    /// APDU round-trips (after batching).
    pub apdu_round_trips: Counter,
    /// Bytes over the terminal/card wire, both directions.
    pub wire_bytes: Counter,
    /// Authorized events delivered to client views.
    pub events_delivered: Counter,
    /// False for detached bundles: recording methods are no-ops.
    pub live: bool,
}

impl SessionObs {
    fn registered(registry: &Registry) -> Self {
        SessionObs {
            apdu_round_trips: registry.counter(families::SESSION_APDUS),
            wire_bytes: registry.counter(families::SESSION_WIRE_BYTES),
            events_delivered: registry.counter(families::SESSION_EVENTS),
            live: true,
        }
    }

    /// Records one terminal↔card exchange of `to_card + from_card` bytes.
    /// No-op on a detached bundle.
    pub fn record_exchange(&self, to_card: usize, from_card: usize) {
        if !self.live {
            return;
        }
        self.apdu_round_trips.inc();
        self.wire_bytes.add((to_card + from_card) as u64);
    }

    /// Counts one authorized event handed to the application. No-op on a
    /// detached bundle.
    pub fn event_delivered(&self) {
        if self.live {
            self.events_delivered.inc();
        }
    }
}

/// The whole DSP telemetry bundle: registry, flight recorder and the
/// per-layer handle structs every instrumented component clones from.
#[derive(Debug)]
pub struct DspObs {
    registry: Registry,
    recorder: FlightRecorder,
    serve: ServeObs,
    actors: ActorObs,
    session: SessionObs,
}

impl DspObs {
    /// A bundle for a service of `shards` shards, on the real wall clock.
    pub fn new(shards: usize) -> Self {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(RECORDER_LANES, RECORDER_CAPACITY);
        let errors = ErrorObs::registered(&registry);
        let serve = ServeObs::registered(&registry, recorder.clone(), errors.clone(), shards);
        let actors = ActorObs::registered(&registry, recorder.clone(), &errors);
        let session = SessionObs::registered(&registry);
        DspObs {
            registry,
            recorder,
            serve,
            actors,
            session,
        }
    }

    /// The shared flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Serving-path handles (cloned into the [`crate::ShardedStore`]).
    pub fn serve(&self) -> ServeObs {
        self.serve.clone()
    }

    /// Actor-engine handles (also what a wired
    /// [`crate::SessionScheduler`] records into).
    pub fn actors(&self) -> ActorObs {
        self.actors.clone()
    }

    /// Card-session handles.
    pub fn session(&self) -> SessionObs {
        self.session.clone()
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.registry.snapshot()
    }
}
