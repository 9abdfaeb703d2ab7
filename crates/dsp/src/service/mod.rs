//! The concurrent multi-client DSP service layer (experiment E10).
//!
//! One store serving one proxy at a time would serialize every request of
//! every card. This module makes the DSP a service that sustains many
//! simultaneous card sessions — the
//! "heavy traffic" regime of the paper's architecture (§2), where one
//! untrusted server feeds a fleet of smart-card clients:
//!
//! ```text
//!  publishers ──put_document──▶ ┌────────────── DspService ──────────────┐
//!                               │ ShardedStore: shard = FNV(doc id) % N  │
//!                               │  ┌shard 0┐ ┌shard 1┐      ┌shard N-1┐  │
//!                               │  │RwLock │ │RwLock │ ...  │ RwLock  │  │
//!                               │  │store  │ │store  │      │ store   │  │
//!                               │  └───────┘ └───────┘      └─────────┘  │
//!                               │  ShardObs per shard: dsp.serve.* cells │
//!                               │  (the only store of the serve counts)  │
//!                               └──────────────────▲─────────────────────┘
//!                                fetch_header/chunk│/rules   (&self, Sync)
//!                    ┌─────── SessionScheduler ────┴──────┐
//!                    │ K CardSessions on the ActorEngine  │
//!                    │ W workers step `quantum` requests  │
//!                    │ per turn, requeue ⇒ round-robin    │
//!                    └──▲──────────▲──────────▲───────────┘
//!                  APDUs│     APDUs│     APDUs│  (BatchedChannel coalesces
//!                  ┌────┴───┐ ┌────┴───┐ ┌────┴───┐  each quantum's pushes)
//!                  │ card 0 │ │ card 1 │ │ card K │
//!                  └────────┘ └────────┘ └────────┘
//!
//!  push side:  FanOutDisseminator ──Arc<StreamItem>──▶ M subscriber
//!              (ONE encryption per item)                mailboxes
//! ```
//!
//! Mapping to the paper's evaluation:
//!
//! * **shard count** — the server-side concurrency of E10 (aggregate
//!   throughput at 1 vs 16 shards); it has no analogue in the paper, which
//!   measured a single card, but is what "millions of users" requires of the
//!   DSP side of Figure 1. Serving takes the shard's **read** lock (the
//!   counters are atomics), so same-shard readers do not serialize either.
//! * **hot-document replication** — the E10 hot-document scenario (256
//!   clients, one document): a pinned ([`DspService::pin_replicas`], or the
//!   facade's `Publisher::builder().replicate(n)`) or threshold-hot
//!   ([`HotPolicy`]) document is served from clones on several shards, with
//!   revision-tagged invalidation on republish (see [`shard`]).
//! * **scheduler workers / quantum** — the terminal-side multiplexing of E5
//!   run K-wide; the quantum bounds how long one card can monopolise the
//!   service between turns of the others (fair round-robin per card).
//! * **`sdds_card::BatchedChannel`** — the E5 latency breakdown's
//!   `per_apdu_latency`, charged once per coalesced batch instead of once per
//!   chunk request.
//! * **[`FanOutDisseminator`]** — E6 dissemination at M subscribers: the
//!   proxy-side publisher (`sdds_proxy::DisseminationChannel`) encrypts each
//!   item once and the DSP fans the shared ciphertext out to M mailboxes —
//!   one encryption per item regardless of M (pinned by the fan-out property
//!   test).
//!
//! Capacity is reported on the same *simulated* clock the rest of the
//! workspace uses (cost models, not wall time — see `sdds_card::cost`): the
//! [`ServiceModel`] converts per-shard serving counters into the time one
//! shard, serving serially, needs for its share of the traffic. Shards serve
//! concurrently, so the service-side makespan of a run is the **busiest**
//! shard's time; cards process in parallel on their own hardware, so the
//! system makespan is the larger of the busiest shard and the slowest card.
//! All of it is deterministic — byte counts times model rates — which is what
//! lets CI gate the E10 keys on any hardware.

pub mod fanout;
pub mod scheduler;
pub mod shard;

pub use fanout::{FanOutDisseminator, SubscriberId};
pub use scheduler::{FinishedSession, Schedulable, ScheduleReport, SessionScheduler, StepOutcome};
pub use shard::{HotPolicy, ShardedStore};

use std::time::Duration;

use sdds_obs::ObsSnapshot;
use sdds_sync::sync::atomic::{AtomicU64, Ordering};
use sdds_sync::sync::Arc;

use sdds_core::secdoc::{DocumentHeader, SecureDocument};
use sdds_core::session::ProtectedRules;
use sdds_core::CoreError;
use sdds_crypto::merkle::MerkleProof;

use crate::obs::{DspObs, ServerStats};

/// Service-time model of one DSP shard (the DSP-side analogue of the card's
/// `CostModel`): converts serving counters into simulated serial time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed cost per served request: lock hand-off, lookup, kernel and NIC
    /// round-trip on the serving host.
    pub per_request_overhead: Duration,
    /// Sustained payload serving rate of one shard, bytes per second.
    pub serve_bytes_per_second: f64,
}

impl ServiceModel {
    /// A DSP host on a LAN: 100 µs per request, 50 MB/s per shard.
    pub fn lan() -> Self {
        ServiceModel {
            per_request_overhead: Duration::from_micros(100),
            serve_bytes_per_second: 50_000_000.0,
        }
    }

    /// An idealised service that costs nothing (isolates card-side costs).
    pub fn infinite() -> Self {
        ServiceModel {
            per_request_overhead: Duration::ZERO,
            serve_bytes_per_second: f64::INFINITY,
        }
    }

    /// Simulated serial time one shard needs to serve `stats` worth of
    /// traffic, saturating at [`Duration::MAX`].
    pub fn service_time(&self, stats: &ServerStats) -> Duration {
        let wire = if self.serve_bytes_per_second.is_finite() && self.serve_bytes_per_second > 0.0 {
            Duration::from_secs_f64(stats.bytes_served as f64 / self.serve_bytes_per_second)
        } else {
            Duration::ZERO
        };
        // Exact in u128 nanoseconds: a `u32` request count would wrap at 2^32.
        let overhead_nanos = self
            .per_request_overhead
            .as_nanos()
            .saturating_mul(stats.requests as u128);
        let overhead = u64::try_from(overhead_nanos / 1_000_000_000)
            .map_or(Duration::MAX, |secs| {
                Duration::new(secs, (overhead_nanos % 1_000_000_000) as u32)
            });
        wire.saturating_add(overhead)
    }
}

/// The concurrent DSP front-end: a sharded store plus its capacity model.
///
/// Every serving method takes `&self` — the service is `Sync` and meant to
/// sit behind an `Arc`, shared by every session the scheduler multiplexes.
/// A single-tenant DSP is simply `DspService::new(1)`.
#[derive(Debug)]
pub struct DspService {
    store: ShardedStore,
    model: ServiceModel,
    /// Monotone ticket counter handing each new card session a distinct
    /// route salt (replica spreading — see [`DspService::next_session_salt`]).
    // lint: atomic — a route-salt ticket allocator, not a metric; obs
    // counters are monotone tallies and cannot hand out distinct values.
    session_tickets: AtomicU64,
    /// Telemetry bundle: registry, flight recorder, per-layer handles.
    obs: Arc<DspObs>,
}

impl DspService {
    /// Creates a service with `shards` shards and the LAN service model
    /// (`0` shards clamps to 1 — see [`ShardedStore::new`]).
    pub fn new(shards: usize) -> Self {
        let obs = Arc::new(DspObs::new(shards.max(1)));
        DspService {
            store: ShardedStore::new(shards).with_obs(obs.serve()),
            model: ServiceModel::lan(),
            // lint: atomic — route-salt ticket allocator (see field docs).
            session_tickets: AtomicU64::new(0),
            obs,
        }
    }

    /// The service's telemetry bundle — scheduler, actor-engine and card
    /// session instrumentation clone their handles from here, so one
    /// [`DspService::obs_snapshot`] covers every layer of a run.
    pub fn obs(&self) -> &Arc<DspObs> {
        &self.obs
    }

    /// A point-in-time snapshot of every metric the service's registry
    /// holds: per-shard serving counters, latency histograms, scheduler /
    /// actor-engine counters, card-session traffic and the labelled error
    /// tallies.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Dumps the service's flight recorder (recent serve / step / dispatch
    /// spans) as JSON — the on-demand post-mortem artifact.
    pub fn flight_recorder_json(&self) -> String {
        self.obs.recorder().dump_json()
    }

    /// Replaces the service-time model.
    pub fn with_model(mut self, model: ServiceModel) -> Self {
        self.model = model;
        self
    }

    /// Enables threshold-driven hot-document replication (see
    /// [`ShardedStore::with_hot_policy`]).
    pub fn with_hot_policy(mut self, policy: HotPolicy) -> Self {
        self.store = self.store.with_hot_policy(policy);
        self
    }

    /// The capacity model.
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// The sharded store (shard layout, document inventory).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Uploads (or replaces) a document, keeping stored rule blobs.
    pub fn put_document(&self, document: SecureDocument) {
        self.store.put_document(document);
    }

    /// Uploads (or replaces) a document, choosing whether stored rule blobs
    /// survive the replacement.
    pub fn put_document_with(&self, document: SecureDocument, clear_rules_on_replace: bool) {
        self.store
            .put_document_with(document, clear_rules_on_replace);
    }

    /// Stores the protected rules of `subject` for `doc_id`.
    pub fn put_rules(
        &self,
        doc_id: &str,
        subject: &str,
        rules: &ProtectedRules,
    ) -> Result<(), CoreError> {
        self.store.put_rules(doc_id, subject, rules)
    }

    /// Pins `doc_id` to `copies` serving shards (see
    /// [`ShardedStore::pin_replicas`]).
    pub fn pin_replicas(&self, doc_id: &str, copies: usize) -> Result<(), CoreError> {
        self.store.pin_replicas(doc_id, copies)
    }

    /// Shards currently serving `doc_id`, home shard first (see
    /// [`ShardedStore::replica_shards`]).
    pub fn replica_shards(&self, doc_id: &str) -> Vec<usize> {
        self.store.replica_shards(doc_id)
    }

    /// Fetches a document header.
    pub fn fetch_header(&self, doc_id: &str) -> Result<DocumentHeader, CoreError> {
        self.store.fetch_header(doc_id)
    }

    /// Fetches a document header together with the upload revision to pin a
    /// session to (see [`ShardedStore::fetch_header_pinned`]).
    pub fn fetch_header_pinned(&self, doc_id: &str) -> Result<(DocumentHeader, u64), CoreError> {
        self.store.fetch_header_pinned(doc_id)
    }

    /// Hands out the next session route salt. Every card session draws one
    /// at connect time and carries it through its `fetch_*_salted` calls, so
    /// identical requests from different sessions spread over a hot
    /// document's replicas instead of all queueing on the same copy (the
    /// PR 5 hot-document scenario: 256 sessions, one document, every header
    /// request previously hitting the home shard).
    pub fn next_session_salt(&self) -> u64 {
        self.session_tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Pinned header fetch routed with a per-session `salt` (see
    /// [`ShardedStore::fetch_header_pinned_salted`]).
    pub fn fetch_header_pinned_salted(
        &self,
        doc_id: &str,
        salt: u64,
    ) -> Result<(DocumentHeader, u64), CoreError> {
        self.store.fetch_header_pinned_salted(doc_id, salt)
    }

    /// Fetches one encrypted chunk and its Merkle proof.
    pub fn fetch_chunk(
        &self,
        doc_id: &str,
        index: u32,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.store.fetch_chunk(doc_id, index)
    }

    /// Fetches one encrypted chunk at a pinned revision, failing with
    /// [`CoreError::StaleRevision`] after a mid-session republish.
    pub fn fetch_chunk_pinned(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.store.fetch_chunk_pinned(doc_id, index, revision)
    }

    /// Pinned chunk fetch routed with a per-session `salt` (see
    /// [`ShardedStore::fetch_chunk_pinned_salted`]).
    pub fn fetch_chunk_pinned_salted(
        &self,
        doc_id: &str,
        index: u32,
        revision: u64,
        salt: u64,
    ) -> Result<(Arc<[u8]>, MerkleProof), CoreError> {
        self.store
            .fetch_chunk_pinned_salted(doc_id, index, revision, salt)
    }

    /// Fetches the protected rule blob of `subject` for `doc_id`.
    pub fn fetch_rules(&self, doc_id: &str, subject: &str) -> Result<Arc<[u8]>, CoreError> {
        self.store.fetch_rules(doc_id, subject)
    }

    /// Fetches the protected rule blob of `subject` at a pinned revision,
    /// failing with [`CoreError::StaleRevision`] after a mid-session
    /// republish.
    pub fn fetch_rules_pinned(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
    ) -> Result<Arc<[u8]>, CoreError> {
        self.store.fetch_rules_pinned(doc_id, subject, revision)
    }

    /// Pinned rules fetch routed with a per-session `salt` (see
    /// [`ShardedStore::fetch_rules_pinned_salted`]).
    pub fn fetch_rules_pinned_salted(
        &self,
        doc_id: &str,
        subject: &str,
        revision: u64,
        salt: u64,
    ) -> Result<Arc<[u8]>, CoreError> {
        self.store
            .fetch_rules_pinned_salted(doc_id, subject, revision, salt)
    }

    /// Upload revision of a stored document (`None` if unknown).
    pub fn revision(&self, doc_id: &str) -> Option<u64> {
        self.store.revision(doc_id)
    }

    /// True when `doc_id` is stored.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.store.contains(doc_id)
    }

    /// Merged serving statistics across shards.
    pub fn stats(&self) -> ServerStats {
        self.store.stats()
    }

    /// Per-shard serving statistics.
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        self.store.shard_stats()
    }

    /// Resets the serving statistics of every shard.
    pub fn reset_stats(&self) {
        self.store.reset_stats();
    }

    /// Simulated serial service time of the busiest shard — the service-side
    /// makespan of the traffic accumulated since the last stats reset
    /// (shards serve concurrently, so the slowest shard paces the service).
    pub fn busiest_shard_time(&self) -> Duration {
        self.store
            .shard_stats()
            .iter()
            .map(|s| self.model.service_time(s))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Simulated service time the same traffic would need on a single serial
    /// shard (the E10 baseline): the whole merged load on one queue.
    pub fn single_shard_time(&self) -> Duration {
        self.model.service_time(&self.store.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_crypto::SecretKey;
    use sdds_obs::families;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn document(id: &str) -> SecureDocument {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 2,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        SecureDocumentBuilder::new(id, SecretKey::derive(b"s", "k")).build(&doc)
    }

    fn sealed_rules() -> ProtectedRules {
        ProtectedRules::seal(
            &RuleSet::parse("+, doctor, //patient").unwrap(),
            &SecretKey::derive(b"s", "rules"),
        )
    }

    /// A single-tenant DSP: a one-shard service holding one folder and the
    /// doctor's rule blob.
    fn single_tenant() -> DspService {
        let service = DspService::new(1);
        service.put_document(document("folder"));
        service
            .put_rules("folder", "doctor", &sealed_rules())
            .unwrap();
        service
    }

    #[test]
    fn serves_headers_chunks_and_rules_with_accounting() {
        let s = single_tenant();
        let header = s.fetch_header("folder").unwrap();
        assert_eq!(header.doc_id, "folder");
        let (chunk, proof) = s.fetch_chunk("folder", 0).unwrap();
        proof.verify(&chunk, &header.merkle_root).unwrap();
        let rules = s.fetch_rules("folder", "doctor").unwrap();
        assert!(!rules.is_empty());
        let stats = s.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.chunks_served, 1);
        assert!(stats.bytes_served > chunk.len());
        s.reset_stats();
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn rule_blob_bytes_are_counted_exactly_once() {
        let s = single_tenant();
        let blob = s.fetch_rules("folder", "doctor").unwrap();
        let stats = s.stats();
        assert_eq!(stats.rule_blobs_served, 1);
        assert_eq!(stats.rule_bytes_served, blob.len());
        // Rule bytes are a subset of bytes_served, not an addition to it.
        assert_eq!(stats.bytes_served, blob.len());
        let (chunk, proof) = s.fetch_chunk("folder", 0).unwrap();
        assert_eq!(
            s.stats().bytes_served,
            blob.len() + chunk.len() + proof.encode().len()
        );
        assert_eq!(s.stats().rule_bytes_served, blob.len());
    }

    #[test]
    fn unknown_objects_are_reported() {
        let s = single_tenant();
        assert!(s.fetch_header("nope").is_err());
        assert!(s.fetch_chunk("folder", 9999).is_err());
        assert!(s.fetch_rules("folder", "stranger").is_err());
        assert!(s.contains("folder"));
        assert!(!s.contains("nope"));
        assert_eq!(s.revision("folder"), Some(0));
        assert_eq!(s.revision("nope"), None);
    }

    #[test]
    fn registry_and_shard_stats_agree() {
        let service = DspService::new(4);
        service.put_document(document("hot"));
        service.pin_replicas("hot", 4).unwrap();
        let subjects: Vec<String> = (0..8).map(|i| format!("subject-{i}")).collect();
        for subject in &subjects {
            service.put_rules("hot", subject, &sealed_rules()).unwrap();
        }
        let (header, revision) = service.fetch_header_pinned("hot").unwrap();
        for salt in 0..8 {
            service.fetch_header_pinned_salted("hot", salt).unwrap();
        }
        for index in 0..header.chunk_count {
            service.fetch_chunk("hot", index).unwrap();
        }
        for subject in &subjects {
            service
                .fetch_rules_pinned("hot", subject, revision)
                .unwrap();
        }

        let agree = |service: &DspService| {
            let snapshot = service.obs_snapshot();
            for (i, stats) in service.shard_stats().iter().enumerate() {
                let label = format!("shard={i}");
                let cell = |family| snapshot.counter_with(family, &label) as usize;
                assert_eq!(cell(families::SERVE_REQUESTS), stats.requests, "{label}");
                assert_eq!(cell(families::SERVE_BYTES), stats.bytes_served, "{label}");
                assert_eq!(cell(families::SERVE_CHUNKS), stats.chunks_served, "{label}");
                assert_eq!(
                    cell(families::SERVE_RULE_BLOBS),
                    stats.rule_blobs_served,
                    "{label}"
                );
                assert_eq!(
                    cell(families::SERVE_RULE_BYTES),
                    stats.rule_bytes_served,
                    "{label}"
                );
            }
            snapshot
        };
        let snapshot = agree(&service);
        assert!(
            snapshot.counter(families::SERVE_REPLICA_ROUTES) > 0,
            "some serves must be replica-routed"
        );
        assert_eq!(
            service.stats().requests,
            9 + header.chunk_count as usize + subjects.len()
        );

        service.reset_stats();
        assert_eq!(service.stats(), ServerStats::default());
        let snapshot = agree(&service);
        assert_eq!(snapshot.counter(families::SERVE_REQUESTS), 0);
        assert_eq!(snapshot.counter(families::SERVE_BYTES), 0);
    }

    #[test]
    fn service_time_charges_requests_and_bytes() {
        let model = ServiceModel::lan();
        let stats = ServerStats {
            requests: 1,
            bytes_served: 50_000_000, // 1 s of wire at 50 MB/s
            chunks_served: 1,
            ..ServerStats::default()
        };
        let t = model.service_time(&stats);
        assert!((t.as_secs_f64() - 1.0001).abs() < 1e-6);
        assert_eq!(
            ServiceModel::infinite().service_time(&stats),
            Duration::ZERO
        );
    }

    #[test]
    fn service_time_does_not_wrap_past_u32_requests() {
        let stats = ServerStats {
            requests: u32::MAX as usize + 1,
            ..ServerStats::default()
        };
        assert_eq!(
            ServiceModel::lan().service_time(&stats),
            Duration::from_nanos(100_000 << 32)
        );
        let model = ServiceModel {
            per_request_overhead: Duration::MAX,
            serve_bytes_per_second: 1.0,
        };
        assert_eq!(model.service_time(&stats), Duration::MAX);
    }

    #[test]
    fn sharding_splits_the_simulated_service_makespan() {
        let service = DspService::new(8);
        assert_eq!(service.shard_count(), 8);
        for i in 0..32 {
            service.put_document(document(&format!("doc-{i}")));
        }
        for i in 0..32 {
            service.fetch_header(&format!("doc-{i}")).unwrap();
            service.fetch_chunk(&format!("doc-{i}"), 0).unwrap();
        }
        let busiest = service.busiest_shard_time();
        let serial = service.single_shard_time();
        assert!(busiest > Duration::ZERO);
        // 32 documents over 8 shards: the busiest shard carries far less than
        // the whole load, so the concurrent makespan beats the serial one.
        assert!(
            busiest.as_secs_f64() * 2.0 < serial.as_secs_f64(),
            "busiest {busiest:?} should be well under serial {serial:?}"
        );
        service.reset_stats();
        assert_eq!(service.busiest_shard_time(), Duration::ZERO);
        assert!(!service.store().is_empty());
    }

    #[test]
    fn service_is_shareable_across_threads() {
        use std::sync::Arc;
        let service = Arc::new(DspService::new(4));
        for i in 0..8 {
            service.put_document(document(&format!("doc-{i}")));
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for i in 0..8 {
                        let id = format!("doc-{}", (i + t) % 8);
                        let header = service.fetch_header(&id).unwrap();
                        let (chunk, proof) = service.fetch_chunk(&id, 0).unwrap();
                        proof.verify(&chunk, &header.merkle_root).unwrap();
                    }
                });
            }
        });
        assert_eq!(service.stats().requests, 4 * 8 * 2);
    }
}
