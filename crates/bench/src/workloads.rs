//! Workloads of the E1–E9 experiments.

use sdds_card::CostModel;
use sdds_core::conflict::AccessPolicy;
use sdds_core::engine::{evaluate_secure_document, EngineConfig, SessionStats};
use sdds_core::evaluator::{EvaluatorConfig, StreamingEvaluator};
use sdds_core::query::Query;
use sdds_core::rule::{RuleSet, Sign};
use sdds_core::secdoc::{SecureDocument, SecureDocumentBuilder};
use sdds_core::skipindex::encode::EncoderConfig;
use sdds_crypto::SecretKey;
use sdds_xml::generator::{self, Corpus, GeneratorConfig};
use sdds_xml::{Document, Event};

/// The community key used by every benchmark document.
pub fn bench_key() -> SecretKey {
    SecretKey::derive(b"sdds-bench", "documents")
}

/// A hospital document of roughly `elements` element nodes.
pub fn hospital(elements: usize) -> Document {
    Corpus::Hospital.generate(elements, &GeneratorConfig::default())
}

/// Builds the secure form of a document with the given chunk size and skip
/// index granularity.
pub fn secure(doc: &Document, chunk_size: usize, min_index_bytes: usize) -> SecureDocument {
    SecureDocumentBuilder::new("bench-doc", bench_key())
        .chunk_size(chunk_size)
        .encoder_config(EncoderConfig {
            min_index_bytes,
            ..EncoderConfig::default()
        })
        .build(doc)
}

/// The medical rule set used throughout the experiments; the subject picks the
/// restrictiveness profile (doctor ≈ permissive, secretary ≈ restrictive).
pub fn medical_rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis\n\
         +, auditor, //acts/act[@type = \"surgery\"]/report",
    )
    // lint: infallible — bench inputs are static and valid by construction;
    // a panic here is a harness bug, not a recoverable condition.
    .expect("static rule set parses")
}

/// A synthetic pool of `n` rules of growing variety for one subject, used by
/// the E1 scaling experiment.
pub fn rule_pool(n: usize) -> RuleSet {
    const OBJECTS: &[&str] = &[
        "//patient/name",
        "//patient/ssn",
        "//patient/address",
        "//diagnosis/item",
        "//acts/act/report",
        "//acts/act[@type = \"surgery\"]",
        "//prescriptions/prescription/drug",
        "//patient[diagnosis/item/@sensitive = \"true\"]/name",
        "//act/physician",
        "//act/date",
        "//patient//report",
        "/hospital/patient",
    ];
    let mut rules = RuleSet::new();
    for i in 0..n {
        let sign = if i % 4 == 3 { Sign::Deny } else { Sign::Permit };
        rules
            .push(sign, "subject", OBJECTS[i % OBJECTS.len()])
            // lint: infallible — bench inputs are static and valid by construction;
            // a panic here is a harness bug, not a recoverable condition.
            .expect("pool rule parses");
    }
    rules
}

/// Evaluates a plaintext event stream for one subject (no crypto): the E1/E9
/// kernel.
pub fn evaluate_plain(events: &[Event], rules: &RuleSet, subject: &str) -> usize {
    let config = EvaluatorConfig::new(rules.clone(), subject);
    // lint: infallible — bench inputs are static and valid by construction;
    // a panic here is a harness bug, not a recoverable condition.
    let (out, _) = StreamingEvaluator::evaluate_all(&config, events).expect("evaluation succeeds");
    out.len()
}

/// Runs the full secure pipeline for one subject and returns its statistics.
pub fn run_secure(
    document: &SecureDocument,
    rules: &RuleSet,
    subject: &str,
    query: Option<&str>,
    use_skip_index: bool,
) -> SessionStats {
    let mut evaluator = EvaluatorConfig::new(rules.clone(), subject);
    if let Some(q) = query {
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        evaluator = evaluator.with_query(Query::parse(q).expect("query parses"));
    }
    let mut config = EngineConfig::new(evaluator);
    config.use_skip_index = use_skip_index;
    let (_, stats) = evaluate_secure_document(document, &bench_key(), config)
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("secure evaluation succeeds");
    stats
}

/// Convenience: simulated e-gate latency (seconds) of a session.
pub fn egate_seconds(stats: &SessionStats) -> f64 {
    stats
        .ledger
        .breakdown(&CostModel::egate())
        .total()
        .as_secs_f64()
}

/// A dissemination stream of `items` items.
pub fn stream(items: usize) -> Document {
    generator::stream(
        &generator::StreamProfile {
            items,
            payload_len: 128,
            ..generator::StreamProfile::default()
        },
        &GeneratorConfig::default(),
    )
}

/// Parental-control rules of the dissemination subscriber.
pub fn parental_rules() -> (RuleSet, AccessPolicy) {
    (
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        RuleSet::parse("-, child, //item[rating > 12]").expect("parses"),
        AccessPolicy::open(),
    )
}

// ---------------------------------------------------------------------------
// E10 — multi-client service workload
// ---------------------------------------------------------------------------

/// Configuration of one E10 multi-client run.
#[derive(Debug, Clone, Copy)]
pub struct MultiClientConfig {
    /// Concurrent card clients (one document pull each).
    pub clients: usize,
    /// Shards of the DSP service store.
    pub shards: usize,
    /// Scheduler worker threads (keep constant across compared runs).
    pub workers: usize,
    /// Chunk requests served per scheduler step.
    pub quantum: usize,
    /// Elements of each per-client hospital document.
    pub doc_elements: usize,
}

impl MultiClientConfig {
    /// The E10 defaults: 4 workers, quantum 8, small per-client folders.
    pub fn new(clients: usize, shards: usize) -> Self {
        MultiClientConfig {
            clients,
            shards,
            workers: 4,
            quantum: 8,
            doc_elements: 40,
        }
    }
}

/// Deterministic outcome of one E10 run.
///
/// Everything here is computed on the workspace's *simulated* clock (byte and
/// event counters times model rates — see `sdds_card::cost`), so the numbers
/// are machine independent: the service side is paced by the busiest shard
/// (shards serve concurrently, each shard serially), the client side by the
/// slowest card (cards run on their own hardware in parallel).
#[derive(Debug, Clone)]
pub struct MultiClientOutcome {
    /// Events evaluated across every card.
    pub total_events: usize,
    /// Simulated serial service time of the busiest shard.
    pub busiest_shard: std::time::Duration,
    /// Per-session simulated latencies (batched channel + card crypto),
    /// sorted ascending.
    pub session_latencies: Vec<std::time::Duration>,
    /// APDU exchanges saved by batching, across sessions.
    pub apdus_saved: usize,
    /// Wall-clock time of the run (informational; not gated).
    pub wall: std::time::Duration,
}

impl MultiClientOutcome {
    /// Slowest per-session simulated latency (the card-side makespan: cards
    /// run in parallel on their own hardware).
    pub fn slowest_session(&self) -> std::time::Duration {
        self.latency_percentile(1.0)
    }

    /// Simulated makespan: the slower of the service side and the card side.
    pub fn makespan(&self) -> std::time::Duration {
        self.busiest_shard.max(self.slowest_session())
    }

    /// Aggregate simulated throughput, events per second.
    pub fn events_per_s(&self) -> f64 {
        let makespan = self.makespan().as_secs_f64();
        if makespan > 0.0 {
            self.total_events as f64 / makespan
        } else {
            0.0
        }
    }

    /// Latency percentile (`p` in `[0, 1]`) across sessions.
    pub fn latency_percentile(&self, p: f64) -> std::time::Duration {
        if self.session_latencies.is_empty() {
            return std::time::Duration::ZERO;
        }
        let rank = ((self.session_latencies.len() - 1) as f64 * p).round() as usize;
        self.session_latencies[rank]
    }
}

/// Runs prepared facade sessions through the scheduler and folds the
/// deterministic outcome (shared by the per-client-folder and hot-document
/// E10 scenarios). Serving statistics must have been reset beforehand so
/// only the scheduled pulls are measured.
fn run_sessions(
    service: &std::sync::Arc<sdds_dsp::DspService>,
    sessions: Vec<sdds::CardSession>,
    workers: usize,
    quantum: usize,
) -> MultiClientOutcome {
    let start = std::time::Instant::now();
    // The scheduler shares the service's telemetry cells, so one snapshot
    // off the service covers serving, scheduling and session traffic.
    let report = sdds::SessionScheduler::new(workers, quantum)
        .with_obs(service.obs())
        .run(sessions);
    let wall = start.elapsed();
    let failures = report.failures();
    assert!(failures.is_empty(), "E10 sessions failed: {failures:?}");

    let model = sdds_card::CardProfile::modern_secure_element().cost;
    let mut total_events = 0usize;
    let mut apdus_saved = 0usize;
    let mut session_latencies: Vec<std::time::Duration> = report
        .finished
        .iter()
        .map(|f| {
            total_events += f.session.terminal().card_ledger().events_processed;
            apdus_saved += f.session.batched_channel().apdus_saved();
            f.session.simulated_latency(&model)
        })
        .collect();
    session_latencies.sort();

    MultiClientOutcome {
        total_events,
        busiest_shard: service.busiest_shard_time(),
        session_latencies,
        apdus_saved,
        wall,
    }
}

/// Runs the E10 multi-client workload **through the `sdds` facade**:
/// `clients` cards, each pulling its own folder from one shared
/// [`sdds_dsp::DspService`], multiplexed by the fair round-robin session
/// scheduler. Subjects rotate doctor / secretary / researcher so per-session
/// work (and therefore latency) is heterogeneous.
///
/// Sessions are built with [`sdds::Client`] (the same entry point
/// applications use), so the gated `e10.*` keys — including the 1-client /
/// 1-shard sanity point — catch any serving overhead the facade introduces.
pub fn multi_client(config: MultiClientConfig) -> MultiClientOutcome {
    use sdds::{CardSession, Client, Publisher};

    const SUBJECTS: &[&str] = &["doctor", "secretary", "researcher"];
    let publisher = Publisher::builder(b"sdds-bench-e10")
        .rules(medical_rules())
        .shards(config.shards)
        .chunk_size(256)
        .build()
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("the E10 publisher configuration is valid");
    let doc = Corpus::Hospital.generate(config.doc_elements, &GeneratorConfig::default());
    for i in 0..config.clients {
        publisher
            .publish(&format!("folder-{i}"), &doc)
            // lint: infallible — bench inputs are static and valid by construction;
            // a panic here is a harness bug, not a recoverable condition.
            .expect("publishing the per-client folder");
    }

    let clients: Vec<Client> = (0..config.clients)
        .map(|i| {
            Client::builder(SUBJECTS[i % SUBJECTS.len()])
                .provision(&publisher)
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("provisioning the client")
        })
        .collect();
    // Setup (uploads, provisioning) is not part of the measured serving load.
    publisher.service().reset_stats();

    let sessions: Vec<CardSession> = clients
        .iter()
        .enumerate()
        .map(|(i, client)| {
            client
                .connect(format!("folder-{i}"))
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("connecting the session")
        })
        .collect();

    run_sessions(
        publisher.service(),
        sessions,
        config.workers,
        config.quantum,
    )
}

// ---------------------------------------------------------------------------
// E11 — actor-engine scaling workload
// ---------------------------------------------------------------------------

/// Configuration of one E11 actor-scale run: `sessions` simulated card
/// sessions, each waiting for `batches` APDU batches that arrive rarely
/// relative to the scheduler's polling.
///
/// Both sides of the run use the one actor executor; they differ in how a
/// session learns that a batch is there. The `thread` side (the name is
/// kept in the E11 keys) is poll-driven: [`sdds_dsp::Schedulable`]
/// sessions stepped round-robin by [`sdds_dsp::SessionScheduler`]. The
/// `actor` side is event-driven: sessions parked on their mailboxes until a
/// batch is sent.
#[derive(Debug, Clone, Copy)]
pub struct ActorScaleConfig {
    /// Concurrent simulated card sessions.
    pub sessions: usize,
    /// Worker threads (same count for both sides).
    pub workers: usize,
    /// Polls per actually-ready batch on the poll-driven side: the
    /// round-robin visits a waiting session `poll_interval` times before its
    /// next batch is there (the O(sessions)-per-lap waste that event-driven
    /// parking removes).
    pub poll_interval: usize,
    /// APDU batches each session processes before completing.
    pub batches: usize,
    /// Simulated cost of one scheduler visit / engine dispatch (queue hop,
    /// readiness check).
    pub step_cost: std::time::Duration,
    /// Simulated cost of processing one APDU batch (the useful work; charged
    /// identically on both sides).
    pub batch_cost: std::time::Duration,
}

impl ActorScaleConfig {
    /// The E11 defaults: 4 workers, 16 polls per ready batch, 2 batches per
    /// session, 500 ns per visit, 2 µs per batch.
    pub fn new(sessions: usize) -> Self {
        ActorScaleConfig {
            sessions,
            workers: 4,
            poll_interval: 16,
            batches: 2,
            step_cost: std::time::Duration::from_nanos(500),
            batch_cost: std::time::Duration::from_micros(2),
        }
    }
}

/// A simulated card session mid-pull: its card channel yields one APDU batch
/// every `poll_interval` scheduler visits (poll-driven), or exactly when an
/// event is delivered (event-driven). The same type implements both stepping
/// contracts so E11 compares the two ways of waking a session, not session
/// models.
#[derive(Debug)]
pub struct SimCardSession {
    poll_interval: usize,
    batches_left: usize,
    visits: usize,
}

impl SimCardSession {
    fn new(config: &ActorScaleConfig) -> Self {
        SimCardSession {
            poll_interval: config.poll_interval.max(1),
            batches_left: config.batches.max(1),
            visits: 0,
        }
    }

    /// Scheduler visits / engine dispatches this session consumed.
    pub fn visits(&self) -> usize {
        self.visits
    }

    fn process_batch(&mut self) -> bool {
        self.batches_left -= 1;
        self.batches_left == 0
    }
}

impl sdds_dsp::Schedulable for SimCardSession {
    /// Poll-driven contract: every scheduler visit costs a step, but only
    /// every `poll_interval`-th visit finds a batch ready.
    fn step(&mut self, _quantum: usize) -> Result<sdds_dsp::StepOutcome, String> {
        self.visits += 1;
        if self.visits.is_multiple_of(self.poll_interval) && self.process_batch() {
            Ok(sdds_dsp::StepOutcome::Complete)
        } else {
            Ok(sdds_dsp::StepOutcome::Pending)
        }
    }
}

impl sdds_dsp::ActorSession for SimCardSession {
    type Event = ();

    /// Event-driven contract: a dispatch happens only when a batch arrived,
    /// so every visit does useful work.
    fn on_event(&mut self, (): ()) -> Result<sdds_dsp::ActorStatus, String> {
        self.visits += 1;
        if self.process_batch() {
            Ok(sdds_dsp::ActorStatus::Complete)
        } else {
            Ok(sdds_dsp::ActorStatus::Parked)
        }
    }

    fn on_step(&mut self) -> Result<sdds_dsp::ActorStatus, String> {
        Err("E11 sessions are event-driven; an event-less dispatch is an engine bug".into())
    }
}

/// One engine's side of an E11 run, on the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun {
    /// Scheduler visits / engine dispatches across sessions.
    pub dispatches: usize,
    /// APDU batches processed across sessions (identical for both sides —
    /// the useful work).
    pub batches: usize,
    /// Simulated makespan: all dispatch and batch costs, spread over the
    /// workers.
    pub makespan: std::time::Duration,
    /// Simulated p99 session-completion latency (see [`actor_scale`]).
    pub p99: std::time::Duration,
    /// Wall-clock time of the run (informational; not gated).
    pub wall: std::time::Duration,
}

impl EngineRun {
    /// Aggregate simulated throughput: processed batches per second. The
    /// numerator is the same for both sides, so the thread/actor ratio is
    /// exactly the dispatch-overhead ratio.
    pub fn events_per_s(&self) -> f64 {
        let makespan = self.makespan.as_secs_f64();
        if makespan > 0.0 {
            self.batches as f64 / makespan
        } else {
            0.0
        }
    }
}

/// Deterministic outcome of one E11 run: the same sessions, poll-driven and
/// event-driven.
#[derive(Debug, Clone, Copy)]
pub struct ActorScaleOutcome {
    /// The configuration the run used.
    pub config: ActorScaleConfig,
    /// The poll-driven side: [`sdds_dsp::Schedulable`] sessions through
    /// [`sdds_dsp::SessionScheduler`] (`thread` in the E11 keys).
    pub thread: EngineRun,
    /// The event-driven (readiness-driven) side.
    pub actor: EngineRun,
}

impl ActorScaleOutcome {
    /// Aggregate-throughput advantage of event-driven over poll-driven
    /// sessions.
    pub fn speedup(&self) -> f64 {
        let thread = self.thread.events_per_s();
        if thread > 0.0 {
            self.actor.events_per_s() / thread
        } else {
            0.0
        }
    }
}

/// Folds one side's dispatch/batch counters into simulated-clock metrics.
///
/// Makespan is `(dispatches × step_cost + batches × batch_cost) / workers`:
/// both sides pay the same per-batch work, the poll-driven side additionally
/// pays `poll_interval` visits per batch. The p99 is the session-completion
/// latency under the canonical single-queue round-robin order — session `i`
/// of `K` retires at work position `position(i)` out of `total`, so its
/// latency is that fraction of the makespan. Everything is counters times
/// model rates: machine-independent, CI-gateable.
fn engine_run(
    config: &ActorScaleConfig,
    dispatches: usize,
    batches: usize,
    wall: std::time::Duration,
    position: impl Fn(usize) -> usize,
    total: usize,
) -> EngineRun {
    let work = config.step_cost * dispatches as u32 + config.batch_cost * batches as u32;
    let makespan = work / config.workers.max(1) as u32;
    let sessions = config.sessions.max(1);
    let p99_rank = ((sessions - 1) as f64 * 0.99).round() as usize;
    let p99 = makespan.mul_f64(position(p99_rank) as f64 / total.max(1) as f64);
    EngineRun {
        dispatches,
        batches,
        makespan,
        p99,
        wall,
    }
}

/// Runs the E11 scaling workload: the same `sessions` simulated card
/// sessions once poll-driven through the scheduler
/// ([`sdds_dsp::SessionScheduler`], round-robin steps; the `thread` keys)
/// and once event-driven on the actor engine ([`sdds_dsp::ActorEngine`],
/// per-session mailboxes, events delivered round-robin by a driver; the
/// `actor` keys). Both runs use the same executor and really execute —
/// completion and dispatch counts are asserted — and the reported
/// throughput/latency is computed from the counters on the simulated clock,
/// so the gated `e11.*` keys are machine independent.
pub fn actor_scale(config: ActorScaleConfig) -> ActorScaleOutcome {
    actor_scale_observed(config, None)
}

/// Like [`actor_scale`], optionally wiring both runs' telemetry into a
/// [`sdds_dsp::DspObs`] bundle (E11 runs standalone, so the harness hands it
/// a dedicated bundle rather than a service's). The outcome is byte-identical
/// with or without `obs` — telemetry is parallel tallies only.
pub fn actor_scale_observed(
    config: ActorScaleConfig,
    obs: Option<&sdds_dsp::DspObs>,
) -> ActorScaleOutcome {
    let sessions = config.sessions.max(1);
    let polls = config.poll_interval.max(1);
    let batches = config.batches.max(1);

    // Poll-driven: every session is stepped round-robin until its batches
    // arrive.
    let start = std::time::Instant::now();
    let mut scheduler = sdds_dsp::SessionScheduler::new(config.workers, 1);
    if let Some(obs) = obs {
        scheduler = scheduler.with_obs(obs);
    }
    let report = scheduler.run(
        (0..sessions)
            .map(|_| SimCardSession::new(&config))
            .collect(),
    );
    let thread_wall = start.elapsed();
    assert!(
        report.failures().is_empty(),
        "E11 poll-driven sessions failed: {:?}",
        report.failures()
    );
    let thread_dispatches = report.steps_total;
    assert_eq!(thread_dispatches, sessions * polls * batches);
    // Session i's last step is step (polls·batches − 1)·K + i + 1 of the
    // round-robin total: all sessions march in lockstep and retire on the
    // final lap.
    let thread = engine_run(
        &config,
        thread_dispatches,
        sessions * batches,
        thread_wall,
        |i| (polls * batches - 1) * sessions + i + 1,
        thread_dispatches,
    );

    // Event-driven: a driver delivers each session's batches round-robin;
    // parked sessions cost nothing between arrivals.
    let start = std::time::Instant::now();
    let mut engine = sdds_dsp::ActorEngine::new(config.workers);
    if let Some(obs) = obs {
        engine = engine.with_obs(obs.actors());
    }
    let actor_report = engine.run(
        (0..sessions)
            .map(|_| SimCardSession::new(&config))
            .collect::<Vec<_>>(),
        |handle| {
            for _ in 0..batches {
                for id in 0..sessions {
                    // lint: infallible — sessions retire only after their
                    // last batch, and this loop sends exactly that many.
                    handle.send(id, ()).expect("session retired early");
                }
            }
        },
    );
    let actor_wall = start.elapsed();
    assert!(
        actor_report.all_complete(),
        "E11 actor sessions failed: {:?}",
        actor_report.failures()
    );
    assert_eq!(actor_report.events_total, sessions * batches);
    // Session i's last batch is delivery (batches − 1)·K + i + 1 of the
    // driver's round-robin total.
    let actor = engine_run(
        &config,
        actor_report.dispatches_total,
        actor_report.events_total,
        actor_wall,
        |i| (batches - 1) * sessions + i + 1,
        sessions * batches,
    );

    ActorScaleOutcome {
        config,
        thread,
        actor,
    }
}

/// Configuration of one E10 **hot-document** run: every client pulls the
/// same single document.
#[derive(Debug, Clone, Copy)]
pub struct HotDocumentConfig {
    /// Concurrent card clients, all pulling the one hot document.
    pub clients: usize,
    /// Shards of the DSP service store.
    pub shards: usize,
    /// Serving copies the hot document is pinned to (`1` = the single-copy
    /// baseline: everything queues on the home shard).
    pub replicas: usize,
    /// Scheduler worker threads (keep constant across compared runs).
    pub workers: usize,
    /// Chunk requests served per scheduler step.
    pub quantum: usize,
    /// Elements of the hot hospital document.
    pub doc_elements: usize,
}

impl HotDocumentConfig {
    /// The E10 hot-document defaults: 4 workers, quantum 8, one folder big
    /// enough (~18 chunks at 256-byte chunks) that chunk-index routing can
    /// spread its serving over every replica.
    pub fn new(clients: usize, shards: usize, replicas: usize) -> Self {
        HotDocumentConfig {
            clients,
            shards,
            replicas,
            workers: 4,
            quantum: 8,
            doc_elements: 160,
        }
    }
}

/// Runs the E10 hot-document scenario: `clients` cards all hammer **one**
/// document on a sharded service. With `replicas = 1` every request queues
/// on the document's home shard however many shards exist — the scenario the
/// ROADMAP's "hot-document replication" lever exists for; with `replicas >
/// 1` the publisher pins the document (`Publisher::builder().replicate(n)`)
/// and reads spread deterministically over the copies (chunk index / subject
/// hash picks the copy), so the outcome is byte-deterministic on the
/// simulated clock like every other E10 metric.
pub fn hot_document(config: HotDocumentConfig) -> MultiClientOutcome {
    hot_document_observed(config).0
}

/// Like [`hot_document`], additionally returning the service's telemetry:
/// the metric snapshot (counters, gauges, latency histograms across every
/// layer the run exercised) and the flight-recorder dump. The outcome stays
/// byte-identical to [`hot_document`] — telemetry is parallel tallies only.
pub fn hot_document_observed(
    config: HotDocumentConfig,
) -> (MultiClientOutcome, sdds::ObsSnapshot, String) {
    use sdds::{CardSession, Client, Publisher};

    const SUBJECTS: &[&str] = &["doctor", "secretary", "researcher"];
    let mut builder = Publisher::builder(b"sdds-bench-e10-hot")
        .rules(medical_rules())
        .shards(config.shards)
        .chunk_size(256);
    if config.replicas > 1 {
        builder = builder.replicate(config.replicas);
    }
    let publisher = builder
        .build()
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("the E10 hot-document publisher configuration is valid");
    let doc = Corpus::Hospital.generate(config.doc_elements, &GeneratorConfig::default());
    publisher
        .publish("hot-folder", &doc)
        // lint: infallible — bench inputs are static and valid by construction;
        // a panic here is a harness bug, not a recoverable condition.
        .expect("publishing the hot folder");

    let clients: Vec<Client> = (0..config.clients)
        .map(|i| {
            Client::builder(SUBJECTS[i % SUBJECTS.len()])
                .provision(&publisher)
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("provisioning the client")
        })
        .collect();
    publisher.service().reset_stats();

    let sessions: Vec<CardSession> = clients
        .iter()
        .map(|client| {
            client
                .connect("hot-folder")
                // lint: infallible — bench inputs are static and valid by construction;
                // a panic here is a harness bug, not a recoverable condition.
                .expect("connecting the session")
        })
        .collect();

    let outcome = run_sessions(
        publisher.service(),
        sessions,
        config.workers,
        config.quantum,
    );
    let snapshot = publisher.service().obs_snapshot();
    let flight = publisher.service().flight_recorder_json();
    (outcome, snapshot, flight)
}
