//! Pieces every workload shares: options, readers, oracles, the facade's two
//! view paths, tallies and deterministic counts.

use std::collections::BTreeMap;
use std::time::Instant;

use sdds::core::baseline::authorized_view_oracle;
use sdds::core::engine::{SessionStats, DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
use sdds::core::session::KeyProvisioning;
use sdds::core::Query;
use sdds::crypto::SecretKey;
use sdds::xml::writer;
use sdds::{AccessPolicy, CardSession, Client, Document, Publisher, RuleSet, Subject};

use crate::host::Host;
use crate::stats::{geomean, percentile};
use crate::trace::{SpanId, Spans};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Result of one run, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics (every workload reports every one).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own user-facing figures, printed but not gated.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Deterministic counts of one cycle of the workload.
    pub counts: Counts,
    /// Spans of the traced run, written out at the end.
    pub spans: Option<Spans>,
    /// Lines for the notes printed before the result.
    pub notes: Vec<String>,
}

/// Operations attempted and failed (errors, refusals and views that differ
/// from the oracle).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// Deterministic counts, summed over views (keys ending in `peak` keep the
/// maximum).
pub type Counts = BTreeMap<String, u64>;

pub fn add_count(counts: &mut Counts, key: String, value: u64) {
    let slot = counts.entry(key.clone()).or_insert(0);
    if key.ends_with("peak") {
        *slot = (*slot).max(value);
    } else {
        *slot += value;
    }
}

pub fn merge_counts(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        add_count(into, k.clone(), *v);
    }
}

/// `counts[key] / counts[per]`, 0 when either is missing.
pub fn per(counts: &Counts, key: &str, per: &str) -> f64 {
    match (counts.get(key), counts.get(per)) {
        (Some(&k), Some(&p)) if p > 0 => k as f64 / p as f64,
        _ => 0.0,
    }
}

/// The counts of one SOE session, under `prefix`.
pub fn session_counts(counts: &mut Counts, prefix: &str, stats: &SessionStats) {
    let l = &stats.ledger;
    for (key, value) in [
        ("views", 1),
        ("bytes_to_soe", l.channel.bytes_to_card),
        ("bytes_from_soe", l.channel.bytes_from_card),
        ("apdus", l.channel.apdu_exchanges),
        ("bytes_hashed", l.bytes_hashed),
        ("bytes_decrypted", l.bytes_decrypted),
        ("bytes_skipped", l.bytes_skipped),
        ("events", l.events_processed),
        ("chunks_fetched", stats.chunks_fetched),
        ("chunks_skipped", stats.chunks_skipped),
        ("soe_ram_peak", stats.peak_ram_bytes),
    ] {
        add_count(counts, format!("{prefix}.{key}"), value as u64);
    }
}

/// The counts of one finished card session, under `prefix`: the card's
/// channel meter and ledger, the batches of the session's channel, and the
/// card's secure-RAM high-water mark.
pub fn card_counts(counts: &mut Counts, prefix: &str, session: &CardSession) {
    let terminal = session.terminal();
    let ledger = terminal.card_ledger();
    let (fetched, skipped) = terminal
        .session_stats()
        .map_or((0, 0), |s| (s.chunks_fetched, s.chunks_skipped));
    for (key, value) in [
        ("views", 1),
        ("bytes_to_soe", ledger.channel.bytes_to_card),
        ("bytes_from_soe", ledger.channel.bytes_from_card),
        ("apdus", ledger.channel.apdu_exchanges),
        ("batches", session.batched_channel().batches()),
        ("bytes_hashed", ledger.bytes_hashed),
        ("bytes_decrypted", ledger.bytes_decrypted),
        ("bytes_skipped", ledger.bytes_skipped),
        ("events", ledger.events_processed),
        ("chunks_fetched", fetched),
        ("chunks_skipped", skipped),
        ("soe_ram_peak", terminal.card_peak_ram()),
    ] {
        add_count(counts, format!("{prefix}.{key}"), value as u64);
    }
}

/// One member: a provisioned facade client plus the provisioning material
/// the traced run needs to replay `Client::open_stream` from its parts.
pub struct Reader {
    pub label: String,
    pub subject: String,
    pub query: Option<String>,
    pub open_policy: bool,
    pub client: Client,
    pub doc_key: KeyProvisioning,
    pub rules_key: KeyProvisioning,
    pub transport: SecretKey,
    pub ram_bytes: usize,
}

impl Reader {
    pub fn provision(
        publisher: &Publisher,
        label: &str,
        subject: &str,
        query: Option<&str>,
        open_policy: bool,
    ) -> Result<Self, String> {
        let mut builder = Client::builder(subject).open_policy(open_policy);
        if let Some(q) = query {
            builder = builder.query(q);
        }
        let client = builder.provision(publisher).map_err(|e| e.to_string())?;
        let who = Subject::new(subject);
        Ok(Reader {
            label: label.to_owned(),
            subject: subject.to_owned(),
            query: query.map(str::to_owned),
            open_policy,
            doc_key: publisher
                .server()
                .provision_document_key(&who, DEFAULT_DOC_KEY_ID),
            rules_key: publisher.server().provision_rules_key(&who, RULES_KEY_ID),
            transport: publisher.pki().card_transport_key(&who),
            ram_bytes: client.card_profile().ram_bytes,
            client,
        })
    }

    pub fn policy(&self) -> AccessPolicy {
        if self.open_policy {
            AccessPolicy::open()
        } else {
            AccessPolicy::paper()
        }
    }

    /// The reader's authorized view of `doc` under `rules`, as XML text.
    pub fn oracle(&self, doc: &Document, rules: &RuleSet) -> Result<String, String> {
        let query = match &self.query {
            Some(q) => Some(Query::parse(q).map_err(|e| e.to_string())?),
            None => None,
        };
        Ok(writer::to_string(&authorized_view_oracle(
            doc,
            rules,
            &Subject::new(self.subject.clone()),
            query.as_ref(),
            &self.policy(),
        )))
    }
}

/// A card-path view: `Client::connect`, then the session run to completion.
pub struct CardView {
    pub ms: f64,
    pub connect_us: f64,
    pub session: CardSession,
}

/// Pulls `doc_id` through the card path and checks it against `oracle`.
/// With `spans`, `Client::connect` and every `CardSession` step are timed.
pub fn card_view(
    reader: &Reader,
    doc_id: &str,
    oracle: &str,
    spans: Option<(&mut Spans, SpanId)>,
) -> Result<CardView, String> {
    use sdds::dsp::service::{Schedulable, StepOutcome};
    let start = Instant::now();
    let (session, connect_us) = match spans {
        None => {
            let mut session = reader.client.connect(doc_id).map_err(|e| e.to_string())?;
            session.run().map_err(|e| e.to_string())?;
            (session, 0.0)
        }
        Some((spans, root)) => {
            let c = spans.open("facade.connect", root);
            let session = reader.client.connect(doc_id).map_err(|e| e.to_string());
            spans.close(c);
            let connect_us = spans.get(c).duration_ns() as f64 / 1e3;
            let mut session = session?;
            loop {
                let step = spans.open("proxy.step", root);
                let outcome = Schedulable::step(&mut session, usize::MAX);
                spans.close(step);
                match outcome {
                    Ok(StepOutcome::Complete) => break,
                    Ok(StepOutcome::Pending) => continue,
                    Err(e) => return Err(e),
                }
            }
            (session, connect_us)
        }
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    check_view(session.view().unwrap_or_default(), oracle)?;
    Ok(CardView {
        ms,
        connect_us,
        session,
    })
}

/// A stream-path view through the facade: `Client::open_stream`, drained
/// and rendered as XML text (what `ViewStream::collect_view` does), with
/// the time of the first authorized event.
pub struct StreamView {
    pub ms: f64,
    pub first_event_ms: f64,
    pub revision: u64,
    pub stats: SessionStats,
}

pub fn stream_view(reader: &Reader, doc_id: &str, oracle: &str) -> Result<StreamView, String> {
    let start = Instant::now();
    let mut stream = reader
        .client
        .open_stream(doc_id)
        .map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    let mut first_event_ms = None;
    for event in &mut stream {
        let event = event.map_err(|e| e.to_string())?;
        if first_event_ms.is_none() {
            first_event_ms = Some(start.elapsed().as_secs_f64() * 1e3);
        }
        events.push(event);
    }
    let xml = writer::to_string(&events);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    check_view(&xml, oracle)?;
    let stats = stream
        .stats()
        .cloned()
        .ok_or("a drained stream has statistics")?;
    Ok(StreamView {
        ms,
        first_event_ms: first_event_ms.unwrap_or(ms),
        revision: stream.revision(),
        stats,
    })
}

pub fn check_view(view: &str, oracle: &str) -> Result<(), String> {
    if view == oracle {
        Ok(())
    } else {
        Err(format!(
            "view differs from the oracle ({} bytes vs {} expected)",
            view.len(),
            oracle.len()
        ))
    }
}

/// Geometric mean over the classes matching `prefix` of each class's
/// `p`-quantile, samples taken through `f`.
pub fn class_stat(
    map: &BTreeMap<String, Vec<(f64, f64)>>,
    prefix: &str,
    p: f64,
    f: impl Fn(&[(f64, f64)]) -> Vec<f64>,
) -> f64 {
    let per_class: Vec<f64> = map
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| percentile(&f(v), p))
        .collect();
    geomean(&per_class)
}

pub fn raw(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, ms)| ms).collect()
}

/// Process high-water resident memory, in MB (VmHWM of /proc/self/status).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workload state built `SETUPS` times, each build timed.
pub struct Setup<S> {
    /// The first build, for the measured run.
    pub run: S,
    /// The second build, for the determinism replay.
    pub replay: S,
    /// Median build time, rescaled to the reference host speed, in s.
    pub setup_s: f64,
    /// Median raw build time, in s.
    pub raw_setup_s: f64,
}

/// Builds the workload state `SETUPS` times with the host kernel timed
/// around every build.
pub fn setups<S>(
    host: &mut Host,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<Setup<S>, String> {
    let mut timed = Vec::with_capacity(SETUPS);
    let mut kept = Vec::with_capacity(2);
    for _ in 0..3 {
        host.calibrate();
    }
    for _ in 0..SETUPS {
        let t = host.now();
        let start = Instant::now();
        let state = build()?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        timed.push((t + ms / 2e3, ms));
        if kept.len() < 2 {
            kept.push(state);
        }
        for _ in 0..3 {
            host.calibrate();
        }
    }
    let replay = kept.pop().ok_or("two set-ups")?;
    let run = kept.pop().ok_or("two set-ups")?;
    let raw: Vec<f64> = timed.iter().map(|&(_, ms)| ms).collect();
    Ok(Setup {
        run,
        replay,
        setup_s: crate::stats::median(&host.rescale_all(&timed)) / 1e3,
        raw_setup_s: crate::stats::median(&raw) / 1e3,
    })
}

/// Number of worker threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's own seeded generator for operation mixes
/// (the program's generators make the documents).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DD5_BE7C_4A11_2005)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut target = self.unit() * total;
        for k in 1..=n {
            target -= (k as f64).powf(-s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }
}
