//! `fleet-pull`: a crowd of card sessions pulls small folders from a
//! 16-shard DSP through the session scheduler.
//!
//! Why: here per-session fixed costs dominate — `Client::connect`, the rule
//! fetch and open, the session open, scheduling, and DSP fetches contended
//! by `nproc` workers — while the per-chunk SOE work is small and the Merkle
//! trees are shallow. Folder popularity is skewed (Zipf), so one shard runs
//! hot. Each round submits the same crowd; rounds run back to back (a closed
//! loop of rounds).

use std::time::Instant;

use sdds::dsp::service::SessionScheduler;
use sdds::xml::generator::{Corpus, GeneratorConfig};
use sdds::{Publisher, RuleSet};

use crate::common::{
    self, add_count, card_counts, session_counts, Counts, Opts, Outcome, Reader, Rng,
};
use crate::host::Host;
use crate::layers;
use crate::mirror::{MirrorPull, TimedCard};
use crate::stats::{mean, median, percentile};
use crate::trace::{Spans, NO_PARENT};

const SHARDS: usize = 16;
const FOLDERS: usize = 96;
/// Elements per folder: every folder has the same size, so the seed moves
/// which folders are hot, not how much work a round is.
const ELEMENTS: usize = 120;
const SESSIONS: usize = 240;
const QUANTUM: usize = 8;
const ZIPF_S: f64 = 1.1;

fn rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, researcher, //diagnosis",
    )
    .expect("static rule set parses")
}

fn folder_id(i: usize) -> String {
    format!("folder-{i:03}")
}

struct State {
    readers: Vec<Reader>,
    /// The crowd of one round: (folder, reader) per session.
    plan: Vec<(usize, usize)>,
    /// Oracle per (folder, reader), for the pairs the plan uses.
    oracles: Vec<Vec<String>>,
}

fn setup(seed: u64) -> Result<(State, Vec<sdds::Document>), String> {
    let mut rng = Rng::new(seed);
    let publisher = Publisher::builder(b"sdds-bench-fleet")
        .rules(rules())
        .shards(SHARDS)
        .build()
        .map_err(|e| e.to_string())?;
    let mut docs = Vec::with_capacity(FOLDERS);
    for i in 0..FOLDERS {
        let doc = Corpus::Hospital.generate(
            ELEMENTS,
            &GeneratorConfig {
                seed: seed.wrapping_mul(1000).wrapping_add(i as u64),
                ..GeneratorConfig::default()
            },
        );
        publisher
            .publish(&folder_id(i), &doc)
            .map_err(|e| e.to_string())?;
        docs.push(doc);
    }
    let readers = vec![
        Reader::provision(&publisher, "doctor", "doctor", None, false)?,
        Reader::provision(&publisher, "secretary", "secretary", None, false)?,
        Reader::provision(&publisher, "researcher", "researcher", None, false)?,
    ];
    let plan = (0..SESSIONS)
        .map(|j| (rng.zipf(FOLDERS, ZIPF_S), j % readers.len()))
        .collect();
    Ok((
        State {
            readers,
            plan,
            oracles: Vec::new(),
        },
        docs,
    ))
}

fn oracles(state: &State, docs: &[sdds::Document]) -> Result<Vec<Vec<String>>, String> {
    let rules = rules();
    let mut out = vec![vec![String::new(); state.readers.len()]; docs.len()];
    for &(folder, reader) in &state.plan {
        if out[folder][reader].is_empty() {
            out[folder][reader] = state.readers[reader].oracle(&docs[folder], &rules)?;
        }
    }
    Ok(out)
}

/// Timed samples as (seconds since the origin, ms).
#[derive(Default)]
struct Samples {
    latency_ms: Vec<(f64, f64)>,
    round_ms: Vec<(f64, f64)>,
    views: usize,
    connect_us: Vec<f64>,
    /// (time between steps, session latency) in ns, summed.
    wait_ns: u64,
    span_ns: u64,
    card_busy_ms: Vec<f64>,
}

/// One round of card sessions through the scheduler. With `spans`, every
/// session records one span per step.
fn card_round(
    state: &State,
    mut spans: Option<&mut Spans>,
    host: &mut Host,
    out: &mut Samples,
    tally: &mut common::Tally,
) -> Counts {
    let origin = host.origin();
    let traced = spans.is_some();
    let mut counts = Counts::new();
    host.calibrate();
    let start = Instant::now();
    let mut sessions = Vec::with_capacity(state.plan.len());
    let mut indices = Vec::with_capacity(state.plan.len());
    for (j, &(folder, reader)) in state.plan.iter().enumerate() {
        let connect = Instant::now();
        let session = state.readers[reader].client.connect(folder_id(folder));
        let connect_ns = connect.elapsed().as_nanos() as u64;
        if let Some(session) = tally.record("connect", session.map_err(|e| e.to_string())) {
            let spans = traced.then(|| {
                let mut s = Spans::new(origin);
                s.set_view(j as u64);
                (s, NO_PARENT)
            });
            sessions.push(TimedCard {
                session,
                connect_ns,
                steps: 0,
                done: None,
                spans,
            });
            indices.push(j);
        }
    }
    let submitted = Instant::now();
    for s in &mut sessions {
        if let Some((spans, root)) = &mut s.spans {
            *root = spans.open("session.card", NO_PARENT);
        }
    }
    let report = SessionScheduler::new(common::nproc(), QUANTUM).run(sessions);
    let round_ms = start.elapsed().as_secs_f64() * 1e3;
    let mid = host.now() - round_ms / 2e3;
    out.round_ms.push((mid, round_ms));
    let mut finished = report.finished;
    finished.sort_by_key(|f| f.index);
    for f in finished {
        let (folder, reader) = state.plan[indices[f.index]];
        let s = f.session;
        let result = match (&f.error, s.session.view()) {
            (Some(e), _) => Err(e.clone()),
            (None, Some(view)) => common::check_view(view, &state.oracles[folder][reader]),
            (None, None) => Err("session completed without a view".into()),
        };
        if tally.record("card session", result).is_none() {
            continue;
        }
        let done = s.done.unwrap_or(submitted);
        let queued_ns = done.duration_since(submitted).as_nanos() as u64;
        out.latency_ms
            .push((mid, (s.connect_ns + queued_ns) as f64 / 1e6));
        out.views += 1;
        card_counts(&mut counts, "card", &s.session);
        add_count(&mut counts, "card.steps".into(), s.steps);
        if let Some((mut session_spans, root)) = s.spans {
            session_spans.close(root);
            let life = session_spans.get(root).duration_ns();
            let busy = session_spans
                .by_name()
                .get("proxy.step")
                .map_or(0, |t| t.total_ns);
            out.wait_ns += life.saturating_sub(busy);
            out.span_ns += life;
            out.connect_us.push(s.connect_ns as f64 / 1e3);
            out.card_busy_ms.push((s.connect_ns + busy) as f64 / 1e6);
            if let Some(main) = spans.as_deref_mut() {
                main.absorb(session_spans);
            }
        }
    }
    counts
}

/// The same crowd as stream-path replays through the same scheduler: one
/// span per call into the DSP, the SOE engine, crypto and the XML writer.
fn mirror_round(
    state: &State,
    spans: &mut Spans,
    origin: Instant,
    stream_ms: &mut Vec<f64>,
    tally: &mut common::Tally,
) -> Counts {
    let mut counts = Counts::new();
    let pulls: Vec<MirrorPull<'_>> = state
        .plan
        .iter()
        .enumerate()
        .map(|(j, &(folder, reader))| {
            MirrorPull::new(&state.readers[reader], &folder_id(folder), origin, j as u64)
        })
        .collect();
    let report = SessionScheduler::new(common::nproc(), QUANTUM).run(pulls);
    let mut finished = report.finished;
    finished.sort_by_key(|f| f.index);
    for f in finished {
        let (folder, reader) = state.plan[f.index];
        let mut pull = f.session;
        let result = pull
            .result
            .take()
            .unwrap_or(Err("replay did not end".into()))
            .and_then(|v| common::check_view(&v.xml, &state.oracles[folder][reader]).map(|()| v));
        if let Some(v) = tally.record("stream replay", result) {
            session_counts(&mut counts, "stream", &v.stats);
            let busy: u64 = pull
                .spans
                .by_name()
                .get("stream.step")
                .map_or(0, |t| t.total_ns);
            stream_ms.push(busy as f64 / 1e6);
        }
        spans.absorb(pull.spans);
    }
    counts
}

/// SOE secure-RAM high-water mark of the crowd's views, read off stream
/// pulls of the same (folder, reader) pairs: the card path closes its SOE
/// session before its statistics can be read.
fn soe_peak(state: &State, tally: &mut common::Tally) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    let mut peak = 0;
    for &(folder, reader) in &state.plan {
        if seen.insert((folder, reader)) {
            let view = common::stream_view(
                &state.readers[reader],
                &folder_id(folder),
                &state.oracles[folder][reader],
            );
            if let Some(v) = tally.record("stream pull", view) {
                peak = peak.max(v.stats.peak_ram_bytes as u64);
            }
        }
    }
    peak
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut host = Host::new(origin, common::nproc());
    let built = common::setups(&mut host, || setup(opts.seed))?;
    let ((mut state, docs), (mut replay_state, _)) = (built.run, built.replay);
    let table = oracles(&state, &docs)?;
    drop(docs);
    replay_state.oracles = table.clone();
    state.oracles = table;

    let mut out = Outcome::default();
    let mut spans = Spans::new(origin);
    let mut stream_ms = Vec::new();

    // Round 0 warms up and fixes the deterministic counts.
    let mut warm_spans = Spans::new(origin);
    out.counts = card_round(
        &state,
        opts.trace.then_some(&mut warm_spans),
        &mut host,
        &mut Samples::default(),
        &mut out.tally,
    );
    let peak = soe_peak(&state, &mut out.tally);
    add_count(&mut out.counts, "soe_ram_peak".into(), peak);

    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut stream_counts = Counts::new();
    let start = Instant::now();
    let mut index = 1u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let trace_this = opts.trace && index.is_multiple_of(2);
        let mut counts = if trace_this {
            let c = card_round(
                &state,
                Some(&mut spans),
                &mut host,
                &mut traced,
                &mut out.tally,
            );
            stream_counts =
                mirror_round(&state, &mut spans, origin, &mut stream_ms, &mut out.tally);
            c
        } else {
            card_round(&state, None, &mut host, &mut plain, &mut out.tally)
        };
        add_count(&mut counts, "soe_ram_peak".into(), peak);
        if counts != out.counts {
            out.tally.record::<()>(
                "counts",
                Err(format!("round {index} counts differ from round 0")),
            );
        }
        index += 1;
    }

    let mut replayed = card_round(
        &replay_state,
        (!opts.trace).then_some(&mut Spans::new(origin)),
        &mut host,
        &mut Samples::default(),
        &mut out.tally,
    );
    add_count(
        &mut replayed,
        "soe_ram_peak".into(),
        soe_peak(&replay_state, &mut out.tally),
    );
    if replayed != out.counts {
        out.tally.record::<()>(
            "determinism",
            Err("traced and untraced rounds of one seed give different counts".into()),
        );
    }

    let c = &out.counts;
    let scaled = host.rescale_all(&plain.latency_ms);
    let raw: Vec<f64> = plain.latency_ms.iter().map(|&(_, ms)| ms).collect();
    let busy_ms: f64 = host.rescale_all(&plain.round_ms).iter().sum();
    let raw_busy_ms: f64 = plain.round_ms.iter().map(|&(_, ms)| ms).sum();
    out.e2e.insert("view_ms_p50", percentile(&scaled, 0.5));
    out.e2e.insert("view_ms_p90", percentile(&raw, 0.9));
    out.e2e
        .insert("views_per_s", plain.views as f64 / (busy_ms / 1e3));
    out.e2e.insert(
        "card_bytes_per_view",
        common::per(c, "card.bytes_to_soe", "card.views"),
    );
    out.e2e.insert("soe_peak_ram_bytes", peak as f64);
    out.e2e.insert("setup_s", built.setup_s);
    let x = &mut out.extra;
    x.push((
        "raw view_ms_p50 (wall clock)".into(),
        percentile(&raw, 0.5),
        "ms",
    ));
    x.push((
        "raw views_per_s (wall clock)".into(),
        plain.views as f64 / (raw_busy_ms / 1e3),
        "views/s",
    ));
    x.push(("raw setup_s (wall clock)".into(), built.raw_setup_s, "s"));
    x.push(("host kernel median".into(), host.median_kernel_ms(), "ms"));
    x.push((
        format!("view_ms_p99 of {} views", scaled.len()),
        percentile(&scaled, 0.99),
        "ms",
    ));
    x.push(("sessions per round".into(), SESSIONS as f64, "count"));
    x.push(("rounds".into(), plain.round_ms.len() as f64, "count"));

    if opts.trace {
        let mut all = out.counts.clone();
        common::merge_counts(&mut all, &stream_counts);
        let mut m = layers::common(&spans, &all, "stream", "card");
        // Replays run under the scheduler too: their view roots include the
        // wait between steps, so only the steps count as view time here.
        let t = spans.by_name();
        let step = t.get("stream.step").copied().unwrap_or_default();
        m.insert(
            "trace.unattributed_share",
            step.self_ns as f64 / step.total_ns.max(1) as f64,
        );
        m.insert(
            "dsp.sched.wait_share",
            traced.wait_ns as f64 / traced.span_ns.max(1) as f64,
        );
        m.insert(
            "dsp.sched.steps_per_view",
            common::per(c, "card.steps", "card.views"),
        );
        m.insert("facade.connect_us", mean(&traced.connect_us));
        m.insert(
            "card.framing_ms_per_view",
            mean(&traced.card_busy_ms) - mean(&stream_ms),
        );
        m.insert(
            "trace.overhead_share",
            median(&host.rescale_all(&traced.latency_ms)) / median(&scaled) - 1.0,
        );
        out.layers = m;
        out.spans = Some(spans);
    }
    Ok(out)
}
