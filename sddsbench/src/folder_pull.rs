//! `folder-pull`: one member reads one large hospital folder, over and over.
//!
//! Why: this is where the SOE does the most work per view — verify,
//! decrypt, decode, dispatch and assemble an ~8k-element folder — plus the
//! card framing on the card path. Three readers rotate: a permissive doctor
//! who fetches every chunk (the skip index is bypassed), a restrictive
//! secretary who skips about half the folder, and a doctor with a selective
//! query who skips most of it. Card-path and stream-path views interleave,
//! in a closed loop with no scheduler and no writes.

use std::collections::BTreeMap;
use std::time::Instant;

use sdds::xml::generator::{Corpus, GeneratorConfig};
use sdds::{Document, Publisher, RuleSet};

use crate::common::{
    self, card_counts, class_stat, raw, session_counts, Counts, Opts, Outcome, Reader, Tally,
};
use crate::host::Host;
use crate::layers;
use crate::mirror::MirrorPull;
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{Spans, NO_PARENT};

const DOC_ID: &str = "folder";
const ELEMENTS: usize = 8000;
const QUERY: &str = "//patient/prescriptions";

fn rules() -> RuleSet {
    RuleSet::parse(
        "+, doctor, //patient\n\
         -, doctor, //patient/ssn\n\
         +, secretary, //patient/name\n\
         +, secretary, //patient/address\n\
         +, secretary, //patient/acts/act/date",
    )
    .expect("static rule set parses")
}

struct State {
    readers: Vec<Reader>,
    oracles: Vec<String>,
}

fn setup(seed: u64) -> Result<(State, Document), String> {
    let doc = Corpus::Hospital.generate(
        ELEMENTS,
        &GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        },
    );
    let publisher = Publisher::builder(b"sdds-bench-folder")
        .rules(rules())
        .build()
        .map_err(|e| e.to_string())?;
    publisher.publish(DOC_ID, &doc).map_err(|e| e.to_string())?;
    let readers = vec![
        Reader::provision(&publisher, "doctor", "doctor", None, false)?,
        Reader::provision(&publisher, "secretary", "secretary", None, false)?,
        Reader::provision(&publisher, "doctor-query", "doctor", Some(QUERY), false)?,
    ];
    Ok((
        State {
            readers,
            oracles: Vec::new(),
        },
        doc,
    ))
}

/// Timed samples of a run, per class (`card/<reader>`, `stream/<reader>`),
/// as (seconds since the origin, ms).
#[derive(Default)]
struct Samples {
    views: BTreeMap<String, Vec<(f64, f64)>>,
    first_event: BTreeMap<String, Vec<(f64, f64)>>,
    connect_us: Vec<f64>,
}

impl Samples {
    fn push(&mut self, class: String, host: &Host, ms: f64) {
        self.views
            .entry(class)
            .or_default()
            .push((host.now() - ms / 2e3, ms));
    }
}

/// One cycle: every reader once on each path, in an order that alternates
/// between cycles. Returns the cycle's deterministic counts.
fn cycle(
    state: &State,
    index: u64,
    mut traced: Option<&mut Spans>,
    host: &mut Host,
    out: &mut Samples,
    tally: &mut Tally,
) -> Counts {
    let mut counts = Counts::new();
    for (r, reader) in state.readers.iter().enumerate() {
        host.calibrate();
        let oracle = &state.oracles[r];
        let card_first = (index as usize + r).is_multiple_of(2);
        for path in if card_first {
            ["card", "stream"]
        } else {
            ["stream", "card"]
        } {
            let view_id = index * 8 + (r as u64) * 2 + u64::from(path == "stream");
            let class = format!("{path}/{}", reader.label);
            match (path, traced.as_deref_mut()) {
                ("card", None) => {
                    if let Some(v) =
                        tally.record(&class, common::card_view(reader, DOC_ID, oracle, None))
                    {
                        card_counts(&mut counts, "card", &v.session);
                        out.push(class, host, v.ms);
                    }
                }
                ("card", Some(spans)) => {
                    spans.set_view(view_id);
                    let root = spans.open("view.card", NO_PARENT);
                    let view = common::card_view(reader, DOC_ID, oracle, Some((spans, root)));
                    spans.close(root);
                    if let Some(v) = tally.record(&class, view) {
                        card_counts(&mut counts, "card", &v.session);
                        out.connect_us.push(v.connect_us);
                        out.push(class, host, v.ms);
                    }
                }
                (_, None) => {
                    if let Some(v) =
                        tally.record(&class, common::stream_view(reader, DOC_ID, oracle))
                    {
                        session_counts(&mut counts, "stream", &v.stats);
                        let t = host.now();
                        out.first_event
                            .entry(class.clone())
                            .or_default()
                            .push((t, v.first_event_ms));
                        out.push(class, host, v.ms);
                    }
                }
                (_, Some(spans)) => {
                    let (view, pull_spans) =
                        MirrorPull::new(reader, DOC_ID, spans.origin(), view_id).run();
                    let root = spans.len();
                    spans.absorb(pull_spans);
                    let ms = spans.get(root).duration_ns() as f64 / 1e6;
                    let view = view.and_then(|v| common::check_view(&v.xml, oracle).map(|()| v));
                    if let Some(v) = tally.record(&class, view) {
                        session_counts(&mut counts, "stream", &v.stats);
                        let t = host.now();
                        out.first_event
                            .entry(class.clone())
                            .or_default()
                            .push((t, v.first_event_ns as f64 / 1e6));
                        out.push(class, host, ms);
                    }
                }
            }
        }
    }
    counts
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut host = Host::new(origin, 1);
    let built = common::setups(&mut host, || setup(opts.seed))?;
    let ((mut state, doc), (mut replay_state, _)) = (built.run, built.replay);
    let rules = rules();
    let oracles = state
        .readers
        .iter()
        .map(|r| r.oracle(&doc, &rules))
        .collect::<Result<Vec<_>, _>>()?;
    drop(doc);
    replay_state.oracles = oracles.clone();
    state.oracles = oracles;

    let mut out = Outcome::default();
    let mut spans = Spans::new(origin);

    // Cycle 0 warms the caches and fixes the run's deterministic counts.
    out.counts = cycle(
        &state,
        0,
        opts.trace.then_some(&mut Spans::new(origin)),
        &mut host,
        &mut Samples::default(),
        &mut out.tally,
    );

    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let start = Instant::now();
    let mut index = 1u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        // A traced run alternates traced and untraced cycles: the untraced
        // ones give the tracing overhead and the card framing.
        let counts = if opts.trace && index.is_multiple_of(2) {
            cycle(
                &state,
                index,
                Some(&mut spans),
                &mut host,
                &mut traced,
                &mut out.tally,
            )
        } else {
            cycle(&state, index, None, &mut host, &mut plain, &mut out.tally)
        };
        if counts != out.counts {
            out.tally.record::<()>(
                "counts",
                Err(format!("cycle {index} counts differ from cycle 0")),
            );
        }
        index += 1;
    }
    host.calibrate();

    // The same cycle on a second set-up, with tracing the other way round.
    let replayed = cycle(
        &replay_state,
        0,
        (!opts.trace).then_some(&mut Spans::new(origin)),
        &mut host,
        &mut Samples::default(),
        &mut out.tally,
    );
    if replayed != out.counts {
        out.tally.record::<()>(
            "determinism",
            Err("traced and untraced cycles of one seed give different counts".into()),
        );
    }

    let scaled = |v: &[(f64, f64)]| host.rescale_all(v);
    let c = &out.counts;
    let views: usize = plain.views.values().map(Vec::len).sum();
    let busy_ms: f64 = plain
        .views
        .values()
        .map(|v| scaled(v).iter().sum::<f64>())
        .sum();
    let raw_busy_ms: f64 = plain
        .views
        .values()
        .map(|v| raw(v).iter().sum::<f64>())
        .sum();
    out.e2e
        .insert("view_ms_p50", class_stat(&plain.views, "", 0.5, scaled));
    out.e2e
        .insert("view_ms_p90", class_stat(&plain.views, "", 0.9, raw));
    out.e2e
        .insert("views_per_s", views as f64 / (busy_ms / 1e3));
    out.e2e.insert(
        "card_bytes_per_view",
        common::per(c, "card.bytes_to_soe", "card.views"),
    );
    out.e2e.insert(
        "soe_peak_ram_bytes",
        c.get("card.soe_ram_peak")
            .copied()
            .unwrap_or(0)
            .max(c.get("stream.soe_ram_peak").copied().unwrap_or(0)) as f64,
    );
    out.e2e.insert("setup_s", built.setup_s);

    let x = &mut out.extra;
    x.push((
        "raw view_ms_p50 (wall clock)".into(),
        class_stat(&plain.views, "", 0.5, raw),
        "ms",
    ));
    x.push((
        "raw views_per_s (wall clock)".into(),
        views as f64 / (raw_busy_ms / 1e3),
        "views/s",
    ));
    x.push(("raw setup_s (wall clock)".into(), built.raw_setup_s, "s"));
    x.push(("host kernel median".into(), host.median_kernel_ms(), "ms"));
    x.push((
        "card view_ms_p50 (geomean over readers)".into(),
        class_stat(&plain.views, "card/", 0.5, scaled),
        "ms",
    ));
    x.push((
        "stream_view_ms_p50 (geomean over readers)".into(),
        class_stat(&plain.views, "stream/", 0.5, scaled),
        "ms",
    ));
    x.push((
        "stream_first_event_ms_p50 (geomean over readers)".into(),
        class_stat(&plain.first_event, "stream/", 0.5, scaled),
        "ms",
    ));
    for (class, v) in &plain.views {
        let v = scaled(v);
        x.push((
            format!("{class} view_ms_p50 of {} views", v.len()),
            median(&v),
            "ms",
        ));
        x.push((format!("{class} view_ms_p90"), percentile(&v, 0.9), "ms"));
    }
    x.push((
        "stream bytes to the SOE per view".into(),
        common::per(c, "stream.bytes_to_soe", "stream.views"),
        "B",
    ));

    if opts.trace {
        let mut m = layers::common(&spans, c, "stream", "card");
        let class_median = |class: &str| median(&raw(&plain.views[class]));
        let framing: Vec<f64> = state
            .readers
            .iter()
            .map(|r| {
                class_median(&format!("card/{}", r.label))
                    - class_median(&format!("stream/{}", r.label))
            })
            .collect();
        m.insert("card.framing_ms_per_view", mean(&framing));
        let overhead: Vec<f64> = traced
            .views
            .iter()
            .filter_map(|(class, v)| {
                plain
                    .views
                    .get(class)
                    .map(|p| median(&scaled(v)) / median(&scaled(p)))
            })
            .collect();
        m.insert("trace.overhead_share", geomean(&overhead) - 1.0);
        out.notes.extend(breakdown(&spans, &traced, &m));
        out.layers = m;
        out.spans = Some(spans);
    }
    Ok(out)
}

/// The traced folder-pull view split by layer: self time per view of each
/// layer on the stream path, plus the card framing, against the mean
/// card-path view.
fn breakdown(spans: &Spans, traced: &Samples, m: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let t = spans.by_name();
    let stream_views = t.get("view.stream").map_or(1, |s| s.calls).max(1) as f64;
    let per_view = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| t.get(n).map_or(0, |s| s.self_ns))
            .sum::<u64>() as f64
            / stream_views
            / 1e6
    };
    let stream_ms = t.get("view.stream").map_or(0, |s| s.total_ns) as f64 / stream_views / 1e6;
    let card: Vec<f64> = traced
        .views
        .iter()
        .filter(|(k, _)| k.starts_with("card/"))
        .flat_map(|(_, v)| raw(v))
        .collect();
    let card_ms = mean(&card);
    let connect_ms = mean(&traced.connect_us) / 1e3;
    let rows = [
        (
            "facade open_stream (self)",
            per_view(&["facade.open_stream"]),
        ),
        (
            "dsp serve (header, rules, chunks)",
            per_view(&["dsp.fetch_header", "dsp.fetch_rules", "dsp.fetch_chunk"]),
        ),
        (
            "core rules open + session open",
            per_view(&["core.rules_open", "core.session_open"]),
        ),
        ("crypto verify (replayed)", m["crypto.verify_ms_per_view"]),
        ("crypto decrypt (replayed)", m["crypto.decrypt_ms_per_view"]),
        (
            "core decode + evaluate + assemble",
            m["core.decode_eval_ms_per_view"],
        ),
        ("core finish", per_view(&["core.finish"])),
        ("xml write", per_view(&["xml.write"])),
        (
            "unattributed (benchmark glue)",
            per_view(&["view.stream", "stream.step"]),
        ),
    ];
    let mut lines = vec![format!(
        "breakdown: stream view {stream_ms:.3} ms mean; card view {card_ms:.3} ms mean, of which connect {connect_ms:.3} ms"
    )];
    for (name, ms) in rows {
        lines.push(format!(
            "breakdown: {name:<36} {ms:>8.3} ms/view {:>6.1}% of the stream view",
            100.0 * ms / stream_ms
        ));
    }
    lines.push(format!(
        "breakdown: {:<36} {:>8.3} ms/view (card minus stream view, same reader, medians)",
        "card framing", m["card.framing_ms_per_view"]
    ));
    lines
}
