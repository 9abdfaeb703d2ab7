//! `policy-churn`: the owner edits while members read.
//!
//! Why: this is the write side — skip-index encoding, AES encryption, the
//! Merkle build, rule sealing, `put_document` and `put_rules` — run beside
//! reads, so a read-path gain that costs writes or invalidation shows. A
//! single-threaded closed loop interleaves stream-path pulls of mid-size
//! folders with grant/revoke pairs and with republishes of existing folder
//! ids (two versions per folder), so the policy and the store stay bounded.
//! Every pull is checked against the oracle of the current policy and
//! revision. `Publisher::grant` re-seals one blob per stored folder and
//! served subject: FOLDERS folders × 3 subjects here.

use std::time::Instant;

use sdds::core::RuleId;
use sdds::xml::generator::{Corpus, GeneratorConfig};
use sdds::{Document, Publisher, RuleSet, Sign};

use crate::common::{
    self, add_count, class_stat, raw, session_counts, Counts, Opts, Outcome, Reader,
};
use crate::host::{Host, CALIBRATE_EVERY_S};
use crate::layers;
use crate::mirror::{self, MirrorPull, PolicyChange};
use crate::stats::{geomean, median};
use crate::trace::Spans;

const FOLDERS: usize = 4;
const ELEMENTS: usize = 1200;
const SUBJECTS: [&str; 3] = ["doctor", "secretary", "researcher"];
/// The rule a grant adds and the matching revoke removes.
const TOGGLED: (&str, Sign, &str) = ("secretary", Sign::Permit, "//patient/diagnosis");

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

fn granted_rules() -> RuleSet {
    let mut rules = rules();
    rules
        .push(TOGGLED.1, TOGGLED.0, TOGGLED.2)
        .expect("static rule parses");
    rules
}

fn folder_id(f: usize) -> String {
    format!("folder-{f}")
}

struct State {
    publisher: Publisher,
    readers: Vec<Reader>,
    /// Two versions of each folder; republishing toggles between them.
    docs: Vec<[Document; 2]>,
    version: Vec<usize>,
    revision: Vec<u64>,
    granted: Option<RuleId>,
    /// `oracles[folder][version][reader][granted]`.
    oracles: Vec<Vec<Vec<[String; 2]>>>,
}

fn setup(seed: u64) -> Result<State, String> {
    let publisher = Publisher::builder(b"sdds-bench-churn")
        .rules(rules())
        .build()
        .map_err(|e| e.to_string())?;
    let docs: Vec<[Document; 2]> = (0..FOLDERS)
        .map(|f| {
            [0u64, 1].map(|v| {
                Corpus::Hospital.generate(
                    ELEMENTS,
                    &GeneratorConfig {
                        seed: seed.wrapping_mul(100).wrapping_add((f * 2) as u64 + v),
                        ..GeneratorConfig::default()
                    },
                )
            })
        })
        .collect();
    for (f, versions) in docs.iter().enumerate() {
        publisher
            .publish(&folder_id(f), &versions[0])
            .map_err(|e| e.to_string())?;
    }
    let readers = SUBJECTS
        .iter()
        .map(|s| Reader::provision(&publisher, s, s, None, false))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(State {
        publisher,
        readers,
        docs,
        version: vec![0; FOLDERS],
        revision: vec![0; FOLDERS],
        granted: None,
        oracles: Vec::new(),
    })
}

fn oracles(state: &State) -> Result<Vec<Vec<Vec<[String; 2]>>>, String> {
    let (base, granted) = (rules(), granted_rules());
    state
        .docs
        .iter()
        .map(|versions| {
            versions
                .iter()
                .map(|doc| {
                    state
                        .readers
                        .iter()
                        .map(|r| Ok([r.oracle(doc, &base)?, r.oracle(doc, &granted)?]))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Timed samples as (seconds since the origin, ms).
#[derive(Default)]
struct Samples {
    views: std::collections::BTreeMap<String, Vec<(f64, f64)>>,
    publish_ms: Vec<(f64, f64)>,
    policy_ms: Vec<(f64, f64)>,
    /// Every operation, reads and writes.
    ops_ms: Vec<(f64, f64)>,
    reads: usize,
}

impl Samples {
    fn op(&mut self, host: &Host, ms: f64) -> (f64, f64) {
        let sample = (host.now() - ms / 2e3, ms);
        self.ops_ms.push(sample);
        sample
    }
}

#[allow(clippy::too_many_arguments)]
fn read(
    state: &State,
    f: usize,
    r: usize,
    spans: Option<&mut Spans>,
    host: &Host,
    out: &mut Samples,
    counts: &mut Counts,
    tally: &mut common::Tally,
) {
    let reader = &state.readers[r];
    let oracle = &state.oracles[f][state.version[f]][r][usize::from(state.granted.is_some())];
    let doc_id = folder_id(f);
    let (result, ms) = match spans {
        None => {
            let view = common::stream_view(reader, &doc_id, oracle);
            let ms = view.as_ref().map_or(0.0, |v| v.ms);
            (view.map(|v| (v.stats, v.revision)), ms)
        }
        Some(spans) => {
            let (view, pull_spans) =
                MirrorPull::new(reader, &doc_id, host.origin(), out.reads as u64).run();
            let root = spans.len();
            spans.absorb(pull_spans);
            let ms = spans.get(root).duration_ns() as f64 / 1e6;
            let view = view
                .and_then(|v| common::check_view(&v.xml, oracle).map(|()| (v.stats, v.revision)));
            (view, ms)
        }
    };
    let result = result.and_then(|(stats, revision)| {
        if revision == state.revision[f] {
            Ok(stats)
        } else {
            Err(format!(
                "read revision {revision}, expected {}",
                state.revision[f]
            ))
        }
    });
    if let Some(stats) = tally.record("read", result) {
        session_counts(counts, "stream", &stats);
        out.reads += 1;
        let sample = out.op(host, ms);
        out.views
            .entry(reader.label.clone())
            .or_default()
            .push(sample);
    }
}

fn republish(
    state: &mut State,
    f: usize,
    spans: Option<&mut Spans>,
    host: &Host,
    out: &mut Samples,
    counts: &mut Counts,
    tally: &mut common::Tally,
) {
    let next = 1 - state.version[f];
    let doc = &state.docs[f][next];
    let published = match spans {
        None => {
            let start = Instant::now();
            let receipt = state.publisher.publish(&folder_id(f), doc);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            receipt.map(|r| (r.chunks, ms)).map_err(|e| e.to_string())
        }
        Some(spans) => mirror::publish(spans, &state.publisher, &SUBJECTS, &folder_id(f), doc),
    };
    if let Some((chunks, ms)) = tally.record("publish", published) {
        add_count(counts, "publish.chunks".into(), chunks as u64);
        add_count(counts, "publish.count".into(), 1);
        let sample = out.op(host, ms);
        out.publish_ms.push(sample);
    }
    state.version[f] = next;
    state.revision[f] += 1;
}

fn change_policy(
    state: &mut State,
    grant: bool,
    spans: Option<&mut Spans>,
    host: &Host,
    out: &mut Samples,
    tally: &mut common::Tally,
) {
    let start = Instant::now();
    let result = match (grant, spans) {
        (true, None) => state
            .publisher
            .grant(TOGGLED.0, TOGGLED.1, TOGGLED.2)
            .map_err(|e| e.to_string()),
        (false, None) => match state.granted {
            Some(id) if state.publisher.server_mut().rules_mut().remove(id) => {
                state.publisher.sync_rules().map_err(|e| e.to_string())
            }
            _ => Err("no granted rule to revoke".into()),
        },
        (true, Some(spans)) => mirror::change_policy(
            spans,
            &mut state.publisher,
            &SUBJECTS,
            PolicyChange::Grant(TOGGLED.0, TOGGLED.1, TOGGLED.2),
        ),
        (false, Some(spans)) => match state.granted {
            Some(id) => mirror::change_policy(
                spans,
                &mut state.publisher,
                &SUBJECTS,
                PolicyChange::Revoke(id),
            ),
            None => Err("nothing to revoke".into()),
        },
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if tally
        .record(if grant { "grant" } else { "revoke" }, result)
        .is_some()
    {
        let sample = out.op(host, ms);
        out.policy_ms.push(sample);
    }
    state.granted = if grant {
        state.publisher.rules().rules().last().map(|r| r.id)
    } else {
        None
    };
}

/// One cycle: two passes over the folders, each reading every folder as
/// every member, granting after the second folder, revoking after the
/// fourth, and republishing each folder after its reads. Two passes bring
/// every folder back to its first version, so every cycle repeats the same
/// operations on the same contents.
fn cycle(
    state: &mut State,
    mut spans: Option<&mut Spans>,
    host: &mut Host,
    out: &mut Samples,
    tally: &mut common::Tally,
) -> Counts {
    let mut counts = Counts::new();
    for _pass in 0..2 {
        for f in 0..FOLDERS {
            host.calibrate_every(CALIBRATE_EVERY_S);
            for r in 0..state.readers.len() {
                read(
                    state,
                    f,
                    r,
                    spans.as_deref_mut(),
                    host,
                    out,
                    &mut counts,
                    tally,
                );
            }
            if f == 1 {
                change_policy(state, true, spans.as_deref_mut(), host, out, tally);
            }
            if f == FOLDERS - 1 {
                change_policy(state, false, spans.as_deref_mut(), host, out, tally);
            }
            republish(
                state,
                f,
                spans.as_deref_mut(),
                host,
                out,
                &mut counts,
                tally,
            );
        }
    }
    counts
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut host = Host::new(origin, 1);
    let built = common::setups(&mut host, || setup(opts.seed))?;
    let (mut state, mut replay_state) = (built.run, built.replay);
    let table = oracles(&state)?;
    replay_state.oracles = table.clone();
    state.oracles = table;

    let mut out = Outcome::default();
    let mut spans = Spans::new(origin);
    let mut warm_spans = Spans::new(origin);
    out.counts = cycle(
        &mut state,
        opts.trace.then_some(&mut warm_spans),
        &mut host,
        &mut Samples::default(),
        &mut out.tally,
    );

    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let start = Instant::now();
    let mut index = 1u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let trace_this = opts.trace && index.is_multiple_of(2);
        let counts = if trace_this {
            cycle(
                &mut state,
                Some(&mut spans),
                &mut host,
                &mut traced,
                &mut out.tally,
            )
        } else {
            cycle(&mut state, None, &mut host, &mut plain, &mut out.tally)
        };
        if counts != out.counts {
            out.tally.record::<()>(
                "counts",
                Err(format!("cycle {index} counts differ from cycle 0")),
            );
        }
        index += 1;
    }

    let replayed = cycle(
        &mut replay_state,
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

    let c = &out.counts;
    let scaled = |v: &[(f64, f64)]| host.rescale_all(v);
    let busy_ms: f64 = scaled(&plain.ops_ms).iter().sum();
    let raw_busy_ms: f64 = raw(&plain.ops_ms).iter().sum();
    out.e2e
        .insert("view_ms_p50", class_stat(&plain.views, "", 0.5, scaled));
    out.e2e
        .insert("view_ms_p90", class_stat(&plain.views, "", 0.9, raw));
    out.e2e
        .insert("views_per_s", plain.reads as f64 / (busy_ms / 1e3));
    out.e2e.insert(
        "card_bytes_per_view",
        common::per(c, "stream.bytes_to_soe", "stream.views"),
    );
    out.e2e.insert(
        "soe_peak_ram_bytes",
        c.get("stream.soe_ram_peak").copied().unwrap_or(0) as f64,
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
        plain.reads as f64 / (raw_busy_ms / 1e3),
        "views/s",
    ));
    x.push(("raw setup_s (wall clock)".into(), built.raw_setup_s, "s"));
    x.push(("host kernel median".into(), host.median_kernel_ms(), "ms"));
    x.push((
        format!(
            "stream_view_ms_p50 (geomean over members, {} reads)",
            plain.reads
        ),
        class_stat(&plain.views, "", 0.5, scaled),
        "ms",
    ));
    x.push((
        format!("publish_ms_p50 of {}", plain.publish_ms.len()),
        median(&scaled(&plain.publish_ms)),
        "ms",
    ));
    x.push((
        format!(
            "grant_ms_p50 (grant or revoke) of {}",
            plain.policy_ms.len()
        ),
        median(&scaled(&plain.policy_ms)),
        "ms",
    ));
    x.push((
        "folders stored (a grant re-seals folders x subjects)".into(),
        FOLDERS as f64,
        "count",
    ));

    if opts.trace {
        let mut m = layers::common(&spans, c, "stream", "card");
        let overhead: Vec<f64> = traced
            .views
            .iter()
            .filter_map(|(k, v)| {
                plain
                    .views
                    .get(k)
                    .map(|p| median(&scaled(v)) / median(&scaled(p)))
            })
            .chain([
                median(&scaled(&traced.publish_ms)) / median(&scaled(&plain.publish_ms)),
                median(&scaled(&traced.policy_ms)) / median(&scaled(&plain.policy_ms)),
            ])
            .collect();
        m.insert("trace.overhead_share", geomean(&overhead) - 1.0);
        out.layers = m;
        out.spans = Some(spans);
    }
    Ok(out)
}
