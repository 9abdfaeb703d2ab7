//! `broadcast`: the paper's second demo — selective dissemination of a
//! stream to subscriber cards — as an open loop at fixed rates.
//!
//! Why: it is the only workload that exercises `DisseminationChannel::
//! publish` on the trusted side, the DSP's `FanOutDisseminator::deliver`,
//! and the push-mode card path (`Terminal::evaluate_local`), and the only
//! open-loop one: items are due on a fixed schedule whatever the system
//! does, so a stall delays every later item. Each item is timed from its
//! due time to the last subscriber's filtered view. Three subscriber
//! terminals filter every item: parental control (open world, blocks items
//! rated above 12), a finance-channel subscription and a sports-channel
//! subscription without payloads.

use std::time::{Duration, Instant};

use sdds::core::engine::{evaluate_secure_document, EngineConfig};
use sdds::core::evaluator::EvaluatorConfig;
use sdds::dsp::service::fanout::SubscriberId;
use sdds::dsp::FanOutDisseminator;
use sdds::xml::generator::{self, GeneratorConfig, StreamProfile};
use sdds::xml::NodeId;
use sdds::{DisseminationChannel, Document, Publisher, RuleSet, Terminal};

use crate::common::{self, add_count, Counts, Opts, Outcome, Reader};
use crate::host::{Host, CALIBRATE_EVERY_S};
use crate::layers;
use crate::stats::{median, percentile};
use crate::trace::{Spans, NO_PARENT};

/// Broadcast rates of the ladder, items per second.
const RATES: [f64; 4] = [1000.0, 2000.0, 4000.0, 8000.0];
/// The rate the end-to-end item latency is reported at.
const REFERENCE_RATE: f64 = 1000.0;
const CATALOG_ITEMS: usize = 64;
/// Items per broadcast epoch (four passes over the catalog).
const EPOCH_ITEMS: u64 = 256;

fn rules() -> RuleSet {
    RuleSet::parse(
        "-, kid, //item[rating > 12]\n\
         +, trader, //item[@channel = \"finance\"]\n\
         +, fan, //item[@channel = \"sports\"]\n\
         -, fan, //item/payload",
    )
    .expect("static rule set parses")
}

struct State {
    publisher: Publisher,
    subscribers: Vec<Reader>,
    terminals: Vec<Terminal>,
    channel: DisseminationChannel,
    fanout: FanOutDisseminator,
    ids: Vec<SubscriberId>,
    catalog: Document,
    items: Vec<NodeId>,
    /// `oracles[item][subscriber]`.
    oracles: Vec<Vec<String>>,
}

fn setup(seed: u64) -> Result<State, String> {
    let catalog = generator::stream(
        &StreamProfile {
            items: CATALOG_ITEMS,
            ..StreamProfile::default()
        },
        &GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        },
    );
    let items: Vec<NodeId> = catalog
        .root()
        .map(|root| catalog.element_children(root).collect())
        .unwrap_or_default();
    let publisher = Publisher::builder(b"sdds-bench-broadcast")
        .rules(rules())
        .build()
        .map_err(|e| e.to_string())?;
    let subscribers = vec![
        Reader::provision(&publisher, "kid", "kid", None, true)?,
        Reader::provision(&publisher, "trader", "trader", None, false)?,
        Reader::provision(&publisher, "fan", "fan", None, false)?,
    ];
    let terminals = subscribers
        .iter()
        .map(|s| s.client.terminal_with_rules().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let channel = DisseminationChannel::new("broadcast", publisher.server().document_key());
    let mut fanout = FanOutDisseminator::new("broadcast");
    let ids = subscribers
        .iter()
        .map(|s| fanout.subscribe(s.subject.clone()))
        .collect();
    Ok(State {
        publisher,
        subscribers,
        terminals,
        channel,
        fanout,
        ids,
        catalog,
        items,
        oracles: Vec::new(),
    })
}

fn oracles(state: &State) -> Result<Vec<Vec<String>>, String> {
    let rules = rules();
    state
        .items
        .iter()
        .map(|&node| {
            let item = Document::from_events(&state.catalog.subtree_events(node))
                .map_err(|e| e.to_string())?;
            state
                .subscribers
                .iter()
                .map(|s| s.oracle(&item, &rules))
                .collect()
        })
        .collect()
}

/// One broadcast item: publish, fan out, and let every subscriber's card
/// filter it. Returns the busy time in ms; with `spans`, each call is timed.
fn deliver(
    state: &mut State,
    seq: u64,
    spans: Option<&mut Spans>,
    counts: &mut Counts,
    tally: &mut common::Tally,
) -> f64 {
    let start = Instant::now();
    let item_index = (seq as usize) % state.items.len();
    let node = state.items[item_index];
    let mut views = Vec::with_capacity(state.ids.len());
    let mut ledgers = Vec::with_capacity(state.ids.len());
    match spans {
        None => {
            let item = state.channel.publish(&state.catalog, node);
            state.fanout.deliver(item);
            for (s, &id) in state.ids.iter().enumerate() {
                for it in state.fanout.drain(id) {
                    views.push((s, state.terminals[s].evaluate_local(&it.document)));
                    ledgers.push(state.terminals[s].card_ledger().clone());
                }
            }
        }
        Some(spans) => {
            spans.set_view(seq);
            let root = spans.open("view.item", NO_PARENT);
            let item = spans.time("proxy.publish_item", root, || {
                state.channel.publish(&state.catalog, node)
            });
            spans.time("dsp.fanout.deliver", root, || state.fanout.deliver(item));
            for (s, &id) in state.ids.iter().enumerate() {
                for it in state.fanout.drain(id) {
                    let terminal = &mut state.terminals[s];
                    let view = spans.time("proxy.evaluate_local", root, || {
                        terminal.evaluate_local(&it.document)
                    });
                    views.push((s, view));
                    ledgers.push(terminal.card_ledger().clone());
                }
            }
            spans.close(root);
        }
    }
    let busy_ms = start.elapsed().as_secs_f64() * 1e3;
    if views.len() != state.ids.len() {
        tally.record::<()>(
            "fan-out",
            Err(format!(
                "{} views for {} subscribers",
                views.len(),
                state.ids.len()
            )),
        );
    }
    // The card resets its ledger when a session opens, so after
    // `evaluate_local` it holds exactly that item's session.
    for ((s, view), ledger) in views.into_iter().zip(ledgers) {
        let result = view
            .map_err(|e| e.to_string())
            .and_then(|v| common::check_view(&v, &state.oracles[item_index][s]));
        if tally.record("item view", result).is_some() {
            for (key, value) in [
                ("views", 1),
                ("bytes_to_soe", ledger.channel.bytes_to_card),
                ("bytes_from_soe", ledger.channel.bytes_from_card),
                ("apdus", ledger.channel.apdu_exchanges),
                ("bytes_hashed", ledger.bytes_hashed),
                ("bytes_decrypted", ledger.bytes_decrypted),
                ("bytes_skipped", ledger.bytes_skipped),
                ("events", ledger.events_processed),
            ] {
                add_count(counts, format!("card.{key}"), value as u64);
            }
        }
    }
    busy_ms
}

/// Busy-waits until `due` — a sleeping generator wakes up late by a
/// scheduler tick now and then, which would show as item latency — and
/// times the host kernel in gaps long enough for it.
fn wait_until(due: Instant, host: &mut Host) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > Duration::from_micros(700) {
            host.calibrate_every(CALIBRATE_EVERY_S);
        }
        std::hint::spin_loop();
    }
}

/// SOE secure-RAM high-water mark over the catalog, read off the in-process
/// engine with each subscriber's card budget: the card closes its SOE
/// session before its statistics can be read.
fn soe_peak(state: &State, tally: &mut common::Tally) -> u64 {
    let mut peak = 0u64;
    let rules = state.publisher.rules().clone();
    for item in state.channel.published().iter().take(state.items.len()) {
        for s in &state.subscribers {
            let config = EngineConfig::new(
                EvaluatorConfig::new(rules.clone(), s.subject.clone()).with_policy(s.policy()),
            )
            .with_ram_budget(s.ram_bytes);
            let stats = evaluate_secure_document(&item.document, state.channel.key(), config)
                .map(|(_, stats)| stats)
                .map_err(|e| e.to_string());
            if let Some(stats) = tally.record("soe pass", stats) {
                peak = peak.max(stats.peak_ram_bytes as u64);
            }
        }
    }
    peak
}

/// One rung of the ladder: item latencies (ms from the due time to the
/// last subscriber's view, untraced and traced items apart) as (seconds
/// since the origin, ms), and the generator's lateness (ms from the due
/// time to the start of the item).
#[derive(Default)]
struct Rung {
    latency_ms: Vec<(f64, f64)>,
    traced_ms: Vec<(f64, f64)>,
    lateness_ms: Vec<f64>,
}

/// Starts a new broadcast epoch: a fresh channel and fan-out with the same
/// subscribers. `DisseminationChannel` and `FanOutDisseminator` keep every
/// item ever sent; without epochs a run would mostly measure the growth of
/// that history, and item ids (hence header sizes) would grow with it.
fn new_epoch(state: &mut State) {
    state.channel = DisseminationChannel::new("broadcast", state.publisher.server().document_key());
    state.fanout = FanOutDisseminator::new("broadcast");
    state.ids = state
        .subscribers
        .iter()
        .map(|s| state.fanout.subscribe(s.subject.clone()))
        .collect();
}

/// The item stream across epochs: item `seq` of the current epoch, and the
/// counts of the epoch so far, which must repeat epoch after epoch.
struct Stream {
    seq: u64,
    counts: Counts,
    first_epoch: Option<Counts>,
}

impl Stream {
    fn deliver(
        &mut self,
        state: &mut State,
        spans: Option<&mut Spans>,
        tally: &mut common::Tally,
    ) -> f64 {
        if self.seq == EPOCH_ITEMS {
            match &self.first_epoch {
                None => self.first_epoch = Some(std::mem::take(&mut self.counts)),
                Some(first) if *first != self.counts => {
                    tally.record::<()>(
                        "counts",
                        Err("an epoch's counts differ from the first epoch's".into()),
                    );
                }
                Some(_) => {}
            }
            self.counts.clear();
            self.seq = 0;
            new_epoch(state);
        }
        let ms = deliver(state, self.seq, spans, &mut self.counts, tally);
        self.seq += 1;
        ms
    }
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
    let mut stream = Stream {
        seq: 0,
        counts: Counts::new(),
        first_epoch: None,
    };

    // One epoch back to back: warms up and fixes the deterministic counts.
    let mut warm_spans = Spans::new(origin);
    for _ in 0..EPOCH_ITEMS {
        stream.deliver(
            &mut state,
            opts.trace.then_some(&mut warm_spans),
            &mut out.tally,
        );
    }
    let peak = soe_peak(&state, &mut out.tally);
    out.counts = stream.counts.clone();
    add_count(&mut out.counts, "card.soe_ram_peak".into(), peak);

    // Items back to back, the host kernel timed between items: a tenth of
    // the run. Half the run goes to the reference rate, whose latencies are
    // gated; the other rungs share the rest.
    let phase = |rate: f64| {
        if rate == REFERENCE_RATE {
            opts.seconds * 0.5
        } else if rate == 0.0 {
            opts.seconds * 0.1
        } else {
            opts.seconds * 0.4 / (RATES.len() - 1) as f64
        }
    };
    let mut busy_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < phase(0.0) {
        host.calibrate_every(CALIBRATE_EVERY_S);
        let ms = stream.deliver(&mut state, None, &mut out.tally);
        busy_ms.push((host.now() - ms / 2e3, ms));
    }

    // The ladder: an open loop at each rate, items timed from their due time.
    let mut rungs: Vec<Rung> = Vec::new();
    for rate in RATES {
        let mut rung = Rung::default();
        let period = Duration::from_secs_f64(1.0 / rate);
        let n = (phase(rate) * rate).round() as u64;
        for _ in 0..3 {
            host.calibrate();
        }
        let start = Instant::now() + Duration::from_millis(2);
        for i in 0..n {
            let due = start + period * i as u32;
            wait_until(due, &mut host);
            let late = due.elapsed().as_secs_f64() * 1e3;
            let trace_this = opts.trace && i % 2 == 1;
            let ms = stream.deliver(&mut state, trace_this.then_some(&mut spans), &mut out.tally);
            let t = host.now();
            if !trace_this && rate == REFERENCE_RATE {
                busy_ms.push((t - ms / 2e3, ms));
            }
            let latency = (t, due.elapsed().as_secs_f64() * 1e3);
            rung.lateness_ms.push(late);
            if trace_this {
                rung.traced_ms.push(latency);
            } else {
                rung.latency_ms.push(latency);
            }
        }
        rungs.push(rung);
    }

    // The first epoch again, on a second set-up, traced the other way round.
    let mut replayed = Counts::new();
    for s in 0..EPOCH_ITEMS {
        deliver(
            &mut replay_state,
            s,
            (!opts.trace).then_some(&mut Spans::new(origin)),
            &mut replayed,
            &mut out.tally,
        );
    }
    add_count(
        &mut replayed,
        "card.soe_ram_peak".into(),
        soe_peak(&replay_state, &mut out.tally),
    );
    if replayed != out.counts {
        out.tally.record::<()>(
            "determinism",
            Err("traced and untraced epochs of one seed give different counts".into()),
        );
    }

    // Capacity counts the service time of the items sent back to back and
    // at the reference rate: the phases with room for kernel timings.
    let busy_views = busy_ms.len() * state.ids.len();
    let reference = RATES
        .iter()
        .position(|&r| r == REFERENCE_RATE)
        .map(|i| &rungs[i])
        .ok_or("reference rate not on the ladder")?;
    let c = &out.counts;
    let raw = |v: &[(f64, f64)]| v.iter().map(|&(_, ms)| ms).collect::<Vec<f64>>();
    let latency = raw(&reference.latency_ms);
    out.e2e.insert(
        "view_ms_p50",
        median(&host.rescale_all(&reference.latency_ms)),
    );
    out.e2e.insert("view_ms_p90", percentile(&latency, 0.9));
    out.e2e.insert(
        "views_per_s",
        busy_views as f64 / (host.rescale_all(&busy_ms).iter().sum::<f64>() / 1e3),
    );
    out.e2e.insert(
        "card_bytes_per_view",
        common::per(c, "card.bytes_to_soe", "card.views"),
    );
    out.e2e.insert("soe_peak_ram_bytes", peak as f64);
    out.e2e.insert("setup_s", built.setup_s);
    let x = &mut out.extra;
    x.push((
        "raw view_ms_p50 (wall clock)".into(),
        median(&latency),
        "ms",
    ));
    x.push((
        "raw views_per_s (wall clock)".into(),
        busy_views as f64 / (raw(&busy_ms).iter().sum::<f64>() / 1e3),
        "views/s",
    ));
    x.push(("raw setup_s (wall clock)".into(), built.raw_setup_s, "s"));
    x.push(("host kernel median".into(), host.median_kernel_ms(), "ms"));

    // The ladder, in raw wall time: whether the system keeps up with a
    // rate is a property of the host it runs on.
    let mut sustained = 0.0;
    for (rate, rung) in RATES.iter().zip(&rungs) {
        let period_ms = 1e3 / rate;
        let latency = raw(&rung.latency_ms);
        let p99 = percentile(&latency, 0.99);
        let tail_late = rung
            .lateness_ms
            .iter()
            .rev()
            .take(10)
            .fold(0.0f64, |m, &v| m.max(v));
        if p99 < period_ms && tail_late < period_ms {
            sustained = *rate;
        }
        x.push((
            format!("rate {rate} items/s: item_ms_p50 of {}", latency.len()),
            median(&latency),
            "ms",
        ));
        x.push((format!("rate {rate} items/s: item_ms_p99"), p99, "ms"));
        x.push((
            format!("rate {rate} items/s: generator lateness p50"),
            median(&rung.lateness_ms),
            "ms",
        ));
        x.push((
            format!("rate {rate} items/s: generator lateness max"),
            rung.lateness_ms.iter().fold(0.0f64, |m, &v| m.max(v)),
            "ms",
        ));
    }
    x.push((
        "items_per_s (highest rate with p99 under one period, no backlog)".into(),
        sustained,
        "items/s",
    ));
    x.push(("subscribers".into(), state.ids.len() as f64, "count"));

    if opts.trace {
        let mut m = layers::common(&spans, c, "card", "card");
        m.insert(
            "trace.overhead_share",
            median(&raw(&reference.traced_ms)) / median(&latency) - 1.0,
        );
        out.layers = m;
        out.spans = Some(spans);
    }
    Ok(out)
}
