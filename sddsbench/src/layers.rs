//! Per-layer metrics from the spans and counts of a traced run.

use std::collections::BTreeMap;

use crate::common::{per, Counts};
use crate::trace::{Spans, Totals};

/// Per-layer metric names and units, in the order they are printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("facade.connect_us", "us"),
    ("facade.open_stream_us", "us"),
    ("dsp.fetch_chunk_us", "us"),
    ("dsp.fetch_chunk_calls_per_view", "count"),
    ("dsp.fetch_header_us", "us"),
    ("dsp.fetch_rules_us", "us"),
    ("dsp.put_document_ms", "ms"),
    ("dsp.put_rules_us", "us"),
    ("dsp.sched.wait_share", "ratio"),
    ("dsp.sched.steps_per_view", "count"),
    ("dsp.fanout.deliver_us", "us"),
    ("proxy.step_us", "us"),
    ("proxy.evaluate_local_us", "us"),
    ("proxy.publish_item_us", "us"),
    ("card.apdus_per_view", "count"),
    ("card.batches_per_view", "count"),
    ("card.bytes_from_card_per_view", "B"),
    ("card.framing_ms_per_view", "ms"),
    ("core.session_open_us", "us"),
    ("core.supply_ms_per_view", "ms"),
    ("core.decode_eval_ms_per_view", "ms"),
    ("core.finish_us", "us"),
    ("core.chunks_fetched_per_view", "count"),
    ("core.chunks_skipped_per_view", "count"),
    ("core.skip_share", "ratio"),
    ("core.events_per_view", "count"),
    ("core.rules_open_us", "us"),
    ("core.rules_seal_us", "us"),
    ("core.secdoc_build_ms", "ms"),
    ("core.skipindex_encode_ms", "ms"),
    ("crypto.verify_ms_per_view", "ms"),
    ("crypto.decrypt_ms_per_view", "ms"),
    ("crypto.proof_bytes_per_view", "B"),
    ("crypto.hashed_bytes_per_view", "B"),
    ("xml.write_us_per_view", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The metrics every workload derives the same way: timed calls from the
/// spans, per-view counts from `counts`. `soe` names the
/// count prefix of the SOE sessions the core and crypto counts come from,
/// `card` the prefix of card-path sessions.
pub fn common(
    spans: &Spans,
    counts: &Counts,
    soe: &str,
    card: &str,
) -> BTreeMap<&'static str, f64> {
    let t = spans.by_name();
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let stream_views = get("view.stream").calls.max(1) as f64;
    let ns_per_view = |name: &str| get(name).total_ns as f64 / stream_views;
    let supply = get("core.supply").self_ns as f64 / stream_views;
    let verify = ns_per_view("crypto.verify");
    let decrypt = ns_per_view("crypto.decrypt");
    let c = |key: &str| format!("{soe}.{key}");
    let k = |key: &str| format!("{card}.{key}");
    let skipped = counts.get(&c("bytes_skipped")).copied().unwrap_or(0) as f64;
    let decrypted = counts.get(&c("bytes_decrypted")).copied().unwrap_or(0) as f64;
    let proof_bytes = counts.get(&c("bytes_to_soe")).copied().unwrap_or(0) as f64
        - counts.get(&c("bytes_hashed")).copied().unwrap_or(0) as f64;
    let soe_views = counts.get(&c("views")).copied().unwrap_or(0).max(1) as f64;

    let mut m = BTreeMap::new();
    m.insert("facade.connect_us", get("facade.connect").mean_total_us());
    m.insert(
        "facade.open_stream_us",
        get("facade.open_stream").mean_total_us(),
    );
    m.insert("dsp.fetch_chunk_us", get("dsp.fetch_chunk").mean_self_us());
    m.insert(
        "dsp.fetch_chunk_calls_per_view",
        per(counts, &c("chunks_fetched"), &c("views")),
    );
    m.insert(
        "dsp.fetch_header_us",
        get("dsp.fetch_header").mean_self_us(),
    );
    m.insert("dsp.fetch_rules_us", get("dsp.fetch_rules").mean_self_us());
    m.insert(
        "dsp.put_document_ms",
        get("dsp.put_document").mean_self_us() / 1e3,
    );
    m.insert("dsp.put_rules_us", get("dsp.put_rules").mean_self_us());
    m.insert(
        "dsp.fanout.deliver_us",
        get("dsp.fanout.deliver").mean_self_us(),
    );
    m.insert("proxy.step_us", get("proxy.step").mean_total_us());
    m.insert(
        "proxy.evaluate_local_us",
        get("proxy.evaluate_local").mean_self_us(),
    );
    m.insert(
        "proxy.publish_item_us",
        get("proxy.publish_item").mean_self_us(),
    );
    m.insert("card.apdus_per_view", per(counts, &k("apdus"), &k("views")));
    m.insert(
        "card.batches_per_view",
        per(counts, &k("batches"), &k("views")),
    );
    m.insert(
        "card.bytes_from_card_per_view",
        per(counts, &k("bytes_from_soe"), &k("views")),
    );
    m.insert(
        "core.session_open_us",
        get("core.session_open").mean_self_us(),
    );
    m.insert("core.supply_ms_per_view", supply / 1e6);
    m.insert(
        "core.decode_eval_ms_per_view",
        (supply - verify - decrypt) / 1e6,
    );
    m.insert("core.finish_us", get("core.finish").mean_self_us());
    m.insert(
        "core.chunks_fetched_per_view",
        per(counts, &c("chunks_fetched"), &c("views")),
    );
    m.insert(
        "core.chunks_skipped_per_view",
        per(counts, &c("chunks_skipped"), &c("views")),
    );
    m.insert(
        "core.skip_share",
        if skipped + decrypted > 0.0 {
            skipped / (skipped + decrypted)
        } else {
            0.0
        },
    );
    m.insert(
        "core.events_per_view",
        per(counts, &c("events"), &c("views")),
    );
    m.insert("core.rules_open_us", get("core.rules_open").mean_self_us());
    m.insert("core.rules_seal_us", get("core.rules_seal").mean_self_us());
    m.insert(
        "core.secdoc_build_ms",
        get("core.secdoc_build").mean_self_us() / 1e3,
    );
    m.insert(
        "core.skipindex_encode_ms",
        get("core.skipindex_encode").mean_self_us() / 1e3,
    );
    m.insert("crypto.verify_ms_per_view", verify / 1e6);
    m.insert("crypto.decrypt_ms_per_view", decrypt / 1e6);
    m.insert("crypto.proof_bytes_per_view", proof_bytes / soe_views);
    m.insert(
        "crypto.hashed_bytes_per_view",
        per(counts, &c("bytes_hashed"), &c("views")),
    );
    m.insert("xml.write_us_per_view", ns_per_view("xml.write") / 1e3);
    m.insert("trace.unattributed_share", unattributed(&t));
    m
}

/// Share of the traced views' time that no layer span covers: the self
/// time of the view roots and of the steps that only group layer calls.
fn unattributed(t: &BTreeMap<&'static str, Totals>) -> f64 {
    let roots: Vec<&Totals> = t
        .iter()
        .filter(|(name, _)| name.starts_with("view."))
        .map(|(_, totals)| totals)
        .collect();
    let total: u64 = roots.iter().map(|r| r.total_ns).sum();
    let glue: u64 = roots.iter().map(|r| r.self_ns).sum::<u64>()
        + t.get("stream.step").map_or(0, |s| s.self_ns);
    if total == 0 {
        0.0
    } else {
        glue as f64 / total as f64
    }
}
