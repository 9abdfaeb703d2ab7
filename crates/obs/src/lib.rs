#![forbid(unsafe_code)]
//! `sdds-obs` — workspace telemetry with no dependencies beyond `sdds-sync`.
//!
//! Three pieces, composed bottom-up:
//!
//! 1. **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!    recording is wait-free relaxed atomics behind cheap `Arc` handles;
//!    the registry produces one mergeable [`ObsSnapshot`] renderable as
//!    JSON or Prometheus-style text.
//! 2. **Spans** ([`Span`], the [`span!`] macro) — scoped timers on a
//!    pluggable [`Clock`] (real [`WallClock`] or deterministic
//!    [`ManualClock`]).
//! 3. **Flight recorder** ([`FlightRecorder`]) — bounded per-lane rings of
//!    recent spans, overwrite-oldest, zero allocation on the hot path,
//!    dumpable as JSON for post-mortems.
//!
//! Everything synchronizes through `sdds-sync`, so the same sources run on
//! the `sdds-check` shims under `--cfg sdds_check` and the model checker
//! can explore recorder interleavings.
//!
//! ```
//! use sdds_obs::{families, FlightRecorder, Registry};
//!
//! let registry = Registry::new();
//! let served = registry.counter(families::SERVE_REQUESTS);
//! let latency = registry.histogram(families::SERVE_LATENCY);
//! let recorder = FlightRecorder::new(2, 64);
//!
//! let span = sdds_obs::span!(recorder, 0, "fetch_chunk");
//! served.inc();
//! latency.record(span.finish());
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter(families::SERVE_REQUESTS), 1);
//! assert!(snapshot.to_json().contains("dsp.serve.requests"));
//! ```

pub mod families;
mod metrics;
mod recorder;

pub use metrics::{
    bucket_index, bucket_upper_bound, json_escape, Counter, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricKey, ObsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use recorder::{Clock, FlightRecord, FlightRecorder, ManualClock, Span, WallClock};

/// Opens a scoped span on a [`FlightRecorder`]: `span!(recorder, "label")`
/// records on lane 0, `span!(recorder, lane, "label")` on a chosen lane.
/// The span closes (and writes its [`FlightRecord`]) on drop, or explicitly
/// via [`Span::finish`], which also returns the duration.
#[macro_export]
macro_rules! span {
    ($recorder:expr, $label:expr) => {
        $recorder.span(0, $label)
    };
    ($recorder:expr, $lane:expr, $label:expr) => {
        $recorder.span($lane, $label)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A gauge family for the registry tests (no production family is a
    /// gauge).
    const QUEUE_DEPTH: &str = "test.queue_depth";

    fn prop_cases() -> u64 {
        std::env::var("SDDS_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32)
    }

    /// Deterministic xorshift64* generator for seeded property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn counters_add_and_reset() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 43, "clones share the cell");
        c.reset();
        assert_eq!(shared.get(), 0);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new();
        g.set(3);
        g.set(17);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.peak(), 17);
        g.reset();
        assert_eq!((g.get(), g.peak()), (0, 0));
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Bucket 0 holds {0, 1}; bucket i >= 1 holds [2^i, 2^(i+1)).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let upper = bucket_upper_bound(i);
            assert_eq!(bucket_index(upper), i, "upper bound stays in bucket {i}");
            assert_eq!(
                bucket_index(upper + 1),
                i + 1,
                "next value leaves bucket {i}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bound_exact_values_on_seeded_samples() {
        let cases = prop_cases();
        for case in 0..cases {
            let mut rng = Rng(0x5eed_0b50 ^ (case + 1));
            let h = Histogram::new();
            let mut samples: Vec<u64> = (0..200)
                .map(|_| {
                    // Mix magnitudes: some sub-microsecond, some multi-ms.
                    let magnitude = rng.next() % 24;
                    rng.next() % (1u64 << (magnitude + 1))
                })
                .collect();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, samples.len() as u64);
            assert_eq!(snap.sum, samples.iter().sum::<u64>());
            assert_eq!(snap.max, *samples.last().unwrap());
            for (q, p) in [(0.50, snap.p50()), (0.90, snap.p90()), (0.99, snap.p99())] {
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1];
                assert!(
                    p >= exact && p <= exact.max(1) * 2,
                    "case {case} q {q}: estimate {p} not within [{exact}, 2*{exact}]"
                );
            }
        }
    }

    #[test]
    fn histogram_snapshot_merge_is_associative_and_commutative() {
        let cases = prop_cases();
        for case in 0..cases {
            let mut rng = Rng(0xfeed ^ (case + 7));
            let parts: Vec<HistogramSnapshot> = (0..3)
                .map(|_| {
                    let h = Histogram::new();
                    for _ in 0..(rng.next() % 50) {
                        h.record(rng.next() % 100_000);
                    }
                    h.snapshot()
                })
                .collect();
            // (a + b) + c == a + (b + c) == (c + a) + b
            let mut ab_c = parts[0].clone();
            ab_c.merge(&parts[1]);
            ab_c.merge(&parts[2]);
            let mut bc = parts[1].clone();
            bc.merge(&parts[2]);
            let mut a_bc = parts[0].clone();
            a_bc.merge(&bc);
            let mut ca_b = parts[2].clone();
            ca_b.merge(&parts[0]);
            ca_b.merge(&parts[1]);
            assert_eq!(ab_c, a_bc, "case {case}: merge is not associative");
            assert_eq!(ab_c, ca_b, "case {case}: merge is not commutative");
        }
    }

    #[test]
    fn obs_snapshot_merge_is_associative() {
        let make = |base: u64| {
            let r = Registry::new();
            r.counter(families::SERVE_REQUESTS).add(base);
            r.counter_with(families::ERRORS, Some(families::ERROR_NOT_FOUND))
                .add(base / 2);
            r.gauge(QUEUE_DEPTH).set(base);
            let h = r.histogram(families::SERVE_LATENCY);
            h.record(base);
            h.record(base * 3);
            r.snapshot()
        };
        let (a, b, c) = (make(4), make(9), make(30));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.counters, right.counters);
        assert_eq!(left.gauges, right.gauges);
        assert_eq!(left.histograms, right.histograms);
        assert_eq!(left.counter(families::SERVE_REQUESTS), 43);
        assert_eq!(
            left.counter_with(families::ERRORS, families::ERROR_NOT_FOUND),
            2 + 4 + 15
        );
        assert_eq!(left.gauge(QUEUE_DEPTH).unwrap().peak, 30);
        assert_eq!(left.histogram(families::SERVE_LATENCY).unwrap().count, 6);
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter(families::SERVE_REQUESTS);
        let b = r.counter(families::SERVE_REQUESTS);
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter(families::SERVE_REQUESTS), 2);
        let labelled = r.counter_with(families::SERVE_REQUESTS, Some("shard=1"));
        labelled.inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter(families::SERVE_REQUESTS), 3);
        assert_eq!(snap.counter_with(families::SERVE_REQUESTS, "shard=1"), 1);
    }

    #[test]
    fn snapshot_renders_json_and_prometheus() {
        let r = Registry::new();
        r.counter_with(families::SERVE_REQUESTS, Some("shard=0"))
            .add(5);
        r.gauge(QUEUE_DEPTH).set(2);
        r.histogram(families::SERVE_LATENCY).record(1000);
        let snap = r.snapshot();

        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"sdds-obs-v1\""), "{json}");
        assert!(
            json.contains("\"dsp.serve.requests{shard=0}\": 5"),
            "{json}"
        );
        assert!(json.contains("\"dsp.serve.latency_ns\""), "{json}");
        assert!(json.contains("\"peak\": 2"), "{json}");

        let prom = snap.to_prometheus();
        assert!(prom.contains("dsp_serve_requests{shard=\"0\"} 5"), "{prom}");
        assert!(prom.contains("test_queue_depth 2"), "{prom}");
        assert!(
            prom.contains("dsp_serve_latency_ns{quantile=\"0.5\"}"),
            "{prom}"
        );
        assert!(prom.contains("dsp_serve_latency_ns_count 1"), "{prom}");
    }

    #[test]
    fn flight_recorder_overwrites_oldest_and_keeps_order() {
        let clock = Arc::new(ManualClock::new());
        let recorder = FlightRecorder::with_clock(1, 4, clock.clone());
        for i in 0..10u64 {
            clock.set(i * 100);
            recorder.record(0, "step", i * 100, 10);
        }
        let records = recorder.records();
        assert_eq!(records.len(), 4, "ring keeps exactly its capacity");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest records were overwritten");
        assert_eq!(recorder.recorded(), 10);
    }

    #[test]
    fn spans_record_manual_clock_durations() {
        let clock = Arc::new(ManualClock::new());
        let recorder = FlightRecorder::with_clock(2, 8, clock.clone());
        {
            let span = span!(recorder, 1, "fetch_chunk");
            clock.advance(250);
            assert_eq!(span.finish(), 250);
        }
        {
            let _span = span!(recorder, "drop_span");
            clock.advance(99);
            // Recorded on drop.
        }
        let records = recorder.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "fetch_chunk");
        assert_eq!(records[0].lane, 1);
        assert_eq!(records[0].duration_nanos, 250);
        assert_eq!(records[1].label, "drop_span");
        assert_eq!(records[1].duration_nanos, 99);
        let dump = recorder.dump_json();
        assert!(
            dump.contains("\"schema\": \"sdds-obs-flight-v1\""),
            "{dump}"
        );
        assert!(dump.contains("\"label\": \"fetch_chunk\""), "{dump}");
    }

    #[test]
    fn recorder_lane_indices_wrap_into_range() {
        let recorder = FlightRecorder::new(3, 4);
        recorder.record(7, "wrapped", 0, 1);
        let records = recorder.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].lane, 1, "lane 7 wraps to 7 % 3");
    }
}
