//! End-to-end and per-layer benchmark of the `sdds` facade.
//!
//! ```text
//! sddsbench --workload <folder-pull|fleet-pull|policy-churn|broadcast>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from the seed; the program under test receives
//! only the generated documents, rules and operations. Every view and
//! broadcast item is checked against the tree-based oracle of the current
//! policy and revision, computed before timing starts. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. The lines before it
//! print every figure by name and unit. The command exits with 1 when an
//! operation failed, a view differed from its oracle or a count did not
//! repeat.

mod broadcast;
mod common;
mod fleet_pull;
mod folder_pull;
mod host;
mod layers;
mod mirror;
mod policy_churn;
mod stats;
mod trace;

use common::{Opts, Outcome};

/// End-to-end metric names and units; every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("view_ms_p50", "ms"),
    ("view_ms_p90", "ms"),
    ("views_per_s", "views/s"),
    ("card_bytes_per_view", "B"),
    ("soe_peak_ram_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

const USAGE: &str = "usage: sddsbench --workload <folder-pull|fleet-pull|policy-churn|broadcast> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "folder-pull" => folder_pull::run(opts),
        "fleet-pull" => fleet_pull::run(opts),
        "policy-churn" => policy_churn::run(opts),
        "broadcast" => broadcast::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sddsbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    outcome.e2e.insert("peak_rss_mb", common::peak_rss_mb());

    let t = &outcome.tally;
    println!(
        "# workload {} seed {} seconds {} trace {} (threads available: {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        common::nproc()
    );
    for e in &t.errors {
        println!("error: {e}");
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.extra {
        println!("{name:<56} {value:>14.4} {unit}");
    }
    println!(
        "{:<56} {:>14.6} ratio",
        "error_share",
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for (name, unit) in END_TO_END {
        let v = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<56} {v:>14.4} {unit}");
    }
    if opts.trace {
        for (name, unit) in layers::PER_LAYER {
            let v = outcome.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<56} {v:>14.4} {unit}");
        }
    }
    for (k, v) in &outcome.counts {
        println!("count {k} {v}");
    }
    if let Some(spans) = &outcome.spans {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.tsv", opts.workload, opts.seed));
        match spans.write_tsv(&path) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }

    let metrics: Vec<String> = if opts.trace {
        layers::PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = outcome.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect()
    };
    let complete = if opts.trace {
        true
    } else {
        END_TO_END.iter().all(|(name, _)| {
            outcome
                .e2e
                .get(name)
                .is_some_and(|v| v.is_finite() && *v > 0.0)
        })
    };
    let correct = t.failed == 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
