//! One end-to-end benchmark for the batch fleet-day and the live wire.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch-fleet-days|live-ingest|operator-queries> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload untraced and reports the
//! end-to-end metrics. `--trace 1` is the separate traced run: it times
//! calls into every layer's public functions from this crate (all three
//! workloads' layers, each on its own seeded inputs, so every per-layer
//! metric is present), writes the spans to
//! `.e2ebench_out/spans-<workload>-<seed>.jsonl`, and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object. The process exits 1 when a
//! correctness check fails and 2 on bad arguments.

mod batch;
mod fixture;
mod live;
mod queries;
mod report;
mod schedule;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{EndToEnd, Metric, Tally};
use trace::Trace;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["batch-fleet-days", "live-ingest", "operator-queries"];

/// Per-layer metrics of the traced run, in report order, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("cloudbot.collect_ms", "ms"),
    ("cloudbot.collect_records", "count"),
    ("cloudbot.extract_ms", "ms"),
    ("cloudbot.extract_events", "count"),
    ("cdi-core.derive_ms", "ms"),
    ("cdi-core.spans", "count"),
    ("cdi-core.quarantined", "count"),
    ("cloudbot.propagate_ms", "ms"),
    ("cdi-core.algo1_ms", "ms"),
    ("daily_job.total_ms", "ms"),
    ("daily_job.dataflow_ms", "ms"),
    ("minispark.retries", "count"),
    ("minispark.failed_tasks", "count"),
    ("minispark.rows_cloned", "count"),
    ("minispark.bi_ms", "ms"),
    ("batch.trace_overhead_ms", "ms"),
    ("cdipack.encode_us", "us"),
    ("cdipack.bytes_per_span", "B"),
    ("cdi-serve.ingest_batch_us", "us"),
    ("cdi-serve.advance_us", "us"),
    ("outage-diag.observe_us", "us"),
    ("outage-diag.active_outages", "count"),
    ("outage-diag.errors", "count"),
    ("wire.ingest_rtt_us", "us"),
    ("wire.advance_rtt_us", "us"),
    ("wire.ingest_self_us", "us"),
    ("cdi-serve.shed", "count"),
    ("cdi-serve.late_dropped", "count"),
    ("cdi-serve.late_clipped", "count"),
    ("cdi-serve.rejected", "count"),
    ("cdi-serve.queue_hwm", "count"),
    ("live.gen_late_ms", "ms"),
    ("live.trace_overhead_ms", "ms"),
    ("cdi-serve.point_us", "us"),
    ("cdi-serve.top_k_us", "us"),
    ("cdi-serve.rollup_us", "us"),
    ("outage-diag.active_us", "us"),
    ("proto.json_us", "us"),
    ("wire.point_rtt_us", "us"),
    ("wire.top_k_rtt_us", "us"),
    ("wire.rollup_rtt_us", "us"),
    ("wire.diagnose_rtt_us", "us"),
    ("wire.query_self_us", "us"),
    ("queries.trace_overhead_ms", "ms"),
];

/// End-to-end metrics, with units. Each workload fills every one; its
/// human-readable lines give the workload-specific name (for example
/// `latency_p50_ms` on `operator-queries` is `query_p50_us` / 1000).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Process high-water resident set size, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(args: &Args) -> (Vec<Metric>, Tally, Vec<String>) {
    let r: EndToEnd = match args.workload.as_str() {
        "batch-fleet-days" => batch::run(args.seed, args.seconds),
        "live-ingest" => live::run(args.seed, args.seconds),
        _ => queries::run(args.seed, args.seconds),
    };
    let (tail_p, tail) = r
        .latency_ms
        .tail(stats::TAIL_CAP)
        .unwrap_or((f64::NAN, f64::NAN));
    let values = [
        r.setup_s,
        peak_rss_mb(),
        r.throughput,
        r.latency_ms.p50().unwrap_or(f64::NAN),
        tail,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let mut lines = r.lines;
    lines.push(format!(
        "latency_tail_ms is p{:.2} of {} samples (p90 needs 100)",
        tail_p * 100.0,
        r.latency_ms.len()
    ));
    (metrics, r.tally, lines)
}

fn traced(args: &Args) -> (Vec<Metric>, Tally, Vec<String>) {
    let third = args.seconds / 3.0;
    let mut tr = Trace::new();
    let mut tally = Tally::default();
    let mut got = Vec::new();
    for (metrics, t) in [
        batch::trace(args.seed, third, &mut tr),
        live::trace(args.seed, third, &mut tr),
        queries::trace(args.seed, third, &mut tr),
    ] {
        got.extend(metrics);
        tally.merge(t);
    }
    let mut lines = vec!["self time by layer (spans, total ms, self ms):".to_string()];
    for (name, l) in tr.by_layer() {
        lines.push(format!(
            "  {name}: {} spans, {:.3} ms, {:.3} ms",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        ));
    }
    let path =
        PathBuf::from(".e2ebench_out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => lines.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => lines.push(format!("could not write spans to {}: {e}", path.display())),
    }
    // Report in the declared order; every declared metric exactly once.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = got.iter().find(|m| m.name == name).unwrap_or_else(|| {
                panic!("traced run did not produce {name}");
            });
            assert_eq!(m.unit, unit, "unit of {name}");
            m.clone()
        })
        .collect();
    assert_eq!(got.len(), PER_LAYER.len(), "undeclared metrics");
    (metrics, tally, lines)
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (metrics, tally, lines) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for line in &lines {
        println!("{line}");
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ratio ({} failed of {} attempted, {} correctness mismatches)",
        tally.failed, tally.attempted, tally.mismatches
    );
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: {} was not measured ({})", bad.name, bad.value);
        return ExitCode::from(1);
    }
    let correct = tally.mismatches == 0 && tally.attempted > 0;
    println!("{}", json_line(correct, tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: correctness check failed");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Benchmark {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn pairs(d: Vec<Declared>) -> Vec<(String, String)> {
        d.into_iter().map(|m| (m.name, m.unit)).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let b: Benchmark = serde_json::from_str(&text).expect("valid BENCHMARK.json");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(b.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(b.per_layer), own(PER_LAYER));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload live-ingest --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload live-ingest --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload live-ingest --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload live-ingest --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&a("--workload live-ingest --seconds 10")).is_err());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let m = [Metric {
            name: "setup_s",
            value: 0.8127,
            unit: "s",
        }];
        let t = Tally {
            attempted: 10,
            failed: 0,
            mismatches: 0,
        };
        assert_eq!(
            json_line(true, t, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
