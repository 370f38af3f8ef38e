//! `batch-fleet-days`: `daily_job::run` over consecutive fleet-days of the
//! 1 536-VM fleet at 5-minute sampling. It loads collection, extraction,
//! derivation and weighting, NC→VM propagation, Algorithm 1 and the
//! minispark dataflow; it never touches the wire.

use std::time::{Duration, Instant};

use cdi_core::indicator::{compute_vm_cdi, ServicePeriod, VmCdi};
use cdi_repro::daily_job;
use cloudbot::pipeline::DailyPipeline;
use minispark::bi::{Aggregate, Query};
use simfleet::scenario::DAY;
use simfleet::SimWorld;

use crate::fixture;
use crate::report::{med, repeated_setup, EndToEnd, Metric, Tally};
use crate::stats::Samples;
use crate::trace::Trace;

/// Fleet-days of faults the world carries; the day loop wraps around it.
const HORIZON_DAYS: usize = 365;
/// Every `CHECK_EVERY`-th measured day is checked against the serial
/// pipeline (the check costs about two fleet-days).
const CHECK_EVERY: usize = 8;
/// `daily_job`'s own parity tolerance against the serial pipeline.
const ROW_TOL: f64 = 1e-12;

struct Setup {
    world: SimWorld,
    pipeline: DailyPipeline,
}

/// World build plus one warm-up fleet-day (day 0, never measured), which
/// pages in the world and the allocator.
fn setup(seed: u64) -> Setup {
    let s = Setup {
        world: fixture::batch_world(seed, HORIZON_DAYS),
        pipeline: fixture::pipeline(),
    };
    let _ = run_day(&s, 0, &mut Tally::default());
    s
}

fn window(day: usize) -> (i64, i64) {
    let d = (day % HORIZON_DAYS) as i64;
    (d * DAY, (d + 1) * DAY)
}

fn rows_match(a: &[VmCdi], b: &[VmCdi]) -> u64 {
    if a.len() != b.len() {
        return a.len().max(b.len()) as u64;
    }
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            x.vm != y.vm
                || x.service_time != y.service_time
                || (x.unavailability - y.unavailability).abs() > ROW_TOL
                || (x.performance - y.performance).abs() > ROW_TOL
                || (x.control_plane - y.control_plane).abs() > ROW_TOL
        })
        .count() as u64
}

fn run_day(s: &Setup, day: usize, tally: &mut Tally) -> daily_job::DailyJobOutput {
    let (start, end) = window(day);
    let job = daily_job::run(
        &s.world,
        &s.pipeline,
        day as i64,
        start,
        end,
        fixture::job_config(),
    )
    .expect("daily job over a clean fleet-day");
    tally.ops(1, job.report.quarantined as u64 + job.report.failed_tasks);
    job
}

/// `daily_job` rows must equal `DailyPipeline::vm_cdi_rows_report` rows
/// within 1e-12; the day's extracted events count as attempts.
fn check_day(s: &Setup, day: usize, job: &daily_job::DailyJobOutput, tally: &mut Tally) {
    let (start, end) = window(day);
    let events = s.pipeline.events(&s.world, start, end);
    let (rows, quarantined, _) = s
        .pipeline
        .vm_cdi_rows_report(&s.world, start, end)
        .expect("serial pipeline over a clean fleet-day");
    tally.ops(events.len() as u64, quarantined.len() as u64);
    let bad = rows_match(&job.rows, &rows);
    tally.ops(rows.len() as u64, bad);
    tally.mismatches += bad;
}

/// Measure fleet-days for `seconds`, untraced.
pub fn run(seed: u64, seconds: f64) -> EndToEnd {
    let (s, setup_s) = repeated_setup(|| setup(seed));
    let vms = s.world.fleet.vms().len();
    let mut tally = Tally::default();

    let mut latency = Samples::default();
    let mut busy = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut day = 1;
    while t0.elapsed() < budget {
        let t = Instant::now();
        let job = run_day(&s, day, &mut tally);
        let dt = t.elapsed();
        busy += dt;
        latency.push(dt.as_secs_f64() * 1e3);
        if day % CHECK_EVERY == 1 {
            check_day(&s, day, &job, &mut tally);
        }
        day += 1;
    }
    let days = latency.len();
    let throughput = (days * vms) as f64 / busy.as_secs_f64();
    let lines = vec![
        format!("batch_vm_days_per_s = {throughput:.3} VM-days/s ({days} fleet-days x {vms} VMs)"),
        format!(
            "fleet_day_p50_ms = {:.3} ms",
            latency.p50().unwrap_or(f64::NAN)
        ),
    ];
    EndToEnd {
        setup_s,
        throughput,
        latency_ms: latency,
        tally,
        lines,
    }
}

/// The traced pass: each layer's public call timed around the same
/// fleet-day inputs, then `daily_job` itself and the Formula 4 BI queries.
pub fn trace(seed: u64, seconds: f64, tr: &mut Trace) -> (Vec<Metric>, Tally) {
    let s = setup(seed);
    let mut tally = Tally::default();

    // Even days run untraced as the reference for the tracing overhead;
    // odd days run every layer call under spans. Interleaving keeps both
    // halves on the same stretch of the fault calendar.
    let mut untraced = Vec::new();
    let mut m: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut put = |k: &'static str, v: f64| m.entry(k).or_default().push(v);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut retries, mut failed_tasks) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut day = 1;
    while t0.elapsed() < budget || untraced.is_empty() {
        if day % 2 == 0 {
            let t = Instant::now();
            let _ = run_day(&s, day, &mut tally);
            untraced.push(ms(t.elapsed()));
            day += 1;
            continue;
        }
        let (start, end) = window(day);
        let req = day as u64;
        let root = tr.open("batch.fleet_day", req, None);
        let p = &s.pipeline;
        let w = &s.world;

        let t = Instant::now();
        let data = tr.time("cloudbot.collect", req, Some(root), || {
            p.collector.collect(w, start, end)
        });
        let collect = t.elapsed();
        put("cloudbot.collect_records", data.metrics.len() as f64);
        let t = Instant::now();
        let events = tr.time("cloudbot.extract", req, Some(root), || {
            p.extractor.extract(&data)
        });
        let extract = t.elapsed();
        drop(data);
        put("cloudbot.extract_events", events.len() as f64);

        let t = Instant::now();
        let (by_target, quarantined) = tr.time("cdi-core.derive", req, Some(root), || {
            p.spans_by_target_lenient(&events, end)
        });
        put("cdi-core.derive_ms", ms(t.elapsed()));
        put(
            "cdi-core.spans",
            by_target.values().map(Vec::len).sum::<usize>() as f64,
        );
        put("cdi-core.quarantined", quarantined.len() as f64);
        tally.ops(events.len() as u64, quarantined.len() as u64);

        // Propagation has no public entry of its own: it is `vm_spans`
        // minus the `spans_by_target` it starts with.
        let t = Instant::now();
        let strict = tr.time("cdi-core.spans_by_target", req, Some(root), || {
            p.spans_by_target(&events, end)
        });
        let by_target_t = t.elapsed();
        drop(strict);
        let t = Instant::now();
        let vm_spans = tr
            .time("cloudbot.vm_spans", req, Some(root), || {
                p.vm_spans(w, &events, end)
            })
            .expect("strict spans over a clean fleet-day");
        put(
            "cloudbot.propagate_ms",
            ms(t.elapsed().saturating_sub(by_target_t)),
        );

        let period = ServicePeriod::new(start, end).expect("a fleet-day is a valid period");
        let t = Instant::now();
        let rows: Vec<VmCdi> = tr.time("cdi-core.algo1", req, Some(root), || {
            w.fleet
                .vms()
                .iter()
                .map(|v| compute_vm_cdi(v.id, &vm_spans[&v.id], period).expect("valid spans"))
                .collect()
        });
        put("cdi-core.algo1_ms", ms(t.elapsed()));

        let t = Instant::now();
        let job = tr.time("daily_job.run", req, Some(root), || {
            run_day(&s, day, &mut tally)
        });
        let total = t.elapsed();
        put("daily_job.total_ms", ms(total));
        put(
            "daily_job.dataflow_ms",
            ms(total.saturating_sub(collect + extract)),
        );
        put("minispark.rows_cloned", job.report.rows_cloned as f64);
        retries += job.report.retries;
        failed_tasks += job.report.failed_tasks;
        let bad = rows_match(&job.rows, &rows);
        tally.ops(rows.len() as u64, bad);
        tally.mismatches += bad;

        let t = Instant::now();
        tr.time("minispark.bi", req, Some(root), || {
            for dim in ["region", "az", "cluster"] {
                let q = Query::new().group_by(dim).aggregate(
                    "performance",
                    Aggregate::WeightedMean {
                        value: "performance".into(),
                        weight: "service_ms".into(),
                    },
                );
                let out = q.run(&job.vm_table).expect("Formula 4 over the VM table");
                std::hint::black_box(out);
            }
        });
        put("minispark.bi_ms", ms(t.elapsed()));
        put("cloudbot.collect_ms", ms(collect));
        put("cloudbot.extract_ms", ms(extract));
        tr.close(root);
        day += 1;
    }

    let get = |k: &str| med(m.get(k).map_or(&[][..], Vec::as_slice));
    let mut out: Vec<Metric> = [
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
        ("minispark.rows_cloned", "count"),
        ("minispark.bi_ms", "ms"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric {
        name,
        value: get(name),
        unit,
    })
    .collect();
    out.push(Metric {
        name: "minispark.retries",
        value: retries as f64,
        unit: "count",
    });
    out.push(Metric {
        name: "minispark.failed_tasks",
        value: failed_tasks as f64,
        unit: "count",
    });
    out.push(Metric {
        name: "batch.trace_overhead_ms",
        value: get("daily_job.total_ms") - med(&untraced),
        unit: "ms",
    });
    (out, tally)
}
