//! `live-ingest`: an open-loop producer replays a seeded `LiveFeed` (1-min
//! ticks over the 384-VM fleet, with background faults, a rollout wave and
//! a power-domain event) over one cdipack connection, writer and reader on
//! their own threads. Each tick is an `IngestBatch` plus an `Advance`,
//! sent on a fixed-rate schedule whatever the server's pace, against a
//! 2-shard, 2-worker server with `LiveDiag` attached. It loads wire
//! decode, shard apply, watermark advance and the outage-diag tick; batch
//! extraction happens only in set-up.

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdi_core::indicator::VmCdi;
use cdi_repro::daily_job;
use cdi_serve::cdipack;
use cdi_serve::proto::{IngestItem, OutageScope, Request, Response};
use cdi_serve::{serve_with_diag, CdiService, DiagProvider, MetricsReport, ServeConfig};
use cloudbot::feed::LiveFeed;
use outage_diag::{DiagConfig, LiveDiag, ServiceTap};
use simfleet::{Fleet, Scope, VmId};

use crate::fixture::{self, POWER_CHECK_MS, TICK_MS};
use crate::report::{med, repeated_setup, EndToEnd, Metric, Tally};
use crate::schedule::Schedule;
use crate::stats::{median, Samples};
use crate::trace::Trace;
use crate::wire;

/// The fixed tick rates (ticks/s), lowest first; the lowest is the
/// reference rate at which ingest latency is reported.
pub const RATES: [f64; 4] = [200.0, 800.0, 1600.0, 12800.0];
/// Ingest-to-queryable latency limit on the p99, ms. It sits well above
/// the ~40 ms delayed-ACK stall the last tick of every phase pays and the
/// host's occasional stalls, and well below the hundreds of milliseconds a
/// backlog reaches within one phase at a rate beyond capacity.
pub const LIMIT_MS: f64 = 100.0;
/// `serve_parity`'s batch/live tolerance.
const ROW_TOL: f64 = 1e-9;

struct Tick {
    items: Vec<IngestItem>,
    watermark: i64,
    /// `IngestBatch` + `Advance` (+ `Diagnose` on the check tick), framed.
    frame: Vec<u8>,
}

struct Setup {
    fleet: Fleet,
    ticks: Vec<Tick>,
    batch_rows: Vec<VmCdi>,
    power_vms: BTreeSet<VmId>,
    check_tick: usize,
    quarantined: u64,
}

/// The tick whose watermark sits [`POWER_CHECK_MS`] into the power event.
fn check_tick(seed: u64) -> usize {
    ((fixture::power_start(seed, 0) + POWER_CHECK_MS) / TICK_MS) as usize - 1
}

fn setup(seed: u64, n_ticks: usize) -> Setup {
    let end = n_ticks as i64 * TICK_MS;
    let lw = fixture::live_world(seed, end, fixture::power_start(seed, 0));
    let pipeline = fixture::pipeline();
    let feed = LiveFeed::build(&pipeline, &lw.world, 0, end, TICK_MS).expect("a valid feed window");
    let batch = daily_job::run(&lw.world, &pipeline, 0, 0, end, fixture::job_config())
        .expect("batch reference over the feed window");
    let check = check_tick(seed);
    assert!(
        check < n_ticks,
        "feed of {n_ticks} ticks ends before the power-domain check"
    );
    let ticks = feed
        .batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let items: Vec<IngestItem> = b
                .spans
                .iter()
                .map(|(target, span)| IngestItem {
                    target: *target,
                    span: span.clone(),
                })
                .collect();
            let mut frame = wire::pack_frame(&Request::IngestBatch {
                items: items.clone(),
            });
            frame.extend(wire::pack_frame(&Request::Advance {
                watermark: b.watermark,
            }));
            if i == check {
                frame.extend(wire::pack_frame(&Request::Diagnose));
            }
            Tick {
                items,
                watermark: b.watermark,
                frame,
            }
        })
        .collect();
    Setup {
        power_vms: fixture::az_vms(&lw.world.fleet, &lw.power_az),
        fleet: lw.world.fleet,
        ticks,
        batch_rows: batch.rows,
        check_tick: check,
        quarantined: feed.quarantined.len() as u64,
    }
}

/// The VM set an outage scope covers.
pub fn scope_vms(fleet: &Fleet, scope: &OutageScope) -> BTreeSet<VmId> {
    let scope = match scope {
        OutageScope::Vm(id) => Scope::Vm(*id),
        OutageScope::Nc(id) => Scope::Nc(*id),
        OutageScope::Cluster(n) => Scope::Cluster(n.clone()),
        OutageScope::Az(n) => Scope::Az(n.clone()),
        OutageScope::Region(n) => Scope::Region(n.clone()),
        OutageScope::Global => return fleet.vms().iter().map(|v| v.id).collect(),
    };
    fleet.vms_in(&scope).into_iter().collect()
}

/// Whether a `Diagnose` answer names exactly the power-domain AZ's VMs.
pub fn names_vm_set(fleet: &Fleet, resp: &Response, want: &BTreeSet<VmId>) -> bool {
    match resp {
        Response::Diagnoses { outages } => {
            outages.iter().any(|o| &scope_vms(fleet, &o.scope) == want)
        }
        _ => false,
    }
}

/// Everything one rate phase observed.
struct Phase {
    /// Due time → `Advance` ack, ms, per tick.
    latency_ms: Vec<f64>,
    due: Vec<Instant>,
    sent: Vec<Instant>,
    ingest_ack: Vec<Instant>,
    advance_ack: Vec<Instant>,
    gen_late_max_ms: f64,
    tally: Tally,
    metrics: MetricsReport,
    queue_hwm: u64,
    diag_errors: u64,
    active_outages: usize,
}

impl Phase {
    fn samples(&self) -> Samples {
        let mut s = Samples::default();
        self.latency_ms.iter().for_each(|&v| s.push(v));
        s
    }

    /// Ticks acknowledged per second, from the first due time to the last
    /// `Advance` ack: the rate the server actually sustained.
    fn achieved_tps(&self) -> f64 {
        match (self.due.first(), self.advance_ack.last()) {
            (Some(first), Some(last)) => {
                self.advance_ack.len() as f64 / last.saturating_duration_since(*first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// The p99 meets the limit and the last 5% of ticks met it too (by
    /// median), so no backlog was left growing.
    fn passes(&self) -> bool {
        let n = self.latency_ms.len();
        let tail_ok = self
            .samples()
            .tail(0.99)
            .is_some_and(|(_, v)| v <= LIMIT_MS);
        let end = &self.latency_ms[n - n / 20..];
        let drained = median(end).is_some_and(|v| v <= LIMIT_MS);
        tail_ok && drained && n == self.due.len()
    }
}

struct Acks {
    ingest: Vec<Instant>,
    advance: Vec<Instant>,
    tally: Tally,
    active_outages: usize,
}

/// The reader half: one `Ingested` and one `Ok` per tick (plus the
/// `Diagnose` answer on the check tick), then the final `Flush` ack.
fn read_acks(reader: &mut BufReader<TcpStream>, s: &Setup) -> Acks {
    let n = s.ticks.len();
    let mut acks = Acks {
        ingest: Vec::with_capacity(n),
        advance: Vec::with_capacity(n),
        tally: Tally::default(),
        active_outages: 0,
    };
    let t = &mut acks.tally;
    for i in 0..n {
        match wire::pack_read(reader) {
            Ok(Response::Ingested { shed, .. }) => t.ops(1, u64::from(shed > 0)),
            _ => return failed_rest(acks, n - i),
        }
        acks.ingest.push(Instant::now());
        match wire::pack_read(reader) {
            Ok(Response::Ok) => t.ops(1, 0),
            _ => return failed_rest(acks, n - i),
        }
        acks.advance.push(Instant::now());
        if i == s.check_tick {
            match wire::pack_read(reader) {
                Ok(resp) => {
                    t.ops(1, u64::from(matches!(resp, Response::Error { .. })));
                    t.check(names_vm_set(&s.fleet, &resp, &s.power_vms));
                    if let Response::Diagnoses { outages } = &resp {
                        acks.active_outages = outages.len();
                    }
                }
                Err(_) => return failed_rest(acks, n - i),
            }
        }
    }
    let flushed = matches!(wire::pack_read(reader), Ok(Response::Ok));
    t.ops(1, u64::from(!flushed));
    acks
}

fn failed_rest(mut acks: Acks, remaining: usize) -> Acks {
    acks.tally
        .ops(2 * remaining as u64 + 1, 2 * remaining as u64 + 1);
    acks.tally.mismatches += 1;
    acks
}

/// Replay the whole feed at `rate` ticks/s against a fresh server.
fn phase(s: &Setup, rate: f64) -> Phase {
    let service = Arc::new(
        CdiService::new(ServeConfig {
            shards: 2,
            period_start: 0,
            ..ServeConfig::default()
        })
        .expect("a valid 2-shard config")
        .with_fleet_routing(&s.fleet),
    );
    let tap = ServiceTap::new(s.fleet.clone(), 0, DiagConfig::default());
    let diag = Arc::new(LiveDiag::new(Arc::clone(&service), tap));
    let provider: Arc<dyn DiagProvider> = Arc::clone(&diag) as Arc<dyn DiagProvider>;
    let mut handle = serve_with_diag(
        Arc::clone(&service),
        Some(Arc::new(s.fleet.clone())),
        Some(provider),
        "127.0.0.1:0",
        2,
    )
    .expect("bind a loopback port");
    let (mut writer, mut reader) = wire::pack_connect(handle.addr()).expect("connect");
    let flush = wire::pack_frame(&Request::Flush);

    let n = s.ticks.len();
    let sched = Schedule::new(Instant::now() + Duration::from_millis(20), rate);
    let mut sent = Vec::with_capacity(n);
    let mut late_max = Duration::ZERO;
    let acks = std::thread::scope(|scope| {
        let rd = scope.spawn(|| read_acks(&mut reader, s));
        for (i, tick) in s.ticks.iter().enumerate() {
            late_max = late_max.max(sched.wait(i));
            sent.push(Instant::now());
            if writer.write_all(&tick.frame).is_err() {
                break;
            }
        }
        let _ = writer.write_all(&flush);
        rd.join().expect("reader thread")
    });
    // Close the connection before stopping: `stop` joins workers, and a
    // worker serving an open connection never returns.
    drop(writer);
    drop(reader);
    handle.stop();

    // Requests were counted as their responses arrived (or as failed when
    // the connection broke), so `tally` already holds every send.
    let mut tally = acks.tally;
    for row in &s.batch_rows {
        let ok = service.vm_row(row.vm).is_ok_and(|live| {
            live.service_time == row.service_time
                && (live.unavailability - row.unavailability).abs() <= ROW_TOL
                && (live.performance - row.performance).abs() <= ROW_TOL
                && (live.control_plane - row.control_plane).abs() <= ROW_TOL
        });
        tally.check(ok);
    }
    let metrics = service.metrics();
    tally.ops(
        0,
        metrics.spans_shed + metrics.late_dropped + metrics.rejected + diag.errors(),
    );
    tally.ops(0, s.quarantined);

    let due: Vec<Instant> = (0..n).map(|i| sched.due(i)).collect();
    let latency_ms = acks
        .advance
        .iter()
        .zip(&due)
        .map(|(a, d)| a.saturating_duration_since(*d).as_secs_f64() * 1e3)
        .collect();
    Phase {
        latency_ms,
        due,
        sent,
        ingest_ack: acks.ingest,
        advance_ack: acks.advance,
        gen_late_max_ms: late_max.as_secs_f64() * 1e3,
        tally,
        queue_hwm: service.take_queue_hwm(),
        metrics,
        diag_errors: diag.errors(),
        active_outages: acks.active_outages,
    }
}

/// Feed length for a `seconds`-long run: every rate replays the whole feed.
pub fn ticks_for(seconds: f64) -> usize {
    let per_tick: f64 = RATES.iter().map(|r| 1.0 / r).sum();
    (seconds / per_tick) as usize
}

/// Run every rate phase, untraced.
pub fn run(seed: u64, seconds: f64) -> EndToEnd {
    let n = ticks_for(seconds).max(check_tick(seed) + 60);
    let (s, setup_s) = repeated_setup(|| setup(seed, n));
    let mut tally = Tally::default();
    let mut lines = Vec::new();
    let mut reference = None;
    let mut max_tps = 0.0;
    for &rate in &RATES {
        let p = phase(&s, rate);
        let samples = p.samples();
        let (tp, tv) = samples.tail(0.99).unwrap_or((f64::NAN, f64::NAN));
        let pass = p.passes();
        lines.push(format!(
            "rate {rate} ticks/s: p50 {:.3} ms, p{:.2} {tv:.3} ms, n {}, gen_late_max {:.3} ms, {}",
            samples.p50().unwrap_or(f64::NAN),
            tp * 100.0,
            samples.len(),
            p.gen_late_max_ms,
            if pass { "meets limit" } else { "misses limit" },
        ));
        if pass {
            max_tps = p.achieved_tps();
        }
        tally.merge(p.tally);
        reference.get_or_insert(samples);
    }
    let latency = reference.expect("at least one rate");
    let (tp, tv) = latency.tail(0.99).unwrap_or((f64::NAN, f64::NAN));
    lines.push(format!(
        "ingest_p50_ms = {:.3} ms",
        latency.p50().unwrap_or(f64::NAN)
    ));
    lines.push(format!(
        "ingest_p99_ms = {tv:.3} ms (p{:.2} of {} ticks at {} ticks/s)",
        tp * 100.0,
        latency.len(),
        RATES[0]
    ));
    lines.push(format!(
        "ingest_max_tps = {max_tps:.3} ticks/s (achieved at the highest rate whose p99 \
         and final-5% median are <= {LIMIT_MS} ms)"
    ));
    EndToEnd {
        setup_s,
        throughput: max_tps,
        latency_ms: latency,
        tally,
        lines,
    }
}

/// The traced pass: an in-process twin of the feed through each layer's
/// public call, then the same ticks over the wire at the reference rate,
/// untraced and traced.
pub fn trace(seed: u64, seconds: f64, tr: &mut Trace) -> (Vec<Metric>, Tally) {
    let n = ((seconds * RATES[0] / 2.5) as usize).max(check_tick(seed) + 60);
    let s = setup(seed, n);
    let mut tally = Tally::default();

    // In-process twin: encode, ingest, advance, observe.
    let service = CdiService::new(ServeConfig {
        shards: 2,
        period_start: 0,
        ..ServeConfig::default()
    })
    .expect("a valid 2-shard config")
    .with_fleet_routing(&s.fleet);
    let tap = ServiceTap::new(s.fleet.clone(), 0, DiagConfig::default());
    let (mut encode, mut ingest, mut advance, mut observe) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut spans) = (0usize, 0usize);
    for (i, tick) in s.ticks.iter().enumerate() {
        let req = i as u64;
        let root = tr.open("live.tick", req, None);
        let batch = Request::IngestBatch {
            items: tick.items.clone(),
        };
        let adv = Request::Advance {
            watermark: tick.watermark,
        };
        let t = Instant::now();
        let enc = tr.time("cdipack.encode", req, Some(root), || {
            (
                cdipack::encode_request(&batch),
                cdipack::encode_request(&adv),
            )
        });
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        bytes += enc.0.len();
        spans += tick.items.len();
        let t = Instant::now();
        tr.time("cdi-serve.ingest_batch", req, Some(root), || {
            service.ingest_batch(&tick.items)
        });
        ingest.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let adv = tr.time("cdi-serve.advance", req, Some(root), || {
            service.advance_watermark(tick.watermark)
        });
        advance.push(t.elapsed().as_secs_f64() * 1e6);
        tally.ops(1, u64::from(adv.is_err()));
        let t = Instant::now();
        let obs = tr.time("outage-diag.observe", req, Some(root), || {
            tap.observe(&service, tick.watermark)
        });
        observe.push(t.elapsed().as_secs_f64() * 1e6);
        tally.ops(1, u64::from(obs.is_err()));
        tr.close(root);
    }

    let untraced = phase(&s, RATES[0]);
    let p = phase(&s, RATES[0]);
    let base = 1_000_000 * n as u64; // request ids of the wire ticks
    let mut ingest_rtt = Vec::new();
    let mut advance_rtt = Vec::new();
    let mut ingest_self = Vec::new();
    for i in 0..p.advance_ack.len() {
        let req = base + i as u64;
        let root = tr.record("wire.tick", req, None, p.due[i], p.advance_ack[i]);
        tr.record(
            "wire.ingest_rtt",
            req,
            Some(root),
            p.sent[i],
            p.ingest_ack[i],
        );
        tr.record(
            "wire.advance_rtt",
            req,
            Some(root),
            p.ingest_ack[i],
            p.advance_ack[i],
        );
        let rtt = p.ingest_ack[i]
            .saturating_duration_since(p.sent[i])
            .as_secs_f64()
            * 1e6;
        ingest_rtt.push(rtt);
        advance_rtt.push(
            p.advance_ack[i]
                .saturating_duration_since(p.ingest_ack[i])
                .as_secs_f64()
                * 1e6,
        );
        ingest_self.push(rtt - encode[i] - ingest[i]);
    }
    tally.merge(untraced.tally);
    tally.merge(p.tally);

    let metric = |name, value, unit| Metric { name, value, unit };
    let out = vec![
        metric("cdipack.encode_us", med(&encode), "us"),
        metric(
            "cdipack.bytes_per_span",
            bytes as f64 / spans.max(1) as f64,
            "B",
        ),
        metric("cdi-serve.ingest_batch_us", med(&ingest), "us"),
        metric("cdi-serve.advance_us", med(&advance), "us"),
        metric("outage-diag.observe_us", med(&observe), "us"),
        metric(
            "outage-diag.active_outages",
            p.active_outages as f64,
            "count",
        ),
        metric("outage-diag.errors", p.diag_errors as f64, "count"),
        metric("wire.ingest_rtt_us", med(&ingest_rtt), "us"),
        metric("wire.advance_rtt_us", med(&advance_rtt), "us"),
        metric("wire.ingest_self_us", med(&ingest_self), "us"),
        metric("cdi-serve.shed", p.metrics.spans_shed as f64, "count"),
        metric(
            "cdi-serve.late_dropped",
            p.metrics.late_dropped as f64,
            "count",
        ),
        metric(
            "cdi-serve.late_clipped",
            p.metrics.late_clipped as f64,
            "count",
        ),
        metric("cdi-serve.rejected", p.metrics.rejected as f64, "count"),
        metric("cdi-serve.queue_hwm", p.queue_hwm as f64, "count"),
        metric("live.gen_late_ms", p.gen_late_max_ms, "ms"),
        metric(
            "live.trace_overhead_ms",
            med(&p.latency_ms) - med(&untraced.latency_ms),
            "ms",
        ),
    ];
    (out, tally)
}
