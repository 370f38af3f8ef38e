//! `operator-queries`: two closed-loop JSON-lines clients send a fixed
//! Point / TopK / Rollup / `Diagnose` mix against a 2-shard, 2-worker
//! server populated in set-up from a seeded live feed that ends inside a
//! power-domain event. It is the read-only path over the other dialect:
//! ingest, apply and cdipack sit in set-up only.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdi_core::event::{Category, Target};
use cdi_serve::proto::{IngestItem, Request, Response, TopEntry};
use cdi_serve::{rollup, serve_with_diag, CdiService, DiagProvider, ServeConfig};
use cloudbot::feed::LiveFeed;
use outage_diag::{DiagConfig, LiveDiag, ServiceTap};
use simfleet::scenario::HOUR;
use simfleet::{Fleet, Scope, VmId};

use crate::fixture::{self, mix, POWER_CHECK_MS, STEP_MS};
use crate::live::names_vm_set;
use crate::report::{med, repeated_setup, EndToEnd, Metric, Tally};
use crate::stats::Samples;
use crate::trace::Trace;
use crate::wire::JsonClient;

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Requests in the repeating mix: per 8, four Point, two TopK, one
/// Rollup, one Diagnose.
const MIX_LEN: usize = 64;
/// Day of the power-domain event the service is populated into.
const POPULATE_DAY: i64 = 2;
/// Untimed requests per client before measuring.
const WARMUP: usize = 8;

/// Request kinds, for per-kind figures; the discriminant indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point = 0,
    TopK = 1,
    Rollup = 2,
    Diagnose = 3,
}

/// Span name of each kind's in-process call, by [`Kind`] index.
const INPROC_SPANS: [&str; 4] = [
    "cdi-serve.point",
    "cdi-serve.top_k",
    "cdi-serve.rollup",
    "outage-diag.active",
];

/// One timed request: its kind, when it was sent, when its answer arrived.
type Rtt = (Kind, Instant, Instant);

struct Query {
    kind: Kind,
    req: Request,
    /// The in-process answer the wire must reproduce exactly.
    expect: Response,
}

struct Setup {
    fleet: Arc<Fleet>,
    service: Arc<CdiService>,
    diag: Arc<LiveDiag>,
    mix: Vec<Query>,
    power_vms: BTreeSet<VmId>,
}

fn setup(seed: u64) -> Setup {
    // Two days of history, then the power event; the service is populated
    // up to 20 minutes into it, so a diagnosis is open. Ticks are one
    // sampling step wide. The feed itself runs an hour longer: extraction
    // at a window's very end sees only part of the last sampling step,
    // which would blur the state the queries read.
    let power_at = fixture::power_start(seed, POPULATE_DAY);
    let check = power_at + POWER_CHECK_MS;
    let lw = fixture::live_world(seed, check + HOUR, power_at);
    let feed = LiveFeed::build(&fixture::pipeline(), &lw.world, 0, check + HOUR, STEP_MS)
        .expect("a valid feed window");
    let fleet = Arc::new(lw.world.fleet.clone());
    let service = Arc::new(
        CdiService::new(ServeConfig {
            shards: 2,
            period_start: 0,
            ..ServeConfig::default()
        })
        .expect("a valid 2-shard config")
        .with_fleet_routing(&fleet),
    );
    let tap = ServiceTap::new((*fleet).clone(), 0, DiagConfig::default());
    let diag = Arc::new(LiveDiag::new(Arc::clone(&service), tap));
    for b in feed.batches.iter().take_while(|b| b.watermark <= check) {
        let items: Vec<IngestItem> = b
            .spans
            .iter()
            .map(|(target, span)| IngestItem {
                target: *target,
                span: span.clone(),
            })
            .collect();
        service.ingest_batch(&items);
        service
            .advance_watermark(b.watermark)
            .expect("monotone feed watermarks");
        diag.on_advance(b.watermark);
    }
    service.flush();

    let vms = fleet.vms();
    let ncs = fleet.ncs();
    let azs = lw.world.az_names();
    let clusters = fleet.cluster_names();
    let regions: Vec<String> = {
        let mut r: Vec<String> = ncs.iter().map(|n| n.region.clone()).collect();
        r.sort();
        r.dedup();
        r
    };
    let pick = |salt: u64, n: usize| (mix(seed, salt) % n as u64) as usize;
    let mix = (0..MIX_LEN)
        .map(|j| {
            let salt = 0x1000 + j as u64;
            let (kind, req) = match j % 8 {
                1 | 5 => {
                    let category = Category::ALL[(j / 8 + j / 4) % 3];
                    (Kind::TopK, Request::TopK { k: 10, category })
                }
                3 => {
                    let scope = match j / 8 % 3 {
                        0 => Scope::Region(regions[pick(salt, regions.len())].clone()),
                        1 => Scope::Az(azs[pick(salt, azs.len())].clone()),
                        _ => Scope::Cluster(clusters[pick(salt, clusters.len())].clone()),
                    };
                    (Kind::Rollup, Request::Rollup { scope })
                }
                7 => (Kind::Diagnose, Request::Diagnose),
                _ => {
                    let target = if j % 16 == 6 {
                        Target::Nc(ncs[pick(salt, ncs.len())].id)
                    } else {
                        Target::Vm(vms[pick(salt, vms.len())].id)
                    };
                    (Kind::Point, Request::Point { target })
                }
            };
            let expect = answer(&service, &fleet, &diag, &req);
            Query { kind, req, expect }
        })
        .collect();
    Setup {
        power_vms: fixture::az_vms(&fleet, &lw.power_az),
        fleet,
        service,
        diag,
        mix,
    }
}

/// The in-process answer to a query, built from the same public calls
/// the server's dispatch makes.
fn answer(service: &CdiService, fleet: &Fleet, diag: &LiveDiag, req: &Request) -> Response {
    let err = |e: cdi_core::error::CdiError| Response::Error {
        message: e.to_string(),
    };
    match req {
        Request::Point { target } => service
            .point(*target)
            .map_or_else(err, |found| Response::Point { found }),
        Request::TopK { k, category } => {
            service
                .top_k(*k, *category)
                .map_or_else(err, |e| Response::TopK {
                    entries: e
                        .into_iter()
                        .map(|(target, score)| TopEntry { target, score })
                        .collect(),
                })
        }
        Request::Rollup { scope } => {
            rollup(service, fleet, scope).map_or_else(err, |r| Response::Rollup {
                vm_count: r.vm_count,
                breakdown: r.breakdown,
            })
        }
        Request::Diagnose => Response::Diagnoses {
            outages: diag.active(),
        },
        other => Response::Error {
            message: format!("not in the query mix: {other:?}"),
        },
    }
}

/// Check one wire answer: no `Error`, TopK sorted, `Diagnose` naming the
/// power-domain AZ by VM set, and equality with the in-process answer.
fn check(s: &Setup, q: &Query, resp: &Result<Response, String>, tally: &mut Tally) {
    let Ok(resp) = resp else {
        tally.ops(1, 1);
        tally.mismatches += 1;
        return;
    };
    tally.ops(1, u64::from(matches!(resp, Response::Error { .. })));
    let shaped = match resp {
        Response::TopK { entries } => entries.windows(2).all(|w| w[0].score >= w[1].score),
        Response::Diagnoses { .. } => names_vm_set(&s.fleet, resp, &s.power_vms),
        Response::Error { .. } => false,
        _ => true,
    };
    tally.check(shaped && *resp == q.expect);
}

/// One closed-loop client: `WARMUP` untimed requests, then requests until
/// `deadline`, returning per-request (kind, round trip).
fn client(
    s: &Setup,
    addr: std::net::SocketAddr,
    id: usize,
    deadline: Duration,
    tally: &mut Tally,
) -> Vec<Rtt> {
    let Ok(mut c) = JsonClient::connect(addr) else {
        tally.ops(1, 1);
        tally.mismatches += 1;
        return Vec::new();
    };
    let mut k = id * MIX_LEN / CLIENTS;
    for _ in 0..WARMUP {
        let q = &s.mix[k % MIX_LEN];
        let resp = c.call(&q.req);
        check(s, q, &resp, tally);
        k += 1;
    }
    let mut out = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        let q = &s.mix[k % MIX_LEN];
        let sent = Instant::now();
        let resp = c.call(&q.req);
        out.push((q.kind, sent, Instant::now()));
        check(s, q, &resp, tally);
        k += 1;
    }
    out
}

/// Serve the populated service and drive it closed-loop for `seconds`.
fn drive(s: &Setup, seconds: f64) -> (Vec<Rtt>, f64, Tally) {
    let provider: Arc<dyn DiagProvider> = Arc::clone(&s.diag) as Arc<dyn DiagProvider>;
    let mut handle = serve_with_diag(
        Arc::clone(&s.service),
        Some(Arc::clone(&s.fleet)),
        Some(provider),
        "127.0.0.1:0",
        2,
    )
    .expect("bind a loopback port");
    let addr = handle.addr();
    let deadline = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Rtt>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    // The client (and its connection) is dropped when this
                    // returns, before the server is stopped below.
                    let rtts = client(s, addr, id, deadline, &mut tally);
                    (rtts, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    handle.stop();
    let mut tally = Tally::default();
    tally.ops(0, s.diag.errors());
    let mut all = Vec::new();
    for (rtts, t) in per_client {
        all.extend(rtts);
        tally.merge(t);
    }
    (all, elapsed, tally)
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Measure the query mix for `seconds`, untraced.
pub fn run(seed: u64, seconds: f64) -> EndToEnd {
    let (s, setup_s) = repeated_setup(|| setup(seed));
    let (rtts, elapsed, tally) = drive(&s, seconds);
    let mut latency = Samples::default();
    rtts.iter().for_each(|&(_, a, b)| latency.push(ms(a, b)));
    let qps = rtts.len() as f64 / elapsed;
    let (tp, tv) = latency.tail(0.99).unwrap_or((f64::NAN, f64::NAN));
    let lines = vec![
        format!(
            "query_p50_us = {:.1} us",
            latency.p50().unwrap_or(f64::NAN) * 1e3
        ),
        format!(
            "query_p99_us = {:.1} us (p{:.2} of {} queries)",
            tv * 1e3,
            tp * 100.0,
            latency.len()
        ),
        format!("queries_per_s = {qps:.3} req/s ({CLIENTS} closed-loop JSON-lines clients)"),
    ];
    EndToEnd {
        setup_s,
        throughput: qps,
        latency_ms: latency,
        tally,
        lines,
    }
}

/// The traced pass: each query's public call in process, its serde-JSON
/// cost, then the closed loop untraced and traced.
pub fn trace(seed: u64, seconds: f64, tr: &mut Trace) -> (Vec<Metric>, Tally) {
    let s = setup(seed);
    let mut inproc: [Vec<f64>; 4] = Default::default();
    let mut json: [Vec<f64>; 4] = Default::default();
    let mut tally = Tally::default();
    let mut req_id = 0u64;
    for _ in 0..20 {
        for q in &s.mix {
            let kind = q.kind as usize;
            let t = Instant::now();
            let resp = tr.time(INPROC_SPANS[kind], req_id, None, || {
                answer(&s.service, &s.fleet, &s.diag, &q.req)
            });
            inproc[kind].push(t.elapsed().as_secs_f64() * 1e6);
            tally.check(resp == q.expect);
            let t = Instant::now();
            tr.time("proto.json", req_id, None, || {
                let line = serde_json::to_string(&q.req).expect("requests serialize");
                let back: Request = serde_json::from_str(&line).expect("and parse back");
                let out = serde_json::to_string(&resp).expect("responses serialize");
                let back_resp: Response = serde_json::from_str(&out).expect("and parse back");
                std::hint::black_box((back, back_resp));
            });
            json[kind].push(t.elapsed().as_secs_f64() * 1e6);
            req_id += 1;
        }
    }

    let (untraced, _, t) = drive(&s, seconds / 2.0);
    tally.merge(t);
    let (traced, _, t) = drive(&s, seconds / 2.0);
    tally.merge(t);
    let mut rtt: [Vec<f64>; 4] = Default::default();
    let mut own = Vec::new();
    let inproc_med: Vec<f64> = inproc.iter().map(|v| med(v)).collect();
    let json_med: Vec<f64> = json.iter().map(|v| med(v)).collect();
    for &(kind, a, b) in &traced {
        let k = kind as usize;
        tr.record("wire.query", req_id, None, a, b);
        req_id += 1;
        let us = ms(a, b) * 1e3;
        rtt[k].push(us);
        own.push(us - inproc_med[k] - json_med[k]);
    }
    let lat = |v: &[Rtt]| med(&v.iter().map(|&(_, a, b)| ms(a, b)).collect::<Vec<_>>());
    let all_json: Vec<f64> = json.concat();
    let metric = |name, value, unit| Metric { name, value, unit };
    let out = vec![
        metric("cdi-serve.point_us", inproc_med[0], "us"),
        metric("cdi-serve.top_k_us", inproc_med[1], "us"),
        metric("cdi-serve.rollup_us", inproc_med[2], "us"),
        metric("outage-diag.active_us", inproc_med[3], "us"),
        metric("proto.json_us", med(&all_json), "us"),
        metric("wire.point_rtt_us", med(&rtt[0]), "us"),
        metric("wire.top_k_rtt_us", med(&rtt[1]), "us"),
        metric("wire.rollup_rtt_us", med(&rtt[2]), "us"),
        metric("wire.diagnose_rtt_us", med(&rtt[3]), "us"),
        metric("wire.query_self_us", med(&own), "us"),
        metric(
            "queries.trace_overhead_ms",
            lat(&traced) - lat(&untraced),
            "ms",
        ),
    ];
    (out, tally)
}
