//! Ablation: the `O(n log n)` sweep-line CDI (Algorithm 1 as implemented)
//! vs the paper's literal per-timestep array, across event counts.
//!
//! The paper reports ~500 s of core CDI computation for a fleet-day on 800
//! cores; this bench gives the single-core events/s of both formulations so
//! the DESIGN.md ablation has concrete numbers.
//!
//! Also measured here: the live service's k-way top-K merge
//! (`cdi_serve::merge_top_k`) in isolation, the step that turns per-shard
//! CDI rankings into one answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::{cdi, cdi_naive, ServicePeriod};
use cdi_core::time::{minutes, DAY_MS};
use cdi_serve::merge_top_k;

/// Deterministic pseudo-random spans over one day.
fn make_spans(n: usize) -> Vec<EventSpan> {
    let mut spans = Vec::with_capacity(n);
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..n {
        let start = minutes((next() % 1400) as i64);
        let dur = minutes(1 + (next() % 30) as i64);
        let weight = 0.1 + (next() % 10) as f64 / 10.0 * 0.9;
        let cat = match i % 3 {
            0 => Category::Unavailability,
            1 => Category::Performance,
            _ => Category::ControlPlane,
        };
        spans.push(EventSpan::new("bench_event", cat, start, start + dur, weight.min(1.0)));
    }
    spans
}

fn bench_cdi(c: &mut Criterion) {
    let period = ServicePeriod::new(0, DAY_MS).unwrap();
    let mut group = c.benchmark_group("cdi_algorithm");
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let spans = make_spans(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sweep_line", n), &spans, |b, spans| {
            b.iter(|| cdi(black_box(spans), period).unwrap());
        });
        // The naive array is O(T/Δt) per call; skip the largest size to keep
        // the suite fast — the trend is clear by 10k.
        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("naive_minute_array", n), &spans, |b, spans| {
                b.iter(|| cdi_naive(black_box(spans), period, minutes(1)).unwrap());
            });
        }
        // Finer resolution blows up the array cost (86.4k slots/day at
        // one-second steps, 86.4M at milliseconds) while the sweep line is
        // resolution-independent — the crossover the DESIGN.md ablation
        // calls out. One size suffices to show it.
        if n == 1_000 {
            group.bench_with_input(BenchmarkId::new("naive_second_array", n), &spans, |b, spans| {
                b.iter(|| cdi_naive(black_box(spans), period, 1_000).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_merge_top_k(c: &mut Criterion) {
    // 8 shard lists of 1024 candidates each, k = 64.
    let lists: Vec<Vec<(Target, f64)>> = (0..8u64)
        .map(|s| {
            (0..1024u64)
                .map(|i| (Target::Vm(s * 10_000 + i), 1.0 / (1.0 + (s * 1024 + i) as f64)))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("cdi-serve/merge_top_k");
    group.throughput(Throughput::Elements(1));
    group.bench_function("k64_8x1024", |b| {
        b.iter(|| merge_top_k(black_box(&lists), 64));
    });
    group.finish();
}

criterion_group!(benches, bench_cdi, bench_merge_top_k);
criterion_main!(benches);
