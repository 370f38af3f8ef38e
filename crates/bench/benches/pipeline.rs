//! minispark engine benchmarks: shuffle-heavy aggregation across thread
//! counts (the stand-in for the paper's 100-executor Spark scaling), a
//! narrow chain, cached re-reads, and the BI drill-down query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use minispark::bi::{Aggregate, Query};
use minispark::store::{ColumnType, Schema, Table, Value};
use minispark::{Dataset, ExecContext};

fn bench_engine(c: &mut Criterion) {
    // reduce_by_key over 1M pairs, the core shuffle pattern of the CDI job.
    let pairs: Vec<(u32, u64)> = (0..1_000_000u64).map(|i| ((i % 1024) as u32, i)).collect();
    let mut group = c.benchmark_group("minispark/reduce_by_key_1M");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let ctx = ExecContext::with_threads(threads);
                    let d = Dataset::from_vec(pairs.clone(), 16).unwrap();
                    let r = d.reduce_by_key(16, |a, b| a + b).unwrap();
                    black_box(r.try_count(&ctx).unwrap())
                })
            },
        );
    }
    group.finish();

    // group_by_key over the same pairs: stresses the reduce-side concat.
    let mut group = c.benchmark_group("minispark/group_by_key_1M");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.sample_size(10);
    for &threads in &[1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let ctx = ExecContext::with_threads(threads);
                    let d = Dataset::from_vec(pairs.clone(), 16).unwrap();
                    let r = d.group_by_key(16).unwrap();
                    black_box(r.try_count(&ctx).unwrap())
                })
            },
        );
    }
    group.finish();

    // Narrow map/filter chain (no shuffle) at 4 threads.
    let data: Vec<i64> = (0..1_000_000).collect();
    let mut group = c.benchmark_group("minispark/narrow_chain_1M");
    group.throughput(Throughput::Elements(data.len() as u64));
    group.sample_size(10);
    group.bench_function("map_filter_count", |b| {
        b.iter(|| {
            let ctx = ExecContext::with_threads(4);
            let d = Dataset::from_vec(data.clone(), 16).unwrap();
            black_box(d.map(|x| x * 3).filter(|x| x % 7 == 0).try_count(&ctx).unwrap())
        })
    });
    group.finish();

    // Cached dataset populated once, then re-read eight times at 8 threads:
    // the path Arc-shared partitions turn from a deep copy into a pointer
    // bump.
    let seq: Vec<u64> = (0..1_000_000u64).collect();
    let mut group = c.benchmark_group("minispark/cached_reread_1M");
    group.throughput(Throughput::Elements(seq.len() as u64));
    group.sample_size(10);
    group.bench_function("populate_then_8_rereads", |b| {
        b.iter(|| {
            let ctx = ExecContext::with_threads(8);
            let d = Dataset::from_vec(seq.clone(), 16).unwrap().cache();
            black_box(d.try_count(&ctx).unwrap());
            for _ in 0..8 {
                black_box(d.try_count(&ctx).unwrap());
            }
        })
    });
    group.finish();

    // BI drill-down over a 100k-row CDI table (Formula 4 per region).
    let schema = Schema::new(vec![
        ("region", ColumnType::Str),
        ("cdi", ColumnType::Float),
        ("service", ColumnType::Int),
    ])
    .unwrap();
    let mut table = Table::new(schema);
    for i in 0..100_000u64 {
        table
            .push_row(vec![
                Value::Str(format!("region-{}", i % 8)),
                Value::Float((i % 100) as f64 / 1e4),
                Value::Int(1440),
            ])
            .unwrap();
    }
    let mut group = c.benchmark_group("minispark/bi");
    group.throughput(Throughput::Elements(table.len() as u64));
    group.sample_size(20);
    group.bench_function("formula4_drilldown_100k", |b| {
        let query = Query::new().group_by("region").aggregate(
            "cdi",
            Aggregate::WeightedMean { value: "cdi".into(), weight: "service".into() },
        );
        b.iter(|| black_box(query.run(&table).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
