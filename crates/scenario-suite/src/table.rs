//! Per-tick damage tables: the detector-facing view of a scenario.
//!
//! A [`TickTable`] holds, for every VM and every tick of the evaluation
//! window, the damage *fraction* of the tick per stability category —
//! `envelope integral over the tick / tick length`, a value in `[0, 1]`
//! (the per-tick differential of the CDI). Two independent builders
//! produce it:
//!
//! - [`batch_table`] — the offline path: take the pipeline's per-VM spans,
//!   then drain three [`CdiAccumulator`]s per VM tick by tick.
//! - [`live_table`] — the serving path: replay the
//!   [`LiveFeed`](cloudbot::feed::LiveFeed) through a sharded
//!   [`CdiService`] and recover each tick's integral from the watermark
//!   deltas of [`CdiService::vm_row`].
//!
//! Both paths route NC damage through the one routing function,
//! [`cloudbot::pipeline::route_to_vms`]: an NC's spans damage every VM it
//! hosts except host-only telemetry
//! ([`cdi_core::catalog::is_host_only`]). Neither restates that rule.
//!
//! The two are the batch/live parity pair: `tests/serve_parity.rs` asserts
//! they agree within 1e-9 on every cell, and the determinism proptests
//! assert [`live_table`] is *exactly* identical across shard counts.

use std::collections::BTreeMap;

use cdi_core::error::Result;
use cdi_core::event::Category;
use cdi_core::num::ms_f64;
use cdi_core::streaming::CdiAccumulator;
use cdi_serve::{CdiService, ServeConfig};
use cloudbot::feed::LiveFeed;
use cloudbot::pipeline::DailyPipeline;
use simfleet::topology::VmId;

use crate::catalog::Scenario;

/// Index of a category in the table's per-tick `[f64; 3]` rows
/// (the order of [`Category::ALL`]).
pub fn category_index(category: Category) -> usize {
    match category {
        Category::Unavailability => 0,
        Category::Performance => 1,
        Category::ControlPlane => 2,
    }
}

/// Per-VM, per-category, per-tick damage fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct TickTable {
    /// Start of the evaluation window.
    pub start: i64,
    /// Tick length (ms).
    pub tick_ms: i64,
    rows: BTreeMap<VmId, Vec<[f64; 3]>>,
}

impl TickTable {
    /// Number of ticks per row (0 for an empty table).
    pub fn ticks(&self) -> usize {
        self.rows.values().next().map(Vec::len).unwrap_or(0)
    }

    /// The VM ids covered, ascending.
    pub fn vms(&self) -> Vec<VmId> {
        self.rows.keys().copied().collect()
    }

    /// One VM's per-tick fractions, if present.
    pub fn row(&self, vm: VmId) -> Option<&[[f64; 3]]> {
        self.rows.get(&vm).map(Vec::as_slice)
    }

    /// The largest absolute per-cell difference against another table
    /// (infinity when shapes differ) — the parity test's metric.
    pub fn max_abs_diff(&self, other: &TickTable) -> f64 {
        if self.vms() != other.vms() || self.ticks() != other.ticks() {
            return f64::INFINITY;
        }
        let mut worst: f64 = 0.0;
        for (vm, row) in &self.rows {
            if let Some(other_row) = other.rows.get(vm) {
                for (a, b) in row.iter().zip(other_row.iter()) {
                    for c in 0..3 {
                        worst = worst.max((a[c] - b[c]).abs());
                    }
                }
            }
        }
        worst
    }
}

/// The batch path: the pipeline's lenient per-VM spans
/// ([`DailyPipeline::vm_spans_lenient`], matching the feed's derivation and
/// the daily job's NC→VM routing), then three accumulators per VM drained
/// tick by tick.
pub fn batch_table(
    pipeline: &DailyPipeline,
    scenario: &Scenario,
    events: &[cdi_core::event::RawEvent],
) -> Result<TickTable> {
    let (vm_spans, _quarantined) =
        pipeline.vm_spans_lenient(&scenario.world, events, scenario.end);
    let mut rows: BTreeMap<VmId, Vec<[f64; 3]>> = BTreeMap::new();
    for (vm, spans) in vm_spans {
        let mut accs = [
            CdiAccumulator::new(scenario.start),
            CdiAccumulator::new(scenario.start),
            CdiAccumulator::new(scenario.start),
        ];
        for span in spans {
            accs[category_index(span.category)].ingest(span)?;
        }
        let mut row = Vec::new();
        let mut prev = [0.0f64; 3];
        let mut t = scenario.start;
        while t < scenario.end {
            let hi = (t + scenario.tick_ms).min(scenario.end);
            let mut cell = [0.0f64; 3];
            for c in 0..3 {
                accs[c].advance_watermark(hi)?;
                let frozen = accs[c].damage_integral();
                cell[c] = (frozen - prev[c]) / ms_f64(hi - t);
                prev[c] = frozen;
            }
            row.push(cell);
            t = hi;
        }
        rows.insert(vm, row);
    }
    Ok(TickTable { start: scenario.start, tick_ms: scenario.tick_ms, rows })
}

/// The serving path: replay the feed through a sharded [`CdiService`]
/// (with NC → VM fan-out routing) and recover each tick's integral from
/// the watermark deltas of the per-VM rows.
pub fn live_table(scenario: &Scenario, feed: &LiveFeed, shards: usize) -> Result<TickTable> {
    let cfg = ServeConfig {
        shards,
        period_start: scenario.start,
        ..ServeConfig::default()
    };
    let mut service = CdiService::new(cfg)?.with_fleet_routing(&scenario.world.fleet);
    let vms: Vec<VmId> = scenario.world.fleet.vms().iter().map(|v| v.id).collect();
    let mut rows: BTreeMap<VmId, Vec<[f64; 3]>> = BTreeMap::new();
    let mut prev: BTreeMap<VmId, [f64; 3]> = BTreeMap::new();
    for vm in &vms {
        rows.insert(*vm, Vec::new());
        prev.insert(*vm, [0.0; 3]);
    }
    let mut low = scenario.start;
    for batch in &feed.batches {
        for (target, span) in &batch.spans {
            service.ingest(*target, span.clone());
        }
        service.advance_watermark(batch.watermark)?;
        service.flush();
        let width = ms_f64(batch.watermark - low);
        for vm in &vms {
            let r = service.vm_row(*vm)?;
            let service_time = ms_f64(r.service_time);
            let mut cell = [0.0f64; 3];
            let p = prev.entry(*vm).or_insert([0.0; 3]);
            for cat in Category::ALL {
                let c = category_index(cat);
                let integral = r.get(cat) * service_time;
                cell[c] = (integral - p[c]) / width;
                p[c] = integral;
            }
            if let Some(row) = rows.get_mut(vm) {
                row.push(cell);
            }
        }
        low = batch.watermark;
    }
    service.shutdown();
    Ok(TickTable { start: scenario.start, tick_ms: scenario.tick_ms, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{build, ScenarioConfig};
    use crate::run::ScenarioRun;

    #[test]
    fn batch_table_localizes_damage_in_time_and_space() {
        let cfg = ScenarioConfig::quick(0); // slot 0: incident at 5 h
        let s = build("regional-failover", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let struck: Vec<VmId> = s.truth.windows()[0].scope.vms(run.fleet());
        assert!(!struck.is_empty());
        let hull = s.truth.span().unwrap();
        for vm in run.batch.vms() {
            let row = run.batch.row(vm).unwrap();
            let is_struck = struck.contains(&vm);
            let mut damaged = false;
            for (i, cell) in row.iter().enumerate() {
                let t = run.tick_start(i);
                if cell[0] > 0.5 {
                    damaged = true;
                    assert!(
                        is_struck,
                        "vm {vm} outside the region shows unavailability at {t}"
                    );
                    assert!(
                        t + s.tick_ms > hull.start && t < hull.end,
                        "damage at {t} outside truth {hull:?}"
                    );
                }
            }
            if is_struck {
                assert!(damaged, "struck vm {vm} shows no unavailability");
            }
        }
    }

    #[test]
    fn live_table_matches_batch_table() {
        let cfg = ScenarioConfig::quick(1);
        let s = build("ddos-blackhole-wave", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let live = live_table(&s, &run.feed, 2).unwrap();
        let diff = run.batch.max_abs_diff(&live);
        assert!(diff < 1e-9, "batch/live divergence {diff}");
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let cfg = ScenarioConfig::quick(2);
        let s = build("flapping-recoveries", &cfg).unwrap();
        let run = ScenarioRun::prepare(&s).unwrap();
        let empty = TickTable { start: 0, tick_ms: 1, rows: BTreeMap::new() };
        assert_eq!(run.batch.max_abs_diff(&empty), f64::INFINITY);
        assert_eq!(run.batch.max_abs_diff(&run.batch.clone()), 0.0);
    }
}
