//! Data Collector (Section II-B).
//!
//! The production collector is a lightweight eBPF component sampling
//! fine-grained metrics; here it samples the simulated world. The output is
//! a plain [`CollectedData`] batch so the extractor never touches the
//! simulator directly — the same separation the paper's architecture has
//! between Data Collector and Event Extractor.

use simfleet::telemetry::Metric;
use simfleet::world::{ControlOp, LogLine, SimWorld};
use simfleet::{NcId, VmId};

/// One metric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// Sample time (ms).
    pub time: i64,
    /// VM-scoped samples carry the VM id.
    pub vm: Option<VmId>,
    /// NC-scoped samples carry the NC id.
    pub nc: Option<NcId>,
    /// Which metric.
    pub metric: Metric,
    /// The value.
    pub value: f64,
}

/// A batch of raw data for one collection window.
#[derive(Debug, Clone, Default)]
pub struct CollectedData {
    /// Metric samples, time-ordered per target.
    pub metrics: Vec<MetricRecord>,
    /// Raw log lines.
    pub logs: Vec<LogLine>,
    /// Control-plane operation outcomes.
    pub control_ops: Vec<ControlOp>,
}

/// Collector configuration: which metrics to sample at what cadence.
#[derive(Debug, Clone)]
pub struct Collector {
    /// Sampling step for VM metrics (ms). The paper's canonical detector
    /// window is one minute.
    pub vm_step: i64,
    /// Sampling step for NC metrics (ms).
    pub nc_step: i64,
    /// Interval between simulated control-plane operations per VM (ms).
    pub control_interval: i64,
    /// VM metrics to sample.
    pub vm_metrics: Vec<Metric>,
    /// NC metrics to sample.
    pub nc_metrics: Vec<Metric>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            vm_step: 60_000,
            nc_step: 5 * 60_000,
            control_interval: 15 * 60_000,
            vm_metrics: vec![
                Metric::ReadLatencyMs,
                Metric::PacketLossPct,
                Metric::CpuSteal,
                Metric::Heartbeat,
                Metric::GpuHealth,
            ],
            nc_metrics: vec![Metric::PowerWatts],
        }
    }
}

impl Collector {
    /// Collect everything for `[start, end)` across the whole fleet.
    pub fn collect(&self, world: &SimWorld, start: i64, end: i64) -> CollectedData {
        let mut out = CollectedData {
            metrics: Vec::new(),
            logs: world.log_lines(start, end),
            control_ops: world.control_ops(start, end, self.control_interval),
        };
        for vm in world.fleet.vms() {
            for &metric in &self.vm_metrics {
                for (time, value) in
                    world.vm_metric_series(vm.id, metric, start, end, self.vm_step)
                {
                    out.metrics.push(MetricRecord {
                        time,
                        vm: Some(vm.id),
                        nc: None,
                        metric,
                        value,
                    });
                }
            }
        }
        for nc in world.fleet.ncs() {
            for &metric in &self.nc_metrics {
                for (time, value) in
                    world.nc_metric_series(nc.id, metric, start, end, self.nc_step)
                {
                    out.metrics.push(MetricRecord {
                        time,
                        vm: None,
                        nc: Some(nc.id),
                        metric,
                        value,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
    use simfleet::{Fleet, FleetConfig};

    const HOUR: i64 = 3_600_000;

    fn small_world() -> SimWorld {
        let fleet = Fleet::build(&FleetConfig {
            regions: vec!["r1".into()],
            azs_per_region: 1,
            clusters_per_az: 1,
            ncs_per_cluster: 2,
            vms_per_nc: 2,
            nc_cores: 8,
            machine_models: vec!["m".into()],
            arch: simfleet::DeploymentArch::Hybrid,
        });
        SimWorld::new(fleet, 17)
    }

    #[test]
    fn collects_expected_sample_counts() {
        let world = small_world();
        let c = Collector::default();
        let data = c.collect(&world, 0, HOUR);
        // 4 VMs × 5 metrics × 60 minutes + 2 NCs × 1 metric × 12 samples.
        assert_eq!(data.metrics.len(), 4 * 5 * 60 + 2 * 12);
        // One control op per VM per 15 minutes.
        assert_eq!(data.control_ops.len(), 4 * 4);
        assert!(data.logs.is_empty());
    }

    #[test]
    fn vm_and_nc_records_tagged() {
        let world = small_world();
        let data = Collector::default().collect(&world, 0, HOUR);
        for r in &data.metrics {
            assert!(r.vm.is_some() ^ r.nc.is_some(), "exactly one scope per record");
            if r.nc.is_some() {
                assert_eq!(r.metric, Metric::PowerWatts);
            }
        }
    }

    #[test]
    fn logs_flow_through() {
        let mut world = small_world();
        world.inject(FaultInjection::new(
            FaultKind::NicFlapping,
            FaultTarget::Nc(0),
            0,
            10 * 60_000,
        ));
        let data = Collector::default().collect(&world, 0, HOUR);
        assert!(!data.logs.is_empty());
    }
}
