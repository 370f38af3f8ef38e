//! The host-only exclusion of NC→VM damage propagation, checked on every
//! path that propagates.
//!
//! One NC emits both host-only telemetry (`inspect_cpu_power_tdp`, which
//! fires at the evening power peak, Case 7) and a guest-visible fault
//! (`nic_flapping`). Its hosted VMs must carry the NIC damage and none of
//! the TDP damage — in the serial pipeline, in the `daily_job` dataflow and
//! in a fleet-routed `CdiService` — with rows identical bit for bit, while
//! the NC's own point lookup still counts the TDP damage. A second NC runs
//! the Fig. 9(b) power-collector bug, so its TDP inspection goes silent.

use std::collections::HashMap;

use cdi_core::event::{Category, EventSpan, Target};
use cdi_core::indicator::{compute_vm_cdi, ServicePeriod, VmCdi};
use cdi_repro::daily_job::{run, DailyJobConfig};
use cdi_serve::{CdiService, ServeConfig};
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::{FaultInjection, FaultKind, FaultTarget};
use simfleet::{Fleet, FleetConfig, SimWorld};

const HOUR: i64 = 3_600_000;
const DAY: i64 = 24 * HOUR;
const TDP: &str = "inspect_cpu_power_tdp";
const NIC: &str = "nic_flapping";

fn world() -> SimWorld {
    let fleet = Fleet::build(&FleetConfig {
        regions: vec!["r1".into()],
        azs_per_region: 1,
        clusters_per_az: 1,
        ncs_per_cluster: 2,
        vms_per_nc: 3,
        nc_cores: 16,
        machine_models: vec!["m".into()],
        arch: simfleet::DeploymentArch::Hybrid,
    });
    let mut w = SimWorld::new(fleet, 909);
    // Morning NIC flapping on NC 0, well clear of the evening TDP peak.
    w.inject(FaultInjection::new(FaultKind::NicFlapping, FaultTarget::Nc(0), 3 * HOUR, 4 * HOUR));
    // The Fig. 9(b) power-collector bug on NC 1 for the whole day.
    w.inject(FaultInjection::new(FaultKind::PowerZeroBug, FaultTarget::Nc(1), 0, DAY));
    w
}

fn names(spans: &[EventSpan]) -> Vec<&str> {
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn assert_rows_bit_identical(label: &str, got: &[VmCdi], want: &[VmCdi]) {
    assert_eq!(got.len(), want.len(), "{label}: row count");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.vm, b.vm, "{label}");
        assert_eq!(a.service_time, b.service_time, "{label}: vm {}", a.vm);
        for cat in Category::ALL {
            assert_eq!(a.get(cat).to_bits(), b.get(cat).to_bits(), "{label}: vm {} {cat}", a.vm);
        }
    }
}

#[test]
fn nc_damage_reaches_hosted_vms_without_host_only_telemetry() {
    let w = world();
    let p = DailyPipeline::default();
    let period = ServicePeriod::new(0, DAY).unwrap();
    let events = p.events(&w, 0, DAY);
    let (by_target, quarantined) = p.spans_by_target_lenient(&events, DAY);
    assert!(quarantined.is_empty());

    // NC 0 emits both events; the power bug silences NC 1's TDP inspection.
    let nc0 = &by_target[&Target::Nc(0)];
    assert_eq!(names(nc0), vec![TDP, NIC]);
    assert!(by_target.get(&Target::Nc(1)).is_none_or(|s| !names(s).contains(&TDP)));

    // Serial pipeline: hosted VMs carry the NIC spans and no TDP span.
    let vm_spans = p.vm_spans(&w, &events, DAY).unwrap();
    let hosted = w.fleet.vms_on(0);
    assert!(!hosted.is_empty());
    for vm in hosted {
        let got = names(&vm_spans[vm]);
        assert!(got.contains(&NIC), "vm {vm} lost the NC's NIC damage: {got:?}");
        assert!(!got.contains(&TDP), "vm {vm} inherited host-only telemetry: {got:?}");
    }

    // Row level: each hosted VM's row is its own spans plus NC 0's NIC
    // spans, and charging the TDP spans too would raise its performance.
    let (serial, _, report) = p.vm_cdi_rows_report(&w, 0, DAY).unwrap();
    assert!(!report.degraded);
    let by_vm: HashMap<u64, VmCdi> = serial.iter().map(|r| (r.vm, *r)).collect();
    let own = |vm: u64| by_target.get(&Target::Vm(vm)).cloned().unwrap_or_default();
    for &vm in hosted {
        let mut expected = own(vm);
        expected.extend(nc0.iter().filter(|s| s.name == NIC).cloned());
        let want = compute_vm_cdi(vm, &expected, period).unwrap();
        assert_rows_bit_identical("serial vs hand-routed", &[by_vm[&vm]], &[want]);
        let mut with_tdp = own(vm);
        with_tdp.extend(nc0.iter().cloned());
        let charged = compute_vm_cdi(vm, &with_tdp, period).unwrap();
        assert!(
            charged.performance > want.performance,
            "vm {vm}: the TDP spans must matter for the exclusion to be observable"
        );
    }

    // The dataflow job agrees bit for bit.
    let job = run(&w, &p, 0, 0, DAY, DailyJobConfig::default()).unwrap();
    assert_rows_bit_identical("daily_job vs serial", &job.rows, &serial);

    // A fleet-routed service fed the same spans agrees bit for bit.
    let service =
        CdiService::new(ServeConfig { shards: 3, period_start: 0, ..ServeConfig::default() })
            .unwrap()
            .with_fleet_routing(&w.fleet);
    let mut targets: Vec<&Target> = by_target.keys().collect();
    targets.sort_unstable();
    for target in targets {
        for span in &by_target[target] {
            assert_eq!(service.ingest(*target, span.clone()).shed, 0);
        }
    }
    service.advance_watermark(DAY).unwrap();
    service.flush();
    let live: Vec<VmCdi> = w.fleet.vms().iter().map(|v| service.vm_row(v.id).unwrap()).collect();
    assert_rows_bit_identical("service vs serial", &live, &serial);

    // The NC's own lookup still counts the TDP damage.
    let point = service.point(Target::Nc(0)).unwrap().expect("NC 0 was ingested");
    let nc_all = compute_vm_cdi(0, nc0, period).unwrap();
    let nc_nic: Vec<EventSpan> = nc0.iter().filter(|s| s.name == NIC).cloned().collect();
    let nc_without_tdp = compute_vm_cdi(0, &nc_nic, period).unwrap();
    assert_eq!(point.performance.to_bits(), nc_all.performance.to_bits());
    assert!(point.performance > nc_without_tdp.performance);
}
