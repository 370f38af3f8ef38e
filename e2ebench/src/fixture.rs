//! Seeded inputs shared by the workloads. The seed reaches the program
//! only through the worlds and feeds built here.

use std::collections::BTreeSet;

use cdi_repro::daily_job::DailyJobConfig;
use cloudbot::pipeline::DailyPipeline;
use simfleet::faults::FaultKind;
use simfleet::scenario::{
    background_faults, fail_power_domain, fy2024_rates, rollout_wave, DAY, HOUR, MINUTE,
};
use simfleet::{Fleet, FleetConfig, Scope, SimWorld, VmId};

/// Telemetry sampling step of both paths (the year-long runs' 5 minutes).
pub const STEP_MS: i64 = 5 * MINUTE;
/// Live tick width.
pub const TICK_MS: i64 = MINUTE;
/// Days in the FY2024 background-rate ramp.
const FY_DAYS: usize = 365;
/// Length of a power-domain event.
const POWER_MS: i64 = 35 * MINUTE;
/// How far into a power-domain event the `Diagnose` check looks.
pub const POWER_CHECK_MS: i64 = 20 * MINUTE;

/// SplitMix64: a seeded, platform-independent choice of times and scopes.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The collect → extract → derive → weight pipeline both paths share.
pub fn pipeline() -> DailyPipeline {
    DailyPipeline::with_step_ms(STEP_MS)
}

/// `daily_job` with two worker threads, one per core of a 2-vCPU host.
pub fn job_config() -> DailyJobConfig {
    DailyJobConfig {
        threads: 2,
        ..DailyJobConfig::default()
    }
}

/// The batch fleet: `FleetConfig::default()` with 16 NCs per cluster
/// (3 regions × 2 AZs × 2 clusters × 16 NCs × 8 VMs = 1 536 VMs).
pub fn batch_fleet() -> Fleet {
    Fleet::build(&FleetConfig {
        ncs_per_cluster: 16,
        ..FleetConfig::default()
    })
}

/// The live fleet: `FleetConfig::default()` (384 VMs).
pub fn live_fleet() -> Fleet {
    Fleet::build(&FleetConfig::default())
}

/// VMs under one AZ, the set a correct power-domain diagnosis must name.
pub fn az_vms(fleet: &Fleet, az: &str) -> BTreeSet<VmId> {
    fleet
        .vms_in(&Scope::Az(az.to_string()))
        .into_iter()
        .collect()
}

/// `days` consecutive fleet-days of the batch fleet: FY2024 background
/// faults, plus one power-domain event per day in a seeded AZ at a seeded
/// hour, so every measured day carries NC→VM propagation work.
pub fn batch_world(seed: u64, days: usize) -> SimWorld {
    let mut world = SimWorld::new(batch_fleet(), seed);
    let azs = world.az_names();
    for d in 0..days {
        let start = d as i64 * DAY;
        background_faults(
            &mut world,
            start,
            start + DAY,
            &fy2024_rates(d % FY_DAYS, FY_DAYS),
        );
        let az = &azs[(mix(seed, 2 * d as u64) % azs.len() as u64) as usize];
        let t0 = start + HOUR + (mix(seed, 2 * d as u64 + 1) % 20) as i64 * HOUR;
        fail_power_domain(&mut world, az, t0, t0 + POWER_MS);
    }
    world
}

/// A live window `[0, end)` of the 384-VM fleet with FY2024 background
/// faults, a four-cluster CPU-contention rollout wave, and one power-domain
/// event in a seeded AZ.
#[derive(Debug)]
pub struct LiveWorld {
    /// The simulated world.
    pub world: SimWorld,
    /// The AZ that loses power.
    pub power_az: String,
}

/// When the power-domain event of seed `seed` starts on day `day` (ms):
/// between 6 and 7 hours into the day, after the rollout wave of day 0
/// (minutes 120–280) has cleared.
pub fn power_start(seed: u64, day: i64) -> i64 {
    day * DAY + 6 * HOUR + (mix(seed, 0x51) % 60) as i64 * MINUTE
}

/// Build the live world over `[0, end)`, the AZ losing power at `power_at`.
pub fn live_world(seed: u64, end: i64, power_at: i64) -> LiveWorld {
    let mut world = SimWorld::new(live_fleet(), seed);
    let days = ((end + DAY - 1) / DAY).max(1) as usize;
    for d in 0..days {
        let start = d as i64 * DAY;
        background_faults(&mut world, start, start + DAY, &fy2024_rates(d, FY_DAYS));
    }
    let clusters = world.fleet.cluster_names();
    let first = (mix(seed, 0x3A) % clusters.len() as u64) as usize;
    let order: Vec<String> = (0..4)
        .map(|i| clusters[(first + i) % clusters.len()].clone())
        .collect();
    rollout_wave(
        &mut world,
        &order,
        FaultKind::CpuContention { steal: 0.6 },
        2 * HOUR,
        45 * MINUTE,
        25 * MINUTE,
    );
    let azs = world.az_names();
    let power_az = azs[(mix(seed, 0x7C) % azs.len() as u64) as usize].clone();
    fail_power_domain(&mut world, &power_az, power_at, power_at + POWER_MS);
    LiveWorld { world, power_az }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_have_the_stated_sizes() {
        assert_eq!(batch_fleet().vms().len(), 1536);
        assert_eq!(live_fleet().vms().len(), 384);
    }

    #[test]
    fn worlds_are_a_function_of_the_seed() {
        let a = live_world(7, DAY, power_start(7, 0));
        let b = live_world(7, DAY, power_start(7, 0));
        let c = live_world(8, DAY, power_start(8, 0));
        assert_eq!(a.world.faults(), b.world.faults());
        assert_eq!(a.power_az, b.power_az);
        assert_ne!(a.world.faults(), c.world.faults());
        assert!(!az_vms(&a.world.fleet, &a.power_az).is_empty());
    }
}
