//! Golden fingerprints: seeded runs of small simulated worlds, pinned as
//! constants.
//!
//! The determinism tests elsewhere compare a build with itself (two runs,
//! two backends, two worker counts), so a change that alters *every*
//! run the same way passes them. These constants were recorded once and
//! must only change together with a deliberate change of the simulated
//! behaviour; a performance change must leave them untouched.
//!
//! Each world pins `(SimMetrics::fingerprint(), events)` and is checked
//! on both message-plane backends, so the timing wheel is held to the
//! recorded schedule as well as to the heap.

use std::sync::Arc;
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto};
use sw_sim::traffic::{CacheConfig, CongestionConfig, TrafficConfig};
use sw_sim::{
    ChurnConfig, LatencyModel, PlaneBackend, RoutingMode, ShardedSimulator, SimConfig, SimTime,
    Simulator, StorageConfig, WorkloadConfig,
};

fn pareto() -> Arc<dyn KeyDistribution> {
    Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap())
}

fn latency() -> LatencyModel {
    LatencyModel::Uniform(SimTime::from_millis(30), SimTime::from_millis(70))
}

/// Churn, background lookups, stabilize and refresh rounds, and
/// replicated storage with range queries and anti-entropy repair.
/// Storage operations route iteratively, so the candidate-ladder paths
/// run too.
fn churn_storage(seed: u64, plane: PlaneBackend) -> SimConfig {
    SimConfig {
        seed,
        initial_n: 2_000,
        latency: latency(),
        churn: ChurnConfig::symmetric(2.0),
        workload: WorkloadConfig { lookup_rate: 200.0 },
        storage: StorageConfig {
            put_rate: 20.0,
            get_rate: 20.0,
            range_rate: 2.0,
            replication: 3,
            preload: 400,
            range_width: 0.02,
            repair_interval: Some(SimTime::from_secs(2)),
            repair_byte_secs: 1e-6,
            routing_mode: Some(RoutingMode::Iterative),
        },
        stabilize_interval: Some(SimTime::from_secs(5)),
        refresh_interval: Some(SimTime::from_secs(10)),
        plane,
        ..SimConfig::default()
    }
}

/// Open-loop Zipf lookups through service queues small enough to drop,
/// shaped links and the gateways' hot-key caches, with light churn.
fn zipf_traffic(seed: u64, plane: PlaneBackend) -> SimConfig {
    SimConfig {
        seed,
        initial_n: 2_000,
        latency: latency(),
        churn: ChurnConfig::symmetric(0.5),
        workload: WorkloadConfig { lookup_rate: 0.0 },
        stabilize_interval: None,
        refresh_interval: None,
        congestion: CongestionConfig {
            service_secs_per_msg: 10e-3,
            queue_cap: 8,
            link_rate: 200.0,
            link_burst: 16.0,
        },
        traffic: TrafficConfig {
            rate: 400.0,
            zipf_s: 0.9,
            hot_keys: 256,
            gateways: 16,
            cache: Some(CacheConfig {
                capacity: 64,
                ttl: SimTime::from_secs(2),
            }),
        },
        plane,
        ..SimConfig::default()
    }
}

fn run(cfg: SimConfig, secs: u64) -> (u64, u64) {
    let mut sim = Simulator::new(cfg, pareto());
    sim.run_until(SimTime::from_secs(secs));
    (sim.metrics().fingerprint(), sim.metrics().events)
}

const CHURN_STORAGE_GOLDEN: (u64, u64) = (4_655_566_700_026_786_177, 273_358);
const ZIPF_TRAFFIC_GOLDEN: (u64, u64) = (8_893_989_470_354_921_433, 37_764);
const SHARDED_GOLDEN: (u64, u64) = (531_160_206_379_286_770, 67_079);

#[test]
fn churn_storage_world_matches_its_golden_fingerprint() {
    for plane in [PlaneBackend::Wheel, PlaneBackend::Heap] {
        let got = run(churn_storage(0x601D, plane), 20);
        assert_eq!(got, CHURN_STORAGE_GOLDEN, "{plane:?}");
    }
}

#[test]
fn zipf_traffic_world_matches_its_golden_fingerprint() {
    for plane in [PlaneBackend::Wheel, PlaneBackend::Heap] {
        let got = run(zipf_traffic(0x2195, plane), 20);
        assert_eq!(got, ZIPF_TRAFFIC_GOLDEN, "{plane:?}");
    }
}

/// The sharded engine runs the same plane; its churn world (no range
/// queries, which it does not model) is pinned at two shard counts.
#[test]
fn sharded_world_matches_its_golden_fingerprint() {
    let mut cfg = churn_storage(0x5A4D, PlaneBackend::Wheel);
    cfg.storage.range_rate = 0.0;
    cfg.storage.routing_mode = None;
    let horizon = SimTime::from_secs(12);
    for shards in [1, 3] {
        let mut sim = ShardedSimulator::new(cfg.clone(), pareto(), shards, horizon);
        sim.set_workers(1);
        sim.run_until(horizon);
        assert_eq!(
            (sim.fingerprint(), sim.events()),
            SHARDED_GOLDEN,
            "P={shards}"
        );
    }
}
