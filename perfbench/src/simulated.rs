//! The simulator workloads, all over 10⁵ peers with
//! `TruncatedPareto(1.5, 0.01)` keys:
//!
//! * `traffic-zipf-100k` — `Simulator::from_frozen` on a frozen harmonic
//!   overlay, open-loop Zipf lookups through congested queues, token
//!   buckets and the hot-key cache; no churn, no maintenance timers.
//! * `churn-storage-100k` — the same boot, with symmetric churn,
//!   background lookups, stabilize and refresh timers, and replicated
//!   storage with range queries and anti-entropy repair. Its traced run
//!   also measures the `sim.sharded` layer: the same world (minus range
//!   queries) through `ShardedSimulator` at one worker per core, against
//!   its serial oracle.
//!
//! Set-up (build and freeze the overlay image, then boot from it) runs
//! [`SETUPS`] times. The last simulator then runs a fixed horizon in
//! short `run_until` slices, and the deterministic metrics are taken at
//! the horizon. While `--seconds` have not passed, the run goes on in
//! further slices, which only add samples to `events_per_s` and
//! `lookups_per_s`, both taken after a warm-up: the fastest slice in the
//! traffic world, the upper-quartile slice in the churn world.
//!
//! The traced run sets up once, runs the horizon untraced, then boots
//! again and runs it traced, in one-simulated-second slices with a span
//! and the `SimMetrics` counter deltas each. Its work does not depend on
//! `--seconds`, so its self times compare across runs.

use crate::report::{check, max, median, must, quantile, Kind, Report};
use crate::trace::Tracer;
use crate::{pareto, static_pipeline, Ctx};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sw_core::{LinkSampler, SmallWorldBuilder};
use sw_graph::TopologyStore;
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::Rng;
use sw_overlay::Overlay;
use sw_sim::{
    CacheConfig, ChurnConfig, CongestionConfig, Histogram, LatencyModel, ShardedSimulator,
    SimConfig, SimMetrics, SimTime, Simulator, StorageConfig, TrafficConfig, WorkloadConfig,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    Traffic,
    ChurnStorage,
}

/// Set-ups per untraced run: build and freeze the overlay image, then
/// boot from it. Each takes well under a second at 10⁵ peers.
const SETUPS: usize = 5;

/// Shards of the sharded engine (its workers are the host's cores).
const SHARDS: usize = 8;

/// Offered open-loop lookup rate of the traffic world, per second.
const TRAFFIC_RATE: f64 = 2_000.0;

struct Plan {
    peers: usize,
    /// Simulated seconds at whose end the deterministic metrics are taken.
    horizon: u64,
    /// Simulated seconds before `events_per_s` starts counting.
    warmup: u64,
    /// Simulated milliseconds per `run_until` slice of the untraced run;
    /// each slice after the warm-up is one `events_per_s` sample.
    sample_ms: u64,
}

/// Anti-entropy repair and stabilize periods of the churn+storage world.
/// A replica lease lives 4 repair + 2 stabilize periods (18 s) without
/// renewal, so the boot-time grace leases lapse within its horizon.
const REPAIR_SECS: u64 = 2;
const STABILIZE_SECS: u64 = 5;

fn plan(world: World, tiny: bool) -> Plan {
    if tiny {
        return Plan {
            peers: 2_000,
            horizon: 3,
            warmup: 1,
            sample_ms: 1_000,
        };
    }
    match world {
        // 4.8·10⁵ lookups by the horizon, so `lookup_p99_ms` rests on
        // thousands of tail samples.
        World::Traffic => Plan {
            peers: 100_000,
            horizon: 240,
            warmup: 10,
            sample_ms: 2_000,
        },
        // One repair period past the lease TTL: every peer has run a
        // repair round, and its lease garbage collection, after the
        // grace leases lapsed.
        World::ChurnStorage => Plan {
            peers: 100_000,
            horizon: 4 * REPAIR_SECS + 2 * STABILIZE_SECS + REPAIR_SECS + 1,
            warmup: STABILIZE_SECS,
            sample_ms: 100,
        },
    }
}

fn density() -> Arc<dyn KeyDistribution> {
    Arc::new(pareto())
}

/// Per-hop latency of every world: continuous, so simulated lookup
/// latencies do not collapse onto whole hop counts; its 30 ms floor is
/// the sharded engine's window width.
fn latency() -> LatencyModel {
    LatencyModel::Uniform(SimTime::from_millis(30), SimTime::from_millis(70))
}

fn traffic_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: latency(),
        stabilize_interval: None,
        refresh_interval: None,
        workload: WorkloadConfig { lookup_rate: 0.0 },
        congestion: CongestionConfig {
            service_secs_per_msg: 10e-3,
            queue_cap: 32,
            link_rate: 2_000.0,
            link_burst: 64.0,
        },
        traffic: TrafficConfig {
            rate: TRAFFIC_RATE,
            zipf_s: 0.9,
            hot_keys: 1_024,
            gateways: 32,
            cache: Some(CacheConfig {
                capacity: 256,
                ttl: SimTime::from_secs(2),
            }),
        },
        ..SimConfig::default()
    }
}

/// The churn+storage world; `ranges` is off for the sharded engine,
/// which does not model range queries.
fn storage_config(seed: u64, peers: usize, ranges: bool) -> SimConfig {
    SimConfig {
        seed,
        initial_n: peers,
        latency: latency(),
        churn: ChurnConfig::symmetric(8.0),
        workload: WorkloadConfig {
            lookup_rate: 2_000.0,
        },
        storage: StorageConfig {
            put_rate: 20.0,
            get_rate: 20.0,
            range_rate: if ranges { 1.0 } else { 0.0 },
            replication: 3,
            preload: peers / 5,
            range_width: 0.02,
            repair_interval: Some(SimTime::from_secs(REPAIR_SECS)),
            repair_byte_secs: 1e-6,
            routing_mode: None,
        },
        stabilize_interval: Some(SimTime::from_secs(STABILIZE_SECS)),
        refresh_interval: Some(SimTime::from_secs(30)),
        ..SimConfig::default()
    }
}

/// Salt separating the overlay-image stream from the simulator's seed.
const IMAGE_SALT: u64 = 0x1_3A9E;

/// Wall times and sizes of one overlay-image build.
struct Image {
    build_s: f64,
    freeze_s: f64,
    /// `resident_bytes()` of the built network.
    resident_bytes: usize,
    /// Size of the frozen image file.
    file_bytes: u64,
}

/// Builds the harmonic overlay with `SmallWorldBuilder` and freezes its
/// long links, with the per-node key lane, as a simulator preload image.
fn build_image(ctx: &Ctx, tr: &mut Tracer, peers: usize, path: &Path) -> Image {
    let builder = SmallWorldBuilder::new(peers)
        .distribution(Box::new(pareto()))
        .sampler(LinkSampler::Harmonic)
        .parallelism(ctx.threads);
    let mut rng = Rng::new(ctx.seed ^ IMAGE_SALT);
    let t = Instant::now();
    let net = must("build", tr.span("core.build", || builder.build(&mut rng)));
    let build_s = t.elapsed().as_secs_f64();
    let keys: Vec<f64> = net.placement().keys().iter().map(|k| k.get()).collect();
    let t = Instant::now();
    must(
        "freeze",
        tr.span("graph.freeze", || {
            TopologyStore::heap(net.long_topology().clone()).freeze_to(path, Some(&keys))
        }),
    );
    Image {
        build_s,
        freeze_s: t.elapsed().as_secs_f64(),
        resident_bytes: net.resident_bytes(),
        file_bytes: must("image-size", std::fs::metadata(path)).len(),
    }
}

/// Wall time and plane events of one `run_until` slice.
struct Slice {
    /// Simulated millisecond the slice ends at.
    end_ms: u64,
    events: u64,
    wall_s: f64,
}

/// The two engines, as far as the benchmark drives them.
trait Engine {
    fn run_until(&mut self, at: SimTime);
    fn metrics(&self) -> &SimMetrics;
}

impl Engine for Simulator {
    fn run_until(&mut self, at: SimTime) {
        Simulator::run_until(self, at);
    }
    fn metrics(&self) -> &SimMetrics {
        Simulator::metrics(self)
    }
}

impl Engine for ShardedSimulator {
    fn run_until(&mut self, at: SimTime) {
        ShardedSimulator::run_until(self, at);
    }
    fn metrics(&self) -> &SimMetrics {
        ShardedSimulator::metrics(self)
    }
}

/// Runs the simulation from `from_ms` to `to_ms` in `run_until` slices
/// of `step_ms` simulated milliseconds, appending each slice to `out`.
/// Traced, every slice is a span named `name` that carries the
/// `SimMetrics` counter deltas of its slice.
fn drive(
    tr: &mut Tracer,
    name: &str,
    sim: &mut impl Engine,
    (from_ms, to_ms, step_ms): (u64, u64, u64),
    out: &mut Vec<Slice>,
) {
    let mut at = from_ms;
    while at < to_ms {
        at = (at + step_ms).min(to_ms);
        let before = tr.enabled().then(|| sim.metrics().clone());
        let events = sim.metrics().events;
        let span = tr.begin(name);
        let t = Instant::now();
        sim.run_until(SimTime::from_millis(at));
        let wall_s = t.elapsed().as_secs_f64();
        let m = sim.metrics();
        tr.end(
            span,
            &before.map_or_else(Vec::new, |b| counter_deltas(&b, m)),
        );
        out.push(Slice {
            end_ms: at,
            events: m.events - events,
            wall_s,
        });
    }
}

/// The slices after the warm-up.
fn counted<'a>(slices: &'a [Slice], p: &Plan) -> impl Iterator<Item = &'a Slice> + Clone {
    let from_ms = p.warmup * 1_000;
    slices.iter().filter(move |s| s.end_ms > from_ms)
}

/// Plane events per wall second over all slices after the warm-up.
fn events_rate(slices: &[Slice], p: &Plan) -> f64 {
    let events: u64 = counted(slices, p).map(|s| s.events).sum();
    let wall: f64 = counted(slices, p).map(|s| s.wall_s).sum();
    events as f64 / wall
}

/// `SimMetrics` counters that moved during one slice.
fn counter_deltas(a: &SimMetrics, b: &SimMetrics) -> Vec<(&'static str, f64)> {
    let d = |x: u64, y: u64| (y - x) as f64;
    vec![
        ("events", d(a.events, b.events)),
        ("lookups", d(a.lookups, b.lookups)),
        ("lookups_ok", d(a.lookups_ok, b.lookups_ok)),
        ("cache_hits", d(a.cache_hits, b.cache_hits)),
        (
            "dropped_overload",
            d(a.msgs_dropped_overload, b.msgs_dropped_overload),
        ),
        (
            "msgs_stabilize",
            d(a.stabilize_messages, b.stabilize_messages),
        ),
        ("msgs_refresh", d(a.refresh_messages, b.refresh_messages)),
        ("msgs_join", d(a.join_messages, b.join_messages)),
        ("msgs_storage", d(a.storage_messages, b.storage_messages)),
        ("msgs_repair", d(a.repair_messages, b.repair_messages)),
        ("joins", d(a.joins, b.joins)),
        ("failures", d(a.failures, b.failures)),
        ("puts", d(a.puts, b.puts)),
        ("gets", d(a.gets, b.gets)),
        ("timeouts", d(a.timeouts, b.timeouts)),
    ]
}

/// Boots a simulator from the frozen image, recording the boot time.
fn boot(tr: &mut Tracer, cfg: &SimConfig, image: &Path, boot_s: &mut Vec<f64>) -> Simulator {
    let t = Instant::now();
    let sim = must(
        "boot",
        tr.span("sim.boot", || {
            Simulator::from_frozen(cfg.clone(), density(), image)
        }),
    );
    boot_s.push(t.elapsed().as_secs_f64());
    sim
}

/// `traffic-zipf-100k` and `churn-storage-100k`.
pub fn run_serial(ctx: &Ctx, world: World, tr: &mut Tracer, rep: &mut Report) {
    let p = plan(world, ctx.tiny);
    let cfg = match world {
        World::Traffic => traffic_config(ctx.seed),
        World::ChurnStorage => storage_config(ctx.seed, p.peers, true),
    };
    let image = ctx.work.join("sim-image.arena");
    let mut off = Tracer::new(false, String::new());

    // Set-up, several times (once when traced): build and freeze the
    // overlay image, then boot from it. The last simulator is run.
    let setups = if ctx.traced { 1 } else { SETUPS };
    let (mut setup_s, mut boot_s, mut images) = (Vec::new(), Vec::new(), Vec::new());
    let mut booted = None;
    for _ in 0..setups {
        drop(booted.take());
        let span = tr.begin("bench.setup");
        let t = Instant::now();
        images.push(build_image(ctx, tr, p.peers, &image));
        booted = Some(boot(tr, &cfg, &image, &mut boot_s));
        setup_s.push(t.elapsed().as_secs_f64());
        tr.end(span, &[]);
        rep.attempted += 3;
    }
    let mut sim = booted.expect("at least one set-up");

    // The run: the horizon, where the deterministic metrics are taken,
    // then (untraced) further slices until --seconds have passed.
    let start = Instant::now();
    let mut slices = Vec::new();
    let step = if ctx.traced { 1_000 } else { p.sample_ms };
    let horizon_ms = p.horizon * 1_000;
    drive(
        &mut off,
        "sim.run_until",
        &mut sim,
        (0, horizon_ms, step),
        &mut slices,
    );
    let m = sim.metrics().clone();
    let (offered, dropped, _, _) = sim.net_counters();
    let tracked = match world {
        World::Traffic => 0,
        World::ChurnStorage => sim.durability_census(ctx.threads).keys as u64 + m.keys_lost,
    };
    let mut at = horizon_ms;
    while !ctx.traced && start.elapsed().as_secs_f64() < ctx.seconds {
        drive(
            &mut off,
            "sim.run_until",
            &mut sim,
            (at, at + step, step),
            &mut slices,
        );
        at += step;
    }
    rep.attempted += slices.len() as u64;
    if world == World::Traffic {
        check_ledger(&mut sim, at.div_ceil(1_000));
        rep.attempted += 1;
    }
    drop(sim);
    let rates: Vec<f64> = counted(&slices, &p)
        .map(|s| s.events as f64 / s.wall_s)
        .collect();
    let e2e = Kind::EndToEnd;
    rep.add(e2e, "setup_s", "s", setup_s);
    // Lookups resolved per wall second: the slice rate in events, times
    // the horizon's lookups per event (which is fixed by the seed). The
    // traffic world's slices all do the same work (a constant offered
    // rate, no timers), so its fastest slice is the code's speed when the
    // host's other tenants are quiet. The churn world's slices differ
    // (timer and repair rounds, churn), so its fastest slice is the one
    // with the cheapest events; its upper-quartile slice is used instead,
    // which still follows the host's fast phases.
    let estimate: fn(&[f64]) -> f64 = match world {
        World::Traffic => max,
        World::ChurnStorage => |xs| quantile(xs, 0.75),
    };
    let lookups: Vec<f64> = rates
        .iter()
        .map(|r| r * m.lookups as f64 / m.events as f64)
        .collect();
    rep.add_best(e2e, "lookups_per_s", "1/s", lookups, estimate);
    report_lookups(rep, &m);
    let detail = Kind::Detail;
    rep.add_best(detail, "events_per_s", "1/s", rates, estimate);
    if world == World::ChurnStorage {
        report_storage(rep, &m, tracked);
    }
    if !ctx.traced {
        return;
    }

    // The same horizon again from a fresh boot, traced: slicing and
    // tracing must leave the metrics bit-identical.
    let span = tr.begin("bench.repeat");
    let mut again = boot(tr, &cfg, &image, &mut boot_s);
    let mut traced = Vec::new();
    drive(
        tr,
        "sim.run_until",
        &mut again,
        (0, horizon_ms, 1_000),
        &mut traced,
    );
    tr.end(span, &[]);
    rep.attempted += 1 + p.horizon;
    let (fp, fp0) = (again.metrics().fingerprint(), m.fingerprint());
    check("sim.trace-is-bit-neutral", fp == fp0, || {
        format!("traced fingerprint {fp:#x} differs from the untraced run's {fp0:#x}")
    });
    drop(again);

    let layer = Kind::Layer;
    let bs = median(&images.iter().map(|i| i.build_s).collect::<Vec<_>>());
    rep.one(layer, "core.build_s", "s", bs);
    rep.one(layer, "core.build_peers_per_s", "1/s", p.peers as f64 / bs);
    rep.add(
        layer,
        "graph.freeze_s",
        "s",
        images.iter().map(|i| i.freeze_s).collect(),
    );
    let last = images.last().expect("at least one set-up");
    rep.one(
        layer,
        "graph.image_bytes_per_peer",
        "B",
        last.file_bytes as f64 / p.peers as f64,
    );
    rep.one(
        layer,
        "graph.resident_bytes_per_peer",
        "B",
        last.resident_bytes as f64 / p.peers as f64,
    );
    // The simulator routes inside its own handlers: no `route_batch` call.
    static_pipeline::report_tiers(rep, None);
    report_counters(rep, &m);
    rep.one(
        layer,
        "trace.overhead",
        "ratio",
        events_rate(&traced, &p) / events_rate(&slices, &p),
    );

    rep.add(detail, "sim.boot_s", "s", boot_s);
    let slice_ms: Vec<f64> = traced.iter().map(|s| s.wall_s * 1e3).collect();
    rep.one(detail, "sim.slice_ms.p50", "ms", median(&slice_ms));
    rep.one(detail, "sim.slice_ms.max", "ms", max(&slice_ms));
    if world == World::Traffic {
        rep.one(
            detail,
            "sim.traffic.cache_hit_ratio",
            "ratio",
            m.cache_hits as f64 / m.lookups.max(1) as f64,
        );
        rep.one(
            detail,
            "sim.traffic.drop_ratio",
            "ratio",
            dropped as f64 / offered.max(1) as f64,
        );
        rep.one(
            detail,
            "sim.traffic.queue_wait_p99_ms",
            "sim_ms",
            m.queue_wait.quantile(0.99) * 1e3,
        );
    }
    match world {
        World::ChurnStorage => sharded_layer(ctx, tr, rep),
        World::Traffic => report_sharded_counts(rep, None),
    }
}

/// Conservation ledger: stops the generator, drains the plane, and
/// checks that every network message was accounted exactly once.
fn check_ledger(sim: &mut Simulator, horizon: u64) {
    sim.set_traffic_rate(0.0);
    let mut until = horizon;
    while sim.in_flight_walks() > 0 && until < horizon + 120 {
        until += 10;
        sim.run_until(SimTime::from_secs(until));
    }
    check("traffic.drained", sim.in_flight_walks() == 0, || {
        format!("{} walks still in flight", sim.in_flight_walks())
    });
    let (o, d, v, x) = sim.net_counters();
    check("traffic.conservation-ledger", o == d + v + x, || {
        format!("offered {o} != dropped {d} + delivered {v} + dead {x}")
    });
}

/// The `sim.sharded` layer, measured in the churn-storage traced run: one
/// untraced and one traced run of the churn+storage world (minus range
/// queries) through `ShardedSimulator`, and the serial oracle on the
/// same world. Reports only `sharded.*` metrics.
fn sharded_layer(ctx: &Ctx, tr: &mut Tracer, rep: &mut Report) {
    let p = plan(World::ChurnStorage, ctx.tiny);
    let cfg = storage_config(ctx.seed, p.peers, false);
    let horizon = SimTime::from_secs(p.horizon);
    let mut run = |t: &mut Tracer, shards: usize| {
        let span = t.begin("bench.sharded");
        let tb = Instant::now();
        let mut sim = t.span("sharded.boot", || {
            ShardedSimulator::new(cfg.clone(), density(), shards, horizon)
        });
        sim.set_workers(ctx.threads);
        let boot_s = tb.elapsed().as_secs_f64();
        let mut slices = Vec::new();
        let run_s = if shards == 1 {
            let t0 = Instant::now();
            t.span("sharded.run_serial_until", || sim.run_serial_until(horizon));
            t0.elapsed().as_secs_f64()
        } else {
            let horizon_ms = p.horizon * 1_000;
            drive(
                t,
                "sharded.run_until",
                &mut sim,
                (0, horizon_ms, 1_000),
                &mut slices,
            );
            slices.iter().map(|s| s.wall_s).sum()
        };
        t.end(span, &[]);
        rep.attempted += 2;
        let digest = (sim.fingerprint(), sim.topology_digest(), sim.events());
        (digest, boot_s, run_s, slices, sim.delta())
    };
    let (untraced, _, untraced_s, _, delta) = run(&mut Tracer::new(false, String::new()), SHARDS);
    let (traced, boot_s, _, slices, _) = run(tr, SHARDS);
    check("sharded.trace-is-bit-neutral", traced == untraced, || {
        format!("(fingerprint, topology digest, events) {traced:x?} != {untraced:x?}")
    });
    let (serial, _, serial_s, _, _) = run(tr, 1);
    check("sharded.matches-serial-oracle", serial == untraced, || {
        format!("serial {serial:x?} != windowed {untraced:x?}")
    });

    let detail = Kind::Detail;
    let events = untraced.2 as f64;
    let windows = horizon.as_micros() as f64 / delta.as_micros() as f64;
    report_sharded_counts(rep, Some((windows, events / windows)));
    rep.one(detail, "sharded.boot_s", "s", boot_s);
    rep.one(
        detail,
        "sharded.slice_ms.p50",
        "ms",
        median(&slices.iter().map(|s| s.wall_s * 1e3).collect::<Vec<_>>()),
    );
    rep.one(
        detail,
        "sharded.serial_events_per_s",
        "1/s",
        events / serial_s,
    );
    rep.one(
        detail,
        "sharded.parallel_speedup",
        "ratio",
        serial_s / untraced_s,
    );
}

/// End-to-end lookup metrics shared by every simulator workload; the
/// latencies are simulated milliseconds.
fn report_lookups(rep: &mut Report, m: &SimMetrics) {
    let e2e = Kind::EndToEnd;
    rep.one(e2e, "lookup_ok_ratio", "ratio", m.success_rate());
    rep.one(e2e, "hops_mean", "hops", m.hops.mean());
    rep.one(
        e2e,
        "lookup_p50_ms",
        "ms",
        latency_ms(&m.lookup_latency, 0.5),
    );
    rep.one(
        e2e,
        "lookup_p99_ms",
        "ms",
        latency_ms(&m.lookup_latency, 0.99),
    );
}

/// Quantile `q` of a latency histogram in milliseconds, interpolated
/// linearly within its bucket. `Histogram::quantile` reports only the
/// bucket's upper edge, which moves in ~6 % steps and can read the same
/// on every seed. The ranks the bucket holds are found by bisection on
/// that function, and its lower edge from the log-bucket layout (exact
/// below 16 µs, then 16 sub-buckets per power of two).
fn latency_ms(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Upper bucket edge, in seconds, of the `r`-th smallest sample.
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = at(rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) >= upper {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) <= upper {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let last = lo;
    let upper_us = (upper * 1e6).round() as u64;
    let width = if upper_us < 16 {
        1
    } else {
        1u64 << (63 - upper_us.leading_zeros() - 4)
    };
    let lower_us = (upper_us + 1 - width) as f64;
    let within = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    (lower_us + within * width as f64) / 1e3
}

/// Storage ratios of the churn+storage world; `tracked` is the number of
/// keys the engine's loss census covers.
fn report_storage(rep: &mut Report, m: &SimMetrics, tracked: u64) {
    let detail = Kind::Detail;
    let ops = (m.puts + m.gets).max(1);
    rep.one(
        detail,
        "storage_ok_ratio",
        "ratio",
        (m.puts_ok + m.gets_ok) as f64 / ops as f64,
    );
    rep.one(
        detail,
        "key_survival_ratio",
        "ratio",
        1.0 - m.keys_lost as f64 / tracked.max(1) as f64,
    );
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    rep.one(
        detail,
        "dht.put_ok_ratio",
        "ratio",
        ratio(m.puts_ok, m.puts),
    );
    rep.one(
        detail,
        "dht.get_ok_ratio",
        "ratio",
        ratio(m.gets_ok, m.gets),
    );
    rep.one(
        detail,
        "dht.get_fallback_ratio",
        "ratio",
        ratio(m.gets_fallback, m.gets),
    );
    rep.one(detail, "dht.repair_overhead", "ratio", m.repair_overhead());
}

/// Per-layer counters of the `sim`, `sim.traffic`, `dht` and `graph`
/// layers, from the horizon's `SimMetrics`. Every workload reports them:
/// a layer the workload leaves idle reports zeros.
pub fn report_counters(rep: &mut Report, m: &SimMetrics) {
    let layer = Kind::Layer;
    for (name, v) in [
        ("sim.events", m.events),
        ("sim.msgs.stabilize", m.stabilize_messages),
        ("sim.msgs.refresh", m.refresh_messages),
        ("sim.msgs.join", m.join_messages),
        ("sim.msgs.storage", m.storage_messages),
        ("sim.msgs.repair", m.repair_messages),
        ("sim.inflight_peak", m.inflight_peak),
        ("sim.timeouts", m.timeouts),
        ("sim.lookups_stranded", m.lookups_stranded),
        ("sim.traffic.cache_hits", m.cache_hits),
        ("sim.traffic.drops", m.msgs_dropped_overload),
        ("sim.traffic.queue_depth_peak", m.queue_depth_peak),
        ("dht.puts_failed", m.puts - m.puts_ok),
        ("dht.gets_failed", m.gets - m.gets_ok),
        ("dht.gets_fallback", m.gets_fallback),
        ("dht.read_repairs", m.gets_read_repaired),
        ("dht.keys_under_replicated", m.keys_under_replicated),
        ("dht.keys_lost", m.keys_lost),
        ("graph.topology_writes", m.joins + m.failures),
    ] {
        rep.one(layer, name, "count", v as f64);
    }
    rep.one(layer, "dht.repair_bytes", "B", m.repair_bytes as f64);
}

/// The sharded engine's per-layer counters, `(windows, events per
/// window)`; `None` (zeros) for a workload that does not run it.
pub fn report_sharded_counts(rep: &mut Report, counts: Option<(f64, f64)>) {
    let (windows, per_window) = counts.unwrap_or((0.0, 0.0));
    rep.one(Kind::Layer, "sharded.windows", "count", windows);
    rep.one(
        Kind::Layer,
        "sharded.events_per_window",
        "count",
        per_window,
    );
}
