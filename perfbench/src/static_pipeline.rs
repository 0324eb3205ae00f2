//! `static-pareto-1m`: build, freeze and reopen a 10⁶-peer harmonic
//! overlay over `TruncatedPareto(1.5, 0.01)` keys (the set-up), then
//! route member-key lookups in fixed-size `route_batch` calls over the
//! network as built (heap table) and as reopened (arena table), and
//! single lookups one `Overlay::route` call at a time.
//!
//! Gates: the built and reopened batches are bit-identical; a fixed
//! sample matches `sw_overlay::greedy_route`, the reference kernel; each
//! single call equals the batch result for the same query.

use crate::report::{check, max, median, min, must, quantile, Kind, Report};
use crate::trace::Tracer;
use crate::{pareto, simulated, Ctx};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sw_core::{LinkSampler, SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::{Key, Rng};
use sw_overlay::route::{
    greedy_route, route_batch, survey_queries, RouteOptions, RouteResult, TargetModel,
};
use sw_overlay::{KernelTier, Overlay};

struct Sizes {
    peers: usize,
    /// Full set-ups per untraced run (the traced run sets up once).
    setups: usize,
    /// Distinct queries; rounds cycle through them `batch` at a time.
    pool: usize,
    /// Queries per `route_batch` call.
    batch: usize,
    /// Single `Overlay::route` calls per round.
    singles: usize,
    /// Traced rounds of the traced run, each paired with an untraced one.
    traced_rounds: usize,
    /// Queries checked against the reference kernel.
    reference_sample: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            peers: 4_000,
            setups: 3,
            pool: 2_048,
            batch: 512,
            singles: 128,
            traced_rounds: 3,
            reference_sample: 256,
        }
    } else {
        Sizes {
            peers: 1_000_000,
            setups: 3,
            pool: 1 << 17,
            batch: 1 << 14,
            singles: 1 << 12,
            traced_rounds: 24,
            reference_sample: 4_096,
        }
    }
}

/// Salt separating the query stream from the build stream.
const QUERY_SALT: u64 = 0x51_7A71C;

/// Timings of one round of routing.
#[derive(Default)]
struct Round {
    built_s: f64,
    reopened_s: f64,
    built_hops: u64,
    reopened_hops: u64,
    singles_us: Vec<f64>,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, rep: &mut Report) {
    let z = sizes(ctx.tiny);
    let dir = ctx.work.join("static-net");

    // Set-up: build → freeze → validated open, several times; the last
    // pair is kept for routing.
    let setups = if ctx.traced { 1 } else { z.setups };
    let (mut setup_s, mut build_s, mut freeze_s, mut open_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut nets: Option<(SmallWorldNetwork, SmallWorldNetwork)> = None;
    let mut image_bytes = 0u64;
    for _ in 0..setups {
        drop(nets.take());
        let _ = std::fs::remove_dir_all(&dir);
        let span = tr.begin("bench.setup");
        let builder = SmallWorldBuilder::new(z.peers)
            .distribution(Box::new(pareto()))
            .sampler(LinkSampler::Harmonic)
            .parallelism(ctx.threads);
        let mut rng = Rng::new(ctx.seed);
        let t = Instant::now();
        let net = must("build", tr.span("core.build", || builder.build(&mut rng)));
        build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        must("freeze", tr.span("graph.freeze", || net.freeze_to(&dir)));
        freeze_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let reopened = must(
            "open",
            tr.span("graph.open", || {
                SmallWorldNetwork::open_from(&dir, *net.config(), Arc::clone(net.assumed()))
            }),
        );
        open_s.push(t.elapsed().as_secs_f64());
        tr.end(span, &[]);
        setup_s.push(build_s.last().unwrap() + freeze_s.last().unwrap() + open_s.last().unwrap());
        image_bytes = dir_bytes(&dir);
        rep.attempted += 3;
        nets = Some((net, reopened));
    }
    let (net, reopened) = nets.expect("at least one set-up");
    let n = net.len();
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };
    let mut qrng = Rng::new(ctx.seed ^ QUERY_SALT);
    let pool = survey_queries(net.placement(), z.pool, TargetModel::MemberKeys, &mut qrng);

    // Deterministic pass over the whole pool: path-length and success
    // numbers that do not depend on how many timed rounds fit, plus the
    // reference-kernel gate.
    let span = tr.begin("bench.check");
    let all = route_batch(&reopened, &pool, &opts, ctx.threads);
    let reference: Vec<RouteResult> = pool[..z.reference_sample]
        .iter()
        .map(|&(from, target)| greedy_route(net.placement(), net.topology(), from, target, &opts))
        .collect();
    check(
        "static.matches-reference-kernel",
        reference[..] == all[..z.reference_sample],
        || "route_batch disagrees with sw_overlay::greedy_route".to_string(),
    );
    tr.end(span, &[]);
    rep.attempted += (pool.len() + z.reference_sample) as u64;
    rep.failed += all.iter().filter(|r| !r.success).count() as u64;
    let ok = all.iter().filter(|r| r.success).count();
    let hops: u64 = all
        .iter()
        .filter(|r| r.success)
        .map(|r| u64::from(r.hops))
        .sum();

    // Timed rounds, until --seconds have passed. The traced run instead
    // alternates a fixed number of untraced and traced rounds, so the
    // tracing overhead is measured under the same conditions and the
    // traced work does not depend on --seconds.
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut off = Tracer::new(false, String::new());
    let start = Instant::now();
    let mut r = 0usize;
    let more = |r: usize| {
        if ctx.traced {
            r < 2 * z.traced_rounds
        } else {
            r < 6 || start.elapsed().as_secs_f64() < ctx.seconds
        }
    };
    while more(r) {
        let lo = (r * z.batch) % pool.len();
        let chunk = &pool[lo..lo + z.batch];
        let expect = &all[lo..lo + z.batch];
        let traced_round = ctx.traced && r % 2 == 1;
        let t = if traced_round { &mut *tr } else { &mut off };
        let round = route_round(ctx, t, &net, &reopened, chunk, expect, &opts, z.singles);
        rep.attempted += (2 * z.batch + z.singles) as u64;
        if traced_round {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        r += 1;
    }

    let batch = z.batch as f64;
    let both = |x: &Round| 2.0 * batch / (x.built_s + x.reopened_s);
    let rate: Vec<f64> = untraced.iter().map(both).collect();
    let built_rate: Vec<f64> = untraced.iter().map(|x| batch / x.built_s).collect();
    let reopened_rate: Vec<f64> = untraced.iter().map(|x| batch / x.reopened_s).collect();
    let e2e = Kind::EndToEnd;
    rep.add(e2e, "setup_s", "s", setup_s);
    rep.add_best(e2e, "lookups_per_s", "1/s", rate.clone(), max);
    for (name, q) in [("lookup_p50_ms", 0.5), ("lookup_p99_ms", 0.99)] {
        let per_round = untraced.iter().map(|x| quantile(&x.singles_us, q) / 1e3);
        rep.add_best(e2e, name, "ms", per_round.collect(), min);
    }
    rep.one(
        e2e,
        "lookup_ok_ratio",
        "ratio",
        ok as f64 / all.len() as f64,
    );
    rep.one(e2e, "hops_mean", "hops", hops as f64 / ok.max(1) as f64);

    let detail = Kind::Detail;
    rep.add_best(
        detail,
        "overlay.routes_per_s.built",
        "1/s",
        built_rate.clone(),
        max,
    );
    rep.add_best(
        detail,
        "overlay.routes_per_s.reopened",
        "1/s",
        reopened_rate.clone(),
        max,
    );
    rep.add(detail, "graph.open_s", "s", open_s);

    let chunk_len = z.batch.div_ceil(ctx.threads);
    let tier_built = net.route_table().kernel_tier(chunk_len);
    let tier_reopened = reopened.route_table().kernel_tier(chunk_len);
    rep.label("overlay.kernel_tier.built", tier_built.label());
    rep.label("overlay.kernel_tier.reopened", tier_reopened.label());
    if !ctx.traced {
        return;
    }
    let layer = Kind::Layer;
    let bs = median(&build_s);
    rep.one(layer, "core.build_s", "s", bs);
    rep.one(layer, "core.build_peers_per_s", "1/s", n as f64 / bs);
    rep.one(layer, "graph.freeze_s", "s", median(&freeze_s));
    rep.one(
        layer,
        "graph.image_bytes_per_peer",
        "B",
        image_bytes as f64 / n as f64,
    );
    rep.one(
        layer,
        "graph.resident_bytes_per_peer",
        "B",
        net.resident_bytes() as f64 / n as f64,
    );
    report_tiers(rep, Some((tier_built, tier_reopened)));
    let traced_rate: Vec<f64> = traced.iter().map(both).collect();
    rep.one(
        layer,
        "trace.overhead",
        "ratio",
        max(&traced_rate) / max(&rate),
    );
    // No simulator runs here: its counters are those of an idle engine.
    simulated::report_counters(rep, &sw_sim::SimMetrics::default());
    simulated::report_sharded_counts(rep, None);

    let call_ms: Vec<f64> = traced.iter().map(|x| x.built_s * 1e3).collect();
    rep.one(
        detail,
        "overlay.batch_call_ms.p50",
        "ms",
        quantile(&call_ms, 0.5),
    );
    rep.one(
        detail,
        "overlay.batch_call_ms.p99",
        "ms",
        quantile(&call_ms, 0.99),
    );
    let traced_built: Vec<f64> = traced.iter().map(|x| batch / x.built_s).collect();
    let traced_reopened: Vec<f64> = traced.iter().map(|x| batch / x.reopened_s).collect();
    let rows: u64 = traced.iter().map(|x| x.built_hops + x.reopened_hops).sum();
    let secs: f64 = traced.iter().map(|x| x.built_s + x.reopened_s).sum();
    rep.one(detail, "overlay.rows_per_s", "1/s", rows as f64 / secs);
    rep.one(
        detail,
        "trace.overhead.built",
        "ratio",
        max(&traced_built) / max(&built_rate),
    );
    rep.one(
        detail,
        "trace.overhead.reopened",
        "ratio",
        max(&traced_reopened) / max(&reopened_rate),
    );
}

/// The per-layer kernel tiers of the built and the reopened network's
/// `route_batch` calls; `None` for a workload that makes no such call.
pub fn report_tiers(rep: &mut Report, tiers: Option<(KernelTier, KernelTier)>) {
    let (built, reopened) = tiers.map_or((0.0, 0.0), |(b, r)| (tier_code(b), tier_code(r)));
    rep.one(Kind::Layer, "overlay.kernel_tier.built", "tier", built);
    rep.one(
        Kind::Layer,
        "overlay.kernel_tier.reopened",
        "tier",
        reopened,
    );
}

/// One timed round: a batch over each network, then single calls.
#[allow(clippy::too_many_arguments)]
fn route_round(
    ctx: &Ctx,
    tr: &mut Tracer,
    net: &SmallWorldNetwork,
    reopened: &SmallWorldNetwork,
    chunk: &[(u32, Key)],
    expect: &[RouteResult],
    opts: &RouteOptions,
    singles: usize,
) -> Round {
    let mut round = Round::default();
    let span = tr.begin("overlay.route_batch.built");
    let t = Instant::now();
    let built = route_batch(net, chunk, opts, ctx.threads);
    round.built_s = t.elapsed().as_secs_f64();
    round.built_hops = built.iter().map(|r| u64::from(r.hops)).sum();
    tr.end(
        span,
        &[
            ("routes", chunk.len() as f64),
            ("rows", round.built_hops as f64),
        ],
    );

    let span = tr.begin("overlay.route_batch.reopened");
    let t = Instant::now();
    let again = route_batch(reopened, chunk, opts, ctx.threads);
    round.reopened_s = t.elapsed().as_secs_f64();
    round.reopened_hops = again.iter().map(|r| u64::from(r.hops)).sum();
    tr.end(
        span,
        &[
            ("routes", chunk.len() as f64),
            ("rows", round.reopened_hops as f64),
        ],
    );

    check("static.built-equals-reopened", built == again, || {
        "route_batch over the reopened network differs from the built network".to_string()
    });
    check("static.batch-is-deterministic", again == expect, || {
        "a repeated route_batch call returned different results".to_string()
    });

    let span = tr.begin("overlay.route.singles");
    for (i, &(from, target)) in chunk[..singles].iter().enumerate() {
        let t = Instant::now();
        let one = reopened.route(from, target, opts);
        round.singles_us.push(t.elapsed().as_secs_f64() * 1e6);
        check("static.single-equals-batch", one == again[i], || {
            format!("Overlay::route({from}, {target:?}) differs from route_batch")
        });
    }
    tr.end(span, &[("routes", singles as f64)]);
    round
}

/// Numeric code of a kernel tier, in `KernelTier` declaration order from
/// 1 (0 stands for "no `route_batch` call").
fn tier_code(tier: KernelTier) -> f64 {
    match tier {
        KernelTier::Reference => 1.0,
        KernelTier::Soa => 2.0,
        KernelTier::Interleaved => 3.0,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    must("image-size", std::fs::read_dir(dir))
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}
