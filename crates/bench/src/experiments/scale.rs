//! E20 — scaling the CSR substrate: construction throughput, routing
//! throughput against the reference kernel, resident bytes/peer, and the
//! freeze → reopen path, swept over n × {uniform, Pareto}.
//!
//! This is the experiment behind the ROADMAP's ">10⁷ peers" open item:
//! the overlay is built once through the allocation-free arena pipeline
//! (`build_frozen` on unix — per-peer sampling with the harmonic rule
//! straight into write-through mappings of the destination files, so
//! `construct_secs` covers the whole pipeline and `freeze_secs` ≈ 0;
//! E21 compares this against the old heap path), then routed over the
//! same workload by the slice-based reference kernel and by the
//! network's own `route_batch` (the interleaved kernel), with the hop
//! sequences asserted bit-identical, reopened *trusted* (no O(m)
//! validation scans; we froze the file ourselves) and routed again. Writes
//! `BENCH_scale.json` (repo root, CI artifact) alongside the table and
//! CSV; rows merge by id so E21's `shard/*` rows persist.
//!
//! The full sweep is n ∈ {10⁵, 10⁶, 10⁷}; `--quick` (CI smoke) runs
//! {10⁴, 4·10⁴}. Set `SW_E20_MAX_N` to cap the sweep (e.g.
//! `SW_E20_MAX_N=1000000` skips the 10⁷ cell on small machines: that
//! cell needs ~10 GB of RAM and, single-threaded, tens of minutes).

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_core::config::LinkSampler;
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};
use sw_keyspace::Rng;
use sw_overlay::route::{route_batch, survey_queries, RouteOptions, TargetModel};
use sw_overlay::{Overlay, Placement};

/// Routes a [`SmallWorldNetwork`]'s contact table through the
/// *slice-based reference* kernel (the `Overlay` default), so the
/// reference and the network's own routing run over the same rows.
struct ReferenceKernel<'a>(&'a SmallWorldNetwork);

impl Overlay for ReferenceKernel<'_> {
    fn name(&self) -> String {
        format!("{}+reference", self.0.name())
    }
    fn placement(&self) -> &Placement {
        self.0.placement()
    }
    fn topology(&self) -> &sw_graph::Topology {
        self.0.topology()
    }
    // No `route` override: the trait default is `greedy_route`, the
    // slice-based reference engine.
}

struct ScaleRow {
    id: String,
    n: usize,
    construct_s: f64,
    peers_per_s: f64,
    routes_per_s_ref: f64,
    /// `route_batch` over the network itself.
    routes_per_s: f64,
    speedup_vs_reference: f64,
    bytes_per_peer: f64,
    freeze_s: f64,
    open_s: f64,
    hops_mean: f64,
}

/// E20 — CSR substrate at scale (see module docs).
pub fn e20_scale(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![10_000, 40_000]
    } else {
        vec![100_000, 1_000_000, 10_000_000]
    };
    let max_n: usize = std::env::var("SW_E20_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let sizes: Vec<usize> = sizes.into_iter().filter(|&n| n <= max_n).collect();
    if sizes.is_empty() {
        println!("E20: SW_E20_MAX_N filtered out every size — nothing to run");
        return;
    }
    let queries = ctx.queries(4096);
    let mut table = Table::new(
        format!("E20: CSR substrate at scale (harmonic sampler, {queries} member lookups/cell)"),
        &[
            "distribution",
            "n",
            "construct (s)",
            "peers/s",
            "routes/s (ref)",
            "routes/s",
            "speedup vs ref",
            "bytes/peer",
            "freeze (s)",
            "open (s)",
            "hops",
        ],
    );
    // Constructors, not instances: the builder (a `Box`) and the reopen
    // path (an `Arc`) both draw from the same single definition, so the
    // parameters cannot diverge.
    type MakeDist = fn() -> Box<dyn KeyDistribution>;
    let dists: Vec<(&str, MakeDist)> = vec![
        ("uniform", || Box::new(Uniform)),
        ("pareto(1.5,0.01)", || {
            Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid"))
        }),
    ];
    let mut rows: Vec<ScaleRow> = Vec::new();
    for &n in &sizes {
        for &(dname, make) in &dists {
            let row = run_cell(ctx, n, dname, make, queries);
            table.row(vec![
                dname.to_string(),
                row.n.to_string(),
                f2(row.construct_s),
                format!("{:.0}", row.peers_per_s),
                format!("{:.0}", row.routes_per_s_ref),
                format!("{:.0}", row.routes_per_s),
                f2(row.speedup_vs_reference),
                format!("{:.1}", row.bytes_per_peer),
                f2(row.freeze_s),
                f2(row.open_s),
                f2(row.hops_mean),
            ]);
            rows.push(row);
        }
    }
    table.print();
    ctx.write_csv(&table, "e20_scale.csv");
    write_snapshot(&rows);
    println!(
        "  expected shape: construction peers/s decays slowly in n (per-peer \
         sampling is O(log n)); the two kernels produce identical hop sequences \
         (asserted); the network's interleaved route_batch ties the reference \
         while the table is cache-resident and pulls ahead once it spills out \
         of cache and each hop is a DRAM miss the pipeline can overlap; bytes/peer \
         ~8·(2 + avg degree) + lanes, growing with log n via the out-degree; \
         reopening a frozen overlay costs a read, not a rebuild \
         (open (s) ≪ construct (s))"
    );
}

/// One (n, distribution) cell: build straight into the arena (the
/// pipeline E21 dissects), route both kernels, freeze, reopen
/// *trusted*, route again, verify bit-identity throughout.
fn run_cell(
    ctx: &Ctx,
    n: usize,
    dname: &str,
    make_dist: fn() -> Box<dyn KeyDistribution>,
    queries: usize,
) -> ScaleRow {
    println!("  [e20] {dname} n={n}: building…");
    let mut rng = Rng::new(ctx.seed ^ 20 ^ n as u64);
    let builder = SmallWorldBuilder::new(n)
        .distribution(make_dist())
        .sampler(LinkSampler::Harmonic)
        .parallelism(0);
    let dir = ctx::scratch_dir().join(format!(
        "sw-e20-{}-{n}",
        dname.replace(['(', ')', ','], "-")
    ));
    let t0 = Instant::now();
    // Write-through build: the arenas are assembled inside mappings of
    // the destination files, so construct_secs covers the whole pipeline
    // and the freeze column collapses to ~0 (there is nothing left to
    // copy when the build seals).
    #[cfg(all(unix, target_pointer_width = "64"))]
    let (build, construct_s, freeze_s) = {
        let b = builder.build_frozen(&mut rng, &dir).expect("n >= 4");
        (b, t0.elapsed().as_secs_f64(), 0.0)
    };
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let (build, construct_s, freeze_s) = {
        let b = builder.build_to_arena(&mut rng).expect("n >= 4");
        let construct_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        b.freeze_to(&dir).expect("freeze overlay");
        (b, construct_s, t0.elapsed().as_secs_f64())
    };
    let net = build.into_network();

    let workload = survey_queries(net.placement(), queries, TargetModel::MemberKeys, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };

    // Reference: the slice kernel over the same contact table. The
    // arena-backed network materializes its heap CSR lazily; an untimed
    // pass warms it and the caches, so the timing below measures routing.
    route_batch(&ReferenceKernel(&net), &workload, &opts, 0);
    let t0 = Instant::now();
    let ref_results = route_batch(&ReferenceKernel(&net), &workload, &opts, 0);
    let ref_s = t0.elapsed().as_secs_f64();
    // The network's own batched path: the interleaved kernel.
    let t0 = Instant::now();
    let results = route_batch(&net, &workload, &opts, 0);
    let route_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        ref_results, results,
        "interleaved kernel must produce bit-identical hop sequences"
    );
    let hops_mean =
        results.iter().map(|r| r.hops as f64).sum::<f64>() / results.len().max(1) as f64;

    let bytes_per_peer = net.resident_bytes() as f64 / n as f64;

    // Reopen the frozen dir without the O(m) validation scans (we froze
    // it ourselves two steps ago) and route the same workload over the
    // arena-backed table; results must not change.
    let config = *net.config();
    drop(net);
    let t0 = Instant::now();
    let reopened = SmallWorldNetwork::open_from_trusted(&dir, config, Arc::from(make_dist()))
        .expect("reopen overlay");
    let open_s = t0.elapsed().as_secs_f64();
    let reopened_results = route_batch(&reopened, &workload, &opts, 0);
    assert_eq!(
        results, reopened_results,
        "reopened overlay must route bit-identically"
    );
    std::fs::remove_dir_all(&dir).ok();

    ScaleRow {
        id: format!("scale/{dname}/{n}"),
        n,
        construct_s,
        peers_per_s: n as f64 / construct_s,
        routes_per_s_ref: queries as f64 / ref_s,
        routes_per_s: queries as f64 / route_s,
        speedup_vs_reference: ref_s / route_s,
        bytes_per_peer,
        freeze_s,
        open_s,
        hops_mean,
    }
}

/// Hand-rolled JSON rows (the workspace builds offline — no serde),
/// merged by id into the shared snapshot so E21's `shard/*` rows
/// survive an E20 run and vice versa.
fn write_snapshot(rows: &[ScaleRow]) {
    let merged: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let obj = format!(
                "{{\"id\": \"{}\", \"n\": {}, \"construct_secs\": {:.4}, \
                 \"peers_per_sec\": {:.1}, \"routes_per_sec_reference\": {:.1}, \
                 \"routes_per_sec\": {:.1}, \"speedup_vs_reference\": {:.4}, \
                 \"bytes_per_peer\": {:.1}, \
                 \"freeze_secs\": {:.4}, \"open_secs\": {:.4}, \"hops_mean\": {:.4}, \
                 \"unit\": \"wall_secs\"}}",
                r.id,
                r.n,
                r.construct_s,
                r.peers_per_s,
                r.routes_per_s_ref,
                r.routes_per_s,
                r.speedup_vs_reference,
                r.bytes_per_peer,
                r.freeze_s,
                r.open_s,
                r.hops_mean,
            );
            (r.id.clone(), obj)
        })
        .collect();
    ctx::merge_snapshot("BENCH_scale.json", &merged);
}
