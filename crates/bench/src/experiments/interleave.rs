//! E25 — the interleaved AMAC routing kernel: single-thread routes/s vs
//! interleave width K, swept over n × storage backend.
//!
//! This is the measurement behind the interleaved kernel (see
//! `sw_overlay::route`'s module docs): the overlay is built once per n
//! through the write-through arena pipeline, then the *same* member-
//! lookup workload is routed single-threaded through
//!
//! * the slice-based **reference** kernel (the baseline every result is
//!   bit-compared against and every speedup is quoted against), and
//! * the **interleaved** kernel at K ∈ {1, 2, 4, 8, 16, 32} walks in
//!   flight,
//!
//! over both a **heap**-backed routing table and the frozen **arena**
//! reopened from disk (memory-mapped here — `sw-bench` enables
//! `sw-core/mmap` — so the arena cells measure the kernel against page-
//! cache-resident mappings, the deployment shape of a 10⁷-peer image).
//! K = 1 is the degenerate pipeline — how a single `Overlay::route`
//! runs; the win at K ≥ 8 is memory-level parallelism, not code
//! tweaks. Every cell's full `RouteResult` sequence is asserted
//! bit-identical to the reference, so the sweep doubles as an
//! equivalence test at scale.
//!
//! The full sweep is n ∈ {10⁵, 10⁶, 10⁷}; `--quick` (CI smoke) runs
//! {10⁴, 4·10⁴}. Set `SW_E25_MAX_N` to cap the sweep on small machines
//! (the 10⁷ build needs ~2 GB and a couple of minutes). Rows merge by
//! id (`interleave/*`) into `BENCH_routing.json` alongside E19's
//! `routing/*` rows.

use crate::ctx::{self, Ctx};
use crate::table::{f2, Table};
use std::sync::Arc;
use std::time::Instant;
use sw_core::config::LinkSampler;
use sw_core::{SmallWorldBuilder, SmallWorldNetwork};
use sw_keyspace::distribution::Uniform;
use sw_keyspace::Rng;
use sw_overlay::route::{greedy_route, survey_queries, RouteOptions, RouteResult, TargetModel};
use sw_overlay::{route_interleaved, Overlay, RouteTable};

/// Interleave widths swept per (n, backend) cell.
const WIDTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];

struct InterleaveRow {
    id: String,
    backend: &'static str,
    n: usize,
    k: usize,
    queries: usize,
    routes_per_s_interleaved: f64,
    routes_per_s_ref: f64,
    speedup_vs_reference: f64,
}

/// E25 — interleaved multi-walk routing (see module docs).
pub fn e25_interleave(ctx: &Ctx) {
    let sizes: Vec<usize> = if ctx.quick {
        vec![10_000, 40_000]
    } else {
        vec![100_000, 1_000_000, 10_000_000]
    };
    let max_n: usize = std::env::var("SW_E25_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let sizes: Vec<usize> = sizes.into_iter().filter(|&n| n <= max_n).collect();
    if sizes.is_empty() {
        println!("E25: SW_E25_MAX_N filtered out every size — nothing to run");
        return;
    }
    let queries = ctx.queries(4096);
    let mut table = Table::new(
        format!(
            "E25: interleaved AMAC kernel, single-thread ({queries} member lookups/cell, \
             bit-identity vs reference asserted per cell)"
        ),
        &[
            "backend",
            "n",
            "K",
            "routes/s (interleaved)",
            "routes/s (ref)",
            "speedup vs ref",
        ],
    );
    let mut rows: Vec<InterleaveRow> = Vec::new();
    for &n in &sizes {
        run_size(ctx, n, queries, &mut rows);
    }
    for r in &rows {
        table.row(vec![
            r.backend.to_string(),
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.0}", r.routes_per_s_interleaved),
            format!("{:.0}", r.routes_per_s_ref),
            f2(r.speedup_vs_reference),
        ]);
    }
    table.print();
    ctx.write_csv(&table, "e25_interleave.csv");
    write_snapshot(&rows);
    println!(
        "  expected shape: at cache-resident n the reference beats K=1 (its key \
         gathers hit cache) and K matters less; at 10^6-10^7 the interleaved \
         kernel climbs steeply from K=1 to K=8 and flattens by K=16-32 as the \
         line-fill buffers saturate, beating the reference at every n from \
         K=8 on; heap and mmap-arena backends agree once the image is \
         page-cache resident"
    );
}

/// One n: build once through the arena pipeline, then sweep
/// backend × K over the same workload, single-threaded throughout.
fn run_size(ctx: &Ctx, n: usize, queries: usize, rows: &mut Vec<InterleaveRow>) {
    println!("  [e25] n={n}: building…");
    let mut rng = Rng::new(ctx.seed ^ 25 ^ n as u64);
    let builder = SmallWorldBuilder::new(n)
        .distribution(Box::new(Uniform))
        .sampler(LinkSampler::Harmonic)
        .parallelism(0);
    let dir = ctx::scratch_dir().join(format!("sw-e25-{n}"));
    #[cfg(all(unix, target_pointer_width = "64"))]
    let build = builder.build_frozen(&mut rng, &dir).expect("n >= 4");
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    let build = {
        let b = builder.build_to_arena(&mut rng).expect("n >= 4");
        b.freeze_to(&dir).expect("freeze overlay");
        b
    };
    let net = build.into_network();
    let workload = survey_queries(net.placement(), queries, TargetModel::MemberKeys, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };

    // Reference baseline: the slice kernel over the heap CSR (the lazy
    // arena→heap unpack is warmed by this first `topology()` call). The
    // first pass warms the caches; the second is timed.
    let topo = net.topology();
    let route_ref = || -> Vec<RouteResult> {
        workload
            .iter()
            .map(|&(from, t)| greedy_route(net.placement(), topo, from, t, &opts))
            .collect()
    };
    route_ref();
    let t0 = Instant::now();
    let reference = route_ref();
    let ref_s = t0.elapsed().as_secs_f64();

    // Heap-backed table (same CSR, lanes on the heap) vs the frozen
    // arena reopened from disk (mmap-backed under sw-bench).
    let keys: Vec<f64> = net.placement().keys().iter().map(|k| k.get()).collect();
    let heap_table = RouteTable::build_parallel(topo.clone(), &keys, 0);
    let reopened = SmallWorldNetwork::open_from_trusted(&dir, *net.config(), Arc::new(Uniform))
        .expect("reopen overlay");

    let cells: [(&'static str, &SmallWorldNetwork, &RouteTable); 2] = [
        ("heap", &net, &heap_table),
        ("arena", &reopened, reopened.route_table()),
    ];
    for (backend, owner, rt) in cells {
        let placement = owner.placement();
        // Warm this backend's lanes so K=1 is not timed cold.
        route_interleaved(placement, rt, &workload, &opts, WIDTHS[0]);
        for k in WIDTHS {
            let t0 = Instant::now();
            let got = route_interleaved(placement, rt, &workload, &opts, k);
            let s = t0.elapsed().as_secs_f64();
            assert_eq!(
                got, reference,
                "interleaved kernel must be bit-identical to the reference \
                 ({backend}, n={n}, K={k})"
            );
            rows.push(InterleaveRow {
                id: format!("interleave/{backend}/{n}/k{k}"),
                backend,
                n,
                k,
                queries,
                routes_per_s_interleaved: queries as f64 / s,
                routes_per_s_ref: queries as f64 / ref_s,
                speedup_vs_reference: ref_s / s,
            });
        }
    }
    drop(reopened);
    drop(net);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-rolled JSON rows (offline workspace — no serde), merged by id
/// into `BENCH_routing.json` so E19's `routing/*` rows survive an E25
/// run and vice versa.
fn write_snapshot(rows: &[InterleaveRow]) {
    let merged: Vec<(String, String)> = rows
        .iter()
        .map(|r| {
            let obj = format!(
                "{{\"id\": \"{}\", \"backend\": \"{}\", \"n\": {}, \"k\": {}, \
                 \"queries\": {}, \"routes_per_sec_interleaved\": {:.1}, \
                 \"routes_per_sec_reference\": {:.1}, \"speedup_vs_reference\": {:.4}, \
                 \"unit\": \"wall_secs\"}}",
                r.id,
                r.backend,
                r.n,
                r.k,
                r.queries,
                r.routes_per_s_interleaved,
                r.routes_per_s_ref,
                r.speedup_vs_reference,
            );
            (r.id.clone(), obj)
        })
        .collect();
    ctx::merge_snapshot("BENCH_routing.json", &merged);
}
