//! The interleaved multi-walk routing kernel — AMAC-style
//! (Asynchronous Memory Access Chaining) batch execution of independent
//! greedy walks.
//!
//! # Why interleave
//!
//! A single greedy walk is a dependent pointer chase: the CSR offset
//! pair of the current peer must arrive before its edge row can be
//! fetched, and the row must arrive before the next peer is known. At
//! n ≥ 10⁶ the table outgrows the caches, every one of those loads is a
//! DRAM miss, and a walk advances at *memory latency*.
//!
//! Batched workloads (routing surveys, simulator probes, the experiment
//! harness) route thousands of *independent* walks, and independence is
//! exactly what a memory-level-parallelism kernel needs: this module
//! keeps `K` walks in flight as explicit per-walk state machines,
//! advancing each walk one stage per round and software-prefetching the
//! lines the *next* stage will read ([`sw_graph::prefetch`]) one round
//! ahead — so the dependent miss of walk `i` overlaps the scans of
//! walks `i+1..i+K`, and throughput scales with memory *bandwidth*
//! (outstanding-miss capacity) instead of latency.
//!
//! Each walk alternates between two stages:
//!
//! 1. **FetchRow** — the offset pair `offsets[cur..cur+2]` (prefetched
//!    when the walk hopped to `cur`) is loaded, and the edge row
//!    `edges[a..b]` plus its aligned SoA position lane `pos[a..b]` are
//!    prefetched for the next round.
//! 2. **Scan** — the row (now resident) is scanned by the chunked
//!    [`greedy_step_soa`]; the walk hops, retires
//!    (delivered / local minimum / hop budget), or continues, and the
//!    *next* peer's offset pair is prefetched.
//!
//! Retired walks refill their slot from the pending workload in input
//! order, so the pipeline stays full until the tail drains; slots that
//! cannot refill are removed and the remaining walks finish at a
//! narrower width (the "uneven drain" the equivalence proptest covers).
//!
//! # Width 1: why a lone walk still goes through the pipeline
//!
//! A single lookup ([`Overlay::route`](crate::route::Overlay::route) on
//! a table-backed overlay) is a one-element batch at width 1, and that
//! beats the plain one-walk loop over the same lanes it replaced.
//! Measured on a 2-vCPU VM, 2¹⁴ member lookups over a built Pareto
//! network, changing one thing at a time in that loop:
//!
//! | change to the one-walk loop        | 10⁵ peers | 10⁶ peers |
//! |------------------------------------|-----------|-----------|
//! | `prefetch_span` of row + lane      | +64 %     | +32–37 %  |
//! | carried `cur_d` (no key gather)    | +5 %      | −1 – +3 % |
//!
//! The win is the row-wide prefetch. A row's ids and positions span
//! several cache lines; [`prefetch_span`] issues all of those misses at
//! once, where the bare scan takes them one line after another. The
//! carried distance only drops one gather per hop, into a key that the
//! previous scan has usually just touched. Width 1 pays ~13 % for the
//! stage machine against a hand-fused loop with both changes. While the
//! key array is cache-resident the slice reference is still faster on a
//! lone walk (~500k against ~310k routes/s at 10⁵); batches at
//! [`DEFAULT_INTERLEAVE`] beat it at every measured size.
//!
//! # Bit-identity
//!
//! Results are **bit-identical** to a sequential loop of
//! [`crate::route::greedy_route`] over the same queries, for every
//! interleave width: the per-hop decision is the same `greedy_step_soa`
//! scan over the same lanes, and the carried distance equals the
//! recomputed `placement.distance_to(cur, target)` bit-for-bit because
//! both evaluate `|t − p|` (ring-folded) on the same
//! `f64`s — debug builds assert this on every hop. Interleaving order
//! affects only *when* each walk's loads issue, never what they return.

use crate::placement::Placement;
use crate::route::{finish_route, greedy_step_soa, RouteOptions, RouteResult};
use crate::soa::RouteTable;
use sw_graph::prefetch::{prefetch_read, prefetch_span};
use sw_graph::NodeId;
use sw_keyspace::Key;

/// Default number of walks kept in flight per thread.
///
/// E25 sweeps K ∈ {1, 2, 4, 8, 16, 32} at n up to 10⁷ on both heap and
/// mmap-arena tables; throughput rises steeply to K = 8, is near-flat
/// through K = 16–32 (the line-fill buffers are saturated), and 8 keeps
/// the per-walk state well inside L1 — so 8 is the tuned default.
pub const DEFAULT_INTERLEAVE: usize = 8;

/// Hard cap on the interleave width: beyond this the per-walk state no
/// longer fits the L1 working set and wider pipelines only add misses.
pub const MAX_INTERLEAVE: usize = 64;

/// Stage of one in-flight walk (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// `offsets[cur..cur+2]` prefetched; load it, prefetch the row.
    FetchRow,
    /// Row prefetched; scan it and hop / retire.
    Scan,
}

/// One in-flight walk: the explicit state machine AMAC advances.
struct Walk {
    /// Index into the query/result arrays.
    query: usize,
    from: NodeId,
    cur: NodeId,
    goal: NodeId,
    target: Key,
    /// Distance of `cur` to the target — carried from the winning
    /// lane's distance, bit-equal to recomputing via the placement.
    cur_d: f64,
    hops: u32,
    /// Row bounds of `cur` once `FetchRow` has run.
    row: (usize, usize),
    stage: Stage,
    path: Vec<NodeId>,
}

/// Routes a batch of independent greedy lookups through the interleaved
/// kernel, keeping up to `width` walks in flight (clamped to
/// `1..=`[`MAX_INTERLEAVE`]). Results come back in input order and are
/// bit-identical to a sequential loop of the slice-based
/// [`crate::route::greedy_route`] reference for every width.
///
/// This is a *single-threaded* kernel by design: [`crate::route::route_batch`]
/// hands each worker thread a contiguous chunk and the kernel extracts
/// memory-level parallelism within the chunk, so the two axes (threads ×
/// in-flight walks) compose.
pub fn route_interleaved(
    placement: &Placement,
    table: &RouteTable,
    queries: &[(NodeId, Key)],
    opts: &RouteOptions,
    width: usize,
) -> Vec<RouteResult> {
    let metric = placement.topology();
    // Hoist the flat arrays once — the round loop indexes raw slices
    // with zero backend dispatch.
    let store = table.store();
    let offsets = store.offsets();
    let edges = store.edges();
    let pos = store.edge_pos().expect("route table carries lanes");
    let width = width.clamp(1, MAX_INTERLEAVE);

    let mut results: Vec<Option<RouteResult>> = Vec::with_capacity(queries.len());
    results.resize_with(queries.len(), || None);
    let mut next_query = 0usize;
    let mut slots: Vec<Walk> = Vec::with_capacity(width);

    // Starts the walk for query `q`: either an immediately-finished
    // result (already at the goal, or a zero hop budget) written in
    // place, or an in-flight walk with its offset pair prefetched.
    let start = |q: usize, results: &mut Vec<Option<RouteResult>>| -> Option<Walk> {
        let (from, target) = queries[q];
        let goal = placement.nearest(target);
        if from == goal {
            let path = if opts.record_path {
                vec![from]
            } else {
                Vec::new()
            };
            results[q] = Some(finish_route(true, 0, path, from, from, opts));
            return None;
        }
        if opts.max_hops == 0 {
            let path = if opts.record_path {
                vec![from]
            } else {
                Vec::new()
            };
            results[q] = Some(finish_route(false, 0, path, from, from, opts));
            return None;
        }
        let cur_d = placement.distance_to(from, target);
        prefetch_read(&offsets[from as usize]);
        prefetch_read(&offsets[from as usize + 1]);
        let path = if opts.record_path {
            vec![from]
        } else {
            Vec::new()
        };
        Some(Walk {
            query: q,
            from,
            cur: from,
            goal,
            target,
            cur_d,
            hops: 0,
            row: (0, 0),
            stage: Stage::FetchRow,
            path,
        })
    };

    // Prime the pipeline.
    while slots.len() < width && next_query < queries.len() {
        if let Some(w) = start(next_query, &mut results) {
            slots.push(w);
        }
        next_query += 1;
    }

    // Round loop: one stage per walk per round. Any schedule computes
    // the same per-walk answers; rounds only shape the prefetch overlap.
    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let w = &mut slots[i];
            let finished: Option<RouteResult> = match w.stage {
                Stage::FetchRow => {
                    let a = offsets[w.cur as usize] as usize;
                    let b = offsets[w.cur as usize + 1] as usize;
                    w.row = (a, b);
                    prefetch_span(&edges[a..b]);
                    prefetch_span(&pos[a..b]);
                    w.stage = Stage::Scan;
                    None
                }
                Stage::Scan => {
                    debug_assert_eq!(
                        w.cur_d.to_bits(),
                        placement.distance_to(w.cur, w.target).to_bits(),
                        "carried distance must equal the recomputed one at node {}",
                        w.cur
                    );
                    let (a, b) = w.row;
                    match greedy_step_soa(metric, w.target, w.cur_d, &edges[a..b], &pos[a..b]) {
                        None => {
                            // Local minimum away from the goal.
                            let path = std::mem::take(&mut w.path);
                            Some(finish_route(false, w.hops, path, w.from, w.cur, opts))
                        }
                        Some((next, d)) => {
                            w.cur = next;
                            w.cur_d = d;
                            w.hops += 1;
                            if opts.record_path {
                                w.path.push(next);
                            }
                            if next == w.goal {
                                let path = std::mem::take(&mut w.path);
                                Some(finish_route(true, w.hops, path, w.from, next, opts))
                            } else if w.hops >= opts.max_hops {
                                let path = std::mem::take(&mut w.path);
                                Some(finish_route(false, w.hops, path, w.from, next, opts))
                            } else {
                                prefetch_read(&offsets[next as usize]);
                                prefetch_read(&offsets[next as usize + 1]);
                                w.stage = Stage::FetchRow;
                                None
                            }
                        }
                    }
                }
            };
            match finished {
                None => i += 1,
                Some(res) => {
                    results[slots[i].query] = Some(res);
                    // Refill in place from the pending workload so the
                    // pipeline stays full until the tail.
                    loop {
                        if next_query >= queries.len() {
                            slots.swap_remove(i);
                            break;
                        }
                        let q = next_query;
                        next_query += 1;
                        if let Some(w) = start(q, &mut results) {
                            slots[i] = w;
                            i += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every query retires exactly once"))
        .collect()
}

/// Outcome of one interleaved measurement probe: where the walk ended
/// and how many hops it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The peer the walk stopped at (the target iff it succeeded).
    pub final_node: NodeId,
    /// Greedy hops taken.
    pub hops: u32,
}

/// The probe twin of [`route_interleaved`], used by the simulator's
/// `probe_lookups`: walks terminate on *exact arrival* (distance `0.0`
/// to the target key), a local minimum, or the hop budget — the
/// semantics of the simulator's scalar `probe_walk` — rather than on
/// reaching a placement-resolved goal peer. `key_of` resolves the
/// *source* peer's key for the initial distance (the per-hop distances
/// are carried from the scanned lanes, which hold the same bits).
///
/// Outcomes are in input order and bit-identical to the scalar loop for
/// every `width`.
pub fn probe_interleaved(
    table: &RouteTable,
    metric: sw_keyspace::Topology,
    queries: &[(NodeId, Key)],
    max_hops: u32,
    width: usize,
    mut key_of: impl FnMut(NodeId) -> Key,
) -> Vec<ProbeOutcome> {
    let store = table.store();
    let offsets = store.offsets();
    let edges = store.edges();
    let pos = store.edge_pos().expect("route table carries lanes");
    let width = width.clamp(1, MAX_INTERLEAVE);

    let mut results: Vec<Option<ProbeOutcome>> = Vec::with_capacity(queries.len());
    results.resize_with(queries.len(), || None);
    let mut next_query = 0usize;
    let mut slots: Vec<Walk> = Vec::with_capacity(width);

    let mut start = |q: usize, results: &mut Vec<Option<ProbeOutcome>>| -> Option<Walk> {
        let (from, target) = queries[q];
        let cur_d = metric.distance(key_of(from), target);
        if cur_d == 0.0 {
            results[q] = Some(ProbeOutcome {
                final_node: from,
                hops: 0,
            });
            return None;
        }
        prefetch_read(&offsets[from as usize]);
        prefetch_read(&offsets[from as usize + 1]);
        Some(Walk {
            query: q,
            from,
            cur: from,
            goal: from, // unused in probe mode
            target,
            cur_d,
            hops: 0,
            row: (0, 0),
            stage: Stage::FetchRow,
            path: Vec::new(),
        })
    };

    while slots.len() < width && next_query < queries.len() {
        if let Some(w) = start(next_query, &mut results) {
            slots.push(w);
        }
        next_query += 1;
    }

    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let w = &mut slots[i];
            let finished: Option<ProbeOutcome> = match w.stage {
                Stage::FetchRow => {
                    let a = offsets[w.cur as usize] as usize;
                    let b = offsets[w.cur as usize + 1] as usize;
                    w.row = (a, b);
                    prefetch_span(&edges[a..b]);
                    prefetch_span(&pos[a..b]);
                    w.stage = Stage::Scan;
                    None
                }
                Stage::Scan => {
                    let (a, b) = w.row;
                    match greedy_step_soa(metric, w.target, w.cur_d, &edges[a..b], &pos[a..b]) {
                        None => Some(ProbeOutcome {
                            final_node: w.cur,
                            hops: w.hops,
                        }),
                        Some((next, d)) => {
                            w.cur = next;
                            w.cur_d = d;
                            w.hops += 1;
                            // Budget and exact-arrival checks both stop
                            // the walk with the same (node, hops) the
                            // scalar loop reports.
                            if w.hops >= max_hops || d == 0.0 {
                                Some(ProbeOutcome {
                                    final_node: next,
                                    hops: w.hops,
                                })
                            } else {
                                prefetch_read(&offsets[next as usize]);
                                prefetch_read(&offsets[next as usize + 1]);
                                w.stage = Stage::FetchRow;
                                None
                            }
                        }
                    }
                }
            };
            match finished {
                None => i += 1,
                Some(res) => {
                    results[slots[i].query] = Some(res);
                    loop {
                        if next_query >= queries.len() {
                            slots.swap_remove(i);
                            break;
                        }
                        let q = next_query;
                        next_query += 1;
                        if let Some(w) = start(q, &mut results) {
                            slots[i] = w;
                            i += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every probe retires exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{greedy_route, survey_queries, Overlay, TargetModel};
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::Uniform;
    use sw_keyspace::{Rng, Topology};

    fn symphony(n: usize, seed: u64) -> (Symphony, RouteTable) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p, 4, true, &mut rng);
        let pl = o.placement().clone();
        let t = RouteTable::build(o.topology().clone(), |v| pl.key(v).get());
        (o, t)
    }

    fn reference(o: &Symphony, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        queries
            .iter()
            .map(|&(from, t)| greedy_route(o.placement(), o.topology(), from, t, opts))
            .collect()
    }

    #[test]
    fn matches_reference_for_every_width() {
        let (o, table) = symphony(512, 7);
        let mut rng = Rng::new(11);
        let queries = survey_queries(o.placement(), 300, TargetModel::MemberKeys, &mut rng);
        for record_path in [true, false] {
            let opts = RouteOptions {
                record_path,
                ..RouteOptions::for_n(512)
            };
            let want = reference(&o, &queries, &opts);
            for width in [1, 2, 3, 8, 17, 64, 1000] {
                let got = route_interleaved(o.placement(), &table, &queries, &opts, width);
                assert_eq!(got, want, "width={width} record_path={record_path}");
            }
        }
    }

    #[test]
    fn empty_batch_and_single_query() {
        let (o, table) = symphony(64, 3);
        let opts = RouteOptions::for_n(64);
        assert!(route_interleaved(o.placement(), &table, &[], &opts, 8).is_empty());
        let q = [(5 as NodeId, o.placement().key(40))];
        let got = route_interleaved(o.placement(), &table, &q, &opts, 8);
        assert_eq!(got, reference(&o, &q, &opts));
    }

    #[test]
    fn self_routes_and_zero_budget_retire_at_refill() {
        let (o, table) = symphony(128, 5);
        // Every query already at its goal: the pipeline never fills,
        // results still come back in order.
        let qs: Vec<(NodeId, Key)> = (0..40).map(|i| (i, o.placement().key(i))).collect();
        let opts = RouteOptions::for_n(128);
        let got = route_interleaved(o.placement(), &table, &qs, &opts, 4);
        assert_eq!(got, reference(&o, &qs, &opts));
        for r in &got {
            assert!(r.success);
            assert_eq!(r.hops, 0);
        }
        // Zero hop budget: every cross-peer route fails immediately.
        let opts0 = RouteOptions {
            max_hops: 0,
            record_path: true,
        };
        let qs: Vec<(NodeId, Key)> = (0..20).map(|i| (i, o.placement().key(i + 50))).collect();
        let got = route_interleaved(o.placement(), &table, &qs, &opts0, 8);
        assert_eq!(got, reference(&o, &qs, &opts0));
    }

    #[test]
    fn tight_hop_budget_matches_reference() {
        let (o, table) = symphony(256, 9);
        let mut rng = Rng::new(2);
        let queries = survey_queries(o.placement(), 200, TargetModel::UniformKeys, &mut rng);
        for max_hops in [1, 2, 3] {
            let opts = RouteOptions {
                max_hops,
                record_path: true,
            };
            let got = route_interleaved(o.placement(), &table, &queries, &opts, 8);
            assert_eq!(got, reference(&o, &queries, &opts), "max_hops={max_hops}");
        }
    }

    #[test]
    fn probe_matches_scalar_walk() {
        let (o, table) = symphony(512, 13);
        let pl = o.placement();
        let mut rng = Rng::new(17);
        let queries: Vec<(NodeId, Key)> = (0..400)
            .map(|_| {
                let from = rng.index(512) as NodeId;
                let target = pl.key(rng.index(512) as NodeId);
                (from, target)
            })
            .collect();
        let max_hops = 20;
        // Scalar reference: the simulator's probe_walk loop.
        let scalar: Vec<ProbeOutcome> = queries
            .iter()
            .map(|&(from, target)| {
                let mut cur = from;
                let mut hops = 0u32;
                loop {
                    let cur_d = Topology::Ring.distance(pl.key(cur), target);
                    if cur_d == 0.0 {
                        break;
                    }
                    let Some((next, _)) = table.step(Topology::Ring, cur, target, cur_d) else {
                        break;
                    };
                    hops += 1;
                    cur = next;
                    if hops >= max_hops {
                        break;
                    }
                }
                ProbeOutcome {
                    final_node: cur,
                    hops,
                }
            })
            .collect();
        for width in [1, 4, 8, 32] {
            let got = probe_interleaved(&table, Topology::Ring, &queries, max_hops, width, |v| {
                pl.key(v)
            });
            assert_eq!(got, scalar, "width={width}");
        }
    }
}
