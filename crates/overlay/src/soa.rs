//! The key-aligned structure-of-arrays routing table.
//!
//! [`RouteTable`] pairs a frozen CSR topology with a per-edge `f64` lane
//! holding the *ring position of each contact*, stored contiguously next
//! to its CSR edge row. A greedy hop then scans one contiguous `f64`
//! slice (`pos[offsets[u]..offsets[u+1]]`) — one or two sequential
//! cache lines — instead of gathering `placement.key(v)` per contact
//! through a random-access key array. The interleaved kernel
//! ([`crate::interleaved::route_interleaved`]) is the one router over
//! these lanes.
//!
//! The table is a thin `Arc` handle over a
//! [`TopologyStore`], so the same frozen lanes
//! are shared (not copied) between the static router, the simulator's
//! probe snapshots and the experiment harness, and a table reopened from
//! a frozen arena (`freeze_to` → `open_from`) routes through exactly the
//! code a freshly built one does.

use crate::route::{greedy_candidates_soa, greedy_step_soa};
use std::io;
use std::path::Path;
use std::sync::Arc;
use sw_graph::{NodeId, Topology as CsrTopology, TopologyStore};
use sw_keyspace::Key;

/// Which routing kernel serves a batch — the tier code the benchmark
/// reports. [`RouteTable::kernel_tier`] only returns
/// [`KernelTier::Interleaved`]; the other two variants stay because the
/// benchmark's tier codes match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Slice-based scalar reference ([`crate::route::greedy_route`]).
    Reference,
    /// One route at a time over the position lanes (no longer a kernel).
    Soa,
    /// AMAC interleaved batch kernel
    /// ([`crate::interleaved::route_interleaved`]): K walks in flight,
    /// prefetch one round ahead.
    Interleaved,
}

impl KernelTier {
    /// Stable lowercase label for benchmark rows and logs.
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Soa => "soa",
            KernelTier::Interleaved => "interleaved",
        }
    }
}

/// Key-aligned SoA routing table: CSR contact rows plus the contiguous
/// per-edge position lane the chunked greedy kernels scan.
///
/// Cloning is an `Arc` bump — snapshots hand the same frozen lanes to
/// every consumer.
#[derive(Debug, Clone)]
pub struct RouteTable {
    store: Arc<TopologyStore>,
}

impl RouteTable {
    /// Builds the table from a frozen topology, resolving each edge
    /// target's ring position through `pos_of` (one gather at freeze
    /// time — never again on the hot path).
    pub fn build(topo: CsrTopology, mut pos_of: impl FnMut(NodeId) -> f64) -> RouteTable {
        let pos: Box<[f64]> = topo.edges().iter().map(|&v| pos_of(v)).collect();
        RouteTable {
            store: Arc::new(TopologyStore::heap_with_pos(topo, pos)),
        }
    }

    /// Builds the table with the position gather fanned out across
    /// `threads` workers (`0` = auto) — the freeze-time path of
    /// large-`n` construction. Bit-identical to [`RouteTable::build`]
    /// for every thread count (each lane is a pure function of its edge).
    pub fn build_parallel(topo: CsrTopology, node_pos: &[f64], threads: usize) -> RouteTable {
        assert_eq!(node_pos.len(), topo.len(), "one position per node");
        let edges = topo.edges();
        let pos: Box<[f64]> =
            sw_graph::par::par_map(edges.len(), threads, |e| node_pos[edges[e] as usize])
                .into_boxed_slice();
        RouteTable {
            store: Arc::new(TopologyStore::heap_with_pos(topo, pos)),
        }
    }

    /// Wraps an existing store (e.g. an arena reopened from disk).
    ///
    /// # Errors
    ///
    /// Fails if the store carries no per-edge position lane.
    pub fn from_store(store: Arc<TopologyStore>) -> Result<RouteTable, Arc<TopologyStore>> {
        if store.edge_pos().is_none() {
            return Err(store);
        }
        Ok(RouteTable { store })
    }

    /// The shared backing store.
    pub fn store(&self) -> &Arc<TopologyStore> {
        &self.store
    }

    /// Which kernel tier serves a batch of `batch` lookups over this
    /// table: always [`KernelTier::Interleaved`], on heap and arena
    /// tables alike and at every batch width (a single lookup is a
    /// width-1 pipeline).
    pub fn kernel_tier(&self, _batch: usize) -> KernelTier {
        KernelTier::Interleaved
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if the table has no peers.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total number of contact entries.
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// Peer `u`'s contact row: ids and their aligned position lanes,
    /// both contiguous slices into the shared arrays.
    #[inline]
    pub fn row(&self, u: NodeId) -> (&[NodeId], &[f64]) {
        let (a, b) = self.store.row_bounds(u);
        (
            &self.store.edges()[a..b],
            &self.store.edge_pos().expect("route table carries lanes")[a..b],
        )
    }

    /// One chunked greedy step at peer `u` toward `target`: the contact
    /// strictly closer than `cur_d` with minimal distance (earliest on
    /// exact ties), or `None` at a local minimum. Bit-identical to the
    /// slice-based reference over the same row.
    #[inline]
    pub fn step(
        &self,
        metric: sw_keyspace::Topology,
        u: NodeId,
        target: Key,
        cur_d: f64,
    ) -> Option<(NodeId, f64)> {
        let (ids, pos) = self.row(u);
        greedy_step_soa(metric, target, cur_d, ids, pos)
    }

    /// The ranked failover ladder at peer `u` (see
    /// [`crate::route::greedy_candidates`]), computed over the SoA lanes.
    pub fn candidates(
        &self,
        metric: sw_keyspace::Topology,
        u: NodeId,
        target: Key,
        cur_d: f64,
    ) -> Vec<(NodeId, f64)> {
        let (ids, pos) = self.row(u);
        greedy_candidates_soa(metric, target, cur_d, ids, pos)
    }

    /// Resident bytes of the table (adjacency + lanes) — the
    /// `bytes/peer` number E20 reports.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Freezes the table (and an optional per-node position lane, e.g.
    /// the placement keys) into a flat arena file at `path`.
    pub fn freeze_to(&self, path: impl AsRef<Path>, node_pos: Option<&[f64]>) -> io::Result<()> {
        self.store.freeze_to(path, node_pos)?;
        Ok(())
    }

    /// Reopens a table frozen with [`RouteTable::freeze_to`]: one read,
    /// one allocation, zero per-peer work.
    pub fn open_from(path: impl AsRef<Path>) -> io::Result<RouteTable> {
        let store = Arc::new(TopologyStore::open(path)?);
        RouteTable::from_store(store).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen topology has no per-edge position lane",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleaved::{route_interleaved, DEFAULT_INTERLEAVE};
    use crate::placement::Placement;
    use crate::route::{greedy_route, survey_queries, Overlay, RouteOptions, TargetModel};
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};
    use sw_keyspace::{Rng, Topology};

    fn table_of(o: &Symphony) -> RouteTable {
        let p = o.placement().clone();
        RouteTable::build(o.topology().clone(), |v| p.key(v).get())
    }

    fn symphony(n: usize, seed: u64) -> Symphony {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        Symphony::build(p, 4, true, &mut rng)
    }

    #[test]
    fn rows_are_aligned_with_csr_edges() {
        let o = symphony(128, 1);
        let t = table_of(&o);
        for u in 0..128u32 {
            let (ids, pos) = t.row(u);
            assert_eq!(ids, o.contacts(u));
            for (&v, &p) in ids.iter().zip(pos) {
                assert_eq!(p.to_bits(), o.placement().key(v).get().to_bits());
            }
        }
    }

    #[test]
    fn soa_route_is_bit_identical_to_reference() {
        for (seed, dist) in [(7u64, false), (8, true)] {
            let mut rng = Rng::new(seed);
            let p = if dist {
                Placement::sample(
                    512,
                    &TruncatedPareto::new(1.5, 0.02).unwrap(),
                    Topology::Ring,
                    &mut rng,
                )
            } else {
                Placement::sample(512, &Uniform, Topology::Ring, &mut rng)
            };
            let o = Symphony::build(p, 5, true, &mut rng);
            let t = table_of(&o);
            let queries = survey_queries(o.placement(), 400, TargetModel::MemberKeys, &mut rng);
            let opts = RouteOptions::for_n(512);
            for &(from, target) in &queries {
                let a = greedy_route(o.placement(), o.topology(), from, target, &opts);
                let b = route_interleaved(o.placement(), &t, &[(from, target)], &opts, 1);
                assert_eq!([a], &b[..], "hop sequences must be bit-identical");
            }
        }
    }

    #[test]
    fn freeze_open_round_trip_routes_identically() {
        let o = symphony(256, 3);
        let t = table_of(&o);
        let dir = std::env::temp_dir().join("sw-overlay-soa-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.swt");
        let keys: Vec<f64> = o.placement().keys().iter().map(|k| k.get()).collect();
        t.freeze_to(&path, Some(&keys)).unwrap();
        let reopened = RouteTable::open_from(&path).unwrap();
        assert_eq!(reopened.store().to_topology(), t.store().to_topology());
        assert_eq!(reopened.store().edge_pos(), t.store().edge_pos());
        let mut rng = Rng::new(4);
        let queries = survey_queries(o.placement(), 200, TargetModel::MemberKeys, &mut rng);
        let opts = RouteOptions::for_n(256);
        assert_eq!(
            route_interleaved(o.placement(), &t, &queries, &opts, DEFAULT_INTERLEAVE),
            route_interleaved(
                o.placement(),
                &reopened,
                &queries,
                &opts,
                DEFAULT_INTERLEAVE
            )
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn build_parallel_matches_sequential() {
        let o = symphony(4096, 9);
        let keys: Vec<f64> = o.placement().keys().iter().map(|k| k.get()).collect();
        let topo = o.topology().clone();
        let seq = RouteTable::build(topo.clone(), |v| keys[v as usize]);
        for threads in [2, 3, 8] {
            let par = RouteTable::build_parallel(topo.clone(), &keys, threads);
            assert_eq!(seq.store().edge_pos(), par.store().edge_pos());
        }
    }

    #[test]
    fn from_store_requires_lanes() {
        let o = symphony(64, 5);
        let store = Arc::new(TopologyStore::heap(o.topology().clone()));
        assert!(RouteTable::from_store(store).is_err());
    }

    #[test]
    fn kernel_tier_is_interleaved_on_heap_and_arena() {
        let o = symphony(64, 6);
        let heap = table_of(&o);
        let dir = std::env::temp_dir().join("sw-overlay-tier-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tier.swt");
        heap.freeze_to(&path, None).unwrap();
        let arena = RouteTable::open_from(&path).unwrap();
        for t in [&heap, &arena] {
            for batch in [0, 1, DEFAULT_INTERLEAVE - 1, DEFAULT_INTERLEAVE, 10_000] {
                assert_eq!(t.kernel_tier(batch), KernelTier::Interleaved);
            }
        }
        assert_eq!(KernelTier::Interleaved.label(), "interleaved");
        std::fs::remove_file(&path).ok();
    }
}
