//! The constructed small-world overlay: placement + neighbour edges +
//! long-range links, stored as flat CSR topologies behind pluggable
//! storage backends.

use crate::config::SmallWorldConfig;
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::store::{TopologyArena, TopologyStore};
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::route::{RouteOptions, RouteResult, RoutingSurvey, TargetModel};
use sw_overlay::soa::RouteTable;
use sw_overlay::{route_interleaved, Overlay, Placement, DEFAULT_INTERLEAVE};

/// File holding the frozen contact CSR + per-edge ring-position lane +
/// per-node keys inside a [`SmallWorldNetwork::freeze_to`] directory.
pub(crate) const CONTACTS_FILE: &str = "contacts.swt";
/// File holding the frozen long-link CSR.
pub(crate) const LONG_FILE: &str = "long.swt";

/// A small-world network per the paper's construction: every peer has its
/// interval/ring neighbours (keeping the graph connected, §3) plus the
/// sampled long-range links.
///
/// The full contact table (neighbour edges + long links, the rows greedy
/// routing reads) lives in a key-aligned SoA
/// [`RouteTable`]: one flat CSR plus a per-edge
/// ring-position lane, built once during construction and scanned by the
/// interleaved greedy kernel. A freshly built network keeps it on the heap;
/// [`SmallWorldNetwork::open_from`] reopens a frozen network with the
/// table backed by a flat file arena instead — same routing code, and
/// the whole routing table loads as one allocation (or an mmap). The long-link CSR is kept separately (with its
/// incoming transpose) for the maintenance/refresh APIs.
pub struct SmallWorldNetwork {
    placement: Placement,
    /// The density used for link construction (the *assumed* `f̂`).
    assumed: Arc<dyn KeyDistribution>,
    /// `F̂(key_i)` cache — normalized-space positions of all peers.
    cdf: Vec<f64>,
    config: SmallWorldConfig,
    /// Long-range links only (CSR, incoming transpose included).
    long: CsrTopology,
    /// Full routing table: neighbours + long links (+ incoming links when
    /// `config.bidirectional`), with the key-aligned position lanes.
    route_table: RouteTable,
    /// Lazily materialized heap view of the contact CSR for arena-backed
    /// (reopened) networks — [`Overlay::topology`] hands out a
    /// `&CsrTopology`, and metrics consumers are not on the hot path.
    contact_heap: OnceLock<CsrTopology>,
    /// Display label, e.g. `"sw(uniform,exact)"`.
    label: String,
}

impl Clone for SmallWorldNetwork {
    fn clone(&self) -> Self {
        SmallWorldNetwork {
            placement: self.placement.clone(),
            assumed: self.assumed.clone(),
            cdf: self.cdf.clone(),
            config: self.config,
            long: self.long.clone(),
            route_table: self.route_table.clone(),
            // The cache is cheap to rebuild; don't clone a large CSR.
            contact_heap: OnceLock::new(),
            label: self.label.clone(),
        }
    }
}

impl std::fmt::Debug for SmallWorldNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallWorldNetwork")
            .field("n", &self.placement.len())
            .field("label", &self.label)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SmallWorldNetwork {
    /// Assembles a network from parts (used by the builder and the join
    /// protocol's snapshots).
    pub(crate) fn assemble(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        long: CsrTopology,
        label: String,
    ) -> Self {
        Self::assemble_with_threads(placement, assumed, config, long, label, 0)
    }

    /// [`SmallWorldNetwork::assemble`] with an explicit worker-thread
    /// count for the freeze-time SoA position gather (`0` = auto; the
    /// gather is a pure per-edge function, so the table is bit-identical
    /// for every thread count).
    pub(crate) fn assemble_with_threads(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        long: CsrTopology,
        label: String,
        threads: usize,
    ) -> Self {
        let cdf = placement
            .keys()
            .iter()
            .map(|k| assumed.cdf(k.get()))
            .collect();
        let contact_table = build_contact_table(&placement, &long, config.bidirectional, threads);
        let route_table = build_route_table(&placement, contact_table, threads);
        SmallWorldNetwork {
            placement,
            assumed,
            cdf,
            config,
            long,
            route_table,
            contact_heap: OnceLock::new(),
            label,
        }
    }

    /// Assembles a network whose contact table is *already* a frozen
    /// arena (the [`crate::builder::ArenaBuild`] fast path): no per-edge
    /// work happens here — the arena carries the position lanes — and
    /// routing is bit-identical to a heap-assembled network.
    ///
    /// # Panics
    ///
    /// Panics if the arena carries no per-edge position lane (the
    /// construction pipeline always writes one).
    pub(crate) fn from_contact_arena(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        contacts: TopologyArena,
        long: CsrTopology,
        label: String,
    ) -> Self {
        let cdf = placement
            .keys()
            .iter()
            .map(|k| assumed.cdf(k.get()))
            .collect();
        let route_table = RouteTable::from_store(Arc::new(TopologyStore::Arena(contacts)))
            .unwrap_or_else(|_| panic!("contact arena carries no per-edge position lane"));
        SmallWorldNetwork {
            placement,
            assumed,
            cdf,
            config,
            long,
            route_table,
            contact_heap: OnceLock::new(),
            label,
        }
    }

    /// Replaces the long-link topology and rebuilds the contact table
    /// (and its SoA position lanes).
    fn set_long_topology(&mut self, long: CsrTopology) {
        let contact_table =
            build_contact_table(&self.placement, &long, self.config.bidirectional, 0);
        self.route_table = build_route_table(&self.placement, contact_table, 0);
        self.contact_heap = OnceLock::new();
        self.long = long;
    }

    /// Assembles a network from explicit parts: a placement, the density
    /// to treat as `f̂`, and per-peer long-link lists.
    ///
    /// This is the link-transport constructor used by the Figure 1/2
    /// equivalence experiment (E9): build `G′` in the normalized space,
    /// then re-attach its links to the original skewed placement.
    ///
    /// # Panics
    ///
    /// Panics if `long.len() != placement.len()` or any link id is out of
    /// range.
    pub fn with_links(
        placement: Placement,
        assumed: Arc<dyn KeyDistribution>,
        config: SmallWorldConfig,
        long: Vec<Vec<NodeId>>,
        label: impl Into<String>,
    ) -> Self {
        assert_eq!(long.len(), placement.len(), "one link list per peer");
        let n = placement.len() as NodeId;
        assert!(
            long.iter().flatten().all(|&v| v < n),
            "link id out of range"
        );
        SmallWorldNetwork::assemble(
            placement,
            assumed,
            config,
            CsrTopology::from_rows(&long),
            label.into(),
        )
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.placement.len()
    }

    /// True if the network has no peers (never for a built network).
    pub fn is_empty(&self) -> bool {
        self.placement.is_empty()
    }

    /// The construction configuration.
    pub fn config(&self) -> &SmallWorldConfig {
        &self.config
    }

    /// The density assumed during link construction.
    pub fn assumed(&self) -> &Arc<dyn KeyDistribution> {
        &self.assumed
    }

    /// The long-link topology (outgoing + incoming CSR).
    pub fn long_topology(&self) -> &CsrTopology {
        &self.long
    }

    /// Outgoing long-range links of peer `u`.
    pub fn long_links(&self, u: NodeId) -> &[NodeId] {
        self.long.neighbors(u)
    }

    /// Incoming long-range links of peer `u`.
    pub fn incoming_links(&self, u: NodeId) -> &[NodeId] {
        self.long.incoming(u)
    }

    /// Normalized-space position `F̂(key_u)` of peer `u`.
    #[inline]
    pub fn normalized_position(&self, u: NodeId) -> f64 {
        self.cdf[u as usize]
    }

    /// Mass distance between two peers in the assumed normalized space
    /// (wrapping on the ring).
    #[inline]
    pub fn mass_between(&self, u: NodeId, v: NodeId) -> f64 {
        let d = (self.cdf[v as usize] - self.cdf[u as usize]).abs();
        match self.placement.topology() {
            Topology::Interval => d,
            Topology::Ring => d.min(1.0 - d),
        }
    }

    /// Replaces the long links of peer `u` (used by refresh/estimation).
    pub fn set_long_links(&mut self, u: NodeId, links: Vec<NodeId>) {
        self.set_long_topology(self.long.with_row(u, &links));
    }

    /// Replaces every peer's long links at once (bulk refresh; rebuilds
    /// both CSR tables a single time).
    pub fn set_all_long_links(&mut self, links: Vec<Vec<NodeId>>) {
        assert_eq!(links.len(), self.placement.len());
        self.set_long_topology(CsrTopology::from_rows(&links));
    }

    /// Removes each long link independently with probability `fraction`
    /// (neighbour edges are structural and survive). Returns how many
    /// links were dropped. This is the §3.1 robustness experiment E7.
    pub fn drop_random_long_links(&mut self, fraction: f64, rng: &mut Rng) -> usize {
        let before = self.long.edge_count();
        let filtered = self.long.filter_edges(|_, _| !rng.chance(fraction));
        let dropped = before - filtered.edge_count();
        self.set_long_topology(filtered);
        dropped
    }

    /// Total number of long links in the network.
    pub fn total_long_links(&self) -> usize {
        self.long.edge_count()
    }

    /// Convenience survey: `queries` member-key lookups from random
    /// sources.
    pub fn routing_survey(&self, queries: usize, rng: &mut Rng) -> RoutingSurvey {
        RoutingSurvey::run(self, queries, TargetModel::MemberKeys, rng)
    }

    /// The key-aligned SoA routing table greedy routing scans (shared by
    /// `Arc` — cloning the handle shares the lanes).
    pub fn route_table(&self) -> &RouteTable {
        &self.route_table
    }

    /// The heap view of the full contact CSR. Direct for freshly built
    /// networks; materialized once (and cached) for arena-backed ones.
    fn contact_csr(&self) -> &CsrTopology {
        match &**self.route_table.store() {
            TopologyStore::Heap { topo, .. } => topo,
            TopologyStore::Arena(_) => self
                .contact_heap
                .get_or_init(|| self.route_table.store().to_topology()),
        }
    }

    /// Resident bytes of the routing state (contact CSR + position
    /// lanes + long-link CSR) — the `bytes/peer` accounting E20 reports.
    pub fn resident_bytes(&self) -> usize {
        // Long-link CSR: two offset arrays (u32) + two edge arrays (u32).
        let long_bytes = (self.long.len() + 1) * 8 + self.long.edge_count() * 8;
        self.route_table.resident_bytes() + long_bytes
    }

    /// Freezes the overlay into flat arena files under `dir` (created if
    /// missing): `contacts.swt` holds the contact CSR, the per-edge
    /// ring-position lane and the per-node keys; `long.swt` holds the
    /// long-link CSR. A 10⁷-peer overlay is built once, frozen, and
    /// every later process reopens it with
    /// [`SmallWorldNetwork::open_from`] without re-sampling a single
    /// link (the routing table itself loads zero-copy).
    ///
    /// The construction *configuration* and the assumed density are not
    /// serialized — the caller supplies the same ones on reopen (they
    /// are code, not data).
    pub fn freeze_to(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let node_pos: Vec<f64> = self.placement.keys().iter().map(|k| k.get()).collect();
        self.route_table
            .store()
            .freeze_to(dir.join(CONTACTS_FILE), Some(&node_pos))?;
        TopologyArena::build(&self.long, None, None).write_to(dir.join(LONG_FILE))?;
        Ok(())
    }

    /// Reopens a network frozen with [`SmallWorldNetwork::freeze_to`].
    ///
    /// The contact table and its position lanes stay in the arena (one
    /// bump allocation — or a lazy mapping under `sw-graph`'s `mmap`
    /// feature — with zero per-edge work). The rest of the reopen is
    /// O(n + m) but cheap and rebuild-free: the placement and its CDF
    /// cache are rebuilt from the frozen per-node keys, and the
    /// long-link CSR is unpacked onto the heap so the maintenance APIs
    /// (refresh, link drops) keep working; none of the per-peer link
    /// *sampling* reruns, which is why E20 measures reopen at a small
    /// fraction of construction time. Routing over the reopened network
    /// is bit-identical to routing over the original.
    pub fn open_from(
        dir: impl AsRef<Path>,
        config: SmallWorldConfig,
        assumed: Arc<dyn KeyDistribution>,
    ) -> io::Result<SmallWorldNetwork> {
        Self::open_from_opts(dir, config, assumed, true)
    }

    /// [`open_from`] for *trusted* directories (ones this process — or a
    /// pipeline step it controls — froze itself): skips the `O(m)`
    /// structural validation scans on the contact arena, so reopening a
    /// 10⁷-peer overlay costs one read/mapping. See
    /// [`sw_graph::store::TopologyArena::open_unvalidated`] for the exact
    /// trust contract.
    ///
    /// [`open_from`]: SmallWorldNetwork::open_from
    pub fn open_from_trusted(
        dir: impl AsRef<Path>,
        config: SmallWorldConfig,
        assumed: Arc<dyn KeyDistribution>,
    ) -> io::Result<SmallWorldNetwork> {
        Self::open_from_opts(dir, config, assumed, false)
    }

    fn open_from_opts(
        dir: impl AsRef<Path>,
        config: SmallWorldConfig,
        assumed: Arc<dyn KeyDistribution>,
        validate: bool,
    ) -> io::Result<SmallWorldNetwork> {
        let dir = dir.as_ref();
        // TopologyStore::open picks mmap when the feature is enabled.
        let contacts = Arc::new(if validate {
            TopologyStore::open(dir.join(CONTACTS_FILE))?
        } else {
            TopologyStore::open_unvalidated(dir.join(CONTACTS_FILE))?
        });
        let node_pos = contacts.node_pos().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen overlay carries no per-node keys",
            )
        })?;
        // Key::clamped is the identity on stored keys (they were valid
        // [0, 1) values), so the placement is bit-identical.
        let keys: Vec<Key> = node_pos.iter().map(|&p| Key::clamped(p)).collect();
        let placement = Placement::from_keys(keys, config.topology, assumed.name())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let long = if validate {
            TopologyArena::open(dir.join(LONG_FILE))?
        } else {
            TopologyArena::open_unvalidated(dir.join(LONG_FILE))?
        }
        .to_topology();
        let cdf = placement
            .keys()
            .iter()
            .map(|k| assumed.cdf(k.get()))
            .collect();
        let label = format!("sw({},{})", assumed.name(), config.sampler.label());
        let route_table = RouteTable::from_store(contacts).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "frozen overlay carries no per-edge position lane",
            )
        })?;
        Ok(SmallWorldNetwork {
            placement,
            assumed,
            cdf,
            config,
            long,
            route_table,
            contact_heap: OnceLock::new(),
            label,
        })
    }
}

/// Builds the SoA routing table for a contact CSR: one parallel gather
/// of each contact's ring position into the per-edge lane.
fn build_route_table(
    placement: &Placement,
    contact_table: CsrTopology,
    threads: usize,
) -> RouteTable {
    let node_pos: Vec<f64> = placement.keys().iter().map(|k| k.get()).collect();
    RouteTable::build_parallel(contact_table, &node_pos, threads)
}

/// Builds the full routing table: topology neighbours first, then long
/// links, then (optionally) incoming long links, deduplicated per row.
/// The freeze (per-row sort + CSR pack + in-edge transpose) fans out
/// over `threads` workers; the result is identical at any thread count.
fn build_contact_table(
    placement: &Placement,
    long: &CsrTopology,
    bidirectional: bool,
    threads: usize,
) -> CsrTopology {
    let n = placement.len();
    let mut lt = LinkTable::new(n);
    for u in 0..n as NodeId {
        lt.add_all(u, placement.topology_neighbors(u));
        lt.add_all(u, long.neighbors(u).iter().copied());
        if bidirectional {
            lt.add_all(u, long.incoming(u).iter().copied());
        }
    }
    lt.build_with_threads(threads)
}

impl Overlay for SmallWorldNetwork {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn topology(&self) -> &CsrTopology {
        self.contact_csr()
    }

    /// Routes one lookup through the interleaved kernel as a
    /// one-element chunk at width 1 — bit-identical to
    /// [`sw_overlay::greedy_route`] over [`Overlay::topology`], on heap
    /// and arena tables alike.
    fn route(&self, from: NodeId, target: Key, opts: &RouteOptions) -> RouteResult {
        route_interleaved(
            &self.placement,
            &self.route_table,
            &[(from, target)],
            opts,
            1,
        )
        .pop()
        .expect("one query, one result")
    }

    /// Routes the chunk through the interleaved kernel with
    /// [`DEFAULT_INTERLEAVE`] walks in flight. Bit-identical to looping
    /// [`Overlay::route`], so `route_batch` results do not depend on how
    /// the workload was chunked.
    fn route_chunk(&self, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        route_interleaved(
            &self.placement,
            &self.route_table,
            queries,
            opts,
            DEFAULT_INTERLEAVE,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmallWorldBuilder;

    fn small_net(n: usize, seed: u64) -> SmallWorldNetwork {
        let mut rng = Rng::new(seed);
        SmallWorldBuilder::new(n).build(&mut rng).unwrap()
    }

    #[test]
    fn contacts_contain_neighbours_and_links() {
        let net = small_net(256, 1);
        // Interior peer on the interval: two neighbours + log2(256) = 8.
        let c = net.contacts(100);
        assert!(c.contains(&99));
        assert!(c.contains(&101));
        assert!(c.len() >= 8, "contacts {}", c.len());
    }

    #[test]
    fn boundary_peers_have_one_neighbour() {
        let net = small_net(128, 2);
        let c0 = net.contacts(0);
        assert!(c0.contains(&1));
        assert!(!c0.contains(&127), "interval does not wrap");
    }

    #[test]
    fn incoming_index_matches_outgoing() {
        let net = small_net(128, 3);
        for u in 0..128u32 {
            for &v in net.long_links(u) {
                assert!(net.incoming_links(v).contains(&u));
            }
        }
    }

    #[test]
    fn drop_links_counts_and_removes() {
        let mut net = small_net(256, 4);
        let before = net.total_long_links();
        let mut rng = Rng::new(5);
        let dropped = net.drop_random_long_links(0.5, &mut rng);
        assert_eq!(before - net.total_long_links(), dropped);
        assert!(dropped > before / 3 && dropped < 2 * before / 3);
    }

    #[test]
    fn set_long_links_updates_incoming_and_contacts() {
        let mut net = small_net(64, 6);
        net.set_long_links(0, vec![42]);
        assert_eq!(net.long_links(0), &[42]);
        assert!(net.incoming_links(42).contains(&0));
        assert!(net.contacts(0).contains(&42));
    }

    #[test]
    fn mass_equals_key_distance_under_uniform() {
        let net = small_net(128, 7);
        let p = net.placement();
        let d_key = (p.key(10).get() - p.key(90).get()).abs();
        assert!((net.mass_between(10, 90) - d_key).abs() < 1e-12);
    }

    #[test]
    fn freeze_open_round_trip_is_bit_identical() {
        use sw_overlay::route::RouteOptions;
        let mut rng = Rng::new(41);
        let net = SmallWorldBuilder::new(512)
            .distribution(Box::new(
                sw_keyspace::distribution::TruncatedPareto::new(1.5, 0.02).unwrap(),
            ))
            .build(&mut rng)
            .unwrap();
        let dir = std::env::temp_dir().join("sw-core-freeze-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        // Placement keys, contact CSR, position lanes and long CSR all
        // round-trip bit-for-bit.
        assert_eq!(net.placement().keys(), reopened.placement().keys());
        assert_eq!(net.topology(), reopened.topology());
        assert_eq!(net.long_topology(), reopened.long_topology());
        let a: Vec<u64> = net
            .route_table()
            .store()
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let b: Vec<u64> = reopened
            .route_table()
            .store()
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(a, b);
        // And routes are hop-for-hop identical.
        let opts = RouteOptions::for_n(512);
        let workload = sw_overlay::route::survey_queries(
            net.placement(),
            300,
            TargetModel::MemberKeys,
            &mut rng,
        );
        for (from, target) in workload {
            assert_eq!(
                net.route(from, target, &opts),
                reopened.route(from, target, &opts)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_from_missing_dir_errors() {
        let dir = std::env::temp_dir().join("sw-core-freeze-test-missing");
        std::fs::remove_dir_all(&dir).ok();
        let err = SmallWorldNetwork::open_from(
            &dir,
            SmallWorldConfig::default(),
            Arc::new(sw_keyspace::distribution::Uniform),
        );
        assert!(err.is_err());
    }

    #[test]
    fn reopened_network_survey_matches_original() {
        let mut rng = Rng::new(43);
        let net = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
        let dir = std::env::temp_dir().join("sw-core-freeze-survey-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        let a = net.routing_survey(200, &mut Rng::new(9));
        let b = reopened.routing_survey(200, &mut Rng::new(9));
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.hop_samples, b.hop_samples);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_entry_point_matches_reference_loop_on_heap_and_arena() {
        use sw_overlay::route::route_batch;
        let n = 384;
        let mut rng = Rng::new(47);
        let net = SmallWorldBuilder::new(n)
            .distribution(Box::new(
                sw_keyspace::distribution::TruncatedPareto::new(1.5, 0.02).unwrap(),
            ))
            .build(&mut rng)
            .unwrap();
        let dir = std::env::temp_dir().join("sw-core-interleave-entry-test");
        net.freeze_to(&dir).unwrap();
        let reopened =
            SmallWorldNetwork::open_from(&dir, *net.config(), net.assumed().clone()).unwrap();
        assert!(matches!(
            &**net.route_table().store(),
            TopologyStore::Heap { .. }
        ));
        assert!(matches!(
            &**reopened.route_table().store(),
            TopologyStore::Arena(_)
        ));
        let workload = sw_overlay::route::survey_queries(
            net.placement(),
            300,
            TargetModel::MemberKeys,
            &mut rng,
        );
        for record_path in [true, false] {
            let opts = RouteOptions {
                record_path,
                ..RouteOptions::for_n(n)
            };
            let want: Vec<RouteResult> = workload
                .iter()
                .map(|&(from, t)| {
                    sw_overlay::greedy_route(net.placement(), net.topology(), from, t, &opts)
                })
                .collect();
            for o in [&net, &reopened] {
                let singles: Vec<RouteResult> = workload
                    .iter()
                    .map(|&(from, t)| o.route(from, t, &opts))
                    .collect();
                assert_eq!(singles, want, "route, record_path={record_path}");
                for len in [0, 1, 7, 8, 300] {
                    let (chunk, want) = (&workload[..len], &want[..len]);
                    assert_eq!(o.route_chunk(chunk, &opts), want, "route_chunk len={len}");
                    for threads in [1, 2, 4] {
                        assert_eq!(
                            route_batch(o, chunk, &opts, threads),
                            want,
                            "route_batch len={len} threads={threads}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contact_rows_are_deduplicated() {
        let net = small_net(256, 8);
        for u in 0..256u32 {
            let c = net.contacts(u);
            let set: std::collections::HashSet<_> = c.iter().collect();
            assert_eq!(set.len(), c.len(), "duplicate contact in row {u}");
        }
    }
}
