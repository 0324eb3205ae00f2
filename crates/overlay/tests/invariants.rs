//! Property-based invariants of the overlay framework and every
//! baseline DHT: placements index correctly, the greedy engine is
//! monotone, and all baselines route totally over arbitrary uniform
//! placements.

use proptest::prelude::*;
use sw_keyspace::distribution::Uniform;
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::chord::{Chord, RandomizedChord};
use sw_overlay::mercury::Mercury;
use sw_overlay::pastry::PastryLike;
use sw_overlay::pgrid::{PGridLike, SplitPolicy};
use sw_overlay::route::{RouteOptions, RoutingSurvey, TargetModel};
use sw_overlay::symphony::Symphony;
use sw_overlay::{Overlay, Placement};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `nearest` agrees with the brute-force argmin for both topologies.
    #[test]
    fn nearest_is_argmin(
        seed in any::<u64>(),
        n in 8usize..128,
        target in 0.0f64..1.0,
        ring in any::<bool>(),
    ) {
        let topology = if ring { Topology::Ring } else { Topology::Interval };
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, topology, &mut rng);
        let t = Key::clamped(target);
        let got = p.nearest(t);
        let want = (0..n as u32)
            .min_by(|&a, &b| p.distance_to(a, t).total_cmp(&p.distance_to(b, t)))
            .unwrap();
        prop_assert!(
            (p.distance_to(got, t) - p.distance_to(want, t)).abs() < 1e-15,
            "nearest {} vs argmin {}",
            got,
            want
        );
    }

    /// `successor` returns the first peer at-or-after the key, with wrap.
    #[test]
    fn successor_contract(seed in any::<u64>(), n in 8usize..128, target in 0.0f64..1.0) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let t = Key::clamped(target);
        let s = p.successor(t);
        prop_assert!(p.key(s) >= t || s == 0);
        if s > 0 {
            prop_assert!(p.key(s - 1) < t);
        }
    }

    /// `random_in_arc` only returns peers on the requested arc and
    /// returns `None` iff the arc is empty.
    #[test]
    fn arc_sampling_membership(
        seed in any::<u64>(),
        n in 8usize..128,
        lo in 0.0f64..1.0,
        width in 0.0f64..0.6,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let hi = lo + width;
        let [a, b] = p.arc(lo, hi);
        let count = a.len() + b.len();
        match p.random_in_arc(lo, hi, &mut rng) {
            None => prop_assert_eq!(count, 0),
            Some(v) => {
                prop_assert!(count > 0);
                let k = p.key(v).get();
                let lo_w = lo.rem_euclid(1.0);
                let hi_w = hi.rem_euclid(1.0);
                let inside = if lo_w < hi_w {
                    (lo_w..hi_w).contains(&k)
                } else {
                    k >= lo_w || k < hi_w
                };
                prop_assert!(inside, "key {k} outside arc [{lo_w},{hi_w})");
            }
        }
    }

    /// Every baseline DHT routes 100% of member lookups over arbitrary
    /// uniform placements.
    #[test]
    fn all_baselines_route_totally(seed in any::<u64>(), n in 64usize..192) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let overlays: Vec<Box<dyn Overlay>> = vec![
            Box::new(Chord::build(p.clone())),
            Box::new(RandomizedChord::build(p.clone(), &mut rng)),
            Box::new(Symphony::build(p.clone(), 3, true, &mut rng)),
            Box::new(Mercury::build(p.clone(), 3, 32, &mut rng)),
            Box::new(PastryLike::build(p.clone(), 2, 2, &mut rng)),
            Box::new(PGridLike::build(p.clone(), SplitPolicy::Median, 1, &mut rng)),
            Box::new(PGridLike::build(p, SplitPolicy::Midpoint, 1, &mut rng)),
        ];
        for o in &overlays {
            let s = RoutingSurvey::run(o.as_ref(), 40, TargetModel::MemberKeys, &mut rng);
            prop_assert!(
                (s.success_rate() - 1.0).abs() < 1e-12,
                "{} failed lookups",
                o.name()
            );
        }
    }

    /// The generic greedy engine's recorded path has strictly
    /// decreasing distance and starts/ends correctly.
    #[test]
    fn greedy_path_contract(seed in any::<u64>(), n in 64usize..192) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p, 4, true, &mut rng);
        let opts = RouteOptions::for_n(n);
        let from = rng.index(n) as u32;
        let to = rng.index(n) as u32;
        let target = o.placement().key(to);
        let r = o.route(from, target, &opts);
        prop_assert!(r.success);
        prop_assert_eq!(r.path[0], from);
        prop_assert_eq!(*r.path.last().unwrap(), to);
        prop_assert_eq!(r.path.len() as u32, r.hops + 1);
        let mut last = f64::INFINITY;
        for &s in &r.path {
            let d = o.placement().distance_to(s, target);
            prop_assert!(d < last);
            last = d;
        }
    }

    /// Chord's clockwise router reaches the successor of arbitrary
    /// (non-member) keys.
    #[test]
    fn chord_clockwise_reaches_successor(
        seed in any::<u64>(),
        n in 64usize..192,
        target in 0.0f64..1.0,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let c = Chord::build(p);
        let t = Key::clamped(target);
        let from = rng.index(n) as u32;
        let r = c.route_clockwise(from, t, &RouteOptions::for_n(n));
        prop_assert!(r.success);
        prop_assert_eq!(*r.path.last().unwrap(), c.placement().successor(t));
    }

    /// P-Grid median split always yields depth exactly ceil(log2 n).
    #[test]
    fn pgrid_median_depth(seed in any::<u64>(), n in 8usize..512) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let g = PGridLike::build(p, SplitPolicy::Median, 1, &mut rng);
        let want = (n as f64).log2().ceil() as usize;
        prop_assert_eq!(g.max_depth(), want);
    }
}

/// Checks that every per-edge lane in `table` is exactly the key of the
/// CSR edge it sits next to.
fn assert_lanes_aligned(table: &sw_overlay::RouteTable, topo: &sw_graph::Topology, p: &Placement) {
    assert_eq!(table.len(), topo.len());
    assert_eq!(table.edge_count(), topo.edge_count());
    for u in 0..topo.len() as u32 {
        let (ids, pos) = table.row(u);
        assert_eq!(ids, topo.neighbors(u), "row {u} ids");
        for (&v, &q) in ids.iter().zip(pos) {
            assert_eq!(q.to_bits(), p.key(v).get().to_bits(), "lane {u}->{v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The SoA position lanes stay exactly aligned with the CSR edges
    /// through `filter_edges`, `with_row` and degraded views: rebuilding
    /// the table from any derived topology yields lanes that are the
    /// keys of the derived edges, index for index.
    #[test]
    fn soa_lanes_stay_aligned_through_topology_edits(
        seed in any::<u64>(),
        n in 24usize..96,
        k in 1usize..4,
        drop in 0.0f64..1.0,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p.clone(), k, true, &mut rng);
        let base = o.topology().clone();
        let table = sw_overlay::RouteTable::build(base.clone(), |v| p.key(v).get());
        assert_lanes_aligned(&table, &base, &p);

        // filter_edges: drop a ~`drop` fraction via a hash predicate.
        let filtered = base.filter_edges(|u, v| {
            let h = (u ^ v.rotate_left(16)).wrapping_mul(2654435761) % 1000;
            (h as f64 / 1000.0) >= drop
        });
        let ft = sw_overlay::RouteTable::build(filtered.clone(), |v| p.key(v).get());
        assert_lanes_aligned(&ft, &filtered, &p);

        // with_row: replace one peer's row.
        let u = (seed % n as u64) as u32;
        let new_row: Vec<u32> = (0..n as u32).filter(|&v| v != u && v % 7 == 0).collect();
        let rewired = base.with_row(u, &new_row);
        let rt = sw_overlay::RouteTable::build(rewired.clone(), |v| p.key(v).get());
        assert_lanes_aligned(&rt, &rewired, &p);

        // Degraded view: kill peers + drop long links, then rebuild.
        let d = sw_overlay::degraded::DegradedOverlay::new(&o)
            .kill_random(0.2, &mut rng)
            .drop_long_links(drop, &mut rng);
        let dt = sw_overlay::RouteTable::build(d.topology().clone(), |v| p.key(v).get());
        assert_lanes_aligned(&dt, d.topology(), &p);

        // And the interleaved kernel agrees with the reference over the
        // degraded rows (the bit-identity contract under degradation),
        // both one walk at a time and with a full pipeline.
        let opts = RouteOptions { max_hops: n as u32, record_path: true };
        let queries: Vec<_> = (0..16)
            .map(|_| (d.random_alive(&mut rng), p.key(d.random_alive(&mut rng))))
            .collect();
        let want: Vec<_> = queries
            .iter()
            .map(|&(from, target)| sw_overlay::greedy_route(&p, d.topology(), from, target, &opts))
            .collect();
        for width in [1, sw_overlay::DEFAULT_INTERLEAVE] {
            let got = sw_overlay::route_interleaved(&p, &dt, &queries, &opts, width);
            prop_assert_eq!(&got, &want);
        }
    }

    /// `freeze_to` → `open_from` round-trips the whole routing table —
    /// CSR arrays and position lanes — bit-identically.
    #[test]
    fn route_table_freeze_open_round_trip(
        seed in any::<u64>(),
        n in 24usize..96,
        k in 1usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p.clone(), k, true, &mut rng);
        let table = sw_overlay::RouteTable::build(o.topology().clone(), |v| p.key(v).get());
        let dir = std::env::temp_dir().join("sw-overlay-invariants");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rt-{seed}-{n}.swt"));
        let keys: Vec<f64> = p.keys().iter().map(|x| x.get()).collect();
        table.freeze_to(&path, Some(&keys)).unwrap();
        let reopened = sw_overlay::RouteTable::open_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(reopened.store().to_topology(), o.topology().clone());
        let a: Vec<u64> = table.store().edge_pos().unwrap().iter().map(|f| f.to_bits()).collect();
        let b: Vec<u64> = reopened.store().edge_pos().unwrap().iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(a, b);
        let nk: Vec<u64> = reopened.store().node_pos().unwrap().iter().map(|f| f.to_bits()).collect();
        let ok: Vec<u64> = keys.iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(nk, ok);
    }
}
