//! The hotspot-absorbing metadata cache tier.
//!
//! Mantle attacks hotspots by *migrating* them; MIDAS/Fletch-style
//! systems attack the same hotspots by *absorbing* them in a cache in
//! front of the cluster. This module composes the two: clients are
//! partitioned into proxy groups, each group fronted by a
//! capacity-bounded LRU [`GroupCache`] that serves read-class lookups
//! (stat / open / readdir) without an MDS round-trip. Coherence is
//! TTL-free and purely invalidation-driven:
//!
//! * **mutating ops** (create / mkdir / setattr / unlink) invalidate the
//!   touched directory's entries in every group at the next window
//!   barrier, via the same deferred-op plumbing that applies heat
//!   charges;
//! * **migrations and session flushes** invalidate the whole moved
//!   region in one pass using the namespace's Euler-tour interval
//!   labels ([`IntervalRegion`]) — a range scan over the caches'
//!   label-sorted indexes instead of a predicate test per cached entry.
//!
//! The same interval machinery backs [`ClientCache`], the per-client
//! learned subtree→MDS map, replacing the full predicate scan the
//! migration path used to run per client (the predicate path survives
//! as a differential oracle in the unit tests below).
//!
//! Determinism: group caches live in [`crate::dataplane::SharedSim`] and
//! are **read-only during windows**. Every mutation — fill, LRU touch,
//! dentry invalidation — is deferred and applied at the barrier in
//! `(time, key)` order, so the LRU clock and eviction order are pure
//! functions of the event stream.

use std::collections::{BTreeMap, HashMap};

use mantle_namespace::{MdsId, Namespace, NodeId, OpKind};

/// Is `kind` servable by the proxy tier? Read-class lookups are; every
/// mutating op goes to the MDS (and invalidates instead).
pub fn cacheable(kind: OpKind) -> bool {
    matches!(kind, OpKind::Stat | OpKind::OpenRead | OpKind::Readdir)
}

/// A moved/invalidated namespace region in Euler-interval form: the
/// label span of the root subtree, minus the spans of the authority
/// holes, restricted to directories that existed when the region was
/// captured (`watermark`). Mirrors `SubtreeWindow::contains` exactly —
/// freezes and invalidations depend on the two agreeing.
#[derive(Debug, Clone)]
pub struct IntervalRegion {
    root: NodeId,
    span: (u64, u64),
    holes: Vec<(u64, u64)>,
    watermark: u32,
    root_only: bool,
}

impl IntervalRegion {
    /// Capture a region from its parts, resolving current Euler labels.
    /// Must be captured and applied under the same namespace epoch
    /// (no renumber in between) — both happen inside one exclusive
    /// coordinator step, so that holds by construction.
    pub fn new(
        ns: &Namespace,
        root: NodeId,
        holes: &[NodeId],
        watermark: u32,
        root_only: bool,
    ) -> Self {
        IntervalRegion {
            root,
            span: ns.euler_interval(root),
            holes: holes.iter().map(|&h| ns.euler_interval(h)).collect(),
            watermark,
            root_only,
        }
    }

    /// Does the region contain the directory with Euler in-time `tin`?
    /// `tin` must be current (same namespace epoch as construction).
    fn contains_label(&self, d: NodeId, tin: u64) -> bool {
        if d.0 >= self.watermark {
            return false;
        }
        if self.root_only {
            return d == self.root;
        }
        self.span.0 <= tin
            && tin < self.span.1
            && !self.holes.iter().any(|&(a, b)| a <= tin && tin < b)
    }
}

/// The per-client learned subtree→MDS map, indexed two ways: by
/// directory for O(1) routing lookups, and by Euler in-time so a
/// migration can drop the whole moved region with one ordered range
/// scan. Entries pin the namespace epoch their labels were resolved
/// under; a renumber (rare — label space is u64) lazily rebuilds.
#[derive(Debug, Clone, Default)]
pub struct ClientCache {
    entries: HashMap<NodeId, ClientSlot>,
    by_tin: BTreeMap<u64, NodeId>,
    epoch: u64,
}

#[derive(Debug, Clone, Copy)]
struct ClientSlot {
    mds: MdsId,
    tin: u64,
}

impl ClientCache {
    /// The learned authority for `dir`, if any.
    pub fn get(&self, dir: NodeId) -> Option<MdsId> {
        self.entries.get(&dir).map(|s| s.mds)
    }

    /// Number of learned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No entries learned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record that `dir` was ultimately served by `mds`.
    pub fn learn(&mut self, ns: &Namespace, dir: NodeId, mds: MdsId) {
        self.sync_epoch(ns);
        let tin = ns.euler_interval(dir).0;
        self.by_tin.insert(tin, dir);
        self.entries.insert(dir, ClientSlot { mds, tin });
    }

    /// Forget everything learned about `dir` (its metadata moved).
    pub fn invalidate(&mut self, dir: NodeId) {
        if let Some(slot) = self.entries.remove(&dir) {
            self.by_tin.remove(&slot.tin);
        }
    }

    /// Drop every entry inside `region` with one range scan over the
    /// label index, returning how many were dropped. Result-identical
    /// to `invalidate_matching(|d| window.contains(ns, d))` — the unit
    /// tests below hold the two paths together differentially.
    pub fn invalidate_region(&mut self, ns: &Namespace, region: &IntervalRegion) -> u64 {
        self.sync_epoch(ns);
        if region.root_only {
            if region.root.0 < region.watermark && self.entries.contains_key(&region.root) {
                self.invalidate(region.root);
                return 1;
            }
            return 0;
        }
        let stale: Vec<NodeId> = self
            .by_tin
            .range(region.span.0..region.span.1)
            .filter(|&(&tin, &d)| region.contains_label(d, tin))
            .map(|(_, &d)| d)
            .collect();
        for d in &stale {
            self.invalidate(*d);
        }
        stale.len() as u64
    }

    /// Forget every cached dir for which `stale` returns true — the
    /// original full predicate scan, kept as the differential oracle
    /// for [`ClientCache::invalidate_region`].
    pub fn invalidate_matching(&mut self, mut stale: impl FnMut(NodeId) -> bool) {
        let by_tin = &mut self.by_tin;
        self.entries.retain(|&d, slot| {
            if stale(d) {
                by_tin.remove(&slot.tin);
                false
            } else {
                true
            }
        });
    }

    /// Re-resolve every stored label after a namespace renumber.
    fn sync_epoch(&mut self, ns: &Namespace) {
        let epoch = ns.renumbers();
        if self.epoch == epoch {
            return;
        }
        self.by_tin.clear();
        for (&d, slot) in &mut self.entries {
            slot.tin = ns.euler_interval(d).0;
            self.by_tin.insert(slot.tin, d);
        }
        self.epoch = epoch;
    }
}

/// One proxy group's read cache: directory → the MDS whose metadata the
/// proxy holds, with capacity-bounded LRU eviction and the same
/// Euler-label index [`ClientCache`] uses for region invalidation.
///
/// The LRU clock (`tick`) only advances at window barriers, where touch
/// and fill ops are applied in `(time, key)` order — eviction order is
/// therefore a pure function of the event stream.
#[derive(Debug, Clone)]
pub struct GroupCache {
    capacity: usize,
    entries: HashMap<NodeId, GroupSlot>,
    by_tin: BTreeMap<u64, NodeId>,
    /// LRU recency: tick of last use → directory. Ticks are unique
    /// (each use consumes a fresh one), so this is a total order.
    recency: BTreeMap<u64, NodeId>,
    tick: u64,
    epoch: u64,
}

#[derive(Debug, Clone, Copy)]
struct GroupSlot {
    mds: MdsId,
    tin: u64,
    tick: u64,
}

impl GroupCache {
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        GroupCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            by_tin: BTreeMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            epoch: 0,
        }
    }

    /// The cached authority for `dir`, if present. Read-only — the
    /// in-window hit path must not mutate shared state, so the LRU
    /// touch is deferred to the barrier ([`GroupCache::touch`]).
    pub fn lookup(&self, dir: NodeId) -> Option<MdsId> {
        self.entries.get(&dir).map(|s| s.mds)
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Nothing cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark `dir` most-recently-used (deferred from an in-window hit).
    /// No-op if the entry was evicted or invalidated in the meantime.
    pub fn touch(&mut self, dir: NodeId) {
        if let Some(slot) = self.entries.get_mut(&dir) {
            let old = slot.tick;
            self.tick += 1;
            slot.tick = self.tick;
            self.recency.remove(&old);
            self.recency.insert(self.tick, dir);
        }
    }

    /// Insert (or refresh) `dir` as served by `mds`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn fill(&mut self, ns: &Namespace, dir: NodeId, mds: MdsId) {
        self.sync_epoch(ns);
        self.tick += 1;
        let tick = self.tick;
        let tin = ns.euler_interval(dir).0;
        if let Some(slot) = self.entries.get_mut(&dir) {
            let old = slot.tick;
            *slot = GroupSlot { mds, tin, tick };
            self.recency.remove(&old);
            self.recency.insert(tick, dir);
            return;
        }
        self.entries.insert(dir, GroupSlot { mds, tin, tick });
        self.by_tin.insert(tin, dir);
        self.recency.insert(tick, dir);
        while self.entries.len() > self.capacity {
            let (_, victim) = self.recency.pop_first().expect("len > capacity ≥ 1");
            let slot = self.entries.remove(&victim).expect("recency entry backed");
            self.by_tin.remove(&slot.tin);
        }
    }

    /// Drop `dir`'s entry (a mutating op landed on it). Returns whether
    /// an entry was present.
    pub fn invalidate(&mut self, dir: NodeId) -> bool {
        match self.entries.remove(&dir) {
            Some(slot) => {
                self.by_tin.remove(&slot.tin);
                self.recency.remove(&slot.tick);
                true
            }
            None => false,
        }
    }

    /// Drop every entry inside `region` (migration / session flush),
    /// returning how many were dropped. Same range-scan machinery as
    /// [`ClientCache::invalidate_region`].
    pub fn invalidate_region(&mut self, ns: &Namespace, region: &IntervalRegion) -> u64 {
        self.sync_epoch(ns);
        if region.root_only {
            return u64::from(region.root.0 < region.watermark && self.invalidate(region.root));
        }
        let stale: Vec<NodeId> = self
            .by_tin
            .range(region.span.0..region.span.1)
            .filter(|&(&tin, &d)| region.contains_label(d, tin))
            .map(|(_, &d)| d)
            .collect();
        for d in &stale {
            self.invalidate(*d);
        }
        stale.len() as u64
    }

    /// Re-resolve every stored label after a namespace renumber.
    fn sync_epoch(&mut self, ns: &Namespace) {
        let epoch = ns.renumbers();
        if self.epoch == epoch {
            return;
        }
        self.by_tin.clear();
        for (&d, slot) in &mut self.entries {
            slot.tin = ns.euler_interval(d).0;
            self.by_tin.insert(slot.tin, d);
        }
        self.epoch = epoch;
    }
}

/// The proxy group fronting `client`. Groups are contiguous client
/// ranges (a proxy serves a rack of clients), a pure function of the
/// client id.
pub fn group_of(client: usize, num_clients: usize, groups: usize) -> usize {
    debug_assert!(client < num_clients && groups > 0);
    client * groups / num_clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::SubtreeWindow;
    use mantle_sim::{SimRng, SimTime};

    fn grow(ns: &mut Namespace, rng: &mut SimRng, dirs: usize) -> Vec<NodeId> {
        let mut all = vec![ns.root()];
        for i in 0..dirs {
            let parent = all[(rng.next_u64() % all.len() as u64) as usize];
            let d = ns.mkdir(parent, format!("d{i}"));
            all.push(d);
        }
        all
    }

    fn random_window(ns: &Namespace, rng: &mut SimRng, all: &[NodeId]) -> SubtreeWindow {
        let root = all[(rng.next_u64() % all.len() as u64) as usize];
        let holes: Vec<NodeId> = (0..rng.next_u64() % 3)
            .map(|_| all[(rng.next_u64() % all.len() as u64) as usize])
            .filter(|&h| h != root && ns.in_subtree(h, root))
            .collect();
        let watermark = if rng.next_u64().is_multiple_of(4) {
            (rng.next_u64() % all.len() as u64) as u32
        } else {
            ns.dir_count() as u32
        };
        SubtreeWindow {
            root,
            holes,
            watermark,
            root_only: rng.next_u64().is_multiple_of(5),
            until: SimTime::ZERO,
        }
    }

    /// Satellite check: interval-range invalidation is result-identical
    /// to the predicate scan it replaced, across random trees, random
    /// regions (holes, watermarks, root-only), and forced renumbers.
    #[test]
    fn interval_invalidation_matches_predicate_oracle() {
        let mut rng = SimRng::new(0xCAFE);
        for round in 0..40u32 {
            let mut ns = Namespace::default();
            let all = grow(&mut ns, &mut rng, 60);
            let mut fast = ClientCache::default();
            for _ in 0..40 {
                let d = all[(rng.next_u64() % all.len() as u64) as usize];
                fast.learn(&ns, d, (rng.next_u64() % 4) as MdsId);
            }
            if round.is_multiple_of(3) {
                // Exhaust label space under the last dir to force a
                // renumber between learn and invalidate.
                let before = ns.renumbers();
                let mut p = *all.last().unwrap();
                for i in 0..80 {
                    p = ns.mkdir(p, format!("deep{i}"));
                    if ns.renumbers() > before {
                        break;
                    }
                }
            }
            let mut oracle = fast.clone();
            let w = random_window(&ns, &mut rng, &all);
            let region = IntervalRegion::new(&ns, w.root, &w.holes, w.watermark, w.root_only);
            fast.invalidate_region(&ns, &region);
            oracle.invalidate_matching(|d| w.contains(&ns, d));
            let mut a: Vec<(NodeId, MdsId)> =
                fast.entries.iter().map(|(&d, s)| (d, s.mds)).collect();
            let mut b: Vec<(NodeId, MdsId)> =
                oracle.entries.iter().map(|(&d, s)| (d, s.mds)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "round {round}: survivors diverge");
            // The fast path's secondary index stays consistent.
            assert_eq!(fast.by_tin.len(), fast.entries.len());
        }
    }

    #[test]
    fn group_cache_evicts_lru_order() {
        let mut ns = Namespace::default();
        let dirs: Vec<NodeId> = (0..4).map(|i| ns.mkdir_p(&format!("/d{i}"))).collect();
        let mut c = GroupCache::new(3);
        c.fill(&ns, dirs[0], 0);
        c.fill(&ns, dirs[1], 1);
        c.fill(&ns, dirs[2], 2);
        // Touch the oldest so it survives the next eviction.
        c.touch(dirs[0]);
        c.fill(&ns, dirs[3], 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.lookup(dirs[0]), Some(0), "touched entry survives");
        assert_eq!(c.lookup(dirs[1]), None, "LRU entry evicted");
        assert_eq!(c.lookup(dirs[3]), Some(3));
        // Internal indexes track entries exactly.
        assert_eq!(c.by_tin.len(), c.entries.len());
        assert_eq!(c.recency.len(), c.entries.len());
    }

    #[test]
    fn group_cache_region_invalidation_spares_holes_and_new_dirs() {
        let mut ns = Namespace::default();
        let a = ns.mkdir_p("/a");
        let ab = ns.mkdir_p("/a/b");
        let abc = ns.mkdir_p("/a/b/c");
        let other = ns.mkdir_p("/other");
        let mut c = GroupCache::new(16);
        for &d in &[a, ab, abc, other] {
            c.fill(&ns, d, 0);
        }
        let watermark = ns.dir_count() as u32;
        let late = ns.mkdir_p("/a/late");
        c.fill(&ns, late, 0);
        // Invalidate subtree /a with hole /a/b — the hole's subtree and
        // post-watermark dirs survive.
        let region = IntervalRegion::new(&ns, a, &[ab], watermark, false);
        let dropped = c.invalidate_region(&ns, &region);
        assert_eq!(dropped, 1, "only /a itself is in the region");
        assert_eq!(c.lookup(a), None);
        assert_eq!(c.lookup(ab), Some(0), "hole root spared");
        assert_eq!(c.lookup(abc), Some(0), "hole descendant spared");
        assert_eq!(c.lookup(other), Some(0), "outside the region");
        assert_eq!(c.lookup(late), Some(0), "created after the watermark");
        // root_only drops exactly the root.
        let ro = IntervalRegion::new(&ns, ab, &[], ns.dir_count() as u32, true);
        assert_eq!(c.invalidate_region(&ns, &ro), 1);
        assert_eq!(c.lookup(ab), None);
        assert_eq!(c.lookup(abc), Some(0));
    }

    #[test]
    fn group_assignment_is_contiguous_and_total() {
        let groups = 4;
        let clients = 10;
        let assigned: Vec<usize> = (0..clients).map(|c| group_of(c, clients, groups)).collect();
        assert!(assigned.windows(2).all(|w| w[0] <= w[1]), "contiguous");
        assert_eq!(assigned[0], 0);
        assert_eq!(*assigned.last().unwrap(), groups - 1);
        assert!(assigned.iter().all(|&g| g < groups));
    }
}
