//! Client model: closed-loop request generators with a learned
//! subtree→MDS map, and the [`Workload`] trait the workload generators
//! implement.

use mantle_namespace::{MdsId, Namespace, NodeId, OpKind};
use mantle_sim::SimTime;

use crate::cache::{ClientCache, IntervalRegion};

/// One metadata operation a client wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOp {
    /// The directory the op targets.
    pub dir: NodeId,
    /// What it does.
    pub kind: OpKind,
}

/// A workload drives every client: the cluster asks it for each client's
/// next operation whenever that client's previous one completes.
///
/// The namespace is read-only during the run — all directory structure is
/// built in [`Workload::setup`].
pub trait Workload: Send {
    /// Number of clients this workload drives.
    fn num_clients(&self) -> usize;

    /// One-time setup: build the initial directory structure.
    fn setup(&mut self, ns: &mut Namespace);

    /// The next op for `client`, or `None` when that client is finished.
    fn next(&mut self, client: usize, ns: &Namespace, now: SimTime) -> Option<ClientOp>;

    /// If `client` has more work but none before some future instant,
    /// that instant; `None` means "ready now (or finished)". Open-loop
    /// workloads with think windows (e.g. diurnal day/night phases) use
    /// this to park a client until its next active window — the cluster
    /// reschedules the client's wakeup instead of calling
    /// [`Workload::next`]. Must be deterministic in `(client, now)` so
    /// fixed-seed runs stay reproducible.
    fn next_ready_at(&mut self, client: usize, now: SimTime) -> Option<SimTime> {
        let _ = (client, now);
        None
    }

    /// A boxed copy with identical per-client generator state: driving the
    /// copy produces exactly the ops the original would have produced.
    /// The cluster never forks its workload; the repository benchmark
    /// (`perfbench/`) implements this method, so it stays.
    fn fork(&self) -> Box<dyn Workload>;

    /// Workload name for reports.
    fn name(&self) -> &str {
        "workload"
    }
}

/// Per-client connection state maintained by the cluster.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Client index.
    pub id: usize,
    /// Learned directory→MDS map (built up from replies, exactly as the
    /// client builds "its own mapping of subtrees to MDS nodes", §2).
    /// Indexed by Euler label too, so migrations invalidate the moved
    /// region with a range scan ([`ClientCache`]).
    cache: ClientCache,
    /// This client is done issuing ops.
    pub done: bool,
    /// Ops completed so far.
    pub completed: u64,
    /// The client stalls until this time (session flushes during
    /// migrations halt its updates).
    pub stall_until: SimTime,
    /// Completion time of the client's last op (its personal makespan).
    pub finished_at: SimTime,
    /// Latency samples, ms.
    pub latencies: Vec<f64>,
    /// Sequence number of the newest request attempt; replies and
    /// timeouts carrying an older number are stale and ignored.
    pub seq: u64,
    /// The logical op currently awaiting a reply (`None` between ops).
    /// Retries re-issue this op after a timeout.
    pub pending: Option<ClientOp>,
    /// Timeouts suffered by the pending op so far (drives the
    /// exponential backoff).
    pub attempts: u32,
}

impl ClientState {
    /// Fresh state for client `id`.
    pub fn new(id: usize) -> Self {
        ClientState {
            id,
            cache: ClientCache::default(),
            done: false,
            completed: 0,
            stall_until: SimTime::ZERO,
            finished_at: SimTime::ZERO,
            latencies: Vec::new(),
            seq: 0,
            pending: None,
            attempts: 0,
        }
    }

    /// Choose which MDS to send `op` to.
    ///
    /// Directories whose fragments span several MDSs are routed by the
    /// dirfrag map (CephFS replies carry the fragment→MDS mapping, so a
    /// client ends up contacting the MDSs round-robin as its creates hash
    /// across fragments — §4.1); the *cost* of the resulting cross-MDS
    /// session/coherency traffic is charged via
    /// [`crate::config::CostModel::coherency_per_span`]. Single-authority
    /// directories use the learned cache, falling back to MDS 0 (the mount
    /// authority) — that cache goes stale when subtrees migrate, which is
    /// what produces forwards.
    ///
    /// `multi_owner` is whether the dir's fragments span several MDSs; the
    /// cluster computes it once per issue into a reused scratch buffer
    /// instead of allocating an owner list per request here.
    pub fn route(
        &mut self,
        ns: &Namespace,
        op: &ClientOp,
        frag: mantle_namespace::FragId,
        multi_owner: bool,
    ) -> MdsId {
        if multi_owner {
            ns.frag_auth(op.dir, frag)
        } else {
            self.cache.get(op.dir).unwrap_or(0)
        }
    }

    /// Learn from a reply: `dir` was ultimately served by `mds`.
    pub fn learn(&mut self, ns: &Namespace, dir: NodeId, mds: MdsId) {
        self.cache.learn(ns, dir, mds);
    }

    /// Forget everything learned about `dir` (its metadata moved).
    pub fn invalidate(&mut self, dir: NodeId) {
        self.cache.invalidate(dir);
    }

    /// Forget everything learned about a migrated region in one
    /// Euler-interval range scan, returning how many entries dropped.
    pub fn invalidate_region(&mut self, ns: &Namespace, region: &IntervalRegion) -> u64 {
        self.cache.invalidate_region(ns, region)
    }

    /// Forget every cached dir for which `stale` returns true — the
    /// predicate-scan oracle for [`ClientState::invalidate_region`];
    /// production paths use the range scan.
    pub fn invalidate_matching(&mut self, stale: impl FnMut(NodeId) -> bool) {
        self.cache.invalidate_matching(stale);
    }

    /// Record a completed op.
    pub fn record_completion(&mut self, now: SimTime, latency_ms: f64) {
        self.completed += 1;
        self.finished_at = now;
        self.latencies.push(latency_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_to_learned_mds() {
        let mut ns = Namespace::default();
        let d = ns.mkdir_p("/a");
        let mut c = ClientState::new(0);
        let op = ClientOp {
            dir: d,
            kind: OpKind::Stat,
        };
        assert_eq!(
            c.route(&ns, &op, ns.peek_frag(d), false),
            0,
            "default mount authority"
        );
        // Even though ground truth moved, the client still uses its cache…
        ns.set_auth(d, Some(2));
        c.learn(&ns, d, 1);
        assert_eq!(
            c.route(&ns, &op, ns.peek_frag(d), false),
            1,
            "stale cache drives routing"
        );
        c.invalidate(d);
        assert_eq!(c.route(&ns, &op, ns.peek_frag(d), false), 0);
    }

    #[test]
    fn round_robins_over_spanning_dirs() {
        let mut ns = Namespace::new(mantle_namespace::NsConfig {
            frag_split_threshold: 4,
            ..Default::default()
        });
        let d = ns.mkdir_p("/shared");
        for _ in 0..6 {
            ns.record_op(d, OpKind::Create, SimTime::ZERO);
        }
        assert!(ns.dir(d).frags.len() >= 8);
        ns.set_frag_auth(d, 0, Some(1));
        ns.set_frag_auth(d, 1, Some(2));
        let owners = ns.frag_owners(d);
        assert_eq!(owners.len(), 3); // 1, 2, and inherited 0
        let mut c = ClientState::new(0);
        let op = ClientOp {
            dir: d,
            kind: OpKind::Create,
        };
        // Routing follows the dirfrag map: it lands on a real owner, not
        // on the (stale or default) per-directory cache.
        let frag = ns.peek_frag(d);
        let target = c.route(&ns, &op, frag, owners.len() > 1);
        assert!(owners.contains(&target));
        assert_eq!(target, ns.frag_auth(d, frag));
    }

    #[test]
    fn completion_bookkeeping() {
        let mut c = ClientState::new(3);
        c.record_completion(SimTime::from_secs(5), 0.8);
        c.record_completion(SimTime::from_secs(6), 1.2);
        assert_eq!(c.completed, 2);
        assert_eq!(c.finished_at, SimTime::from_secs(6));
        assert_eq!(c.latencies.len(), 2);
    }
}
