//! The data plane: clients, requests and per-MDS service queues.
//!
//! The engine runs **conservative lookahead windows**: the coordinator
//! (in [`crate::cluster`]) picks a window `[base, end)` no wider than the
//! minimum client↔MDS or MDS↔MDS latency, the [`DataPlane`] drains its
//! events inside the window with read-only access to [`SharedSim`], and a
//! barrier then applies the window's deferred namespace mutations (heat
//! charges, hash pins, cache fills and touches, fragment splits). Inside a
//! window the namespace and the caches are frozen, which fixes exactly when
//! splits, pins and cache touches land.
//!
//! # Determinism
//!
//! Every scheduled event carries an explicit 64-bit **key**:
//!
//! ```text
//!   key = origin_rank << 40 | per-origin counter
//!   origin_rank: coordinator = 0, MDS m = 1 + m, client c = 1 + num_mds + c
//! ```
//!
//! The queue orders same-instant events by key, so tie-breaking depends
//! only on *which simulated entity* generated the event and *how many*
//! events it generated before. Deferred namespace mutations are applied at
//! each barrier in `(time, key)` order, and the data-plane trace is merged
//! with the coordinator's at run end by `(time, key, emission index)`.

use mantle_namespace::{FragId, MdsId, Namespace, NodeId, OpKind};
use mantle_sim::{EventQueue, SimRng, SimTime};

use crate::cache::{cacheable, group_of, GroupCache};
use crate::client::{ClientOp, ClientState, Workload};
use crate::config::{ClusterConfig, PlacementPolicy};
use crate::metrics::MdsCounters;
use crate::trace::{TraceEvent, TraceRecord};

/// Bits reserved for the per-origin counter in an event key.
pub(crate) const KEY_CTR_BITS: u32 = 40;

/// Sort key of one trace record: `(time, generating event's key,
/// emission index within that event)`. Merging the data-plane and
/// coordinator buffers by this key yields the emission order.
pub(crate) type TraceKey = (SimTime, u64, u32);

/// A request in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) client: usize,
    pub(crate) op: ClientOp,
    /// The dirfrag the client routed to (picked at issue time and carried
    /// with the request, like the frag bits in a real CephFS request).
    pub(crate) frag: FragId,
    pub(crate) issued: SimTime,
    pub(crate) forwarded: bool,
    /// The issuing client's attempt number; replies for a superseded
    /// attempt (the client timed out and retried) are dropped.
    pub(crate) seq: u64,
    /// The client's timeout count when this attempt was issued — lets the
    /// serving MDS compute, locally, whether the attempt has already been
    /// superseded by the time service finishes (see `DataPlane::on_complete`).
    pub(crate) attempts: u32,
}

/// A data-plane event.
#[derive(Debug)]
pub(crate) enum Event {
    /// A client is ready to issue its next op.
    ClientNext(usize),
    /// A request arrives at an MDS.
    Arrive { mds: MdsId, req: Request },
    /// An MDS finishes serving a request.
    Complete {
        mds: MdsId,
        req: Request,
        service_us: f64,
        /// The MDS's incarnation when service started; a crash bumps the
        /// incarnation, so completions from before it are ghosts.
        epoch: u64,
    },
    /// A served reply reaches the issuing client (half an RTT after the
    /// MDS finished); the client absorbs it and issues its next op.
    Reply { mds: MdsId, req: Request },
    /// A client's request timeout expires; if the attempt is still
    /// outstanding the client declares it lost and backs off to retry.
    Timeout { client: usize, seq: u64 },
    /// A client re-issues its pending op after a timeout backoff.
    Retry(usize),
}

/// A namespace mutation deferred to the window barrier, keyed so the
/// coordinator applies the window's mutations in `(at, key)` order.
#[derive(Debug)]
pub(crate) struct DeferredNsOp {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) op: NsOp,
}

/// The mutation itself.
#[derive(Debug)]
pub(crate) enum NsOp {
    /// Charge one completed op's heat/size to a dirfrag (no splits —
    /// splits run in a second barrier phase so in-window fragment
    /// layouts stay fixed).
    Record {
        dir: NodeId,
        frag: FragId,
        kind: OpKind,
    },
    /// First-touch hash placement: pin `dir` to `mds` unless an earlier
    /// (in key order) arrival already pinned it.
    Pin { dir: NodeId, mds: MdsId },
    /// LRU-touch a proxy-cache entry a hit just served. Recency is
    /// shared state (it drives eviction), so it moves at the barrier in
    /// global `(at, key)` order like every other shared mutation.
    CacheTouch { group: usize, dir: NodeId },
    /// A completed cacheable op's reply fills `group`'s proxy cache:
    /// `dir` is now servable by the tier on behalf of `mds`.
    CacheFill {
        group: usize,
        dir: NodeId,
        mds: MdsId,
    },
    /// A mutating op rewrote `dir`'s metadata — every proxy copy of it
    /// is stale and drops, ordered against the fills racing it.
    CacheInvalidate { dir: NodeId },
}

/// One export's freeze or cold-prefix region. Membership is an
/// Euler-interval range check against the namespace's current labels plus
/// the authority holes captured at export time — no per-directory map
/// entries are materialized. Expired windows are purged at barriers;
/// in-window readers filter by `until` instead.
#[derive(Debug, Clone)]
pub(crate) struct SubtreeWindow {
    pub(crate) root: NodeId,
    /// Nested authority bounds inside the exported subtree; directories
    /// under a hole did not move and are outside the window.
    pub(crate) holes: Vec<NodeId>,
    /// `dir_count` at capture: directories created after the export sit
    /// outside the window even when their Euler label falls inside.
    pub(crate) watermark: u32,
    /// Frag exports cover only the fragmented directory itself.
    pub(crate) root_only: bool,
    pub(crate) until: SimTime,
}

impl SubtreeWindow {
    pub(crate) fn contains(&self, ns: &Namespace, d: NodeId) -> bool {
        if d.0 >= self.watermark {
            return false;
        }
        if self.root_only {
            return d == self.root;
        }
        ns.in_subtree(d, self.root) && !self.holes.iter().any(|&h| ns.in_subtree(d, h))
    }
}

/// Simulation state the data plane reads during a window and only the
/// coordinator mutates (at barriers and in exclusive control-plane
/// steps).
#[derive(Debug)]
pub struct SharedSim {
    pub(crate) ns: Namespace,
    /// Liveness per MDS (crashes flip this off, restarts back on).
    pub(crate) up: Vec<bool>,
    /// Incarnation per MDS; bumped by crashes to invalidate in-flight
    /// completions.
    pub(crate) mds_epoch: Vec<u64>,
    /// Elastic membership per MDS: only members receive placement (hash
    /// pins, balancer targets, re-homing). With the elastic layer off
    /// every entry is `true` for the whole run. Mutated only in exclusive
    /// heartbeat steps, so windows read a stable view.
    pub(crate) member: Vec<bool>,
    /// Membership epoch: join/leave transitions completed so far. Bumped
    /// with every membership change (exclusive steps only).
    pub(crate) membership_epoch: u64,
    /// Service-time multiplier per MDS while `now < slow_until`.
    pub(crate) slow_factor: Vec<f64>,
    pub(crate) slow_until: Vec<SimTime>,
    /// Frozen regions (two-phase-commit migrations); a request inside any
    /// live window defers to the latest covering thaw.
    pub(crate) frozen: Vec<SubtreeWindow>,
    /// Regions whose new authority is still warming up its ancestor
    /// prefix replicas.
    pub(crate) prefix_cold: Vec<SubtreeWindow>,
    /// Heartbeat epoch: balancer ticks completed so far (stamps trace
    /// records; only changes in exclusive phases).
    pub(crate) hb_epoch: u64,
    /// Proxy-tier caches, one per client group ([`crate::config::CacheConfig`]).
    /// Read-only during windows (the data plane probes for hits); fills, LRU
    /// touches, and invalidations are deferred [`NsOp`]s applied at
    /// barriers. Empty when the cache is disabled.
    pub(crate) caches: Vec<GroupCache>,
}

/// Data-plane execution statistics (a side channel; never feeds back into
/// the simulation), named for the executor the repository benchmark
/// (`perfbench/`) was written against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Simulation events drained by the data plane. The repository
    /// benchmark (`perfbench/`) reads this field.
    pub events: u64,
    /// Always zero: nothing runs concurrently with the coordinator. Kept
    /// only because the repository benchmark (`perfbench/`) reads it.
    pub barrier_wait_ns: u64,
}

/// Whole-run execution statistics, reported by
/// [`crate::cluster::Cluster::run_with_stats`].
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Lookahead windows executed. The repository benchmark
    /// (`perfbench/`) reads this field.
    pub windows: u64,
    /// Control-plane events (heartbeats, faults, admin actions) run in
    /// exclusive steps. The repository benchmark (`perfbench/`) reads this
    /// field.
    pub exclusive_events: u64,
    /// The data plane's statistics, as a one-element list: the repository
    /// benchmark (`perfbench/`) sums it.
    pub shards: Vec<ShardStats>,
}

/// The cluster's MDSs and clients: their event queue and every piece of
/// state only they touch. During a window the data plane has read access
/// to [`SharedSim`] and exclusive access to itself; everything it cannot
/// do under those terms (namespace and cache writes) is deferred to the
/// barrier.
pub struct DataPlane {
    pub(crate) queue: EventQueue<Event>,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) counters: Vec<MdsCounters>,
    /// Absolute µs when each MDS becomes free (single-server queue).
    pub(crate) next_free: Vec<SimTime>,
    /// Per-MDS service-noise streams (`stream_n("service-noise", m)`), so
    /// an MDS's noise sequence is independent of every other MDS's event
    /// interleaving.
    pub(crate) rng_service: Vec<SimRng>,
    /// Per-origin key counters.
    mds_ctr: Vec<u64>,
    client_ctr: Vec<u64>,
    /// Reused owner-list buffer (per-op span / routing checks).
    scratch_owners: Vec<MdsId>,
    /// Namespace mutations accumulated this window, drained at the barrier.
    pub(crate) deferred: Vec<DeferredNsOp>,
    /// Data-plane trace records, merged with the coordinator's.
    pub(crate) trace: Vec<(TraceKey, TraceRecord)>,
    /// Emit request-level records (trace level Full). Set by
    /// [`crate::cluster::Cluster::enable_tracing`] before the run.
    pub(crate) trace_full: bool,
    /// Requests in flight: issues (+1) net of resolutions (−1).
    pub(crate) inflight: i64,
    /// Clients still issuing ops.
    pub(crate) active: usize,
    pub(crate) timeouts: u64,
    pub(crate) retries: u64,
    /// Time of the last event processed.
    pub(crate) last_event: SimTime,
    /// Execution stats.
    pub(crate) stats: ShardStats,
    // Cursor of the event being processed (drives trace sort keys).
    cur_at: SimTime,
    cur_key: u64,
    cur_emit: u32,
    cur_epoch: u64,
    // Cached config-derived values.
    pub(crate) cfg: ClusterConfig,
    faults_active: bool,
    half_rtt: SimTime,
    // Proxy-cache plumbing (all inert when `cfg.cache.enabled` is off).
    cache_on: bool,
    cache_groups: usize,
    num_clients: usize,
    cache_hit_lat: SimTime,
    /// Run-total cache hits/misses attributed per MDS.
    pub(crate) cache_hits: Vec<u64>,
    pub(crate) cache_misses: Vec<u64>,
    /// Per-heartbeat-window slices of the above, zeroed on window roll.
    pub(crate) cache_window_hits: Vec<u64>,
    pub(crate) cache_window_misses: Vec<u64>,
    /// Live-service mode: record op completions for the wire layer. Set
    /// by [`crate::cluster::Cluster::serve`] before the run; batch runs
    /// leave it off and pay one untaken branch per reply.
    pub(crate) live: bool,
    /// Completions accumulated since the service pump last drained them.
    pub(crate) completions: Vec<crate::service::LiveCompletion>,
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane")
            .field("active", &self.active)
            .field("inflight", &self.inflight)
            .finish_non_exhaustive()
    }
}

impl DataPlane {
    /// Build the data plane for `workload`'s clients (already set up
    /// against the namespace) and `cfg.num_mds` MDSs.
    pub(crate) fn new(cfg: ClusterConfig, workload: Box<dyn Workload>, master: &SimRng) -> Self {
        let n = cfg.num_mds;
        let num_clients = workload.num_clients();
        let faults_active = cfg.faults.is_active();
        let half_rtt = SimTime::from_micros_f64(cfg.costs.rtt_us / 2.0);
        DataPlane {
            queue: EventQueue::new(),
            workload,
            clients: (0..num_clients).map(ClientState::new).collect(),
            counters: (0..n).map(|_| MdsCounters::new()).collect(),
            next_free: vec![SimTime::ZERO; n],
            rng_service: (0..n)
                .map(|m| master.stream_n("service-noise", m))
                .collect(),
            mds_ctr: vec![0; n],
            client_ctr: vec![0; num_clients],
            scratch_owners: Vec::new(),
            deferred: Vec::new(),
            trace: Vec::new(),
            trace_full: false,
            inflight: 0,
            active: num_clients,
            timeouts: 0,
            retries: 0,
            last_event: SimTime::ZERO,
            stats: ShardStats::default(),
            cur_at: SimTime::ZERO,
            cur_key: 0,
            cur_emit: 0,
            cur_epoch: 0,
            faults_active,
            half_rtt,
            cache_on: cfg.cache.enabled,
            cache_groups: cfg.cache.groups.max(1),
            num_clients,
            cache_hit_lat: SimTime::from_micros_f64(cfg.cache.hit_us),
            cache_hits: vec![0; cfg.num_mds],
            cache_misses: vec![0; cfg.num_mds],
            cache_window_hits: vec![0; cfg.num_mds],
            cache_window_misses: vec![0; cfg.num_mds],
            live: false,
            completions: Vec::new(),
            cfg,
        }
    }

    // -- keys ------------------------------------------------------------

    /// Next key for an event generated by MDS `m`.
    fn mds_key(&mut self, m: MdsId) -> u64 {
        let ctr = self.mds_ctr[m];
        self.mds_ctr[m] += 1;
        ((1 + m as u64) << KEY_CTR_BITS) | ctr
    }

    /// Next key for an event generated by client `c`.
    pub(crate) fn client_key(&mut self, c: usize) -> u64 {
        let ctr = self.client_ctr[c];
        self.client_ctr[c] += 1;
        ((1 + self.cfg.num_mds as u64 + c as u64) << KEY_CTR_BITS) | ctr
    }

    // -- trace -----------------------------------------------------------

    /// Emit a data-plane record (recorded only at `TraceLevel::Full`),
    /// keyed under the event currently being processed. Control-plane
    /// records all originate at the coordinator.
    fn emit_full(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.trace_full {
            let record = TraceRecord {
                at: self.cur_at,
                epoch: self.cur_epoch,
                event: make(),
            };
            self.trace
                .push(((self.cur_at, self.cur_key, self.cur_emit), record));
            self.cur_emit += 1;
        }
    }

    // -- the window loop -------------------------------------------------

    /// Drain every event strictly before `window_end`. Called with read
    /// access to `sh`; all mutations of it are queued in `deferred` for the
    /// barrier.
    pub(crate) fn process_window(&mut self, sh: &SharedSim, window_end: SimTime) {
        self.cur_epoch = sh.hb_epoch;
        while let Some((now, key, event)) = self.queue.pop_before(window_end) {
            self.last_event = now;
            self.cur_at = now;
            self.cur_key = key;
            self.cur_emit = 0;
            self.stats.events += 1;
            match event {
                Event::ClientNext(c) => {
                    if !self.clients[c].done {
                        self.client_next(sh, c, now);
                    }
                }
                Event::Arrive { mds, req } => self.on_arrive(sh, mds, req, now),
                Event::Complete {
                    mds,
                    req,
                    service_us,
                    epoch,
                } => self.on_complete(sh, mds, req, service_us, epoch, now),
                Event::Reply { mds, req } => self.on_reply(sh, mds, req, now),
                Event::Timeout { client, seq } => self.on_timeout(client, seq, now),
                Event::Retry(c) => self.on_retry(sh, c, now),
            }
        }
    }

    // -- client side -----------------------------------------------------

    /// Advance client `c`: ask the workload for its next op and issue it,
    /// or mark the client done. Runs inline from an accepted reply (no
    /// same-instant self-event) and from `Event::ClientNext`.
    fn client_next(&mut self, sh: &SharedSim, c: usize, now: SimTime) {
        let stall = self.clients[c].stall_until;
        if stall > now {
            let key = self.client_key(c);
            self.queue.schedule_at_key(stall, key, Event::ClientNext(c));
            return;
        }
        // Open-loop workloads can park a client until a future window
        // (diurnal phases); re-poll at that instant.
        if let Some(ready) = self.workload.next_ready_at(c, now) {
            if ready > now {
                let key = self.client_key(c);
                self.queue.schedule_at_key(ready, key, Event::ClientNext(c));
                return;
            }
        }
        match self.workload.next(c, &sh.ns, now) {
            None => {
                let client = &mut self.clients[c];
                client.done = true;
                if client.finished_at == SimTime::ZERO {
                    client.finished_at = now;
                }
                self.active -= 1;
            }
            Some(op) => {
                let client = &mut self.clients[c];
                client.pending = Some(op);
                client.attempts = 0;
                self.issue(sh, c, now);
            }
        }
    }

    /// Send the client's pending op to the MDS it routes to, arming the
    /// request timeout when fault injection is on.
    fn issue(&mut self, sh: &SharedSim, c: usize, now: SimTime) {
        let op = self.clients[c]
            .pending
            .expect("issue() requires a pending op");
        let frag = sh.ns.peek_frag(op.dir);
        sh.ns.frag_owners_into(op.dir, &mut self.scratch_owners);
        let multi_owner = self.scratch_owners.len() > 1;
        // Proxy-tier probe: does the client group's cache hold this dir?
        // (Read-only during the window — the LRU touch defers to the
        // barrier like every other shared-state write.)
        let probe = if self.cache_on && cacheable(op.kind) {
            let group = group_of(c, self.num_clients, self.cache_groups);
            Some((group, sh.caches[group].lookup(op.dir)))
        } else {
            None
        };
        let client = &mut self.clients[c];
        let mds = client.route(&sh.ns, &op, frag, multi_owner);
        client.seq += 1;
        let seq = client.seq;
        let attempts = client.attempts;
        let req = Request {
            client: c,
            op,
            frag,
            issued: now,
            forwarded: false,
            seq,
            attempts,
        };
        if let Some((group, Some(cached))) = probe {
            // Cache hit: the proxy tier absorbs the op. No MDS is
            // enqueued, no service time or heat is charged anywhere
            // (cache-aware metaload: absorbed traffic is *not* MDS
            // load), and no timeout is armed — the reply is local to
            // the tier and cannot be lost. The hit is attributed to the
            // entry's authority so policies can see what the tier is
            // absorbing on each MDS's behalf.
            self.cache_hits[cached] += 1;
            self.cache_window_hits[cached] += 1;
            self.emit_full(|| TraceEvent::CacheHit {
                group,
                client: c,
                dir: op.dir,
                mds: cached,
            });
            self.deferred.push(DeferredNsOp {
                at: now,
                key: self.cur_key,
                op: NsOp::CacheTouch { group, dir: op.dir },
            });
            let key = self.client_key(c);
            self.queue.schedule_at_key(
                now + self.cache_hit_lat,
                key,
                Event::Reply { mds: cached, req },
            );
            return;
        }
        if probe.is_some() {
            // Cacheable but absent: post-cache traffic the routed MDS
            // actually receives.
            self.cache_misses[mds] += 1;
            self.cache_window_misses[mds] += 1;
        }
        self.emit_full(|| TraceEvent::RequestIssued {
            client: c,
            dir: op.dir,
            mds,
            seq,
        });
        self.inflight += 1;
        let key = self.client_key(c);
        self.queue
            .schedule_at_key(now + self.half_rtt, key, Event::Arrive { mds, req });
        if self.faults_active {
            let key = self.client_key(c);
            self.queue.schedule_at_key(
                now + self.cfg.faults.request_timeout,
                key,
                Event::Timeout { client: c, seq },
            );
        }
    }

    /// A request timeout fired. If the attempt is still outstanding, the
    /// client declares it lost, forgets its (possibly stale) route for
    /// the directory, and backs off exponentially before retrying.
    fn on_timeout(&mut self, c: usize, seq: u64, now: SimTime) {
        let client = &self.clients[c];
        if client.seq != seq || client.pending.is_none() {
            return; // the attempt completed (or was already superseded)
        }
        self.timeouts += 1;
        self.emit_full(|| TraceEvent::RequestTimeout { client: c, seq });
        let client = &mut self.clients[c];
        let dir = client.pending.expect("checked above").dir;
        let attempt = client.attempts;
        client.attempts += 1;
        // Re-route: the cached mapping pointed at a dead or unreachable
        // authority; fall back to the mount authority on the next try.
        client.invalidate(dir);
        let backoff = self.cfg.faults.backoff_for(attempt);
        let key = self.client_key(c);
        self.queue
            .schedule_at_key(now + backoff, key, Event::Retry(c));
    }

    /// The backoff elapsed: re-issue the pending op (a late reply may
    /// have landed in the meantime, in which case there is nothing to do).
    fn on_retry(&mut self, sh: &SharedSim, c: usize, now: SimTime) {
        if self.clients[c].done || self.clients[c].pending.is_none() {
            return;
        }
        self.retries += 1;
        let attempt = self.clients[c].attempts;
        self.emit_full(|| TraceEvent::RequestRetry { client: c, attempt });
        self.issue(sh, c, now);
    }

    /// A reply reached its client. A reply for a superseded attempt (the
    /// client timed out and re-issued meanwhile) is dropped on the floor.
    fn on_reply(&mut self, sh: &SharedSim, mds: MdsId, req: Request, now: SimTime) {
        let client = &mut self.clients[req.client];
        if req.seq != client.seq || client.pending.is_none() {
            return;
        }
        client.pending = None;
        client.learn(&sh.ns, req.op.dir, mds);
        let latency_ms = (now - req.issued).as_millis_f64();
        client.record_completion(now, latency_ms);
        if self.live {
            self.completions.push(crate::service::LiveCompletion {
                client: req.client,
                mds,
                kind: req.op.kind,
                dir: req.op.dir,
                at: now,
                latency_ms,
            });
        }
        self.client_next(sh, req.client, now);
    }

    // -- server side -----------------------------------------------------

    fn on_arrive(&mut self, sh: &SharedSim, mds: MdsId, mut req: Request, now: SimTime) {
        // A crashed MDS serves nothing: the request is lost on the floor
        // and the issuing client's timeout recovers it.
        if !sh.up[mds] {
            self.counters[mds].dropped += 1;
            self.inflight -= 1;
            self.emit_full(|| TraceEvent::Dropped {
                mds,
                client: req.client,
            });
            return;
        }
        // Hash placement pins each directory on first touch. The pin is a
        // namespace write, so it lands at the barrier (first arrival in
        // key order wins); routing inside this window still sees the
        // window-start authority.
        if self.cfg.placement == PlacementPolicy::HashDirs && sh.ns.dir(req.op.dir).auth.is_none() {
            let mut target = (req.op.dir.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) as usize
                % self.cfg.num_mds;
            if !sh.up[target] || !sh.member[target] {
                target = 0; // never pin fresh metadata on a dead or departed MDS
            }
            self.deferred.push(DeferredNsOp {
                at: now,
                key: self.cur_key,
                op: NsOp::Pin {
                    dir: req.op.dir,
                    mds: target,
                },
            });
        }
        // Frozen subtree (mid-migration): the request waits for the thaw.
        if let Some(thaw) = frozen_until(sh, req.op.dir, now) {
            self.emit_full(|| TraceEvent::Deferred {
                mds,
                dir: req.op.dir,
                until: thaw,
            });
            let key = self.mds_key(mds);
            self.queue
                .schedule_at_key(thaw, key, Event::Arrive { mds, req });
            return;
        }
        let frag = req.frag.min(sh.ns.dir(req.op.dir).frags.len() - 1);
        let auth = sh.ns.frag_auth(req.op.dir, frag);
        if auth != mds {
            // Wrong MDS: pay a forward (wasted service here + a hop).
            self.counters[mds].forwards_out += 1;
            let fwd_us = self.cfg.costs.forward_us;
            let start = self.next_free[mds].max(now);
            self.next_free[mds] = start + SimTime::from_micros_f64(fwd_us);
            self.counters[mds].busy_window_us += fwd_us;
            req.forwarded = true;
            self.emit_full(|| TraceEvent::Forwarded {
                from: mds,
                to: auth,
                dir: req.op.dir,
                frag,
                client: req.client,
            });
            let hop = SimTime::from_micros_f64(self.cfg.costs.forward_hop_us);
            let at = self.next_free[mds].max(now) + hop;
            let key = self.mds_key(mds);
            self.queue
                .schedule_at_key(at, key, Event::Arrive { mds: auth, req });
            return;
        }
        if req.forwarded {
            self.counters[mds].forwards_in += 1;
        } else {
            self.counters[mds].hits += 1;
        }
        self.emit_full(|| TraceEvent::Served {
            mds,
            client: req.client,
            dir: req.op.dir,
            frag,
            kind: req.op.kind,
            seq: req.seq,
        });
        sh.ns.frag_owners_into(req.op.dir, &mut self.scratch_owners);
        let span = self.scratch_owners.len();
        let mut base = self.cfg.costs.service_with_span(req.op.kind, span)
            * self.cfg.costs.contention_factor(self.counters[mds].queued);
        // Path traversal: right after an import the serving MDS has not
        // yet replicated the directory's ancestor prefix, so traversals
        // resolve remotely (and, once warm, locally again).
        let in_cold = sh
            .prefix_cold
            .iter()
            .any(|w| w.until > now && w.contains(&sh.ns, req.op.dir));
        if in_cold {
            if sh.ns.dir(req.op.dir).parent.is_some() {
                base *= 1.0 + self.cfg.costs.remote_prefix_penalty;
                self.counters[mds].remote_prefix += 1;
            }
        } else if self.cfg.placement == PlacementPolicy::HashDirs {
            // Hash-based placement has no subtree prefix replication
            // (§5 "Compute it – Hashing"): every traversal whose parent
            // lives elsewhere resolves remotely, permanently.
            if let Some(parent) = sh.ns.dir(req.op.dir).parent {
                if sh.ns.resolve_auth(parent) != mds {
                    base *= 1.0 + self.cfg.costs.remote_prefix_penalty;
                    self.counters[mds].remote_prefix += 1;
                }
            }
        }
        // An injected slowdown stretches every service time in its window.
        if self.faults_active && now < sh.slow_until[mds] {
            base *= sh.slow_factor[mds];
        }
        let noise = self.rng_service[mds].jitter(self.cfg.costs.service_noise);
        let service_us = (base * noise).max(1.0);
        let start = self.next_free[mds].max(now);
        let done = start + SimTime::from_micros_f64(service_us);
        self.next_free[mds] = done;
        self.counters[mds].queued += 1;
        let key = self.mds_key(mds);
        self.queue.schedule_at_key(
            done,
            key,
            Event::Complete {
                mds,
                req,
                service_us,
                epoch: sh.mds_epoch[mds],
            },
        );
    }

    fn on_complete(
        &mut self,
        sh: &SharedSim,
        mds: MdsId,
        req: Request,
        service_us: f64,
        epoch: u64,
        now: SimTime,
    ) {
        // Ghost completion: the MDS crashed (and possibly restarted) after
        // this request entered service — the reply never left the wire.
        if !sh.up[mds] || epoch != sh.mds_epoch[mds] {
            self.inflight -= 1;
            self.emit_full(|| TraceEvent::GhostReply { mds });
            return;
        }
        let counters = &mut self.counters[mds];
        counters.queued = counters.queued.saturating_sub(1);
        counters.complete_op(now, service_us);
        // The op's heat/size charge is a namespace write → barrier. The
        // fragment layout cannot change mid-window (splits also run at
        // barriers), so the clamped index is exactly what the deferred
        // apply will use.
        let frag_used = req.frag.min(sh.ns.dir(req.op.dir).frags.len() - 1);
        self.deferred.push(DeferredNsOp {
            at: now,
            key: self.cur_key,
            op: NsOp::Record {
                dir: req.op.dir,
                frag: req.frag,
                kind: req.op.kind,
            },
        });
        // A mutating op rewrote `dir`'s metadata: every proxy copy is
        // stale. The drop is queued even when the reply turns out stale
        // below — the mutation itself happened either way.
        if self.cache_on && req.op.kind.is_write() {
            self.deferred.push(DeferredNsOp {
                at: now,
                key: self.cur_key,
                op: NsOp::CacheInvalidate { dir: req.op.dir },
            });
        }
        // Server-computed staleness: the issuing client has already timed
        // this attempt out and re-issued iff its retry fired strictly
        // before service finished. Everything in the predicate travelled
        // with the request, so the server needs no peek at client state —
        // the client-side guard in `on_reply` stays authoritative for the
        // races this can't see.
        let stale = self.faults_active
            && req.issued
                + self.cfg.faults.request_timeout
                + self.cfg.faults.backoff_for(req.attempts)
                < now;
        if stale {
            self.emit_full(|| TraceEvent::StaleReply {
                mds,
                client: req.client,
                dir: req.op.dir,
                frag: frag_used,
                kind: req.op.kind,
            });
            self.inflight -= 1;
            return;
        }
        self.emit_full(|| TraceEvent::Completed {
            mds,
            client: req.client,
            dir: req.op.dir,
            frag: frag_used,
            kind: req.op.kind,
        });
        // The reply carries `dir`'s metadata through the proxy tier: the
        // issuing group's cache learns it at the barrier (ghost and stale
        // completions above never fill — their replies never landed).
        if self.cache_on && cacheable(req.op.kind) {
            let group = group_of(req.client, self.num_clients, self.cache_groups);
            self.deferred.push(DeferredNsOp {
                at: now,
                key: self.cur_key,
                op: NsOp::CacheFill {
                    group,
                    dir: req.op.dir,
                    mds,
                },
            });
        }
        self.inflight -= 1;
        let reply_at = now + self.half_rtt;
        let key = self.mds_key(mds);
        self.queue
            .schedule_at_key(reply_at, key, Event::Reply { mds, req });
    }
}

/// Latest thaw among live frozen windows covering `d`, if any. Purging
/// happens at barriers; mid-window readers filter by `until` instead of
/// mutating the shared set.
pub(crate) fn frozen_until(sh: &SharedSim, d: NodeId, now: SimTime) -> Option<SimTime> {
    sh.frozen
        .iter()
        .filter(|w| w.until > now && w.contains(&sh.ns, d))
        .map(|w| w.until)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_origin_then_sequence() {
        // Coordinator rank 0 sorts before MDS ranks, which sort before
        // client ranks; within a rank the counter orders emissions.
        let coord = 7u64; // rank 0 key is just the counter
        let mds0 = 1u64 << KEY_CTR_BITS;
        let mds1 = 2u64 << KEY_CTR_BITS;
        let client0 = (1u64 + 4) << KEY_CTR_BITS; // num_mds = 4
        assert!(coord < mds0);
        assert!(mds0 < mds1);
        assert!(mds1 < client0);
        assert!(mds0 < (1u64 << KEY_CTR_BITS) | 1);
    }
}
