//! Outside-in instrumentation: wrappers around the engine's two plug-in
//! traits. The cluster calls into a [`Balancer`] and a [`Workload`]; a
//! wrapper forwards every trait method unchanged and, when tracing,
//! times the calls that belong to a layer. The program under test is not
//! modified, and a wrapped run must produce a byte-identical `RunReport`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mantle_mds::{BalanceContext, Balancer, ClientOp, MigrationPlan, Workload};
use mantle_namespace::{HeatSample, Namespace};
use mantle_policy::PolicyResult;
use mantle_sim::SimTime;

/// Every this many clients, one (clients 0, 16, 32, ...) has its op round
/// trips timed in host time. A few probes out of many clients keep the
/// probe's cost negligible in untraced runs, and pooling several keeps
/// one client's luck out of the percentiles.
pub const PROBE_EVERY: usize = 16;

/// Call count and total wall time spent inside one trait method.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the calls.
    pub time: Duration,
}

impl Span {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.time += d;
    }

    fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.time += other.time;
    }

    /// Wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// What the workload wrappers of one run saw, summed over every fork.
#[derive(Debug, Default)]
pub struct WorkloadTotals {
    /// `Workload::setup` (namespace population); traced runs only.
    pub setup: Span,
    /// `Workload::next`; traced runs only.
    pub next: Span,
    /// Host-time round trips of the probed clients' ops, in µs: the wall
    /// time from one `next` call for a client to its following one, which
    /// the engine makes when the op's reply arrives.
    pub probe_rtt_us: Vec<f64>,
}

impl WorkloadTotals {
    fn merge(&mut self, other: WorkloadTotals) {
        self.setup.merge(other.setup);
        self.next.merge(other.next);
        self.probe_rtt_us.extend(other.probe_rtt_us);
    }
}

/// A [`Workload`] wrapper. Each fork keeps its own counts and adds them
/// to the shared totals when the engine drops it, so the hot path takes
/// no lock.
pub struct TracedWorkload {
    inner: Box<dyn Workload>,
    trace: bool,
    local: WorkloadTotals,
    /// Last `next` call per probed client (index `client / PROBE_EVERY`).
    last_probe: Vec<Option<Instant>>,
    sink: Arc<Mutex<WorkloadTotals>>,
}

impl TracedWorkload {
    /// Wrap `inner`; `trace` turns on the per-call spans (the host-time
    /// probe is always on). Returns the wrapper and the totals it fills.
    pub fn wrap(
        inner: Box<dyn Workload>,
        trace: bool,
    ) -> (Box<dyn Workload>, Arc<Mutex<WorkloadTotals>>) {
        let sink = Arc::new(Mutex::new(WorkloadTotals::default()));
        let w = TracedWorkload {
            inner,
            trace,
            local: WorkloadTotals::default(),
            last_probe: Vec::new(),
            sink: Arc::clone(&sink),
        };
        (Box::new(w), sink)
    }
}

impl Drop for TracedWorkload {
    fn drop(&mut self) {
        let local = std::mem::take(&mut self.local);
        if let Ok(mut totals) = self.sink.lock() {
            totals.merge(local);
        }
    }
}

impl Workload for TracedWorkload {
    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn setup(&mut self, ns: &mut Namespace) {
        if self.trace {
            let t = Instant::now();
            self.inner.setup(ns);
            self.local.setup.add(t.elapsed());
        } else {
            self.inner.setup(ns);
        }
    }

    fn next(&mut self, client: usize, ns: &Namespace, now: SimTime) -> Option<ClientOp> {
        if client.is_multiple_of(PROBE_EVERY) {
            let t = Instant::now();
            let slot = client / PROBE_EVERY;
            if self.last_probe.len() <= slot {
                self.last_probe.resize(slot + 1, None);
            }
            if let Some(prev) = self.last_probe[slot].replace(t) {
                self.local.probe_rtt_us.push((t - prev).as_secs_f64() * 1e6);
            }
        }
        if self.trace {
            let t = Instant::now();
            let op = self.inner.next(client, ns, now);
            self.local.next.add(t.elapsed());
            op
        } else {
            self.inner.next(client, ns, now)
        }
    }

    fn next_ready_at(&mut self, client: usize, now: SimTime) -> Option<SimTime> {
        self.inner.next_ready_at(client, now)
    }

    fn fork(&self) -> Box<dyn Workload> {
        Box::new(TracedWorkload {
            inner: self.inner.fork(),
            trace: self.trace,
            local: WorkloadTotals::default(),
            last_probe: Vec::new(),
            sink: Arc::clone(&self.sink),
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What the balancer wrappers of one run saw, summed over every MDS.
#[derive(Debug, Default)]
pub struct BalancerTotals {
    /// `Balancer::decide` (when/where hooks and howmuch selectors).
    pub decide: Cell<Span>,
    /// `Balancer::metaload`.
    pub metaload: Cell<Span>,
}

fn timed<T>(cell: &Cell<Span>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let mut span = cell.get();
    span.add(t.elapsed());
    cell.set(span);
    out
}

/// A [`Balancer`] wrapper timing `decide` and `metaload`. Balancers live
/// on the coordinator thread, so the totals are shared through an `Rc`.
pub struct TracedBalancer {
    inner: Box<dyn Balancer>,
    totals: Rc<BalancerTotals>,
}

impl TracedBalancer {
    /// Wrap `inner`, adding its spans to `totals`.
    pub fn wrap(inner: Box<dyn Balancer>, totals: &Rc<BalancerTotals>) -> Box<dyn Balancer> {
        Box::new(TracedBalancer {
            inner,
            totals: Rc::clone(totals),
        })
    }
}

impl Balancer for TracedBalancer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn metaload(&self, heat: &HeatSample) -> PolicyResult<f64> {
        timed(&self.totals.metaload, || self.inner.metaload(heat))
    }

    fn metaload_is_additive(&self) -> bool {
        self.inner.metaload_is_additive()
    }

    fn decide(&mut self, ctx: &BalanceContext) -> PolicyResult<Option<MigrationPlan>> {
        let inner = &mut self.inner;
        timed(&self.totals.decide, || inner.decide(ctx))
    }

    fn howmany(
        &mut self,
        ctx: &BalanceContext,
        active: usize,
        min_mds: usize,
        max_mds: usize,
    ) -> PolicyResult<Option<f64>> {
        self.inner.howmany(ctx, active, min_mds, max_mds)
    }
}
