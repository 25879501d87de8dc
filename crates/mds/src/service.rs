//! Live-service plumbing: the channel types that let a long-running
//! daemon feed a *running* cluster engine — injected client ops, hot
//! policy installs, live trace/completion streams — without forking the
//! engine itself.
//!
//! # Shape
//!
//! The engine keeps its exact batch-mode event loop (windows + exclusive
//! steps, see [`crate::cluster`]); a [`LiveService`] merely hooks the top
//! and bottom of each scheduler iteration:
//!
//! * **inbound** — commands submitted through a [`ServiceHandle`] are
//!   drained between windows: ops are resolved against the namespace and
//!   pushed into the per-client queues of a [`LiveWorkload`] (clients
//!   park-and-poll on those queues via [`Workload::next_ready_at`]), and
//!   policy installs are scheduled as admin events so the swap runs in
//!   the coordinator's exclusive step like every other control-plane
//!   mutation.
//! * **outbound** — each iteration the pump drains newly-emitted trace
//!   records (already in global `(time, key)` order) and live op
//!   completions into an [`mpsc`](std::sync::mpsc) stream of
//!   [`ServiceEvent`]s the daemon forwards to subscribers.
//!
//! With [`ClockMode::Wall`] the pump additionally sleeps until the next
//! event's wall deadline (interruptibly — a submitted command wakes it),
//! so simulated time tracks real time. With [`ClockMode::Sim`] the pump
//! never sleeps and an idle service with no live clients behaves exactly
//! like the batch engine — `tests/daemon_equivalence.rs` pins that the
//! reports are byte-identical.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use mantle_namespace::{MdsId, Namespace, NodeId, OpKind};
use mantle_policy::env::PolicySet;
use mantle_policy::HookEngine;
use mantle_sim::{ClockMode, SimTime};

use crate::client::{ClientOp, Workload};
use crate::trace::TraceRecord;

/// A command sent into the running engine (daemon → engine).
pub(crate) enum ServiceCmd {
    /// Inject one metadata op for `client`; the engine resolves `path`
    /// (creating missing parents) and enqueues it on the client's live
    /// queue.
    Op {
        /// Target client slot.
        client: usize,
        /// Directory path the op targets.
        path: String,
        /// What the op does.
        kind: OpKind,
    },
    /// Hot-install a new (already validated) policy on every MDS in the
    /// coordinator's next exclusive step.
    Install {
        /// Policy name for reports and trace records.
        name: String,
        /// Install epoch assigned by the daemon's `PolicyCell`.
        epoch: u64,
        /// The compiled, validated policy.
        set: PolicySet,
        /// Hook engine the new balancers should run on.
        engine: HookEngine,
        /// Acked with the simulated install instant, or an error.
        ack: Sender<Result<SimTime, String>>,
    },
    /// Close the live queues: clients drain and the run ends normally.
    Shutdown,
}

/// An event streamed out of the running engine (engine → daemon).
#[derive(Debug)]
pub enum ServiceEvent {
    /// Trace records emitted since the last batch, in global
    /// `(time, key)` order; batches are themselves time-ordered, so
    /// concatenating them reproduces the batch-mode trace stream.
    Trace(Vec<TraceRecord>),
    /// Live ops completed since the last batch.
    Completions(Vec<LiveCompletion>),
}

/// One completed live op, as observed by the issuing client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCompletion {
    /// The issuing client slot.
    pub client: usize,
    /// The MDS that ultimately served the op.
    pub mds: MdsId,
    /// What the op did.
    pub kind: OpKind,
    /// The directory it targeted.
    pub dir: NodeId,
    /// Completion instant (simulated; tracks wall time under
    /// [`ClockMode::Wall`]).
    pub at: SimTime,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
}

/// The command inbox shared between handle and pump. The condvar wakes a
/// wall-clock pump sleeping until the next event deadline, so a newly
/// submitted op is picked up immediately instead of after the sleep.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) queue: Mutex<VecDeque<ServiceCmd>>,
    pub(crate) signal: Condvar,
}

impl Inbox {
    fn push(&self, cmd: ServiceCmd) {
        self.queue
            .lock()
            .expect("service inbox never poisoned")
            .push_back(cmd);
        self.signal.notify_all();
    }
}

/// Per-client live op queues, shared by the [`LiveWorkload`] and the
/// service pump (which pushes resolved ops).
pub(crate) struct LiveQueues {
    pub(crate) queues: Vec<Mutex<VecDeque<ClientOp>>>,
    pub(crate) closed: AtomicBool,
}

impl LiveQueues {
    fn new(num_clients: usize) -> Self {
        LiveQueues {
            queues: (0..num_clients)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            closed: AtomicBool::new(false),
        }
    }
}

/// A [`Workload`] fed at runtime instead of generated: each client owns a
/// queue of injected ops and parks (re-polling every `poll` of simulated
/// time) while its queue is empty. Closing the queues ends every client's
/// stream, so a live run drains and terminates exactly like a batch run.
pub struct LiveWorkload {
    shared: Arc<LiveQueues>,
    poll: SimTime,
}

impl Workload for LiveWorkload {
    fn num_clients(&self) -> usize {
        self.shared.queues.len()
    }

    fn setup(&mut self, _ns: &mut Namespace) {}

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        let mut q = self.shared.queues[client]
            .lock()
            .expect("live queue never poisoned");
        // `next_ready_at` parks the client while its queue is empty and
        // open, so reaching here with an empty queue means closed (or a
        // benign submit/close race, where ending the client is also the
        // right answer).
        q.pop_front()
    }

    fn next_ready_at(&mut self, client: usize, now: SimTime) -> Option<SimTime> {
        let q = self.shared.queues[client]
            .lock()
            .expect("live queue never poisoned");
        if q.is_empty() && !self.shared.closed.load(Ordering::Acquire) {
            Some(now + self.poll)
        } else {
            None
        }
    }

    fn fork(&self) -> Box<dyn Workload> {
        Box::new(LiveWorkload {
            shared: Arc::clone(&self.shared),
            poll: self.poll,
        })
    }

    fn name(&self) -> &str {
        "live"
    }
}

/// The engine side of a live service: handed to
/// [`crate::cluster::Cluster::serve`], which pumps it every scheduler
/// iteration. Create one with [`LiveService::new`]; the paired
/// [`ServiceHandle`] goes to the connection-handling side.
pub struct LiveService {
    pub(crate) inbox: Arc<Inbox>,
    pub(crate) events: Sender<ServiceEvent>,
    pub(crate) clock: ClockMode,
    pub(crate) queues: Option<Arc<LiveQueues>>,
}

impl LiveService {
    /// Build a service and its handle. `clock` picks batch speed
    /// ([`ClockMode::Sim`]) or wall pacing ([`ClockMode::Wall`]).
    pub fn new(clock: ClockMode) -> (LiveService, ServiceHandle) {
        let inbox = Arc::new(Inbox::default());
        let (tx, rx) = channel();
        (
            LiveService {
                inbox: Arc::clone(&inbox),
                events: tx,
                clock,
                queues: None,
            },
            ServiceHandle { inbox, events: rx },
        )
    }

    /// Create the live workload this service feeds: `sessions` client
    /// slots, each re-polling its queue every `poll` of simulated time
    /// while idle. Pass the result to [`crate::cluster::Cluster::new`].
    /// A service without a live workload (scenario mode) still pumps
    /// commands and streams events, but [`ServiceHandle::submit_op`] has
    /// no queues to land in.
    pub fn workload(&mut self, sessions: usize, poll: SimTime) -> Box<dyn Workload> {
        let q = Arc::new(LiveQueues::new(sessions));
        self.queues = Some(Arc::clone(&q));
        Box::new(LiveWorkload {
            shared: q,
            poll: poll.max(SimTime::from_micros(1)),
        })
    }
}

/// The daemon side of a live service: submit ops and installs, receive
/// the event stream. Cheap to clone for per-connection use; the event
/// receiver stays with the original handle.
pub struct ServiceHandle {
    inbox: Arc<Inbox>,
    /// Trace/completion batches emitted by the engine, in order.
    pub events: Receiver<ServiceEvent>,
}

impl ServiceHandle {
    /// Inject one op for `client`. The engine resolves the path when it
    /// drains the command; completions come back as
    /// [`ServiceEvent::Completions`] in submission order per client
    /// (clients are closed-loop: one outstanding op each).
    pub fn submit_op(&self, client: usize, path: impl Into<String>, kind: OpKind) {
        self.inbox.push(ServiceCmd::Op {
            client,
            path: path.into(),
            kind,
        });
    }

    /// Hot-install `set` (validated by the caller — see
    /// [`mantle_policy::install::prepare`]) on every MDS. Returns a
    /// receiver acked with the simulated install instant once the swap
    /// has run in the coordinator's exclusive step.
    pub fn install_policy(
        &self,
        name: impl Into<String>,
        epoch: u64,
        set: PolicySet,
        engine: HookEngine,
    ) -> Receiver<Result<SimTime, String>> {
        let (tx, rx) = channel();
        self.inbox.push(ServiceCmd::Install {
            name: name.into(),
            epoch,
            set,
            engine,
            ack: tx,
        });
        rx
    }

    /// Ask the engine to shut down cleanly: live queues close, clients
    /// drain their remaining ops, and the run ends with a normal
    /// [`crate::report::RunReport`].
    pub fn shutdown(&self) {
        self.inbox.push(ServiceCmd::Shutdown);
    }

    /// A sender-only clone for additional connections.
    pub fn sender(&self) -> ServiceSender {
        ServiceSender {
            inbox: Arc::clone(&self.inbox),
        }
    }
}

/// A cloneable, send-only view of a [`ServiceHandle`].
#[derive(Clone)]
pub struct ServiceSender {
    inbox: Arc<Inbox>,
}

impl ServiceSender {
    /// See [`ServiceHandle::submit_op`].
    pub fn submit_op(&self, client: usize, path: impl Into<String>, kind: OpKind) {
        self.inbox.push(ServiceCmd::Op {
            client,
            path: path.into(),
            kind,
        });
    }

    /// See [`ServiceHandle::install_policy`].
    pub fn install_policy(
        &self,
        name: impl Into<String>,
        epoch: u64,
        set: PolicySet,
        engine: HookEngine,
    ) -> Receiver<Result<SimTime, String>> {
        let (tx, rx) = channel();
        self.inbox.push(ServiceCmd::Install {
            name: name.into(),
            epoch,
            set,
            engine,
            ack: tx,
        });
        rx
    }

    /// See [`ServiceHandle::shutdown`].
    pub fn shutdown(&self) {
        self.inbox.push(ServiceCmd::Shutdown);
    }
}
