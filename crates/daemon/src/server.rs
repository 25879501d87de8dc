//! The `mantled` connection layer: blocking sockets, with a reader and a
//! writer thread per connection. A reader dispatches each frame on its
//! own thread, so a `policy-swap` awaiting its install, or a `scenario`
//! run, holds up only that connection; replies reach the writer through
//! an unbounded channel, so a peer that stops reading stalls nobody else.
//! [`Server::run`] routes engine events: completions to the issuing
//! connection (per-slot FIFO tickets: the engine completes a slot's ops
//! in submission order), trace batches to every `trace` subscriber.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mantle_mds::{RunReport, ServiceEvent, ServiceSender};
use mantle_policy::install::PolicyCell;

use crate::config::DaemonConfig;
use crate::engine::{policy_source_from_json, swap, Engine, PRESET_NAMES, THREAD_STACK};
use crate::json::Json;
use crate::wire::PROTO_VERSION;
use crate::wire::{encode_frame, error_msg, op_kind, op_name, read_frame, report_json};

/// How long shutdown lets connections flush before cutting off peers.
const FLUSH_GRACE: Duration = Duration::from_secs(5);

/// What a connection declared itself to be in its `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Issues metadata ops, bound to one client slot.
    Client,
    /// Control plane: status, policy swap, scenarios, shutdown.
    Admin,
    /// Receives the live trace stream, one record per frame.
    Trace,
}

/// What a connection's writer thread is fed.
enum Out {
    /// Encoded frames to write.
    Frames(Vec<u8>),
    /// Write these last bytes (possibly none), then close the connection.
    Close(Vec<u8>),
}

/// A client slot: whether a connection holds it, and its outstanding
/// ops as (issuer's writer, request id) tickets. A completion pops the
/// front ticket; if the issuer has closed, the send fails harmlessly.
#[derive(Default)]
struct Slot {
    bound: bool,
    tickets: VecDeque<(Sender<Out>, Option<u64>)>,
}

/// Where replies and trace records go.
struct Routes {
    slots: Vec<Slot>,
    traces: Vec<Sender<Out>>,
}

/// State the router, the accept thread and every connection share.
struct Shared {
    cfg: DaemonConfig,
    cell: Arc<PolicyCell>,
    service: ServiceSender,
    started: Instant,
    /// Never held across socket I/O, engine calls or code that can panic.
    routes: Mutex<Routes>,
    /// One policy swap at a time, so the engine installs in epoch order.
    swapping: Mutex<()>,
    connections: AtomicUsize,
    ops_submitted: AtomicU64,
    ops_completed: AtomicU64,
    draining: AtomicBool,
    stopping: AtomicBool,
}

/// Lock, recovering a poisoned guard so that a bug on one connection's
/// thread cannot take the others down. Sound because every update made
/// under these locks is one step that leaves the data valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open connection: its socket, and a channel that disconnects once
/// the connection's threads have exited.
type Tracked = (TcpStream, Receiver<()>);

/// The daemon server: accept thread, connection threads, engine.
pub struct Server {
    engine: Engine,
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<Vec<Tracked>>,
}

impl Server {
    /// Bind the listen address, boot the engine and start accepting.
    /// Replies to ops flow once [`Server::run`] routes engine events.
    pub fn bind(cfg: DaemonConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let engine = Engine::start(&cfg).map_err(io::Error::other)?;
        let slots = (0..cfg.sessions).map(|_| Slot::default()).collect();
        let shared = Arc::new(Shared {
            cfg,
            cell: Arc::clone(&engine.cell),
            service: engine.handle.sender(),
            started: Instant::now(),
            routes: Mutex::new(Routes {
                slots,
                traces: Vec::new(),
            }),
            swapping: Mutex::new(()),
            connections: AtomicUsize::new(0),
            ops_submitted: AtomicU64::new(0),
            ops_completed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        let accepting = Arc::clone(&shared);
        let acceptor = spawn("mantled-accept", move || accept_loop(listener, accepting))?;
        Ok(Server {
            engine,
            shared,
            addr,
            acceptor,
        })
    }

    /// The bound address (resolves `--addr=...:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Route engine events until the run ends (normally: a `shutdown`
    /// drained it), then close every connection and return the report.
    pub fn run(self) -> RunReport {
        let shared = &self.shared;
        // Ends when the engine thread drops its event sender.
        for ev in self.engine.handle.events.iter() {
            route(shared, ev);
        }
        let report = self.engine.finish();
        // An op that raced `shutdown` past the draining check reached the
        // engine after its clients drained: refuse it now.
        shared.draining.store(true, SeqCst);
        let stranded: Vec<_> = lock(&shared.routes)
            .slots
            .iter_mut()
            .flat_map(|s| s.tickets.drain(..))
            .collect();
        for (out, id) in stranded {
            let refusal = error_msg(id, "shutting-down", "the engine has stopped");
            let _ = out.send(Out::Frames(encode_frame(&refusal)));
        }
        // Stop accepting first, so no connection slips in behind the close
        // (a connect to an unspecified address reaches the local host).
        shared.stopping.store(true, SeqCst);
        if TcpStream::connect(self.addr).is_ok() {
            if let Ok(conns) = self.acceptor.join() {
                close_all(conns);
            }
        }
        report.expect("the engine thread ran to completion")
    }
}

/// Spawn a daemon thread with the engine thread's stack size.
fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    let builder = std::thread::Builder::new().name(name.into());
    builder.stack_size(THREAD_STACK).spawn(f)
}

/// Accept connections until told to stop; return the ones still open.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<Tracked> {
    let mut conns: Vec<Tracked> = Vec::new();
    for stream in listener.incoming() {
        if shared.stopping.load(SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        conns.retain(|(_, done)| done.try_recv() != Err(TryRecvError::Disconnected));
        let _ = stream.set_nodelay(true);
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let (done_tx, done) = channel::<()>();
        let conn_shared = Arc::clone(&shared);
        let spawned = spawn("mantled-conn", move || {
            serve(conn_shared, stream);
            drop(done_tx);
        });
        if spawned.is_ok() {
            conns.push((handle, done));
        }
    }
    conns
}

/// Flush and close the connections still open at shutdown: a read-side
/// shutdown is EOF to the reader, which closes its writer behind queued
/// replies. Peers that stopped reading are cut off after [`FLUSH_GRACE`].
fn close_all(conns: Vec<Tracked>) {
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let deadline = Instant::now() + FLUSH_GRACE;
    for (stream, done) in conns {
        let left = deadline.saturating_duration_since(Instant::now());
        if done.recv_timeout(left) == Err(RecvTimeoutError::Timeout) {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = done.recv();
        }
    }
}

/// Route one engine event: completions to their tickets, trace records
/// to every subscriber.
fn route(shared: &Shared, ev: ServiceEvent) {
    match ev {
        ServiceEvent::Trace(batch) => {
            let mut frames = Vec::new();
            for rec in &batch {
                let mut line = String::new();
                rec.write_json(&mut line);
                frames.extend_from_slice(&(line.len() as u32).to_be_bytes());
                frames.extend_from_slice(line.as_bytes());
            }
            // A subscriber whose writer has closed is forgotten.
            let send = |tx: &Sender<Out>| tx.send(Out::Frames(frames.clone())).is_ok();
            lock(&shared.routes).traces.retain(send);
        }
        ServiceEvent::Completions(batch) => {
            shared.ops_completed.fetch_add(batch.len() as u64, SeqCst);
            for done in batch {
                let ticket = lock(&shared.routes)
                    .slots
                    .get_mut(done.client)
                    .and_then(|s| s.tickets.pop_front());
                let Some((out, id)) = ticket else { continue };
                let reply = Json::obj(vec![
                    ("type", Json::str("reply")),
                    ("id", id_json(id)),
                    ("status", Json::str("ok")),
                    ("op", Json::str(op_name(done.kind))),
                    ("mds", Json::num(done.mds as f64)),
                    ("latency_ms", Json::num(done.latency_ms)),
                    ("at_us", Json::num(done.at.as_micros() as f64)),
                ]);
                let _ = out.send(Out::Frames(encode_frame(&reply)));
            }
        }
    }
}

fn id_json(id: Option<u64>) -> Json {
    id.map_or(Json::Null, |i| Json::num(i as f64))
}

/// One connection, on its reader thread: read frames, dispatch them,
/// queue the replies for the writer thread.
fn serve(shared: Arc<Shared>, stream: TcpStream) {
    let (out, rx) = channel();
    let spawned = stream
        .try_clone()
        .and_then(|w| spawn("mantled-writer", move || write_loop(w, rx)));
    let Ok(writer) = spawned else { return };
    shared.connections.fetch_add(1, SeqCst);
    let mut conn = Conn {
        shared,
        out,
        role: None,
        slot: None,
        closing: false,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let reply = match read_frame(&mut reader) {
            Ok(Some(msg)) => conn.dispatch(msg),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Some(conn.fail(None, "bad-frame", e))
            }
            Ok(None) | Err(_) => break, // EOF, or the socket died
        };
        let Some(reply) = reply else { continue };
        let frame = encode_frame(&reply);
        if conn.closing {
            let _ = conn.out.send(Out::Close(frame));
            break;
        }
        let _ = conn.out.send(Out::Frames(frame));
    }
    drop(conn);
    let _ = writer.join();
}

/// A connection's writer thread: write until told to close or the socket
/// fails, then close the socket (waking a reader still blocked on it).
fn write_loop(mut stream: TcpStream, rx: Receiver<Out>) {
    for out in rx {
        let (Out::Frames(bytes) | Out::Close(bytes)) = &out;
        if stream.write_all(bytes).is_err() || matches!(out, Out::Close(_)) {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// A connection's reader-side state.
struct Conn {
    shared: Arc<Shared>,
    out: Sender<Out>,
    role: Option<Role>,
    /// Client slot, for `Role::Client`.
    slot: Option<usize>,
    /// The peer misbehaved: send the reply, then close.
    closing: bool,
}

impl Conn {
    fn dispatch(&mut self, msg: Json) -> Option<Json> {
        let id = msg.get_u64("id");
        match (self.role, msg.get_str("type")) {
            (None, Some("hello")) => self.on_hello(&msg),
            (None, _) => Some(self.fail(id, "bad-hello", "first frame must be a hello")),
            (Some(Role::Client), Some("op")) => self.on_op(id, &msg),
            (Some(Role::Admin), Some("admin")) => Some(self.on_admin(id, &msg)),
            (Some(Role::Trace), _) => {
                Some(self.fail(id, "bad-frame", "trace connections only receive"))
            }
            (Some(_), other) => {
                let detail = format!("unexpected message type {other:?} for this role");
                Some(self.fail(id, "bad-frame", detail))
            }
        }
    }

    /// Build an error reply, and close the connection after it when the
    /// failure is not recoverable at the protocol level.
    fn fail(&mut self, id: Option<u64>, code: &str, detail: impl std::fmt::Display) -> Json {
        if matches!(code, "bad-hello" | "bad-frame" | "no-slot") {
            self.closing = true;
        }
        error_msg(id, code, detail)
    }

    fn on_hello(&mut self, msg: &Json) -> Option<Json> {
        if msg.get_u64("proto") != Some(PROTO_VERSION) {
            let detail = format!("unsupported proto (want {PROTO_VERSION})");
            return Some(self.fail(None, "bad-hello", detail));
        }
        let (role, name) = match msg.get_str("role") {
            Some(name @ "client") => (Role::Client, name),
            Some(name @ "admin") => (Role::Admin, name),
            Some(name @ "trace") => (Role::Trace, name),
            other => {
                let detail = format!("unknown role {other:?} (client|admin|trace)");
                return Some(self.fail(None, "bad-hello", detail));
            }
        };
        if role == Role::Trace && self.shared.cfg.trace.is_none() {
            return Some(self.fail(None, "bad-hello", "tracing is disabled (--trace=off)"));
        }
        if role == Role::Client {
            let mut routes = lock(&self.shared.routes);
            self.slot = routes.slots.iter().position(|s| !s.bound);
            let Some(free) = self.slot else {
                drop(routes);
                let detail = format!("all {} client slots in use", self.shared.cfg.sessions);
                return Some(self.fail(None, "no-slot", detail));
            };
            routes.slots[free].bound = true;
        }
        self.role = Some(role);
        let policy = self.shared.cell.current();
        let mut members = vec![
            ("type", Json::str("welcome")),
            ("proto", Json::num(PROTO_VERSION as f64)),
            ("role", Json::str(name)),
            ("policy", Json::str(&policy.name)),
            ("epoch", Json::num(policy.epoch as f64)),
        ];
        if let Some(slot) = self.slot {
            members.push(("slot", Json::num(slot as f64)));
        }
        let welcome = Json::obj(members);
        if role != Role::Trace {
            return Some(welcome);
        }
        // Queue the welcome before subscribing: no record may overtake it.
        let _ = self.out.send(Out::Frames(encode_frame(&welcome)));
        lock(&self.shared.routes).traces.push(self.out.clone());
        None
    }

    fn on_op(&mut self, id: Option<u64>, msg: &Json) -> Option<Json> {
        if self.shared.draining.load(SeqCst) {
            return Some(error_msg(id, "shutting-down", "daemon is draining"));
        }
        let Some(kind) = msg.get_str("op").and_then(op_kind) else {
            return Some(error_msg(id, "bad-op", "unknown or missing `op`"));
        };
        let path = msg.get_str("path").unwrap_or("");
        if !path.starts_with('/') || path.len() > 4096 {
            return Some(error_msg(id, "bad-op", "`path` must be absolute"));
        }
        let slot = self.slot?;
        let ticket = (self.out.clone(), id);
        lock(&self.shared.routes).slots[slot]
            .tickets
            .push_back(ticket);
        self.shared.ops_submitted.fetch_add(1, SeqCst);
        self.shared.service.submit_op(slot, path, kind);
        None // replied by the router, from the completion stream
    }

    fn on_admin(&self, id: Option<u64>, msg: &Json) -> Json {
        let shared = &*self.shared;
        match msg.get_str("verb") {
            Some("status") => {
                let policy = shared.cell.current();
                let bound = lock(&shared.routes)
                    .slots
                    .iter()
                    .filter(|s| s.bound)
                    .count();
                let num = |n: f64| Json::num(n);
                let count = |n: &AtomicU64| Json::num(n.load(SeqCst) as f64);
                let names = |list: &[&str]| Json::Arr(list.iter().map(|n| Json::str(*n)).collect());
                Json::obj(vec![
                    ("type", Json::str("status")),
                    ("id", id_json(id)),
                    ("uptime_s", num(shared.started.elapsed().as_secs_f64())),
                    ("clock", Json::str(shared.cfg.clock.name())),
                    ("mds", num(shared.cfg.mds as f64)),
                    ("seed", num(shared.cfg.seed as f64)),
                    ("policy", Json::str(&policy.name)),
                    ("epoch", num(policy.epoch as f64)),
                    ("sessions_total", num(shared.cfg.sessions as f64)),
                    ("sessions_bound", num(bound as f64)),
                    ("connections", num(shared.connections.load(SeqCst) as f64)),
                    ("ops_submitted", count(&shared.ops_submitted)),
                    ("ops_completed", count(&shared.ops_completed)),
                    ("draining", Json::Bool(shared.draining.load(SeqCst))),
                    ("presets", names(PRESET_NAMES)),
                    ("scenarios", names(mantle_core::service::SCENARIO_NAMES)),
                ])
            }
            Some("policy-show") => {
                let p = shared.cell.current();
                Json::obj(vec![
                    ("type", Json::str("policy")),
                    ("id", id_json(id)),
                    ("name", Json::str(&p.name)),
                    ("epoch", Json::num(p.epoch as f64)),
                ])
            }
            Some("policy-swap") => {
                let Some(policy) = msg.get("policy") else {
                    return error_msg(id, "bad-admin", "policy-swap needs a `policy` object");
                };
                let swapped = policy_source_from_json(policy).and_then(|src| {
                    let _one_at_a_time = lock(&shared.swapping);
                    swap(&shared.cell, &shared.service, &src)
                });
                let (epoch, ack) = match swapped {
                    Ok(swapped) => swapped,
                    Err(e) => return error_msg(id, "policy-rejected", e),
                };
                // Reply once the engine has installed it in its exclusive
                // step: a confirmed swap means installed.
                match ack.recv() {
                    Ok(Ok(at)) => Json::obj(vec![
                        ("type", Json::str("swapped")),
                        ("id", id_json(id)),
                        ("epoch", Json::num(epoch as f64)),
                        ("at_us", Json::num(at.as_micros() as f64)),
                    ]),
                    Ok(Err(e)) => error_msg(id, "swap-failed", e),
                    Err(_) => error_msg(id, "swap-failed", "engine exited before the install"),
                }
            }
            Some("scenario") => {
                let name = msg.get_str("name").unwrap_or("");
                let Some(spec) = mantle_core::service::scenario(name) else {
                    let detail = format!("try one of {:?}", mantle_core::service::SCENARIO_NAMES);
                    return error_msg(id, "unknown-scenario", detail);
                };
                let (report, _) = mantle_core::service::run_service(&spec, None);
                let mut out = report_json(&report);
                if let (Json::Obj(members), Some(i)) = (&mut out, id) {
                    members.insert(1, ("id".into(), Json::num(i as f64)));
                }
                out
            }
            Some("shutdown") => {
                shared.draining.store(true, SeqCst);
                shared.service.shutdown();
                Json::obj(vec![
                    ("type", Json::str("ok")),
                    ("id", id_json(id)),
                    ("detail", Json::str("draining; report follows on exit")),
                ])
            }
            other => error_msg(id, "bad-admin", format!("unknown verb {other:?}")),
        }
    }
}

impl Drop for Conn {
    /// However the reader ends, unwinding included: free the slot (its
    /// tickets stay queued) and close the writer behind queued replies.
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            lock(&self.shared.routes).slots[slot].bound = false;
        }
        let _ = self.out.send(Out::Close(Vec::new()));
        self.shared.connections.fetch_sub(1, SeqCst);
    }
}
