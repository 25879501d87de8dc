//! The `mantled` connection reactor: a single-threaded nonblocking
//! accept/read/dispatch/write loop over `std::net` (the workspace takes
//! no dependencies, so there is no mio — readiness is approximated by
//! polling with a 1 ms idle sleep). What that polling costs is measured,
//! not assumed: the repository benchmark's `daemon-loopback` workload
//! (`perfbench/`) splits the round trip into `daemon.pump_wait_us` (the
//! engine's live-poll parking and wall-pacing wake-ups) and
//! `daemon.reactor_us` (this loop, its idle sleep, sockets and codec),
//! and reports the end-to-end `rtt_p50_us` — 2.4–2.7 ms on a 2-core x86
//! host.
//!
//! The reactor owns the [`Engine`] handle. Inbound frames become engine
//! commands; each loop iteration drains the engine's event stream,
//! routing completions back to the issuing connection (per-slot FIFO —
//! sound because live clients are closed-loop, one outstanding op each)
//! and broadcasting trace records to every `trace`-role subscriber.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use mantle_mds::{RunReport, ServiceEvent};
use mantle_sim::SimTime;

use crate::config::DaemonConfig;
use crate::engine::{policy_source_from_json, Engine, PRESET_NAMES};
use crate::json::Json;
use crate::wire::{decode_frame, encode_frame, error_msg, op_kind, report_json, PROTO_VERSION};

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

struct Conn {
    stream: TcpStream,
    /// Unique per accepted connection; async replies (completions, swap
    /// acks) are addressed by token, so a reply for a dead connection is
    /// dropped instead of reaching whoever reused its slab index.
    token: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    role: Option<Role>,
    /// Client slot, for `Role::Client`.
    slot: Option<usize>,
    /// Set when the peer misbehaved: flush what is queued, then drop.
    closing: bool,
}

/// A client slot's reply routing: outstanding tickets in submission
/// order. Completions for a slot pop the front ticket; a ticket whose
/// connection died is popped and dropped silently.
#[derive(Default)]
struct Slot {
    bound: Option<u64>,
    tickets: VecDeque<(u64, Option<u64>)>,
}

struct PendingSwap {
    conn: u64,
    id: Option<u64>,
    epoch: u64,
    ack: Receiver<Result<SimTime, String>>,
}

/// The daemon server: listener, connections, engine.
pub struct Server {
    cfg: DaemonConfig,
    listener: TcpListener,
    engine: Engine,
    conns: Vec<Option<Conn>>,
    slots: Vec<Slot>,
    swaps: Vec<PendingSwap>,
    started: Instant,
    next_token: u64,
    ops_submitted: u64,
    ops_completed: u64,
    shutting_down: bool,
}

impl Server {
    /// Bind the listen address and boot the engine. Does not serve yet —
    /// call [`Server::run`].
    pub fn bind(cfg: DaemonConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let engine = Engine::start(&cfg).map_err(io::Error::other)?;
        let slots = (0..cfg.sessions).map(|_| Slot::default()).collect();
        Ok(Server {
            cfg,
            listener,
            engine,
            conns: Vec::new(),
            slots,
            swaps: Vec::new(),
            started: Instant::now(),
            next_token: 0,
            ops_submitted: 0,
            ops_completed: 0,
            shutting_down: false,
        })
    }

    /// The bound address (resolves `--addr=...:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the reactor until the engine finishes (normally: a `shutdown`
    /// admin request closed the live queues and the clients drained).
    /// Returns the engine's final report.
    pub fn run(mut self) -> RunReport {
        loop {
            let mut progressed = false;
            progressed |= self.accept_new();
            progressed |= self.read_all();
            progressed |= self.drain_events();
            progressed |= self.poll_swaps();
            progressed |= self.flush_all();
            self.reap_closed();
            if self.engine.finished() {
                // Final drain: the engine sends its tail (RunEnd and any
                // last completions) right before the thread exits.
                self.drain_events();
                self.poll_swaps();
                self.flush_all();
                break;
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.engine.finish().expect("engine thread completed")
    }

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    any = true;
                    self.next_token += 1;
                    let conn = Conn {
                        stream,
                        token: self.next_token,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        role: None,
                        slot: None,
                        closing: false,
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(idx) => self.conns[idx] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        any
    }

    fn read_all(&mut self) -> bool {
        let mut inbound: Vec<(usize, Json)> = Vec::new();
        let mut any = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.closing {
                continue;
            }
            let mut tmp = [0u8; 4096];
            let mut dead = false;
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            loop {
                match decode_frame(&mut conn.rbuf) {
                    Ok(Some(msg)) => inbound.push((idx, msg)),
                    Ok(None) => break,
                    Err(e) => {
                        conn.wbuf.extend_from_slice(&encode_frame(&error_msg(
                            None,
                            "bad-frame",
                            e,
                        )));
                        conn.closing = true;
                        break;
                    }
                }
            }
            if dead {
                self.drop_conn(idx);
            }
        }
        for (idx, msg) in inbound {
            self.dispatch(idx, msg);
        }
        any
    }

    fn dispatch(&mut self, idx: usize, msg: Json) {
        let id = msg.get_u64("id");
        let reply = match (self.conn_role(idx), msg.get_str("type")) {
            (None, Some("hello")) => self.on_hello(idx, &msg),
            (None, _) => Some(self.fail(idx, id, "bad-hello", "first frame must be a hello")),
            (Some(Role::Client), Some("op")) => self.on_op(idx, id, &msg),
            (Some(Role::Admin), Some("admin")) => self.on_admin(idx, id, &msg),
            (Some(Role::Trace), _) => {
                Some(self.fail(idx, id, "bad-frame", "trace connections only receive"))
            }
            (Some(_), other) => Some(self.fail(
                idx,
                id,
                "bad-frame",
                format!("unexpected message type {other:?} for this role"),
            )),
        };
        if let Some(reply) = reply {
            self.push_msg(idx, &reply);
        }
    }

    fn conn_role(&self, idx: usize) -> Option<Role> {
        self.conns[idx].as_ref().and_then(|c| c.role)
    }

    /// Build an error reply and mark the connection for close when the
    /// failure is not recoverable at the protocol level.
    fn fail(
        &mut self,
        idx: usize,
        id: Option<u64>,
        code: &str,
        detail: impl std::fmt::Display,
    ) -> Json {
        if matches!(code, "bad-hello" | "bad-frame" | "no-slot") {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.closing = true;
            }
        }
        error_msg(id, code, detail)
    }

    fn on_hello(&mut self, idx: usize, msg: &Json) -> Option<Json> {
        if msg.get_u64("proto") != Some(PROTO_VERSION) {
            return Some(self.fail(
                idx,
                None,
                "bad-hello",
                format!("unsupported proto (want {PROTO_VERSION})"),
            ));
        }
        let role = match msg.get_str("role") {
            Some("client") => Role::Client,
            Some("admin") => Role::Admin,
            Some("trace") => Role::Trace,
            other => {
                return Some(self.fail(
                    idx,
                    None,
                    "bad-hello",
                    format!("unknown role {other:?} (client|admin|trace)"),
                ))
            }
        };
        if role == Role::Trace && self.cfg.trace.is_none() {
            return Some(self.fail(idx, None, "bad-hello", "tracing is disabled (--trace=off)"));
        }
        let mut slot = None;
        if role == Role::Client {
            let Some(free) = self.slots.iter().position(|s| s.bound.is_none()) else {
                return Some(self.fail(
                    idx,
                    None,
                    "no-slot",
                    format!("all {} client slots in use", self.slots.len()),
                ));
            };
            let token = self.conns[idx].as_ref().map(|c| c.token).unwrap_or(0);
            self.slots[free].bound = Some(token);
            slot = Some(free);
        }
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.role = Some(role);
            conn.slot = slot;
        }
        let policy = self.engine.cell.current();
        let mut members = vec![
            ("type", Json::str("welcome")),
            ("proto", Json::num(PROTO_VERSION as f64)),
            (
                "role",
                Json::str(match role {
                    Role::Client => "client",
                    Role::Admin => "admin",
                    Role::Trace => "trace",
                }),
            ),
            ("policy", Json::str(&policy.name)),
            ("epoch", Json::num(policy.epoch as f64)),
        ];
        if let Some(slot) = slot {
            members.push(("slot", Json::num(slot as f64)));
        }
        Some(Json::obj(members))
    }

    fn on_op(&mut self, idx: usize, id: Option<u64>, msg: &Json) -> Option<Json> {
        if self.shutting_down {
            return Some(error_msg(id, "shutting-down", "daemon is draining"));
        }
        let Some(kind) = msg.get_str("op").and_then(op_kind) else {
            return Some(error_msg(id, "bad-op", "unknown or missing `op`"));
        };
        let path = msg.get_str("path").unwrap_or("");
        if !path.starts_with('/') || path.len() > 4096 {
            return Some(error_msg(id, "bad-op", "`path` must be absolute"));
        }
        let conn = self.conns[idx].as_ref()?;
        let (token, slot) = (conn.token, conn.slot?);
        self.slots[slot].tickets.push_back((token, id));
        self.engine.handle.submit_op(slot, path, kind);
        self.ops_submitted += 1;
        None // replied asynchronously, from the completion stream
    }

    fn on_admin(&mut self, idx: usize, id: Option<u64>, msg: &Json) -> Option<Json> {
        match msg.get_str("verb") {
            Some("status") => Some(self.status_msg(id)),
            Some("policy-show") => {
                let p = self.engine.cell.current();
                Some(Json::obj(vec![
                    ("type", Json::str("policy")),
                    ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                    ("name", Json::str(&p.name)),
                    ("epoch", Json::num(p.epoch as f64)),
                ]))
            }
            Some("policy-swap") => {
                let Some(policy) = msg.get("policy") else {
                    return Some(error_msg(
                        id,
                        "bad-admin",
                        "policy-swap needs a `policy` object",
                    ));
                };
                let src = match policy_source_from_json(policy) {
                    Ok(src) => src,
                    Err(e) => return Some(error_msg(id, "policy-rejected", e)),
                };
                match self.engine.swap(&src) {
                    // Reply deferred until the engine acks the install
                    // from its exclusive step (see `poll_swaps`).
                    Ok((epoch, ack)) => {
                        let token = self.conns[idx].as_ref().map(|c| c.token).unwrap_or(0);
                        self.swaps.push(PendingSwap {
                            conn: token,
                            id,
                            epoch,
                            ack,
                        });
                        None
                    }
                    Err(e) => Some(error_msg(id, "policy-rejected", e)),
                }
            }
            Some("scenario") => {
                let name = msg.get_str("name").unwrap_or("");
                let Some(spec) = mantle_core::service::scenario(name) else {
                    return Some(error_msg(
                        id,
                        "unknown-scenario",
                        format!("try one of {:?}", mantle_core::service::SCENARIO_NAMES),
                    ));
                };
                // Runs synchronously on the reactor thread: scenarios are
                // small fixed workloads, and the live engine keeps running
                // independently on its own thread meanwhile.
                let (report, _) = mantle_core::service::run_service(&spec, None);
                let mut out = report_json(&report);
                if let (Json::Obj(members), Some(i)) = (&mut out, id) {
                    members.insert(1, ("id".into(), Json::num(i as f64)));
                }
                Some(out)
            }
            Some("shutdown") => {
                self.shutting_down = true;
                self.engine.handle.shutdown();
                Some(Json::obj(vec![
                    ("type", Json::str("ok")),
                    ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                    ("detail", Json::str("draining; report follows on exit")),
                ]))
            }
            other => Some(error_msg(
                id,
                "bad-admin",
                format!("unknown verb {other:?}"),
            )),
        }
    }

    fn status_msg(&self, id: Option<u64>) -> Json {
        let policy = self.engine.cell.current();
        let bound = self.slots.iter().filter(|s| s.bound.is_some()).count();
        let conns = self.conns.iter().flatten().count();
        Json::obj(vec![
            ("type", Json::str("status")),
            ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
            ("uptime_s", Json::num(self.started.elapsed().as_secs_f64())),
            ("clock", Json::str(self.cfg.clock.name())),
            ("mds", Json::num(self.cfg.mds as f64)),
            ("seed", Json::num(self.cfg.seed as f64)),
            ("policy", Json::str(&policy.name)),
            ("epoch", Json::num(policy.epoch as f64)),
            ("sessions_total", Json::num(self.slots.len() as f64)),
            ("sessions_bound", Json::num(bound as f64)),
            ("connections", Json::num(conns as f64)),
            ("ops_submitted", Json::num(self.ops_submitted as f64)),
            ("ops_completed", Json::num(self.ops_completed as f64)),
            ("draining", Json::Bool(self.shutting_down)),
            (
                "presets",
                Json::Arr(PRESET_NAMES.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "scenarios",
                Json::Arr(
                    mantle_core::service::SCENARIO_NAMES
                        .iter()
                        .map(|n| Json::str(*n))
                        .collect(),
                ),
            ),
        ])
    }

    /// Drain the engine's event stream: trace records broadcast to
    /// subscribers, completions matched to their tickets.
    fn drain_events(&mut self) -> bool {
        let mut any = false;
        while let Ok(ev) = self.engine.handle.events.try_recv() {
            any = true;
            match ev {
                ServiceEvent::Trace(batch) => {
                    if batch.is_empty() {
                        continue;
                    }
                    let mut frames = Vec::new();
                    for rec in &batch {
                        let mut line = String::new();
                        rec.write_json(&mut line);
                        frames.extend_from_slice(&(line.len() as u32).to_be_bytes());
                        frames.extend_from_slice(line.as_bytes());
                    }
                    for conn in self.conns.iter_mut().flatten() {
                        if conn.role == Some(Role::Trace) && !conn.closing {
                            conn.wbuf.extend_from_slice(&frames);
                        }
                    }
                }
                ServiceEvent::Completions(batch) => {
                    for done in batch {
                        self.ops_completed += 1;
                        let Some(slot) = self.slots.get_mut(done.client) else {
                            continue;
                        };
                        let Some((token, id)) = slot.tickets.pop_front() else {
                            continue;
                        };
                        let reply = Json::obj(vec![
                            ("type", Json::str("reply")),
                            ("id", id.map_or(Json::Null, |i| Json::num(i as f64))),
                            ("status", Json::str("ok")),
                            ("op", Json::str(crate::wire::op_name(done.kind))),
                            ("mds", Json::num(done.mds as f64)),
                            ("latency_ms", Json::num(done.latency_ms)),
                            ("at_us", Json::num(done.at.as_micros() as f64)),
                        ]);
                        self.push_msg_token(token, &reply);
                    }
                }
            }
        }
        any
    }

    fn poll_swaps(&mut self) -> bool {
        let mut done = Vec::new();
        for (i, swap) in self.swaps.iter().enumerate() {
            match swap.ack.try_recv() {
                Ok(result) => done.push((i, Some(result))),
                Err(std::sync::mpsc::TryRecvError::Empty) => {}
                Err(std::sync::mpsc::TryRecvError::Disconnected) => done.push((i, None)),
            }
        }
        let any = !done.is_empty();
        for (i, result) in done.into_iter().rev() {
            let swap = self.swaps.swap_remove(i);
            let reply = match result {
                Some(Ok(at)) => Json::obj(vec![
                    ("type", Json::str("swapped")),
                    ("id", swap.id.map_or(Json::Null, |i| Json::num(i as f64))),
                    ("epoch", Json::num(swap.epoch as f64)),
                    ("at_us", Json::num(at.as_micros() as f64)),
                ]),
                Some(Err(e)) => error_msg(swap.id, "swap-failed", e),
                None => error_msg(swap.id, "swap-failed", "engine exited before the install"),
            };
            self.push_msg_token(swap.conn, &reply);
        }
        any
    }

    fn push_msg(&mut self, idx: usize, msg: &Json) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.wbuf.extend_from_slice(&encode_frame(msg));
        }
    }

    /// Queue a message by connection token (async replies). Silently a
    /// no-op when the connection has since closed.
    fn push_msg_token(&mut self, token: u64, msg: &Json) {
        if let Some(conn) = self.conns.iter_mut().flatten().find(|c| c.token == token) {
            conn.wbuf.extend_from_slice(&encode_frame(msg));
        }
    }

    fn flush_all(&mut self) -> bool {
        let mut any = false;
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let mut dead = false;
            while !conn.wbuf.is_empty() {
                match conn.stream.write(&conn.wbuf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        any = true;
                        conn.wbuf.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.drop_conn(idx);
            }
        }
        any
    }

    fn reap_closed(&mut self) {
        for idx in 0..self.conns.len() {
            let close = matches!(&self.conns[idx], Some(c) if c.closing && c.wbuf.is_empty());
            if close {
                self.drop_conn(idx);
            }
        }
    }

    fn drop_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            if let Some(slot) = conn.slot {
                self.slots[slot].bound = None;
                // Outstanding tickets stay queued: their completions pop
                // them in order and find the connection gone.
            }
        }
    }
}
