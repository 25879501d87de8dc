//! The `daemon-loopback` workload: the real `mantled` binary on an
//! ephemeral loopback port, driven by closed-loop client connections
//! over the framed wire protocol.
//!
//! The traced run adds three layer measurements taken from outside:
//! the same op stream through `Engine` and `ServiceHandle` with no
//! socket or reactor, and the per-frame cost of `wire::encode_frame` and
//! `wire::decode_frame` on the frames the socket run exchanged.

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mantle_daemon::engine::Engine;
use mantle_daemon::json::{parse, Json};
use mantle_daemon::wire::{decode_frame, encode_frame, op_name};
use mantle_daemon::{DaemonConfig, MantleClient};
use mantle_mds::ServiceEvent;
use mantle_namespace::OpKind;
use mantle_sim::SimRng;

use crate::stats::{median, median_of, peak_rss_mb, percentile, quantiles};
use crate::Outcome;

/// Closed-loop client connections, each keeping one op outstanding.
pub const CONNECTIONS: usize = 2;
/// Daemons that serve traffic in one run, each for an equal share of
/// `--seconds`. Metrics are medians across them: a daemon's threads can
/// settle into a slower wake-up pattern for its whole life (seen after
/// heavy CPU load on a 2-core host), and one such daemon must not set
/// the result.
const INSTANCES: usize = 5;
/// Daemons started per end-to-end run to sample `setup_s`, counting the
/// ones that serve traffic.
const SETUP_SPAWNS: usize = 21;
/// Size of the Zipf-skewed directory set the op stream targets.
const DIRS: usize = 256;
/// Zipf exponent of the directory popularity.
const ZIPF_EXPONENT: f64 = 1.1;
/// How long any single wait on the daemon may take before the run fails.
const WAIT: Duration = Duration::from_secs(30);

/// A seeded op stream for one connection: about 70% read-class ops
/// (stat, open, readdir) and 30% mutating ops (create, setattr) over a
/// Zipf-skewed set of directories.
pub struct OpStream {
    rng: SimRng,
    cdf: Vec<f64>,
}

impl OpStream {
    /// Stream number `n` under benchmark seed `seed` (one per connection
    /// of each daemon instance).
    pub fn new(seed: u64, n: usize) -> Self {
        let mut cdf = Vec::with_capacity(DIRS);
        let mut acc = 0.0;
        for rank in 1..=DIRS {
            acc += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        OpStream {
            rng: SimRng::new(seed).stream_n("daemon-loopback", n),
            cdf,
        }
    }

    /// The next op and the directory it targets.
    pub fn next_op(&mut self) -> (OpKind, String) {
        let r = self.rng.f64();
        let kind = if r < 0.30 {
            OpKind::Stat
        } else if r < 0.55 {
            OpKind::OpenRead
        } else if r < 0.70 {
            OpKind::Readdir
        } else if r < 0.90 {
            OpKind::Create
        } else {
            OpKind::SetAttr
        };
        let u = self.rng.f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(DIRS - 1);
        (kind, format!("/bench/d{rank:03}"))
    }
}

/// A running `mantled`. Dropping it kills the process if it is still up
/// and waits for it and its stdout reader.
struct Mantled {
    child: Option<Child>,
    pid: u32,
    addr: String,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Mantled {
    /// Start `mantled` with its defaults on an ephemeral loopback port
    /// and wait for its `listening <addr>` line.
    fn spawn(path: &Path) -> Result<Mantled, String> {
        let mut child = Command::new(path)
            .arg("--addr=127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", path.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut d = Mantled {
            pid: child.id(),
            child: Some(child),
            addr: String::new(),
            lines,
            reader: Some(reader),
        };
        let line = d
            .lines
            .recv_timeout(WAIT)
            .map_err(|_| "mantled printed no `listening` line".to_string())?;
        d.addr = line
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected first line from mantled: {line}"))?
            .to_string();
        Ok(d)
    }

    /// Drain the daemon with an admin `shutdown`, wait for it to exit 0,
    /// and return the final report it prints.
    fn shutdown(mut self) -> Result<Json, String> {
        let mut admin = MantleClient::connect(&self.addr, "admin").map_err(|e| e.to_string())?;
        let ack = admin
            .admin("shutdown", Vec::new())
            .map_err(|e| e.to_string())?;
        if ack.get_str("type") != Some("ok") {
            return Err(format!("shutdown refused: {ack}"));
        }
        drop(admin);
        let mut child = self.child.take().expect("child is running");
        let start = Instant::now();
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if start.elapsed() > WAIT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("mantled did not exit after shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("mantled exited with {status}"));
        }
        let last = self.lines.try_iter().last().unwrap_or_default();
        let report = parse(&last).map_err(|e| format!("final report is not json: {e}"))?;
        if report.get_str("type") != Some("report") {
            return Err(format!("final line is not a report: {last}"));
        }
        Ok(report)
    }
}

impl Drop for Mantled {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ConnResult {
    /// Wall time from writing each op frame to reading its reply, µs.
    rtt_us: Vec<f64>,
    /// The modelled latency each reply reports, µs.
    sim_latency_us: Vec<f64>,
    /// Ops sent.
    sent: u64,
    /// Ops answered `ok`, in send order.
    ok: u64,
    problems: Vec<String>,
    /// Every op and reply message, kept when capturing frames.
    frames: Vec<Json>,
}

fn op_msg(id: u64, kind: OpKind, path: String) -> Json {
    Json::obj(vec![
        ("type", Json::str("op")),
        ("id", Json::num(id as f64)),
        ("op", Json::str(op_name(kind))),
        ("path", Json::str(path)),
    ])
}

/// Issue ops one at a time until `deadline`, checking each reply.
fn closed_loop(
    client: &mut MantleClient,
    mut stream: OpStream,
    deadline: Instant,
    capture: bool,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut id = 0;
    while Instant::now() < deadline {
        id += 1;
        let (kind, path) = stream.next_op();
        let msg = op_msg(id, kind, path);
        out.sent += 1;
        let t = Instant::now();
        let reply = client.send(&msg).and_then(|()| client.recv_required());
        let rtt = t.elapsed();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!("op {id}: {e}"));
                break;
            }
        };
        let good = reply.get_str("type") == Some("reply")
            && reply.get_u64("id") == Some(id)
            && reply.get_str("status") == Some("ok")
            && reply.get_str("op") == Some(op_name(kind));
        if good {
            out.ok += 1;
            out.rtt_us.push(rtt.as_secs_f64() * 1e6);
            let lat_ms = reply.get_num("latency_ms").unwrap_or(f64::NAN);
            out.sim_latency_us.push(lat_ms * 1e3);
        } else if out.problems.len() < 5 {
            out.problems
                .push(format!("op {id}: unexpected reply {reply}"));
        }
        if capture {
            out.frames.push(msg);
            out.frames.push(reply);
        }
    }
    out
}

/// Start a daemon and connect every client; returns the daemon, the
/// welcomed clients and the time that took.
fn start(mantled: &Path) -> Result<(Mantled, Vec<MantleClient>, Duration), String> {
    let t = Instant::now();
    let d = Mantled::spawn(mantled)?;
    let clients = (0..CONNECTIONS)
        .map(|_| MantleClient::connect(&d.addr, "client").map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let setup = t.elapsed();
    for (i, c) in clients.iter().enumerate() {
        if c.slot().is_none() {
            return Err(format!("connection {i} was welcomed without a slot"));
        }
    }
    Ok((d, clients, setup))
}

/// One daemon serving the closed-loop clients for `seconds`.
struct SocketRun {
    setup: Duration,
    traffic: Duration,
    conns: Vec<ConnResult>,
    peak_rss_mb: f64,
    report: Json,
}

impl SocketRun {
    fn ok(&self) -> u64 {
        self.conns.iter().map(|c| c.ok).sum()
    }
    fn sent(&self) -> u64 {
        self.conns.iter().map(|c| c.sent).sum()
    }
    fn all(&self, f: impl Fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }
    fn ops_per_s(&self) -> f64 {
        self.ok() as f64 / self.traffic.as_secs_f64()
    }
    fn report_num(&self, key: &str) -> f64 {
        self.report.get_num(key).unwrap_or(0.0)
    }
}

fn socket_run(
    mantled: &Path,
    seed: u64,
    instance: usize,
    seconds: f64,
    capture: bool,
    out: &mut Outcome,
) -> Result<SocketRun, String> {
    let (d, clients, setup) = start(mantled)?;
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(seconds);
    // Each connection keeps its client open until the status check below.
    let (clients, conns): (Vec<MantleClient>, Vec<ConnResult>) = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                let stream = OpStream::new(seed, instance * CONNECTIONS + i);
                scope.spawn(move || {
                    let r = closed_loop(&mut client, stream, deadline, capture);
                    (client, r)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|th| th.join().expect("a client thread only does socket i/o"))
            .unzip()
    });
    let traffic = t.elapsed();
    let mut admin = MantleClient::connect(&d.addr, "admin").map_err(|e| e.to_string())?;
    let status = admin
        .admin("status", Vec::new())
        .map_err(|e| e.to_string())?;
    drop(admin);
    drop(clients);
    let peak_rss_mb = peak_rss_mb(Some(d.pid)).unwrap_or(0.0);
    let report = d.shutdown()?;
    let run = SocketRun {
        setup,
        traffic,
        conns,
        peak_rss_mb,
        report,
    };
    for (i, c) in run.conns.iter().enumerate() {
        for p in &c.problems {
            out.problem(format!("daemon-loopback connection {i}: {p}"));
        }
    }
    let (submitted, completed) = (
        status.get_u64("ops_submitted"),
        status.get_u64("ops_completed"),
    );
    if submitted != Some(run.ok()) || completed != Some(run.ok()) {
        out.problem(format!(
            "daemon-loopback: status shows submitted={submitted:?} completed={completed:?}, \
             but {} ok replies were received",
            run.ok()
        ));
    }
    if run.report_num("total_ops") != run.ok() as f64 {
        out.problem(format!(
            "daemon-loopback: final report counts {} ops, {} ok replies were received",
            run.report_num("total_ops"),
            run.ok()
        ));
    }
    out.attempted += run.sent();
    out.failed += run.sent() - run.ok();
    Ok(run)
}

/// Start and drain a daemon without traffic, for a `setup_s` sample.
fn setup_sample(mantled: &Path) -> Result<Duration, String> {
    let (d, clients, setup) = start(mantled)?;
    drop(clients);
    d.shutdown()?;
    Ok(setup)
}

/// The same closed-loop op stream through `Engine::start`,
/// `ServiceHandle::submit_op` and `ServiceEvent::Completions`, with no
/// socket or reactor in between. Returns the wall round trips in µs.
fn engine_run(
    seed: u64,
    instance: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let engine = Engine::start(&DaemonConfig::default())?;
    let mut streams: Vec<OpStream> = (0..CONNECTIONS)
        .map(|c| OpStream::new(seed, instance * CONNECTIONS + c))
        .collect();
    let mut pending: Vec<Option<(Instant, OpKind)>> = vec![None; CONNECTIONS];
    let submit = |c: usize, stream: &mut OpStream| {
        let (kind, path) = stream.next_op();
        let at = Instant::now();
        engine.handle.submit_op(c, path, kind);
        (at, kind)
    };
    for (c, stream) in streams.iter_mut().enumerate() {
        pending[c] = Some(submit(c, stream));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut rtts, mut sent, mut problems) = (Vec::new(), CONNECTIONS as u64, Vec::new());
    while pending.iter().any(Option::is_some) {
        match engine.handle.events.recv_timeout(WAIT) {
            Ok(ServiceEvent::Completions(done)) => {
                let now = Instant::now();
                for comp in done {
                    match pending.get_mut(comp.client).and_then(Option::take) {
                        Some((at, kind)) if kind == comp.kind => {
                            rtts.push((now - at).as_secs_f64() * 1e6)
                        }
                        other => problems.push(format!(
                            "engine completion {comp:?} does not match the pending op {other:?}"
                        )),
                    }
                    if now < deadline && comp.client < CONNECTIONS {
                        pending[comp.client] = Some(submit(comp.client, &mut streams[comp.client]));
                        sent += 1;
                    }
                }
            }
            Ok(ServiceEvent::Trace(_)) => {}
            Err(_) => {
                problems.push("engine stopped replying".into());
                break;
            }
        }
    }
    engine.handle.shutdown();
    match engine.finish() {
        Some(report) if report.total_ops() == sent as f64 => {}
        Some(report) => problems.push(format!(
            "engine served {} ops, {sent} were submitted",
            report.total_ops()
        )),
        None => problems.push("engine thread delivered no report".into()),
    }
    for p in problems.into_iter().take(5) {
        out.problem(format!("daemon-loopback engine run: {p}"));
    }
    out.attempted += sent;
    out.failed += sent - rtts.len() as u64;
    Ok(rtts)
}

/// Per-frame cost in µs of encoding `msgs` and decoding their frames,
/// repeated until each side has run for a fixed budget. Fails if a frame
/// does not decode back to its message.
fn codec_cost(msgs: &[Json]) -> Result<(f64, f64), String> {
    const BUDGET: Duration = Duration::from_millis(300);
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode_frame).collect();
    for (m, f) in msgs.iter().zip(&frames) {
        let mut buf = f.clone();
        if decode_frame(&mut buf).map_err(|e| e.to_string())?.as_ref() != Some(m) {
            return Err(format!("frame of {m} does not round-trip"));
        }
    }
    let (mut enc, mut dec, mut passes) = (Duration::ZERO, Duration::ZERO, 0u32);
    while passes < 3 || enc < BUDGET || dec < BUDGET {
        let t = Instant::now();
        for m in msgs {
            black_box(encode_frame(black_box(m)));
        }
        enc += t.elapsed();
        let mut bufs = frames.clone();
        let t = Instant::now();
        for b in &mut bufs {
            let _ = black_box(decode_frame(black_box(b)));
        }
        dec += t.elapsed();
        passes += 1;
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / (f64::from(passes) * msgs.len() as f64);
    Ok((per(enc), per(dec)))
}

/// Run `daemon-loopback` and produce its end-to-end (`trace == false`)
/// or per-layer (`trace == true`) metrics.
pub fn measure(mantled: &Path, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure_into(mantled, seed, seconds, trace, &mut out) {
        out.problem(format!("daemon-loopback: {e}"));
    }
    out
}

fn measure_into(
    mantled: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = DaemonConfig::default();
    out.note(format!(
        "config mantled defaults: clock={} mds={} sessions={} policy={} trace={:?} \
         scheduler={} exec_mode={:?} hook_engine={:?} connections={CONNECTIONS} closed-loop",
        cfg.clock.name(),
        cfg.mds,
        cfg.sessions,
        cfg.policy,
        cfg.trace,
        mantle_mds::ClusterConfig::default().scheduler.name(),
        mantle_mds::ClusterConfig::default().exec_mode,
        mantle_mds::HookEngine::default(),
    ));
    let share = seconds / INSTANCES as f64;
    if !trace {
        let runs = (0..INSTANCES)
            .map(|i| socket_run(mantled, seed, i, share, false, out))
            .collect::<Result<Vec<_>, _>>()?;
        let mut setups: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
        while setups.len() < SETUP_SPAWNS {
            setups.push(setup_sample(mantled)?.as_secs_f64());
        }
        for (i, r) in runs.iter().enumerate() {
            out.note(format!(
                "instance {i} ops_per_s={} rtt_us {}",
                r.ops_per_s(),
                quantiles(&r.all(|c| &c.rtt_us))
            ));
        }
        let rtts: Vec<f64> = runs.iter().flat_map(|r| r.all(|c| &c.rtt_us)).collect();
        out.note(format!("rtt_us all daemons {}", quantiles(&rtts)));
        out.metric("setup_s", median(&setups), "s");
        out.metric("ops_per_s", median_of(&runs, SocketRun::ops_per_s), "1/s");
        out.metric(
            "sim_ops_per_s",
            median_of(&runs, |r| {
                r.ok() as f64 / (r.report_num("makespan_us") / 1e6)
            }),
            "1/s",
        );
        // Medians over daemons resist one daemon in a slow state.
        let p = |q: f64| median_of(&runs, |r| percentile(&r.all(|c| &c.rtt_us), q));
        out.metric("rtt_p50_us", p(0.50), "us");
        out.metric("rtt_p90_us", p(0.90), "us");
        out.metric("peak_rss_mb", median_of(&runs, |r| r.peak_rss_mb), "MB");
        return Ok(());
    }

    // Per instance: an untraced daemon, a traced one (frames captured for
    // the codec replay) and an in-process engine, back to back.
    let mut layers = Vec::new();
    let mut frames = Vec::new();
    let mut rtts = Vec::new();
    for i in 0..INSTANCES {
        let plain = socket_run(mantled, seed, i, share, false, out)?;
        let traced = socket_run(mantled, seed, i, share, true, out)?;
        let engine = engine_run(seed, i, share, out)?;
        frames.extend(traced.conns.iter().flat_map(|c| c.frames.iter().cloned()));
        rtts.extend(plain.all(|c| &c.rtt_us));
        layers.push(Layers::of(&plain, &traced, &engine));
    }
    let (encode_us, decode_us) = codec_cost(&frames)?;
    out.note(format!("samples frames={}", frames.len()));
    out.note(format!("rtt_us untraced daemons {}", quantiles(&rtts)));
    out.metric("client.rtt_p99_us", percentile(&rtts, 0.99), "us");
    let m = |f: fn(&Layers) -> f64| median_of(&layers, f);
    out.metric("mds.migrations", m(|l| l.migrations), "count");
    out.metric("mds.forwards", m(|l| l.forwards), "count");
    out.metric("mds.sessions_flushed", m(|l| l.sessions_flushed), "count");
    out.metric("mds.timeouts", m(|l| l.timeouts), "count");
    out.metric("bench.trace_overhead_frac", m(|l| l.trace_overhead), "frac");
    out.metric("daemon.sim_latency_p50_us", m(|l| l.sim_p50), "us");
    out.metric("daemon.sim_latency_p99_us", m(|l| l.sim_p99), "us");
    out.metric("daemon.engine_rtt_p50_us", m(|l| l.engine_p50), "us");
    out.metric("daemon.engine_rtt_p99_us", m(|l| l.engine_p99), "us");
    out.metric("daemon.pump_wait_us", m(|l| l.engine_p50 - l.sim_p50), "us");
    out.metric("daemon.reactor_us", m(|l| l.rtt_p50 - l.engine_p50), "us");
    out.metric("daemon.encode_us", encode_us, "us");
    out.metric("daemon.decode_us", decode_us, "us");
    Ok(())
}

/// The layer figures of one instance's untraced, traced and engine runs.
struct Layers {
    migrations: f64,
    forwards: f64,
    sessions_flushed: f64,
    timeouts: f64,
    trace_overhead: f64,
    rtt_p50: f64,
    sim_p50: f64,
    sim_p99: f64,
    engine_p50: f64,
    engine_p99: f64,
}

impl Layers {
    fn of(plain: &SocketRun, traced: &SocketRun, engine_rtts: &[f64]) -> Layers {
        let sim = plain.all(|c| &c.sim_latency_us);
        Layers {
            migrations: plain.report_num("total_migrations"),
            forwards: plain.report_num("total_forwards"),
            sessions_flushed: plain.report_num("sessions_flushed"),
            timeouts: plain.report_num("timeouts"),
            trace_overhead: plain.ops_per_s() / traced.ops_per_s() - 1.0,
            rtt_p50: percentile(&plain.all(|c| &c.rtt_us), 0.50),
            sim_p50: percentile(&sim, 0.50),
            sim_p99: percentile(&sim, 0.99),
            engine_p50: percentile(engine_rtts, 0.50),
            engine_p99: percentile(engine_rtts, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_seeded_and_mixed() {
        let a: Vec<_> = (0..50)
            .map({
                let mut s = OpStream::new(9, 0);
                move |_| s.next_op()
            })
            .collect();
        let b: Vec<_> = (0..50)
            .map({
                let mut s = OpStream::new(9, 0);
                move |_| s.next_op()
            })
            .collect();
        assert_eq!(a, b, "same seed and connection, same stream");
        let mut other = OpStream::new(9, 1);
        assert_ne!(a, (0..50).map(|_| other.next_op()).collect::<Vec<_>>());

        let mut s = OpStream::new(1, 0);
        let n = 20_000;
        let mut reads = 0;
        let mut hottest = 0;
        for _ in 0..n {
            let (kind, path) = s.next_op();
            reads += usize::from(mantle_mds::cacheable(kind));
            hottest += usize::from(path == "/bench/d000");
            assert!(path.starts_with("/bench/d"));
        }
        let read_frac = reads as f64 / n as f64;
        assert!((0.67..0.73).contains(&read_frac), "read share {read_frac}");
        assert!(hottest > n / 10, "Zipf skew puts the most ops on rank 0");
    }

    #[test]
    fn engine_run_answers_every_op() {
        let mut out = Outcome::default();
        let rtts = engine_run(3, 0, 0.3, &mut out).expect("engine boots");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(!rtts.is_empty());
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, rtts.len() as u64);
    }

    #[test]
    fn codec_cost_round_trips_frames() {
        let msgs = vec![
            op_msg(1, OpKind::Stat, "/bench/d001".into()),
            parse(r#"{"type":"reply","id":1,"status":"ok","op":"stat","mds":0,"latency_ms":0.59,"at_us":10}"#)
                .unwrap(),
        ];
        let (enc, dec) = codec_cost(&msgs).expect("frames round-trip");
        assert!(enc > 0.0 && dec > 0.0);
    }
}
