//! End-to-end smoke test over a real socket: start `mantled` on an
//! ephemeral loopback port, drive metadata ops from a wire client,
//! hot-swap the policy through the admin socket, watch the install epoch
//! appear in the live trace stream, then shut down cleanly and check the
//! final report. This is the CI "daemon smoke" step.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use mantle_daemon::json::Json;
use mantle_daemon::MantleClient;

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mantled"))
            .arg("--addr=127.0.0.1:0")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("mantled spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("mantled announces");
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// Wait for exit; returns (exit ok, remaining stdout).
    fn finish(mut self) -> (bool, String) {
        let mut rest = String::new();
        let mut buf = String::new();
        while self.stdout.read_line(&mut buf).unwrap_or(0) > 0 {
            rest.push_str(&buf);
            buf.clear();
        }
        let status = self.child.wait().expect("mantled reaped");
        (status.success(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt-and-braces: never leave a daemon behind if an assert fired.
        let _ = self.child.kill();
    }
}

fn swap_bundle() -> Json {
    mantle_daemon::json::parse(
        r#"{
          "name": "greedy-smoke-v2",
          "metaload": "IWR + IRD",
          "mdsload": "MDSs[i][\"all\"]",
          "when": "result = MDSs[whoami][\"load\"] > total/#MDSs",
          "where": "targets[1] = MDSs[whoami][\"load\"] - total/#MDSs",
          "howmuch": ["half"]
        }"#,
    )
    .expect("bundle parses")
}

#[test]
fn daemon_serves_swaps_and_drains() {
    let daemon = Daemon::spawn(&[
        "--sessions=4",
        "--mds=3",
        "--clock=wall",
        "--trace=decisions",
    ]);

    // Subscribe to the trace stream before the swap so the install
    // record must pass through it.
    let mut trace = MantleClient::connect(&daemon.addr, "trace").expect("trace role connects");

    // A client issues ops and gets routed replies back.
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client role connects");
    assert_eq!(client.slot(), Some(0), "first client gets slot 0");
    for i in 0..8 {
        let reply = client
            .op(if i % 2 == 0 { "create" } else { "stat" }, "/smoke/dir")
            .expect("op round-trips");
        assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
        assert!(reply.get_num("mds").is_some(), "reply names an MDS");
    }

    // Admin: status reflects the boot policy, then a hot swap bumps it.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin role connects");
    let status = admin.admin("status", vec![]).expect("status");
    assert_eq!(status.get_str("policy"), Some("greedy-spill"));
    assert_eq!(status.get_u64("epoch"), Some(0));
    assert!(status.get_num("ops_completed").unwrap_or(0.0) >= 8.0);

    let swapped = admin
        .admin("policy-swap", vec![("policy", swap_bundle())])
        .expect("swap round-trips");
    assert_eq!(swapped.get_str("type"), Some("swapped"), "swap: {swapped}");
    assert_eq!(swapped.get_u64("epoch"), Some(1));

    // A rejected policy must fail validation and leave the epoch alone.
    let mut bad = swap_bundle();
    if let Json::Obj(members) = &mut bad {
        members.retain(|(k, _)| k != "metaload");
        members.push(("metaload".into(), Json::str("IWR +")));
    }
    let rejected = admin
        .admin("policy-swap", vec![("policy", bad)])
        .expect("rejection round-trips");
    assert_eq!(rejected.get_str("type"), Some("error"));
    assert_eq!(rejected.get_str("code"), Some("policy-rejected"));

    let shown = admin.admin("policy-show", vec![]).expect("policy-show");
    assert_eq!(shown.get_str("name"), Some("greedy-smoke-v2"));
    assert_eq!(shown.get_u64("epoch"), Some(1));

    // Ops keep flowing on the new policy.
    let reply = client
        .op("mkdir", "/smoke/after-swap")
        .expect("post-swap op");
    assert_eq!(reply.get_str("status"), Some("ok"));

    // The install epoch is visible in the live trace stream.
    let mut saw_install = false;
    for _ in 0..10_000 {
        let record = trace
            .recv()
            .expect("trace stream alive")
            .expect("stream open until shutdown");
        if record.get_str("ev") == Some("policy_installed") {
            assert_eq!(record.get_u64("install_epoch"), Some(1));
            assert_eq!(record.get_str("name"), Some("greedy-smoke-v2"));
            saw_install = true;
            break;
        }
    }
    assert!(
        saw_install,
        "policy_installed record reached the subscriber"
    );

    // Clean shutdown: daemon drains, exits 0, prints the final report.
    let ok = admin.admin("shutdown", vec![]).expect("shutdown acked");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, rest) = daemon.finish();
    assert!(success, "mantled exits cleanly");
    let report_line = rest
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("final report printed");
    let report = mantle_daemon::json::parse(report_line).expect("report is json");
    assert_eq!(report.get_str("type"), Some("report"));
    assert_eq!(
        report.get_str("balancer"),
        Some("greedy-smoke-v2"),
        "report names the hot-swapped policy"
    );
    assert!(report.get_num("total_ops").unwrap_or(0.0) >= 9.0);
}

#[test]
fn scenario_mode_runs_one_shot() {
    let out = Command::new(env!("CARGO_BIN_EXE_mantled"))
        .arg("--scenario=static-spread")
        .output()
        .expect("mantled runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    let report = mantle_daemon::json::parse(text.trim()).expect("report is json");
    assert_eq!(report.get_str("balancer"), Some("none"));
    assert_eq!(report.get_num("total_ops"), Some(1600.0));
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);

    // Unknown admin verb → typed error, connection stays usable.
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let err = admin.admin("frobnicate", vec![]).expect("error reply");
    assert_eq!(err.get_str("code"), Some("bad-admin"));
    let status = admin.admin("status", vec![]).expect("still usable");
    assert_eq!(status.get_str("type"), Some("status"));

    // Slot exhaustion: --sessions=1 means the second client is refused.
    let _first = MantleClient::connect(&daemon.addr, "client").expect("first client fits");
    let refused = MantleClient::connect(&daemon.addr, "client");
    assert!(refused.is_err(), "second client must be refused");

    // Unknown scenario → typed error.
    let err = admin
        .admin("scenario", vec![("name", Json::str("nope"))])
        .expect("error reply");
    assert_eq!(err.get_str("code"), Some("unknown-scenario"));

    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, _) = daemon.finish();
    assert!(success);
}

/// A 400 KB frame of nested `[` — far past any sane JSON depth — gets a
/// protocol-error reply, and the daemon keeps serving.
#[test]
fn deeply_nested_frame_is_refused_not_fatal() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);

    let mut raw = TcpStream::connect(&daemon.addr).expect("raw connect");
    let body = "[".repeat(400_000);
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    raw.write_all(&frame).expect("frame sent");
    let reply = mantle_daemon::wire::read_frame(&mut raw)
        .expect("reply readable")
        .expect("error reply before close");
    assert_eq!(reply.get_str("type"), Some("error"), "reply: {reply}");
    assert_eq!(reply.get_str("code"), Some("bad-frame"));

    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let status = admin.admin("status", vec![]).expect("daemon still serves");
    assert_eq!(status.get_str("type"), Some("status"));

    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, _) = daemon.finish();
    assert!(success);
}

/// A `policy-swap` whose `metaload` nests 20 000 parentheses or unary
/// minuses is rejected, the epoch stays put, and the daemon keeps serving.
#[test]
fn deeply_nested_policy_is_rejected_not_fatal() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");

    for metaload in [
        format!("{}IWR{}", "(".repeat(20_000), ")".repeat(20_000)),
        format!("{}IWR", "- ".repeat(20_000)),
    ] {
        let mut bundle = swap_bundle();
        if let Json::Obj(members) = &mut bundle {
            members.retain(|(k, _)| k != "metaload");
            members.push(("metaload".into(), Json::str(metaload)));
        }
        let rejected = admin
            .admin("policy-swap", vec![("policy", bundle)])
            .expect("rejection round-trips");
        assert_eq!(rejected.get_str("code"), Some("policy-rejected"));
        let shown = admin.admin("policy-show", vec![]).expect("policy-show");
        assert_eq!(
            shown.get_u64("epoch"),
            Some(0),
            "a rejected swap bumped the epoch"
        );
    }

    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, _) = daemon.finish();
    assert!(success);
}

/// Send one frame without waiting for a reply.
fn send_raw(stream: &mut TcpStream, msg: &Json) {
    mantle_daemon::wire::write_frame(stream, msg).expect("frame sent");
}

fn op_frame(id: u64, op: &str, path: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("op")),
        ("id", Json::num(id as f64)),
        ("op", Json::str(op)),
        ("path", Json::str(path)),
    ])
}

fn hello(role: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("hello")),
        ("role", Json::str(role)),
        ("proto", Json::num(1.0)),
    ])
}

/// Read frames until the peer closes; a reset counts as closed.
fn drain_to_eof(stream: &mut TcpStream) -> Vec<Json> {
    let mut frames = Vec::new();
    while let Ok(Some(frame)) = mantle_daemon::wire::read_frame(stream) {
        frames.push(frame);
    }
    frames
}

/// A policy whose decision nests a table 40 000 levels deep every time
/// it runs. It passes validation, so the daemon must also survive the
/// balancer ticks that run it (and free the chain) on the engine thread.
#[test]
fn deeply_nested_runtime_table_is_survived() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=sim"]);
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    let mut bundle = swap_bundle();
    if let Json::Obj(members) = &mut bundle {
        members.retain(|(k, _)| k != "when" && k != "where");
        members.push((
            "decision".into(),
            Json::str("local t = {} for k = 1, 40000 do t = {t} end targets[1] = 0"),
        ));
    }
    let swapped = admin
        .admin("policy-swap", vec![("policy", bundle)])
        .expect("swap round-trips");
    assert_eq!(swapped.get_str("type"), Some("swapped"), "swap: {swapped}");

    // Under --clock=sim the next balancer tick runs within milliseconds.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let reply = client.op("create", "/nested/after").expect("op answered");
    assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
    let status = admin.admin("status", vec![]).expect("status answered");
    assert_eq!(status.get_u64("epoch"), Some(1));

    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let (success, _) = daemon.finish();
    assert!(success);
}

/// A client that disconnects with ops in flight frees its slot; the
/// late completions are not delivered to the next holder of that slot,
/// whose first reply carries its own `id`.
#[test]
fn reused_slot_gets_only_its_own_replies() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);
    let mut first = TcpStream::connect(&daemon.addr).expect("first connects");
    send_raw(&mut first, &hello("client"));
    let welcome = mantle_daemon::wire::read_frame(&mut first)
        .expect("welcome readable")
        .expect("welcome");
    assert_eq!(welcome.get_u64("slot"), Some(0));
    for id in 100..105 {
        send_raw(&mut first, &op_frame(id, "create", "/reuse/old"));
    }
    drop(first);

    // The slot frees once the daemon has seen the disconnect.
    let mut second = None;
    for _ in 0..500 {
        let mut stream = TcpStream::connect(&daemon.addr).expect("second connects");
        send_raw(&mut stream, &hello("client"));
        let reply = mantle_daemon::wire::read_frame(&mut stream)
            .expect("reply readable")
            .expect("reply");
        if reply.get_str("type") == Some("welcome") {
            assert_eq!(reply.get_u64("slot"), Some(0));
            second = Some(stream);
            break;
        }
        assert_eq!(reply.get_str("code"), Some("no-slot"), "reply: {reply}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut second = second.expect("the slot was freed");
    send_raw(&mut second, &op_frame(1, "stat", "/reuse/new"));
    let reply = mantle_daemon::wire::read_frame(&mut second)
        .expect("reply readable")
        .expect("reply");
    assert_eq!(reply.get_str("type"), Some("reply"), "reply: {reply}");
    assert_eq!(reply.get_u64("id"), Some(1), "reply: {reply}");
    assert_eq!(reply.get_str("op"), Some("stat"));

    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    let (success, _) = daemon.finish();
    assert!(success);
}

/// Ops sent back to back on one connection, without waiting, are all
/// answered `ok`, in send order.
#[test]
fn pipelined_ops_reply_in_send_order() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let ops = ["create", "stat", "mkdir", "readdir", "setattr"];
    for (i, op) in ops.iter().enumerate() {
        client
            .send(&op_frame(i as u64 + 1, op, "/pipe/dir"))
            .expect("op sent");
    }
    for (i, op) in ops.iter().enumerate() {
        let reply = client.recv_required().expect("reply");
        assert_eq!(reply.get_str("status"), Some("ok"), "reply: {reply}");
        assert_eq!(reply.get_u64("id"), Some(i as u64 + 1), "reply: {reply}");
        assert_eq!(reply.get_str("op"), Some(*op));
    }

    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    let (success, _) = daemon.finish();
    assert!(success);
}

/// Ops in flight at `shutdown` are answered `ok` before the report; an
/// op sent during the drain is refused with `shutting-down`.
#[test]
fn shutdown_drains_in_flight_ops_and_refuses_new_ones() {
    let daemon = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);
    let mut client = MantleClient::connect(&daemon.addr, "client").expect("client connects");
    let mut admin = MantleClient::connect(&daemon.addr, "admin").expect("admin connects");
    // Enough queued work (each op takes its modelled latency in real
    // time) that the drain is still running when the late op arrives.
    const IN_FLIGHT: u64 = 200;
    for id in 1..=IN_FLIGHT {
        client
            .send(&op_frame(id, "create", "/drain/dir"))
            .expect("op sent");
    }
    // Shut down only once the daemon has taken every op.
    let mut submitted = 0;
    for _ in 0..1000 {
        let status = admin.admin("status", vec![]).expect("status");
        submitted = status.get_u64("ops_submitted").expect("ops_submitted");
        if submitted == IN_FLIGHT {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(submitted, IN_FLIGHT);
    let ok = admin.admin("shutdown", vec![]).expect("shutdown");
    assert_eq!(ok.get_str("type"), Some("ok"));
    let late = IN_FLIGHT + 1;
    client
        .send(&op_frame(late, "create", "/drain/late"))
        .expect("late op sent");

    let mut answered = Vec::new();
    let mut refused = false;
    while answered.len() < IN_FLIGHT as usize || !refused {
        let frame = client.recv_required().expect("every op is answered");
        if frame.get_u64("id") == Some(late) {
            assert_eq!(frame.get_str("code"), Some("shutting-down"), "{frame}");
            refused = true;
        } else {
            assert_eq!(frame.get_str("status"), Some("ok"), "{frame}");
            answered.push(frame.get_u64("id").expect("reply id"));
        }
    }
    assert_eq!(answered, (1..=IN_FLIGHT).collect::<Vec<_>>());

    let (success, rest) = daemon.finish();
    assert!(success);
    let report_line = rest
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("final report printed");
    let report = mantle_daemon::json::parse(report_line).expect("report is json");
    assert_eq!(report.get_num("total_ops"), Some(IN_FLIGHT as f64));
}

/// A `trace` hello is refused when tracing is off, and any frame sent on
/// a `trace` connection is a protocol error that closes it.
#[test]
fn trace_role_is_receive_only() {
    let off = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall", "--trace=off"]);
    let mut raw = TcpStream::connect(&off.addr).expect("raw connect");
    send_raw(&mut raw, &hello("trace"));
    let frames = drain_to_eof(&mut raw);
    assert_eq!(frames.len(), 1, "one error, then close: {frames:?}");
    assert_eq!(frames[0].get_str("code"), Some("bad-hello"));
    let mut admin = MantleClient::connect(&off.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    let (success, _) = off.finish();
    assert!(success);

    let on = Daemon::spawn(&["--sessions=1", "--mds=2", "--clock=wall"]);
    let mut raw = TcpStream::connect(&on.addr).expect("raw connect");
    send_raw(&mut raw, &hello("trace"));
    let welcome = mantle_daemon::wire::read_frame(&mut raw)
        .expect("welcome readable")
        .expect("welcome");
    assert_eq!(welcome.get_str("type"), Some("welcome"), "{welcome}");
    send_raw(&mut raw, &op_frame(1, "stat", "/trace/dir"));
    let frames = drain_to_eof(&mut raw);
    let last = frames.last().expect("an error before the close");
    assert_eq!(last.get_str("type"), Some("error"), "{last}");
    assert_eq!(last.get_str("code"), Some("bad-frame"));
    assert!(
        frames[..frames.len() - 1]
            .iter()
            .all(|f| f.get_str("ev").is_some()),
        "only trace records precede the error: {frames:?}"
    );
    let mut admin = MantleClient::connect(&on.addr, "admin").expect("admin connects");
    admin.admin("shutdown", vec![]).expect("shutdown");
    let (success, _) = on.finish();
    assert!(success);
}
