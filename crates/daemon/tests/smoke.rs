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
