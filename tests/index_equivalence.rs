//! End-to-end checks of the namespace index layer.
//!
//! The Euler-interval membership checks, the per-MDS ownership indexes,
//! and the delta-maintained aggregates run inside every simulated cluster.
//! Each scenario here runs once at [`TraceLevel::Full`] and replays the
//! stream through [`check_trace`]. The checker rebuilds the authority map
//! from the trace alone, so its `authority` rule (every request lands on
//! the replayed owner of its dirfrag) and its `inode-conservation` rule
//! (every migration moves the inodes the replayed tree holds) check
//! resolution and migration counts independently of `Namespace`. The
//! untraced run must produce a byte-identical [`RunReport`], under a
//! healthy run and with every fault kind firing at once.
//!
//! The per-operation reference checks of the same indexes live in
//! `tests/properties.rs`.

use mantle::mds::check_trace;
use mantle::prelude::*;

fn quick_cfg(num_mds: usize) -> ClusterConfig {
    ClusterConfig {
        num_mds,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(400),
        ..Default::default()
    }
}

/// A plan exercising every fault kind at once (crash-driven failover
/// re-binds whole swaths of the namespace through `set_auth`, the path
/// most likely to betray an index bug).
fn kitchen_sink_plan() -> FaultPlan {
    FaultPlan {
        request_timeout: SimTime::from_millis(150),
        retry_backoff: SimTime::from_millis(25),
        ..FaultPlan::default()
    }
    .slowdown(
        SimTime::from_millis(500),
        1,
        3.0,
        SimTime::from_millis(1_000),
    )
    .drop_heartbeats(SimTime::from_millis(400), 1, SimTime::from_millis(800))
    .delay_heartbeats(SimTime::from_millis(800), 2, SimTime::from_millis(800))
    .crash(SimTime::from_millis(900), 2)
    .restart(SimTime::from_millis(1_800), 2)
    .poison_balancer(SimTime::from_millis(1_200), 1)
}

fn spec(workload: WorkloadSpec, faults: Option<FaultPlan>) -> Experiment {
    let mut spec = Experiment::new(
        quick_cfg(3),
        workload,
        BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap()),
    );
    if let Some(plan) = faults {
        spec.config.faults = plan;
    }
    spec
}

fn assert_trace_checked(workload: WorkloadSpec, faults: Option<FaultPlan>, label: &str) {
    let spec = spec(workload, faults);
    let (traced, trace) = run_experiment_traced(&spec, TraceLevel::Full);
    let violations = check_trace(trace.records());
    assert!(
        violations.is_empty(),
        "{label}: {} violation(s), first: {}",
        violations.len(),
        violations[0]
    );
    assert!(
        traced.total_migrations() >= 1,
        "{label}: vacuous without migrations"
    );
    let plain = run_experiment(&spec);
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "{label}: tracing must not change the report"
    );
}

#[test]
fn healthy_shared_dir_run_passes_trace_checks() {
    // Greedy spill over a shared create-heavy directory: dirfrag exports,
    // frag-authority overrides, freeze/cold windows.
    assert_trace_checked(
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 2_000,
        },
        None,
        "healthy create-shared",
    );
}

#[test]
fn healthy_separate_dir_run_passes_trace_checks() {
    // Per-client directories: whole-subtree exports dominate, exercising
    // the single-walk migration and the delta aggregate transfer.
    assert_trace_checked(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        None,
        "healthy create-separate",
    );
}

#[test]
fn all_faults_run_passes_trace_checks() {
    assert_trace_checked(
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        Some(kitchen_sink_plan()),
        "kitchen-sink faults",
    );
}
