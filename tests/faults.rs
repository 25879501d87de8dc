//! Fault-injection integration tests: graceful degradation through the
//! facade — crashes, retries, balancer fallback, and determinism of the
//! whole degraded pipeline.

use mantle::core::degraded;
use mantle::core::repro::ReproOpts;
use mantle::prelude::*;

fn quick_cfg(num_mds: usize) -> ClusterConfig {
    ClusterConfig {
        num_mds,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(400),
        ..Default::default()
    }
}

/// A fast reaction profile so short test runs still see retries.
fn reactions() -> FaultPlan {
    FaultPlan {
        request_timeout: SimTime::from_millis(100),
        retry_backoff: SimTime::from_millis(20),
        ..FaultPlan::default()
    }
}

#[test]
fn crash_and_restart_completes_all_ops_with_degradation() {
    // Pin client 1's directory to MDS 1, then kill MDS 1 mid-run: the
    // client's in-flight request is lost (timeout), its cached route goes
    // stale (retry re-routes via the mount authority), and the pinned
    // subtree fails over to MDS 0. Every op still completes.
    let spec = Experiment::new(
        quick_cfg(2),
        WorkloadSpec::CreateSeparate {
            clients: 2,
            files: 2_000,
        },
        BalancerSpec::None,
    )
    .assign("/client1", 1);
    let mut spec = spec;
    spec.config.faults = reactions()
        .crash(SimTime::from_millis(200), 1)
        .restart(SimTime::from_millis(600), 1);
    let r = run_experiment(&spec);

    assert_eq!(r.total_ops(), 4_000.0, "no ops lost to the crash");
    for c in &r.clients {
        assert_eq!(c.completed, 2_000, "every surviving client finishes");
    }
    assert!(r.failovers >= 1, "the pinned subtree failed over to MDS 0");
    assert!(r.timeouts >= 1, "the lost in-flight request timed out");
    assert!(r.retries >= 1, "the timed-out request was retried");
    assert_eq!(
        r.timeouts, r.retries,
        "every timeout leads to exactly one retry in this scenario"
    );
}

#[test]
fn requests_reaching_a_down_mds_are_dropped_then_recovered() {
    // Crash MDS 1 but give the client a *long* lease on its stale route:
    // with no balancer and a crash landing between two of client 1's
    // requests, the next request is sent to the dead MDS and dropped on
    // the floor; the timeout machinery recovers it.
    let mut spec = Experiment::new(
        quick_cfg(2),
        WorkloadSpec::CreateSeparate {
            clients: 2,
            files: 1_000,
        },
        BalancerSpec::None,
    )
    .assign("/client1", 1);
    spec.config.faults = reactions().crash(SimTime::from_millis(150), 1);
    let r = run_experiment(&spec);

    assert_eq!(r.total_ops(), 2_000.0);
    assert!(
        r.total_dropped() >= 1 || r.timeouts >= 1,
        "the crash was felt: dropped={} timeouts={}",
        r.total_dropped(),
        r.timeouts
    );
    // MDS 1 never comes back, so everything lands on MDS 0 afterwards.
    assert!(r.mds[0].total_ops > 1_000.0, "MDS 0 absorbed the failover");
}

#[test]
fn poisoned_balancer_falls_back_and_stays_within_2x_of_healthy() {
    let healthy = degraded::run_scenario(ReproOpts::QUICK, "healthy", 7).expect("scenario exists");
    let poisoned =
        degraded::run_scenario(ReproOpts::QUICK, "poisoned-balancer", 7).expect("scenario exists");

    assert!(
        poisoned.balancer_fallbacks >= 1,
        "repeated policy errors swapped in the CephFS fallback"
    );
    assert_eq!(
        poisoned.total_ops(),
        healthy.total_ops(),
        "poisoning the balancer loses no ops"
    );
    assert!(
        poisoned.makespan.as_secs_f64() <= 2.0 * healthy.makespan.as_secs_f64(),
        "degraded makespan {:.2}s within 2x of healthy {:.2}s",
        poisoned.makespan.as_secs_f64(),
        healthy.makespan.as_secs_f64()
    );
    // The report keeps the *configured* balancer's name after fallback.
    assert_eq!(poisoned.balancer, healthy.balancer);
}

#[test]
fn crash_scenario_meets_acceptance_criteria() {
    let healthy = degraded::run_scenario(ReproOpts::QUICK, "healthy", 42).expect("scenario exists");
    let crashed =
        degraded::run_scenario(ReproOpts::QUICK, "crash+restart", 42).expect("scenario exists");

    assert_eq!(crashed.total_ops(), healthy.total_ops(), "all ops complete");
    for c in &crashed.clients {
        assert!(c.completed > 0, "every surviving client made progress");
    }
    assert!(crashed.timeouts >= 1, "timeouts observed");
    assert!(crashed.retries >= 1, "retries observed");
    assert!(crashed.failovers >= 1, "failovers observed");
}

/// A plan exercising every fault kind at once, for the determinism tests.
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

fn degraded_spec(balancer: BalancerSpec) -> Experiment {
    let mut spec = Experiment::new(
        quick_cfg(3),
        WorkloadSpec::CreateSeparate {
            clients: 4,
            files: 2_000,
        },
        balancer,
    );
    spec.config.faults = kitchen_sink_plan();
    spec
}

#[test]
fn fault_runs_are_deterministic_for_a_fixed_seed() {
    let spec = degraded_spec(BalancerSpec::mantle(
        "adaptable",
        policies::adaptable().unwrap(),
    ));
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "identical (seed, FaultPlan) must yield a byte-identical RunReport"
    );
    assert_eq!(a.total_ops(), 8_000.0, "all ops complete under faults");
}

#[test]
fn fault_runs_are_identical_across_policy_engines() {
    // The default bytecode hook engine and the tree-walking interpreter
    // must agree bit-for-bit even while faults are firing.
    let fast = run_experiment(&degraded_spec(BalancerSpec::mantle(
        "adaptable",
        policies::adaptable().unwrap(),
    )));
    let slow = run_experiment(&degraded_spec(BalancerSpec::mantle_slow_path(
        "adaptable",
        policies::adaptable().unwrap(),
    )));
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
}

// ---------------------------------------------------------------------------
// Elastic membership × faults
// ---------------------------------------------------------------------------

/// Crash of a freshly joined MDS mid-re-home. At seed 42 the elastic
/// diurnal run joins MDS 1 at 0.40 s and hands it six just-imported
/// subtrees; killing it at 0.60 s — deep in the morning burst, right
/// after the import freeze lifts and clients start landing on it — must
/// fail the re-homed subtrees back over to the mount authority, recover
/// the lost in-flight requests through the timeout machinery, and still
/// complete every client's budget. The restart at 2.0 s (after dark)
/// turns MDS 1 back into a joinable spare for the next morning.
#[test]
fn crash_of_joining_mds_mid_rehome_degrades_gracefully() {
    use mantle::core::elastic::{client_ops, diurnal_experiment, POOL};

    let elastic = ElasticConfig {
        enabled: true,
        min_mds: 1,
        max_mds: POOL,
        initial_mds: 1,
        ..ElasticConfig::on()
    };
    let mut spec = diurnal_experiment(ReproOpts::QUICK, POOL, elastic, 1, 42);
    spec.config.faults = reactions()
        .crash(SimTime::from_millis(600), 1)
        .restart(SimTime::from_millis(2_000), 1);
    let (r, trace) = run_experiment_traced(&spec, TraceLevel::Full);

    assert_invariants(trace.records());
    assert_eq!(client_ops(&r), 84_000, "client budgets not conserved");
    assert!(r.joins >= 1, "the cluster grew before the crash");
    assert!(
        r.failovers >= 1,
        "the re-homed subtrees failed over to the mount authority"
    );
    assert!(
        r.timeouts >= 1 && r.retries >= 1,
        "requests in flight to the crashed joiner were recovered \
         (timeouts={}, retries={})",
        r.timeouts,
        r.retries
    );
}

/// Crash of the member the evening scale-down is about to drain. At
/// seed 42 the first drain (MDS 3, the highest-id member) fires at
/// 3.6 s; killing MDS 3 at 3.5 s means the leave finds its victim
/// already dead — the crash has failed its subtrees over, so the drain
/// degenerates to pure deregistration. Work must be conserved and the
/// membership phase chain must still close cleanly.
#[test]
fn crash_of_draining_mds_mid_migrate_degrades_gracefully() {
    use mantle::core::elastic::{client_ops, diurnal_experiment, POOL};

    let elastic = ElasticConfig {
        enabled: true,
        min_mds: 1,
        max_mds: POOL,
        initial_mds: 1,
        ..ElasticConfig::on()
    };
    let mut spec = diurnal_experiment(ReproOpts::QUICK, POOL, elastic, 1, 42);
    spec.config.faults = reactions().crash(SimTime::from_millis(3_500), 3);
    let (r, trace) = run_experiment_traced(&spec, TraceLevel::Full);

    assert_invariants(trace.records());
    assert_eq!(client_ops(&r), 84_000, "client budgets not conserved");
    assert!(
        r.joins >= 1 && r.leaves >= 1,
        "the cluster scaled both ways"
    );
    assert!(
        r.failovers >= 1,
        "the crashed member's subtrees failed over before the drain"
    );
    // The run must still shed the dead member from the member set: its
    // drain chain closes (drain_start → drain_complete → departed) even
    // though there is nothing left to migrate.
    let drained_dead = trace.records().iter().any(|rec| {
        matches!(
            rec.event,
            mantle::mds::TraceEvent::MdsDrainComplete { mds: 3, .. }
        )
    });
    assert!(drained_dead, "the dead member was never deregistered");
}
