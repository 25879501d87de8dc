//! Cross-crate integration tests: full experiments through the facade.

use mantle::prelude::*;

fn quick_cfg(num_mds: usize) -> ClusterConfig {
    ClusterConfig {
        num_mds,
        frag_split_threshold: 500,
        heartbeat_interval: SimTime::from_millis(500),
        ..Default::default()
    }
}

#[test]
fn ops_are_conserved_across_balancers() {
    // Whatever the balancer does — including thrashing — every client op
    // completes exactly once.
    let workload = WorkloadSpec::CreateShared {
        clients: 3,
        files: 2_000,
    };
    for balancer in [
        BalancerSpec::None,
        BalancerSpec::Cephfs,
        BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap()),
        BalancerSpec::mantle("even", policies::greedy_spill_even().unwrap()),
        BalancerSpec::mantle("fs", policies::fill_and_spill(0.25).unwrap()),
        BalancerSpec::mantle("adaptable", policies::adaptable().unwrap()),
        BalancerSpec::mantle(
            "too-aggressive",
            policies::adaptable_too_aggressive().unwrap(),
        ),
    ] {
        let name = balancer.name().to_string();
        let r = run_experiment(&Experiment::new(quick_cfg(3), workload.clone(), balancer));
        assert_eq!(r.total_ops(), 6_000.0, "{name}: ops lost or duplicated");
        for c in &r.clients {
            assert_eq!(c.completed, 2_000, "{name}: client shortchanged");
        }
    }
}

#[test]
fn same_seed_same_everything() {
    let spec = Experiment::new(
        quick_cfg(3),
        WorkloadSpec::Compile {
            clients: 2,
            scale: 0.2,
        },
        BalancerSpec::mantle("adaptable", policies::adaptable().unwrap()),
    );
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_migrations(), b.total_migrations());
    assert_eq!(a.total_forwards(), b.total_forwards());
    assert_eq!(a.sessions_flushed, b.sessions_flushed);
    for (x, y) in a.mds.iter().zip(&b.mds) {
        assert_eq!(x.throughput.values(), y.throughput.values());
    }
}

#[test]
fn parallel_seed_sweep_matches_sequential() {
    let spec = Experiment::new(
        quick_cfg(2),
        WorkloadSpec::CreateSeparate {
            clients: 2,
            files: 800,
        },
        BalancerSpec::Cephfs,
    );
    let seeds = [3u64, 5, 9];
    let parallel = run_seeds(&spec, &seeds);
    for (seed, par) in seeds.iter().zip(&parallel) {
        let seq = run_experiment(&spec.clone().with_seed(*seed));
        assert_eq!(
            par.makespan, seq.makespan,
            "thread scheduling must not leak into results"
        );
    }
}

#[test]
fn migrations_move_authority_and_traffic() {
    let spec = Experiment::new(
        quick_cfg(2),
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 4_000,
        },
        BalancerSpec::mantle("greedy", policies::greedy_spill().unwrap()),
    );
    let r = run_experiment(&spec);
    assert!(r.total_migrations() > 0);
    assert!(
        r.mds[1].total_ops > 1_000.0,
        "spilled fragments must attract real traffic: {:?}",
        r.mds.iter().map(|m| m.total_ops).collect::<Vec<_>>()
    );
    assert!(r.sessions_flushed > 0, "migrations flush client sessions");
    assert!(r.mds[0].inodes_exported > 0, "exporter counts moved inodes");
}

#[test]
fn static_partition_beats_default_when_perfect() {
    // Hand-partitioning the namespace perfectly (one client dir per MDS)
    // at t=0 avoids all migration costs.
    let workload = WorkloadSpec::CreateSeparate {
        clients: 4,
        files: 4_000,
    };
    let mut spec = Experiment::new(quick_cfg(4), workload, BalancerSpec::None);
    for c in 0..4 {
        spec = spec.assign(&format!("/client{c}"), c);
    }
    let r = run_experiment(&spec);
    // All four MDSs served their client.
    for (i, m) in r.mds.iter().enumerate() {
        assert!(m.total_ops >= 4_000.0, "MDS{i} served {}", m.total_ops);
    }
    assert_eq!(r.total_migrations(), 0);
}

#[test]
fn policy_errors_do_not_crash_the_cluster() {
    // A policy that indexes out of range at runtime (MDSs[whoami+1] on the
    // last MDS) errors every tick; the cluster must absorb it and finish.
    let policy = mantle::policy::env::PolicySet::from_combined(
        "IWR",
        "MDSs[i][\"all\"]",
        "if MDSs[whoami+1][\"load\"] < .01 then targets[whoami+1] = 1 end",
        &["half"],
    )
    .unwrap();
    let spec = Experiment::new(
        quick_cfg(1),
        WorkloadSpec::CreateSeparate {
            clients: 1,
            files: 1_500,
        },
        BalancerSpec::mantle("broken", policy),
    );
    let r = run_experiment(&spec);
    assert_eq!(r.total_ops(), 1_500.0, "the job still completes");
}

#[test]
fn hash_placement_balances_dirs() {
    use mantle::mds::PlacementPolicy;
    let spec = Experiment::new(
        ClusterConfig {
            placement: PlacementPolicy::HashDirs,
            ..quick_cfg(4)
        },
        WorkloadSpec::CreateSeparate {
            clients: 8,
            files: 500,
        },
        BalancerSpec::None,
    );
    let r = run_experiment(&spec);
    let served = r.mds.iter().filter(|m| m.total_ops > 0.0).count();
    assert!(served >= 3, "hashing spreads dirs: {served} MDSs used");
}

#[test]
fn report_accounting_is_consistent() {
    let spec = Experiment::new(
        quick_cfg(3),
        WorkloadSpec::Compile {
            clients: 3,
            scale: 0.3,
        },
        BalancerSpec::Cephfs,
    );
    let r = run_experiment(&spec);
    // Hits + forwarded arrivals = total ops served.
    let hits = r.total_hits();
    let fwd_in: u64 = r.mds.iter().map(|m| m.forwards_in).sum();
    assert_eq!(hits + fwd_in, r.total_ops() as u64);
    // Forward hops out == forwarded arrivals (each forward lands once).
    assert_eq!(r.total_forwards(), fwd_in);
    // Cluster throughput series sums to total ops.
    assert!((r.cluster_throughput().total() - r.total_ops()).abs() < 1e-6);
    // Makespan is the max client finish time.
    let max_finish = r.clients.iter().map(|c| c.finished_at).max().unwrap();
    assert_eq!(r.makespan, max_finish);
}

#[test]
fn custom_scripted_selector_drives_partitioning() {
    // A policy that ships its own dirfrag selector (DESIGN.md §7): take
    // every other fragment until the target is reached.
    let policy = mantle::policy::env::PolicySet::from_combined(
        "IWR",
        "MDSs[i][\"all\"]",
        r#"
if whoami < #MDSs and MDSs[whoami]["load"] > .01 and MDSs[whoami+1]["load"] < .01 then
  targets[whoami+1] = allmetaload / 2
end
"#,
        &[],
    )
    .unwrap()
    .with_custom_selector(
        "every_other",
        r#"
chosen = {}
sent = 0
for i = 1, #loads, 2 do
  if sent >= target then break end
  chosen[#chosen + 1] = i
  sent = sent + loads[i]
end
return chosen
"#,
    )
    .unwrap();
    let spec = Experiment::new(
        quick_cfg(2),
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 4_000,
        },
        BalancerSpec::mantle("every-other-spill", policy),
    );
    let r = run_experiment(&spec);
    assert!(r.total_migrations() > 0, "custom selector produced exports");
    assert!(r.mds[1].total_ops > 0.0);
    assert_eq!(r.total_ops(), 16_000.0);
}

#[test]
fn slot_and_tree_engines_produce_identical_reports() {
    // The default hook engine (bytecode; the test name predates it) is
    // pinned byte-identical to the tree-walking interpreter: same seed,
    // same policy → the full RunReport (every float, every time series)
    // must match exactly.
    for (name, policy) in [
        ("greedy-spill", policies::greedy_spill().unwrap()),
        ("fill-and-spill", policies::fill_and_spill(0.25).unwrap()),
        ("adaptable", policies::adaptable().unwrap()),
    ] {
        let workload = WorkloadSpec::CreateShared {
            clients: 3,
            files: 1_500,
        };
        let fast = Experiment::new(
            quick_cfg(3),
            workload.clone(),
            BalancerSpec::mantle(name, policy.clone()),
        )
        .with_seed(42);
        let slow = Experiment::new(
            quick_cfg(3),
            workload,
            BalancerSpec::mantle_slow_path(name, policy),
        )
        .with_seed(42);
        let a = run_experiment(&fast);
        let b = run_experiment(&slow);
        // Debug formatting of f64 is shortest-roundtrip, so any numeric
        // divergence — however small — shows up here.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: fast and slow evaluation paths diverged"
        );
    }
}
