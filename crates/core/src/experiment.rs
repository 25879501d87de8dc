//! Declarative experiment specs and runners.
//!
//! An [`Experiment`] is pure data (so it can be cloned across threads);
//! [`run_experiment`] builds the cluster and runs it; [`run_seeds`] fans
//! repeated runs out over a bounded pool of OS threads (the simulation
//! itself is single-threaded and deterministic — parallelism is across
//! runs, the same way the paper repeats jobs).

use mantle_mds::cluster::NoopBalancer;
use mantle_mds::{
    Balancer, CephfsBalancer, Cluster, ClusterConfig, HookEngine, MantleBalancer, RunReport,
};
use mantle_namespace::{MdsId, Namespace};
use mantle_policy::env::PolicySet;
use mantle_sim::SimTime;
use mantle_workloads::{
    Compile, CreateSeparateDirs, CreateSharedDir, Diurnal, FlashCrowd, ZipfMix,
};

/// Which workload to run.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Every client creates `files` files in its own directory.
    CreateSeparate {
        /// Number of clients.
        clients: usize,
        /// Files per client.
        files: u64,
    },
    /// Every client creates `files` files in one shared directory.
    CreateShared {
        /// Number of clients.
        clients: usize,
        /// Files per client.
        files: u64,
    },
    /// The phased compile job.
    Compile {
        /// Number of clients.
        clients: usize,
        /// Op-count scale (1.0 ≈ 7 700 ops/client).
        scale: f64,
    },
    /// A readdir flash crowd over one hot directory plus per-client
    /// private traffic (the proxy-cache tier's target workload).
    FlashCrowd {
        /// Number of clients.
        clients: usize,
        /// Ops each client issues.
        ops_per_client: u64,
        /// Fraction of ops aimed at the hot directory.
        hot_fraction: f64,
        /// Fraction of the private remainder that mutates.
        write_fraction: f64,
    },
    /// A day/night cycle: bursty daytime clients plus a uniformly paced
    /// nighttime baseline, repeated for `days` periods (the
    /// elastic-membership target workload; canonical 20% write mix).
    Diurnal {
        /// Number of clients; the first `night_clients` run all night.
        clients: usize,
        /// Clients that pace their budget around the clock.
        night_clients: usize,
        /// Number of day/night periods.
        days: u64,
        /// Op budget per client per period.
        ops_per_day: u64,
        /// Length of one virtual "day".
        period: SimTime,
        /// Fraction of each period that is the day window.
        day_fraction: f64,
    },
    /// Zipf-skewed mixed metadata ops over a large directory population
    /// (the scale-mode workload: ≥100k dirs, multi-million request runs).
    ZipfMix {
        /// Number of clients.
        clients: usize,
        /// Directory population size.
        dirs: usize,
        /// Ops each client issues.
        ops_per_client: u64,
        /// Zipf exponent (1.0 ≈ classic web skew).
        exponent: f64,
        /// Fraction of metadata writes.
        write_fraction: f64,
    },
}

impl WorkloadSpec {
    fn build(&self, seed: u64) -> Box<dyn mantle_mds::Workload> {
        match *self {
            WorkloadSpec::CreateSeparate { clients, files } => {
                Box::new(CreateSeparateDirs::new(clients, files))
            }
            WorkloadSpec::CreateShared { clients, files } => {
                Box::new(CreateSharedDir::new(clients, files))
            }
            WorkloadSpec::Compile { clients, scale } => {
                Box::new(Compile::new(clients, scale, seed ^ 0x00c0_ffee))
            }
            WorkloadSpec::FlashCrowd {
                clients,
                ops_per_client,
                hot_fraction,
                write_fraction,
            } => Box::new(FlashCrowd::new(
                clients,
                ops_per_client,
                hot_fraction,
                write_fraction,
                seed ^ 0x0000_f1a5,
            )),
            WorkloadSpec::Diurnal {
                clients,
                night_clients,
                days,
                ops_per_day,
                period,
                day_fraction,
            } => Box::new(Diurnal::new(
                clients,
                night_clients,
                days,
                ops_per_day,
                period,
                day_fraction,
                0.2,
                seed ^ 0x0000_d1a1,
            )),
            WorkloadSpec::ZipfMix {
                clients,
                dirs,
                ops_per_client,
                exponent,
                write_fraction,
            } => Box::new(ZipfMix::new(
                clients,
                dirs,
                ops_per_client,
                exponent,
                write_fraction,
                seed ^ 0x0000_21bf,
            )),
        }
    }

    /// Number of clients the spec drives.
    pub fn clients(&self) -> usize {
        match *self {
            WorkloadSpec::CreateSeparate { clients, .. }
            | WorkloadSpec::CreateShared { clients, .. }
            | WorkloadSpec::Compile { clients, .. }
            | WorkloadSpec::FlashCrowd { clients, .. }
            | WorkloadSpec::Diurnal { clients, .. }
            | WorkloadSpec::ZipfMix { clients, .. } => clients,
        }
    }
}

/// Which balancer runs on every MDS.
#[derive(Debug, Clone)]
pub enum BalancerSpec {
    /// No balancing (static partitions only).
    None,
    /// The hard-coded CephFS balancer (Table 1).
    Cephfs,
    /// A Mantle policy set injected on every MDS.
    Mantle {
        /// Display name.
        name: String,
        /// The compiled policy.
        policy: PolicySet,
        /// Which hook engine evaluates the policy. All engines are
        /// pinned bit-identical by the differential suites; non-default
        /// choices exist for oracle runs and benchmarks only.
        engine: HookEngine,
    },
}

impl BalancerSpec {
    /// Convenience constructor for Mantle policies (default engine).
    pub fn mantle(name: impl Into<String>, policy: PolicySet) -> Self {
        Self::mantle_with_engine(name, policy, HookEngine::default())
    }

    /// Like [`BalancerSpec::mantle`], but hooks run on the tree-walking
    /// interpreter (the pre-compilation engine). Exists so tests can
    /// pin every engine to byte-identical [`RunReport`]s.
    pub fn mantle_slow_path(name: impl Into<String>, policy: PolicySet) -> Self {
        Self::mantle_with_engine(name, policy, HookEngine::Tree)
    }

    /// [`BalancerSpec::mantle`] with an explicit hook engine.
    pub fn mantle_with_engine(
        name: impl Into<String>,
        policy: PolicySet,
        engine: HookEngine,
    ) -> Self {
        BalancerSpec::Mantle {
            name: name.into(),
            policy,
            engine,
        }
    }

    fn build(&self, _mds: MdsId) -> Box<dyn Balancer> {
        match self {
            BalancerSpec::None => Box::new(NoopBalancer),
            BalancerSpec::Cephfs => Box::new(CephfsBalancer::default()),
            BalancerSpec::Mantle {
                name,
                policy,
                engine,
            } => Box::new(
                // Presets are validated in `policies`; here the policy has
                // already passed or the caller opted in explicitly.
                MantleBalancer::new_unvalidated(name.clone(), policy.clone())
                    .expect("policy set was already validated")
                    .with_engine(*engine),
            ),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            BalancerSpec::None => "none",
            BalancerSpec::Cephfs => "cephfs-default",
            BalancerSpec::Mantle { name, .. } => name,
        }
    }
}

/// A scheduled manual repartition: at `at`, assign each listed path's
/// subtree to an MDS (used by the Fig. 3 locality setups).
#[derive(Debug, Clone)]
pub struct ScheduledPartition {
    /// When to apply.
    pub at: SimTime,
    /// `(path, mds)` assignments.
    pub assignments: Vec<(String, MdsId)>,
}

/// A full experiment description.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Cluster configuration.
    pub config: ClusterConfig,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The balancer.
    pub balancer: BalancerSpec,
    /// Static partition applied before the run (`(path, mds)`).
    pub initial_partition: Vec<(String, MdsId)>,
    /// Partitions applied mid-run.
    pub scheduled_partitions: Vec<ScheduledPartition>,
}

impl Experiment {
    /// A new experiment with no static partitions.
    pub fn new(config: ClusterConfig, workload: WorkloadSpec, balancer: BalancerSpec) -> Self {
        Experiment {
            config,
            workload,
            balancer,
            initial_partition: Vec::new(),
            scheduled_partitions: Vec::new(),
        }
    }

    /// Add an initial static assignment.
    pub fn assign(mut self, path: &str, mds: MdsId) -> Self {
        self.initial_partition.push((path.to_string(), mds));
        self
    }

    /// Add a scheduled repartition.
    pub fn repartition_at(mut self, at: SimTime, assignments: Vec<(String, MdsId)>) -> Self {
        self.scheduled_partitions
            .push(ScheduledPartition { at, assignments });
        self
    }

    /// Same experiment with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
}

fn apply_assignments(ns: &mut Namespace, assignments: &[(String, MdsId)]) {
    for (path, mds) in assignments {
        let node = ns.mkdir_p(path);
        ns.set_auth(node, Some(*mds));
    }
}

/// Build the cluster an experiment describes — workload, balancers,
/// static partitions, and scheduled repartitions all applied — without
/// running it. This is the shared front half of [`run_experiment`] and
/// the daemon's scenario path ([`crate::service`]), so both drive
/// byte-identical engines.
pub fn build_cluster(spec: &Experiment) -> Cluster {
    let workload = spec.workload.build(spec.config.seed);
    let balancer_spec = spec.balancer.clone();
    let mut cluster = Cluster::new(spec.config.clone(), workload, |m| balancer_spec.build(m));
    apply_assignments(cluster.namespace_mut(), &spec.initial_partition);
    for sched in &spec.scheduled_partitions {
        let assignments = sched.assignments.clone();
        cluster.schedule_admin(sched.at, move |ns| apply_assignments(ns, &assignments));
    }
    cluster
}

/// Run one experiment to completion.
pub fn run_experiment(spec: &Experiment) -> RunReport {
    build_cluster(spec).run()
}

/// Run one experiment with a trace sink attached, returning the report
/// together with the captured event stream and timeline.
pub fn run_experiment_traced(
    spec: &Experiment,
    level: mantle_mds::TraceLevel,
) -> (RunReport, mantle_mds::TraceBuffer) {
    let mut cluster = build_cluster(spec);
    let handle = cluster.enable_tracing(level);
    let report = cluster.run();
    let buffer = std::rc::Rc::try_unwrap(handle)
        .expect("run consumed the cluster; the handle is the sole owner")
        .into_inner();
    (report, buffer)
}

/// Run the experiment once per seed, in parallel across OS threads.
///
/// Fan-out is capped at [`std::thread::available_parallelism`]: spawning
/// one thread per seed (64 seeds = 64 threads on a 1-core box) only adds
/// scheduler pressure, so workers instead pull seeds from a shared queue.
pub fn run_seeds(spec: &Experiment, seeds: &[u64]) -> Vec<RunReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<RunReport>>> = (0..seeds.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let report = run_experiment(&spec.clone().with_seed(seed));
                *out[i].lock().expect("slot lock never poisoned") = Some(report);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock never poisoned")
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies;

    fn quick_cfg(num_mds: usize) -> ClusterConfig {
        ClusterConfig {
            num_mds,
            frag_split_threshold: 200,
            // Tests use tiny workloads; shrink the balancer cadence so
            // runs still span several ticks.
            heartbeat_interval: mantle_sim::SimTime::from_millis(400),
            ..Default::default()
        }
    }

    #[test]
    fn create_separate_runs_end_to_end() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 300,
            },
            BalancerSpec::None,
        );
        let r = run_experiment(&spec);
        assert_eq!(r.total_ops(), 600.0);
        assert_eq!(r.workload, "create-separate-dirs");
        assert_eq!(r.balancer, "none");
    }

    #[test]
    fn greedy_spill_distributes_shared_dir() {
        let spec = Experiment::new(
            quick_cfg(2),
            WorkloadSpec::CreateShared {
                clients: 4,
                files: 2_000,
            },
            BalancerSpec::mantle("greedy-spill", policies::greedy_spill().unwrap()),
        );
        let r = run_experiment(&spec);
        assert!(r.total_migrations() >= 1, "spill happened");
        assert!(r.mds[1].total_ops > 0.0, "MDS1 served spilled fragments");
        assert_eq!(r.total_ops(), 8_000.0, "no ops lost in migration");
    }

    #[test]
    fn cephfs_balancer_distributes_separate_dirs() {
        let spec = Experiment::new(
            quick_cfg(3),
            WorkloadSpec::CreateSeparate {
                clients: 4,
                files: 4_000,
            },
            BalancerSpec::Cephfs,
        );
        let r = run_experiment(&spec);
        assert!(r.total_migrations() >= 1);
        let served: Vec<bool> = r.mds.iter().map(|m| m.total_ops > 0.0).collect();
        assert!(served.iter().filter(|&&s| s).count() >= 2, "load spread");
        assert_eq!(r.total_ops(), 16_000.0);
    }

    #[test]
    fn seeds_run_in_parallel_and_differ() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 200,
            },
            BalancerSpec::None,
        );
        let rs = run_seeds(&spec, &[1, 2, 3, 4]);
        assert_eq!(rs.len(), 4);
        assert!(rs.iter().all(|r| r.total_ops() == 400.0));
        let makespans: std::collections::HashSet<u64> =
            rs.iter().map(|r| r.makespan.as_micros()).collect();
        assert!(makespans.len() > 1, "seeds must differ");
    }

    #[test]
    fn compile_workload_runs() {
        let spec = Experiment::new(
            quick_cfg(1),
            WorkloadSpec::Compile {
                clients: 1,
                scale: 0.05,
            },
            BalancerSpec::None,
        );
        let r = run_experiment(&spec);
        assert!(r.total_ops() > 300.0);
        assert_eq!(r.workload, "compile");
    }

    #[test]
    fn initial_partition_applies() {
        let spec = Experiment::new(
            quick_cfg(2),
            WorkloadSpec::CreateSeparate {
                clients: 2,
                files: 500,
            },
            BalancerSpec::None,
        )
        .assign("/client1", 1);
        let r = run_experiment(&spec);
        assert!(r.mds[1].total_ops >= 500.0);
    }
}
