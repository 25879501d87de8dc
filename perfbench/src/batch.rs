//! The batch workloads: a whole simulated cluster built with
//! `Cluster::new` and run to completion with `Cluster::run_with_stats`.

use std::rc::Rc;
use std::time::{Duration, Instant};

use mantle_core::flashcrowd::client_ops;
use mantle_core::policies;
use mantle_mds::{
    Balancer, CacheConfig, Cluster, ClusterConfig, ExecStats, MantleBalancer, RunReport, Workload,
};
use mantle_policy::env::PolicySet;
use mantle_sim::{SimRng, SimTime};
use mantle_workloads::{FlashCrowd, ZipfMix};

use crate::stats::{digest, median, median_of, peak_rss_mb, percentile, quantiles};
use crate::wrap::{BalancerTotals, Span, TracedBalancer, TracedWorkload, WorkloadTotals};
use crate::Outcome;

/// Every end-to-end run repeats set-up plus run at least this often, so
/// each reported time is a median.
const MIN_REPS: usize = 5;

/// The balancer every MDS runs in both batch workloads.
const POLICY: &str = "greedy-spill-even";

/// What the clients do.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `ZipfMix`: mixed metadata ops over a Zipf-skewed directory set.
    Zipf {
        /// Directory population.
        dirs: usize,
        /// Zipf exponent.
        exponent: f64,
        /// Fraction of metadata writes.
        write_fraction: f64,
    },
    /// `FlashCrowd`: read-class storm on one hot directory.
    Flash {
        /// Fraction of ops aimed at the hot directory.
        hot_fraction: f64,
        /// Fraction of the private remainder that mutates.
        write_fraction: f64,
    },
}

/// One batch workload: the cluster shape fields set on top of
/// `ClusterConfig::default()`, and the client mix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// MDS count.
    pub num_mds: usize,
    /// Client count.
    pub clients: usize,
    /// Ops each client issues.
    pub ops_per_client: u64,
    /// Balancer cadence.
    pub heartbeat: SimTime,
    /// Dirfrag split threshold.
    pub frag_split_threshold: u64,
    /// Proxy cache tier on.
    pub cache: bool,
    /// Client mix.
    pub mix: Mix,
    /// Roughly how long one run takes on a 2-core x86 host, in seconds.
    /// Sets how many repetitions fill `--seconds`; a fixed rule rather
    /// than a stopwatch, so the same arguments always simulate the same
    /// inputs.
    pub nominal_run_s: f64,
}

/// The `core::scale` row-scale shape: 128 MDSs, 128 clients, Zipf 1.1,
/// 50% writes, 2 s heartbeat, split threshold 1 000, cache off. It is
/// shortened so one repetition takes a few seconds: 2 000 ops per client
/// instead of 20 000, and 100 000 dirs instead of 131 072, which halves
/// set-up time. `smoke` is the size the benchmark's own tests use.
pub fn zipf_row(smoke: bool) -> Shape {
    Shape {
        num_mds: if smoke { 8 } else { 128 },
        clients: if smoke { 8 } else { 128 },
        ops_per_client: if smoke { 3_000 } else { 2_000 },
        heartbeat: SimTime::from_secs(2),
        frag_split_threshold: 1_000,
        cache: false,
        mix: Mix::Zipf {
            dirs: if smoke { 2_000 } else { 100_000 },
            exponent: 1.1,
            write_fraction: 0.5,
        },
        nominal_run_s: 3.0,
    }
}

/// The `core::flashcrowd::storm_experiment` shape: 4 MDSs, 400 ms
/// heartbeat, split threshold 500, cache tier on, 90% of ops on one hot
/// directory, scaled to 64 clients × 40 000 ops.
pub fn flash_crowd(smoke: bool) -> Shape {
    Shape {
        num_mds: 4,
        clients: if smoke { 8 } else { 64 },
        ops_per_client: if smoke { 1_000 } else { 40_000 },
        heartbeat: SimTime::from_millis(400),
        frag_split_threshold: 500,
        cache: true,
        mix: Mix::Flash {
            hot_fraction: 0.9,
            write_fraction: 0.2,
        },
        nominal_run_s: 1.0,
    }
}

impl Shape {
    /// Repetitions that fill `seconds` of run time, at least `min`.
    pub fn reps_for(&self, seconds: f64, min: usize) -> usize {
        ((seconds / self.nominal_run_s).round() as usize).max(min)
    }

    /// Client ops one run must complete.
    pub fn expected_ops(&self) -> u64 {
        self.clients as u64 * self.ops_per_client
    }

    /// The cluster configuration: production defaults plus the shape.
    pub fn config(&self, seed: u64) -> ClusterConfig {
        let cfg = ClusterConfig {
            num_mds: self.num_mds,
            seed,
            heartbeat_interval: self.heartbeat,
            frag_split_threshold: self.frag_split_threshold,
            ..Default::default()
        };
        if self.cache {
            cfg.with_cache(CacheConfig::on())
        } else {
            cfg
        }
    }

    /// The workload generator, seeded the way `mantle_core` seeds it.
    fn workload(&self, seed: u64) -> Box<dyn Workload> {
        match self.mix {
            Mix::Zipf {
                dirs,
                exponent,
                write_fraction,
            } => Box::new(ZipfMix::new(
                self.clients,
                dirs,
                self.ops_per_client,
                exponent,
                write_fraction,
                seed ^ 0x0000_21bf,
            )),
            Mix::Flash {
                hot_fraction,
                write_fraction,
            } => Box::new(FlashCrowd::new(
                self.clients,
                self.ops_per_client,
                hot_fraction,
                write_fraction,
                seed ^ 0x0000_f1a5,
            )),
        }
    }
}

fn policy() -> PolicySet {
    policies::greedy_spill_even().expect("preset policy validates")
}

fn balancer(policy: &PolicySet) -> MantleBalancer {
    MantleBalancer::new_unvalidated(POLICY, policy.clone()).expect("preset policy compiles")
}

/// The scheduler, exec mode and hook engine the batch workloads resolve
/// to under the production defaults.
pub fn resolved_defaults(shape: &Shape) -> String {
    let cfg = shape.config(0);
    format!(
        "scheduler={} exec_mode={:?} hook_engine={:?} policy={POLICY} cache={}",
        cfg.scheduler.name(),
        cfg.exec_mode,
        balancer(&policy()).engine(),
        cfg.cache.enabled
    )
}

/// One repetition: set up a cluster, run it, and keep what was seen.
pub struct Rep {
    /// `Cluster::new` wall time.
    pub setup: Duration,
    /// `Cluster::run_with_stats` wall time.
    pub run: Duration,
    /// The run's report.
    pub report: RunReport,
    /// The engine's execution statistics.
    pub stats: ExecStats,
    /// Workload wrapper totals.
    pub workload: WorkloadTotals,
    /// Balancer spans (`decide`, `metaload`); traced runs only.
    pub balancer: Option<(Span, Span)>,
}

/// Set up and run one cluster, timing `Cluster::new` and
/// `Cluster::run_with_stats`; `trace` wraps the balancers and turns on
/// the workload spans.
pub fn rep(shape: &Shape, seed: u64, trace: bool, policy: &PolicySet) -> Rep {
    let (workload, wtotals) = TracedWorkload::wrap(shape.workload(seed), trace);
    let btotals = trace.then(|| Rc::new(BalancerTotals::default()));
    let config = shape.config(seed);
    let t = Instant::now();
    let cluster = Cluster::new(config, workload, |_| {
        let b: Box<dyn Balancer> = Box::new(balancer(policy));
        match &btotals {
            Some(totals) => TracedBalancer::wrap(b, totals),
            None => b,
        }
    });
    let setup = t.elapsed();
    let t = Instant::now();
    let (report, stats) = cluster.run_with_stats();
    let run = t.elapsed();
    let workload =
        std::mem::take(&mut *wtotals.lock().expect("no thread panics holding the totals"));
    let balancer = btotals.map(|b| (b.decide.get(), b.metaload.get()));
    Rep {
        setup,
        run,
        report,
        stats,
        workload,
        balancer,
    }
}

/// Seed of repetition `i`. Every repetition simulates its own inputs,
/// all derived from the benchmark seed, so a run's medians rest on
/// several balancer trajectories rather than one.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    SimRng::new(seed).stream_n("perfbench-rep", i).next_u64()
}

/// One repetition, and with tracing a wrapped rerun of the same seed.
pub struct Pair {
    /// The untraced run.
    pub plain: Rep,
    /// The traced run of the same inputs.
    pub traced: Option<Rep>,
    /// Peak RSS of this process once the untraced run finished, MiB.
    pub peak_rss_mb: f64,
}

/// Run `n` repetitions.
fn reps(shape: &Shape, seed: u64, trace: bool, n: usize) -> Vec<Pair> {
    let policy = policy();
    let mut out = Vec::new();
    while out.len() < n {
        let s = rep_seed(seed, out.len());
        let plain = rep(shape, s, false, &policy);
        let peak_rss_mb = peak_rss_mb(None).unwrap_or(0.0);
        let traced = trace.then(|| rep(shape, s, true, &policy));
        out.push(Pair {
            plain,
            traced,
            peak_rss_mb,
        });
    }
    out
}

/// Ops of one repetition that failed: expected but not completed, plus
/// timeouts and requests dropped at an MDS.
pub fn failed_ops(shape: &Shape, report: &RunReport) -> u64 {
    shape.expected_ops().saturating_sub(client_ops(report))
        + report.timeouts
        + report.total_dropped()
}

/// The probed clients' host round trips of every untraced run, in µs.
fn probe_rtts(pairs: &[Pair]) -> Vec<f64> {
    pairs
        .iter()
        .flat_map(|p| p.plain.workload.probe_rtt_us.iter().copied())
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Check every repetition: all ops completed, none failed, and a traced
/// rerun's report byte-identical to the untraced one (otherwise all its
/// ops count as failed). Prints each report's digest, so a change that
/// only claims speed can show the simulation is unchanged.
fn check(name: &str, shape: &Shape, seed: u64, pairs: &[Pair], out: &mut Outcome) {
    for (i, pair) in pairs.iter().enumerate() {
        let want = digest(&pair.plain.report);
        for r in std::iter::once(&pair.plain).chain(&pair.traced) {
            let mut failed = failed_ops(shape, &r.report);
            if digest(&r.report) != want {
                out.problem(format!(
                    "{name} seed={seed} rep={i}: traced and untraced RunReports differ"
                ));
                failed = shape.expected_ops();
            }
            if failed > 0 {
                out.problem(format!(
                    "{name} seed={seed} rep={i}: {failed} of {} ops failed",
                    shape.expected_ops()
                ));
            }
            out.attempted += shape.expected_ops();
            out.failed += failed;
        }
        let r = &pair.plain.report;
        out.note(format!(
            "report_digest workload={name} seed={seed} rep={i} rep_seed={} digest={want:016x} \
             traced_identical={} client_ops={} makespan_s={} migrations={} forwards={} setup_s={} \
             run_s={}",
            rep_seed(seed, i),
            match &pair.traced {
                Some(t) => (digest(&t.report) == want).to_string(),
                None => "-".to_string(),
            },
            client_ops(r),
            r.makespan.as_secs_f64(),
            r.total_migrations(),
            r.total_forwards(),
            secs(pair.plain.setup),
            secs(pair.plain.run),
        ));
    }
}

/// Run a batch workload and produce its end-to-end (`trace == false`)
/// or per-layer (`trace == true`) metrics.
pub fn measure(name: &str, shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.note(format!("config {}", resolved_defaults(shape)));
    if !trace {
        let pairs = reps(shape, seed, false, shape.reps_for(seconds, MIN_REPS));
        check(name, shape, seed, &pairs, &mut out);
        // One set-up per repetition, each after the previous run, as a
        // user's process meets it. Back-to-back set-ups reuse a warm
        // allocator and differ between processes by up to 40% on
        // `flash-crowd`, so none are added.
        let setups: Vec<f64> = pairs.iter().map(|p| secs(p.plain.setup)).collect();
        let ops = shape.expected_ops() as f64;
        let rtts = probe_rtts(&pairs);
        out.note(format!("samples runs={}", pairs.len()));
        out.note(format!(
            "setup_us {}",
            quantiles(&setups.iter().map(|s| s * 1e6).collect::<Vec<_>>())
        ));
        out.note(format!("probe_rtt_us {}", quantiles(&rtts)));
        out.metric("setup_s", median(&setups), "s");
        out.metric(
            "ops_per_s",
            median_of(&pairs, |p| ops / secs(p.plain.run)),
            "1/s",
        );
        out.metric(
            "sim_ops_per_s",
            median_of(&pairs, |p| ops / p.plain.report.makespan.as_secs_f64()),
            "1/s",
        );
        out.metric("rtt_p50_us", percentile(&rtts, 0.50), "us");
        out.metric("rtt_p90_us", percentile(&rtts, 0.90), "us");
        // After the first repetition: later ones repeat the same work,
        // and allocator reuse would only blur the high-water mark.
        out.metric("peak_rss_mb", pairs[0].peak_rss_mb, "MB");
        return out;
    }

    // Traced: each repetition runs untraced, then wrapped on the same seed.
    let pairs = reps(shape, seed, true, shape.reps_for(seconds / 2.0, 1));
    check(name, shape, seed, &pairs, &mut out);
    let traced: Vec<&Rep> = pairs.iter().filter_map(|p| p.traced.as_ref()).collect();
    let decide = |r: &&Rep| r.balancer.map_or(0.0, |b| b.0.secs());
    let metaload = |r: &&Rep| r.balancer.map_or(0.0, |b| b.1.secs());
    let next = |r: &&Rep| r.workload.next.secs();
    let self_time = |r: &&Rep| secs(r.run) - next(r) - decide(r) - metaload(r);
    let traced_run = median_of(&traced, |r| secs(r.run));
    let count = |f: &dyn Fn(&Rep) -> u64| median_of(&pairs, |p| f(&p.plain) as f64);
    let events = |r: &Rep| r.stats.shards.iter().map(|s| s.events).sum::<u64>();
    out.metric(
        "workloads.setup_s",
        median_of(&traced, |r| r.workload.setup.secs()),
        "s",
    );
    out.metric(
        "workloads.next_calls",
        median_of(&traced, |r| r.workload.next.calls as f64),
        "count",
    );
    out.metric("workloads.next_s", median_of(&traced, next), "s");
    out.metric(
        "policy.decide_calls",
        median_of(&traced, |r| r.balancer.map_or(0, |b| b.0.calls) as f64),
        "count",
    );
    out.metric("policy.decide_s", median_of(&traced, decide), "s");
    out.metric(
        "policy.metaload_calls",
        median_of(&traced, |r| r.balancer.map_or(0, |b| b.1.calls) as f64),
        "count",
    );
    out.metric("policy.metaload_s", median_of(&traced, metaload), "s");
    out.metric("mds.engine_self_s", median_of(&traced, self_time), "s");
    out.metric("sim.events", count(&events), "count");
    out.metric("sim.windows", count(&|r| r.stats.windows), "count");
    out.metric(
        "sim.exclusive_events",
        count(&|r| r.stats.exclusive_events),
        "count",
    );
    out.metric(
        "sim.events_per_s",
        median_of(&pairs, |p| events(&p.plain) as f64 / secs(p.plain.run)),
        "1/s",
    );
    out.metric(
        "shard.barrier_wait_s",
        median_of(&pairs, |p| {
            let ns: u64 = p.plain.stats.shards.iter().map(|s| s.barrier_wait_ns).sum();
            ns as f64 / 1e9
        }),
        "s",
    );
    out.metric(
        "mds.migrations",
        count(&|r| r.report.total_migrations()),
        "count",
    );
    out.metric(
        "mds.forwards",
        count(&|r| r.report.total_forwards()),
        "count",
    );
    out.metric(
        "mds.sessions_flushed",
        count(&|r| r.report.sessions_flushed),
        "count",
    );
    out.metric("mds.timeouts", count(&|r| r.report.timeouts), "count");
    out.metric("cache.hits", count(&|r| r.report.cache_hits), "count");
    out.metric("cache.misses", count(&|r| r.report.cache_misses), "count");
    out.metric(
        "cache.hit_rate",
        median_of(&pairs, |p| p.plain.report.cache_hit_rate()),
        "frac",
    );
    out.metric(
        "cache.invalidations",
        count(&|r| r.report.cache_invalidations),
        "count",
    );
    let rtts = probe_rtts(&pairs);
    out.metric("client.rtt_p99_us", percentile(&rtts, 0.99), "us");
    out.metric(
        "bench.trace_overhead_frac",
        median_of(&pairs, |p| {
            p.traced
                .as_ref()
                .map_or(0.0, |t| secs(t.run) / secs(p.plain.run) - 1.0)
        }),
        "frac",
    );
    out.note(format!(
        "layer_shares traced_run_s={traced_run} decide={} metaload={} next={} engine_self={}",
        median_of(&traced, decide) / traced_run,
        median_of(&traced, metaload) / traced_run,
        median_of(&traced, next) / traced_run,
        median_of(&traced, self_time) / traced_run,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    #[test]
    fn rep_seeds_are_derived_and_distinct() {
        assert_eq!(rep_seed(3, 1), rep_seed(3, 1));
        assert_ne!(rep_seed(3, 0), rep_seed(3, 1));
        assert_ne!(rep_seed(3, 0), rep_seed(4, 0));
    }

    #[test]
    fn smoke_end_to_end_runs_are_clean() {
        for (name, shape) in [
            ("zipf-row", zipf_row(true)),
            ("flash-crowd", flash_crowd(true)),
        ] {
            let out = measure(name, &shape, 7, 0.01, false);
            assert!(out.problems.is_empty(), "{name}: {:?}", out.problems);
            assert_eq!(out.failed, 0);
            assert_eq!(out.attempted, MIN_REPS as u64 * shape.expected_ops());
            assert_eq!(shape.reps_for(0.01, MIN_REPS), MIN_REPS);
            for (n, v, _) in &out.metrics {
                assert!(*v > 0.0, "{name}: {n} = {v}");
            }
        }
    }

    #[test]
    fn smoke_traced_runs_match_untraced_and_show_their_layers() {
        let zipf = measure("zipf-row", &zipf_row(true), 7, 0.01, true);
        assert!(zipf.problems.is_empty(), "{:?}", zipf.problems);
        assert!(zipf
            .notes
            .iter()
            .any(|n| n.contains("traced_identical=true")));
        assert!(metric(&zipf, "policy.decide_calls") > 0.0);
        assert!(metric(&zipf, "policy.metaload_calls") > 0.0);
        assert_eq!(
            metric(&zipf, "workloads.next_calls"),
            (zipf_row(true).expected_ops() + 8) as f64,
            "one next per op plus one end-of-stream call per client"
        );
        assert_eq!(metric(&zipf, "cache.hits"), 0.0, "cache tier is off");

        let flash = measure("flash-crowd", &flash_crowd(true), 7, 0.01, true);
        assert!(flash.problems.is_empty(), "{:?}", flash.problems);
        assert!(metric(&flash, "cache.hit_rate") > 0.5);
        assert!(metric(&flash, "sim.events") > 0.0);
    }

    #[test]
    fn production_defaults_are_reported() {
        let line = resolved_defaults(&zipf_row(true));
        assert!(line.contains("scheduler=") && line.contains("hook_engine="));
        assert!(line.contains("cache=false"));
        assert!(resolved_defaults(&flash_crowd(true)).contains("cache=true"));
    }
}
