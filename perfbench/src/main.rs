//! The Mantle benchmark: one workload per invocation, end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload zipf-row|flash-crowd|daemon-loopback --seed N
//!           --seconds S --trace 0|1 [--mantled PATH]
//! ```
//!
//! Normally launched through `perfbench/run.py`, which builds this binary
//! and `mantled` from source first. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod batch;
mod daemon;
mod stats;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["zipf-row", "flash-crowd", "daemon-loopback"];

/// End-to-end metrics (`--trace 0`), as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_ops_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as in `BENCHMARK.json`. A layer a
/// workload does not pass through reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.setup_s", "s"),
    ("workloads.next_calls", "count"),
    ("workloads.next_s", "s"),
    ("policy.decide_calls", "count"),
    ("policy.decide_s", "s"),
    ("policy.metaload_calls", "count"),
    ("policy.metaload_s", "s"),
    ("mds.engine_self_s", "s"),
    ("sim.events", "count"),
    ("sim.windows", "count"),
    ("sim.exclusive_events", "count"),
    ("sim.events_per_s", "1/s"),
    ("shard.barrier_wait_s", "s"),
    ("mds.migrations", "count"),
    ("mds.forwards", "count"),
    ("mds.sessions_flushed", "count"),
    ("mds.timeouts", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.invalidations", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("client.rtt_p99_us", "us"),
    ("daemon.sim_latency_p50_us", "us"),
    ("daemon.sim_latency_p99_us", "us"),
    ("daemon.engine_rtt_p50_us", "us"),
    ("daemon.engine_rtt_p99_us", "us"),
    ("daemon.pump_wait_us", "us"),
    ("daemon.reactor_us", "us"),
    ("daemon.encode_us", "us"),
    ("daemon.decode_us", "us"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    /// Failed output checks; any makes the result incorrect.
    pub problems: Vec<String>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or got no reply.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Record an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed check.
    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Put the metrics in the order of `names`. A per-layer metric the
    /// workload did not measure reads 0; a missing end-to-end metric, or
    /// a name or unit outside the list, is a failed check.
    pub fn complete(&mut self, names: &[(&str, &str)], zero_fill: bool) {
        let mut measured = std::mem::take(&mut self.metrics);
        for (name, unit) in names {
            match measured.iter().position(|(n, _, _)| n == name) {
                Some(i) => {
                    let m = measured.remove(i);
                    if m.2 != *unit {
                        self.problem(format!("metric {name} has unit {}, not {unit}", m.2));
                    }
                    self.metrics.push(m);
                }
                None if zero_fill => self.metric(name, 0.0, unit),
                None => self.problem(format!("metric {name} was not measured")),
            }
        }
        for (name, _, _) in measured {
            self.problem(format!("metric {name} is not listed"));
        }
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mantled: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--mantled PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        mantled: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--mantled" => out.mantled = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`\n{USAGE}",
            out.workload
        ));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match args.workload.as_str() {
        "zipf-row" => batch::measure(
            "zipf-row",
            &batch::zipf_row(false),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "flash-crowd" => batch::measure(
            "flash-crowd",
            &batch::flash_crowd(false),
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => {
            let Some(mantled) = &args.mantled else {
                eprintln!("perfbench: daemon-loopback needs --mantled PATH\n{USAGE}");
                return ExitCode::from(2);
            };
            daemon::measure(mantled, args.seed, args.seconds, args.trace)
        }
    };
    if args.trace {
        outcome.complete(PER_LAYER, true);
    } else {
        outcome.complete(END_TO_END, false);
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for line in &outcome.problems {
        println!("check failed: {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "ops attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_daemon::json::{parse, Json};

    fn names(v: &Json, key: &str) -> Vec<(String, Option<String>)> {
        v.get_arr(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                (
                    m.get_str("name").unwrap().to_string(),
                    m.get_str("unit").map(str::to_string),
                )
            })
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = parse(&text).expect("BENCHMARK.json is json");
        assert_eq!(names(&spec, "end_to_end"), listed(END_TO_END));
        assert_eq!(names(&spec, "per_layer"), listed(PER_LAYER));
        let workloads: Vec<String> = names(&spec, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn outcome_completes_and_renders_one_json_line() {
        let mut out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        out.metric("daemon.encode_us", 1.5, "us");
        out.complete(PER_LAYER, true);
        assert!(out.correct());
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let line = parse(&out.json()).expect("result line is json");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get_u64("attempted"), Some(10));
        let m = line
            .get("metrics")
            .unwrap()
            .get("daemon.encode_us")
            .unwrap();
        assert_eq!(m.get_num("value"), Some(1.5));
        assert_eq!(m.get_str("unit"), Some("us"));

        let mut missing = Outcome {
            attempted: 1,
            ..Default::default()
        };
        missing.metric("setup_s", 1.0, "s");
        missing.complete(END_TO_END, false);
        assert!(
            !missing.correct(),
            "an unmeasured end-to-end metric fails the run"
        );

        let mut stray = Outcome {
            attempted: 1,
            ..Default::default()
        };
        stray.metric("bogus", 1.0, "s");
        stray.complete(PER_LAYER, true);
        assert!(!stray.correct(), "an unlisted metric fails the run");
    }
}
