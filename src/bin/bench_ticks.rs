//! Tick-cost tracker: times the heartbeat-snapshot path and the policy
//! hooks with plain `std::time::Instant` (no external bench harness), and
//! writes the measurements to `BENCH_ticks.json` at the repo root.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --bin bench_ticks
//! ```
//!
//! or, for a seconds-long CI smoke that skips the timing loops and the
//! JSON write but still checks that every fast path produces the same
//! numbers as its walk-based oracle — including the delta-maintained
//! per-MDS aggregates after a run of migrations:
//!
//! ```text
//! cargo run --release --bin bench_ticks -- --smoke
//! ```
//!
//! What it measures, on a create-shared-style namespace of ≥ 2 000
//! directories spread over 3 MDSs:
//!
//! * `snapshot`: the per-tick metadata-load roll-up — the incremental
//!   per-MDS aggregate path (`Namespace::mds_load_samples`, O(MDSs))
//!   against the legacy per-dirfrag walk (O(dirs × frags × hook evals));
//! * `metaload_hook`: one Table-1 `metaload` evaluation — the
//!   scalar-compiled fast path against the tree-walking interpreter;
//! * `decide_hook`: one full when/where decision (adaptable policy) on
//!   both hook engines — the default bytecode VM (cached decide
//!   environment + scalar mdsload) and the tree interpreter with per-call
//!   setup. The bytecode engine is gated ≥ 2× the tree interpreter on
//!   this non-scalar decision hook;
//! * `end_to_end`: a small create-shared experiment wall-clock, fast vs
//!   forced-slow hook engine (results are byte-identical; only time may
//!   differ);
//! * `migration_tick`: the cost of one balancer-driven migration plus the
//!   following load snapshot on a ~10 000-directory namespace — the
//!   delta-maintained aggregates (`mds_load_samples`) against a full
//!   per-frag recompute (`oracle_load_samples`) after the same migration;
//! * `scale`: whole-cluster wall-clock rows at 10/64/128 MDSs (best of
//!   three runs each, reruns asserted byte-identical);
//! * `cache`: the proxy-cache tier — `GroupCache` lookup/fill cost on a
//!   bench-sized namespace, plus the flash-crowd storm run cache-off and
//!   cache-on (simulated ops/s, hit rate). The cache-on/off speedup is
//!   gated ≥ 2× — the acceptance bound for the hotspot-absorbing tier;
//! * `elastic`: the membership layer — one `howmany` hook evaluation
//!   (runs once per tick on the coordinator), plus the quick diurnal
//!   scenario scored in ops per provisioned MDS-hour: the elastic
//!   cluster against every fixed size in its pool. The elastic run is
//!   gated strictly better than the best fixed size — the same
//!   acceptance bound `elastic --smoke` enforces in CI.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use mantle::core::elastic;
use mantle::core::flashcrowd::{client_ops, ops_per_sec, run_pair};
use mantle::core::policies;
use mantle::core::repro::ReproOpts;
use mantle::core::scale::{run_scale, ScaleSpec};
use mantle::mds::{GroupCache, HookEngine};
use mantle::namespace::{Namespace, NodeId, OpKind};
use mantle::policy::env::{BalancerInputs, FragMetrics, MantleRuntime, MdsMetrics};
use mantle::prelude::*;
use mantle::sim::SimTime;

const NUM_MDS: usize = 3;

/// Average seconds per call of `f` over `iters` calls.
fn time_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    // One warm-up call keeps lazy initialization out of the window.
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// A create-shared-style namespace: a few project roots, each packed with
/// subdirectories that clients hammer with creates and stats. Subtrees are
/// spread over the MDSs so replica (ancestor) chains are non-trivial.
fn build_namespace(dirs_per_project: usize, projects: usize) -> Namespace {
    let mut ns = Namespace::default();
    let now = SimTime::ZERO;
    let root = ns.root();
    for p in 0..projects {
        let proj = ns.mkdir(root, format!("proj{p}"));
        ns.migrate_subtree(proj, p % NUM_MDS);
        for d in 0..dirs_per_project {
            let dir = ns.mkdir(proj, format!("d{d}"));
            if d % 7 == 0 {
                // A slice of each project lives on another MDS, so the
                // ancestor chains replicate load across ranks.
                ns.migrate_subtree(dir, (p + 1) % NUM_MDS);
            }
            let heat = 1 + (d % 5);
            for _ in 0..heat {
                ns.record_op(dir, OpKind::Create, now);
            }
            ns.record_op(dir, OpKind::Stat, now);
            if d % 3 == 0 {
                ns.record_op(dir, OpKind::Readdir, now);
            }
        }
    }
    ns
}

/// The legacy snapshot inner loop: evaluate the metaload hook once per
/// dirfrag and accumulate per-MDS totals (what `snapshot_heartbeats` did
/// before the incremental aggregates, and still does for non-additive
/// hooks).
fn per_frag_walk(ns: &mut Namespace, rt: &MantleRuntime, now: SimTime) -> (Vec<f64>, Vec<f64>) {
    let mut auth_load = vec![0.0; NUM_MDS];
    let mut all_load = vec![0.0; NUM_MDS];
    let dirs: Vec<NodeId> = ns.all_dirs().collect();
    for d in dirs {
        let nfrags = ns.dir(d).frags.len();
        for f in 0..nfrags {
            let heat = ns.frag_heat(d, f, now);
            let auth = ns.frag_auth(d, f);
            let load = rt
                .eval_metaload(
                    auth,
                    &frag_metrics(heat.ird, heat.iwr, heat.readdir, heat.fetch, heat.store),
                )
                .unwrap_or_else(|_| heat.cephfs_metaload());
            auth_load[auth] += load;
            all_load[auth] += load;
            for rep in ns.ancestor_auth_chain(d) {
                if rep != auth {
                    all_load[rep] += load * 0.2;
                }
            }
        }
    }
    (auth_load, all_load)
}

/// The aggregate snapshot inner loop: per-MDS heat samples from the
/// incrementally maintained aggregates, one hook evaluation per MDS for
/// auth heat and one for replicated heat.
fn aggregate_rollup(ns: &mut Namespace, rt: &MantleRuntime, now: SimTime) -> (Vec<f64>, Vec<f64>) {
    let (auth_s, rep_s) = ns.mds_load_samples(NUM_MDS, now);
    let mut auth_load = vec![0.0; NUM_MDS];
    let mut all_load = vec![0.0; NUM_MDS];
    for m in 0..NUM_MDS {
        let a = rt
            .eval_metaload(
                m,
                &frag_metrics(
                    auth_s[m].ird,
                    auth_s[m].iwr,
                    auth_s[m].readdir,
                    auth_s[m].fetch,
                    auth_s[m].store,
                ),
            )
            .unwrap_or_else(|_| auth_s[m].cephfs_metaload());
        let r = rt
            .eval_metaload(
                m,
                &frag_metrics(
                    rep_s[m].ird,
                    rep_s[m].iwr,
                    rep_s[m].readdir,
                    rep_s[m].fetch,
                    rep_s[m].store,
                ),
            )
            .unwrap_or_else(|_| rep_s[m].cephfs_metaload());
        auth_load[m] = a;
        all_load[m] = a + 0.2 * r;
    }
    (auth_load, all_load)
}

fn frag_metrics(ird: f64, iwr: f64, readdir: f64, fetch: f64, store: f64) -> FragMetrics {
    FragMetrics {
        ird,
        iwr,
        readdir,
        fetch,
        store,
    }
}

/// The first `count` leaf directories of project 0 — the small hot dirs a
/// Greedy Spill tick exports one at a time.
fn project_leaves(ns: &Namespace, count: usize) -> Vec<NodeId> {
    let proj = ns
        .lookup_child(ns.root(), "proj0")
        .expect("bench namespace has proj0");
    (0..count)
        .map(|d| {
            ns.lookup_child(proj, &format!("d{d}"))
                .expect("bench namespace leaf")
        })
        .collect()
}

/// One migration-heavy balancer tick: export a small subtree, then take
/// the load snapshot the next heartbeat needs. With `full_recompute` the
/// snapshot is the per-frag walk over the whole namespace
/// (`oracle_load_samples`); otherwise it reads the delta-maintained
/// aggregates, so both steps are bounded by the moved subtree.
fn migration_tick(
    ns: &mut Namespace,
    leaves: &[NodeId],
    i: &mut usize,
    now: SimTime,
    full_recompute: bool,
) {
    let leaf = leaves[*i % leaves.len()];
    let to = *i % NUM_MDS;
    *i += 1;
    ns.migrate_subtree(leaf, to);
    if full_recompute {
        black_box(ns.oracle_load_samples(NUM_MDS, now));
    } else {
        black_box(ns.mds_load_samples(NUM_MDS, now));
    }
}

/// `--smoke`: tiny namespaces, no timing loops, no JSON — just assert
/// that the fast paths run and agree with their oracles.
fn run_smoke() {
    let now = SimTime::from_secs(1);
    let table1 = MantleRuntime::new(policies::cephfs_original().expect("preset compiles"));
    let mut inc = build_namespace(40, 3);

    let (agg_auth, _) = aggregate_rollup(&mut inc, &table1, now);
    let (walk_auth, _) = per_frag_walk(&mut inc, &table1, now);
    for m in 0..NUM_MDS {
        let diff = (agg_auth[m] - walk_auth[m]).abs();
        assert!(
            diff <= 1e-6 * (1.0 + walk_auth[m].abs()),
            "smoke: snapshot paths disagree on MDS {m}: {} vs {}",
            agg_auth[m],
            walk_auth[m]
        );
    }

    // The decide pipeline on both hook engines, same inputs, must be
    // bit-identical (the timing run gates speed; smoke gates agreement).
    let inputs = decide_inputs();
    let [bytecode, tree] = [HookEngine::Bytecode, HookEngine::Tree].map(|e| {
        MantleRuntime::new(policies::adaptable().expect("preset compiles"))
            .with_engine(e)
            .decide(&inputs)
            .expect("adaptable decides cleanly")
    });
    assert_eq!(bytecode, tree, "smoke: hook engines disagree on decide");

    // After a run of migrations, the delta-maintained aggregates still
    // match a full per-frag recompute.
    let leaves = project_leaves(&inc, 8);
    let mut ii = 0;
    for _ in 0..16 {
        migration_tick(&mut inc, &leaves, &mut ii, now, false);
    }
    let (auth, rep) = inc.mds_load_samples(NUM_MDS, now);
    let (auth_o, rep_o) = inc.oracle_load_samples(NUM_MDS, now);
    for (kind, fast, full) in [("auth", auth, auth_o), ("replica", rep, rep_o)] {
        for m in 0..NUM_MDS {
            let (got, want) = (fast[m].cephfs_metaload(), full[m].cephfs_metaload());
            assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "smoke: {kind} aggregate of MDS {m} drifted after migrations: \
                 {got} vs {want}"
            );
        }
    }

    // Trace overhead guard: attaching a sink must not change the
    // simulation (fixed-seed reports stay byte-identical) or push any
    // balancer onto the oracle fallback, and the captured stream must
    // replay cleanly through the invariant checker.
    let spec = Experiment::new(
        ClusterConfig {
            num_mds: NUM_MDS,
            heartbeat_interval: SimTime::from_millis(400),
            frag_split_threshold: 300,
            ..Default::default()
        },
        WorkloadSpec::CreateShared {
            clients: 4,
            files: 2_000,
        },
        BalancerSpec::mantle(
            "greedy-spill",
            policies::greedy_spill().expect("preset compiles"),
        ),
    );
    let plain = format!("{:?}", run_experiment(&spec));
    let (traced, trace) = run_experiment_traced(&spec, TraceLevel::Full);
    assert_eq!(
        plain,
        format!("{traced:?}"),
        "smoke: tracing changed the simulation"
    );
    assert_eq!(
        traced.balancer_fallbacks, 0,
        "smoke: traced run fell back to the built-in balancer"
    );
    assert!(
        trace.records().len() > 100,
        "smoke: trace captured almost nothing"
    );
    assert_invariants(trace.records());

    // Cache smoke: the flash-crowd storm at quick size, cache off vs on.
    // Same client completions either way (hits bypass the MDS but not the
    // client), no hits recorded with the cache off, and the tier clears
    // its ≥2× acceptance bound even at smoke size.
    let (off, on) = run_pair(ReproOpts::QUICK, BalancerSpec::None, 42);
    assert_eq!(
        client_ops(&off),
        client_ops(&on),
        "smoke: cache setting changed the work done"
    );
    assert_eq!(off.cache_hits, 0, "smoke: disabled cache recorded hits");
    let cache_speedup = ops_per_sec(&on) / ops_per_sec(&off).max(f64::MIN_POSITIVE);
    assert!(
        cache_speedup >= 2.0,
        "smoke: storm speedup {cache_speedup:.2}x below the 2x cache gate"
    );

    // Elastic smoke: the diurnal scenario at quick size. Same client
    // completions whether the cluster scales or stays fixed at either
    // extreme, the howmany hook actually fires both ways, and elastic
    // clears its acceptance bound — strictly more ops per provisioned
    // MDS-hour than the floor and the ceiling of its pool (`elastic
    // --smoke` in CI gates against *every* fixed size; here the two
    // extremes keep smoke cheap).
    let el = elastic::run_elastic(ReproOpts::QUICK, 42);
    let floor = elastic::run_fixed(ReproOpts::QUICK, 1, 42);
    let ceil = elastic::run_fixed(ReproOpts::QUICK, elastic::POOL, 42);
    assert_eq!(
        elastic::client_ops(&el),
        elastic::client_ops(&floor),
        "smoke: elastic scaling changed the work done"
    );
    assert_eq!(
        elastic::client_ops(&el),
        elastic::client_ops(&ceil),
        "smoke: fixed pool size changed the work done"
    );
    assert!(
        el.joins >= 1 && el.leaves >= 1,
        "smoke: elastic run never scaled (joins={}, leaves={})",
        el.joins,
        el.leaves
    );
    let el_score = elastic::score(&el);
    let el_fixed_best = elastic::score(&floor).max(elastic::score(&ceil));
    assert!(
        el_score > el_fixed_best,
        "smoke: elastic {el_score:.0} ops/mds-h does not beat the pool \
         extremes ({el_fixed_best:.0})"
    );

    println!(
        "smoke ok: {} dirs, {} migration ticks with aggregates matching a \
         full recompute, {} trace records invariant-clean, \
         storm cache speedup {:.1}x, elastic {:.2}x the pool extremes",
        inc.dir_count(),
        ii,
        trace.records().len(),
        cache_speedup,
        el_score / el_fixed_best
    );
}

/// The bench-sized cluster rows: the scale family's 10/64/128 MDS shapes
/// shrunk to bench-friendly op counts (the full sizes live in the `scale`
/// bin and EXPERIMENTS.md).
fn bench_scale_specs() -> Vec<ScaleSpec> {
    vec![
        ScaleSpec {
            name: "mds-10",
            num_mds: 10,
            clients: 16,
            dirs: 20_000,
            ops_per_client: 2_000,
        },
        ScaleSpec {
            name: "mds-64",
            num_mds: 64,
            clients: 64,
            dirs: 20_000,
            ops_per_client: 2_000,
        },
        ScaleSpec {
            name: "mds-128",
            num_mds: 128,
            clients: 128,
            dirs: 20_000,
            ops_per_client: 2_000,
        },
    ]
}

fn decide_inputs() -> BalancerInputs {
    BalancerInputs {
        whoami: 0,
        mds: (0..NUM_MDS)
            .map(|i| MdsMetrics {
                auth: 80.0 - 30.0 * i as f64,
                all: 90.0 - 30.0 * i as f64,
                cpu: 60.0,
                mem: 25.0,
                q: 1.0,
                req: 40.0,
                cache_hits: 120.0,
                cache_misses: 15.0,
            })
            .collect(),
        auth_metaload: 80.0,
        all_metaload: 90.0,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }
    let now = SimTime::from_secs(1);
    let table1 = MantleRuntime::new(policies::cephfs_original().expect("preset compiles"));
    let table1_slow = MantleRuntime::new(policies::cephfs_original().expect("preset compiles"))
        .with_force_slow_path(true);

    // --- snapshot: aggregate roll-up vs per-frag walk -------------------
    // 3 projects × 700 dirs + roots
    let mut ns = build_namespace(700, 3);
    let dirs = ns.dir_count();
    let frags: usize = (0..NUM_MDS).map(|m| ns.auth_frags(m).len()).sum();
    assert!(dirs >= 2_000, "bench namespace too small: {dirs} dirs");

    let agg_s = time_per_call(2_000, || {
        black_box(aggregate_rollup(&mut ns, &table1, now));
    });
    let walk_s = time_per_call(30, || {
        black_box(per_frag_walk(&mut ns, &table1, now));
    });
    // Sanity: both paths agree on the totals they feed into heartbeats.
    let (agg_auth, _) = aggregate_rollup(&mut ns, &table1, now);
    let (walk_auth, _) = per_frag_walk(&mut ns, &table1, now);
    for m in 0..NUM_MDS {
        let diff = (agg_auth[m] - walk_auth[m]).abs();
        assert!(
            diff <= 1e-6 * (1.0 + walk_auth[m].abs()),
            "aggregate and per-frag snapshots disagree on MDS {m}: {} vs {}",
            agg_auth[m],
            walk_auth[m]
        );
    }

    // --- policy hooks: scalar/compiled fast paths vs tree-walking -------
    let heat = frag_metrics(3.0, 5.0, 1.0, 0.5, 0.25);
    let meta_fast_s = time_per_call(200_000, || {
        black_box(table1.eval_metaload(0, &heat).unwrap());
    });
    let meta_tree_s = time_per_call(50_000, || {
        black_box(table1_slow.eval_metaload(0, &heat).unwrap());
    });

    let adaptable = MantleRuntime::new(policies::adaptable().expect("preset compiles"));
    let adaptable_slow = MantleRuntime::new(policies::adaptable().expect("preset compiles"))
        .with_force_slow_path(true);
    let inputs = decide_inputs();
    let decide_fast_s = time_per_call(20_000, || {
        black_box(adaptable.decide(&inputs).unwrap());
    });
    let decide_tree_s = time_per_call(5_000, || {
        black_box(adaptable_slow.decide(&inputs).unwrap());
    });

    // --- migration-heavy ticks at ~10k dirs, delta vs full recompute ----
    // Greedy-Spill-style exports of small hot subtrees: the per-migration
    // balancer cost is the export itself plus the next load snapshot.
    let mut mig_ns = build_namespace(3_400, 3);
    let mig_dirs = mig_ns.dir_count();
    assert!(mig_dirs >= 10_000, "migration bench too small: {mig_dirs}");
    let leaves = project_leaves(&mig_ns, 64);
    let mut mi = 0;
    let mig_inc_s = time_per_call(2_000, || {
        migration_tick(&mut mig_ns, &leaves, &mut mi, now, false);
    });
    let mig_full_s = time_per_call(40, || {
        migration_tick(&mut mig_ns, &leaves, &mut mi, now, true);
    });

    // --- end to end: a small create-shared run, both engines ------------
    let e2e = |slow: bool| {
        let policy = policies::adaptable().expect("preset compiles");
        let spec = Experiment::new(
            ClusterConfig::default().with_mds(NUM_MDS),
            WorkloadSpec::CreateShared {
                clients: 4,
                files: 4_000,
            },
            if slow {
                BalancerSpec::mantle_slow_path("adaptable", policy)
            } else {
                BalancerSpec::mantle("adaptable", policy)
            },
        );
        let t0 = Instant::now();
        let report = run_experiment(&spec);
        let secs = t0.elapsed().as_secs_f64();
        (secs, report.total_ops())
    };
    let (e2e_fast_s, ops) = e2e(false);
    let (e2e_slow_s, ops_slow) = e2e(true);
    assert_eq!(ops, ops_slow, "engines must do identical work");

    // --- scale: whole-cluster rows at 10/64/128 MDSs --------------------
    let mut cluster_rows = String::new();
    for (i, spec) in bench_scale_specs().iter().enumerate() {
        // Sub-second rows are jitter-dominated (mds-10 finishes in
        // ~0.1s), so each row records the best of three runs.
        let mut best = run_scale(spec, 42);
        for _ in 0..2 {
            let next = run_scale(spec, 42);
            assert_eq!(
                format!("{:?}", best.report),
                format!("{:?}", next.report),
                "{}: rerun changed the report",
                spec.name
            );
            if next.wall_secs < best.wall_secs {
                best = next;
            }
        }
        let _ = write!(
            cluster_rows,
            "{}{{ \"num_mds\": {}, \"clients\": {}, \"total_ops\": {}, \"wall_s\": {:.3} }}",
            if i == 0 { "" } else { ",\n      " },
            spec.num_mds,
            spec.clients,
            spec.total_ops(),
            best.wall_secs,
        );
    }

    // --- cache: proxy-tier primitives and the flash-crowd storm ---------
    // Primitive costs on the bench namespace: in-window lookup hits and
    // barrier-time fills (with LRU eviction pressure — the cache holds
    // half the dirs it is offered).
    let cache_ns = build_namespace(700, 3);
    let cache_dirs: Vec<NodeId> = cache_ns.all_dirs().collect();
    let mut gc = GroupCache::new(cache_dirs.len() / 2);
    for &d in &cache_dirs {
        gc.fill(&cache_ns, d, 0);
    }
    let mut li = 0;
    let cache_lookup_s = time_per_call(200_000, || {
        li += 1;
        black_box(gc.lookup(cache_dirs[li % cache_dirs.len()]));
    });
    let mut fi = 0;
    let cache_fill_s = time_per_call(200_000, || {
        fi += 1;
        gc.fill(&cache_ns, cache_dirs[fi % cache_dirs.len()], fi % NUM_MDS);
    });

    // The storm itself, cache off vs on (simulated ops/s — the tier's
    // acceptance bound, gated below). Client completions are conserved
    // across cache settings; only where they are served changes.
    let (storm_off, storm_on) = run_pair(ReproOpts::QUICK, BalancerSpec::None, 42);
    assert_eq!(
        client_ops(&storm_off),
        client_ops(&storm_on),
        "cache setting changed the work done"
    );
    let storm_off_rate = ops_per_sec(&storm_off);
    let storm_on_rate = ops_per_sec(&storm_on);
    let cache_speedup = storm_on_rate / storm_off_rate.max(f64::MIN_POSITIVE);
    let storm_hit_rate = storm_on.cache_hit_rate();

    // --- elastic: the howmany hook and the diurnal advantage ------------
    // The hook runs once per balancer tick on the coordinator, so its
    // cost is a per-tick tax on the whole cluster; measured on the
    // shipped scaler preset over the bench decide inputs. Then the quick
    // diurnal scenario: the elastic cluster against every fixed size in
    // its pool, scored in ops per provisioned MDS-hour (the acceptance
    // bound, gated below — the same gate `elastic --smoke` runs in CI).
    let scaler = MantleRuntime::new(
        policies::elastic_scaler_membership_only(
            elastic::GROW_THRESHOLD,
            elastic::SHRINK_THRESHOLD,
        )
        .expect("preset compiles"),
    );
    let howmany_s = time_per_call(100_000, || {
        black_box(scaler.eval_howmany(&inputs, 2, 1, elastic::POOL).unwrap());
    });

    let el_run = elastic::run_elastic(ReproOpts::QUICK, 42);
    let el_score = elastic::score(&el_run);
    let mut el_best_fixed = f64::MIN;
    for n in 1..=elastic::POOL {
        let fixed = elastic::run_fixed(ReproOpts::QUICK, n, 42);
        assert_eq!(
            elastic::client_ops(&fixed),
            elastic::client_ops(&el_run),
            "fixed-{n} did different work than the elastic run"
        );
        el_best_fixed = el_best_fixed.max(elastic::score(&fixed));
    }
    let el_advantage = el_score / el_best_fixed;

    // --- report ---------------------------------------------------------
    let snapshot_speedup = walk_s / agg_s;
    let metaload_speedup = meta_tree_s / meta_fast_s;
    let decide_speedup = decide_tree_s / decide_fast_s;
    let migration_speedup = mig_full_s / mig_inc_s;

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{
  "generated_by": "cargo run --release --bin bench_ticks",
  "namespace": {{ "dirs": {dirs}, "frags": {frags}, "num_mds": {NUM_MDS} }},
  "snapshot_heartbeats": {{
    "aggregate_us_per_tick": {agg:.3},
    "per_frag_us_per_tick": {walk:.3},
    "speedup": {snap:.1}
  }},
  "metaload_hook": {{
    "fast_ns_per_eval": {mf:.1},
    "tree_ns_per_eval": {mt:.1},
    "speedup": {ms:.1}
  }},
  "decide_hook": {{
    "bytecode_us_per_call": {df:.3},
    "tree_us_per_call": {dt:.3},
    "speedup_vs_tree": {ds:.1}
  }},
  "migration_tick": {{
    "dirs": {mig_dirs},
    "incremental_us_per_migration": {mi:.3},
    "full_recompute_us_per_migration": {mf_us:.3},
    "speedup": {msp:.1}
  }},
  "end_to_end_create_shared": {{
    "total_ops": {ops},
    "fast_engine_s": {ef:.3},
    "slow_engine_s": {es:.3}
  }},
  "scale": {{
    "clusters": [
      {cluster_rows}
    ]
  }},
  "cache": {{
    "group_cache_lookup_ns": {cl:.1},
    "group_cache_fill_ns": {cf:.1},
    "flash_crowd_storm": {{
      "client_ops": {storm_ops},
      "off_ops_per_sec": {sor:.0},
      "on_ops_per_sec": {snr:.0},
      "hit_rate": {shr:.3},
      "speedup": {csp:.2}
    }}
  }},
  "elastic": {{
    "howmany_ns_per_eval": {hme:.1},
    "diurnal_quick": {{
      "client_ops": {el_ops},
      "elastic_ops_per_mds_hour": {elo:.0},
      "best_fixed_ops_per_mds_hour": {elf:.0},
      "advantage": {eladv:.2},
      "joins": {elj},
      "leaves": {ell}
    }}
  }}
}}
"#,
        agg = agg_s * 1e6,
        walk = walk_s * 1e6,
        snap = snapshot_speedup,
        mf = meta_fast_s * 1e9,
        mt = meta_tree_s * 1e9,
        ms = metaload_speedup,
        df = decide_fast_s * 1e6,
        dt = decide_tree_s * 1e6,
        ds = decide_speedup,
        mi = mig_inc_s * 1e6,
        mf_us = mig_full_s * 1e6,
        msp = migration_speedup,
        ef = e2e_fast_s,
        es = e2e_slow_s,
        cl = cache_lookup_s * 1e9,
        cf = cache_fill_s * 1e9,
        storm_ops = client_ops(&storm_on),
        sor = storm_off_rate,
        snr = storm_on_rate,
        shr = storm_hit_rate,
        csp = cache_speedup,
        hme = howmany_s * 1e9,
        el_ops = elastic::client_ops(&el_run),
        elo = el_score,
        elf = el_best_fixed,
        eladv = el_advantage,
        elj = el_run.joins,
        ell = el_run.leaves,
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_ticks.json");
    std::fs::write(out, &json).expect("write BENCH_ticks.json");
    println!("{json}");
    println!("wrote {out}");
    assert!(
        snapshot_speedup >= 5.0,
        "aggregate snapshot must be ≥ 5× the per-frag walk, got {snapshot_speedup:.1}×"
    );
    assert!(
        migration_speedup >= 10.0,
        "incremental migration ticks must be ≥ 10× the full-recompute path, \
         got {migration_speedup:.1}×"
    );
    // The bytecode engine earns its default-engine status on the decide
    // path: the adaptable decision hook is a real script (loops, state,
    // no scalar shortcut), so this measures the dispatch-loop VM plus the
    // cached decide environment against the tree interpreter with
    // per-call environment construction.
    assert!(
        decide_speedup >= 2.0,
        "bytecode decide must be ≥ 2× the tree interpreter on the adaptable \
         (non-scalar) decision hook, got {decide_speedup:.2}×"
    );
    // The proxy-cache tier earns its keep on the flash-crowd storm: with
    // one hot directory pinning throughput to a single MDS's service
    // rate, absorbing read-class hits at the proxy must at least double
    // client-visible ops/s (in practice it is far above the gate).
    assert!(
        cache_speedup >= 2.0,
        "flash-crowd storm must be ≥ 2× faster cache-on than cache-off, \
         got {cache_speedup:.2}×"
    );
    // The elastic layer earns its keep on efficiency, not throughput:
    // the diurnal workload finishes the same ops whatever the cluster
    // does, so the bound is ops per provisioned MDS-hour — and elastic
    // must strictly beat the best fixed size in its pool.
    assert!(
        el_run.joins >= 1 && el_run.leaves >= 1,
        "elastic diurnal run never scaled (joins={}, leaves={})",
        el_run.joins,
        el_run.leaves
    );
    assert!(
        el_advantage > 1.0,
        "elastic must strictly beat every fixed size on the diurnal run, \
         got {el_advantage:.2}× the best fixed"
    );
}
