//! Property-based tests over the core data structures and invariants.
//!
//! These are hand-rolled properties (no external property-testing crate):
//! every test draws its cases from a deterministically seeded
//! [`SimRng`] stream, so a failure reproduces exactly by rerunning the
//! test — the failing case index is in the assertion message.

use mantle::mds::{select_best, DirfragSelector};
use mantle::namespace::{IndexMode, Namespace, NamespaceStats, NodeId, NsConfig, OpKind};
use mantle::policy::env::{BalancerInputs, MantleRuntime, MdsMetrics, PolicySet};
use mantle::policy::{parse_script, script_to_source, Interpreter, StepBudget, Value};
use mantle::policy::{BytecodeProgram, BytecodeVm, SlotProgram};
use mantle::sim::{DecayCounter, EventQueue, OnlineStats, SimRng, SimTime, Summary};

/// Per-test RNG: independent stream per property, fixed master seed.
fn cases_rng(label: &str) -> SimRng {
    SimRng::new(0x4D41_4E54_4C45).stream(label)
}

fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: u64, max_len: u64) -> Vec<f64> {
    let len = rng.range_inclusive(min_len, max_len) as usize;
    (0..len).map(|_| f64_in(rng, lo, hi)).collect()
}

// ---------------------------------------------------------------------------
// Simulation kernel
// ---------------------------------------------------------------------------

#[test]
fn event_queue_pops_in_nondecreasing_time() {
    let mut rng = cases_rng("event-queue");
    for case in 0..100 {
        let len = rng.range_inclusive(1, 200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.below(1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "case {case}: time went backwards");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len(), "case {case}");
    }
}

/// Model check for the event queue: a randomized interleaving of pushes,
/// pops, and pop-and-reschedule steps produces the exact `(time, payload)`
/// stream of a reference model that keeps every pending event sorted on
/// `(time, insertion order)` — including same-instant FIFO ties and
/// far-future events.
#[test]
fn event_queue_matches_a_sorted_reference_under_random_interleavings() {
    use std::collections::BTreeMap;

    let mut rng = cases_rng("scheduler-differential");
    for case in 0..48 {
        let mut q = EventQueue::new();
        // (time, insertion seq) -> payload; the first entry pops next.
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, model: &mut BTreeMap<_, _>, at, id| {
            q.schedule_at(at, id);
            model.insert((at, seq), id);
            seq += 1;
        };
        let pop_model = |model: &mut BTreeMap<(SimTime, u64), u64>| {
            model.pop_first().map(|((at, _), id)| (at, id))
        };
        let mut next_id = 0u64;
        let steps = rng.range_inclusive(1, 400);
        for step in 0..steps {
            match rng.below(4) {
                // Push a burst; coarse delays force same-instant ties.
                0 | 1 => {
                    for _ in 0..rng.range_inclusive(1, 5) {
                        let delay = match rng.below(8) {
                            0 => 0,                              // now
                            1..=4 => rng.below(500) * 10,        // sub-5ms, coarse
                            5 | 6 => rng.below(30_000_000),      // ≤ 30 s
                            _ => (1 << 37) + rng.below(1 << 20), // far future
                        };
                        let at = q.now() + SimTime::from_micros(delay);
                        push(&mut q, &mut model, at, next_id);
                        next_id += 1;
                    }
                }
                // Pop.
                2 => {
                    assert_eq!(q.pop(), pop_model(&mut model), "case {case} step {step}");
                }
                // Pop and reschedule the payload at a fresh delay (the
                // retry/heartbeat pattern).
                _ => {
                    let (a, b) = (q.pop(), pop_model(&mut model));
                    assert_eq!(a, b, "case {case} step {step}");
                    if let Some((_, id)) = a {
                        let at = q.now() + SimTime::from_micros(rng.below(5_000_000));
                        push(&mut q, &mut model, at, id);
                    }
                }
            }
            assert_eq!(q.len(), model.len(), "case {case} step {step}");
            assert_eq!(
                q.peek_time(),
                model.keys().next().map(|&(at, _)| at),
                "case {case} step {step}"
            );
        }
        // Drain fully; order must match to the last event.
        loop {
            let (a, b) = (q.pop(), pop_model(&mut model));
            assert_eq!(a, b, "case {case}: drain divergence");
            if a.is_none() {
                break;
            }
        }
    }
}

#[test]
fn online_stats_matches_naive() {
    let mut rng = cases_rng("online-stats");
    for case in 0..100 {
        let xs = vec_f64(&mut rng, -1e6, 1e6, 1, 200);
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean"
        );
        assert!(
            (s.stddev() - var.sqrt()).abs() < 1e-6 * (1.0 + var.sqrt()),
            "case {case}: stddev"
        );
    }
}

#[test]
fn summary_percentiles_are_ordered() {
    let mut rng = cases_rng("summary");
    for case in 0..100 {
        let xs = vec_f64(&mut rng, 0.0, 1e9, 1, 300);
        let s = Summary::of(&xs);
        assert!(s.min <= s.p50 + 1e-9, "case {case}");
        assert!(s.p50 <= s.p95 + 1e-9, "case {case}");
        assert!(s.p95 <= s.p99 + 1e-9, "case {case}");
        assert!(s.p99 <= s.max + 1e-9, "case {case}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
    }
}

#[test]
fn decay_counter_is_monotone_without_hits() {
    let mut rng = cases_rng("decay");
    for case in 0..200 {
        let amount = f64_in(&mut rng, 0.1, 1e6);
        let dt1 = rng.range_inclusive(1, 100_000);
        let dt2 = rng.range_inclusive(1, 100_000);
        let mut c = DecayCounter::new(SimTime::from_secs(10));
        c.hit(SimTime::ZERO, amount);
        let v1 = c.get(SimTime::from_millis(dt1));
        let v2 = c.get(SimTime::from_millis(dt1 + dt2));
        assert!(v1 <= amount + 1e-9, "case {case}");
        assert!(v2 <= v1 + 1e-9, "case {case}: decay must be monotone");
        assert!(v2 >= 0.0, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Dirfrag selectors (§3.2)
// ---------------------------------------------------------------------------

#[test]
fn selectors_return_valid_disjoint_indices() {
    let mut rng = cases_rng("selector-indices");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 0, 40);
        let target = f64_in(&mut rng, 0.0, 2_000.0);
        for sel in DirfragSelector::all() {
            let chosen = sel.select(&loads, target);
            let mut seen = std::collections::HashSet::new();
            for &i in &chosen {
                assert!(i < loads.len(), "case {case}: {sel}: index out of range");
                assert!(seen.insert(i), "case {case}: {sel}: duplicate index");
            }
        }
    }
}

#[test]
fn greedy_selectors_never_wildly_overshoot() {
    let mut rng = cases_rng("selector-overshoot");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 1, 40);
        let target = f64_in(&mut rng, 0.1, 500.0);
        // big_first/small_first stop as soon as the target is reached, so
        // the shipped load overshoots by at most one unit's load.
        for sel in [DirfragSelector::BigFirst, DirfragSelector::SmallFirst] {
            let chosen = sel.select(&loads, target);
            let shipped: f64 = chosen.iter().map(|&i| loads[i]).sum();
            let max_unit = loads.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                shipped <= target + max_unit + 1e-9,
                "case {case}: {sel} shipped {shipped} for target {target}"
            );
        }
    }
}

#[test]
fn select_best_is_no_worse_than_any_single_selector() {
    let mut rng = cases_rng("select-best");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 100.0, 1, 40);
        let target = f64_in(&mut rng, 0.1, 500.0);
        let all = DirfragSelector::all();
        let (_, _, best_shipped) = select_best(&all, &loads, target);
        let best_dist = (best_shipped - target).abs();
        for sel in all {
            let chosen = sel.select(&loads, target);
            let shipped: f64 = chosen.iter().map(|&i| loads[i]).sum();
            assert!(
                best_dist <= (shipped - target).abs() + 1e-9,
                "case {case}: select_best lost to {sel}"
            );
        }
    }
}

#[test]
fn half_selector_takes_exactly_half() {
    let mut rng = cases_rng("half");
    for case in 0..100 {
        let loads = vec_f64(&mut rng, 0.01, 10.0, 0, 32);
        let chosen = DirfragSelector::Half.select(&loads, 1.0);
        assert_eq!(chosen.len(), loads.len() / 2, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Namespace invariants
// ---------------------------------------------------------------------------

/// A random namespace operation.
#[derive(Debug, Clone)]
enum NsAction {
    Mkdir(u8),
    Create(u8),
    Unlink(u8),
    Stat(u8),
    Migrate(u8, u8),
    MigrateFrag(u8, u8),
}

fn ns_action(rng: &mut SimRng) -> NsAction {
    let d = rng.below(16) as u8;
    match rng.below(6) {
        0 => NsAction::Mkdir(d),
        1 => NsAction::Create(d),
        2 => NsAction::Unlink(d),
        3 => NsAction::Stat(d),
        4 => NsAction::Migrate(d, rng.below(4) as u8),
        _ => NsAction::MigrateFrag(d, rng.below(4) as u8),
    }
}

#[test]
fn namespace_invariants_hold_under_random_ops() {
    let mut rng = cases_rng("namespace-ops");
    for case in 0..64 {
        let n_actions = rng.range_inclusive(1, 400) as usize;
        let actions: Vec<NsAction> = (0..n_actions).map(|_| ns_action(&mut rng)).collect();
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6, // force frequent splits
            ..Default::default()
        });
        let mut created: i64 = 0;
        let mut unlinked: i64 = 0;
        let mut dirs = vec![ns.root()];
        let now = SimTime::ZERO;
        for action in actions {
            match action {
                NsAction::Mkdir(p) => {
                    let parent = dirs[p as usize % dirs.len()];
                    let name = format!("d{}", dirs.len());
                    dirs.push(ns.mkdir(parent, name));
                }
                NsAction::Create(d) => {
                    let dir = dirs[d as usize % dirs.len()];
                    ns.record_op(dir, OpKind::Create, now);
                    created += 1;
                }
                NsAction::Unlink(d) => {
                    let dir = dirs[d as usize % dirs.len()];
                    let before = ns.file_count();
                    ns.record_op(dir, OpKind::Unlink, now);
                    if ns.file_count() < before {
                        unlinked += 1;
                    }
                }
                NsAction::Stat(d) => {
                    let dir = dirs[d as usize % dirs.len()];
                    ns.record_op(dir, OpKind::Stat, now);
                }
                NsAction::Migrate(d, m) => {
                    let dir = dirs[d as usize % dirs.len()];
                    ns.migrate_subtree(dir, m as usize);
                }
                NsAction::MigrateFrag(d, m) => {
                    let dir = dirs[d as usize % dirs.len()];
                    let frag = ns.peek_frag(dir);
                    ns.migrate_frag(dir, frag, m as usize);
                }
            }
            // Invariant: every directory resolves to exactly one authority.
            for &dir in &dirs {
                let _ = ns.resolve_auth(dir);
            }
        }
        // Invariant: files are conserved across splits and migrations.
        assert_eq!(ns.file_count() as i64, created - unlinked, "case {case}");
        // Invariant: auth_frags partitions the fragment set.
        let stats = NamespaceStats::collect(&ns);
        let total_from_partition: usize = (0..4).map(|m| ns.auth_frags(m).len()).sum();
        assert_eq!(total_from_partition, stats.frags, "case {case}");
        // Invariant: every dir keeps at least one fragment.
        for &dir in &dirs {
            assert!(!ns.dir(dir).frags.is_empty(), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental index layer ≡ walk-based oracles
// ---------------------------------------------------------------------------

/// Apply one random action to a namespace at `now`, growing `dirs` as
/// mkdirs land. The same (action, dirs) stream applied to two namespaces
/// drives them through identical structural histories.
fn apply_ns_action(
    ns: &mut Namespace,
    dirs: &mut Vec<NodeId>,
    action: &NsAction,
    now: mantle::sim::SimTime,
) {
    match *action {
        NsAction::Mkdir(p) => {
            let parent = dirs[p as usize % dirs.len()];
            let name = format!("d{}", dirs.len());
            dirs.push(ns.mkdir(parent, name));
        }
        NsAction::Create(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Create, now);
        }
        NsAction::Unlink(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Unlink, now);
        }
        NsAction::Stat(d) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.record_op(dir, OpKind::Stat, now);
        }
        NsAction::Migrate(d, m) => {
            let dir = dirs[d as usize % dirs.len()];
            ns.migrate_subtree(dir, m as usize);
        }
        NsAction::MigrateFrag(d, m) => {
            let dir = dirs[d as usize % dirs.len()];
            let frag = ns.peek_frag(dir);
            ns.migrate_frag(dir, frag, m as usize);
        }
    }
}

/// (a) Euler-interval membership answers exactly the recursive walk after
/// any sequence of mkdirs, splits, and migrations.
#[test]
fn euler_membership_matches_recursive_walk() {
    let mut rng = cases_rng("euler-membership");
    for case in 0..32 {
        let n_actions = rng.range_inclusive(1, 300) as usize;
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6,
            ..Default::default()
        });
        let mut dirs = vec![ns.root()];
        for step in 0..n_actions {
            let action = ns_action(&mut rng);
            let now = mantle::sim::SimTime::from_millis(step as u64 * 20);
            apply_ns_action(&mut ns, &mut dirs, &action, now);
        }
        for &root in &dirs {
            let walk: std::collections::HashSet<NodeId> =
                ns.subtree_dirs(root, false).into_iter().collect();
            for &d in &dirs {
                assert_eq!(
                    ns.in_subtree(d, root),
                    walk.contains(&d),
                    "case {case}: membership of {d:?} under {root:?}"
                );
            }
        }
    }
}

/// (b) The per-MDS ownership indexes answer exactly what a full-namespace
/// scan answers: twin namespaces driven through an identical action
/// sequence — one incremental, one on the walk-oracle paths — agree on
/// `auth_frags`, `export_candidate_dirs`, and `resolve_auth` everywhere.
#[test]
fn indexed_ownership_matches_walk_oracle() {
    let mut rng = cases_rng("index-ownership");
    for case in 0..32 {
        let n_actions = rng.range_inclusive(1, 300) as usize;
        let mk = |mode| {
            Namespace::new(NsConfig {
                frag_split_threshold: 6,
                index_mode: mode,
                ..Default::default()
            })
        };
        let mut inc = mk(IndexMode::Incremental);
        let mut ora = mk(IndexMode::WalkOracle);
        let mut dirs_inc = vec![inc.root()];
        let mut dirs_ora = vec![ora.root()];
        for step in 0..n_actions {
            let action = ns_action(&mut rng);
            let now = mantle::sim::SimTime::from_millis(step as u64 * 20);
            apply_ns_action(&mut inc, &mut dirs_inc, &action, now);
            apply_ns_action(&mut ora, &mut dirs_ora, &action, now);
        }
        assert_eq!(dirs_inc, dirs_ora, "case {case}: structural divergence");
        for m in 0..4 {
            assert_eq!(
                inc.auth_frags(m),
                ora.auth_frags(m),
                "case {case}: auth_frags({m})"
            );
            assert_eq!(
                inc.export_candidate_dirs(m),
                ora.export_candidate_dirs(m),
                "case {case}: export_candidate_dirs({m})"
            );
        }
        for &d in &dirs_inc {
            assert_eq!(
                inc.resolve_auth(d),
                ora.resolve_auth(d),
                "case {case}: resolve_auth({d:?})"
            );
        }
    }
}

/// (c) Delta-maintained per-MDS aggregates track a from-scratch recompute
/// off per-frag truth. Migrations move heat between aggregates by sampled
/// deltas, so agreement is to floating-point tolerance, not bitwise — and
/// the incremental path must never have fallen back to a full rebuild.
#[test]
fn delta_aggregates_match_full_recompute() {
    let mut rng = cases_rng("delta-aggregates");
    for case in 0..24 {
        let n_actions = rng.range_inclusive(1, 300) as usize;
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 6,
            ..Default::default()
        });
        let mut dirs = vec![ns.root()];
        let mut now = mantle::sim::SimTime::ZERO;
        for step in 0..n_actions {
            let action = ns_action(&mut rng);
            now = mantle::sim::SimTime::from_millis(step as u64 * 20);
            apply_ns_action(&mut ns, &mut dirs, &action, now);
        }
        let (auth, rep) = ns.mds_load_samples(4, now);
        let (auth_o, rep_o) = ns.oracle_load_samples(4, now);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + b.abs());
        for m in 0..4 {
            assert!(
                close(auth[m].cephfs_metaload(), auth_o[m].cephfs_metaload()),
                "case {case}: auth aggregate of MDS {m}: {:?} vs {:?}",
                auth[m],
                auth_o[m]
            );
            assert!(
                close(rep[m].cephfs_metaload(), rep_o[m].cephfs_metaload()),
                "case {case}: replica aggregate of MDS {m}: {:?} vs {:?}",
                rep[m],
                rep_o[m]
            );
        }
        assert_eq!(ns.rebuilds(), 0, "case {case}: incremental path fell back");
    }
}

// ---------------------------------------------------------------------------
// Policy language
// ---------------------------------------------------------------------------

/// The pretty-printer is a fixpoint: print(parse(print(x))) == print(x).
#[test]
fn printer_round_trips_random_arithmetic() {
    let mut rng = cases_rng("printer");
    for case in 0..128 {
        let a = rng.below(2_000) as i64 - 1_000;
        let b = rng.range_inclusive(1, 1_000) as i64;
        let c = rng.below(2_000) as i64 - 1_000;
        let src = format!("x = {a} + {b} * {c} y = ({a} - {c}) / {b} z = x < y and y ~= {c}");
        let first = parse_script(&src).unwrap();
        let printed = script_to_source(&first);
        let reparsed = parse_script(&printed).unwrap();
        assert_eq!(printed, script_to_source(&reparsed), "case {case}");
    }
}

/// Arithmetic in the policy language matches Rust f64 arithmetic.
#[test]
fn interpreter_arithmetic_matches_rust() {
    let mut rng = cases_rng("arith");
    for case in 0..128 {
        let a = f64_in(&mut rng, -1e6, 1e6);
        let b = f64_in(&mut rng, -1e6, 1e6);
        let c = f64_in(&mut rng, 0.001, 1e3);
        let src = format!("r = ({a}) + ({b}) * ({c})");
        let script = parse_script(&src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&script).unwrap();
        let got = interp.get_global("r").as_number(0).unwrap();
        let want = a + b * c;
        assert!(
            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
            "case {case}: got {got}, want {want}"
        );
    }
}

/// Random balancer states never crash the shipped policies; targets are
/// finite and non-negative, and never point at self.
#[test]
fn shipped_policies_are_total_over_random_states() {
    let mut rng = cases_rng("shipped-total");
    for case in 0..48 {
        let loads = vec_f64(&mut rng, 0.0, 10_000.0, 1, 8);
        let cpus = vec_f64(&mut rng, 0.0, 100.0, 1, 8);
        let n = loads.len().min(cpus.len());
        let whoami = rng.below(8) as usize % n;
        let inputs = BalancerInputs {
            whoami,
            mds: (0..n)
                .map(|i| MdsMetrics {
                    auth: loads[i],
                    all: loads[i] * 1.2,
                    cpu: cpus[i],
                    mem: 25.0,
                    q: (loads[i] / 100.0).floor(),
                    req: loads[i],
                    cache_hits: loads[i] * 3.0,
                    cache_misses: loads[i] / 2.0,
                })
                .collect(),
            auth_metaload: loads[whoami],
            all_metaload: loads[whoami] * 1.2,
        };
        for policy in [
            mantle::core::policies::greedy_spill().unwrap(),
            mantle::core::policies::greedy_spill_even().unwrap(),
            mantle::core::policies::fill_and_spill(0.25).unwrap(),
            mantle::core::policies::adaptable().unwrap(),
            mantle::core::policies::cephfs_original().unwrap(),
        ] {
            let rt = MantleRuntime::new(policy);
            let out = rt.decide(&inputs).unwrap();
            assert_eq!(out.targets.len(), n, "case {case}");
            for (i, &t) in out.targets.iter().enumerate() {
                assert!(t.is_finite() && t >= 0.0, "case {case}");
                if i == whoami {
                    assert!(t == 0.0, "case {case}: policy exported to itself");
                }
            }
        }
    }
}

/// Scripts that loop forever always hit the step budget, regardless of
/// loop structure.
#[test]
fn budget_always_terminates_loops() {
    let mut rng = cases_rng("budget");
    for case in 0..32 {
        let body_len = rng.range_inclusive(1, 3) as usize;
        let body = "x = x + 1 ".repeat(body_len);
        let step = rng.range_inclusive(1, 4);
        let src = format!("x = 0 while true do {body} end y = {step}");
        let script = parse_script(&src).unwrap();
        let mut interp = Interpreter::new().with_budget(StepBudget(5_000));
        let err = interp.run(&script).unwrap_err();
        let budget_hit = matches!(err, mantle::policy::PolicyError::BudgetExhausted { .. });
        assert!(
            budget_hit,
            "case {case}: expected budget exhaustion, got {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tree-walking ≡ bytecode evaluation
// ---------------------------------------------------------------------------

/// Generate a random expression over globals `a`, `b`, `c` mixing
/// arithmetic, comparison, and logical operators. Comparisons between
/// incompatible types are possible — the property then checks that both
/// engines produce the *same* error.
fn random_expr(rng: &mut SimRng, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(4) {
            0 => format!("{}", rng.below(2_000) as i64 - 1_000),
            1 => format!("{:.3}", rng.f64() * 100.0),
            2 => ["a", "b", "c"][rng.below(3) as usize].to_string(),
            _ => format!("{}", rng.below(100)),
        };
    }
    let lhs = random_expr(rng, depth - 1);
    let rhs = random_expr(rng, depth - 1);
    let op = [
        "+", "-", "*", "/", "%", "^", "<", "<=", ">", ">=", "==", "~=", "and", "or",
    ][rng.below(14) as usize];
    match rng.below(3) {
        0 => format!("({lhs} {op} {rhs})"),
        // The space after the unary minus matters: a negative literal
        // after `-` would otherwise form `--`, a Lua comment.
        1 => format!("(- {lhs} {op} {rhs})"),
        _ => format!("({lhs} {op} not {rhs})"),
    }
}

/// Run a script through both engines (tree walker, bytecode VM) with
/// identical globals and budget; results (success value of every global,
/// steps consumed, or the error) must be identical — numbers bit-for-bit.
fn assert_engines_agree(src: &str, globals: &[(&str, f64)], case: usize) {
    let script = parse_script(src).unwrap_or_else(|e| panic!("case {case}: parse {src}: {e}"));
    let budget = StepBudget(100_000);

    let mut tree = Interpreter::new().with_budget(budget);
    for &(name, v) in globals {
        tree.set_global(name, Value::Number(v));
    }
    let tree_result = tree.run(&script);

    let prog = SlotProgram::compile(&script);
    let bc = BytecodeProgram::compile(&prog);
    let mut bvm = BytecodeVm::new(&bc, budget);
    for &(name, v) in globals {
        if let Some(slot) = prog.global_slot(name) {
            bvm.set_global(slot, Value::Number(v));
        }
    }
    let bvm_result = bvm.run(&bc);

    match (&tree_result, &bvm_result) {
        (Ok(_), Ok(_)) => {
            for (slot, name) in prog.global_names().iter().enumerate() {
                let t = tree.get_global(name);
                let v = bvm.get_global(slot);
                let same = match (&t, v) {
                    (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
                    (t, v) => t.lua_eq(v),
                };
                assert!(
                    same,
                    "case {case}: global {name} diverged on {src}: tree={t:?} bytecode={v:?}"
                );
            }
            assert_eq!(
                tree.steps_used(),
                bvm.steps_used(),
                "case {case}: tree/bytecode step counts diverged on {src}"
            );
        }
        (Err(te), Err(be)) => {
            assert_eq!(
                te, be,
                "case {case}: tree/bytecode errors diverged on {src}"
            );
        }
        _ => panic!(
            "case {case}: engines disagree on whether {src} errors: \
             tree={tree_result:?} bytecode={bvm_result:?}"
        ),
    }
}

/// Both engines agree on random expressions: same values
/// (bit-identical numbers), same step counts, same errors.
#[test]
fn all_engines_agree_on_random_expressions() {
    let mut rng = cases_rng("slots-expr");
    for case in 0..256 {
        let depth = rng.range_inclusive(1, 4) as u32;
        let expr = random_expr(&mut rng, depth);
        let src = format!("r = {expr}");
        let a = f64_in(&mut rng, -100.0, 100.0);
        let b = f64_in(&mut rng, -10.0, 10.0);
        let c = f64_in(&mut rng, 0.0, 5.0);
        assert_engines_agree(&src, &[("a", a), ("b", b), ("c", c)], case);
    }
}

/// Same property over random multi-statement scripts exercising locals,
/// scoping, conditionals, and bounded loops.
#[test]
fn all_engines_agree_on_random_scripts() {
    let mut rng = cases_rng("slots-script");
    for case in 0..128 {
        let e1 = random_expr(&mut rng, 2);
        let e2 = random_expr(&mut rng, 2);
        let e3 = random_expr(&mut rng, 1);
        let n = rng.range_inclusive(1, 8);
        let src = format!(
            "local t = {e1}\n\
             acc = 0\n\
             for i = 1, {n} do\n\
               local t = i + acc\n\
               if t > 3 then acc = acc + 1 else acc = acc + 0.5 end\n\
             end\n\
             u = {e2}\n\
             while acc > 2 do acc = acc - ({n}) end\n\
             v = {e3}"
        );
        let a = f64_in(&mut rng, -100.0, 100.0);
        let b = f64_in(&mut rng, -10.0, 10.0);
        let c = f64_in(&mut rng, 0.0, 5.0);
        assert_engines_agree(&src, &[("a", a), ("b", b), ("c", c)], case);
    }
}

// ---------------------------------------------------------------------------
// PolicySet construction is total over selector lists
// ---------------------------------------------------------------------------

#[test]
fn policy_from_combined_handles_arbitrary_howmuch() {
    let mut rng = cases_rng("howmuch");
    for _case in 0..100 {
        let n_names = rng.below(5) as usize;
        let names: Vec<String> = (0..n_names)
            .map(|_| {
                let len = rng.range_inclusive(1, 12) as usize;
                (0..len)
                    .map(|_| {
                        let alphabet = b"abcdefghijklmnopqrstuvwxyz_";
                        alphabet[rng.below(alphabet.len() as u64) as usize] as char
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        // Construction itself must not panic; unknown selector names are
        // rejected later, at balancer construction.
        let _ = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &refs);
    }
}

// ---------------------------------------------------------------------------
// Elastic membership: rendezvous re-homing and drain conservation
// ---------------------------------------------------------------------------

/// Draw a sorted, duplicate-free random member set from `0..pool`.
fn random_members(rng: &mut SimRng, pool: u64, min_len: u64) -> Vec<usize> {
    loop {
        let members: Vec<usize> = (0..pool)
            .filter(|_| rng.f64() < 0.5)
            .map(|m| m as usize)
            .collect();
        if members.len() as u64 >= min_len {
            return members;
        }
    }
}

/// Rendezvous hashing's minimal-movement law, differentially against the
/// full-recompute oracle: when a member joins, the only dirs whose owner
/// changes are exactly those the full recompute assigns to the joiner.
/// Nothing shuffles between surviving members.
#[test]
fn rendezvous_join_rehomes_only_the_minimal_set() {
    let mut rng = cases_rng("rendezvous-join");
    for case in 0..200 {
        let before = random_members(&mut rng, 16, 1);
        let joiner = loop {
            let j = rng.below(16) as usize;
            if !before.contains(&j) {
                break j;
            }
        };
        let mut after = before.clone();
        after.push(joiner);
        after.sort_unstable();

        let dirs: Vec<NodeId> = (0..rng.range_inclusive(1, 300))
            .map(|_| NodeId(rng.below(1 << 30) as u32))
            .collect();
        let mut moved = 0usize;
        for &dir in &dirs {
            let old = mantle::mds::rendezvous_owner(dir, &before);
            let new = mantle::mds::rendezvous_owner(dir, &after);
            if new != old {
                assert_eq!(
                    new, joiner,
                    "case {case}: dir {dir:?} moved {old} -> {new}, not onto the joiner {joiner}"
                );
                moved += 1;
            } else {
                assert_ne!(
                    new, joiner,
                    "case {case}: oracle assigns {dir:?} to the joiner but it did not move"
                );
            }
        }
        // The moved set is the oracle's ownership set of the joiner.
        let oracle: usize = dirs
            .iter()
            .filter(|&&d| mantle::mds::rendezvous_owner(d, &after) == joiner)
            .count();
        assert_eq!(
            moved, oracle,
            "case {case}: moved set != full-recompute oracle"
        );
    }
}

/// The leave direction: removing a member re-homes exactly that member's
/// dirs; every dir owned by a survivor keeps its owner.
#[test]
fn rendezvous_leave_moves_only_the_departed_members_dirs() {
    let mut rng = cases_rng("rendezvous-leave");
    for case in 0..200 {
        let before = random_members(&mut rng, 16, 2);
        let leaver = before[rng.below(before.len() as u64) as usize];
        let after: Vec<usize> = before.iter().copied().filter(|&m| m != leaver).collect();

        for _ in 0..rng.range_inclusive(1, 300) {
            let dir = NodeId(rng.below(1 << 30) as u32);
            let old = mantle::mds::rendezvous_owner(dir, &before);
            let new = mantle::mds::rendezvous_owner(dir, &after);
            if old == leaver {
                assert!(after.contains(&new), "case {case}: orphaned dir {dir:?}");
            } else {
                assert_eq!(old, new, "case {case}: survivor-owned dir {dir:?} moved");
            }
        }
    }
}

/// End to end, across seeds: an elastic diurnal run completes every
/// client's budget (drain-on-leave loses nothing), drops no requests,
/// and its trace satisfies every membership invariant — including
/// zero dirfrag authority on a drained MDS and no service while
/// departed.
#[test]
fn elastic_runs_conserve_ops_across_seeds() {
    use mantle::core::elastic::{client_ops, diurnal_experiment, POOL};
    use mantle::core::repro::ReproOpts;
    use mantle::core::run_experiment_traced;
    use mantle::mds::{assert_invariants, ElasticConfig, TraceLevel};

    for seed in [3, 42, 1337] {
        let elastic = ElasticConfig {
            enabled: true,
            min_mds: 1,
            max_mds: POOL,
            initial_mds: 1,
            ..ElasticConfig::on()
        };
        let spec = diurnal_experiment(ReproOpts::QUICK, POOL, elastic, 1, seed);
        let expected: u64 = match spec.workload {
            mantle::core::WorkloadSpec::Diurnal {
                clients,
                days,
                ops_per_day,
                ..
            } => clients as u64 * days * ops_per_day,
            _ => unreachable!("diurnal spec"),
        };
        let (report, trace) = run_experiment_traced(&spec, TraceLevel::Full);
        assert_invariants(trace.records());
        assert_eq!(
            client_ops(&report),
            expected,
            "seed {seed}: client budget not conserved"
        );
        let dropped: u64 = report.mds.iter().map(|m| m.dropped).sum();
        assert_eq!(dropped, 0, "seed {seed}: requests dropped");
        assert!(
            report.joins >= 1 && report.leaves >= 1,
            "seed {seed}: vacuous run — never scaled ({} joins, {} leaves)",
            report.joins,
            report.leaves
        );
        assert_eq!(report.membership_epoch, report.joins + report.leaves);
    }
}
