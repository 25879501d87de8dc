//! The Mantle balancer environment (the paper's Table 2) and the runtime
//! that drives the four policy hooks against it.
//!
//! Per Table 2, an injected script sees:
//!
//! | global | meaning |
//! |---|---|
//! | `whoami` | current MDS (1-based, Lua style) |
//! | `authmetaload` | metadata load on this MDS's authority subtrees |
//! | `allmetaload` | metadata load on all subtrees it knows about |
//! | `IRD`, `IWR` | decayed inode reads/writes of the fragment under consideration |
//! | `READDIR`, `FETCH`, `STORE` | decayed readdirs / RADOS fetches / stores |
//! | `MDSs[i]["auth"/"all"/"cpu"/"mem"/"q"/"req"/"load"]` | per-MDS heartbeat metrics |
//! | `total` | sum of `MDSs[i]["load"]` |
//! | `targets[i]` | *output*: load to send to MDS `i` |
//! | `WRstate(s)` / `RDstate()` | persist state across balancer ticks |
//! | `max(a,b)` / `min(a,b)` | numeric helpers |

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::Script;
use crate::bytecode::{BytecodeProgram, BytecodeVm};
use crate::error::{PolicyError, PolicyResult};
use crate::interp::{Interpreter, StepBudget};
use crate::parser::{parse_expression_script, parse_script, parse_when};
use crate::slots::{ScalarMdsload, ScalarMetaload, SlotProgram};
use crate::stdlib;
use crate::value::{Key, Table, Value};

/// Which evaluation engine executes the policy hooks.
///
/// The two are bit-identical — same results (`f64::to_bits`-equal), same
/// step accounting, same errors on the same lines — pinned by the
/// differential suites in `crates/policy` and `tests/`. The tree
/// interpreter is kept as the selectable oracle, so equivalence stays a
/// runtime-checkable property rather than an assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HookEngine {
    /// The original tree-walking interpreter: rebuilds the environment by
    /// name for every invocation. Slow; the reference semantics.
    Tree,
    /// The flat register bytecode dispatch loop
    /// ([`BytecodeVm`]) — the default engine.
    #[default]
    Bytecode,
}

/// Decayed popularity counters for one dirfrag/subtree — the inputs to the
/// `metaload` hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FragMetrics {
    /// Inode reads (decayed).
    pub ird: f64,
    /// Inode writes (decayed).
    pub iwr: f64,
    /// Directory listings (decayed).
    pub readdir: f64,
    /// Fetches from the object store (decayed).
    pub fetch: f64,
    /// Stores to the object store (decayed).
    pub store: f64,
}

/// One MDS's heartbeat metrics — the inputs to the `mdsload` hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MdsMetrics {
    /// Metadata load on subtrees this MDS is the authority for.
    pub auth: f64,
    /// Metadata load on all subtrees it knows about (incl. replicas).
    pub all: f64,
    /// CPU utilization, percent.
    pub cpu: f64,
    /// Memory utilization, percent.
    pub mem: f64,
    /// Requests waiting in the queue.
    pub q: f64,
    /// Request rate, req/s.
    pub req: f64,
    /// Proxy-cache hits attributed to this MDS over the last heartbeat
    /// window (0 when the cache tier is disabled).
    pub cache_hits: f64,
    /// Proxy-cache misses routed to this MDS over the last heartbeat
    /// window (0 when the cache tier is disabled).
    pub cache_misses: f64,
}

/// Everything the balancer on one MDS knows when it runs: its identity and
/// the (possibly stale) heartbeat metrics for the whole cluster.
#[derive(Debug, Clone, Default)]
pub struct BalancerInputs {
    /// This MDS's index, 0-based (converted to Lua's 1-based inside).
    pub whoami: usize,
    /// Per-MDS metrics, indexed by MDS id.
    pub mds: Vec<MdsMetrics>,
    /// Metadata load on this MDS's authority subtrees.
    pub auth_metaload: f64,
    /// Metadata load on all subtrees this MDS knows about.
    pub all_metaload: f64,
}

/// The decision a balancer run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerOutcome {
    /// `mdsload` evaluated per MDS.
    pub mds_loads: Vec<f64>,
    /// Sum of the loads.
    pub total: f64,
    /// Whether the `when` hook fired.
    pub migrate: bool,
    /// `targets[i]`: load to export to MDS `i` (0-based; 0.0 when none).
    pub targets: Vec<f64>,
}

impl BalancerOutcome {
    /// A no-migration outcome.
    pub fn idle(n: usize) -> Self {
        BalancerOutcome {
            mds_loads: vec![0.0; n],
            total: 0.0,
            migrate: false,
            targets: vec![0.0; n],
        }
    }
}

/// Persistent state for `WRstate`/`RDstate`, keyed per MDS.
///
/// The paper implements this with temporary files and names RADOS objects
/// as future work; this trait is that pluggable point.
pub trait StateStore {
    /// Save `value` for `mds`.
    fn write(&mut self, mds: usize, value: f64);
    /// Read the last saved value for `mds` (0.0 when none — the listings
    /// compare `RDstate()` numerically on first run).
    fn read(&self, mds: usize) -> f64;
    /// Drop all state.
    fn clear(&mut self);
}

/// In-memory state store (the default).
#[derive(Debug, Default, Clone)]
pub struct MemoryStateStore {
    slots: HashMap<usize, f64>,
}

impl StateStore for MemoryStateStore {
    fn write(&mut self, mds: usize, value: f64) {
        self.slots.insert(mds, value);
    }
    fn read(&self, mds: usize) -> f64 {
        self.slots.get(&mds).copied().unwrap_or(0.0)
    }
    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// File-backed state store — the paper's actual prototype mechanism
/// ("implemented using temporary files", §3.1).
#[derive(Debug)]
pub struct FileStateStore {
    dir: std::path::PathBuf,
}

impl FileStateStore {
    /// Store state under `dir` (created if missing).
    pub fn new(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileStateStore { dir })
    }

    fn path(&self, mds: usize) -> std::path::PathBuf {
        self.dir.join(format!("mantle-state-mds{mds}"))
    }
}

impl StateStore for FileStateStore {
    fn write(&mut self, mds: usize, value: f64) {
        // Balancer state is advisory; losing it degrades to the cold-start
        // behaviour, so IO errors are swallowed just like the prototype.
        let _ = std::fs::write(self.path(mds), value.to_string());
    }
    fn read(&self, mds: usize) -> f64 {
        std::fs::read_to_string(self.path(mds))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0)
    }
    fn clear(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::create_dir_all(&self.dir);
    }
}

/// How the `when`/`where` decisions are expressed.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Separate `when` (predicate) and `where` (fills `targets[]`) hooks —
    /// the paper's §3.2 API.
    Hooks {
        /// The `mds_bal_when` script; its result's truthiness decides.
        when: Script,
        /// The `mds_bal_where` script; runs only when `when` fired.
        where_: Script,
    },
    /// One combined script that conditionally fills `targets[]` — the form
    /// of Listings 1–3. Migration happens iff some target is positive.
    Combined(Script),
}

/// A full set of compiled balancer policies.
#[derive(Debug, Clone)]
pub struct PolicySet {
    /// `mds_bal_metaload`: load of one dirfrag from its counters.
    pub metaload: Script,
    /// `mds_bal_mdsload`: load of MDS `i` from `MDSs[i]` metrics.
    pub mdsload: Script,
    /// when/where.
    pub decision: Decision,
    /// `mds_bal_howmuch`: dirfrag selector names, tried in order.
    pub howmuch: Vec<String>,
    /// `mds_bal_howmany`: optional auto-scaling hook. Runs once per
    /// balancer tick (on the coordinator, not per MDS) over the same
    /// heartbeat environment as the decision hooks plus `active` (current
    /// member count), `min_mds`, and `max_mds`; returns the target MDS
    /// count. `None` means the cluster size is fixed — the pre-elastic
    /// behaviour.
    pub howmany: Option<Script>,
    /// Policy-defined dirfrag selectors: `(name, compiled script)`. The
    /// paper's §3.2 feeds the balancer "an external Lua file with a list
    /// of strategies"; this is that list, generalized so policies can ship
    /// strategies beyond the four built-ins. Referenced from `howmuch` by
    /// name.
    pub custom_selectors: Vec<(String, Script)>,
}

impl PolicySet {
    /// Compile a policy set from hook sources (the `ceph tell mds.N
    /// injectargs` form of §3.1).
    pub fn from_hooks(
        metaload: &str,
        mdsload: &str,
        when: &str,
        where_: &str,
        howmuch: &[&str],
    ) -> PolicyResult<PolicySet> {
        Ok(PolicySet {
            metaload: parse_expression_script(metaload)?,
            mdsload: parse_expression_script(mdsload)?,
            decision: Decision::Hooks {
                when: parse_when(when)?,
                where_: parse_script(where_)?,
            },
            howmuch: howmuch.iter().map(|s| s.to_string()).collect(),
            howmany: None,
            custom_selectors: Vec::new(),
        })
    }

    /// Compile a policy set whose when/where is a single combined script
    /// (the form of the paper's listings).
    pub fn from_combined(
        metaload: &str,
        mdsload: &str,
        whenwhere: &str,
        howmuch: &[&str],
    ) -> PolicyResult<PolicySet> {
        Ok(PolicySet {
            metaload: parse_expression_script(metaload)?,
            mdsload: parse_expression_script(mdsload)?,
            decision: Decision::Combined(parse_script(whenwhere)?),
            howmuch: howmuch.iter().map(|s| s.to_string()).collect(),
            howmany: None,
            custom_selectors: Vec::new(),
        })
    }

    /// Attach a `mds_bal_howmany` auto-scaling hook. The script sees the
    /// pass-2 decision environment (`whoami`, `MDSs` with `load` filled
    /// in, `total`, `authmetaload`, `allmetaload`) plus `active`,
    /// `min_mds`, and `max_mds`, and returns the target MDS count (a bare
    /// expression or a full script ending in `return`).
    pub fn with_howmany(mut self, src: &str) -> PolicyResult<Self> {
        self.howmany = Some(parse_expression_script(src)?);
        Ok(self)
    }

    /// Attach a policy-defined dirfrag selector (referenced from the
    /// `howmuch` list by `name`). The script sees `loads` (1-based array)
    /// and `target`, and returns a table of 1-based indices to ship.
    pub fn with_custom_selector(mut self, name: &str, src: &str) -> PolicyResult<Self> {
        let script = parse_script(src)?;
        self.custom_selectors.push((name.to_string(), script));
        if !self.howmuch.iter().any(|n| n == name) {
            self.howmuch.push(name.to_string());
        }
        Ok(self)
    }
}

/// Slot indices of the Table-2 environment names one compiled hook
/// references (`None` when the script never mentions the name, in which
/// case the runtime skips the write entirely).
#[derive(Debug, Default)]
struct EnvSlots {
    whoami: Option<usize>,
    i: Option<usize>,
    mdss: Option<usize>,
    total: Option<usize>,
    targets: Option<usize>,
    authmetaload: Option<usize>,
    allmetaload: Option<usize>,
    ird: Option<usize>,
    iwr: Option<usize>,
    readdir: Option<usize>,
    fetch: Option<usize>,
    store: Option<usize>,
    active: Option<usize>,
    min_mds: Option<usize>,
    max_mds: Option<usize>,
}

/// One policy hook, compiled to bytecode at [`MantleRuntime`] construction
/// and reused for every invocation: resetting the environment between runs
/// is a `clone_from_slice` over the global frame plus a handful of slot
/// writes — no interpreter construction, no name hashing, no `String`
/// allocation.
struct CompiledHook {
    bc: BytecodeProgram,
    /// Base global frame: host functions (stdlib, `WRstate`/`RDstate`) at
    /// their slots, `Nil` everywhere else.
    base: Vec<Value>,
    env: EnvSlots,
    vm: RefCell<BytecodeVm>,
}

impl CompiledHook {
    fn compile(script: &Script, host: &Interpreter, budget: StepBudget) -> CompiledHook {
        let prog = SlotProgram::compile(script);
        let bc = BytecodeProgram::compile(&prog);
        let base: Vec<Value> = prog
            .global_names()
            .iter()
            .map(|name| host.get_global(name))
            .collect();
        let slot = |name: &str| prog.global_slot(name);
        let env = EnvSlots {
            whoami: slot("whoami"),
            i: slot("i"),
            mdss: slot("MDSs"),
            total: slot("total"),
            targets: slot("targets"),
            authmetaload: slot("authmetaload"),
            allmetaload: slot("allmetaload"),
            ird: slot("IRD"),
            iwr: slot("IWR"),
            readdir: slot("READDIR"),
            fetch: slot("FETCH"),
            store: slot("STORE"),
            active: slot("active"),
            min_mds: slot("min_mds"),
            max_mds: slot("max_mds"),
        };
        let vm = RefCell::new(BytecodeVm::new(&bc, budget));
        CompiledHook { bc, base, env, vm }
    }

    /// Reset the environment to the base image, apply `setup`, execute.
    /// ([`HookEngine::Tree`] never reaches here — the runtime handles it
    /// before compiled hooks come into play.)
    fn run(&self, setup: impl FnOnce(&EnvSlots, &mut BytecodeVm)) -> PolicyResult<Value> {
        let mut vm = self.vm.borrow_mut();
        vm.reset_globals(&self.base);
        setup(&self.env, &mut vm);
        vm.run(&self.bc)
    }
}

/// Write a value to an environment slot the hook actually references.
fn set_slot(vm: &mut BytecodeVm, slot: Option<usize>, value: Value) {
    if let Some(s) = slot {
        vm.set_global(s, value);
    }
}

enum CompiledDecision {
    // Boxed to keep the enum's two variants close in size.
    Hooks {
        when: Box<CompiledHook>,
        where_: Box<CompiledHook>,
    },
    Combined(Box<CompiledHook>),
}

struct CompiledHooks {
    metaload: CompiledHook,
    mdsload: CompiledHook,
    decision: CompiledDecision,
    howmany: Option<CompiledHook>,
}

/// Executes a [`PolicySet`] against [`BalancerInputs`] — the bridge between
/// the MDS (which collects metrics and performs migrations) and the policy
/// scripts (which decide).
///
/// Hooks are resolved to slot programs and then lowered to bytecode once,
/// at construction (see [`crate::slots`] and [`crate::bytecode`]); each
/// invocation reuses the compiled program and its VM unless
/// [`Self::with_engine`] selects the tree interpreter. A `metaload` hook that
/// is a linear combination of the five counters additionally compiles to a
/// [`ScalarMetaload`] evaluated without touching any VM.
/// [`Self::with_force_slow_path`] selects the original tree-walking
/// interpreter and disables both fast paths — the engines are bit-identical
/// (the differential tests pin this), so the switches exist for benchmarks
/// and differential testing only.
pub struct MantleRuntime {
    policy: PolicySet,
    state: Rc<RefCell<dyn StateStore>>,
    budget: StepBudget,
    /// Which MDS's persistent state `WRstate`/`RDstate` touch. The compiled
    /// hooks' host functions are built once and close over this cell; the
    /// runtime sets it at each entry point instead of rebuilding closures.
    whoami_cell: Rc<Cell<usize>>,
    hooks: CompiledHooks,
    metaload_scalar: Option<ScalarMetaload>,
    mdsload_scalar: Option<ScalarMdsload>,
    /// Reusable `decide` environment (tables + interned keys), built lazily
    /// on first use. Only the default bytecode engine touches it; the tree
    /// oracle rebuilds its environment from scratch every call so it keeps
    /// measuring the unoptimized path.
    decide_env: RefCell<Option<DecideEnv>>,
    engine: HookEngine,
}

/// Interned string keys for the per-MDS metric fields, cloned (refcount
/// bump, no allocation) into table inserts on the decide fast path.
struct MdsKeys {
    auth: Key,
    all: Key,
    cpu: Key,
    mem: Key,
    q: Key,
    req: Key,
    cache_hits: Key,
    cache_misses: Key,
    load: Key,
}

impl MdsKeys {
    fn new() -> MdsKeys {
        let k = |s: &str| Key::Str(Rc::from(s));
        MdsKeys {
            auth: k("auth"),
            all: k("all"),
            cpu: k("cpu"),
            mem: k("mem"),
            q: k("q"),
            req: k("req"),
            cache_hits: k("cache_hits"),
            cache_misses: k("cache_misses"),
            load: k("load"),
        }
    }
}

/// The tables backing one `decide` call, reused across calls on the
/// bytecode engine. Building these fresh (nine `Rc<str>` allocations per
/// MDS row plus the hash inserts) used to dominate the hot path; reuse
/// keeps the allocations while [`DecideEnv::reset`] restores the exact
/// observable state a fresh build would have.
///
/// Reuse is invisible to scripts: globals are re-imaged from the base
/// environment on every hook run and `WRstate` persists only numbers, so
/// no table reference survives from one call to the next — `reset`'s
/// clear-and-refill therefore makes the reused tables indistinguishable
/// (content *and* error behaviour) from freshly allocated ones. The
/// report-level differential suite (`tests/bytecode_equivalence.rs`) pins
/// this against the tree oracle.
struct DecideEnv {
    mdss: Rc<RefCell<Table>>,
    /// Row tables, kept alongside `mdss` so refilling them skips the outer
    /// lookup. `rows[i]` is the table behind `MDSs[i+1]`.
    rows: Vec<Rc<RefCell<Table>>>,
    targets: Rc<RefCell<Table>>,
    keys: MdsKeys,
}

impl DecideEnv {
    fn new() -> DecideEnv {
        DecideEnv {
            mdss: Rc::new(RefCell::new(Table::new())),
            rows: Vec::new(),
            targets: Rc::new(RefCell::new(Table::new())),
            keys: MdsKeys::new(),
        }
    }

    /// Clear every table and refill from `inputs`, restoring exactly the
    /// state a fresh environment build would produce (the previous call's
    /// decision script may have written arbitrary keys anywhere).
    fn reset(&mut self, inputs: &BalancerInputs) {
        let n = inputs.mds.len();
        while self.rows.len() < n {
            self.rows.push(Rc::new(RefCell::new(Table::new())));
        }
        {
            let mut outer = self.mdss.borrow_mut();
            outer.clear();
            for (i, row) in self.rows.iter().take(n).enumerate() {
                outer.set(Key::Int(i as i64 + 1), Value::Table(Rc::clone(row)));
            }
        }
        for (row, m) in self.rows.iter().zip(&inputs.mds) {
            let mut row = row.borrow_mut();
            row.clear();
            row.set(self.keys.auth.clone(), Value::Number(m.auth));
            row.set(self.keys.all.clone(), Value::Number(m.all));
            row.set(self.keys.cpu.clone(), Value::Number(m.cpu));
            row.set(self.keys.mem.clone(), Value::Number(m.mem));
            row.set(self.keys.q.clone(), Value::Number(m.q));
            row.set(self.keys.req.clone(), Value::Number(m.req));
            row.set(self.keys.cache_hits.clone(), Value::Number(m.cache_hits));
            row.set(
                self.keys.cache_misses.clone(),
                Value::Number(m.cache_misses),
            );
        }
        self.targets.borrow_mut().clear();
    }
}

impl fmt::Debug for MantleRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MantleRuntime")
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl MantleRuntime {
    /// Build a runtime with an in-memory state store.
    pub fn new(policy: PolicySet) -> Self {
        Self::build(
            policy,
            Rc::new(RefCell::new(MemoryStateStore::default())),
            StepBudget::default(),
            HookEngine::default(),
        )
    }

    fn build(
        policy: PolicySet,
        state: Rc<RefCell<dyn StateStore>>,
        budget: StepBudget,
        engine: HookEngine,
    ) -> Self {
        let whoami_cell = Rc::new(Cell::new(0usize));
        let host = Self::host_env(&state, &whoami_cell, budget);
        let metaload_scalar = ScalarMetaload::extract(&policy.metaload);
        let mdsload_scalar = ScalarMdsload::extract(&policy.mdsload);
        let hooks = CompiledHooks {
            metaload: CompiledHook::compile(&policy.metaload, &host, budget),
            mdsload: CompiledHook::compile(&policy.mdsload, &host, budget),
            decision: match &policy.decision {
                Decision::Hooks { when, where_ } => CompiledDecision::Hooks {
                    when: Box::new(CompiledHook::compile(when, &host, budget)),
                    where_: Box::new(CompiledHook::compile(where_, &host, budget)),
                },
                Decision::Combined(script) => CompiledDecision::Combined(Box::new(
                    CompiledHook::compile(script, &host, budget),
                )),
            },
            howmany: policy
                .howmany
                .as_ref()
                .map(|s| CompiledHook::compile(s, &host, budget)),
        };
        MantleRuntime {
            policy,
            state,
            budget,
            whoami_cell,
            hooks,
            metaload_scalar,
            mdsload_scalar,
            decide_env: RefCell::new(None),
            engine,
        }
    }

    /// The host environment compiled hooks draw their base frame from:
    /// stdlib plus `WRstate`/`RDstate` closing over the shared whoami cell.
    fn host_env(
        state: &Rc<RefCell<dyn StateStore>>,
        whoami_cell: &Rc<Cell<usize>>,
        budget: StepBudget,
    ) -> Interpreter {
        let mut interp = Interpreter::new().with_budget(budget);
        stdlib::install(&mut interp);
        let store = Rc::clone(state);
        let cell = Rc::clone(whoami_cell);
        interp.set_global(
            "WRstate",
            Value::Native(
                "WRstate",
                Rc::new(move |_, args| {
                    let v = args
                        .first()
                        .ok_or_else(|| PolicyError::runtime(0, "WRstate expects a value"))?
                        .as_number(0)?;
                    store.borrow_mut().write(cell.get(), v);
                    Ok(Value::Nil)
                }),
            ),
        );
        let store = Rc::clone(state);
        let cell = Rc::clone(whoami_cell);
        interp.set_global(
            "RDstate",
            Value::Native(
                "RDstate",
                Rc::new(move |_, _| Ok(Value::Number(store.borrow().read(cell.get())))),
            ),
        );
        interp
    }

    /// Use a custom state store.
    pub fn with_state_store(self, store: Rc<RefCell<dyn StateStore>>) -> Self {
        Self::build(self.policy, store, self.budget, self.engine)
    }

    /// Override the step budget applied to every hook invocation.
    pub fn with_budget(self, budget: StepBudget) -> Self {
        Self::build(self.policy, self.state, budget, self.engine)
    }

    /// Select the evaluation engine (bytecode by default). All engines are
    /// bit-identical; the oracles exist so benchmarks and differential
    /// tests can compare them.
    pub fn with_engine(mut self, engine: HookEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine hooks currently run on.
    pub fn engine(&self) -> HookEngine {
        self.engine
    }

    /// Force every hook through the original tree-walking interpreter
    /// instead of the compiled (and scalar) fast paths — shorthand for
    /// [`Self::with_engine`]`(HookEngine::Tree)`; `force == false` restores
    /// the default bytecode engine.
    pub fn with_force_slow_path(self, force: bool) -> Self {
        self.with_engine(if force {
            HookEngine::Tree
        } else {
            HookEngine::default()
        })
    }

    /// The configured dirfrag selectors.
    pub fn selectors(&self) -> &[String] {
        &self.policy.howmuch
    }

    /// Access the policy set.
    pub fn policy(&self) -> &PolicySet {
        &self.policy
    }

    /// The scalar-compiled `metaload`, when the hook is a single linear
    /// combination of the five counters (true for Table 1 and every
    /// shipped policy).
    pub fn metaload_scalar(&self) -> Option<&ScalarMetaload> {
        self.metaload_scalar.as_ref()
    }

    /// The scalar-compiled `mdsload`, when the hook is a single linear
    /// combination of the current row's metric fields (true for Table 1
    /// and every shipped policy). Consumed by the bytecode engine's
    /// `decide` fast path; the tree oracle ignores it.
    pub fn mdsload_scalar(&self) -> Option<&ScalarMdsload> {
        self.mdsload_scalar.as_ref()
    }

    /// True when `metaload` distributes over sums of counter vectors
    /// (linear with no constant term), which lets callers evaluate it once
    /// per MDS on aggregated heat instead of once per dirfrag.
    ///
    /// Deliberately independent of [`Self::with_force_slow_path`]: the
    /// force switch changes the evaluation engine, never the aggregation
    /// structure, so reports stay identical between the two engines.
    pub fn metaload_is_additive(&self) -> bool {
        self.metaload_scalar
            .as_ref()
            .is_some_and(|s| s.is_homogeneous())
    }

    fn base_interp(&self, whoami: usize) -> Interpreter {
        let mut interp = Interpreter::new().with_budget(self.budget);
        stdlib::install(&mut interp);
        let store = Rc::clone(&self.state);
        let store_rd = Rc::clone(&self.state);
        interp.set_global(
            "WRstate",
            Value::Native(
                "WRstate",
                Rc::new(move |_, args| {
                    let v = args
                        .first()
                        .ok_or_else(|| PolicyError::runtime(0, "WRstate expects a value"))?
                        .as_number(0)?;
                    store.borrow_mut().write(whoami, v);
                    Ok(Value::Nil)
                }),
            ),
        );
        interp.set_global(
            "RDstate",
            Value::Native(
                "RDstate",
                Rc::new(move |_, _| Ok(Value::Number(store_rd.borrow().read(whoami)))),
            ),
        );
        interp
    }

    /// Evaluate `mds_bal_metaload` for one fragment's counters.
    ///
    /// This is the hottest hook (once per dirfrag per balancer tick). The
    /// fast paths do zero interpreter constructions and zero `String`
    /// allocations: a scalar-compiled hook is a few multiply-adds; anything
    /// else reuses the hook's compiled slot program.
    pub fn eval_metaload(&self, whoami: usize, frag: &FragMetrics) -> PolicyResult<f64> {
        if self.engine == HookEngine::Tree {
            let mut interp = self.base_interp(whoami);
            interp.set_global("IRD", Value::Number(frag.ird));
            interp.set_global("IWR", Value::Number(frag.iwr));
            interp.set_global("READDIR", Value::Number(frag.readdir));
            interp.set_global("FETCH", Value::Number(frag.fetch));
            interp.set_global("STORE", Value::Number(frag.store));
            return interp.run(&self.policy.metaload)?.as_number(0);
        }
        if let Some(scalar) = &self.metaload_scalar {
            return Ok(scalar.eval(&[frag.ird, frag.iwr, frag.readdir, frag.fetch, frag.store]));
        }
        self.whoami_cell.set(whoami);
        self.hooks
            .metaload
            .run(|env, vm| {
                set_slot(vm, env.ird, Value::Number(frag.ird));
                set_slot(vm, env.iwr, Value::Number(frag.iwr));
                set_slot(vm, env.readdir, Value::Number(frag.readdir));
                set_slot(vm, env.fetch, Value::Number(frag.fetch));
                set_slot(vm, env.store, Value::Number(frag.store));
            })?
            .as_number(0)
    }

    /// Run the full decision pipeline: `mdsload` per MDS, then
    /// `when`/`where` (or the combined script).
    pub fn decide(&self, inputs: &BalancerInputs) -> PolicyResult<BalancerOutcome> {
        let n = inputs.mds.len();
        if n == 0 {
            return Ok(BalancerOutcome::idle(0));
        }
        if self.engine == HookEngine::Bytecode {
            return self.decide_bytecode(inputs);
        }

        // Pass 1: evaluate mdsload for every MDS, building the MDSs table.
        let mdss_table = Rc::new(RefCell::new(Table::new()));
        for (i, m) in inputs.mds.iter().enumerate() {
            let t = Table::from_fields([
                ("auth", Value::Number(m.auth)),
                ("all", Value::Number(m.all)),
                ("cpu", Value::Number(m.cpu)),
                ("mem", Value::Number(m.mem)),
                ("q", Value::Number(m.q)),
                ("req", Value::Number(m.req)),
                ("cache_hits", Value::Number(m.cache_hits)),
                ("cache_misses", Value::Number(m.cache_misses)),
            ]);
            mdss_table
                .borrow_mut()
                .set_int(i as i64 + 1, Value::Table(Rc::new(RefCell::new(t))));
        }

        self.whoami_cell.set(inputs.whoami);
        let mut mds_loads = Vec::with_capacity(n);
        for i in 0..n {
            let mut interp = self.base_interp(inputs.whoami);
            interp.set_global("whoami", Value::Number(inputs.whoami as f64 + 1.0));
            interp.set_global("i", Value::Number(i as f64 + 1.0));
            interp.set_global("MDSs", Value::Table(Rc::clone(&mdss_table)));
            interp.set_global("authmetaload", Value::Number(inputs.auth_metaload));
            interp.set_global("allmetaload", Value::Number(inputs.all_metaload));
            mds_loads.push(interp.run(&self.policy.mdsload)?.as_number(0)?);
        }
        let total: f64 = mds_loads.iter().sum();
        for (i, load) in mds_loads.iter().enumerate() {
            if let Value::Table(t) = mdss_table.borrow().get_int(i as i64 + 1) {
                t.borrow_mut().set_str("load", Value::Number(*load));
            }
        }

        // Pass 2: when/where.
        let targets_table = Rc::new(RefCell::new(Table::new()));
        let setup = |interp: &mut Interpreter| {
            interp.set_global("whoami", Value::Number(inputs.whoami as f64 + 1.0));
            interp.set_global("MDSs", Value::Table(Rc::clone(&mdss_table)));
            interp.set_global("total", Value::Number(total));
            interp.set_global("authmetaload", Value::Number(inputs.auth_metaload));
            interp.set_global("allmetaload", Value::Number(inputs.all_metaload));
            interp.set_global("targets", Value::Table(Rc::clone(&targets_table)));
        };
        // The listings signal "migrate" by filling targets.
        let targets_filled = |targets_table: &Rc<RefCell<Table>>| {
            (1..=n as i64).any(|i| {
                targets_table
                    .borrow()
                    .get_int(i)
                    .as_number(0)
                    .map(|v| v > 0.0)
                    .unwrap_or(false)
            })
        };

        let migrate = match &self.policy.decision {
            Decision::Hooks { when, where_ } => {
                let mut interp = self.base_interp(inputs.whoami);
                setup(&mut interp);
                let fired = interp.run(when)?.truthy();
                if fired {
                    let mut interp = self.base_interp(inputs.whoami);
                    setup(&mut interp);
                    interp.run(where_)?;
                }
                fired
            }
            Decision::Combined(script) => {
                let mut interp = self.base_interp(inputs.whoami);
                setup(&mut interp);
                interp.run(script)?;
                targets_filled(&targets_table)
            }
        };

        let mut targets = vec![0.0; n];
        {
            let tt = targets_table.borrow();
            for (i, slot) in targets.iter_mut().enumerate() {
                if let Ok(v) = tt.get_int(i as i64 + 1).as_number(0) {
                    *slot = v.max(0.0);
                }
            }
        }
        // Migration that targets nobody is a no-op.
        let migrate = migrate && targets.iter().any(|&t| t > 0.0);

        Ok(BalancerOutcome {
            mds_loads,
            total,
            migrate,
            targets,
        })
    }

    /// [`Self::decide`] on the default bytecode engine: same pipeline, same
    /// observable behaviour, but the environment tables are reused across
    /// calls (see [`DecideEnv`]) and an `mdsload` hook that compiled to
    /// [`ScalarMdsload`] is evaluated straight off the input metrics —
    /// no VM run, no table lookups — exactly as [`Self::eval_metaload`]
    /// does for scalar `metaload` hooks.
    ///
    /// Structure deliberately mirrors the oracle path statement for
    /// statement; any divergence is caught by the tree-vs-bytecode
    /// differential suites at hook and report level.
    fn decide_bytecode(&self, inputs: &BalancerInputs) -> PolicyResult<BalancerOutcome> {
        let n = inputs.mds.len();
        let mut cached = self.decide_env.borrow_mut();
        let env = cached.get_or_insert_with(DecideEnv::new);
        env.reset(inputs);
        let mdss_table = Rc::clone(&env.mdss);
        let targets_table = Rc::clone(&env.targets);
        let load_key = env.keys.load.clone();

        // Pass 1: evaluate mdsload for every MDS.
        self.whoami_cell.set(inputs.whoami);
        let mut mds_loads = Vec::with_capacity(n);
        if let Some(scalar) = &self.mdsload_scalar {
            for m in &inputs.mds {
                mds_loads.push(scalar.eval(&[
                    m.auth,
                    m.all,
                    m.cpu,
                    m.mem,
                    m.q,
                    m.req,
                    m.cache_hits,
                    m.cache_misses,
                ]));
            }
            let total: f64 = mds_loads.iter().sum();
            // A scalar mdsload runs no script, so `MDSs` is exactly as
            // `reset` built it and `rows[i]` *is* the table behind
            // `MDSs[i+1]` — write the loads back without the outer lookup.
            for (row, load) in env.rows.iter().zip(&mds_loads) {
                row.borrow_mut().set(load_key.clone(), Value::Number(*load));
            }
            return self.decide_bytecode_pass2(inputs, mds_loads, total, mdss_table, targets_table);
        }
        for i in 0..n {
            let load = self
                .hooks
                .mdsload
                .run(|env, vm| {
                    set_slot(vm, env.whoami, Value::Number(inputs.whoami as f64 + 1.0));
                    set_slot(vm, env.i, Value::Number(i as f64 + 1.0));
                    set_slot(vm, env.mdss, Value::Table(Rc::clone(&mdss_table)));
                    set_slot(vm, env.authmetaload, Value::Number(inputs.auth_metaload));
                    set_slot(vm, env.allmetaload, Value::Number(inputs.all_metaload));
                })?
                .as_number(0)?;
            mds_loads.push(load);
        }
        let total: f64 = mds_loads.iter().sum();
        // Write back through the outer table, as the oracle path does — an
        // exotic mdsload hook could have rearranged `MDSs` and the
        // write-back must see exactly what it left behind.
        for (i, load) in mds_loads.iter().enumerate() {
            if let Value::Table(t) = mdss_table.borrow().get_int(i as i64 + 1) {
                t.borrow_mut().set(load_key.clone(), Value::Number(*load));
            }
        }
        self.decide_bytecode_pass2(inputs, mds_loads, total, mdss_table, targets_table)
    }

    /// Pass 2 of [`Self::decide_bytecode`]: run the decision hook(s) and
    /// extract the targets vector.
    fn decide_bytecode_pass2(
        &self,
        inputs: &BalancerInputs,
        mds_loads: Vec<f64>,
        total: f64,
        mdss_table: Rc<RefCell<Table>>,
        targets_table: Rc<RefCell<Table>>,
    ) -> PolicyResult<BalancerOutcome> {
        let n = inputs.mds.len();

        let slot_setup = |env: &EnvSlots, vm: &mut BytecodeVm| {
            set_slot(vm, env.whoami, Value::Number(inputs.whoami as f64 + 1.0));
            set_slot(vm, env.mdss, Value::Table(Rc::clone(&mdss_table)));
            set_slot(vm, env.total, Value::Number(total));
            set_slot(vm, env.authmetaload, Value::Number(inputs.auth_metaload));
            set_slot(vm, env.allmetaload, Value::Number(inputs.all_metaload));
            set_slot(vm, env.targets, Value::Table(Rc::clone(&targets_table)));
        };
        // `fired` for the two-hook form; `None` for the combined form,
        // where "migrate" is simply "the script filled targets" — which
        // the clamp-and-extract below already determines (a slot ends up
        // > 0 exactly when `targets_filled` on the oracle path would have
        // seen a positive number there), so the separate pre-scan the
        // oracle path performs is skipped.
        let fired = match &self.hooks.decision {
            CompiledDecision::Hooks { when, where_ } => {
                let fired = when.run(slot_setup)?.truthy();
                if fired {
                    where_.run(slot_setup)?;
                }
                Some(fired)
            }
            CompiledDecision::Combined(hook) => {
                hook.run(slot_setup)?;
                None
            }
        };

        let mut targets = vec![0.0; n];
        {
            let tt = targets_table.borrow();
            for (i, slot) in targets.iter_mut().enumerate() {
                if let Ok(v) = tt.get_int(i as i64 + 1).as_number(0) {
                    *slot = v.max(0.0);
                }
            }
        }
        // Migration that targets nobody is a no-op (and for the combined
        // form, targeting nobody means the decision never fired at all).
        let migrate = fired.unwrap_or(true) && targets.iter().any(|&t| t > 0.0);

        Ok(BalancerOutcome {
            mds_loads,
            total,
            migrate,
            targets,
        })
    }

    /// Whether this policy carries a `mds_bal_howmany` auto-scaling hook.
    pub fn has_howmany(&self) -> bool {
        self.policy.howmany.is_some()
    }

    /// Run the `mds_bal_howmany` auto-scaling hook: `mdsload` per MDS
    /// (pass 1, the same per-engine pipeline [`Self::decide`] uses), then
    /// the hook itself over the pass-2 decision environment extended with
    /// `active` (current member count), `min_mds`, and `max_mds`. Returns
    /// the raw target count (callers round and clamp), or `None` when the
    /// policy has no hook.
    ///
    /// Runs once per balancer tick on the coordinator, so the environment
    /// is built fresh on every engine — there is no hot path to protect.
    /// Both engines are bit-identical here exactly as for `decide`.
    pub fn eval_howmany(
        &self,
        inputs: &BalancerInputs,
        active: usize,
        min_mds: usize,
        max_mds: usize,
    ) -> PolicyResult<Option<f64>> {
        let Some(script) = &self.policy.howmany else {
            return Ok(None);
        };
        let n = inputs.mds.len();
        if n == 0 {
            return Ok(None);
        }
        self.whoami_cell.set(inputs.whoami);

        // Pass 1: evaluate mdsload for every MDS, building the MDSs table.
        let mdss_table = Rc::new(RefCell::new(Table::new()));
        for (i, m) in inputs.mds.iter().enumerate() {
            let t = Table::from_fields([
                ("auth", Value::Number(m.auth)),
                ("all", Value::Number(m.all)),
                ("cpu", Value::Number(m.cpu)),
                ("mem", Value::Number(m.mem)),
                ("q", Value::Number(m.q)),
                ("req", Value::Number(m.req)),
                ("cache_hits", Value::Number(m.cache_hits)),
                ("cache_misses", Value::Number(m.cache_misses)),
            ]);
            mdss_table
                .borrow_mut()
                .set_int(i as i64 + 1, Value::Table(Rc::new(RefCell::new(t))));
        }
        let mut mds_loads = Vec::with_capacity(n);
        for (i, m) in inputs.mds.iter().enumerate() {
            let load = match self.engine {
                HookEngine::Tree => {
                    let mut interp = self.base_interp(inputs.whoami);
                    interp.set_global("whoami", Value::Number(inputs.whoami as f64 + 1.0));
                    interp.set_global("i", Value::Number(i as f64 + 1.0));
                    interp.set_global("MDSs", Value::Table(Rc::clone(&mdss_table)));
                    interp.set_global("authmetaload", Value::Number(inputs.auth_metaload));
                    interp.set_global("allmetaload", Value::Number(inputs.all_metaload));
                    interp.run(&self.policy.mdsload)?.as_number(0)?
                }
                HookEngine::Bytecode if self.mdsload_scalar.is_some() => {
                    self.mdsload_scalar.as_ref().expect("checked above").eval(&[
                        m.auth,
                        m.all,
                        m.cpu,
                        m.mem,
                        m.q,
                        m.req,
                        m.cache_hits,
                        m.cache_misses,
                    ])
                }
                HookEngine::Bytecode => self
                    .hooks
                    .mdsload
                    .run(|env, vm| {
                        set_slot(vm, env.whoami, Value::Number(inputs.whoami as f64 + 1.0));
                        set_slot(vm, env.i, Value::Number(i as f64 + 1.0));
                        set_slot(vm, env.mdss, Value::Table(Rc::clone(&mdss_table)));
                        set_slot(vm, env.authmetaload, Value::Number(inputs.auth_metaload));
                        set_slot(vm, env.allmetaload, Value::Number(inputs.all_metaload));
                    })?
                    .as_number(0)?,
            };
            mds_loads.push(load);
        }
        let total: f64 = mds_loads.iter().sum();
        for (i, load) in mds_loads.iter().enumerate() {
            if let Value::Table(t) = mdss_table.borrow().get_int(i as i64 + 1) {
                t.borrow_mut().set_str("load", Value::Number(*load));
            }
        }

        // Pass 2: the howmany hook itself.
        let target = if self.engine == HookEngine::Tree {
            let mut interp = self.base_interp(inputs.whoami);
            interp.set_global("whoami", Value::Number(inputs.whoami as f64 + 1.0));
            interp.set_global("MDSs", Value::Table(Rc::clone(&mdss_table)));
            interp.set_global("total", Value::Number(total));
            interp.set_global("authmetaload", Value::Number(inputs.auth_metaload));
            interp.set_global("allmetaload", Value::Number(inputs.all_metaload));
            interp.set_global("active", Value::Number(active as f64));
            interp.set_global("min_mds", Value::Number(min_mds as f64));
            interp.set_global("max_mds", Value::Number(max_mds as f64));
            interp.run(script)?.as_number(0)?
        } else {
            self.hooks
                .howmany
                .as_ref()
                .expect("compiled alongside policy.howmany")
                .run(|env, vm| {
                    set_slot(vm, env.whoami, Value::Number(inputs.whoami as f64 + 1.0));
                    set_slot(vm, env.mdss, Value::Table(Rc::clone(&mdss_table)));
                    set_slot(vm, env.total, Value::Number(total));
                    set_slot(vm, env.authmetaload, Value::Number(inputs.auth_metaload));
                    set_slot(vm, env.allmetaload, Value::Number(inputs.all_metaload));
                    set_slot(vm, env.active, Value::Number(active as f64));
                    set_slot(vm, env.min_mds, Value::Number(min_mds as f64));
                    set_slot(vm, env.max_mds, Value::Number(max_mds as f64));
                })?
                .as_number(0)?
        };
        Ok(Some(target))
    }
}

/// Builder for one-off script environments in tests and tools.
#[derive(Debug, Default)]
pub struct EnvBuilder {
    globals: Vec<(String, f64)>,
}

impl EnvBuilder {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric global.
    pub fn number(mut self, name: &str, v: f64) -> Self {
        self.globals.push((name.to_string(), v));
        self
    }

    /// Build an interpreter with the stdlib plus the configured globals.
    pub fn build(self) -> Interpreter {
        let mut interp = Interpreter::new();
        stdlib::install(&mut interp);
        for (name, v) in self.globals {
            interp.set_global(&name, Value::Number(v));
        }
        interp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(loads: &[f64]) -> Vec<MdsMetrics> {
        loads
            .iter()
            .map(|&l| MdsMetrics {
                auth: l,
                all: l,
                ..Default::default()
            })
            .collect()
    }

    /// The original CephFS balancer policies from Table 1, expressed in
    /// the Mantle API (§3.2).
    fn cephfs_policy() -> PolicySet {
        PolicySet::from_hooks(
            "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE",
            "0.8*MDSs[i][\"auth\"] + 0.2*MDSs[i][\"all\"] + MDSs[i][\"req\"] + 10*MDSs[i][\"q\"]",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            r#"
targetLoad = total/#MDSs
for i=1,#MDSs do
  if MDSs[i]["load"] < targetLoad then
    targets[i] = targetLoad - MDSs[i]["load"]
  end
end
"#,
            &["big_first"],
        )
        .unwrap()
    }

    #[test]
    fn table1_metaload_weights() {
        let rt = MantleRuntime::new(cephfs_policy());
        let frag = FragMetrics {
            ird: 1.0,
            iwr: 2.0,
            readdir: 3.0,
            fetch: 4.0,
            store: 5.0,
        };
        // 1 + 2*2 + 3 + 2*4 + 4*5 = 36
        assert_eq!(rt.eval_metaload(0, &frag).unwrap(), 36.0);
    }

    #[test]
    fn table1_when_fires_only_above_average() {
        let rt = MantleRuntime::new(cephfs_policy());
        let hot = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 5.0]),
            ..Default::default()
        };
        let out = rt.decide(&hot).unwrap();
        assert!(out.migrate);
        // targets for the two cold MDSs, none for self.
        assert_eq!(out.targets[0], 0.0);
        assert!(out.targets[1] > 0.0 && out.targets[2] > 0.0);

        let cold = BalancerInputs {
            whoami: 1,
            mds: metrics(&[90.0, 5.0, 5.0]),
            ..Default::default()
        };
        let out = rt.decide(&cold).unwrap();
        assert!(!out.migrate, "an underloaded MDS must not export");
    }

    #[test]
    fn mdsload_weighted_sum() {
        let rt = MantleRuntime::new(cephfs_policy());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: vec![MdsMetrics {
                auth: 10.0,
                all: 20.0,
                req: 5.0,
                q: 2.0,
                ..Default::default()
            }],
            ..Default::default()
        };
        let out = rt.decide(&inputs).unwrap();
        // 0.8*10 + 0.2*20 + 5 + 10*2 = 37
        assert!((out.mds_loads[0] - 37.0).abs() < 1e-9);
    }

    #[test]
    fn listing_1_greedy_spill_runs_verbatim() {
        // Listing 1, with `end` completing the truncated `if`.
        let p = PolicySet::from_combined(
            "IWR",
            "MDSs[i][\"all\"]",
            r#"
if MDSs[whoami]["load"]>.01 and MDSs[whoami+1]["load"]<.01 then
  targets[whoami+1]=allmetaload/2
end
"#,
            &["half"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 0.0, 0.0, 0.0]),
            all_metaload: 50.0,
            ..Default::default()
        };
        let out = rt.decide(&inputs).unwrap();
        assert!(out.migrate);
        assert_eq!(out.targets[1], 25.0);
        assert_eq!(out.targets[2], 0.0);

        // Neighbour already loaded → no spill.
        let inputs2 = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 50.0, 0.0, 0.0]),
            all_metaload: 50.0,
            ..Default::default()
        };
        assert!(!rt.decide(&inputs2).unwrap().migrate);
    }

    #[test]
    fn listing_3_fill_and_spill_state_machine() {
        // Fill & Spill: spill 25% only after CPU > 48 for 3 straight ticks.
        let p = PolicySet::from_combined(
            "IWR + IRD",
            "MDSs[i][\"auth\"]",
            r#"
wait=RDstate()
go = 0
if MDSs[whoami]["cpu"]>48 then
  if wait>0 then WRstate(wait-1)
  else WRstate(2) go=1 end
else WRstate(2) end
if go==1 then
  targets[whoami+1] = MDSs[whoami]["load"]/4
end
"#,
            &["small_first"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let busy = BalancerInputs {
            whoami: 0,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 90.0,
                    ..Default::default()
                },
                MdsMetrics::default(),
            ],
            ..Default::default()
        };
        // Tick 1: cold start, wait==0 → go (the listing's semantics: an MDS
        // already past threshold with no armed counter fires and re-arms).
        assert!(rt.decide(&busy).unwrap().migrate);
        // Ticks 2-3: armed counter counts down, no migration.
        assert!(!rt.decide(&busy).unwrap().migrate);
        assert!(!rt.decide(&busy).unwrap().migrate);
        // Tick 4: counter exhausted → fires again.
        assert!(rt.decide(&busy).unwrap().migrate);
        // Idle CPU always re-arms and never fires.
        let idle = BalancerInputs {
            whoami: 0,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 10.0,
                    ..Default::default()
                },
                MdsMetrics::default(),
            ],
            ..Default::default()
        };
        assert!(!rt.decide(&idle).unwrap().migrate);
    }

    #[test]
    fn combined_decision_with_no_targets_is_idle() {
        let p = PolicySet::from_combined("IWR", "MDSs[i][\"all\"]", "x = 1", &["half"]).unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 0.0]),
                ..Default::default()
            })
            .unwrap();
        assert!(!out.migrate);
        assert_eq!(out.targets, vec![0.0, 0.0]);
    }

    #[test]
    fn when_true_but_empty_targets_is_idle() {
        let p =
            PolicySet::from_hooks("IWR", "MDSs[i][\"all\"]", "true", "x = 1", &["half"]).unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 0.0]),
                ..Default::default()
            })
            .unwrap();
        assert!(!out.migrate, "no targets → nothing to do");
    }

    #[test]
    fn negative_targets_are_clamped() {
        let p = PolicySet::from_hooks(
            "IWR",
            "MDSs[i][\"all\"]",
            "true",
            "targets[2] = -5",
            &["half"],
        )
        .unwrap();
        let rt = MantleRuntime::new(p);
        let out = rt
            .decide(&BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 5.0]),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.targets[1], 0.0);
        assert!(!out.migrate);
    }

    #[test]
    fn file_state_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("mantle-test-{}", std::process::id()));
        let mut store = FileStateStore::new(&dir).unwrap();
        assert_eq!(store.read(3), 0.0);
        store.write(3, 2.5);
        assert_eq!(store.read(3), 2.5);
        store.clear();
        assert_eq!(store.read(3), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_isolated_per_mds() {
        let mut store = MemoryStateStore::default();
        store.write(0, 1.0);
        store.write(1, 2.0);
        assert_eq!(store.read(0), 1.0);
        assert_eq!(store.read(1), 2.0);
    }

    #[test]
    fn env_builder() {
        let mut interp = EnvBuilder::new().number("x", 3.0).build();
        let script = crate::parser::parse_script("y = max(x, 2)").unwrap();
        interp.run(&script).unwrap();
        assert_eq!(interp.get_global("y").as_number(0).unwrap(), 3.0);
    }

    #[test]
    fn empty_cluster_is_idle() {
        let rt = MantleRuntime::new(cephfs_policy());
        let out = rt.decide(&BalancerInputs::default()).unwrap();
        assert!(!out.migrate);
        assert!(out.targets.is_empty());
    }

    #[test]
    fn table1_policy_is_scalar_and_additive() {
        let rt = MantleRuntime::new(cephfs_policy());
        assert!(rt.metaload_scalar().is_some());
        assert!(rt.metaload_is_additive());
        // The force switch changes the engine, never the aggregation
        // structure.
        let slow = MantleRuntime::new(cephfs_policy()).with_force_slow_path(true);
        assert!(slow.metaload_is_additive());
    }

    #[test]
    fn fast_and_slow_paths_agree_bit_for_bit() {
        let fast = MantleRuntime::new(cephfs_policy());
        let slow = MantleRuntime::new(cephfs_policy()).with_force_slow_path(true);
        let frag = FragMetrics {
            ird: 0.137,
            iwr: 12.75,
            readdir: 1.0 / 3.0,
            fetch: 9e3,
            store: 0.001,
        };
        assert_eq!(
            fast.eval_metaload(2, &frag).unwrap().to_bits(),
            slow.eval_metaload(2, &frag).unwrap().to_bits()
        );
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let a = fast.decide(&inputs).unwrap();
        let b = slow.decide(&inputs).unwrap();
        assert_eq!(a, b);
        for (x, y) in a.targets.iter().zip(&b.targets) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn both_engines_agree_on_decide() {
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let frag = FragMetrics {
            ird: 0.137,
            iwr: 12.75,
            readdir: 1.0 / 3.0,
            fetch: 9e3,
            store: 0.001,
        };
        let engines = [HookEngine::Tree, HookEngine::Bytecode];
        let runs: Vec<_> = engines
            .iter()
            .map(|&e| {
                let rt = MantleRuntime::new(cephfs_policy()).with_engine(e);
                assert_eq!(rt.engine(), e);
                (
                    rt.eval_metaload(2, &frag).unwrap(),
                    rt.decide(&inputs).unwrap(),
                )
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].0.to_bits(), w[1].0.to_bits());
            assert_eq!(w[0].1, w[1].1);
            for (x, y) in w[0].1.targets.iter().zip(&w[1].1.targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decide_env_reuse_is_invisible_across_calls() {
        // The bytecode engine reuses its decide tables; a decision script
        // that scribbles junk keys into MDSs rows, the outer table, and
        // targets must not be able to observe (or leak) anything across
        // calls. Every repeat call must match the tree oracle bit for bit.
        let p = PolicySet::from_combined(
            "IWR + IRD",
            "MDSs[i][\"all\"]",
            r#"
MDSs[1]["junk"] = 99
MDSs[4] = 7
targets["stray"] = 5
if MDSs[1]["polluted"] == nil then
  targets[2] = MDSs[1]["all"] / 2
end
MDSs[1]["polluted"] = 1
"#,
            &["half"],
        )
        .unwrap();
        let fast = MantleRuntime::new(p.clone());
        assert_eq!(fast.engine(), HookEngine::Bytecode);
        let oracle = MantleRuntime::new(p).with_engine(HookEngine::Tree);
        let inputs = |hot: f64| BalancerInputs {
            whoami: 0,
            mds: metrics(&[hot, 5.0, 35.0]),
            auth_metaload: hot,
            all_metaload: 95.0,
        };
        // Vary the cluster size mid-stream so stale rows from a larger
        // call can't bleed into a smaller one.
        for inp in [inputs(90.0), inputs(64.0), inputs(90.0)] {
            let a = fast.decide(&inp).unwrap();
            let b = oracle.decide(&inp).unwrap();
            assert_eq!(a, b);
            for (x, y) in a.targets.iter().zip(&b.targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let mut small = inputs(90.0);
        small.mds.truncate(2);
        let a = fast.decide(&small).unwrap();
        let b = oracle.decide(&small).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn non_scalar_mdsload_agrees_across_engines() {
        // An mdsload the scalar extractor refuses (function call) drives
        // the bytecode path through the compiled hook against the cached
        // MDSs table — which must still match the oracles exactly.
        let p = PolicySet::from_hooks(
            "IWR",
            "max(MDSs[i][\"all\"], 10*MDSs[i][\"q\"])",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            "targets[2] = MDSs[whoami][\"load\"]/4",
            &["half"],
        )
        .unwrap();
        assert!(MantleRuntime::new(p.clone()).mdsload_scalar().is_none());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .decide(&inputs)
                    .unwrap()
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0], w[1]);
            for (x, y) in w[0].targets.iter().zip(&w[1].targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cache_fields_reach_scripts_on_every_engine() {
        // A cache-aware mdsload: absorbed hits are nearly free, misses
        // carry full service cost. Linear, so bytecode takes the scalar
        // path; Tree reads the same values out of the MDSs table.
        let p = PolicySet::from_hooks(
            "IWR",
            "MDSs[i][\"all\"] + 0.1*MDSs[i][\"cache_hits\"] + MDSs[i][\"cache_misses\"]",
            "if MDSs[whoami][\"load\"] > total/#MDSs then",
            "targets[2] = MDSs[whoami][\"load\"]/4",
            &["half"],
        )
        .unwrap();
        assert!(MantleRuntime::new(p.clone()).mdsload_scalar().is_some());
        let mut mds = metrics(&[80.0, 10.0]);
        mds[0].cache_hits = 400.0;
        mds[0].cache_misses = 30.0;
        mds[1].cache_hits = 20.0;
        mds[1].cache_misses = 5.0;
        let inputs = BalancerInputs {
            whoami: 0,
            mds,
            auth_metaload: 80.0,
            all_metaload: 80.0,
        };
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .decide(&inputs)
                    .unwrap()
            })
            .collect();
        // 80 + 0.1*400 + 30 = 150; 10 + 0.1*20 + 5 = 17.
        assert_eq!(runs[0].mds_loads, vec![150.0, 17.0]);
        for w in runs.windows(2) {
            assert_eq!(w[0], w[1]);
            for (x, y) in w[0].targets.iter().zip(&w[1].targets) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn shipped_mdsload_hooks_take_the_scalar_path() {
        let rt = MantleRuntime::new(cephfs_policy());
        assert!(rt.mdsload_scalar().is_some(), "Table 1 mdsload is linear");
    }

    #[test]
    fn nan_in_policy_surfaces_as_error_on_every_engine() {
        // The NaN-strict stdlib lives in shared natives, so every engine
        // raises the same error for a policy that feeds 0/0 into max().
        let p = PolicySet::from_hooks(
            "max(IWR / (IRD - IRD), 1)",
            "MDSs[i][\"all\"]",
            "true",
            "targets[2] = 1",
            &["half"],
        )
        .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let err = rt.eval_metaload(0, &FragMetrics::default()).unwrap_err();
            assert!(err.to_string().contains("NaN argument"), "{e:?}: {err}");
        }
    }

    #[test]
    fn howmany_absent_yields_none() {
        let rt = MantleRuntime::new(cephfs_policy());
        assert!(!rt.has_howmany());
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[50.0, 5.0]),
            ..Default::default()
        };
        assert_eq!(rt.eval_howmany(&inputs, 2, 1, 2).unwrap(), None);
    }

    #[test]
    fn howmany_agrees_across_both_engines() {
        // A hook using the full environment: scale so per-member load sits
        // near 25, clamped by the runtime's callers.
        let p = cephfs_policy()
            .with_howmany("max(min_mds, min(max_mds, total / 25))")
            .unwrap();
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 5.0, 35.0]),
            auth_metaload: 90.0,
            all_metaload: 95.0,
        };
        let runs: Vec<f64> = [HookEngine::Tree, HookEngine::Bytecode]
            .iter()
            .map(|&e| {
                MantleRuntime::new(p.clone())
                    .with_engine(e)
                    .eval_howmany(&inputs, 2, 1, 3)
                    .unwrap()
                    .expect("hook present")
            })
            .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].to_bits(), w[1].to_bits());
        }
        // Table-1 mdsload of metrics(&[l..]): 0.8l + 0.2l = l, so total is
        // 130 and the hook asks for 130/25 = 5.2 pre-clamp.
        assert!(
            (runs[0] - 3.0).abs() < 1e-12,
            "clamped to max_mds: {}",
            runs[0]
        );
    }

    #[test]
    fn howmany_sees_active_and_bounds() {
        let p = cephfs_policy()
            .with_howmany("active + min_mds + max_mds")
            .unwrap();
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            let inputs = BalancerInputs {
                whoami: 0,
                mds: metrics(&[10.0, 10.0]),
                ..Default::default()
            };
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(7.0));
        }
    }

    #[test]
    fn stateful_howmany_evolves_identically_across_engines() {
        // Hysteresis via WRstate/RDstate: grow only after two consecutive
        // over-threshold ticks.
        let p = cephfs_policy()
            .with_howmany(
                r#"
hot = 0
if total / active > 40 then hot = RDstate() + 1 end
WRstate(hot)
if hot >= 2 then return min(active + 1, max_mds) end
return active
"#,
            )
            .unwrap();
        let inputs = BalancerInputs {
            whoami: 0,
            mds: metrics(&[90.0, 60.0]),
            ..Default::default()
        };
        for e in [HookEngine::Tree, HookEngine::Bytecode] {
            let rt = MantleRuntime::new(p.clone()).with_engine(e);
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(2.0));
            assert_eq!(rt.eval_howmany(&inputs, 2, 1, 4).unwrap(), Some(3.0));
        }
    }

    #[test]
    fn stateful_policy_agrees_across_paths_and_mds_identities() {
        // Fill & Spill exercises WRstate/RDstate through the shared whoami
        // cell; the state machine must evolve identically on both engines
        // and stay isolated per MDS.
        let mk = |force: bool| {
            let p = PolicySet::from_combined(
                "IWR + IRD",
                "MDSs[i][\"auth\"]",
                r#"
wait=RDstate()
go = 0
if MDSs[whoami]["cpu"]>48 then
  if wait>0 then WRstate(wait-1)
  else WRstate(2) go=1 end
else WRstate(2) end
if go==1 then
  targets[whoami+1] = MDSs[whoami]["load"]/4
end
"#,
                &["small_first"],
            )
            .unwrap();
            MantleRuntime::new(p).with_force_slow_path(force)
        };
        let fast = mk(false);
        let slow = mk(true);
        let busy = |whoami: usize| BalancerInputs {
            whoami,
            mds: vec![
                MdsMetrics {
                    auth: 100.0,
                    cpu: 90.0,
                    ..Default::default()
                };
                3
            ],
            ..Default::default()
        };
        // Interleave two MDS identities; their counters are independent.
        for tick in 0..8 {
            for whoami in 0..2 {
                let a = fast.decide(&busy(whoami)).unwrap();
                let b = slow.decide(&busy(whoami)).unwrap();
                assert_eq!(a, b, "tick {tick} whoami {whoami}");
                assert_eq!(a.migrate, tick % 3 == 0, "tick {tick} whoami {whoami}");
            }
        }
    }
}
