//! Campaigns: workload × seed grids over one engine.
//!
//! A [`Campaign`] runs a full grid of tuning runs — every configured
//! workload at every configured seed — with deterministic parallel
//! execution and shared rule-set accumulation, aggregating into a
//! [`CampaignReport`]. This is the substrate behind the paper's Fig. 6/7
//! rule-set sweeps and the multi-workload serving path on the roadmap.
//!
//! ## Determinism
//!
//! Per-cell seeds are derived with [`simcore::rng::combine`] from the
//! grid seed, the workload name and the cell's position, so a cell's
//! noise stream is independent of which thread executes it (the fully
//! derived seed bypasses the engine's `SeedPolicy`). Rule sharing
//! is round-structured (see [`RuleMode`]): within a round every cell reads
//! the *same* starting snapshot, and learned rules merge in grid order
//! after the round. [`Campaign::run`] (parallel) and
//! [`Campaign::run_serial`] therefore produce identical reports — asserted
//! in `tests/integration_campaign.rs`, which also pins both to a warm grid
//! rebuilt by hand from stand-alone sessions.
//!
//! ## Rule storage
//!
//! Accumulated rules live in a [`ShardedRuleStore`] keyed by context-tag
//! signature and the engine's topology bucket. Round snapshots are O(1)
//! [`RuleSnapshot`]s — warm rounds no longer clone the whole rule set per
//! cell, so campaign cost stays flat as the store grows (see the
//! `rule_store` bench). Round merges touch only the shards the learned
//! rules land in, and merge order stays the grid order, keeping
//! serial == parallel.
//!
//! ## Scheduling
//!
//! Within a parallel round, workers claim cells in the order planned by
//! [`crate::sched`] — longest-processing-time-first over a cost model
//! seeded from each workload's `CostHint` and refined with measured wall
//! times after every round ([`Schedule::Adaptive`], the default).
//! Reordering never changes results (cells are independent and results
//! collect into grid-indexed slots), it only stops a late-claimed heavy
//! cell from stranding the round at its barrier; the
//! [`CampaignReport::sched_stats`] telemetry records makespans and worker
//! utilization so the effect is measurable (`perfsuite` / the
//! `campaign_sched` bench).
//!
//! ## Non-blocking backends
//!
//! When the engine injects backend latency
//! (`StellarBuilder::backend_latency` / CLI `--backend-latency`), cells
//! suspend while their agent turn's provider call is in flight instead of
//! pinning their worker. Workers multiplex: a worker whose open cells are
//! all suspended claims the next planned cell and keeps polling the
//! suspended set, so several backend calls overlap in flight on one
//! thread ([`crate::sched::RoundSched::max_in_flight`] records the peak).
//! A serial run ([`Campaign::run_serial`]) is the same worker loop with
//! one worker and grid order, under one serial rule: the worker does not
//! claim a new cell while its open cell is suspended, so at most one call
//! is in flight. Suspension changes only *when* cells execute — reports stay
//! bit-identical to the blocking path, property-tested in
//! `tests/integration_nonblocking.rs`.
//!
//! ## Failure domains
//!
//! Every cell is its own failure domain. A session that ends with a
//! structured [`SessionError`] (injected backend failures past the retry
//! budget — see [`crate::RetryPolicy`]) or *panics* mid-step is published
//! as [`CellOutcome::Failed`]; sibling cells keep running, the failed
//! cell's rules never merge, and the report accounts for it separately
//! ([`CampaignReport::failed_cells`]). Failure verdicts are drawn per
//! submission index ([`llmsim::SimFailures`]), so serial, parallel and
//! latency-injected runs of a failure-injected grid still produce
//! byte-identical canonical streams (`tests/integration_failures.rs`).
//!
//! ## Crash-consistent resume
//!
//! An interrupted campaign leaves a partial run record behind. Configure
//! an identical campaign and call [`Campaign::resume_from`] with the
//! parsed record: every *complete* round is replayed from the recorded
//! cells (re-notified and re-merged in grid order, never re-executed) and
//! only the remainder runs live. Because recorded runs round-trip
//! exactly, the resumed record and report are bit-identical to an
//! uninterrupted run's.
//!
//! ## Observation
//!
//! [`Campaign::observe`] attaches [`CampaignObserver`]s: canonical
//! lifecycle callbacks (campaign/round start, cells finished or failed in
//! grid order, rule merges, campaign end) fire deterministically on the
//! coordinating thread, while telemetry callbacks (claims, suspensions,
//! publishes, planned orders, round stats) stream live from the worker
//! loop. [`crate::obs`] builds the JSONL run record and the live
//! progress board on this seam; observation never changes the report
//! (pinned by `tests/integration_obs.rs`).

use crate::engine::{Stellar, TuningRun};
use crate::sched::{self, CostModel, RoundSched, SchedStats, Schedule};
use crate::session::{SessionError, SessionEvent, SessionOutcome, TuningSession};
use agents::{RuleSet, RuleSnapshot, ShardedRuleStore};
use llmsim::{CallHandle, UsageMeter};
use serde::{Deserialize, Serialize};
use simcore::rng::{combine, stable_hash};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use workloads::{Workload, WorkloadKind};

/// How cells share the accumulating rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleMode {
    /// Every cell starts from the campaign's starting rules; runs learn
    /// independently (the Fig. 5/7 "without rules" regime).
    #[default]
    Cold,
    /// Rounds accumulate: all cells of seed-round *r* start from the rules
    /// accumulated through round *r − 1*, and their learned rules merge —
    /// in grid order — before round *r + 1* (the Fig. 6 regime, made
    /// deterministic under parallelism).
    Warm,
}

impl RuleMode {
    /// The CLI/JSON name (`cold`, `warm`).
    pub fn label(self) -> &'static str {
        match self {
            RuleMode::Cold => "cold",
            RuleMode::Warm => "warm",
        }
    }
}

/// The static shape of a campaign, announced to
/// [`CampaignObserver::on_campaign_start`] before any cell executes.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Workload labels, in grid order.
    pub workloads: Vec<String>,
    /// Grid seeds, in round order.
    pub seeds: Vec<u64>,
    /// Rule-sharing mode.
    pub mode: RuleMode,
    /// Workers the rounds will run over (1 for serial runs). Execution
    /// detail: part of the *telemetry* surface, never of the canonical
    /// record — serial and parallel runs of the same grid must produce
    /// byte-identical canonical streams.
    pub workers: usize,
    /// Ordering policy the rounds will plan with. Telemetry, like
    /// `workers`.
    pub schedule: Schedule,
    /// Label of the engine's [`pfs::FaultPlan`], when the campaign runs
    /// under one (`None` on a pristine cluster). Unlike `workers` and
    /// `schedule` this is *canonical*: faults change simulated results,
    /// so records of faulted and pristine campaigns must not compare
    /// equal.
    pub faults: Option<String>,
    /// Label of the engine's [`llmsim::FailureInjection`], when backend
    /// failures are injected (`None` on a perfect backend). Canonical,
    /// like `faults`: injection changes which cells fail.
    pub injection: Option<String>,
    /// Label of the engine's [`crate::RetryPolicy`], present exactly when
    /// `injection` is. Canonical: the retry budget decides which injected
    /// failure schedules a session survives.
    pub retry: Option<String>,
}

/// Streaming receiver for campaign progress, the grid-level sibling of
/// [`crate::RunObserver`]. All methods have no-op defaults.
///
/// ## Canonical vs telemetry callbacks
///
/// The callbacks split into two classes, mirroring the run-record schema
/// in [`crate::obs`]:
///
/// * **canonical** — [`on_campaign_start`](CampaignObserver::on_campaign_start),
///   [`on_round_start`](CampaignObserver::on_round_start),
///   [`on_cell_finished`](CampaignObserver::on_cell_finished),
///   [`on_cell_failed`](CampaignObserver::on_cell_failed),
///   [`on_rules_merged`](CampaignObserver::on_rules_merged) and
///   [`on_campaign_end`](CampaignObserver::on_campaign_end) fire on the
///   coordinating thread in a deterministic order (cells in grid order at
///   the end of each round), regardless of thread count, execution order
///   or backend latency;
/// * **telemetry** — [`on_round_planned`](CampaignObserver::on_round_planned),
///   [`on_cell_claimed`](CampaignObserver::on_cell_claimed),
///   [`on_cell_suspended`](CampaignObserver::on_cell_suspended),
///   [`on_cell_published`](CampaignObserver::on_cell_published) and
///   [`on_round_finished`](CampaignObserver::on_round_finished) report
///   *how* the grid executed — worker claims interleave live from worker
///   threads, so their order is real but not reproducible.
///
/// Observers must be [`Send`]: telemetry callbacks arrive from the worker
/// threads that execute each round, serial runs included (serialized
/// through a lock — methods never run concurrently, but may run on
/// different threads).
pub trait CampaignObserver: Send {
    /// Canonical: the grid is about to execute.
    fn on_campaign_start(&mut self, grid: &CampaignGrid) {
        let _ = grid;
    }

    /// Canonical: a seed round is about to execute.
    fn on_round_start(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Telemetry: the execution order planned for this round
    /// (grid indices, first-claimed first).
    fn on_round_planned(&mut self, seed: u64, schedule: Schedule, order: &[usize]) {
        let _ = (seed, schedule, order);
    }

    /// Telemetry: `worker` claimed the cell at `grid_idx`.
    fn on_cell_claimed(&mut self, worker: usize, seed: u64, grid_idx: usize, workload: &str) {
        let _ = (worker, seed, grid_idx, workload);
    }

    /// Telemetry: the cell at `grid_idx` suspended on an in-flight
    /// backend call (fires once per suspension, not once per poll).
    fn on_cell_suspended(&mut self, worker: usize, seed: u64, grid_idx: usize, call: CallHandle) {
        let _ = (worker, seed, grid_idx, call);
    }

    /// Telemetry: `worker` finished the cell at `grid_idx` after
    /// `busy_secs` of active stepping time.
    fn on_cell_published(&mut self, worker: usize, seed: u64, grid_idx: usize, busy_secs: f64) {
        let _ = (worker, seed, grid_idx, busy_secs);
    }

    /// Canonical: one finished cell, delivered in grid order after the
    /// round's barrier (not in completion order). Only fires for cells
    /// whose outcome is [`CellOutcome::Finished`]; failed cells go to
    /// [`on_cell_failed`](CampaignObserver::on_cell_failed) instead.
    fn on_cell_finished(&mut self, cell: &CampaignCell) {
        let _ = cell;
    }

    /// Canonical: one *failed* cell (structured session error or caught
    /// panic), delivered in grid order after the round's barrier exactly
    /// like [`on_cell_finished`](CampaignObserver::on_cell_finished).
    /// Failed cells merge no rules, so no
    /// [`on_rules_merged`](CampaignObserver::on_rules_merged) follows.
    fn on_cell_failed(&mut self, cell: &CampaignCell) {
        let _ = cell;
    }

    /// Canonical: one cell's learned rules merged into the store (grid
    /// order). `added` counts the rules the cell learned, `total` the
    /// store size after the merge.
    fn on_rules_merged(&mut self, workload: &str, added: usize, total: usize) {
        let _ = (workload, added, total);
    }

    /// Telemetry: the round's measured scheduling record.
    fn on_round_finished(&mut self, round: &RoundSched) {
        let _ = round;
    }

    /// Canonical: the campaign's aggregated report.
    fn on_campaign_end(&mut self, report: &CampaignReport) {
        let _ = report;
    }
}

/// Why a campaign cell produced no run. Structured and serializable: it
/// feeds the canonical stream ([`crate::obs::ObsEvent::CellFailed`]) and
/// the report's failed-cell accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellFailure {
    /// The cell's session ended with a structured error (fatal backend
    /// call or exhausted retry budget).
    Session(SessionError),
    /// The cell's session panicked while stepping; the payload message.
    /// The panic was caught at the cell boundary — sibling cells and the
    /// campaign itself keep running.
    Panic(String),
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Session(error) => write!(f, "{error}"),
            CellFailure::Panic(message) => write!(f, "panic: {message}"),
        }
    }
}

/// How a grid cell concluded: the finished run, or the failure that
/// isolated it.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell's session drained to a finished run.
    Finished(TuningRun),
    /// The cell failed; siblings were unaffected.
    Failed(CellFailure),
}

impl From<SessionOutcome> for CellOutcome {
    fn from(outcome: SessionOutcome) -> Self {
        match outcome {
            SessionOutcome::Finished(run) => CellOutcome::Finished(run),
            SessionOutcome::Failed(error) => CellOutcome::Failed(CellFailure::Session(error)),
        }
    }
}

/// One executed grid cell.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Workload label.
    pub workload: String,
    /// The grid seed this cell ran under.
    pub seed: u64,
    /// The derived per-cell seed actually passed to the session.
    pub cell_seed: u64,
    /// How the cell concluded.
    pub outcome: CellOutcome,
}

impl CampaignCell {
    /// The finished run, `None` when the cell failed.
    pub fn run(&self) -> Option<&TuningRun> {
        match &self.outcome {
            CellOutcome::Finished(run) => Some(run),
            CellOutcome::Failed(_) => None,
        }
    }

    /// Whether the cell failed.
    pub fn is_failed(&self) -> bool {
        matches!(self.outcome, CellOutcome::Failed(_))
    }

    /// The failure that isolated the cell, `None` when it finished.
    pub fn failure(&self) -> Option<&CellFailure> {
        match &self.outcome {
            CellOutcome::Failed(failure) => Some(failure),
            CellOutcome::Finished(_) => None,
        }
    }
}

/// Turn a caught panic payload into the deterministic message most
/// panics carry (`panic!("...")` payloads are `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// All cells, in grid order (seed-major, then workload).
    pub cells: Vec<CampaignCell>,
    /// The final rule set (starting rules plus merged learnings), as the
    /// flat serialization façade — save this with [`RuleSet::to_json`].
    pub rules: RuleSet,
    /// The same final rules in sharded form, for O(1) snapshots into
    /// follow-up campaigns and per-shard introspection
    /// ([`ShardedRuleStore::census`]; the CLI's `campaign --rule-shards`).
    pub rule_store: ShardedRuleStore,
    /// Scheduling telemetry: policy, chosen worker count (including
    /// whether the parallelism probe fell back), per-round makespans and
    /// worker utilization. Timing-derived, so unlike `cells`/`rules` it is
    /// not bit-reproducible across runs.
    pub sched_stats: SchedStats,
}

impl CampaignReport {
    /// The finished runs, in grid order (failed cells skipped).
    fn finished_runs(&self) -> impl Iterator<Item = &TuningRun> {
        self.cells.iter().filter_map(CampaignCell::run)
    }

    /// Mean best speedup across *finished* cells (0.0 when none finished).
    pub fn mean_best_speedup(&self) -> f64 {
        let finished = self.finished_runs().count();
        if finished == 0 {
            return 0.0;
        }
        self.finished_runs().map(|r| r.best_speedup).sum::<f64>() / finished as f64
    }

    /// Total configuration attempts consumed by finished cells.
    pub fn total_attempts(&self) -> usize {
        self.finished_runs().map(|r| r.attempts.len()).sum()
    }

    /// Total application executions (initial runs + attempts) of finished
    /// cells.
    pub fn total_evaluations(&self) -> usize {
        self.finished_runs().count() + self.total_attempts()
    }

    /// Summed token usage across finished cells: `(tuning, analysis)`.
    pub fn total_usage(&self) -> (UsageMeter, UsageMeter) {
        let mut tuning = UsageMeter::default();
        let mut analysis = UsageMeter::default();
        for r in self.finished_runs() {
            merge_usage(&mut tuning, &r.tuning_usage);
            merge_usage(&mut analysis, &r.analysis_usage);
        }
        (tuning, analysis)
    }

    /// Cells for one workload label, in grid order.
    pub fn cells_for(&self, workload: &str) -> Vec<&CampaignCell> {
        self.cells
            .iter()
            .filter(|c| c.workload == workload)
            .collect()
    }

    /// The best-performing finished cell, if any.
    pub fn best_cell(&self) -> Option<&CampaignCell> {
        self.cells.iter().filter(|c| !c.is_failed()).max_by(|a, b| {
            let (a, b) = (a.run().expect("finished"), b.run().expect("finished"));
            a.best_speedup.total_cmp(&b.best_speedup)
        })
    }

    /// The failed cells, in grid order (empty on a clean campaign).
    pub fn failed_cells(&self) -> Vec<&CampaignCell> {
        self.cells.iter().filter(|c| c.is_failed()).collect()
    }

    /// Fixed-width text summary (one row per cell).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&table::header());
        for c in &self.cells {
            match &c.outcome {
                CellOutcome::Finished(run) => out.push_str(&table::row(
                    &c.workload,
                    c.seed,
                    run.attempts.len(),
                    run.best_wall,
                    run.best_speedup,
                )),
                CellOutcome::Failed(_) => out.push_str(&table::failed_row(&c.workload, c.seed)),
            }
        }
        out.push_str(&table::trailer(
            self.mean_best_speedup(),
            self.cells.len(),
            self.total_evaluations(),
            self.rules.len(),
            self.rule_store.shard_count(),
            self.failed_cells().len(),
        ));
        // `sched_stats` is deliberately absent here: render() output is
        // bit-identical across reruns (a repo-wide invariant) while the
        // telemetry carries wall-clock timings — consumers print
        // `sched_stats.render()` on a diagnostic channel instead, as the
        // CLI does on stderr.
        out
    }
}

/// The campaign summary's fixed-width formats — single source of truth
/// for [`CampaignReport::render`] and the run-record replay
/// (`RunRecord::summary` promises a byte-identical table, so the format
/// strings must not fork).
pub(crate) mod table {
    /// Column header line.
    pub(crate) fn header() -> String {
        format!(
            "{:<18} {:>10} {:>8} {:>9} {:>9}\n",
            "workload", "seed", "attempts", "best", "speedup"
        )
    }

    /// One per-cell row.
    pub(crate) fn row(
        workload: &str,
        seed: u64,
        attempts: usize,
        best_wall: f64,
        best_speedup: f64,
    ) -> String {
        format!("{workload:<18} {seed:>10} {attempts:>8} {best_wall:>8.3}s {best_speedup:>8.2}x\n")
    }

    /// One failed-cell row: same column widths as [`row`], with the
    /// result columns blanked (`row` renders best as `{:>8.3}s` and
    /// speedup as `{:>8.2}x`, both 9 wide with their unit suffix).
    pub(crate) fn failed_row(workload: &str, seed: u64) -> String {
        format!(
            "{workload:<18} {seed:>10} {:>8} {:>9} {:>9}\n",
            "-", "failed", "-"
        )
    }

    /// The aggregate trailer line. The failed-cell suffix appears only
    /// when cells failed, so clean campaigns render byte-identically to
    /// the pre-failure-domain format.
    pub(crate) fn trailer(
        mean_best_speedup: f64,
        cells: usize,
        evaluations: usize,
        rules: usize,
        shards: usize,
        failed: usize,
    ) -> String {
        let mut line = format!(
            "mean speedup x{mean_best_speedup:.2} over {cells} cells ({evaluations} evaluations); {rules} rules accumulated in {shards} shards"
        );
        if failed > 0 {
            line.push_str(&format!("; {failed} cell(s) failed"));
        }
        line.push('\n');
        line
    }
}

fn merge_usage(into: &mut UsageMeter, from: &UsageMeter) {
    into.calls += from.calls;
    into.input_tokens += from.input_tokens;
    into.cached_input_tokens += from.cached_input_tokens;
    into.output_tokens += from.output_tokens;
}

/// A configurable workload × seed grid. See the module docs.
pub struct Campaign<'e> {
    engine: &'e Stellar,
    workloads: Vec<Box<dyn Workload>>,
    seeds: Vec<u64>,
    mode: RuleMode,
    base_rules: RuleSet,
    threads: usize,
    parallelism_fallback: bool,
    schedule: Schedule,
    order_override: Option<Vec<usize>>,
    /// Complete rounds reconstructed from a partial run record by
    /// [`Campaign::resume_from`]: replayed (re-notified, re-merged)
    /// instead of executed. Empty for fresh campaigns.
    replay: Vec<Vec<CampaignCell>>,
    // Behind a Mutex because telemetry callbacks fire from worker threads
    // while `run(&self)` only holds a shared borrow; the lock also keeps
    // multi-observer delivery atomic per event.
    observers: Mutex<Vec<Box<dyn CampaignObserver + 'e>>>,
}

impl<'e> Campaign<'e> {
    /// Empty campaign over `engine`: cold rules, hardware-sized thread
    /// pool, adaptive scheduling, no cells until workloads and seeds are
    /// added.
    pub fn new(engine: &'e Stellar) -> Self {
        // detlint::allow(D004): the documented default-worker-count fallback —
        // the probed value is observable only via sched_stats (see SchedStats::
        // default_workers_fallback), never via canonical events or stdout
        let detected = std::thread::available_parallelism();
        Campaign {
            engine,
            workloads: Vec::new(),
            seeds: Vec::new(),
            mode: RuleMode::Cold,
            base_rules: RuleSet::new(),
            threads: detected.as_ref().map(|n| n.get()).unwrap_or(1),
            // A failed probe used to default silently; record it so the
            // report can say why the campaign ran single-threaded.
            parallelism_fallback: detected.is_err(),
            schedule: Schedule::default(),
            order_override: None,
            replay: Vec::new(),
            observers: Mutex::new(Vec::new()),
        }
    }

    /// Attach a [`CampaignObserver`]. Multiple observers receive every
    /// event, in attachment order. Observation never changes the report —
    /// `tests/integration_obs.rs` pins observer-attached runs bit-identical
    /// to observer-free ones.
    pub fn observe(self, observer: Box<dyn CampaignObserver + 'e>) -> Self {
        self.observers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(observer);
        self
    }

    /// Deliver one event to every attached observer (no-op when none are
    /// attached — the common case pays one uncontended lock). Recovers a
    /// poisoned lock: if one worker's observer panicked (say, a run-record
    /// write hit a full disk), sibling workers must surface *that* panic
    /// through the thread join, not a misleading cascade of lock panics.
    fn notify(&self, mut f: impl FnMut(&mut dyn CampaignObserver)) {
        let mut obs = self
            .observers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for o in obs.iter_mut() {
            f(o.as_mut());
        }
    }

    /// Add one workload to the grid.
    pub fn workload(mut self, w: Box<dyn Workload>) -> Self {
        self.workloads.push(w);
        self
    }

    /// Add the named suite workloads at `scale` (1.0 = paper scale).
    pub fn kinds(mut self, kinds: &[WorkloadKind], scale: f64) -> Self {
        for kind in kinds {
            self.workloads.push(kind.spec_at(scale));
        }
        self
    }

    /// Grid seeds; each seed is one round across every workload.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Rule-sharing mode (default [`RuleMode::Cold`]).
    pub fn rule_mode(mut self, mode: RuleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Rules every cell (cold) or the first round (warm) starts from.
    pub fn starting_rules(mut self, rules: RuleSet) -> Self {
        self.base_rules = rules;
        self
    }

    /// Worker-thread cap for [`Campaign::run`] (at least 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self.parallelism_fallback = false; // explicit choice, not a fallback
        self
    }

    /// Cell-ordering policy for parallel rounds (default
    /// [`Schedule::Adaptive`]). Any policy yields the same report —
    /// scheduling only changes when cells *execute*, never what they
    /// compute (see [`crate::sched`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Pin every parallel round's execution order to a fixed permutation
    /// of the workload indices, bypassing the planner.
    ///
    /// This is the verification seam behind the claim the scheduler rests
    /// on: *any* permutation must produce a bit-identical report. The
    /// `schedule_permutations_preserve_reports` property test drives it
    /// with LPT, reversed and seeded-random orders
    /// ([`crate::sched::permutation_from_seed`]).
    ///
    /// [`Campaign::run_serial`] ignores the override — serial rounds
    /// always execute (and report) grid order.
    ///
    /// # Panics
    /// [`Campaign::run`] panics if the override is not a permutation of
    /// `0..workloads`.
    pub fn order_override(mut self, order: Vec<usize>) -> Self {
        self.order_override = Some(order);
        self
    }

    /// The derived seed for a cell, independent of execution order.
    fn cell_seed(&self, seed: u64, workload_idx: usize) -> u64 {
        combine(
            combine(seed, stable_hash(&self.workloads[workload_idx].name())),
            workload_idx as u64,
        )
    }

    /// Open (but do not run) the session for one cell. The cell seed is
    /// fully derived (workload name + grid position already mixed in), so
    /// this bypasses the engine's SeedPolicy instead of letting
    /// PerWorkload hash the name in a second time. The snapshot clone is
    /// O(1): cells share the round's shards, not copies.
    fn open_session(
        &self,
        seed: u64,
        workload_idx: usize,
        rules: &RuleSnapshot,
    ) -> TuningSession<'_> {
        TuningSession::with_run_seed(
            self.engine,
            self.workloads[workload_idx].as_ref(),
            rules.clone(),
            self.cell_seed(seed, workload_idx),
        )
    }

    /// The cell at `workload_idx` of round `seed`, concluded by `outcome`.
    /// Every cell a report holds is built here, whether a worker published
    /// it, caught it panicking, or a resume replayed it from a record.
    fn cell(&self, seed: u64, workload_idx: usize, outcome: CellOutcome) -> CampaignCell {
        CampaignCell {
            workload: self.workloads[workload_idx].name(),
            seed,
            cell_seed: self.cell_seed(seed, workload_idx),
            outcome,
        }
    }

    /// One round (all workloads at one seed) on `workers` scoped worker
    /// threads, claiming cells in `order`. Returns `(cell, busy_secs)`
    /// pairs in grid order plus the round's peak of simultaneously
    /// in-flight backend calls on any one worker: results land in
    /// per-slot `OnceLock`s — one lock-free atomic publish per cell.
    ///
    /// ## Worker multiplexing
    ///
    /// Workers *step* sessions rather than draining them. On the instant
    /// backend a session never suspends, so a worker carries one cell to
    /// completion before claiming the next. With backend latency
    /// injected, a session step can return [`SessionEvent::Waiting`]; with
    /// `claim_ahead` set, once **all** of a worker's open cells are
    /// suspended it claims the next planned cell instead of idling, then
    /// keeps polling the suspended set round-robin. K backend calls
    /// thereby overlap in flight on a single thread, while results still
    /// publish into grid-indexed slots and rule merges stay in grid order
    /// — reports are bit-identical to the blocking path (property-tested
    /// in `tests/integration_nonblocking.rs`).
    ///
    /// ## Serial rounds
    ///
    /// [`Campaign::run_serial`] runs this loop with one worker, grid order
    /// and `claim_ahead` off: the worker does not claim a new cell while
    /// its open cell is suspended, so at most one call is in flight and
    /// each cell publishes before the next is claimed.
    fn run_round(
        &self,
        seed: u64,
        rules: &RuleSnapshot,
        order: &[usize],
        workers: usize,
        claim_ahead: bool,
    ) -> (Vec<(CampaignCell, f64)>, usize) {
        let n = self.workloads.len();
        debug_assert_eq!(order.len(), n);
        let slots: Vec<OnceLock<(CampaignCell, f64)>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let in_flight_peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (slots, next, in_flight_peak) = (&slots, &next, &in_flight_peak);
                scope.spawn(move || {
                    struct Open<'s> {
                        grid_idx: usize,
                        session: TuningSession<'s>,
                        /// Time this worker actively spent stepping the
                        /// cell — NOT claim-to-publish elapsed time,
                        /// which under multiplexing would also count
                        /// suspension and sibling cells' work, feeding
                        /// the adaptive cost model makespan-sized
                        /// "measurements" for every overlapped cell.
                        busy_secs: f64,
                        waiting: bool,
                    }
                    let mut open: Vec<Open> = Vec::new();
                    let mut peak = 0usize;
                    loop {
                        // Claim when idle (nothing open) or, claiming
                        // ahead, when every open cell is suspended on an
                        // in-flight call.
                        let may_claim =
                            open.is_empty() || (claim_ahead && open.iter().all(|c| c.waiting));
                        if may_claim && next.load(Ordering::Relaxed) < n {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k < n {
                                let i = order[k];
                                open.push(Open {
                                    grid_idx: i,
                                    session: self.open_session(seed, i, rules),
                                    busy_secs: 0.0,
                                    waiting: false,
                                });
                                self.notify(|o| {
                                    o.on_cell_claimed(worker, seed, i, &self.workloads[i].name())
                                });
                            }
                        }
                        if open.is_empty() {
                            break;
                        }
                        // Advance every open cell by one step; a step on
                        // a suspended cell polls its call (one tick).
                        let mut idx = 0;
                        while idx < open.len() {
                            // detlint::allow(D001): per-cell active stepping time feeds the
                            // adaptive cost model and the strippable sched sidecar only
                            let t0 = Instant::now();
                            // The cell's failure domain: a panicking step
                            // fails *this* cell (the broken session is
                            // discarded) while siblings and other workers
                            // keep running.
                            let step = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                open[idx].session.step()
                            }));
                            open[idx].busy_secs += t0.elapsed().as_secs_f64();
                            if let Ok(event) = &step {
                                let was_waiting = open[idx].waiting;
                                open[idx].waiting = matches!(event, SessionEvent::Waiting { .. });
                                // Announce the *transition* into suspension,
                                // not every poll of an already-waiting cell.
                                if open[idx].waiting && !was_waiting {
                                    if let SessionEvent::Waiting { call } = *event {
                                        let i = open[idx].grid_idx;
                                        self.notify(|o| o.on_cell_suspended(worker, seed, i, call));
                                    }
                                }
                                // A waiting cell holds a live in-flight call
                                // until a later step completes it, so this
                                // count is the worker's simultaneous
                                // in-flight calls at this instant.
                                peak = peak.max(open.iter().filter(|c| c.waiting).count());
                                if !open[idx].session.is_ended() {
                                    idx += 1;
                                    continue;
                                }
                            }
                            // The cell ended or panicked: publish it.
                            // swap_remove puts another open cell at idx.
                            let done = open.swap_remove(idx);
                            let outcome = match step {
                                Ok(_) => CellOutcome::from(done.session.into_outcome()),
                                Err(payload) => {
                                    CellOutcome::Failed(CellFailure::Panic(panic_message(payload)))
                                }
                            };
                            let i = done.grid_idx;
                            let set = slots[i].set((self.cell(seed, i, outcome), done.busy_secs));
                            assert!(set.is_ok(), "cell {i} executed twice");
                            self.notify(|o| o.on_cell_published(worker, seed, i, done.busy_secs));
                        }
                    }
                    in_flight_peak.fetch_max(peak, Ordering::Relaxed);
                });
            }
        });
        let cells = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell executed"))
            .collect();
        (cells, in_flight_peak.into_inner())
    }

    fn execute(&self, parallel: bool) -> CampaignReport {
        assert!(
            !self.workloads.is_empty() && !self.seeds.is_empty(),
            "campaign grid is empty: add workloads and seeds"
        );
        let mut store = ShardedRuleStore::for_topology(self.engine.sim().topology().ost_count())
            .with_rules(&self.base_rules);
        // Cold rounds always start from the pre-campaign state; taking the
        // snapshot once up front shares it across every round for free.
        let base_snapshot = store.snapshot();
        let workers = if parallel {
            self.threads.min(self.workloads.len()).max(1)
        } else {
            1
        };
        let mut sched_stats = SchedStats {
            schedule: if parallel {
                self.schedule
            } else {
                Schedule::Fifo
            },
            threads_requested: self.threads,
            workers,
            parallelism_fallback: self.parallelism_fallback,
            rounds: Vec::with_capacity(self.seeds.len()),
        };
        // Cost model: parameter-derived hints up front, measured wall times
        // folded back in after every round (the adaptive feedback loop).
        // Only planned schedules consult it — serial runs, FIFO and order
        // overrides execute without paying for hints (whose default
        // derivation generates a stream set for custom workloads).
        let needs_model =
            parallel && self.order_override.is_none() && sched_stats.schedule != Schedule::Fifo;
        let mut model = needs_model.then(|| {
            let topo = self.engine.sim().topology();
            CostModel::from_hints(self.workloads.iter().map(|w| w.cost_hint(topo)))
        });
        if let Some(o) = self.order_override.as_ref().filter(|_| parallel) {
            let mut check = o.clone();
            check.sort_unstable();
            assert!(
                check.iter().copied().eq(0..self.workloads.len()),
                "order override must be a permutation of 0..{}",
                self.workloads.len()
            );
        }
        let injection = self.engine.options().failures.map(|f| f.label());
        let retry = injection
            .is_some()
            .then(|| self.engine.options().retry.label());
        let grid = CampaignGrid {
            workloads: self.workloads.iter().map(|w| w.name()).collect(),
            seeds: self.seeds.clone(),
            mode: self.mode,
            workers,
            schedule: sched_stats.schedule,
            faults: self.engine.options().faults.as_ref().map(|p| p.label()),
            injection,
            retry,
        };
        self.notify(|o| o.on_campaign_start(&grid));
        let mut cells = Vec::with_capacity(self.workloads.len() * self.seeds.len());
        for (round_idx, &seed) in self.seeds.iter().enumerate() {
            self.notify(|o| o.on_round_start(seed));
            // Crash-consistent resume: rounds reconstructed from a
            // partial record replay — same canonical notifications, same
            // grid-order merges, no execution. Telemetry (which measures
            // execution) records a zeroed round, and the cost model is
            // not fed: replayed cells cost nothing here.
            let (round, round_sched) = match self.replay.get(round_idx) {
                Some(replayed) => {
                    let zeroed = RoundSched {
                        seed,
                        order: (0..self.workloads.len()).collect(),
                        cell_secs: vec![0.0; self.workloads.len()],
                        makespan_secs: 0.0,
                        utilization: 0.0,
                        max_in_flight: 0,
                    };
                    (replayed.clone(), zeroed)
                }
                None => {
                    // O(1) either way: snapshots share shards, they don't
                    // clone rules — warm rounds no longer pay for the set
                    // they've grown.
                    let snapshot = match self.mode {
                        RuleMode::Cold => base_snapshot.clone(),
                        RuleMode::Warm => store.snapshot(),
                    };
                    // Serial rounds always execute in grid order, so that
                    // is what the telemetry must report (overrides only
                    // steer `run()`).
                    let order = match (&model, self.order_override.as_ref().filter(|_| parallel)) {
                        (_, Some(o)) => o.clone(),
                        (Some(m), None) => sched::plan(sched_stats.schedule, m),
                        (None, None) => (0..self.workloads.len()).collect(),
                    };
                    self.notify(|o| o.on_round_planned(seed, sched_stats.schedule, &order));
                    // detlint::allow(D001): round makespan is sched telemetry — rendered on
                    // stderr and recorded in the strippable sidecar, never in canonical events
                    let round_start = Instant::now();
                    let (round, max_in_flight) =
                        self.run_round(seed, &snapshot, &order, workers, parallel);
                    let makespan_secs = round_start.elapsed().as_secs_f64();
                    let (round, cell_secs): (Vec<CampaignCell>, Vec<f64>) =
                        round.into_iter().unzip();
                    if let Some(m) = model.as_mut() {
                        // Failed cells measure time-to-failure, not
                        // workload cost — don't let them skew the
                        // adaptive model.
                        for (i, &secs) in cell_secs.iter().enumerate() {
                            if !round[i].is_failed() {
                                m.observe(i, secs);
                            }
                        }
                    }
                    let busy: f64 = cell_secs.iter().sum();
                    let measured = RoundSched {
                        seed,
                        order,
                        cell_secs,
                        makespan_secs,
                        utilization: sched::round_utilization(busy, workers, makespan_secs),
                        max_in_flight,
                    };
                    (round, measured)
                }
            };
            // Merge learnings in grid order — deterministic regardless of
            // which thread finished first. Only the shards the new rules
            // land in are copied; outstanding snapshots are untouched.
            // Canonical observer events follow the same grid order, so an
            // attached emitter's semantic stream is reproducible no matter
            // which worker finished which cell first. Failed cells merge
            // nothing — a partial session must not leak half-learned
            // rules into its siblings' snapshots.
            for cell in &round {
                match &cell.outcome {
                    CellOutcome::Finished(run) => {
                        self.notify(|o| o.on_cell_finished(cell));
                        store.merge(run.new_rules.clone());
                        self.notify(|o| {
                            o.on_rules_merged(&cell.workload, run.new_rules.len(), store.len())
                        });
                    }
                    CellOutcome::Failed(_) => self.notify(|o| o.on_cell_failed(cell)),
                }
            }
            self.notify(|o| o.on_round_finished(&round_sched));
            sched_stats.rounds.push(round_sched);
            cells.extend(round);
        }
        let report = CampaignReport {
            cells,
            rules: store.to_rule_set(),
            rule_store: store,
            sched_stats,
        };
        self.notify(|o| o.on_campaign_end(&report));
        report
    }

    /// Run the grid with deterministic parallel execution.
    pub fn run(&self) -> CampaignReport {
        self.execute(true)
    }

    /// Run the grid serially (same result as [`Campaign::run`]): the
    /// worker loop with one worker in grid order, which never claims a
    /// new cell while its open cell is suspended.
    pub fn run_serial(&self) -> CampaignReport {
        self.execute(false)
    }

    /// Resume an interrupted campaign from its partial run record
    /// (crash-consistent: see the module docs).
    ///
    /// The campaign must be configured identically to the one that wrote
    /// the record — same workloads, seeds, rule mode, engine fault /
    /// failure-injection / retry configuration — which is validated
    /// against the record's `CampaignStart` event and every replayed
    /// cell's derived seed. Every *complete* round in the record (all
    /// cells present, every finished cell's rule merge recorded) is
    /// replayed instead of executed by the next [`Campaign::run`] /
    /// [`Campaign::run_serial`]; an incomplete trailing round — the one a
    /// crash tore — is discarded and recomputed live. The resulting
    /// report and re-emitted record are bit-identical to an
    /// uninterrupted run's.
    ///
    /// Use [`crate::obs::RunRecord::load_partial`] to parse a record
    /// whose final line was torn by the crash.
    pub fn resume_from(mut self, record: &crate::obs::RunRecord) -> Result<Self, String> {
        use crate::obs::ObsEvent;
        if self.workloads.is_empty() || self.seeds.is_empty() {
            return Err("campaign grid is empty: add workloads and seeds".to_string());
        }
        let names: Vec<String> = self.workloads.iter().map(|w| w.name()).collect();
        let options = self.engine.options();
        let mut events = record.events();
        let Some(ObsEvent::CampaignStart {
            workloads,
            seeds,
            mode,
            faults,
            injection,
            retry,
        }) = events.next()
        else {
            return Err("record does not begin with a CampaignStart event".to_string());
        };
        if *workloads != names {
            return Err(format!(
                "record workloads {workloads:?} do not match configured grid {names:?}"
            ));
        }
        if *seeds != self.seeds {
            return Err(format!(
                "record seeds {seeds:?} do not match configured seeds {:?}",
                self.seeds
            ));
        }
        if mode != self.mode.label() {
            return Err(format!(
                "record rule mode {mode:?} does not match configured {:?}",
                self.mode.label()
            ));
        }
        let engine_faults = options.faults.as_ref().map(|p| p.label());
        if *faults != engine_faults {
            return Err(format!(
                "record fault plan {faults:?} does not match engine {engine_faults:?}"
            ));
        }
        let engine_injection = options.failures.map(|f| f.label());
        let engine_retry = engine_injection.is_some().then(|| options.retry.label());
        if *injection != engine_injection {
            return Err(format!(
                "record failure injection {injection:?} does not match engine {engine_injection:?}"
            ));
        }
        if *retry != engine_retry {
            return Err(format!(
                "record retry policy {retry:?} does not match engine {engine_retry:?}"
            ));
        }
        let n = names.len();
        // A round is complete when all its cells were recorded *and*
        // every finished cell's rule merge made it to the record — the
        // merge is the last canonical effect a cell has, so a round with
        // all merges present replays to the exact post-round store state.
        let is_complete = |cells: &[CampaignCell], merges: usize| {
            cells.len() == n && merges == cells.iter().filter(|c| !c.is_failed()).count()
        };
        let mut rounds: Vec<Vec<CampaignCell>> = Vec::new();
        let mut pending: Option<(u64, Vec<CampaignCell>, usize)> = None;
        for event in events {
            match event {
                ObsEvent::RoundStart { seed } => {
                    if let Some((prev_seed, cells, merges)) = pending.take() {
                        if !is_complete(&cells, merges) {
                            return Err(format!(
                                "round seed {prev_seed} is incomplete but a later round follows"
                            ));
                        }
                        rounds.push(cells);
                    }
                    let expected = self.seeds.get(rounds.len()).copied();
                    if expected != Some(*seed) {
                        return Err(format!(
                            "round {} opened with seed {seed}, expected {expected:?}",
                            rounds.len()
                        ));
                    }
                    pending = Some((*seed, Vec::new(), 0));
                }
                ObsEvent::CellFinished {
                    workload,
                    seed,
                    cell_seed,
                    run,
                } => {
                    self.push_replay_cell(
                        &mut pending,
                        &names,
                        workload,
                        *seed,
                        *cell_seed,
                        CellOutcome::Finished(run.clone()),
                    )?;
                }
                ObsEvent::CellFailed {
                    workload,
                    seed,
                    cell_seed,
                    failure,
                } => {
                    self.push_replay_cell(
                        &mut pending,
                        &names,
                        workload,
                        *seed,
                        *cell_seed,
                        CellOutcome::Failed(failure.clone()),
                    )?;
                }
                ObsEvent::RuleMerge { .. } => {
                    if let Some((_, _, merges)) = pending.as_mut() {
                        *merges += 1;
                    }
                }
                // A CampaignEnd means the record is complete; resuming
                // replays everything and executes nothing, which is
                // harmless. Session-level events never appear in
                // campaign records.
                _ => {}
            }
        }
        if let Some((_, cells, merges)) = pending.take() {
            if is_complete(&cells, merges) {
                rounds.push(cells);
            }
            // else: the torn trailing round — recomputed live.
        }
        self.replay = rounds;
        Ok(self)
    }

    /// Validate and append one replayed cell to the pending round.
    #[allow(clippy::too_many_arguments)]
    fn push_replay_cell(
        &self,
        pending: &mut Option<(u64, Vec<CampaignCell>, usize)>,
        names: &[String],
        workload: &str,
        seed: u64,
        cell_seed: u64,
        outcome: CellOutcome,
    ) -> Result<(), String> {
        let Some((round_seed, cells, _)) = pending.as_mut() else {
            return Err(format!(
                "cell event for {workload} appears before any RoundStart"
            ));
        };
        if seed != *round_seed {
            return Err(format!(
                "cell {workload} carries seed {seed}, round is {round_seed}"
            ));
        }
        let idx = cells.len();
        if names.get(idx).map(String::as_str) != Some(workload) {
            return Err(format!(
                "cell {idx} of round seed {seed} is {workload}, expected {:?}",
                names.get(idx)
            ));
        }
        let expected_seed = self.cell_seed(seed, idx);
        if cell_seed != expected_seed {
            return Err(format!(
                "cell {workload} (seed {seed}) recorded cell seed {cell_seed}, derived {expected_seed}"
            ));
        }
        cells.push(self.cell(seed, idx, outcome));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StellarBuilder;

    fn engine() -> Stellar {
        StellarBuilder::new().build()
    }

    #[test]
    fn cold_campaign_aggregates_cells() {
        let e = engine();
        let report = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M, WorkloadKind::MdWorkbench8K], 0.1)
            .seeds([1])
            .run();
        assert_eq!(report.cells.len(), 2);
        assert!(report.mean_best_speedup() > 1.0);
        assert!(report.total_evaluations() > report.cells.len());
        let (tuning, analysis) = report.total_usage();
        assert!(tuning.calls > 0 && analysis.calls > 0);
        assert_eq!(report.cells_for("IOR_16M").len(), 1);
        assert!(report.best_cell().is_some());
        assert!(report.render().contains("mean speedup"));
    }

    #[test]
    fn warm_mode_passes_rules_to_later_rounds() {
        let e = engine();
        let base = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M], 0.1)
            .seeds([1, 2])
            .rule_mode(RuleMode::Warm)
            .run_serial();
        // Round 1 learned striping rules; round 2 consulted them, so its
        // first attempt must already be primed (rule-primed first guesses
        // are the Fig. 6 mechanism).
        assert!(!base.rules.is_empty(), "warm campaign accumulates rules");
        let round2 = base.cells[1].run().expect("round 2 finished");
        let first = round2.attempts.first().expect("round 2 tuned");
        assert!(
            first.speedup > 2.0,
            "rule-primed first attempt, got x{:.2}",
            first.speedup
        );
    }

    #[test]
    fn cell_seeds_are_position_independent() {
        let e = engine();
        let c = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M, WorkloadKind::Macsio16M], 0.1)
            .seeds([7]);
        assert_ne!(c.cell_seed(7, 0), c.cell_seed(7, 1));
        assert_ne!(c.cell_seed(7, 0), c.cell_seed(8, 0));
    }

    #[test]
    #[should_panic(expected = "campaign grid is empty")]
    fn empty_grid_panics() {
        let e = engine();
        let _ = Campaign::new(&e).run();
    }

    /// The satellite fix for the silent `available_parallelism` fallback:
    /// the report must say which policy ran, over how many workers, and
    /// what each round's makespan and utilization were.
    #[test]
    fn report_records_scheduling_telemetry() {
        let e = engine();
        let report = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M, WorkloadKind::MdWorkbench8K], 0.08)
            .seeds([1, 2])
            .threads(2)
            .schedule(Schedule::Lpt)
            .run();
        let s = &report.sched_stats;
        assert_eq!(s.schedule, Schedule::Lpt);
        assert_eq!(s.threads_requested, 2);
        assert_eq!(s.workers, 2);
        assert!(!s.parallelism_fallback, "explicit threads() is no fallback");
        assert_eq!(s.rounds.len(), 2);
        for r in &s.rounds {
            assert_eq!(r.cell_secs.len(), 2);
            assert!(r.makespan_secs > 0.0);
            assert!(r.cell_secs.iter().all(|&c| c > 0.0));
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
            // LPT claims the heavy MDWorkbench cell (grid index 1) first —
            // from the static hint in round 1, from measurement in round 2.
            assert_eq!(r.order[0], 1, "seed {}: order {:?}", r.seed, r.order);
        }
        assert!(s.total_busy_secs() > 0.0);
        assert!(s.render().contains("sched: lpt over 2 worker(s)"));
        // render() stays timing-free so identical grids render
        // bit-identically across reruns.
        assert!(!report.render().contains("sched:"));
    }

    /// Serial runs record telemetry too, pinned to one worker in grid
    /// order, so serial/parallel comparisons read off one report shape.
    #[test]
    fn serial_sched_stats_use_one_worker() {
        let e = engine();
        let report = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M], 0.08)
            .seeds([5])
            .run_serial();
        let s = &report.sched_stats;
        assert_eq!(s.schedule, Schedule::Fifo);
        assert_eq!(s.workers, 1);
        assert_eq!(s.rounds[0].order, vec![0]);
        assert!(s.mean_utilization() > 0.9, "serial rounds have no idle");
    }

    /// A faulted engine stamps its plan label on the canonical grid, and
    /// composite (contention) workloads run as ordinary cells.
    #[test]
    fn faulted_composite_grid_carries_scenario_metadata() {
        use std::sync::{Arc, Mutex as StdMutex};
        struct Grab(Arc<StdMutex<Option<CampaignGrid>>>);
        impl CampaignObserver for Grab {
            fn on_campaign_start(&mut self, grid: &CampaignGrid) {
                *self.0.lock().unwrap() = Some(grid.clone());
            }
        }
        let topo = crate::engine::default_topology();
        let plan = pfs::FaultPlan::seeded(topo.ost_count(), 7);
        let e = StellarBuilder::new().faults(plan.clone()).build();
        let composite = workloads::Contention::new(vec![
            WorkloadKind::Ior64K.spec_at(0.05),
            WorkloadKind::MdWorkbench2K.spec_at(0.05),
        ]);
        let grabbed = Arc::new(StdMutex::new(None));
        let report = Campaign::new(&e)
            .workload(Box::new(composite))
            .seeds([1])
            .observe(Box::new(Grab(grabbed.clone())))
            .run_serial();
        assert_eq!(report.cells.len(), 1);
        let grid = grabbed.lock().unwrap().clone().expect("grid announced");
        assert_eq!(grid.faults, Some(plan.label()));
        assert!(grid.workloads[0].contains('+'), "{:?}", grid.workloads);
        // Pristine campaigns announce no fault label.
        let pristine = engine();
        let grabbed2 = Arc::new(StdMutex::new(None));
        let _ = Campaign::new(&pristine)
            .kinds(&[WorkloadKind::Ior64K], 0.05)
            .seeds([1])
            .observe(Box::new(Grab(grabbed2.clone())))
            .run_serial();
        let grid2 = grabbed2.lock().unwrap().clone().expect("grid announced");
        assert_eq!(grid2.faults, None);
    }

    /// With every backend call failing fatally, every cell fails — but
    /// the campaign still completes, accounts for the failures, and the
    /// zero-finished report guards hold.
    #[test]
    fn failed_cells_are_accounted_not_fatal() {
        let e = StellarBuilder::new()
            .failures(llmsim::FailureInjection {
                seed: 1,
                profile: llmsim::FailureProfile {
                    transient_rate: 0.0,
                    fatal_rate: 1.0,
                },
            })
            .build();
        let report = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M, WorkloadKind::MdWorkbench8K], 0.08)
            .seeds([1])
            .run_serial();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.failed_cells().len(), 2);
        assert!(report.best_cell().is_none());
        assert_eq!(report.mean_best_speedup(), 0.0);
        assert_eq!(report.total_evaluations(), 0);
        assert!(report.rules.is_empty(), "failed cells merge no rules");
        for cell in &report.cells {
            assert!(matches!(
                cell.failure(),
                Some(CellFailure::Session(SessionError::FatalCall { .. }))
            ));
        }
        let rendered = report.render();
        assert!(rendered.contains("failed"), "{rendered}");
        assert!(rendered.contains("; 2 cell(s) failed"), "{rendered}");
    }

    /// Resume validation: a record from a different grid is rejected with
    /// a structured error, not replayed into a wrong report.
    #[test]
    fn resume_rejects_mismatched_records() {
        let e = engine();
        let text = format!(
            "{{\"v\":{},\"e\":{{\"CampaignStart\":{{\"workloads\":[\"OTHER\"],\"seeds\":[1],\"mode\":\"cold\",\"faults\":null,\"injection\":null,\"retry\":null}}}},\"t\":null}}\n",
            crate::obs::SCHEMA_VERSION
        );
        let record = crate::obs::RunRecord::parse(&text).expect("well-formed line");
        let err = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M], 0.08)
            .seeds([1])
            .resume_from(&record)
            .err()
            .expect("grid mismatch must be rejected");
        assert!(err.contains("workloads"), "{err}");
        // A record that is not a campaign record at all.
        let empty = crate::obs::RunRecord::default();
        let err = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M], 0.08)
            .seeds([1])
            .resume_from(&empty)
            .err()
            .expect("no CampaignStart");
        assert!(err.contains("CampaignStart"), "{err}");
    }

    /// Order overrides steer `run()` only: serial rounds execute — and
    /// report — grid order, without validating the unused override.
    #[test]
    fn serial_ignores_order_override() {
        let e = engine();
        let report = Campaign::new(&e)
            .kinds(&[WorkloadKind::Ior16M, WorkloadKind::Macsio16M], 0.05)
            .seeds([3])
            .order_override(vec![9, 9])
            .run_serial();
        assert_eq!(report.sched_stats.rounds[0].order, vec![0, 1]);
    }
}
