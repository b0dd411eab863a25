//! Executing rounds: sessions and campaigns driven through the public
//! `stellar` API, timed from the benchmark's side, with output checks.

use crate::clock::Stopwatch;
use crate::spec::{Setup, Shape, Spec, BUDGET, CAMPAIGN_THREADS};
use crate::stats::fnv1a;
use agents::{AnalysisQuestion, RuleSnapshot, ShardedRuleStore};
use llmsim::{CallError, CallHandle};
use simcore::rng::{combine, stable_hash};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use stellar::campaign::CampaignGrid;
use stellar::sched::{RoundSched, SchedStats};
use stellar::{
    AttemptRecord, Campaign, CampaignCell, CampaignObserver, CampaignReport, CellFailure,
    CellOutcome, JsonlEmitter, RuleMode, RunObserver, RunRecord, Schedule, SeedPolicy,
    SessionEvent, SessionOutcome, Stellar, TuningRun,
};
use workloads::Workload;

/// Why a session or cell produced no run. `structured` is false for a
/// caught panic, which fails the output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub structured: bool,
    pub text: String,
}

pub type Outcome = Result<TuningRun, Failure>;

fn from_session(outcome: SessionOutcome) -> Outcome {
    match outcome {
        SessionOutcome::Finished(run) => Ok(run),
        SessionOutcome::Failed(error) => Err(Failure {
            structured: true,
            text: error.to_string(),
        }),
    }
}

fn from_cell(outcome: CellOutcome) -> Outcome {
    match outcome {
        CellOutcome::Finished(run) => Ok(run),
        CellOutcome::Failed(failure) => Err(Failure {
            structured: matches!(failure, CellFailure::Session(_)),
            text: failure.to_string(),
        }),
    }
}

/// One session, or one campaign cell.
pub struct Unit {
    /// Index into `Setup::workloads`.
    pub workload: usize,
    /// Campaign seed round (0 for sessions).
    pub round: usize,
    /// The seed handed to `Stellar::session` to reopen this unit.
    pub seed: u64,
    /// The fully derived run seed the simulator runs derive from.
    pub run_seed: u64,
    pub outcome: Outcome,
    /// Step spans and events, when the unit was stepped with tracing.
    pub steps: Option<Steps>,
}

impl Unit {
    /// Seeds of the simulator runs a finished unit made: the default run,
    /// then one per attempt.
    pub fn run_seeds(&self, attempts: usize) -> Vec<u64> {
        (0..=attempts as u64)
            .map(|k| combine(self.run_seed, 100 + k))
            .collect()
    }
}

/// Campaign-only observations of one round.
pub struct CampaignExtras {
    pub wall_s: f64,
    pub record_bytes: usize,
    pub parse_s: f64,
    pub sched: SchedStats,
    pub rule_store_len: usize,
    pub emit: EmitTimes,
}

/// One round: a fixed set of sessions, or one whole campaign.
pub struct Round {
    /// Index of the round in its run (it ran cycle position
    /// `index % cycle`, on `Setup::engine(index)`).
    pub index: usize,
    pub secs: f64,
    /// Host seconds per session, or per cell from claim to publish.
    pub session_secs: Vec<f64>,
    pub units: Vec<Unit>,
    /// Sessions or cells the round ran.
    pub attempted: usize,
    /// Step spans summed over the round's units (traced session rounds).
    pub steps: Steps,
    /// Digest of the canonical output: serialized runs for sessions, the
    /// canonical record stream for the campaign.
    pub digest: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Units that failed a check.
    pub failed: usize,
    pub campaign: Option<CampaignExtras>,
}

/// Run rounds until `seconds` have elapsed and at least `min_rounds` ran.
/// Round `i` runs the inputs of cycle position `i % spec.cycle()`. Rounds
/// after the first cycle keep only their timings, step totals and digest
/// (so memory does not grow with the number of rounds); a digest that
/// differs from the same position's first digest fails every unit of the
/// round.
pub fn rounds(
    setup: &Setup,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> Vec<Round> {
    let start = Stopwatch::start();
    let cycle = spec.cycle();
    let mut out: Vec<Round> = Vec::new();
    loop {
        let i = out.len();
        let mut round = match spec.shape {
            Shape::Sessions { .. } => session_round(setup, spec, seed, i, traced),
            Shape::Campaign { .. } => campaign_round(setup, spec, seed, i, traced),
        };
        if let Some(first) = out.get(i % cycle).filter(|_| i >= cycle) {
            if round.digest != first.digest {
                round.problems.push(format!(
                    "{}: canonical digest {:016x} differs from the first run of the same inputs, {:016x}",
                    spec.name, round.digest, first.digest
                ));
                round.failed = round.attempted;
            }
            round.units = Vec::new();
        }
        out.push(round);
        if out.len() >= min_rounds && start.secs() >= seconds {
            return out;
        }
    }
}

fn check_unit(spec: &Spec, unit: &Unit) -> Option<String> {
    let label = format!("{} unit {} (seed {})", spec.name, unit.workload, unit.seed);
    match &unit.outcome {
        Ok(run) if run.attempts.len() > BUDGET => Some(format!(
            "{label}: {} attempts exceed the budget of {BUDGET}",
            run.attempts.len()
        )),
        Ok(run) if run.best_speedup.is_nan() || run.best_speedup < 1.0 => {
            Some(format!("{label}: best speedup {} < 1", run.best_speedup))
        }
        Ok(_) => None,
        Err(f) if !f.structured => Some(format!(
            "{label}: ended without a structured error: {}",
            f.text
        )),
        Err(_) => None,
    }
}

fn finish_round(spec: &Spec, round: &mut Round) {
    for unit in &round.units {
        if let Some(problem) = check_unit(spec, unit) {
            round.problems.push(problem);
            round.failed += 1;
        }
    }
}

fn session_round(setup: &Setup, spec: &Spec, seed: u64, index: usize, traced: bool) -> Round {
    let w = setup.workloads[0].as_ref();
    let mut session_secs = Vec::new();
    let mut units = Vec::new();
    let mut digest_input = String::new();
    let t_round = Stopwatch::start();
    for s in spec.round_seeds(seed, index) {
        let t0 = Stopwatch::start();
        let (outcome, steps) = if traced {
            let (outcome, steps) = step_session(setup.engine(index), w, RuleSnapshot::empty(), s);
            (outcome, Some(steps))
        } else {
            let session = setup.engine(index).session(w, RuleSnapshot::empty(), s);
            (from_session(session.drain_outcome()), None)
        };
        session_secs.push(t0.secs());
        match &outcome {
            Ok(run) => digest_input.push_str(&serde_json::to_string(run).expect("run serializes")),
            Err(f) => digest_input.push_str(&f.text),
        }
        units.push(Unit {
            workload: 0,
            round: 0,
            seed: s,
            run_seed: run_seed(setup.engine(index), w, s),
            outcome,
            steps,
        });
    }
    let mut total = Steps::default();
    for steps in units.iter().filter_map(|u| u.steps.as_ref()) {
        total.add(steps);
    }
    let mut round = Round {
        index,
        secs: t_round.secs(),
        session_secs,
        attempted: units.len(),
        steps: total,
        units,
        digest: fnv1a(digest_input.as_bytes()),
        problems: Vec::new(),
        failed: 0,
        campaign: None,
    };
    finish_round(spec, &mut round);
    round
}

/// The run seed a session opened with `seed` derives, per the engine's
/// seed policy.
fn run_seed(engine: &Stellar, w: &dyn Workload, seed: u64) -> u64 {
    match engine.options().seed_policy {
        SeedPolicy::PerWorkload => combine(seed, stable_hash(&w.name())),
        SeedPolicy::Fixed => seed,
    }
}

fn campaign_round(setup: &Setup, spec: &Spec, seed: u64, index: usize, traced: bool) -> Round {
    let mut emitter = JsonlEmitter::new(Vec::new());
    let mut session_secs = Vec::new();
    let mut emit = EmitTimes::default();
    let (report, wall_s) = {
        let campaign = Campaign::new(setup.engine(index))
            .kinds(&spec.kinds(), spec.scale)
            .seeds(spec.round_seeds(seed, index))
            .rule_mode(RuleMode::Warm)
            .threads(CAMPAIGN_THREADS);
        let campaign = if traced {
            campaign.observe(Box::new(TimedEmitter {
                inner: &mut emitter,
                times: &mut emit,
            }))
        } else {
            campaign.observe(Box::new(&mut emitter))
        };
        let campaign = campaign.observe(Box::new(CellClock {
            claimed: BTreeMap::new(),
            out: &mut session_secs,
        }));
        let t0 = Stopwatch::start();
        let report = campaign.run();
        (report, t0.secs())
    };
    let text = String::from_utf8(emitter.into_inner()).expect("run record is UTF-8");
    let mut problems = Vec::new();
    let t_parse = Stopwatch::start();
    let parsed = RunRecord::parse(&text);
    let parse_s = t_parse.secs();
    let digest = match &parsed {
        Ok(record) => {
            if !record.summary().starts_with(&report.render()) {
                problems.push(format!(
                    "{}: record summary does not start with the live report",
                    spec.name
                ));
            }
            fnv1a(record.canonical_jsonl().as_bytes())
        }
        Err(e) => {
            problems.push(format!("{}: run record does not parse: {e}", spec.name));
            0
        }
    };
    let failed = usize::from(!problems.is_empty()) * report.cells.len();
    let extras = CampaignExtras {
        wall_s,
        record_bytes: text.len(),
        parse_s,
        rule_store_len: report.rule_store.len(),
        sched: report.sched_stats.clone(),
        emit,
    };
    let per_round = spec.kinds().len();
    let units = cell_units(report, per_round);
    let mut round = Round {
        index,
        secs: wall_s,
        session_secs,
        attempted: units.len(),
        steps: Steps::default(),
        units,
        digest,
        problems,
        failed,
        campaign: Some(extras),
    };
    finish_round(spec, &mut round);
    round
}

fn cell_units(report: CampaignReport, per_round: usize) -> Vec<Unit> {
    report
        .cells
        .into_iter()
        .enumerate()
        .map(|(i, cell): (usize, CampaignCell)| Unit {
            workload: i % per_round,
            round: i / per_round,
            seed: cell.cell_seed,
            run_seed: cell.cell_seed,
            outcome: from_cell(cell.outcome),
            steps: None,
        })
        .collect()
}

/// The rule snapshot each unit's session started from: empty for cold
/// sessions; for a warm campaign, the store as merged in grid order after
/// every earlier seed round. Returns the snapshots per round and the final
/// store; `timer` receives (merge, snapshot) host seconds.
pub fn round_snapshots(
    spec: &Spec,
    units: &[Unit],
    mut timer: impl FnMut(f64, f64),
) -> (Vec<RuleSnapshot>, ShardedRuleStore) {
    let mut store = ShardedRuleStore::for_topology(spec.topology.ost_count());
    let Shape::Campaign { seeds, .. } = spec.shape else {
        return (vec![RuleSnapshot::empty()], store);
    };
    let mut snapshots = Vec::with_capacity(seeds);
    for r in 0..seeds {
        let t0 = Stopwatch::start();
        snapshots.push(store.snapshot());
        let snapshot_s = t0.secs();
        let mut merge_s = 0.0;
        for unit in units.iter().filter(|u| u.round == r) {
            if let Ok(run) = &unit.outcome {
                let rules = run.new_rules.clone();
                let t0 = Stopwatch::start();
                store.merge(rules);
                merge_s += t0.secs();
            }
        }
        timer(merge_s, snapshot_s);
    }
    (snapshots, store)
}

/// Which kind of step a span covers, by the event the step returned.
#[derive(Debug, Clone, Copy)]
pub enum Class {
    Initial,
    Analysis,
    Minor,
    Attempt,
    End,
    Wait,
}

/// Step spans and the events a stepped session produced.
#[derive(Debug, Default, Clone)]
pub struct Steps {
    /// Host seconds per [`Class`], indexed by `Class as usize`.
    pub spans: [f64; 6],
    pub steps: u64,
    /// Host seconds from opening the session to collecting its outcome.
    pub wall_s: f64,
    /// Simulated wall time of the default run, once it ran.
    pub initial_wall: Option<f64>,
    pub reported: bool,
    pub attempts: Vec<AttemptRecord>,
    /// Minor-loop questions, each with the number of attempts before it.
    pub questions: Vec<(AnalysisQuestion, usize)>,
    pub retries: u64,
    pub waits: u64,
    pub max_in_flight: usize,
}

impl Steps {
    /// Total host seconds inside `step` calls.
    pub fn span_total(&self) -> f64 {
        self.spans.iter().sum()
    }

    /// Add another unit's spans and counters (events are not kept).
    pub fn add(&mut self, other: &Steps) {
        for (a, b) in self.spans.iter_mut().zip(other.spans) {
            *a += b;
        }
        self.steps += other.steps;
        self.wall_s += other.wall_s;
        self.retries += other.retries;
        self.waits += other.waits;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
    }
}

struct RetryCount(Rc<Cell<u64>>);

impl RunObserver for RetryCount {
    fn on_retry(&mut self, _context: &str, _attempt: u32, _error: &CallError) {
        self.0.set(self.0.get() + 1);
    }
}

/// Open a session with `seed` and step it to its end, timing every step.
pub fn step_session(
    engine: &Stellar,
    w: &dyn Workload,
    rules: RuleSnapshot,
    seed: u64,
) -> (Outcome, Steps) {
    let mut steps = Steps::default();
    let retries = Rc::new(Cell::new(0));
    let t_open = Stopwatch::start();
    let mut session = engine.session(w, rules, seed);
    session.observe(Box::new(RetryCount(Rc::clone(&retries))));
    while !session.is_ended() {
        let t0 = Stopwatch::start();
        let event = session.step();
        let dt = t0.secs();
        let class = match event {
            SessionEvent::InitialRun { wall_secs } => {
                steps.initial_wall = Some(wall_secs);
                Class::Initial
            }
            SessionEvent::AnalysisReport(_) => {
                steps.reported = true;
                Class::Analysis
            }
            SessionEvent::MinorLoopQuestion { question, .. } => {
                steps.questions.push((question, steps.attempts.len()));
                Class::Minor
            }
            SessionEvent::Attempt(record) => {
                steps.attempts.push(record);
                Class::Attempt
            }
            SessionEvent::Waiting { .. } => {
                steps.waits += 1;
                Class::Wait
            }
            SessionEvent::Ended { .. } | SessionEvent::Failed { .. } => Class::End,
        };
        steps.spans[class as usize] += dt;
        steps.steps += 1;
        steps.max_in_flight = steps.max_in_flight.max(session.in_flight());
    }
    let outcome = from_session(session.into_outcome());
    steps.wall_s = t_open.secs();
    steps.retries = retries.get();
    (outcome, steps)
}

/// Records each cell's host time from claim to publish.
struct CellClock<'a> {
    claimed: BTreeMap<(u64, usize), Stopwatch>,
    out: &'a mut Vec<f64>,
}

impl CampaignObserver for CellClock<'_> {
    fn on_cell_claimed(&mut self, _worker: usize, seed: u64, grid_idx: usize, _workload: &str) {
        self.claimed.insert((seed, grid_idx), Stopwatch::start());
    }

    fn on_cell_published(&mut self, _worker: usize, seed: u64, grid_idx: usize, _busy: f64) {
        if let Some(t0) = self.claimed.remove(&(seed, grid_idx)) {
            self.out.push(t0.secs());
        }
    }
}

/// Host time spent inside the run-record emitter, and the span of every
/// seed round (from `on_round_start` to `on_round_finished`).
#[derive(Debug, Default)]
pub struct EmitTimes {
    pub emit_s: f64,
    /// Emitter time outside any round span.
    pub emit_outside_s: f64,
    pub round_s: Vec<f64>,
    round_open: Option<Stopwatch>,
}

/// Times every callback of the wrapped emitter.
struct TimedEmitter<'a> {
    inner: &'a mut JsonlEmitter<Vec<u8>>,
    times: &'a mut EmitTimes,
}

impl TimedEmitter<'_> {
    fn timed(&mut self, f: impl FnOnce(&mut JsonlEmitter<Vec<u8>>)) {
        let t0 = Stopwatch::start();
        f(self.inner);
        let dt = t0.secs();
        self.times.emit_s += dt;
        if self.times.round_open.is_none() {
            self.times.emit_outside_s += dt;
        }
    }
}

impl CampaignObserver for TimedEmitter<'_> {
    fn on_campaign_start(&mut self, grid: &CampaignGrid) {
        self.timed(|e| e.on_campaign_start(grid));
    }

    fn on_round_start(&mut self, seed: u64) {
        self.times.round_open = Some(Stopwatch::start());
        self.timed(|e| e.on_round_start(seed));
    }

    fn on_round_planned(&mut self, seed: u64, schedule: Schedule, order: &[usize]) {
        self.timed(|e| e.on_round_planned(seed, schedule, order));
    }

    fn on_cell_claimed(&mut self, worker: usize, seed: u64, grid_idx: usize, workload: &str) {
        self.timed(|e| e.on_cell_claimed(worker, seed, grid_idx, workload));
    }

    fn on_cell_suspended(&mut self, worker: usize, seed: u64, grid_idx: usize, call: CallHandle) {
        self.timed(|e| e.on_cell_suspended(worker, seed, grid_idx, call));
    }

    fn on_cell_published(&mut self, worker: usize, seed: u64, grid_idx: usize, busy: f64) {
        self.timed(|e| e.on_cell_published(worker, seed, grid_idx, busy));
    }

    fn on_cell_finished(&mut self, cell: &CampaignCell) {
        self.timed(|e| e.on_cell_finished(cell));
    }

    fn on_cell_failed(&mut self, cell: &CampaignCell) {
        self.timed(|e| e.on_cell_failed(cell));
    }

    fn on_rules_merged(&mut self, workload: &str, added: usize, total: usize) {
        self.timed(|e| e.on_rules_merged(workload, added, total));
    }

    fn on_round_finished(&mut self, round: &RoundSched) {
        self.timed(|e| e.on_round_finished(round));
        if let Some(t0) = self.times.round_open.take() {
            self.times.round_s.push(t0.secs());
        }
    }

    fn on_campaign_end(&mut self, report: &CampaignReport) {
        self.timed(|e| e.on_campaign_end(report));
    }
}
