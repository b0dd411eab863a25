//! Steppable tuning sessions.
//!
//! [`TuningSession`] factors the body of the old monolithic
//! `Stellar::tune()` into an observable state machine: each call to
//! [`TuningSession::step`] performs exactly one agent-visible action and
//! returns it as a [`SessionEvent`] — the initial default-configuration
//! run, the Analysis Agent's report, each minor-loop question, each
//! configuration attempt, and the final End-Tuning decision. Drained to
//! completion the session produces the exact [`TuningRun`] the monolithic
//! call did (`Stellar::tune` is now a thin wrapper over a session).
//!
//! Sessions support:
//!
//! * **observers** — [`RunObserver`]s attached via
//!   [`TuningSession::observe`] receive every event, every transcript line
//!   the Tuning Agent narrates (the same lines `TuningRun::transcript`
//!   records), and per-step [`UsageMeter`] snapshots for both agents;
//! * **abort/budget hooks** — [`TuningSession::abort`] ends the run before
//!   the next agent decision with a caller-supplied reason, and the attempt
//!   budget rides in `TuningOptions::max_attempts` (settable through
//!   `StellarBuilder::attempt_budget`);
//! * **suspension** — every agent turn is a call through the session's
//!   [`llmsim::SimTransport`], the simulated provider. When the engine
//!   carries a [`llmsim::LatencyProfile`] (`StellarBuilder::backend_latency`,
//!   CLI `--backend-latency`), [`TuningSession::step`] returns
//!   [`SessionEvent::Waiting`] instead of blocking while that call is in
//!   flight, with all agent state intact. The caller
//!   keeps stepping (each step polls the call once) and the session
//!   resumes by itself when the call completes — the seam campaign
//!   workers poll suspended cells through. Waiting is a
//!   *scheduling artifact*: it is reported to observers only through
//!   [`RunObserver::on_waiting`], never `on_event`, so the semantic event
//!   stream, the transcript and every usage meter stay bit-identical to
//!   the instant-backend path (property-tested in
//!   `tests/integration_nonblocking.rs`);
//! * **failure domains** — when the engine injects backend failures
//!   (`StellarBuilder::failures`, CLI `--inject-failures`), calls can
//!   conclude [`llmsim::CallStatus::Failed`]. Transient errors are
//!   retried under the engine's [`RetryPolicy`] (resubmission after a
//!   poll-tick backoff, each retry reported canonically via
//!   [`RunObserver::on_retry`]); a fatal error or an exhausted budget
//!   ends the session with a structured [`SessionError`] and the terminal
//!   [`SessionEvent::Failed`] — never a panic. Because failure verdicts
//!   are drawn per *submission index* (see [`llmsim::failures`]),
//!   retry schedules are identical under any latency profile, which
//!   keeps the canonical stream byte-identical across execution shapes
//!   even with injection on;
//! * **late-bound rules** — the session reads its [`RuleSnapshot`] in one
//!   place, when it builds the Tuning Agent after the analysis report. A
//!   campaign opens a next-round cell before that round's rules exist,
//!   steps it through its initial run, and binds the snapshot once the
//!   previous round has merged. The run equals one opened with that
//!   snapshot, because nothing before the agent reads the rules.

use crate::engine::{AttemptRecord, SeedPolicy, Stellar, TuningRun};
use agents::{
    AnalysisAgent, AnalysisQuestion, Answer, ContextTag, IoReport, RuleSnapshot, ToolCall,
    TuningAgent,
};
use darshan::Table;
use llmsim::{
    CallError, CallHandle, CallStatus, FailureInjection, LatencyProfile, SimLlm, SimTransport,
    UsageMeter,
};
use pfs::params::{ParamRegistry, TuningConfig};
use serde::{Deserialize, Serialize};
use simcore::rng::{combine, stable_hash};
use std::fmt;
use workloads::Workload;

/// How a session treats [`llmsim::CallStatus::Failed`] backend calls.
///
/// Budgets are measured in the session's own deterministic units: attempts
/// per logical call and backoff in poll ticks, never wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total submissions allowed per logical call, first try included.
    /// Treated as at least 1.
    pub max_attempts: u32,
    /// Polls to sit out after a transient failure before the resubmitted
    /// call is first polled.
    pub backoff_ticks: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ticks: 1,
        }
    }
}

impl RetryPolicy {
    /// `max_attempts`, floored at one submission.
    pub fn attempt_budget(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Canonical label for run records
    /// (e.g. `"3 attempt(s), backoff 1 tick(s)"`).
    pub fn label(&self) -> String {
        format!(
            "{} attempt(s), backoff {} tick(s)",
            self.attempt_budget(),
            self.backoff_ticks
        )
    }
}

/// Why a session ended without a [`TuningRun`]. Structured, serializable
/// and deterministic — it feeds the canonical stream
/// ([`crate::obs::ObsEvent::SessionFailed`]) and campaign failed-cell
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionError {
    /// A backend call failed fatally; no retry can clear it.
    FatalCall {
        /// Turn label of the failed call.
        context: String,
        /// The provider error.
        error: CallError,
    },
    /// Transient failures exhausted the [`RetryPolicy`] budget.
    RetriesExhausted {
        /// Turn label of the failed call.
        context: String,
        /// Submissions spent (the full budget).
        attempts: u32,
        /// The last error observed.
        last: CallError,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::FatalCall { context, error } => {
                write!(f, "fatal backend call at {context}: {error}")
            }
            SessionError::RetriesExhausted {
                context,
                attempts,
                last,
            } => write!(
                f,
                "retry budget exhausted at {context} after {attempts} attempt(s): {last}"
            ),
        }
    }
}

/// Terminal state of a drained session: the finished run, or the
/// structured error that ended it. Returned by
/// [`TuningSession::drain_outcome`] / [`TuningSession::into_outcome`].
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// The session completed and produced a run.
    Finished(TuningRun),
    /// The session ended with [`SessionEvent::Failed`].
    Failed(SessionError),
}

/// One agent-visible step of a tuning run.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The initial execution under the default configuration (iteration 0).
    InitialRun {
        /// Wall time of the default run, seconds.
        wall_secs: f64,
    },
    /// The Analysis Agent's initial I/O report (absent under the
    /// `No Analysis` ablation — the session skips straight to deciding).
    AnalysisReport(IoReport),
    /// One minor-loop exchange: the Tuning Agent asked, the Analysis Agent
    /// answered.
    MinorLoopQuestion {
        /// The question posed.
        question: AnalysisQuestion,
        /// The computed answer.
        answer: Answer,
    },
    /// One configuration attempt was executed.
    Attempt(AttemptRecord),
    /// The next agent turn's backend call is in flight; nothing happened
    /// this step. The session is suspended — step again to poll the call
    /// (each step burns one latency tick) until it completes, or run
    /// other work in between: all agent state is retained. Only produced
    /// when the engine injects backend latency or a retry backs off;
    /// observers hear about it via [`RunObserver::on_waiting`], not
    /// `on_event`.
    Waiting {
        /// Handle of the in-flight call.
        call: CallHandle,
    },
    /// The run concluded.
    Ended {
        /// The agent's justification (or the abort reason).
        reason: String,
    },
    /// The run ended with a structured failure: a fatal backend error or
    /// an exhausted retry budget. Terminal, like [`SessionEvent::Ended`],
    /// but there is no [`TuningRun`] — use
    /// [`TuningSession::drain_outcome`] / [`TuningSession::into_outcome`]
    /// to collect the error without panicking.
    Failed {
        /// What ended the session.
        error: SessionError,
    },
}

/// Streaming receiver for session progress.
///
/// All methods have no-op defaults; implement the ones you need.
pub trait RunObserver {
    /// Called once, before the first step does any work, with the
    /// session's workload label, fully derived run seed, and the scenario
    /// labels of the run regime (`"degraded-topology"`, `"noisy-neighbor"`;
    /// empty for a pristine single-job run) — the metadata a run record
    /// needs to be replayable on its own (see
    /// [`crate::obs::ObsEvent::SessionStart`]).
    fn on_session_start(&mut self, workload: &str, run_seed: u64, scenario: &[&'static str]) {
        let _ = (workload, run_seed, scenario);
    }

    /// Called once per [`TuningSession::step`] with the produced event.
    fn on_event(&mut self, event: &SessionEvent) {
        let _ = event;
    }

    /// Called for each new transcript line the Tuning Agent narrates —
    /// the same lines, in the same order, that `TuningRun::transcript`
    /// records at the end of the run.
    fn on_transcript(&mut self, line: &str) {
        let _ = line;
    }

    /// Called after each step with current token-usage snapshots.
    fn on_usage(&mut self, tuning: &UsageMeter, analysis: &UsageMeter) {
        let _ = (tuning, analysis);
    }

    /// Called each time a step finds the session still waiting on an
    /// in-flight backend call. Deliberately separate from
    /// [`RunObserver::on_event`] so the semantic event order an observer
    /// records is identical whether or not the backend injects latency.
    fn on_waiting(&mut self, call: CallHandle) {
        let _ = call;
    }

    /// Called when a transient backend failure consumed an attempt and
    /// the call was resubmitted: `context` is the turn label, `attempt`
    /// the resubmission's 1-based number, `error` what the previous
    /// submission failed with. **Canonical**, unlike
    /// [`RunObserver::on_waiting`]: failure verdicts are drawn per
    /// submission index, so the retry sequence is identical across
    /// latency profiles and execution shapes.
    fn on_retry(&mut self, context: &str, attempt: u32, error: &CallError) {
        let _ = (context, attempt, error);
    }
}

enum Phase {
    /// Nothing ran yet.
    Start,
    /// Default run done; analysis + agent construction pending.
    Analyze,
    /// Agent loop in progress.
    Drive,
    /// Ended; `finished` holds the run.
    Done,
    /// Ended with a failure; `failed` holds the error.
    Failed,
}

/// What clearing the gate produced this step.
enum GateStatus {
    /// Gate clear — the turn may execute.
    Clear,
    /// Call in flight (or a retry backing off) — suspend. `retry` carries
    /// the canonical retry notification when this very step resubmitted
    /// after a transient failure.
    Waiting {
        /// The in-flight handle.
        call: CallHandle,
        /// `(context, attempt, error)` when a retry was just issued.
        retry: Option<(String, u32, CallError)>,
    },
    /// A fatal error or an exhausted budget: the session must fail.
    Failed(SessionError),
}

/// The gate an agent turn must clear before it executes: the turn's call
/// through the session's [`SimTransport`], retried under the
/// [`RetryPolicy`]. One call in flight at a time — a session is a single
/// logical conversation. The transport draws each call's tick budget and
/// failure verdict from its submission index, so the failure schedule is
/// latency-invariant (see the module docs).
struct Gate {
    transport: SimTransport,
    policy: RetryPolicy,
    pending: Option<CallHandle>,
    /// Turn label of the in-flight logical call.
    context: String,
    /// 1-based submission number of the in-flight attempt.
    attempt: u32,
    /// Polls still to sit out before a resubmitted call is polled.
    backoff_left: u32,
    turns: u64,
}

impl Gate {
    /// Poll (or open) the turn's call and report the gate's state.
    fn acquire(&mut self, phase_label: &str) -> GateStatus {
        let handle = match self.pending {
            Some(h) => h,
            None => {
                // New logical call: fresh turn label, first attempt.
                self.context = format!("{phase_label}:turn{}", self.turns);
                self.turns += 1;
                self.attempt = 1;
                self.backoff_left = 0;
                self.submit_attempt()
            }
        };
        // Retry backoff: the resubmitted call sits unpolled until the
        // backoff expires, so backoff is measured in poll ticks exactly
        // like the latency budget.
        if self.backoff_left > 0 {
            self.backoff_left -= 1;
            return GateStatus::Waiting {
                call: handle,
                retry: None,
            };
        }
        match self.transport.poll(handle) {
            CallStatus::Pending => GateStatus::Waiting {
                call: handle,
                retry: None,
            },
            CallStatus::Ready => {
                self.pending = None;
                GateStatus::Clear
            }
            CallStatus::Failed(error) => {
                self.pending = None;
                if !error.is_transient() {
                    return GateStatus::Failed(SessionError::FatalCall {
                        context: self.context.clone(),
                        error,
                    });
                }
                self.retry_or_fail(error)
            }
        }
    }

    /// Submit (or resubmit) the current logical call.
    fn submit_attempt(&mut self) -> CallHandle {
        let h = self.transport.submit();
        self.pending = Some(h);
        h
    }

    /// A transient failure consumed an attempt: resubmit under the budget
    /// or fail the session.
    fn retry_or_fail(&mut self, error: CallError) -> GateStatus {
        if self.attempt >= self.policy.attempt_budget() {
            return GateStatus::Failed(SessionError::RetriesExhausted {
                context: self.context.clone(),
                attempts: self.attempt,
                last: error,
            });
        }
        self.attempt += 1;
        self.backoff_left = self.policy.backoff_ticks;
        let call = self.submit_attempt();
        GateStatus::Waiting {
            call,
            retry: Some((self.context.clone(), self.attempt, error)),
        }
    }

    /// Abandon any in-flight call (abort path): the session must end on
    /// its next step, not wait out a provider round trip.
    fn cancel_pending(&mut self) {
        if let Some(h) = self.pending.take() {
            self.transport.cancel(h);
        }
    }
}

/// A steppable tuning run. See the module docs.
pub struct TuningSession<'a> {
    engine: &'a Stellar,
    workload: &'a dyn Workload,
    /// `None` until bound: a campaign may open a cell before its round's
    /// rules exist (see [`TuningSession::needs_rules`]).
    rules: Option<RuleSnapshot>,
    run_seed: u64,
    registry: ParamRegistry,
    analysis_backend: SimLlm,
    tuning_backend: SimLlm,
    observers: Vec<Box<dyn RunObserver + 'a>>,
    gate: Gate,
    phase: Phase,
    // Run state, filled as phases progress.
    default_cfg: TuningConfig,
    default_wall: f64,
    header: String,
    tables: Vec<Table>,
    report: Option<IoReport>,
    agent: Option<TuningAgent>,
    attempts: Vec<AttemptRecord>,
    transcript_cursor: usize,
    abort_reason: Option<String>,
    finished: Option<TuningRun>,
    failed: Option<SessionError>,
}

impl<'a> TuningSession<'a> {
    pub(crate) fn new(
        engine: &'a Stellar,
        workload: &'a dyn Workload,
        rules: RuleSnapshot,
        seed: u64,
    ) -> Self {
        let run_seed = match engine.options().seed_policy {
            SeedPolicy::PerWorkload => combine(seed, stable_hash(&workload.name())),
            SeedPolicy::Fixed => seed,
        };
        Self::with_run_seed(engine, workload, Some(rules), run_seed)
    }

    /// Session with a fully derived run seed, bypassing the engine's
    /// [`SeedPolicy`]. Used by the campaign layer, whose per-cell seeds
    /// already mix in the workload name and grid position. Without
    /// `rules` the session steps up to its rule lookup and then waits for
    /// [`TuningSession::bind_rules`].
    pub(crate) fn with_run_seed(
        engine: &'a Stellar,
        workload: &'a dyn Workload,
        rules: Option<RuleSnapshot>,
        run_seed: u64,
    ) -> Self {
        let analysis_backend = SimLlm::new(
            engine.options().analysis_model.clone(),
            combine(run_seed, 1),
        );
        let tuning_backend =
            SimLlm::new(engine.options().tuning_model.clone(), combine(run_seed, 2));
        TuningSession {
            engine,
            workload,
            rules,
            run_seed,
            registry: ParamRegistry::standard(),
            analysis_backend,
            tuning_backend,
            observers: Vec::new(),
            gate: Self::build_gate(engine, run_seed),
            phase: Phase::Start,
            default_cfg: TuningConfig::lustre_default(),
            default_wall: 0.0,
            header: String::new(),
            tables: Vec::new(),
            report: None,
            agent: None,
            attempts: Vec::new(),
            transcript_cursor: 0,
            abort_reason: None,
            finished: None,
            failed: None,
        }
    }

    /// The session's gate. Seeded per cell: a session's latency *and*
    /// failure sequences are pure functions of its run seed, independent
    /// of sibling cells. An engine that injects nothing gets an instant,
    /// failure-free transport, which clears every turn on its first poll.
    fn build_gate(engine: &Stellar, run_seed: u64) -> Gate {
        let options = engine.options();
        let injection = options.failures.map(|injection| FailureInjection {
            seed: combine(combine(run_seed, 4), injection.seed),
            profile: injection.profile,
        });
        Gate {
            transport: SimTransport::new(
                options.backend_latency.unwrap_or(LatencyProfile::fixed(0)),
                combine(run_seed, 3),
                injection,
            ),
            policy: options.retry,
            pending: None,
            context: String::new(),
            attempt: 0,
            backoff_left: 0,
            turns: 0,
        }
    }

    /// Attach an observer. Multiple observers receive events in attachment
    /// order.
    pub fn observe(&mut self, observer: Box<dyn RunObserver + 'a>) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Request the session end before its next agent decision. The reason
    /// appears in the final [`SessionEvent::Ended`] and `TuningRun`.
    pub fn abort(&mut self, reason: impl Into<String>) {
        if self.abort_reason.is_none() {
            self.abort_reason = Some(reason.into());
        }
    }

    /// Whether the run has concluded — finished ([`SessionEvent::Ended`])
    /// or failed ([`SessionEvent::Failed`]).
    pub fn is_ended(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Failed)
    }

    /// Whether the run ended with [`SessionEvent::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self.phase, Phase::Failed)
    }

    /// The structured error that ended the session, if it failed.
    pub fn error(&self) -> Option<&SessionError> {
        self.failed.as_ref()
    }

    /// Backend calls currently in flight through the session's transport:
    /// 0 or 1, and 1 only while the session is suspended on a call. So
    /// always 0 when the engine injects neither latency nor failures, and
    /// once the session has ended (aborts cancel the pending call).
    pub fn in_flight(&self) -> usize {
        self.gate.transport.in_flight()
    }

    /// Whether the session is suspended on an in-flight backend call —
    /// i.e. the last [`TuningSession::step`] returned
    /// [`SessionEvent::Waiting`] and the call has not completed since.
    pub fn is_waiting(&self) -> bool {
        self.gate.pending.is_some()
    }

    /// Whether the next step would read the rules and none are bound:
    /// the initial run is done and the analysis turn, which builds the
    /// Tuning Agent from the rules, is next. No backend call is in flight
    /// at this point. Only a session opened without rules gets here.
    pub(crate) fn needs_rules(&self) -> bool {
        self.rules.is_none() && matches!(self.phase, Phase::Analyze)
    }

    /// Bind the snapshot a session opened without rules reads when it
    /// builds the Tuning Agent.
    pub(crate) fn bind_rules(&mut self, rules: RuleSnapshot) {
        debug_assert!(self.rules.is_none(), "rules are bound once");
        self.rules = Some(rules);
    }

    /// Attempts executed so far.
    pub fn attempts(&self) -> &[AttemptRecord] {
        &self.attempts
    }

    /// Execute one step of the tuning run and report what happened.
    ///
    /// With backend latency injected, a step may instead return
    /// [`SessionEvent::Waiting`]: the turn's provider call is still in
    /// flight and no agent work happened. Step again to poll it.
    ///
    /// After the run has ended, further calls return the final
    /// [`SessionEvent::Ended`] again without side effects.
    ///
    /// # Panics
    /// Panics if the session was opened without rules and needs them
    /// (only the campaign opens sessions that way, and it binds them
    /// first).
    pub fn step(&mut self) -> SessionEvent {
        assert!(
            !self.needs_rules(),
            "session stepped before its rules were bound"
        );
        // First step ever: announce the session before any work happens
        // (`Phase::Start` holds exactly until `step_start` runs below).
        if matches!(self.phase, Phase::Start) && !self.observers.is_empty() {
            let name = self.workload.name();
            let scenario = self.scenario_labels();
            for obs in &mut self.observers {
                obs.on_session_start(&name, self.run_seed, &scenario);
            }
        }
        match self.poll_gate() {
            GateStatus::Clear => {}
            GateStatus::Waiting { call, retry } => {
                if let Some((context, attempt, error)) = retry {
                    for obs in &mut self.observers {
                        obs.on_retry(&context, attempt, &error);
                    }
                }
                for obs in &mut self.observers {
                    obs.on_waiting(call);
                }
                return SessionEvent::Waiting { call };
            }
            GateStatus::Failed(error) => {
                let event = self.fail(error);
                self.notify(&event);
                return event;
            }
        }
        let event = match self.phase {
            Phase::Start => self.step_start(),
            Phase::Analyze => self.step_analyze(),
            Phase::Drive => self.step_drive(),
            Phase::Done => {
                return SessionEvent::Ended {
                    reason: self
                        .finished
                        .as_ref()
                        .map(|r| r.end_reason.clone())
                        .unwrap_or_default(),
                }
            }
            Phase::Failed => {
                return SessionEvent::Failed {
                    error: self.failed.clone().expect("failed phase carries its error"),
                }
            }
        };
        self.notify(&event);
        event
    }

    /// Phases that spend agent turns (analysis, every drive decision)
    /// must clear the gate first. The initial
    /// default run is simulator work, not an LLM call, so `Phase::Start`
    /// never gates; an abort abandons the in-flight call so the session
    /// ends without waiting it out.
    fn poll_gate(&mut self) -> GateStatus {
        if !matches!(self.phase, Phase::Analyze | Phase::Drive) {
            return GateStatus::Clear;
        }
        if self.abort_reason.is_some() {
            self.gate.cancel_pending();
            return GateStatus::Clear;
        }
        let label = match self.phase {
            Phase::Analyze => "analyze",
            _ => "drive",
        };
        self.gate.acquire(label)
    }

    /// Record the structured error and enter the terminal failed state.
    fn fail(&mut self, error: SessionError) -> SessionEvent {
        self.failed = Some(error.clone());
        self.phase = Phase::Failed;
        SessionEvent::Failed { error }
    }

    /// Drain the session to completion and return the finished run.
    ///
    /// # Panics
    /// Panics if the session fails (only possible with injected backend
    /// failures) — failure-aware callers use
    /// [`TuningSession::drain_outcome`].
    pub fn drain(mut self) -> TuningRun {
        while !self.is_ended() {
            self.step();
        }
        self.into_run()
    }

    /// Drain the session to completion and return how it ended — the
    /// finished run or the structured error. Never panics on failure.
    pub fn drain_outcome(mut self) -> SessionOutcome {
        while !self.is_ended() {
            self.step();
        }
        self.into_outcome()
    }

    /// The finished run. Panics if the session has not ended or ended in
    /// failure — check [`TuningSession::is_ended`] /
    /// [`TuningSession::is_failed`], or use the outcome variants.
    pub fn into_run(self) -> TuningRun {
        if let Some(error) = &self.failed {
            panic!("session failed ({error}); use drain_outcome()/into_outcome()");
        }
        self.finished
            .expect("session not finished; call step() until is_ended() or use drain()")
    }

    /// How the ended session concluded. Panics if the session has not
    /// ended yet.
    pub fn into_outcome(self) -> SessionOutcome {
        if let Some(error) = self.failed {
            return SessionOutcome::Failed(error);
        }
        SessionOutcome::Finished(
            self.finished
                .expect("session not finished; call step() until is_ended()"),
        )
    }

    // ------------------------------------------------------------------
    // Phase bodies. The operation order inside them reproduces the old
    // monolithic tune() exactly, so runs are bit-identical.
    // ------------------------------------------------------------------

    fn step_start(&mut self) -> SessionEvent {
        let (wall, header, tables) = self.engine.traced_run(
            self.workload,
            &self.default_cfg,
            combine(self.run_seed, 100),
        );
        self.default_wall = wall;
        self.header = header;
        self.tables = tables;
        self.phase = Phase::Analyze;
        SessionEvent::InitialRun { wall_secs: wall }
    }

    /// The scenario tags of this session's run regime: degraded topology
    /// when the engine carries a fault plan, noisy neighbor when the
    /// workload is a contention composite. Appended to rule-matching
    /// probes and to reflected rule contexts, so knowledge learned under
    /// one regime never crosses into another (scenario tags gate matching
    /// exactly — see [`ContextTag::is_scenario`]).
    fn scenario_tags(&self) -> Vec<ContextTag> {
        let mut tags = Vec::new();
        if self.engine.options().faults.is_some() {
            tags.push(ContextTag::DegradedTopology);
        }
        if self.workload.contended() {
            tags.push(ContextTag::NoisyNeighbor);
        }
        tags
    }

    /// Canonical-schema labels of the scenario tags (stable strings).
    fn scenario_labels(&self) -> Vec<&'static str> {
        self.scenario_tags()
            .into_iter()
            .filter_map(ContextTag::scenario_label)
            .collect()
    }

    fn build_agent(&mut self) {
        let matched: Vec<agents::Rule> = if self.engine.options().tuning.use_rules {
            let mut tags = self
                .report
                .as_ref()
                .map(ContextTag::tags_for)
                .unwrap_or_default();
            for t in self.scenario_tags() {
                if !tags.contains(&t) {
                    tags.push(t);
                }
            }
            self.rules
                .as_ref()
                .expect("rules are bound before the agent is built")
                .matching(&tags)
                .into_iter()
                .cloned()
                .collect()
        } else {
            Vec::new()
        };
        self.agent = Some(TuningAgent::new(
            &mut self.tuning_backend,
            self.engine.options().tuning.clone(),
            self.engine.sim().topology().clone(),
            self.engine.params().to_vec(),
            self.engine.truths(),
            self.report.clone(),
            matched,
            self.default_wall,
        ));
    }

    fn step_analyze(&mut self) -> SessionEvent {
        if self.engine.options().tuning.use_analysis {
            let mut agent = AnalysisAgent::new(&mut self.analysis_backend);
            let report = agent.initial_report(&self.header, &self.tables);
            self.report = Some(report.clone());
            self.build_agent();
            self.phase = Phase::Drive;
            SessionEvent::AnalysisReport(report)
        } else {
            // No Analysis ablation: no report event; proceed directly to
            // the first agent decision so every step still does one thing.
            self.build_agent();
            self.phase = Phase::Drive;
            self.step_drive()
        }
    }

    fn step_drive(&mut self) -> SessionEvent {
        if let Some(reason) = self.abort_reason.take() {
            return self.finalize(reason);
        }
        let mut agent = self.agent.take().expect("agent exists in Drive phase");
        let event = match agent.decide(&mut self.tuning_backend) {
            ToolCall::Analyze(q) => {
                let mut analysis = AnalysisAgent::new(&mut self.analysis_backend);
                let answer = analysis.answer(q, &self.tables);
                agent.accept_answer(answer.clone());
                self.agent = Some(agent);
                SessionEvent::MinorLoopQuestion {
                    question: q,
                    answer,
                }
            }
            ToolCall::RunConfig { config, .. } => {
                // Hygiene between runs: a fresh simulator state per
                // execution (delete files, drop caches, remount).
                let config = config.clamped(&self.registry, self.engine.sim().topology());
                let iteration = self.attempts.len() + 1;
                let (wall, _h, tables) = self.engine.traced_run(
                    self.workload,
                    &config,
                    combine(self.run_seed, 100 + iteration as u64),
                );
                self.tables = tables;
                agent.record_result(config.clone(), wall);
                let record = AttemptRecord {
                    iteration,
                    config,
                    wall_secs: wall,
                    speedup: self.default_wall / wall.max(1e-9),
                };
                self.attempts.push(record.clone());
                self.agent = Some(agent);
                SessionEvent::Attempt(record)
            }
            ToolCall::EndTuning { reason } => {
                self.agent = Some(agent);
                self.finalize(reason)
            }
        };
        event
    }

    fn finalize(&mut self, reason: String) -> SessionEvent {
        let agent = self.agent.take().expect("agent exists at finalize");
        // Best over default + attempts.
        let (best_wall, best_config) = self
            .attempts
            .iter()
            .map(|a| (a.wall_secs, a.config.clone()))
            .chain(std::iter::once((
                self.default_wall,
                self.default_cfg.clone(),
            )))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty");

        // Reflect & Summarize; the caller merges into its global rule set.
        let transcript = agent.transcript().to_vec();
        let history = agent.history().to_vec();
        drop(agent);
        let scenario = self.scenario_tags();
        let new_rules = match &self.report {
            Some(r) => agents::reflect::reflect(
                &mut self.tuning_backend,
                r,
                &history,
                self.default_wall,
                &scenario,
            ),
            None => Vec::new(),
        };

        self.finished = Some(TuningRun {
            workload: self.workload.name(),
            default_wall: self.default_wall,
            attempts: std::mem::take(&mut self.attempts),
            best_wall,
            best_speedup: self.default_wall / best_wall.max(1e-9),
            best_config,
            end_reason: reason.clone(),
            new_rules,
            transcript,
            tuning_usage: self.tuning_backend.usage().clone(),
            analysis_usage: self.analysis_backend.usage().clone(),
        });
        self.phase = Phase::Done;
        SessionEvent::Ended { reason }
    }

    fn notify(&mut self, event: &SessionEvent) {
        if self.observers.is_empty() {
            return;
        }
        // Stream transcript lines the agent produced during this step
        // (borrowed, not cloned — `agent`/`finished` and `observers` are
        // disjoint fields).
        let lines: &[String] = match (&self.agent, &self.finished) {
            (Some(agent), _) => agent.transcript(),
            (None, Some(run)) => &run.transcript,
            (None, None) => &[],
        };
        for line in &lines[self.transcript_cursor.min(lines.len())..] {
            for obs in &mut self.observers {
                obs.on_transcript(line);
            }
        }
        self.transcript_cursor = lines.len();
        for obs in &mut self.observers {
            obs.on_event(event);
            obs.on_usage(self.tuning_backend.usage(), self.analysis_backend.usage());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StellarBuilder;
    use agents::RuleSet;
    use std::cell::RefCell;
    use std::rc::Rc;
    use workloads::WorkloadKind;

    /// Collects everything the session streams.
    #[derive(Default)]
    struct Recorder {
        lines: Vec<String>,
        events: Vec<String>,
        last_tuning_calls: u64,
        waits: u64,
        retries: Vec<(String, u32, CallError)>,
    }

    struct SharedRecorder(Rc<RefCell<Recorder>>);

    impl RunObserver for SharedRecorder {
        fn on_event(&mut self, event: &SessionEvent) {
            let tag = match event {
                SessionEvent::InitialRun { .. } => "initial",
                SessionEvent::AnalysisReport(_) => "report",
                SessionEvent::MinorLoopQuestion { .. } => "question",
                SessionEvent::Attempt(_) => "attempt",
                // Never delivered through on_event — asserted below by
                // comparing recorded orders with and without latency.
                SessionEvent::Waiting { .. } => "waiting",
                SessionEvent::Ended { .. } => "ended",
                SessionEvent::Failed { .. } => "failed",
            };
            self.0.borrow_mut().events.push(tag.to_string());
        }
        fn on_transcript(&mut self, line: &str) {
            self.0.borrow_mut().lines.push(line.to_string());
        }
        fn on_usage(&mut self, tuning: &UsageMeter, _analysis: &UsageMeter) {
            self.0.borrow_mut().last_tuning_calls = tuning.calls;
        }
        fn on_waiting(&mut self, _call: llmsim::CallHandle) {
            self.0.borrow_mut().waits += 1;
        }
        fn on_retry(&mut self, context: &str, attempt: u32, error: &CallError) {
            self.0
                .borrow_mut()
                .retries
                .push((context.to_string(), attempt, error.clone()));
        }
    }

    #[test]
    fn drained_session_is_bit_identical_to_tune() {
        let engine = Stellar::standard();
        let w = WorkloadKind::Ior16M.spec().scaled(0.1);
        let mut rules = RuleSet::new();
        let via_tune = engine.tune(w.as_ref(), &mut rules, 42);
        let via_session = engine.session(w.as_ref(), RuleSet::new(), 42).drain();

        assert_eq!(via_tune.workload, via_session.workload);
        assert_eq!(
            via_tune.default_wall.to_bits(),
            via_session.default_wall.to_bits()
        );
        assert_eq!(via_tune.attempts.len(), via_session.attempts.len());
        for (a, b) in via_tune.attempts.iter().zip(&via_session.attempts) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        }
        assert_eq!(via_tune.best_config, via_session.best_config);
        assert_eq!(
            via_tune.best_wall.to_bits(),
            via_session.best_wall.to_bits()
        );
        assert_eq!(via_tune.end_reason, via_session.end_reason);
        assert_eq!(via_tune.transcript, via_session.transcript);
        assert_eq!(via_tune.new_rules, via_session.new_rules);
        assert_eq!(
            via_tune.tuning_usage.input_tokens,
            via_session.tuning_usage.input_tokens
        );
        assert_eq!(
            via_tune.analysis_usage.input_tokens,
            via_session.analysis_usage.input_tokens
        );
        // tune() merged the session-learned rules into the caller's set.
        assert_eq!(rules.rules, {
            let mut r = RuleSet::new();
            r.merge(via_session.new_rules.clone());
            r.rules
        });
    }

    #[test]
    fn observer_streams_the_exact_transcript_and_event_order() {
        let engine = Stellar::standard();
        let w = WorkloadKind::MdWorkbench8K.spec().scaled(0.15);
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 6);
        session.observe(Box::new(SharedRecorder(recorder.clone())));
        let run = session.drain();

        let rec = recorder.borrow();
        // Acceptance criterion: the observer received the same transcript
        // lines TuningRun.transcript records.
        assert_eq!(rec.lines, run.transcript);
        // Event order: initial run, analysis report, then the loop, ended.
        assert_eq!(rec.events.first().map(String::as_str), Some("initial"));
        assert_eq!(rec.events.get(1).map(String::as_str), Some("report"));
        assert_eq!(rec.events.last().map(String::as_str), Some("ended"));
        let attempts = rec.events.iter().filter(|e| *e == "attempt").count();
        assert_eq!(attempts, run.attempts.len());
        assert_eq!(rec.last_tuning_calls, run.tuning_usage.calls);
    }

    #[test]
    fn stepping_yields_initial_run_first_and_is_idempotent_after_end() {
        let engine = Stellar::standard();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 3);
        assert!(!session.is_ended());
        let first = session.step();
        assert!(matches!(first, SessionEvent::InitialRun { wall_secs } if wall_secs > 0.0));
        while !session.is_ended() {
            session.step();
        }
        let again = session.step();
        assert!(matches!(again, SessionEvent::Ended { .. }));
        let run = session.into_run();
        assert!(run.best_speedup >= 1.0);
    }

    /// The tentpole seam at session level: with backend latency injected,
    /// steps return `Waiting` while a turn's call is in flight (state
    /// intact, `is_waiting()` true), observers hear of waits only through
    /// `on_waiting`, and the drained run — events, transcript, usage —
    /// is bit-identical to the instant-backend session.
    #[test]
    fn latency_suspends_steps_but_never_changes_the_run() {
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let drive = |engine: &Stellar| {
            let recorder = Rc::new(RefCell::new(Recorder::default()));
            let mut session = engine.session(w.as_ref(), RuleSet::new(), 9);
            session.observe(Box::new(SharedRecorder(recorder.clone())));
            let mut waiting_steps = 0u64;
            while !session.is_ended() {
                if matches!(session.step(), SessionEvent::Waiting { .. }) {
                    waiting_steps += 1;
                    assert!(session.is_waiting(), "Waiting step leaves gate pending");
                }
            }
            assert!(!session.is_waiting());
            (session.into_run(), recorder, waiting_steps)
        };

        let instant = StellarBuilder::new().build();
        let (run_a, rec_a, waits_a) = drive(&instant);
        let latent = StellarBuilder::new()
            .backend_latency(llmsim::LatencyProfile::uniform(1, 3))
            .build();
        let (run_b, rec_b, waits_b) = drive(&latent);

        assert_eq!(waits_a, 0, "instant backend never suspends");
        assert!(waits_b > 0, "latency must suspend at least one turn");
        assert_eq!(rec_b.borrow().waits, waits_b, "on_waiting per Waiting step");
        // Semantic stream and result: bit-identical across the seam.
        assert_eq!(rec_a.borrow().events, rec_b.borrow().events);
        assert!(!rec_b.borrow().events.contains(&"waiting".to_string()));
        assert_eq!(rec_a.borrow().lines, rec_b.borrow().lines);
        assert_eq!(run_a.transcript, run_b.transcript);
        assert_eq!(run_a.best_wall.to_bits(), run_b.best_wall.to_bits());
        assert_eq!(run_a.best_config, run_b.best_config);
        assert_eq!(run_a.end_reason, run_b.end_reason);
        assert_eq!(run_a.new_rules, run_b.new_rules);
        assert_eq!(run_a.tuning_usage, run_b.tuning_usage);
        assert_eq!(run_a.analysis_usage, run_b.analysis_usage);
    }

    /// A session opened without rules steps through its initial run and
    /// then reports that it needs them, before any backend call goes in
    /// flight. Bound late, under latency and injected failures, it drains
    /// to the run of a session opened with that snapshot.
    #[test]
    fn late_bound_rules_reproduce_an_eagerly_bound_session() {
        let engine = StellarBuilder::new()
            .backend_latency(llmsim::LatencyProfile::uniform(1, 3))
            .failures(llmsim::FailureInjection {
                seed: 3,
                profile: llmsim::FailureProfile {
                    transient_rate: 0.3,
                    fatal_rate: 0.0,
                },
            })
            .retry_policy(RetryPolicy {
                max_attempts: 10,
                backoff_ticks: 1,
            })
            .build();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let mut learned = RuleSet::new();
        Stellar::standard().tune(w.as_ref(), &mut learned, 1);
        let snapshot = RuleSnapshot::from(learned);

        let mut late = TuningSession::with_run_seed(&engine, w.as_ref(), None, 9);
        assert!(!late.needs_rules(), "the initial run reads no rules");
        assert!(matches!(late.step(), SessionEvent::InitialRun { .. }));
        assert!(late.needs_rules());
        assert_eq!(late.in_flight(), 0, "no call goes out before the rules");
        late.bind_rules(snapshot.clone());
        assert!(!late.needs_rules());
        let SessionOutcome::Finished(late) = late.drain_outcome() else {
            panic!("a 10-attempt budget must survive a 0.3 transient rate");
        };
        let eager = TuningSession::with_run_seed(&engine, w.as_ref(), Some(snapshot), 9);
        let SessionOutcome::Finished(eager) = eager.drain_outcome() else {
            panic!("a 10-attempt budget must survive a 0.3 transient rate");
        };
        assert!(
            late.transcript
                .iter()
                .any(|line| line.contains("applying accumulated rule")),
            "the bound snapshot must reach the agent"
        );
        assert_eq!(late, eager);
    }

    /// Aborting a suspended session abandons the in-flight call: the very
    /// next step ends the run (abort takes effect before the next agent
    /// decision, exactly as on the instant path) instead of waiting out
    /// the provider's remaining latency. Pins the full abort contract
    /// under `--backend-latency`: the in-flight `CallHandle` is cancelled
    /// on the backend (`in_flight` drops to 0) and an attached emitter
    /// still writes a well-formed final record.
    #[test]
    fn abort_while_waiting_ends_immediately() {
        let engine = StellarBuilder::new()
            .backend_latency(llmsim::LatencyProfile::fixed(50))
            .build();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let mut emitter = crate::obs::JsonlEmitter::new(Vec::new());
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 4);
        session.observe(Box::new(&mut emitter));
        session.step(); // initial run (ungated simulator work)
        let mut event = session.step(); // analyze turn: call goes in flight
        assert!(matches!(event, SessionEvent::Waiting { .. }));
        assert!(session.is_waiting());
        assert_eq!(session.in_flight(), 1);
        while matches!(event, SessionEvent::Waiting { .. }) {
            event = session.step();
        }
        assert!(matches!(event, SessionEvent::AnalysisReport(_)));
        let event = session.step(); // first agent decision goes in flight
        assert!(matches!(event, SessionEvent::Waiting { .. }));
        assert_eq!(session.in_flight(), 1);
        session.abort("deadline");
        let event = session.step();
        let SessionEvent::Ended { reason } = event else {
            panic!("expected Ended, got {event:?}");
        };
        assert_eq!(reason, "deadline");
        assert!(!session.is_waiting(), "abort cancels the in-flight call");
        assert_eq!(
            session.in_flight(),
            0,
            "the cancelled call is gone from the backend, not leaked"
        );
        let run = session.into_run();
        assert!(run.attempts.is_empty(), "aborted before any attempt");
        // The emitter's record is complete and well-formed: it parses,
        // and its canonical stream ends with the SessionEnd event
        // carrying the abort reason.
        let bytes = emitter.into_inner();
        let text = String::from_utf8(bytes).expect("utf-8 record");
        let record = crate::obs::RunRecord::parse(&text).expect("well-formed final record");
        let events = record.events();
        match events.last() {
            Some(crate::obs::ObsEvent::SessionEnd { reason }) => assert_eq!(reason, "deadline"),
            other => panic!("record must end with SessionEnd, got {other:?}"),
        }
    }

    #[test]
    fn abort_hook_ends_the_run_with_the_caller_reason() {
        let engine = Stellar::standard();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 4);
        session.step(); // initial run
        session.step(); // analysis report
        session.abort("operator requested shutdown");
        let event = session.step();
        let SessionEvent::Ended { reason } = event else {
            panic!("expected Ended, got {event:?}");
        };
        assert_eq!(reason, "operator requested shutdown");
        assert!(session.is_ended());
        let run = session.into_run();
        assert!(run.attempts.is_empty(), "aborted before any attempt");
        assert_eq!(run.end_reason, "operator requested shutdown");
        // Best falls back to the default configuration.
        assert_eq!(run.best_wall.to_bits(), run.default_wall.to_bits());
    }

    /// With every call failing transiently, the session burns its retry
    /// budget and ends in `SessionEvent::Failed` carrying
    /// `RetriesExhausted` — it never panics and never produces a run.
    #[test]
    fn exhausted_retries_fail_the_session_structurally() {
        let engine = StellarBuilder::new()
            .failures(llmsim::FailureInjection {
                seed: 1,
                profile: llmsim::FailureProfile {
                    transient_rate: 1.0,
                    fatal_rate: 0.0,
                },
            })
            .retry_policy(RetryPolicy {
                max_attempts: 3,
                backoff_ticks: 1,
            })
            .build();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 5);
        session.observe(Box::new(SharedRecorder(recorder.clone())));
        let mut last = session.step();
        assert!(matches!(last, SessionEvent::InitialRun { .. }));
        while !session.is_ended() {
            last = session.step();
        }
        let SessionEvent::Failed { error } = &last else {
            panic!("expected Failed, got {last:?}");
        };
        let SessionError::RetriesExhausted { attempts, last, .. } = error else {
            panic!("expected RetriesExhausted, got {error:?}");
        };
        assert_eq!(*attempts, 3, "the full budget was spent");
        assert!(last.is_transient());
        assert!(session.is_failed());
        assert_eq!(session.in_flight(), 0, "no call left dangling");
        // Two resubmissions (attempts 2 and 3) were reported canonically.
        let rec = recorder.borrow();
        assert_eq!(
            rec.retries.iter().map(|(_, n, _)| *n).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(rec.events.last().map(String::as_str), Some("failed"));
        drop(rec);
        // Terminal state is idempotent, like Ended.
        assert!(matches!(session.step(), SessionEvent::Failed { .. }));
        let SessionOutcome::Failed(err) = session.into_outcome() else {
            panic!("outcome must be Failed");
        };
        assert!(matches!(err, SessionError::RetriesExhausted { .. }));
    }

    /// A fatal verdict fails the session on the spot, without consuming
    /// the retry budget.
    #[test]
    fn fatal_calls_fail_without_retrying() {
        let engine = StellarBuilder::new()
            .failures(llmsim::FailureInjection {
                seed: 2,
                profile: llmsim::FailureProfile {
                    transient_rate: 0.0,
                    fatal_rate: 1.0,
                },
            })
            .build();
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        let mut session = engine.session(w.as_ref(), RuleSet::new(), 5);
        session.observe(Box::new(SharedRecorder(recorder.clone())));
        let outcome = session.drain_outcome();
        let SessionOutcome::Failed(SessionError::FatalCall { error, .. }) = outcome else {
            panic!("expected FatalCall, got {outcome:?}");
        };
        assert!(!error.is_transient());
        assert!(recorder.borrow().retries.is_empty(), "fatal never retries");
    }

    /// The deterministic-retry contract: under a mild injection the
    /// session recovers through retries and produces a run bit-identical
    /// across reruns — and identical under any latency profile, because
    /// failure verdicts are drawn per submission index, which latency
    /// cannot shift.
    #[test]
    fn retried_sessions_are_deterministic_and_latency_invariant() {
        let w = WorkloadKind::Ior16M.spec().scaled(0.08);
        let drive = |latency: Option<llmsim::LatencyProfile>| {
            let mut builder = StellarBuilder::new()
                .failures(llmsim::FailureInjection {
                    seed: 3,
                    profile: llmsim::FailureProfile {
                        transient_rate: 0.3,
                        fatal_rate: 0.0,
                    },
                })
                .retry_policy(RetryPolicy {
                    max_attempts: 10,
                    backoff_ticks: 1,
                });
            if let Some(profile) = latency {
                builder = builder.backend_latency(profile);
            }
            let engine = builder.build();
            let recorder = Rc::new(RefCell::new(Recorder::default()));
            let mut session = engine.session(w.as_ref(), RuleSet::new(), 9);
            session.observe(Box::new(SharedRecorder(recorder.clone())));
            let outcome = session.drain_outcome();
            let SessionOutcome::Finished(run) = outcome else {
                panic!("a 10-attempt budget must survive a 0.3 transient rate: {outcome:?}");
            };
            let Ok(rec) = Rc::try_unwrap(recorder) else {
                panic!("the recorder must have a sole owner after the drain");
            };
            let rec = rec.into_inner();
            (run, rec.events, rec.retries)
        };

        let (run_a, events_a, retries_a) = drive(None);
        assert!(!retries_a.is_empty(), "the injection must bite");
        let (run_b, events_b, retries_b) = drive(None);
        assert_eq!(retries_a, retries_b, "same seed, same retry schedule");
        assert_eq!(events_a, events_b);
        assert_eq!(run_a.best_wall.to_bits(), run_b.best_wall.to_bits());
        assert_eq!(run_a.transcript, run_b.transcript);

        let (run_c, events_c, retries_c) = drive(Some(llmsim::LatencyProfile::uniform(1, 3)));
        assert_eq!(retries_a, retries_c, "latency cannot shift the schedule");
        assert_eq!(events_a, events_c);
        assert_eq!(run_a.best_wall.to_bits(), run_c.best_wall.to_bits());
        assert_eq!(run_a.tuning_usage, run_c.tuning_usage);
    }
}
