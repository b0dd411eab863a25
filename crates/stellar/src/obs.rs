//! Observability: structured run records and live campaign progress.
//!
//! Everything the engine streams through [`crate::RunObserver`] and
//! [`crate::CampaignObserver`] can be captured as a durable, typed,
//! machine-checkable artifact — one JSON object per line (JSONL). The
//! module supplies the three consumers the ROADMAP's "observer-driven
//! UIs" item called for:
//!
//! * [`JsonlEmitter`] — an observer that streams every event as a
//!   [`RecordLine`] (CLI `tune --emit` / `campaign --emit`);
//! * [`ProgressRenderer`] — an observer that draws a live per-worker /
//!   per-round status board on stderr (CLI `campaign --progress`);
//! * [`RunRecord`] — the parsed form of an emitted file, able to
//!   re-render the run summary from the record alone (the
//!   `stellar-replay` binary).
//!
//! ## The determinism contract
//!
//! Every line splits into a **canonical** part (`e`, an [`ObsEvent`]) and
//! a **sidecar** part (`t`, a [`Sidecar`]). The canonical stream is
//! *deterministic by construction*: field order is fixed by declaration
//! order, no wall-clock values appear (simulated seconds are results, not
//! timings), session events are latency-invariant (PR 4's seam), and
//! campaign cell events are delivered in grid order at each round's
//! barrier rather than in completion order. Everything measured from the
//! host — elapsed time, worker claims, suspensions, execution order,
//! scheduler telemetry — lives in the sidecar.
//!
//! Strip the sidecar and the record is byte-identical across serial,
//! parallel and latency-injected runs of the same seeded grid:
//!
//! ```sh
//! jq -c 'select(.e != null) | del(.t)' run.jsonl
//! ```
//!
//! which is exactly what the CI `determinism` job diffs (and what
//! [`RunRecord::canonical_jsonl`] reproduces without jq).
//!
//! ## Schema versioning
//!
//! Every line carries `v:` [`SCHEMA_VERSION`]. The version bumps on any
//! change that could alter the meaning of an existing field or the
//! canonical byte stream of an unchanged run — adding an event *variant*
//! included, because externally tagged enums make unknown variants a
//! parse error. Parsers accept exactly their own version: a replay tool
//! from the future must say "record is v1, I speak v2", never guess.

use crate::campaign::{CampaignCell, CampaignGrid, CampaignObserver, CampaignReport, CellFailure};
use crate::engine::{AttemptRecord, TuningRun};
use crate::sched::{RoundSched, Schedule};
use crate::session::{RunObserver, SessionError, SessionEvent};
use agents::{AnalysisQuestion, Answer, IoReport};
use llmsim::{CallError, CallHandle, UsageMeter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, IsTerminal, Write};
use std::path::Path;
use std::time::Instant;

/// Version stamped on every emitted [`RecordLine`] (see the module docs
/// for the bump policy).
///
/// v2: [`ObsEvent::SessionStart`] gained `scenario` (the run regime's
/// scenario labels) and [`ObsEvent::CampaignStart`] gained `faults` (the
/// engine's fault-plan label) — both canonical, since faulted and
/// pristine runs must not record identically.
///
/// v3: the failure domain. New canonical variants [`ObsEvent::Retry`]
/// (a transient backend failure consumed a retry attempt),
/// [`ObsEvent::SessionFailed`] (a session ended with a structured
/// [`SessionError`]) and [`ObsEvent::CellFailed`] (a campaign cell was
/// isolated); [`ObsEvent::CampaignStart`] gained `injection` and `retry`
/// (the failure-injection and retry-policy labels — canonical, because
/// injection changes which cells fail) and [`ObsEvent::CampaignEnd`]
/// gained `failed`. Externally tagged enums make new variants a parse
/// error for old readers, hence the bump.
pub const SCHEMA_VERSION: u32 = 3;

/// A canonical (deterministic) run-record event.
///
/// Session-level variants mirror [`SessionEvent`] — except `Waiting`,
/// which is a scheduling artifact and therefore lives in the sidecar as
/// [`SchedNote::Waiting`], exactly as the live observer API splits
/// [`RunObserver::on_event`] from [`RunObserver::on_waiting`]. Campaign
/// variants are produced by the [`CampaignObserver`] callbacks that fire
/// in grid order on the coordinating thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObsEvent {
    /// A tuning session opened (workload label + fully derived run seed).
    SessionStart {
        /// Workload label.
        workload: String,
        /// The session's fully derived run seed.
        run_seed: u64,
        /// Scenario labels of the run regime (`"degraded-topology"`,
        /// `"noisy-neighbor"`), empty for a pristine single-job run.
        /// Canonical: rules learned under a scenario shard separately,
        /// so the record must say which regime produced it.
        scenario: Vec<String>,
    },
    /// The initial default-configuration execution.
    InitialRun {
        /// Simulated wall time, seconds (a result, not a host timing).
        wall_secs: f64,
    },
    /// The Analysis Agent's initial I/O report.
    AnalysisReport {
        /// The report.
        report: IoReport,
    },
    /// One minor-loop exchange.
    MinorLoop {
        /// The question the Tuning Agent posed.
        question: AnalysisQuestion,
        /// The Analysis Agent's answer.
        answer: Answer,
    },
    /// One configuration attempt.
    Attempt {
        /// The attempt record (config, simulated wall time, speedup).
        record: AttemptRecord,
    },
    /// One transcript line the Tuning Agent narrated.
    Transcript {
        /// The line.
        line: String,
    },
    /// Token-usage growth since the previous `Usage` event of this
    /// session (deltas, not totals — sum them to reconstruct the meters).
    Usage {
        /// Tuning Agent usage delta.
        tuning: UsageMeter,
        /// Analysis Agent usage delta.
        analysis: UsageMeter,
    },
    /// A transient backend failure consumed a retry attempt and the call
    /// was resubmitted. **Canonical**: failure verdicts are drawn per
    /// submission index, so the retry sequence is latency- and
    /// execution-shape-invariant (see [`RunObserver::on_retry`]).
    Retry {
        /// Turn label of the retried logical call.
        context: String,
        /// 1-based submission number of the resubmission.
        attempt: u32,
        /// What the previous submission failed with.
        error: CallError,
    },
    /// The session concluded.
    SessionEnd {
        /// End-Tuning justification (or abort reason).
        reason: String,
    },
    /// The session ended with a structured failure instead of a run —
    /// terminal, in place of [`ObsEvent::SessionEnd`].
    SessionFailed {
        /// What ended the session.
        error: SessionError,
    },
    /// A campaign grid is about to execute. Deliberately excludes worker
    /// count and schedule policy — execution details are sidecar-only, so
    /// serial and parallel runs stay canonically identical.
    CampaignStart {
        /// Workload labels, grid order.
        workloads: Vec<String>,
        /// Grid seeds, round order.
        seeds: Vec<u64>,
        /// Rule-sharing mode label (`cold` / `warm`).
        mode: String,
        /// Label of the engine's fault plan, `None` on a pristine
        /// cluster. Canonical — faults change simulated results.
        faults: Option<String>,
        /// Label of the engine's failure injection, `None` on a perfect
        /// backend. Canonical — injection changes which cells fail.
        injection: Option<String>,
        /// Label of the engine's retry policy, present exactly when
        /// `injection` is. Canonical — the budget decides survival.
        retry: Option<String>,
    },
    /// A seed round is about to execute.
    RoundStart {
        /// The round's grid seed.
        seed: u64,
    },
    /// One finished campaign cell, in grid order at the round barrier.
    CellFinished {
        /// Workload label.
        workload: String,
        /// Grid seed.
        seed: u64,
        /// Derived per-cell seed.
        cell_seed: u64,
        /// The complete tuning run, transcript and usage included.
        run: TuningRun,
    },
    /// One *failed* campaign cell, in grid order at the round barrier —
    /// the isolated sibling of [`ObsEvent::CellFinished`].
    CellFailed {
        /// Workload label.
        workload: String,
        /// Grid seed.
        seed: u64,
        /// Derived per-cell seed.
        cell_seed: u64,
        /// What isolated the cell.
        failure: CellFailure,
    },
    /// One cell's learned rules merged into the campaign store.
    RuleMerge {
        /// Workload whose rules merged.
        workload: String,
        /// Rules the cell learned.
        added: usize,
        /// Store size after the merge.
        total: usize,
    },
    /// The campaign's aggregate outcome.
    CampaignEnd {
        /// Cells executed (finished and failed).
        cells: usize,
        /// Application executions (initial runs + attempts) of finished
        /// cells.
        evaluations: usize,
        /// Mean best speedup across finished cells.
        mean_best_speedup: f64,
        /// Final rule count.
        rules: usize,
        /// Final shard count.
        shards: usize,
        /// Cells that failed (0 on a clean campaign).
        failed: usize,
    },
}

/// The grid's canonical half. Workers and schedule are execution details:
/// telemetry, not canon (serial and parallel runs must emit identical
/// canonical streams). They reach the record via `RoundPlanned` notes.
impl From<&CampaignGrid> for ObsEvent {
    fn from(grid: &CampaignGrid) -> Self {
        ObsEvent::CampaignStart {
            workloads: grid.workloads.clone(),
            seeds: grid.seeds.clone(),
            mode: grid.mode.label().to_string(),
            faults: grid.faults.clone(),
            injection: grid.injection.clone(),
            retry: grid.retry.clone(),
        }
    }
}

/// A scheduling/timing note — the non-deterministic half of the record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedNote {
    /// The session is suspended on an in-flight backend call.
    Waiting {
        /// Raw call handle id.
        call: u64,
    },
    /// The execution order planned for a round.
    RoundPlanned {
        /// Grid seed.
        seed: u64,
        /// Cell-order label ([`Schedule::label`]).
        schedule: String,
        /// Grid indices, first-claimed first.
        order: Vec<usize>,
    },
    /// A worker claimed a cell.
    CellClaimed {
        /// Worker index.
        worker: usize,
        /// Grid seed.
        seed: u64,
        /// Grid index of the cell.
        grid_idx: usize,
        /// Workload label.
        workload: String,
    },
    /// A cell suspended on an in-flight backend call.
    CellSuspended {
        /// Worker index.
        worker: usize,
        /// Grid seed.
        seed: u64,
        /// Grid index of the cell.
        grid_idx: usize,
        /// Raw call handle id.
        call: u64,
    },
    /// A worker finished a cell.
    CellPublished {
        /// Worker index.
        worker: usize,
        /// Grid seed.
        seed: u64,
        /// Grid index of the cell.
        grid_idx: usize,
        /// Active stepping time the worker spent on the cell.
        busy_secs: f64,
    },
    /// A round's measured scheduling record.
    RoundStats {
        /// Grid seed.
        seed: u64,
        /// The round's window (previous round's completion to its own),
        /// host seconds.
        makespan_secs: f64,
        /// Worker busy fraction.
        utilization: f64,
        /// Peak simultaneously in-flight backend calls on one worker.
        max_in_flight: usize,
        /// Active per-cell seconds, grid order.
        cell_secs: Vec<f64>,
    },
}

/// The timing sidecar attached to every line. The determinism diff
/// strips this field wholesale (`jq 'del(.t)'`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sidecar {
    /// Host seconds elapsed since the previous emitted line.
    pub host_secs: f64,
    /// Scheduling note, when this line is telemetry rather than a
    /// canonical event.
    pub note: Option<SchedNote>,
}

/// One line of a run record: schema version, optional canonical event,
/// optional sidecar. Emitted lines always carry the sidecar; exactly one
/// of `e`/`t.note` is populated per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordLine {
    /// Schema version ([`SCHEMA_VERSION`] at emission time).
    pub v: u32,
    /// Canonical event (`null` on telemetry-only lines).
    pub e: Option<ObsEvent>,
    /// Timing sidecar.
    pub t: Option<Sidecar>,
}

/// The stripped form the determinism diff compares: version + canonical
/// event, sidecar removed. Serialized, this matches
/// `jq -c 'select(.e != null) | del(.t)'` byte for byte. (Hand-written
/// impl: the vendored serde derive does not support lifetime generics.)
struct CanonLine<'a> {
    v: u32,
    e: &'a ObsEvent,
}

impl Serialize for CanonLine<'_> {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("v".to_string(), self.v.to_content()),
            ("e".to_string(), self.e.to_content()),
        ])
    }
}

/// A parsed run record: the typed form of an emitted JSONL file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Every line, in file order.
    pub lines: Vec<RecordLine>,
}

impl RunRecord {
    /// Parse a JSONL document. Rejects lines whose schema version is not
    /// exactly [`SCHEMA_VERSION`] (see the module docs' version policy)
    /// and reports the first malformed line with its 1-based number.
    pub fn parse(text: &str) -> Result<RunRecord, String> {
        /// Version-only probe, checked *before* the full line parses: a
        /// future-version record with event variants this reader doesn't
        /// know must report the version mismatch, not an unknown-variant
        /// parse error.
        #[derive(Deserialize)]
        struct VersionProbe {
            v: u32,
        }
        let mut lines = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let probe: VersionProbe =
                serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", i + 1))?;
            if probe.v != SCHEMA_VERSION {
                return Err(format!(
                    "line {}: record is schema v{}, this reader speaks v{SCHEMA_VERSION}",
                    i + 1,
                    probe.v
                ));
            }
            let line: RecordLine =
                serde_json::from_str(raw).map_err(|e| format!("line {}: {e}", i + 1))?;
            lines.push(line);
        }
        Ok(RunRecord { lines })
    }

    /// Read and parse a record file.
    pub fn load(path: impl AsRef<Path>) -> Result<RunRecord, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parse a *partial* record — one whose writer was interrupted
    /// mid-line. Exactly like [`RunRecord::parse`], except a malformed
    /// **final** line (the torn write) is dropped instead of failing the
    /// parse. Corruption anywhere else is still an error: only the tail
    /// of an append-only file can be crash-torn. This is the entry point
    /// [`crate::Campaign::resume_from`] expects.
    pub fn parse_partial(text: &str) -> Result<RunRecord, String> {
        match Self::parse(text) {
            Ok(record) => Ok(record),
            Err(err) => {
                let last_line = text
                    .lines()
                    .enumerate()
                    .filter(|(_, raw)| !raw.trim().is_empty())
                    .map(|(i, _)| i + 1)
                    .last();
                let torn_tail = last_line.is_some_and(|n| err.starts_with(&format!("line {n}:")));
                if !torn_tail {
                    return Err(err);
                }
                let keep: String = text
                    .lines()
                    .take(last_line.expect("checked above") - 1)
                    .flat_map(|l| [l, "\n"])
                    .collect();
                Self::parse(&keep)
            }
        }
    }

    /// Read and partially parse a record file (see
    /// [`RunRecord::parse_partial`]).
    pub fn load_partial(path: impl AsRef<Path>) -> Result<RunRecord, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse_partial(&text)
    }

    /// Re-emit the record as JSONL, byte-identical to what the emitter
    /// wrote (the round-trip property test pins `parse ∘ to_jsonl` as the
    /// identity).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(&serde_json::to_string(line).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// The canonical stream: every event-bearing line with the sidecar
    /// stripped — the same bytes the CI determinism job produces with
    /// `jq -c 'select(.e != null) | del(.t)'` (modulo jq's own number
    /// re-rendering, which is applied uniformly to both sides of its
    /// diff).
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            if let Some(e) = &line.e {
                let canon = CanonLine { v: line.v, e };
                out.push_str(&serde_json::to_string(&canon).expect("record serializes"));
                out.push('\n');
            }
        }
        out
    }

    /// Canonical events, in record order.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.lines.iter().filter_map(|l| l.e.as_ref())
    }

    /// Sidecar notes, in record order.
    pub fn notes(&self) -> impl Iterator<Item = &SchedNote> {
        self.lines
            .iter()
            .filter_map(|l| l.t.as_ref().and_then(|t| t.note.as_ref()))
    }

    /// Total host seconds across all lines' sidecars.
    pub fn host_secs(&self) -> f64 {
        self.lines
            .iter()
            .filter_map(|l| l.t.as_ref().map(|t| t.host_secs))
            .sum()
    }

    /// Re-render the run summary from the record alone.
    ///
    /// For campaign records the per-cell table and trailer reproduce
    /// [`CampaignReport::render`] byte for byte (pinned by
    /// `tests/integration_obs.rs`); session records summarize the
    /// attempts and outcome. A telemetry coda (suspensions, host time)
    /// derived from the sidecar follows either way.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if self.events().any(|e| {
            matches!(
                e,
                ObsEvent::CellFinished { .. }
                    | ObsEvent::CellFailed { .. }
                    | ObsEvent::CampaignStart { .. }
            )
        }) {
            out.push_str(&self.campaign_table());
        } else {
            out.push_str(&self.session_summary());
        }
        let waits = self
            .notes()
            .filter(|n| {
                matches!(
                    n,
                    SchedNote::Waiting { .. } | SchedNote::CellSuspended { .. }
                )
            })
            .count();
        out.push_str(&format!(
            "record: {} line(s), {} canonical event(s), {} suspension(s), {:.3}s host time\n",
            self.lines.len(),
            self.events().count(),
            waits,
            self.host_secs(),
        ));
        out
    }

    /// The per-cell table + trailer of a campaign record, built from the
    /// same format strings as [`CampaignReport::render`]
    /// (`campaign::table`), so replayed output is byte-identical to the
    /// live report by construction.
    fn campaign_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&crate::campaign::table::header());
        for e in self.events() {
            match e {
                ObsEvent::CellFinished {
                    workload,
                    seed,
                    run,
                    ..
                } => {
                    out.push_str(&crate::campaign::table::row(
                        workload,
                        *seed,
                        run.attempts.len(),
                        run.best_wall,
                        run.best_speedup,
                    ));
                }
                ObsEvent::CellFailed { workload, seed, .. } => {
                    out.push_str(&crate::campaign::table::failed_row(workload, *seed));
                }
                _ => {}
            }
        }
        if let Some(ObsEvent::CampaignEnd {
            cells,
            evaluations,
            mean_best_speedup,
            rules,
            shards,
            failed,
        }) = self
            .events()
            .find(|e| matches!(e, ObsEvent::CampaignEnd { .. }))
        {
            out.push_str(&crate::campaign::table::trailer(
                *mean_best_speedup,
                *cells,
                *evaluations,
                *rules,
                *shards,
                *failed,
            ));
        }
        out
    }

    fn session_summary(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            match e {
                ObsEvent::SessionStart {
                    workload,
                    run_seed,
                    scenario,
                } => {
                    if scenario.is_empty() {
                        out.push_str(&format!("workload: {workload} (run seed {run_seed})\n"));
                    } else {
                        out.push_str(&format!(
                            "workload: {workload} (run seed {run_seed}; scenario: {})\n",
                            scenario.join(", ")
                        ));
                    }
                }
                ObsEvent::InitialRun { wall_secs } => {
                    out.push_str(&format!("default: {wall_secs:.3}s\n"));
                }
                ObsEvent::Attempt { record } => {
                    out.push_str(&format!(
                        "  attempt {}: {:.3}s (x{:.2})\n",
                        record.iteration, record.wall_secs, record.speedup
                    ));
                }
                ObsEvent::Retry {
                    context,
                    attempt,
                    error,
                } => {
                    out.push_str(&format!("  retry {attempt} at {context}: {error}\n"));
                }
                ObsEvent::SessionFailed { error } => {
                    out.push_str(&format!("failed: {error}\n"));
                }
                ObsEvent::SessionEnd { reason } => {
                    let attempts = self
                        .events()
                        .filter(|e| matches!(e, ObsEvent::Attempt { .. }))
                        .count();
                    let best = self
                        .events()
                        .filter_map(|e| match e {
                            ObsEvent::Attempt { record } => Some(record.speedup),
                            _ => None,
                        })
                        .fold(1.0f64, f64::max);
                    out.push_str(&format!(
                        "best: x{best:.2} in {attempts} attempts — {reason}\n"
                    ));
                }
                ObsEvent::RuleMerge { added, total, .. } => {
                    out.push_str(&format!("rules: {added} learned, {total} in store\n"));
                }
                _ => {}
            }
        }
        out
    }
}

/// An observer that streams every event as one JSON object per line.
///
/// Implements both [`RunObserver`] (attach with
/// [`crate::TuningSession::observe`]) and [`CampaignObserver`] (attach
/// with [`crate::Campaign::observe`]); both impls also exist for
/// `&mut JsonlEmitter`, so callers can lend the emitter to a session or
/// campaign and keep using it afterwards (e.g. to append a
/// [`ObsEvent::RuleMerge`] after merging a finished run's rules, as the
/// CLI does).
///
/// Write failures panic: a run record that silently loses lines is worse
/// than no record.
pub struct JsonlEmitter<W: Write> {
    writer: W,
    clock: Instant,
    prev_tuning: UsageMeter,
    prev_analysis: UsageMeter,
    /// The in-flight call already noted as waiting, if any: sessions call
    /// `on_waiting` once per *poll*, but the record notes one line per
    /// *suspension* (matching the campaign side's transition-only
    /// `on_cell_suspended`), so a 50-tick latency doesn't write 50 lines.
    last_wait: Option<u64>,
    lines: u64,
}

impl JsonlEmitter<BufWriter<File>> {
    /// Emitter writing to a freshly created (truncated) file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlEmitter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlEmitter<W> {
    /// Emitter over any byte sink.
    pub fn new(writer: W) -> Self {
        JsonlEmitter {
            writer,
            // detlint::allow(D001): the obs sidecar is the one sanctioned home for
            // host timing; canonical events never read this clock
            clock: Instant::now(),
            prev_tuning: UsageMeter::default(),
            prev_analysis: UsageMeter::default(),
            last_wait: None,
            lines: 0,
        }
    }

    /// Lines emitted so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush the underlying writer.
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Unwrap the underlying writer (tests read the bytes back).
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Append a canonical event line.
    pub fn event(&mut self, e: ObsEvent) {
        // Any canonical session event means the suspended turn (if any)
        // completed; the next wait is a new suspension.
        self.last_wait = None;
        self.write_line(Some(e), None);
    }

    /// Note a wait, once per suspension: repeated polls of the same
    /// in-flight call add no lines.
    fn note_waiting(&mut self, call: u64) {
        if self.last_wait != Some(call) {
            self.last_wait = Some(call);
            self.telemetry(SchedNote::Waiting { call });
        }
    }

    /// Append a telemetry-only line.
    pub fn telemetry(&mut self, note: SchedNote) {
        self.write_line(None, Some(note));
    }

    fn write_line(&mut self, e: Option<ObsEvent>, note: Option<SchedNote>) {
        let host_secs = self.clock.elapsed().as_secs_f64();
        // detlint::allow(D001): sidecar `t.host_secs` refresh — stripped by
        // canonical_jsonl(), byte-equality is asserted on the stripped stream
        self.clock = Instant::now();
        let line = RecordLine {
            v: SCHEMA_VERSION,
            e,
            t: Some(Sidecar { host_secs, note }),
        };
        let json = serde_json::to_string(&line).expect("record line serializes");
        writeln!(self.writer, "{json}").expect("run record write failed");
        self.lines += 1;
    }

    /// Emit the delta between the previous and current usage snapshots
    /// (skipped when nothing changed, so waiting polls stay silent).
    fn usage_delta(&mut self, tuning: &UsageMeter, analysis: &UsageMeter) {
        fn delta(now: &UsageMeter, prev: &UsageMeter) -> UsageMeter {
            UsageMeter {
                input_tokens: now.input_tokens - prev.input_tokens,
                cached_input_tokens: now.cached_input_tokens - prev.cached_input_tokens,
                output_tokens: now.output_tokens - prev.output_tokens,
                calls: now.calls - prev.calls,
            }
        }
        let dt = delta(tuning, &self.prev_tuning);
        let da = delta(analysis, &self.prev_analysis);
        if dt == UsageMeter::default() && da == UsageMeter::default() {
            return;
        }
        self.prev_tuning = tuning.clone();
        self.prev_analysis = analysis.clone();
        self.event(ObsEvent::Usage {
            tuning: dt,
            analysis: da,
        });
    }
}

impl<W: Write> RunObserver for JsonlEmitter<W> {
    fn on_session_start(&mut self, workload: &str, run_seed: u64, scenario: &[&'static str]) {
        // Fresh per-session usage baselines: deltas are per session.
        self.prev_tuning = UsageMeter::default();
        self.prev_analysis = UsageMeter::default();
        self.event(ObsEvent::SessionStart {
            workload: workload.to_string(),
            run_seed,
            scenario: scenario.iter().map(|s| s.to_string()).collect(),
        });
    }

    fn on_event(&mut self, event: &SessionEvent) {
        let e = match event {
            SessionEvent::InitialRun { wall_secs } => ObsEvent::InitialRun {
                wall_secs: *wall_secs,
            },
            SessionEvent::AnalysisReport(report) => ObsEvent::AnalysisReport {
                report: report.clone(),
            },
            SessionEvent::MinorLoopQuestion { question, answer } => ObsEvent::MinorLoop {
                question: *question,
                answer: answer.clone(),
            },
            SessionEvent::Attempt(record) => ObsEvent::Attempt {
                record: record.clone(),
            },
            // Defensive: sessions report waits via on_waiting, never
            // on_event (pinned by session tests) — but a hand-driven
            // caller forwarding events manually still lands in the
            // sidecar, keeping the canonical stream latency-invariant.
            SessionEvent::Waiting { call } => {
                self.note_waiting(call.id());
                return;
            }
            SessionEvent::Ended { reason } => ObsEvent::SessionEnd {
                reason: reason.clone(),
            },
            SessionEvent::Failed { error } => ObsEvent::SessionFailed {
                error: error.clone(),
            },
        };
        self.event(e);
    }

    fn on_transcript(&mut self, line: &str) {
        self.event(ObsEvent::Transcript {
            line: line.to_string(),
        });
    }

    fn on_usage(&mut self, tuning: &UsageMeter, analysis: &UsageMeter) {
        self.usage_delta(tuning, analysis);
    }

    fn on_waiting(&mut self, call: CallHandle) {
        self.note_waiting(call.id());
    }

    fn on_retry(&mut self, context: &str, attempt: u32, error: &CallError) {
        self.event(ObsEvent::Retry {
            context: context.to_string(),
            attempt,
            error: error.clone(),
        });
    }
}

impl<W: Write> RunObserver for &mut JsonlEmitter<W> {
    fn on_session_start(&mut self, workload: &str, run_seed: u64, scenario: &[&'static str]) {
        (**self).on_session_start(workload, run_seed, scenario);
    }
    fn on_event(&mut self, event: &SessionEvent) {
        (**self).on_event(event);
    }
    fn on_transcript(&mut self, line: &str) {
        (**self).on_transcript(line);
    }
    fn on_usage(&mut self, tuning: &UsageMeter, analysis: &UsageMeter) {
        (**self).on_usage(tuning, analysis);
    }
    fn on_waiting(&mut self, call: CallHandle) {
        (**self).on_waiting(call);
    }
    fn on_retry(&mut self, context: &str, attempt: u32, error: &CallError) {
        (**self).on_retry(context, attempt, error);
    }
}

impl<W: Write + Send> CampaignObserver for JsonlEmitter<W> {
    fn on_campaign_start(&mut self, grid: &CampaignGrid) {
        self.event(ObsEvent::from(grid));
    }

    fn on_round_start(&mut self, seed: u64) {
        self.event(ObsEvent::RoundStart { seed });
    }

    fn on_round_planned(&mut self, seed: u64, schedule: Schedule, order: &[usize]) {
        self.telemetry(SchedNote::RoundPlanned {
            seed,
            schedule: schedule.label().to_string(),
            order: order.to_vec(),
        });
    }

    fn on_cell_claimed(&mut self, worker: usize, seed: u64, grid_idx: usize, workload: &str) {
        self.telemetry(SchedNote::CellClaimed {
            worker,
            seed,
            grid_idx,
            workload: workload.to_string(),
        });
    }

    fn on_cell_suspended(&mut self, worker: usize, seed: u64, grid_idx: usize, call: CallHandle) {
        self.telemetry(SchedNote::CellSuspended {
            worker,
            seed,
            grid_idx,
            call: call.id(),
        });
    }

    fn on_cell_published(&mut self, worker: usize, seed: u64, grid_idx: usize, busy_secs: f64) {
        self.telemetry(SchedNote::CellPublished {
            worker,
            seed,
            grid_idx,
            busy_secs,
        });
    }

    fn on_cell_finished(&mut self, cell: &CampaignCell) {
        self.event(ObsEvent::CellFinished {
            workload: cell.workload.clone(),
            seed: cell.seed,
            cell_seed: cell.cell_seed,
            run: cell
                .run()
                .expect("on_cell_finished carries a finished cell")
                .clone(),
        });
    }

    fn on_cell_failed(&mut self, cell: &CampaignCell) {
        self.event(ObsEvent::CellFailed {
            workload: cell.workload.clone(),
            seed: cell.seed,
            cell_seed: cell.cell_seed,
            failure: cell
                .failure()
                .expect("on_cell_failed carries a failed cell")
                .clone(),
        });
    }

    fn on_rules_merged(&mut self, workload: &str, added: usize, total: usize) {
        self.event(ObsEvent::RuleMerge {
            workload: workload.to_string(),
            added,
            total,
        });
    }

    fn on_round_finished(&mut self, round: &RoundSched) {
        self.telemetry(SchedNote::RoundStats {
            seed: round.seed,
            makespan_secs: round.makespan_secs,
            utilization: round.utilization,
            max_in_flight: round.max_in_flight,
            cell_secs: round.cell_secs.clone(),
        });
    }

    fn on_campaign_end(&mut self, report: &CampaignReport) {
        self.event(ObsEvent::CampaignEnd {
            cells: report.cells.len(),
            evaluations: report.total_evaluations(),
            mean_best_speedup: report.mean_best_speedup(),
            rules: report.rules.len(),
            shards: report.rule_store.shard_count(),
            failed: report.failed_cells().len(),
        });
        // Best-effort flush so owned (moved-in) emitters persist without
        // further calls. Deliberately not .expect(): a flush failure here
        // would panic inside Campaign::execute and shadow the caller's
        // own error path — callers that need the result should lend
        // `&mut emitter` and check `finish()` afterwards, as the CLI
        // does (a buffered-writer flush error sticks: the retry there
        // reports it).
        let _ = self.finish();
    }
}

impl<W: Write + Send> CampaignObserver for &mut JsonlEmitter<W> {
    fn on_campaign_start(&mut self, grid: &CampaignGrid) {
        (**self).on_campaign_start(grid);
    }
    fn on_round_start(&mut self, seed: u64) {
        (**self).on_round_start(seed);
    }
    fn on_round_planned(&mut self, seed: u64, schedule: Schedule, order: &[usize]) {
        (**self).on_round_planned(seed, schedule, order);
    }
    fn on_cell_claimed(&mut self, worker: usize, seed: u64, grid_idx: usize, workload: &str) {
        (**self).on_cell_claimed(worker, seed, grid_idx, workload);
    }
    fn on_cell_suspended(&mut self, worker: usize, seed: u64, grid_idx: usize, call: CallHandle) {
        (**self).on_cell_suspended(worker, seed, grid_idx, call);
    }
    fn on_cell_published(&mut self, worker: usize, seed: u64, grid_idx: usize, busy_secs: f64) {
        (**self).on_cell_published(worker, seed, grid_idx, busy_secs);
    }
    fn on_cell_finished(&mut self, cell: &CampaignCell) {
        (**self).on_cell_finished(cell);
    }
    fn on_cell_failed(&mut self, cell: &CampaignCell) {
        (**self).on_cell_failed(cell);
    }
    fn on_rules_merged(&mut self, workload: &str, added: usize, total: usize) {
        (**self).on_rules_merged(workload, added, total);
    }
    fn on_round_finished(&mut self, round: &RoundSched) {
        (**self).on_round_finished(round);
    }
    fn on_campaign_end(&mut self, report: &CampaignReport) {
        (**self).on_campaign_end(report);
    }
}

/// A live per-worker / per-round status board, driven by the same
/// [`CampaignObserver`] stream the emitter records.
///
/// On a TTY ([`ProgressRenderer::stderr`] when stderr is a terminal) the
/// board redraws in place with ANSI cursor movement; otherwise it
/// degrades to plain progress lines (one per claim/publish/round), which
/// is what CI logs capture. Writes to stderr by design: campaign stdout
/// stays bit-identical across reruns (the workspace invariant).
pub struct ProgressRenderer<W: Write + Send> {
    out: W,
    live: bool,
    workloads: Vec<String>,
    rounds_total: usize,
    rounds_done: usize,
    current_seed: u64,
    /// Per-worker held cells: `(seed, grid_idx, state)` per cell the
    /// worker holds. A worker can hold a parked next-round cell beside the
    /// cell it steps, so one display slot per worker would misreport.
    worker_cells: Vec<Vec<(u64, usize, String)>>,
    /// Published cells per grid seed. A next-round cell can finish before
    /// its round starts, so each publish counts under its own seed, not
    /// under the round the board shows.
    done_by_seed: BTreeMap<u64, usize>,
    total_done: usize,
    /// Lines the last live draw used (to rewind the cursor).
    drawn: usize,
}

impl ProgressRenderer<std::io::Stderr> {
    /// Renderer on stderr, live when stderr is a terminal.
    pub fn stderr() -> Self {
        let live = std::io::stderr().is_terminal();
        ProgressRenderer::new(std::io::stderr(), live)
    }
}

impl<W: Write + Send> ProgressRenderer<W> {
    /// Renderer over any sink. `live` enables in-place ANSI redraws.
    pub fn new(out: W, live: bool) -> Self {
        ProgressRenderer {
            out,
            live,
            workloads: Vec::new(),
            rounds_total: 0,
            rounds_done: 0,
            current_seed: 0,
            worker_cells: Vec::new(),
            done_by_seed: BTreeMap::new(),
            total_done: 0,
            drawn: 0,
        }
    }

    /// Cells of round `seed` published so far.
    fn done(&self, seed: u64) -> usize {
        self.done_by_seed.get(&seed).copied().unwrap_or(0)
    }

    fn label(&self, grid_idx: usize) -> String {
        self.workloads
            .get(grid_idx)
            .map_or_else(|| "?".to_string(), String::clone)
    }

    /// Set the board state of the cell `worker` holds at `(seed, grid_idx)`.
    fn set_state(&mut self, worker: usize, seed: u64, grid_idx: usize, state: String) {
        if let Some(cells) = self.worker_cells.get_mut(worker) {
            if let Some(cell) = cells
                .iter_mut()
                .find(|(s, i, _)| (*s, *i) == (seed, grid_idx))
            {
                cell.2 = state;
            }
        }
    }

    fn say(&mut self, line: &str) {
        // Progress is advisory: a broken stderr pipe must not kill the
        // campaign, unlike a broken run-record file.
        let _ = writeln!(self.out, "{line}");
    }

    fn redraw(&mut self) {
        if !self.live {
            return;
        }
        let mut board = String::new();
        if self.drawn > 0 {
            // Rewind over the previous board and clear downwards.
            board.push_str(&format!("\x1b[{}F\x1b[0J", self.drawn));
        }
        let head = format!(
            "round {}/{} (seed {}) — {}/{} cells done ({} total)",
            (self.rounds_done + 1).min(self.rounds_total.max(1)),
            self.rounds_total,
            self.current_seed,
            self.done(self.current_seed),
            self.workloads.len(),
            self.total_done,
        );
        board.push_str(&head);
        board.push('\n');
        for (w, cells) in self.worker_cells.iter().enumerate() {
            let state = if cells.is_empty() {
                "idle".to_string()
            } else {
                cells
                    .iter()
                    .map(|(_, _, s)| s.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            };
            board.push_str(&format!("  w{w}: {state}\n"));
        }
        self.drawn = 1 + self.worker_cells.len();
        let _ = write!(self.out, "{board}");
        let _ = self.out.flush();
    }
}

impl<W: Write + Send> CampaignObserver for ProgressRenderer<W> {
    fn on_campaign_start(&mut self, grid: &CampaignGrid) {
        self.workloads = grid.workloads.clone();
        self.rounds_total = grid.seeds.len();
        self.worker_cells = vec![Vec::new(); grid.workers];
        self.say(&format!(
            "campaign: {} workload(s) x {} seed(s), {} rules, {} over {} worker(s)",
            grid.workloads.len(),
            grid.seeds.len(),
            grid.mode.label(),
            grid.schedule.label(),
            grid.workers,
        ));
    }

    fn on_round_start(&mut self, seed: u64) {
        self.current_seed = seed;
        if !self.live {
            let done = self.done(seed);
            let ahead = if done > 0 {
                format!(", {done}/{} cell(s) already done", self.workloads.len())
            } else {
                String::new()
            };
            self.say(&format!(
                "round {}/{}: seed {seed}{ahead}",
                self.rounds_done + 1,
                self.rounds_total
            ));
        }
        self.redraw();
    }

    fn on_cell_claimed(&mut self, worker: usize, seed: u64, grid_idx: usize, workload: &str) {
        if let Some(cells) = self.worker_cells.get_mut(worker) {
            cells.push((seed, grid_idx, format!("tuning {workload} (seed {seed})")));
        }
        if !self.live {
            self.say(&format!("  w{worker} > {workload} (seed {seed})"));
        }
        self.redraw();
    }

    fn on_cell_suspended(&mut self, worker: usize, seed: u64, grid_idx: usize, call: CallHandle) {
        let label = self.label(grid_idx);
        let state = format!("{label} waiting on call #{}", call.id());
        self.set_state(worker, seed, grid_idx, state);
        if !self.live {
            self.say(&format!(
                "  w{worker} ~ {label} waiting on call #{}",
                call.id()
            ));
        }
        self.redraw();
    }

    fn on_cell_parked(&mut self, worker: usize, seed: u64, grid_idx: usize) {
        let label = self.label(grid_idx);
        let state = format!("{label} (seed {seed}) waiting for rules");
        self.set_state(worker, seed, grid_idx, state);
        if !self.live {
            self.say(&format!(
                "  w{worker} | {label} (seed {seed}) waiting for rules"
            ));
        }
        self.redraw();
    }

    fn on_cell_published(&mut self, worker: usize, seed: u64, grid_idx: usize, busy_secs: f64) {
        *self.done_by_seed.entry(seed).or_insert(0) += 1;
        self.total_done += 1;
        let label = self.label(grid_idx);
        if let Some(cells) = self.worker_cells.get_mut(worker) {
            cells.retain(|&(s, i, _)| (s, i) != (seed, grid_idx));
        }
        if !self.live {
            self.say(&format!(
                "  w{worker} = {label} done in {busy_secs:.3}s ({}/{} of seed {seed})",
                self.done(seed),
                self.workloads.len()
            ));
        }
        self.redraw();
    }

    fn on_cell_failed(&mut self, cell: &CampaignCell) {
        if !self.live {
            let failure = cell
                .failure()
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unknown failure".to_string());
            self.say(&format!(
                "  ! {} (seed {}) failed: {failure}",
                cell.workload, cell.seed
            ));
        }
        self.redraw();
    }

    fn on_round_finished(&mut self, round: &RoundSched) {
        self.rounds_done += 1;
        if !self.live {
            self.say(&format!(
                "round seed {} finished: makespan {:.3}s, utilization {:.0}%, in-flight peak {}",
                round.seed,
                round.makespan_secs,
                round.utilization * 100.0,
                round.max_in_flight,
            ));
        }
        self.redraw();
    }

    fn on_campaign_end(&mut self, report: &CampaignReport) {
        if self.live && self.drawn > 0 {
            // Leave the final board in place; just step past it.
            let _ = writeln!(self.out);
            self.drawn = 0;
        }
        let failed = report.failed_cells().len();
        let failed_note = if failed > 0 {
            format!(", {failed} failed")
        } else {
            String::new()
        };
        self.say(&format!(
            "campaign done: {} cell(s){failed_note}, mean speedup x{:.2}",
            report.cells.len(),
            report.mean_best_speedup(),
        ));
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            lines: vec![
                RecordLine {
                    v: SCHEMA_VERSION,
                    e: Some(ObsEvent::SessionStart {
                        workload: "IOR_16M".into(),
                        run_seed: 7,
                        scenario: vec![],
                    }),
                    t: Some(Sidecar {
                        host_secs: 0.25,
                        note: None,
                    }),
                },
                RecordLine {
                    v: SCHEMA_VERSION,
                    e: None,
                    t: Some(Sidecar {
                        host_secs: 0.5,
                        note: Some(SchedNote::Waiting { call: 3 }),
                    }),
                },
                RecordLine {
                    v: SCHEMA_VERSION,
                    e: Some(ObsEvent::SessionEnd {
                        reason: "done".into(),
                    }),
                    t: Some(Sidecar {
                        host_secs: 0.25,
                        note: None,
                    }),
                },
            ],
        }
    }

    #[test]
    fn record_roundtrips_and_canonicalizes() {
        let rec = sample_record();
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        let back = RunRecord::parse(&jsonl).expect("parses");
        assert_eq!(back, rec);
        // Canonical stream: telemetry line dropped, sidecar stripped.
        let canon = rec.canonical_jsonl();
        assert_eq!(canon.lines().count(), 2);
        assert!(!canon.contains("host_secs"), "{canon}");
        assert!(!canon.contains("Waiting"), "{canon}");
        assert!(
            canon.starts_with("{\"v\":3,\"e\":{\"SessionStart\""),
            "{canon}"
        );
        assert!((rec.host_secs() - 1.0).abs() < 1e-12);
        assert_eq!(rec.notes().count(), 1);
    }

    #[test]
    fn parser_rejects_foreign_schema_versions() {
        let mut rec = sample_record();
        rec.lines[1].v = SCHEMA_VERSION + 1;
        let err = RunRecord::parse(&rec.to_jsonl()).expect_err("must reject");
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("schema v4"), "{err}");
        // Malformed JSON reports its line too.
        let err = RunRecord::parse("{\"v\":3,\"e\":null,\"t\":null}\nnot json\n")
            .expect_err("must reject");
        assert!(err.starts_with("line 2"), "{err}");
        // A future-version line with an event variant this reader does
        // not know must still report the version, not a parse error —
        // the version probe runs before full deserialization.
        let err = RunRecord::parse("{\"v\":4,\"e\":{\"FromTheFuture\":{}},\"t\":null}\n")
            .expect_err("must reject");
        assert!(err.contains("record is schema v4"), "{err}");
        // A v2 record (pre-failure-domain schema) is likewise foreign now.
        let err = RunRecord::parse("{\"v\":2,\"e\":null,\"t\":null}\n").expect_err("must reject");
        assert!(err.contains("record is schema v2"), "{err}");
    }

    /// The crash-resume entry point: a record whose final line was torn
    /// mid-write parses up to the tear; corruption anywhere else still
    /// fails, and untorn records parse identically to `parse`.
    #[test]
    fn partial_parse_drops_only_a_torn_final_line() {
        let rec = sample_record();
        let jsonl = rec.to_jsonl();
        // Untorn: identical to the strict parse.
        assert_eq!(RunRecord::parse_partial(&jsonl).expect("parses"), rec);
        // Torn tail: the final line is dropped, the rest survives.
        let torn = format!("{jsonl}{{\"v\":3,\"e\":{{\"Sess");
        let back = RunRecord::parse_partial(&torn).expect("torn tail tolerated");
        assert_eq!(back, rec);
        // Corruption mid-file is NOT a crash artifact: still an error.
        let mid = jsonl.replacen("SessionStart", "Sess", 1);
        let err = RunRecord::parse_partial(&mid).expect_err("mid-file corruption rejected");
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn emitter_writes_one_json_object_per_line() {
        let mut em = JsonlEmitter::new(Vec::new());
        em.on_session_start("IOR_16M", 7, &[]);
        em.on_transcript("hello");
        // Three polls of the same in-flight call = ONE suspension note.
        em.on_waiting(dummy_handle());
        em.on_waiting(dummy_handle());
        em.on_waiting(dummy_handle());
        em.on_event(&SessionEvent::Ended {
            reason: "budget".into(),
        });
        assert_eq!(em.lines(), 4);
        let bytes = em.into_inner();
        let rec = RunRecord::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(rec.lines.len(), 4);
        assert_eq!(rec.events().count(), 3);
        assert_eq!(rec.notes().count(), 1);
        let summary = rec.summary();
        assert!(
            summary.contains("workload: IOR_16M (run seed 7)"),
            "{summary}"
        );
        assert!(summary.contains("1 suspension(s)"), "{summary}");
    }

    #[test]
    fn session_start_records_scenario_labels() {
        let mut em = JsonlEmitter::new(Vec::new());
        em.on_session_start(
            "IOR_64K+MDWorkbench_2K",
            7,
            &["degraded-topology", "noisy-neighbor"],
        );
        let bytes = em.into_inner();
        let rec = RunRecord::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let Some(ObsEvent::SessionStart { scenario, .. }) = rec.events().next() else {
            panic!("expected SessionStart first");
        };
        assert_eq!(scenario.len(), 2);
        let canon = rec.canonical_jsonl();
        assert!(
            canon.contains("\"scenario\":[\"degraded-topology\",\"noisy-neighbor\"]"),
            "{canon}"
        );
        let summary = rec.summary();
        assert!(
            summary.contains("scenario: degraded-topology, noisy-neighbor"),
            "{summary}"
        );
    }

    #[test]
    fn usage_events_are_deltas_and_skip_idle_snapshots() {
        let mut em = JsonlEmitter::new(Vec::new());
        let mut t = UsageMeter::default();
        let a = UsageMeter::default();
        t.record(100, 20, 10);
        em.on_usage(&t, &a);
        em.on_usage(&t, &a); // unchanged: no line
        t.record(50, 50, 5);
        em.on_usage(&t, &a);
        let bytes = em.into_inner();
        let rec = RunRecord::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let deltas: Vec<&ObsEvent> = rec.events().collect();
        assert_eq!(deltas.len(), 2);
        let ObsEvent::Usage { tuning, .. } = deltas[1] else {
            panic!("expected usage, got {:?}", deltas[1]);
        };
        assert_eq!(tuning.input_tokens, 50);
        assert_eq!(tuning.calls, 1);
    }

    #[test]
    fn progress_renderer_narrates_in_plain_mode() {
        let mut pr = ProgressRenderer::new(Vec::new(), false);
        pr.on_campaign_start(&CampaignGrid {
            workloads: vec!["IOR_16M".into(), "MDWorkbench_8K".into()],
            seeds: vec![1, 2],
            mode: crate::RuleMode::Warm,
            workers: 2,
            schedule: Schedule::Adaptive,
            faults: None,
            injection: None,
            retry: None,
        });
        pr.on_round_start(1);
        pr.on_cell_claimed(0, 1, 0, "IOR_16M");
        pr.on_cell_suspended(0, 1, 0, dummy_handle());
        pr.on_cell_published(0, 1, 0, 0.5);
        pr.on_cell_failed(&CampaignCell {
            workload: "MDWorkbench_8K".into(),
            seed: 1,
            cell_seed: 9,
            outcome: crate::campaign::CellOutcome::Failed(CellFailure::Panic("boom".into())),
        });
        let text = String::from_utf8(pr.out.clone()).unwrap();
        assert!(
            text.contains("2 workload(s) x 2 seed(s), warm rules, adaptive over 2 worker(s)"),
            "{text}"
        );
        assert!(text.contains("w0 > IOR_16M"), "{text}");
        assert!(text.contains("waiting on call #"), "{text}");
        assert!(text.contains("w0 = IOR_16M done"), "{text}");
        assert!(
            text.contains("! MDWorkbench_8K (seed 1) failed: panic: boom"),
            "{text}"
        );
        assert!(
            !text.contains('\x1b'),
            "plain mode must not emit ANSI: {text}"
        );
    }

    /// Callbacks interleave across rounds: a next-round cell publishes
    /// before its round starts and another parks for rules. Each publish
    /// counts under its own seed, and the parked cell says what it waits
    /// for.
    #[test]
    fn progress_renderer_counts_publishes_under_their_own_seed() {
        let mut pr = ProgressRenderer::new(Vec::new(), false);
        pr.on_campaign_start(&CampaignGrid {
            workloads: vec!["IOR_16M".into(), "MDWorkbench_8K".into()],
            seeds: vec![1, 2],
            mode: crate::RuleMode::Cold,
            workers: 2,
            schedule: Schedule::Adaptive,
            faults: None,
            injection: None,
            retry: None,
        });
        pr.on_round_start(1);
        pr.on_cell_claimed(0, 1, 1, "MDWorkbench_8K");
        pr.on_cell_claimed(1, 1, 0, "IOR_16M");
        pr.on_cell_published(1, 1, 0, 0.5);
        pr.on_cell_claimed(1, 2, 0, "IOR_16M");
        pr.on_cell_published(1, 2, 0, 0.25);
        pr.on_cell_claimed(1, 2, 1, "MDWorkbench_8K");
        pr.on_cell_parked(1, 2, 1);
        pr.on_cell_published(0, 1, 1, 2.0);
        pr.on_round_finished(&RoundSched {
            seed: 1,
            order: vec![1, 0],
            cell_secs: vec![0.5, 2.0],
            makespan_secs: 2.0,
            utilization: 0.9,
            max_in_flight: 0,
        });
        pr.on_round_start(2);
        pr.on_cell_published(1, 2, 1, 1.0);
        let text = String::from_utf8(pr.out.clone()).unwrap();
        for line in [
            "w1 > IOR_16M (seed 2)",
            "w1 = IOR_16M done in 0.500s (1/2 of seed 1)",
            "w1 = IOR_16M done in 0.250s (1/2 of seed 2)",
            "w1 | MDWorkbench_8K (seed 2) waiting for rules",
            "w0 = MDWorkbench_8K done in 2.000s (2/2 of seed 1)",
            "round 2/2: seed 2, 1/2 cell(s) already done",
            "w1 = MDWorkbench_8K done in 1.000s (2/2 of seed 2)",
        ] {
            assert!(text.contains(line), "missing `{line}` in:\n{text}");
        }
        assert!(!text.contains("round 1/2: seed 1,"), "{text}");
        assert!(pr.worker_cells.iter().all(Vec::is_empty), "all published");
    }

    /// A handle for tests: round-trips through the only public surface.
    fn dummy_handle() -> CallHandle {
        llmsim::SimTransport::new(llmsim::LatencyProfile::fixed(1), 1, None).submit()
    }
}
