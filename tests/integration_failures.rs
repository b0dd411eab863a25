//! Failure-domain conformance: the acceptance properties of the
//! fallible-backend work, pinned end to end.
//!
//! 1. A campaign under seeded backend-failure injection emits a canonical
//!    JSONL stream that is byte-identical across serial, multi-threaded
//!    and latency-injected executions — retries and failures are part of
//!    the deterministic record, not scheduling noise.
//! 2. A panicking cell is isolated: it publishes
//!    [`CellOutcome::Failed`] while its siblings finish normally, and
//!    serial and parallel executions agree on every cell.
//! 3. A session that exhausts its retry budget ends with
//!    [`SessionEvent::Failed`] and a structured [`SessionError`] — never
//!    a panic.
//! 4. A campaign resumed from a crash-torn partial run record replays
//!    the completed rounds and recomputes the remainder, producing a
//!    report and canonical stream bit-identical to the uninterrupted
//!    run.
//! 5. A panic outside every cell's failure domain — in an observer
//!    callback, on a worker thread or on the coordinating thread — ends
//!    `Campaign::run()` with that panic, and no thread is left waiting.

use llmsim::{CallError, CallHandle, FailureInjection, FailureProfile, LatencyProfile};
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::Duration;
use stellar::{
    Campaign, CampaignObserver, CampaignReport, CellFailure, JsonlEmitter, RetryPolicy, RuleMode,
    RunObserver, RunRecord, SessionError, SessionEvent, SessionOutcome, Stellar, StellarBuilder,
};
use workloads::WorkloadKind;

const GRID: [WorkloadKind; 2] = [WorkloadKind::Ior64K, WorkloadKind::MdWorkbench2K];
const SCALE: f64 = 0.05;
const SEEDS: [u64; 2] = [71, 72];

/// An engine with the standard failure injection (seed 9) and a
/// three-attempt retry budget, plus optional backend latency.
fn engine(latency: Option<LatencyProfile>) -> Stellar {
    let mut b = StellarBuilder::new()
        .attempt_budget(3)
        .failures(FailureInjection::standard(9))
        .retry_policy(RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        });
    if let Some(p) = latency {
        b = b.backend_latency(p);
    }
    b.build()
}

fn campaign(e: &Stellar) -> Campaign<'_> {
    Campaign::new(e).kinds(&GRID, SCALE).seeds(SEEDS)
}

/// Run the grid with a recording emitter attached; return the report and
/// the parsed record.
fn record_campaign(e: &Stellar, threads: usize, serial: bool) -> (CampaignReport, RunRecord) {
    let mut emitter = JsonlEmitter::new(Vec::new());
    let c = campaign(e).threads(threads).observe(Box::new(&mut emitter));
    let report = if serial { c.run_serial() } else { c.run() };
    drop(c); // release the emitter borrow held by the observer box
    let bytes = emitter.into_inner();
    let record = RunRecord::parse(std::str::from_utf8(&bytes).expect("utf-8")).expect("parses");
    (report, record)
}

/// Acceptance property 1: failure verdicts are drawn per submission
/// index, so the canonical stream — retries included — is identical
/// whether the grid runs serially, across four workers, or with
/// suspended cells under injected latency.
#[test]
fn injected_failure_campaign_is_deterministic_across_execution_shapes() {
    let instant = engine(None);
    let (_, serial) = record_campaign(&instant, 1, true);
    let (_, parallel) = record_campaign(&instant, 4, false);
    let latent_engine = engine(Some(LatencyProfile::fixed(2)));
    let (_, latent) = record_campaign(&latent_engine, 2, false);

    let canon = serial.canonical_jsonl();
    assert!(!canon.is_empty());
    assert_eq!(canon, parallel.canonical_jsonl(), "serial vs parallel");
    assert_eq!(canon, latent.canonical_jsonl(), "serial vs latency");
}

/// A workload whose stream generation panics: the cell's first
/// simulated execution unwinds mid-session. Cost hints delegate to the
/// wrapped workload so scheduler planning (which runs outside the cell's
/// failure domain) stays panic-free.
struct PanicOnGenerate(Box<dyn workloads::Workload>);

impl workloads::Workload for PanicOnGenerate {
    fn name(&self) -> String {
        "PanicCell".into()
    }

    fn generate(
        &self,
        _topo: &pfs::topology::ClusterSpec,
        _seed: u64,
    ) -> Vec<pfs::ops::RankStream> {
        panic!("injected cell panic")
    }

    fn scaled(&self, factor: f64) -> Box<dyn workloads::Workload> {
        Box::new(PanicOnGenerate(self.0.scaled(factor)))
    }

    fn describe(&self) -> String {
        self.0.describe()
    }

    fn cost_hint(&self, topo: &pfs::topology::ClusterSpec) -> workloads::CostHint {
        self.0.cost_hint(topo)
    }
}

/// Acceptance property 2: a panicking cell publishes
/// `CellOutcome::Failed` without aborting its siblings, and serial and
/// parallel executions agree cell for cell.
#[test]
fn panicking_cell_is_isolated_from_its_siblings() {
    let e = StellarBuilder::new().attempt_budget(3).build();
    let build = || {
        Campaign::new(&e)
            .workload(WorkloadKind::Ior64K.spec_at(SCALE))
            .workload(Box::new(PanicOnGenerate(
                WorkloadKind::Ior16M.spec_at(SCALE),
            )))
            .workload(WorkloadKind::MdWorkbench2K.spec_at(SCALE))
            .seeds([5])
    };
    let serial = build().run_serial();
    let parallel = build().threads(4).run();

    for (tag, report) in [("serial", &serial), ("parallel", &parallel)] {
        assert_eq!(report.cells.len(), 3, "{tag}");
        let failed = report.failed_cells();
        assert_eq!(failed.len(), 1, "{tag}: exactly the panicking cell fails");
        assert_eq!(failed[0].workload, "PanicCell", "{tag}");
        match failed[0].failure() {
            Some(CellFailure::Panic(msg)) => {
                assert!(msg.contains("injected cell panic"), "{tag}: {msg}");
            }
            other => panic!("{tag}: expected a panic failure, got {other:?}"),
        }
        assert!(report.cells[0].run().is_some(), "{tag}: sibling 0 finished");
        assert!(report.cells[2].run().is_some(), "{tag}: sibling 2 finished");
    }

    // Serial and parallel agree bit for bit, failed cell included.
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.cell_seed, p.cell_seed);
        assert_eq!(s.failure(), p.failure());
        match (s.run(), p.run()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.best_wall.to_bits(), b.best_wall.to_bits());
                assert_eq!(a.transcript, b.transcript);
            }
            (None, None) => {}
            _ => panic!("{}: serial and parallel outcomes disagree", s.workload),
        }
    }
}

/// Acceptance property 3: an all-transient backend with a spent retry
/// budget ends the session via `SessionEvent::Failed` and a structured
/// `RetriesExhausted` error — the drain never panics.
#[test]
fn retry_exhaustion_fails_the_session_without_panicking() {
    let e = StellarBuilder::new()
        .attempt_budget(2)
        .failures(FailureInjection {
            seed: 3,
            profile: FailureProfile {
                transient_rate: 1.0,
                fatal_rate: 0.0,
            },
        })
        .retry_policy(RetryPolicy {
            max_attempts: 2,
            backoff_ticks: 1,
        })
        .build();
    let w = WorkloadKind::Ior16M.spec().scaled(0.08);
    let mut session = e.session(w.as_ref(), agents::RuleSet::new(), 11);
    let mut saw_failed = false;
    while !session.is_ended() {
        if let SessionEvent::Failed { error } = session.step() {
            saw_failed = true;
            assert!(matches!(error, SessionError::RetriesExhausted { .. }));
        }
    }
    assert!(saw_failed, "the terminal event must be Failed");
    match session.into_outcome() {
        SessionOutcome::Failed(SessionError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 2, "both budgeted submissions were spent");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Acceptance property 4: a campaign resumed from a crash-torn partial
/// record — complete round one, a torn final line — replays round one
/// from the record and recomputes round two, landing on a report and
/// canonical stream bit-identical to the uninterrupted run.
#[test]
fn resumed_campaign_is_bit_identical_to_uninterrupted() {
    let e = engine(None);
    let (full_report, full_record) = record_campaign(&e, 1, true);
    let full_jsonl = full_record.to_jsonl();

    // Crash simulation: keep everything before the second round, then
    // tear the write mid-line.
    let lines: Vec<&str> = full_jsonl.lines().collect();
    let second_round = lines
        .iter()
        .position(|l| l.contains("\"RoundStart\"") && l.contains(&format!("\"seed\":{}", SEEDS[1])))
        .expect("the record has a second round");
    let mut partial: String = lines[..second_round]
        .iter()
        .flat_map(|l| [*l, "\n"])
        .collect();
    partial.push_str("{\"v\":3,\"e\":{\"Cell"); // torn, no trailing newline

    let record = RunRecord::parse_partial(&partial).expect("partial record parses");
    let mut emitter = JsonlEmitter::new(Vec::new());
    let c = campaign(&e)
        .resume_from(&record)
        .expect("same grid, same flags: resumable")
        .observe(Box::new(&mut emitter));
    let resumed_report = c.run_serial();
    drop(c);
    let bytes = emitter.into_inner();
    let resumed_record =
        RunRecord::parse(std::str::from_utf8(&bytes).expect("utf-8")).expect("parses");

    assert_eq!(
        resumed_report.render(),
        full_report.render(),
        "the resumed report must be bit-identical"
    );
    assert_eq!(
        resumed_record.canonical_jsonl(),
        full_record.canonical_jsonl(),
        "the resumed canonical stream must be bit-identical"
    );
    assert_eq!(resumed_report.cells.len(), full_report.cells.len());
    for (r, f) in resumed_report.cells.iter().zip(&full_report.cells) {
        assert_eq!(r.run(), f.run(), "{} @ seed {}", f.workload, f.seed);
        assert_eq!(r.failure(), f.failure());
    }
    assert_eq!(resumed_report.rules, full_report.rules);
}

/// An observer that panics in one callback: `on_cell_claimed` runs on a
/// worker thread, `on_rules_merged` on the coordinating thread.
struct PanicIn(&'static str);

impl PanicIn {
    fn fire(&self, callback: &str) {
        if self.0 == callback {
            panic!("observer panicked in {callback}");
        }
    }
}

impl CampaignObserver for PanicIn {
    fn on_cell_claimed(&mut self, _worker: usize, _seed: u64, _grid_idx: usize, _workload: &str) {
        self.fire("on_cell_claimed");
    }

    fn on_rules_merged(&mut self, _workload: &str, _added: usize, _total: usize) {
        self.fire("on_rules_merged");
    }
}

/// Acceptance property 5: an observer panic is outside every cell's
/// failure domain, so `run()` must end with it rather than return a
/// report or hang. The campaign runs on its own thread, so a hang fails
/// this test after 60 s instead of stalling the suite.
#[test]
fn observer_panics_end_the_campaign_with_their_message() {
    for callback in ["on_cell_claimed", "on_rules_merged"] {
        // detlint::allow(D007): the channel carries one test verdict; it
        // bounds how long the test waits, and no campaign data goes through it
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let e = StellarBuilder::new().attempt_budget(2).build();
            let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                campaign(&e)
                    .rule_mode(RuleMode::Warm)
                    .threads(2)
                    .observe(Box::new(PanicIn(callback)))
                    .run();
            }));
            let message = ran.err().map(|payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .map_or_else(|| "non-string panic payload".to_string(), |s| s.to_string()),
            });
            let _ = tx.send(message);
        });
        let message = rx
            // detlint::allow(D007): one verdict, received once (see above)
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("run() did not end within 60 s of a panic in {callback}"))
            .unwrap_or_else(|| panic!("run() returned a report despite a panic in {callback}"));
        assert_eq!(message, format!("observer panicked in {callback}"));
    }
}

/// What a [`RunObserver`] hears about a session's backend calls.
#[derive(Default)]
struct CallLog {
    /// Every `on_retry` as (context, attempt, error `Display`).
    retries: Vec<(String, u32, String)>,
    /// Number of `on_waiting` calls.
    waits: usize,
    /// The distinct call ids `on_waiting` saw, in order.
    call_ids: Vec<u64>,
}

struct SharedCallLog(Rc<RefCell<CallLog>>);

impl RunObserver for SharedCallLog {
    fn on_waiting(&mut self, call: CallHandle) {
        let mut log = self.0.borrow_mut();
        log.waits += 1;
        if !log.call_ids.contains(&call.id()) {
            log.call_ids.push(call.id());
        }
    }

    fn on_retry(&mut self, context: &str, attempt: u32, error: &CallError) {
        self.0
            .borrow_mut()
            .retries
            .push((context.to_string(), attempt, error.to_string()));
    }
}

/// Drain one session at scale 0.05 under `uniform(1, 4)` backend latency
/// and report its call log and outcome: the attempt count and best wall
/// time bits, or the error's `Display`.
fn call_schedule(
    kind: WorkloadKind,
    seed: u64,
    injection: FailureInjection,
    retry: RetryPolicy,
) -> (CallLog, Result<(usize, u64), String>) {
    let e = StellarBuilder::new()
        .attempt_budget(3)
        .backend_latency(LatencyProfile::uniform(1, 4))
        .failures(injection)
        .retry_policy(retry)
        .build();
    let w = kind.spec().scaled(SCALE);
    let log = Rc::new(RefCell::new(CallLog::default()));
    let mut session = e.session(w.as_ref(), agents::RuleSet::new(), seed);
    session.observe(Box::new(SharedCallLog(log.clone())));
    let outcome = match session.drain_outcome() {
        SessionOutcome::Finished(run) => Ok((run.attempts.len(), run.best_wall.to_bits())),
        SessionOutcome::Failed(error) => Err(error.to_string()),
    };
    let Ok(log) = Rc::try_unwrap(log) else {
        panic!("the drained session must release its observer");
    };
    (log.into_inner(), outcome)
}

fn retry(context: &str, attempt: u32, error: &str) -> (String, u32, String) {
    (context.to_string(), attempt, error.to_string())
}

/// Pins the seeded retry and latency schedule of three sessions, so a
/// transport change that shifts every run alike still fails here: which
/// turns retry with which errors, how many polls find a call in flight,
/// which call ids they see, and how each session ends. The constants are
/// the values the simulator produced when the test was written.
#[test]
fn seeded_session_call_schedules_are_pinned() {
    let standard = RetryPolicy {
        max_attempts: 3,
        ..Default::default()
    };

    let (log, outcome) = call_schedule(
        WorkloadKind::MdWorkbench2K,
        72,
        FailureInjection::standard(9),
        standard,
    );
    assert_eq!(
        log.retries,
        [
            retry("drive:turn1", 2, "transient: rate-limited"),
            retry("drive:turn5", 2, "transient: gateway-timeout"),
            retry("drive:turn5", 3, "transient: overloaded"),
        ]
    );
    assert_eq!(log.waits, 28);
    assert_eq!(log.call_ids, (0..10).collect::<Vec<u64>>());
    assert_eq!(outcome, Ok((3, 4599461830765109726)));

    let (log, outcome) = call_schedule(
        WorkloadKind::Ior64K,
        4,
        FailureInjection::standard(9),
        standard,
    );
    assert_eq!(
        log.retries,
        [retry("drive:turn5", 2, "transient: gateway-timeout")]
    );
    assert_eq!(log.waits, 25);
    assert_eq!(log.call_ids, (0..7).collect::<Vec<u64>>());
    assert_eq!(
        outcome,
        Err("fatal backend call at drive:turn5: fatal: credentials-revoked".to_string())
    );

    let (log, outcome) = call_schedule(
        WorkloadKind::Ior64K,
        1,
        FailureInjection {
            seed: 9,
            profile: FailureProfile {
                transient_rate: 0.5,
                fatal_rate: 0.0,
            },
        },
        RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
    );
    assert_eq!(
        log.retries,
        [retry("drive:turn1", 2, "transient: overloaded")]
    );
    assert_eq!(log.waits, 11);
    assert_eq!(log.call_ids, [0, 1, 2]);
    assert_eq!(
        outcome,
        Err(
            "retry budget exhausted at drive:turn1 after 2 attempt(s): transient: gateway-timeout"
                .to_string()
        )
    );
}
