//! # stellar — the Storage Tuning Engine, end to end
//!
//! Wires the substrates together into the system of Fig. 1, exposed as a
//! three-layer API:
//!
//! * **Builder** — [`StellarBuilder`] constructs the engine: fluent setters
//!   for topology, per-agent model profiles, behaviour switches, attempt
//!   budget and seed policy; `build()` runs the offline §4.2 RAG pipeline,
//!   yielding the 13 tunables with grounded descriptions and dependent
//!   ranges.
//! * **Session** — [`TuningSession`] executes a *Tuning Run* step by step:
//!   initial default execution under Darshan, Analysis Agent report,
//!   Tuning Agent trial-and-error loop (≤ 5 configurations), Reflect &
//!   Summarize. Each [`TuningSession::step`] returns a [`SessionEvent`];
//!   [`RunObserver`]s stream transcripts and token usage; sessions can be
//!   aborted mid-run, and under injected backend latency
//!   (`StellarBuilder::backend_latency`) they *suspend* on in-flight
//!   provider calls ([`SessionEvent::Waiting`]) instead of blocking.
//!   Injected backend *failures* (`StellarBuilder::failures`) are retried
//!   under a deterministic [`RetryPolicy`]; a fatal error or an exhausted
//!   budget ends the session with a structured [`SessionError`]
//!   ([`SessionEvent::Failed`]), never a panic.
//!   [`Stellar::tune`] remains as a thin wrapper draining
//!   a session to completion. Between runs the simulator state is rebuilt
//!   from scratch (the paper's delete/clear/remount hygiene).
//! * **Campaign** — [`Campaign`] runs workload × seed grids with shared
//!   rule-set accumulation (warm/cold modes) and deterministic parallel
//!   execution, aggregating into a [`CampaignReport`] — the substrate for
//!   the Fig. 6/7 sweeps and multi-workload serving. Cells are failure
//!   domains: a failed or panicking cell publishes
//!   [`CellOutcome::Failed`] while its siblings keep running, and an
//!   interrupted campaign can be resumed crash-consistently from its
//!   partial run record ([`Campaign::resume_from`]).
//!
//! Accumulated rules live in a copy-on-write
//! [`agents::ShardedRuleStore`]; sessions and campaign rounds read O(1)
//! [`agents::RuleSnapshot`]s that share the set instead of cloning it
//! (see `ARCHITECTURE.md` at the repository root for the full data
//! flow).
//!
//! Both layers stream progress: sessions to [`RunObserver`]s, campaigns
//! to [`CampaignObserver`]s. The [`obs`] module turns those streams into
//! durable artifacts — [`JsonlEmitter`] writes a versioned, deterministic
//! JSONL run record (CLI `--emit`), [`ProgressRenderer`] draws a live
//! status board (CLI `--progress`), and [`RunRecord`] parses a record
//! back for the `stellar-replay` binary.
//!
//! Baselines ([`baselines::expert_oracle`], [`baselines::random_search`])
//! and per-figure [`experiments`] drivers ride on top; the `bench` crate's
//! binaries print their outputs.
//!
//! # Example
//!
//! One tuning run, stepped to completion:
//!
//! ```
//! use agents::RuleSet;
//! use stellar::{SessionEvent, StellarBuilder};
//! use workloads::WorkloadKind;
//!
//! let engine = StellarBuilder::new().attempt_budget(5).build();
//! let workload = WorkloadKind::Ior16M.spec().scaled(0.05);
//! let mut session = engine.session(workload.as_ref(), RuleSet::new(), 42);
//! let mut attempts = 0;
//! while !session.is_ended() {
//!     if let SessionEvent::Attempt(_) = session.step() {
//!         attempts += 1;
//!     }
//! }
//! let run = session.into_run();
//! assert_eq!(run.attempts.len(), attempts);
//! assert!(run.best_speedup >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baselines;
pub mod builder;
pub mod campaign;
pub mod engine;
pub mod experiments;
pub mod measure;
pub mod obs;
pub mod sched;
pub mod session;

pub use builder::StellarBuilder;
pub use campaign::{
    Campaign, CampaignCell, CampaignGrid, CampaignObserver, CampaignReport, CellFailure,
    CellOutcome, RuleMode,
};
pub use engine::{default_topology, AttemptRecord, SeedPolicy, Stellar, StellarOptions, TuningRun};
pub use obs::{JsonlEmitter, ObsEvent, ProgressRenderer, RecordLine, RunRecord, SchedNote};
pub use sched::{CostModel, SchedStats, Schedule};
pub use session::{
    RetryPolicy, RunObserver, SessionError, SessionEvent, SessionOutcome, TuningSession,
};
