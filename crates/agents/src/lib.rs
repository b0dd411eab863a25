//! # agents — STELLAR's online agentic core (§4.3–§4.4)
//!
//! Two cooperating agents drive the trial-and-error loop:
//!
//! * the [`analysis::AnalysisAgent`] consumes the Darshan dataframes and
//!   produces an [`report::IoReport`]; it also answers the Tuning Agent's
//!   follow-up questions (the "minor loop");
//! * the [`tuning::TuningAgent`] holds the extracted parameters, the
//!   hardware description, the I/O report and the rules the session
//!   matched from the global rule set, and emits
//!   [`tuning::ToolCall`]s — request more analysis, run a candidate
//!   configuration (with per-parameter rationale), or end tuning.
//!
//! Knowledge fidelity is the load-bearing mechanism: every parameter move
//! consults the agent's *fact* about that parameter. With RAG descriptions
//! the facts are grounded truth; without them the backend's corrupted
//! parametric memory leaks in and moves get misdirected — exactly the
//! failure mode of Fig. 8's `No Descriptions` ablation (stripe count
//! reinterpreted as "distributing a directory's files across OSTs").
//!
//! [`rules`] implements the JSON rule-set format of §4.4.1 and the merge /
//! conflict-resolution protocol of §4.4.2; [`reflect`] distills finished
//! runs into new rules. [`store`] shares the accumulated knowledge: a
//! [`ShardedRuleStore`] is a copy-on-write handle on one [`RuleSet`], so
//! concurrent campaign cells read O(1) [`RuleSnapshot`]s instead of
//! cloning the whole set, and merging and matching stay
//! [`RuleSet::merge`] and [`RuleSet::matching`].
//!
//! # Example
//!
//! Learned rules accumulate in the store; readers take snapshots:
//!
//! ```
//! use agents::{ContextTag, Guidance, Rule, ShardedRuleStore};
//!
//! let mut store = ShardedRuleStore::new();
//! store.merge(vec![Rule::new(
//!     "stripe_count",
//!     Guidance::SetToAllOsts,
//!     &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile],
//! )]);
//!
//! // O(1) view; later merges won't change what this reader sees.
//! let snapshot = store.snapshot();
//! let hits = snapshot.matching(&[
//!     ContextTag::LargeSequentialWrites,
//!     ContextTag::SharedFile,
//! ]);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].parameter, "stripe_count");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod reflect;
pub mod report;
pub mod rules;
pub mod store;
pub mod tuning;

pub use analysis::{AnalysisAgent, AnalysisQuestion, Answer};
pub use report::{IoReport, WorkloadClass};
pub use rules::{ContextTag, Guidance, Rule, RuleSet};
pub use store::{RuleSnapshot, ShardCensusEntry, ShardSignature, ShardedRuleStore};
pub use tuning::{Attempt, ToolCall, TuningAgent, TuningOptions};
