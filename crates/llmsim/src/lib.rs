//! # llmsim — a deterministic LLM substrate
//!
//! The paper drives its agents with GPT-4o, Claude-3.7-Sonnet and
//! Llama-3.1-70B over provider APIs; none are reachable here, so this crate
//! supplies the closest synthetic equivalent that exercises the same code
//! paths:
//!
//! * [`profiles::ModelProfile`] — per-model quality knobs. The pivotal one is
//!   **parametric-memory fidelity**: when a model is asked about a file-system
//!   parameter *without grounding context*, it answers from a deterministic,
//!   per-(model, parameter) corrupted copy of the truth — reproducing the
//!   hallucination behaviour of Fig. 2. With grounding (RAG chunks in the
//!   prompt), every profile answers correctly, which is exactly the paper's
//!   claim about why RAG matters.
//! * [`facts`] — the `ParamFact` representation and its corruption model.
//! * [`tokens`] — token estimation, per-agent usage metering, and a
//!   block-prefix prompt cache reproducing the 85–90% cache-hit economics of
//!   §5.7.
//! * [`backend::SimLlm`] — the backend handle agents hold: fact queries,
//!   discipline-modulated decision noise, and prompt/response accounting.
//! * [`transport::SimTransport`] — the simulated provider every agent
//!   turn goes through: deterministic seeded latency, measured in poll
//!   ticks, so sessions suspend instead of blocking, without timers or
//!   nondeterminism.
//! * [`failures`] — the failure domain of the same transport: a
//!   [`failures::FailureInjection`] fails a seeded, submission-indexed
//!   fraction of calls with [`transport::CallStatus::Failed`] so retry and
//!   isolation machinery can be exercised reproducibly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod facts;
pub mod failures;
pub mod profiles;
pub mod tokens;
pub mod transport;

pub use backend::SimLlm;
pub use facts::{FactQuality, ParamFact};
pub use failures::{FailureInjection, FailureProfile};
pub use profiles::ModelProfile;
pub use tokens::{estimate_tokens, PrefixCache, UsageMeter};
pub use transport::{CallError, CallHandle, CallStatus, LatencyProfile, SimTransport};
