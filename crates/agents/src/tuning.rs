//! The Tuning Agent (§4.3.2): the primary controller of the iterative
//! tuning loop.
//!
//! The agent holds the extracted parameter set, the hardware description,
//! the I/O report and any matching rules, and emits one [`ToolCall`] per
//! turn: request analysis (`Analysis?`), run a configuration
//! (`Configuration Runner`), or stop (`End Tuning?`). Its policy is the
//! expert playbook the paper describes humans using — classify the workload,
//! make a directed first move, escalate on success, revert and redirect on
//! regression, stop at diminishing returns — modulated by three quality
//! gates:
//!
//! * **parameter understanding** — each move consults the agent's fact for
//!   that parameter; a hallucinated definition misdirects the move (the
//!   `No Descriptions` ablation);
//! * **workload understanding** — without the Analysis Agent's report the
//!   agent assumes a generic streaming workload and "attempts to increase
//!   readahead and RPC size-related parameters" regardless (the
//!   `No Analysis` ablation);
//! * **model discipline** — the backend's profile perturbs value choices.

use crate::analysis::{AnalysisQuestion, Answer};
use crate::report::{IoReport, WorkloadClass};
use crate::rules::{Guidance, Rule};
use llmsim::{FactQuality, ParamFact, SimLlm};
use pfs::params::{Bound, TuningConfig};
use pfs::topology::ClusterSpec;
use ragx::ExtractedParam;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Behavioural switches (full system vs ablations).
#[derive(Debug, Clone)]
pub struct TuningOptions {
    /// Maximum configurations to try (the paper caps at 5).
    pub max_attempts: usize,
    /// Whether the Analysis Agent exists (`No Analysis` ablation = false).
    pub use_analysis: bool,
    /// Whether RAG descriptions are available (`No Descriptions` = false;
    /// ranges are kept either way, as in the paper's ablation).
    pub use_descriptions: bool,
    /// Whether the global rule set is consulted. The session reads this
    /// when it matches rules for the agent; with `false` it hands the
    /// agent none.
    pub use_rules: bool,
    /// Maximum follow-up questions to the Analysis Agent.
    pub max_follow_ups: usize,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            max_attempts: 5,
            use_analysis: true,
            use_descriptions: true,
            use_rules: true,
            max_follow_ups: 2,
        }
    }
}

/// One environment interaction chosen by the agent.
#[derive(Debug, Clone)]
pub enum ToolCall {
    /// Ask the Analysis Agent a follow-up question.
    Analyze(AnalysisQuestion),
    /// Run the application under a new configuration.
    RunConfig {
        /// Candidate configuration.
        config: TuningConfig,
        /// Per-parameter reasoning, in application order.
        rationale: Vec<(String, String)>,
    },
    /// Conclude tuning.
    EndTuning {
        /// Justification (required by the system prompt, §4.3.2).
        reason: String,
    },
}

/// One completed configuration trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attempt {
    /// Configuration that ran.
    pub config: TuningConfig,
    /// Measured wall time, seconds.
    pub wall_secs: f64,
}

/// The Tuning Agent.
///
/// The agent holds no backend reference: every entry point that consults
/// the model ([`TuningAgent::new`], [`TuningAgent::decide`]) takes the
/// [`SimLlm`] as an argument. That keeps the agent an ownable state
/// machine, which is what lets `stellar`'s `TuningSession` expose the
/// tuning loop step by step without self-referential borrows.
pub struct TuningAgent {
    options: TuningOptions,
    topo: ClusterSpec,
    params: Vec<ExtractedParam>,
    facts: BTreeMap<String, ParamFact>,
    report: Option<IoReport>,
    answers: Vec<Answer>,
    rules: Vec<Rule>,
    baseline_wall: f64,
    history: Vec<Attempt>,
    asked: Vec<AnalysisQuestion>,
    escalation: u32,
    alternates_tried: u32,
    transcript: Vec<String>,
}

impl TuningAgent {
    /// Create the agent. The backend is consulted once per parameter for
    /// fact recall (`options.use_descriptions` decides whether facts come
    /// from RAG descriptions — truth — or parametric memory — corrupted).
    ///
    /// `rules` is the set the session matched against the workload's
    /// report and scenario tags; the agent applies it as given.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        backend: &mut SimLlm,
        options: TuningOptions,
        topo: ClusterSpec,
        params: Vec<ExtractedParam>,
        truths: &BTreeMap<String, ParamFact>,
        report: Option<IoReport>,
        rules: Vec<Rule>,
        baseline_wall: f64,
    ) -> Self {
        let mut facts = BTreeMap::new();
        for p in &params {
            if let Some(truth) = truths.get(&p.name) {
                let fact = backend.param_fact(truth, options.use_descriptions);
                facts.insert(p.name.clone(), fact);
            }
        }
        let report = if options.use_analysis { report } else { None };
        TuningAgent {
            options,
            topo,
            params,
            facts,
            report,
            answers: Vec::new(),
            rules,
            baseline_wall,
            history: Vec::new(),
            asked: Vec::new(),
            escalation: 0,
            alternates_tried: 0,
            transcript: Vec::new(),
        }
    }

    /// Completed attempts so far.
    pub fn history(&self) -> &[Attempt] {
        &self.history
    }

    /// The narrated decision log (feeds the Fig. 10 case study).
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// Record the outcome of a RunConfig tool call.
    pub fn record_result(&mut self, config: TuningConfig, wall_secs: f64) {
        self.transcript.push(format!(
            "[result] attempt {}: {:.3}s (x{:.2} vs default {:.3}s)",
            self.history.len() + 1,
            wall_secs,
            self.baseline_wall / wall_secs.max(1e-9),
            self.baseline_wall
        ));
        self.history.push(Attempt { config, wall_secs });
    }

    /// Record an Analysis Agent answer.
    pub fn accept_answer(&mut self, answer: Answer) {
        self.transcript
            .push(format!("[analysis] {:?}: {}", answer.question, answer.text));
        self.answers.push(answer);
    }

    /// Best attempt so far (by wall time).
    pub fn best(&self) -> Option<&Attempt> {
        self.history
            .iter()
            .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
    }

    fn classify(&self) -> WorkloadClass {
        match &self.report {
            Some(r) => r.classify(),
            // No Analysis: the agent assumes a generic large-transfer
            // streaming workload (§5.4's observed failure mode).
            None => WorkloadClass::LargeSequentialShared,
        }
    }

    fn next_question(&self) -> Option<AnalysisQuestion> {
        // `new` keeps the report only when `use_analysis` is on.
        self.report.as_ref()?;
        if self.asked.len() >= self.options.max_follow_ups || !self.history.is_empty() {
            return None;
        }
        let wanted: &[AnalysisQuestion] = match self.classify() {
            WorkloadClass::MetadataSmallFiles => &[
                AnalysisQuestion::FileSizeDistribution,
                AnalysisQuestion::MetaToDataRatio,
            ],
            WorkloadClass::MixedMultiPhase => &[
                AnalysisQuestion::AccessSizeProfile,
                AnalysisQuestion::SharedFileAccess,
            ],
            WorkloadClass::RandomSmallShared => &[AnalysisQuestion::Sequentiality],
            WorkloadClass::LargeSequentialShared => &[AnalysisQuestion::Sequentiality],
            WorkloadClass::SmallObjectDumps => &[AnalysisQuestion::AccessSizeProfile],
        };
        wanted
            .iter()
            .copied()
            .find(|q| !self.asked.iter().any(|a| a == q))
    }

    /// Main decision entry: what to do next.
    pub fn decide(&mut self, backend: &mut SimLlm) -> ToolCall {
        // Minor loop: clarify before the first configuration.
        if let Some(q) = self.next_question() {
            self.asked.push(q);
            backend.charge(
                &self.context_prompt("Decide next action"),
                &format!("Tool: Analysis? — {}", q.prompt()),
            );
            self.transcript
                .push(format!("[tool] Analysis? -> {}", q.prompt()));
            return ToolCall::Analyze(q);
        }

        if self.history.len() >= self.options.max_attempts {
            return self.end(backend, "Configuration budget exhausted.");
        }

        // First configuration.
        if self.history.is_empty() {
            let (config, rationale) = self.propose(backend, 0);
            return self.emit_run(backend, config, rationale);
        }

        // Feedback-driven continuation.
        let best_wall = self.best().expect("non-empty").wall_secs;
        let last = self.history.last().expect("non-empty");
        let last_is_best = (last.wall_secs - best_wall).abs() < 1e-9;
        let improved_vs_default = best_wall < self.baseline_wall * 0.97;
        let gain_small = if self.history.len() >= 2 {
            let prev_best = self.history[..self.history.len() - 1]
                .iter()
                .map(|a| a.wall_secs)
                .fold(f64::INFINITY, f64::min)
                .min(self.baseline_wall);
            best_wall > prev_best * 0.97
        } else {
            false
        };

        let min_attempts = if self.rules.is_empty() { 3 } else { 2 };
        if improved_vs_default && gain_small && self.history.len() >= min_attempts {
            return self.end(
                backend,
                "Performance has improved well beyond the default configuration \
                 and the last change produced no further meaningful gain; \
                 additional tuning is unlikely to elicit further improvement.",
            );
        }

        if last_is_best {
            // Positive result: explore more aggressively in the same direction.
            self.escalation += 1;
            let level = self.escalation;
            let (config, rationale) = self.propose(backend, level);
            if self.config_already_tried(&config) {
                return self.end(
                    backend,
                    "Further escalation reproduces an already-tested configuration; \
                     diminishing returns reached.",
                );
            }
            return self.emit_run(backend, config, rationale);
        }

        // Regression: revert to the best configuration and try an alternate
        // dimension not yet exercised.
        self.alternates_tried += 1;
        if self.alternates_tried > 2 {
            return self.end(
                backend,
                "Alternate directions also failed to improve on the best \
                 configuration found; concluding to avoid wasted runs.",
            );
        }
        let base = self.best().expect("non-empty").config.clone();
        let (config, rationale) = self.propose_alternate(backend, base, self.alternates_tried);
        if self.config_already_tried(&config) {
            return self.end(backend, "No untried alternate configurations remain.");
        }
        self.emit_run(backend, config, rationale)
    }

    fn config_already_tried(&self, config: &TuningConfig) -> bool {
        self.history.iter().any(|a| &a.config == config)
    }

    fn end(&mut self, backend: &mut SimLlm, reason: &str) -> ToolCall {
        backend.charge(
            &self.context_prompt("Decide next action"),
            &format!("Tool: End Tuning? — {reason}"),
        );
        self.transcript
            .push(format!("[tool] End Tuning? -> {reason}"));
        ToolCall::EndTuning {
            reason: reason.to_string(),
        }
    }

    fn emit_run(
        &mut self,
        backend: &mut SimLlm,
        config: TuningConfig,
        rationale: Vec<(String, String)>,
    ) -> ToolCall {
        let rendered: String = rationale
            .iter()
            .map(|(p, r)| format!("- {p}: {r}\n"))
            .collect();
        backend.charge(
            &self.context_prompt("Decide next action"),
            &format!("Tool: Configuration Runner —\n{rendered}"),
        );
        self.transcript.push(format!(
            "[tool] Configuration Runner (attempt {}):\n{rendered}",
            self.history.len() + 1
        ));
        ToolCall::RunConfig { config, rationale }
    }

    /// The agent's context window (for token accounting realism).
    fn context_prompt(&self, task: &str) -> String {
        let params: String = self
            .params
            .iter()
            .map(|p| {
                let fact = self.facts.get(&p.name);
                format!(
                    "{}: {} [range {:?}..{:?}, default {}]\n",
                    p.name,
                    fact.map(|f| f.definition.as_str()).unwrap_or(""),
                    p.min,
                    p.max,
                    p.default
                )
            })
            .collect();
        let history: String = self
            .history
            .iter()
            .enumerate()
            .map(|(i, a)| {
                format!(
                    "attempt {}: {:.3}s\n{}\n",
                    i + 1,
                    a.wall_secs,
                    a.config.render()
                )
            })
            .collect();
        let rules: String = self
            .rules
            .iter()
            .map(|r| {
                format!(
                    "RULE {} :: {} :: {}\n",
                    r.parameter, r.rule_description, r.tuning_context
                )
            })
            .collect();
        let answers: String = self
            .answers
            .iter()
            .map(|a| format!("{}\n", a.text))
            .collect();
        format!(
            "SYSTEM: You are STELLAR's Tuning Agent for a parallel file system.\n\
             HARDWARE: {}\n\
             TUNABLE PARAMETERS:\n{params}\n\
             GLOBAL RULE SET:\n{rules}\n\
             I/O REPORT:\n{}\n\
             FOLLOW-UP ANSWERS:\n{answers}\n\
             HISTORY (default: {:.3}s):\n{history}\n\
             TASK: {task}",
            self.topo.describe(),
            self.report
                .as_ref()
                .map(|r| r.render())
                .unwrap_or_else(|| "(no analysis available)".to_string()),
            self.baseline_wall,
        )
    }

    // ------------------------------------------------------------------
    // Expert policy.
    // ------------------------------------------------------------------

    /// Round a byte size to the nearest power of two within bounds.
    fn pow2_bytes(v: f64, lo: u64, hi: u64) -> u64 {
        let mut p = lo;
        while p < hi && (p as f64) < v {
            p <<= 1;
        }
        p.clamp(lo, hi)
    }

    /// Apply one parameter move, filtered through the agent's understanding.
    #[allow(clippy::too_many_arguments)]
    fn apply_move(
        &mut self,
        backend: &mut SimLlm,
        config: &mut TuningConfig,
        rationale: &mut Vec<(String, String)>,
        name: &str,
        intended: i64,
        reason: &str,
        attempt: usize,
    ) {
        let fact = self.facts.get(name).cloned();
        let mut value = intended;
        let mut note = reason.to_string();
        if let Some(f) = &fact {
            match f.def_quality {
                FactQuality::Wrong => {
                    if matches!(name, "stripe_count" | "stripe_size") {
                        // Famous parameter, confidently misunderstood: the
                        // move is misdirected (the paper's stripe example).
                        value = self.misdirected_value(backend, name, intended, f);
                        note = format!(
                            "(based on a flawed understanding) {}",
                            f.definition.chars().take(90).collect::<String>()
                        );
                    } else {
                        // Niche parameter the agent cannot define: it leaves
                        // it untouched rather than guess — losing exactly
                        // the moves the workload needed.
                        rationale.push((
                            name.to_string(),
                            "cannot establish what this parameter does from                              available knowledge; leaving at default"
                                .to_string(),
                        ));
                        return;
                    }
                }
                FactQuality::Imprecise => {
                    // Loose recall: the direction survives but the magnitude
                    // is a guess, independent of model discipline.
                    let mut rng_like =
                        backend.decision_jitter(&format!("{name}:imprecise:{attempt}"));
                    // Widen to a coarse guess in [1/4, 1/2] of the intent.
                    rng_like = rng_like.clamp(0.8, 1.25);
                    value = ((intended as f64) * 0.35 * rng_like).round() as i64;
                    value = value.max(1);
                    note = format!("{reason} (details recalled loosely)");
                }
                FactQuality::Correct => {
                    if backend.deviates(&format!("{name}:dev:{attempt}")) {
                        let jitter = backend.decision_jitter(&format!("{name}:jit:{attempt}"));
                        value = ((intended as f64) * jitter).round() as i64;
                    }
                }
            }
            // Respect the range the agent believes in (correct when RAG
            // supplied it; §5.4 notes tuning mostly fails without ranges) —
            // unless the documented bound is *dependent*, in which case the
            // static snapshot is stale and the dynamic evaluation below is
            // authoritative (e.g. mdc.max_mod_rpcs_in_flight's cap moves
            // when the agent raises mdc.max_rpcs_in_flight).
            let has_dependent_bound = self
                .params
                .iter()
                .find(|p| p.name == name)
                .map(|p| matches!(p.min, Bound::Expr(_)) || matches!(p.max, Bound::Expr(_)))
                .unwrap_or(false);
            if name != "stripe_count" && !has_dependent_bound {
                value = value.clamp(f.min.min(f.max), f.max.max(f.min));
            }
        }
        // Respect the extracted (possibly dependent) bounds.
        value = self.clamp_extracted(config, name, value);
        if config.set(name, value).is_ok() {
            rationale.push((name.to_string(), format!("{note} -> {value}")));
        }
    }

    /// What a hallucinated definition does to a move (the §5.4 example:
    /// stripe count misread as spreading a directory's files across OSTs).
    fn misdirected_value(
        &mut self,
        backend: &mut SimLlm,
        name: &str,
        intended: i64,
        fact: &ParamFact,
    ) -> i64 {
        match name {
            "stripe_count" => -1,
            _ => {
                let jitter = backend.decision_jitter(&format!("{name}:wrongdef"));
                let v = (fact.max as f64 * 0.5 * jitter) as i64;
                v.max(1).min(intended.max(fact.max))
            }
        }
    }

    fn clamp_extracted(&self, config: &TuningConfig, name: &str, value: i64) -> i64 {
        let Some(p) = self.params.iter().find(|p| p.name == name) else {
            return value;
        };
        let env = config.env(&self.topo);
        let lo = p.min.resolve(&env).unwrap_or(i64::MIN);
        let hi = p.max.resolve(&env).unwrap_or(i64::MAX);
        value.clamp(lo.min(hi), hi.max(lo))
    }

    /// The class playbook at a given escalation level.
    fn propose(
        &mut self,
        backend: &mut SimLlm,
        level: u32,
    ) -> (TuningConfig, Vec<(String, String)>) {
        let mut config = TuningConfig::lustre_default();
        let mut rationale = Vec::new();
        let class = self.classify();
        let attempt = self.history.len();
        let avg_write = self
            .report
            .as_ref()
            .map(|r| r.avg_write_size)
            .unwrap_or(4.0 * 1024.0 * 1024.0);
        let has_reads = self.report.as_ref().map(|r| r.has_reads()).unwrap_or(true);
        let l = level as i64;

        type Move = (&'static str, i64, String);
        let mut moves: Vec<Move> = Vec::new();
        match class {
            WorkloadClass::LargeSequentialShared => {
                let ss = Self::pow2_bytes(avg_write, 1 << 20, 64 << 20);
                moves.push((
                    "stripe_count",
                    -1,
                    "shared file written by all ranks: stripe across every OST \
                     to aggregate server bandwidth"
                        .into(),
                ));
                moves.push((
                    "stripe_size",
                    (ss << l.min(1)) as i64,
                    format!(
                        "align the stripe to the dominant transfer size \
                         (~{:.0} KiB)",
                        avg_write / 1024.0
                    ),
                ));
                moves.push((
                    "osc.max_pages_per_rpc",
                    1024 << l.min(2),
                    "large streaming transfers amortise per-RPC overhead with \
                     bigger bulk RPCs"
                        .into(),
                ));
                moves.push((
                    "osc.max_rpcs_in_flight",
                    32 << l.min(2),
                    "deepen the data pipeline per OST".into(),
                ));
                moves.push((
                    "osc.max_dirty_mb",
                    256 << l.min(2),
                    "more write-behind headroom keeps the pipeline fed".into(),
                ));
                if has_reads {
                    moves.push((
                        "llite.max_read_ahead_mb",
                        512 << l.min(1),
                        "many concurrent sequential readers need a larger \
                         client-wide readahead budget"
                            .into(),
                    ));
                    moves.push((
                        "llite.max_read_ahead_per_file_mb",
                        256 << l.min(1),
                        "deep per-file windows for streaming reads".into(),
                    ));
                }
            }
            WorkloadClass::RandomSmallShared => {
                moves.push((
                    "stripe_count",
                    -1,
                    "small random I/O to one shared file: spread the object \
                     across all OSTs to multiply IOPS"
                        .into(),
                ));
                moves.push((
                    "osc.max_dirty_mb",
                    512 << l.min(1),
                    "deep dirty buffering lets the writeback layer coalesce \
                     random writes into large sequential RPCs"
                        .into(),
                ));
                moves.push((
                    "osc.max_rpcs_in_flight",
                    64 << l.min(1),
                    "random access is latency-bound: keep many RPCs in flight".into(),
                ));
                moves.push((
                    "osc.max_pages_per_rpc",
                    1024 << l.min(2),
                    "allow coalesced writeback to emit large RPCs".into(),
                ));
                if avg_write <= 16384.0 {
                    moves.push((
                        "osc.short_io_bytes",
                        16384,
                        "requests fit the inline path; skip bulk handshakes".into(),
                    ));
                }
            }
            WorkloadClass::MetadataSmallFiles => {
                moves.push((
                    "stripe_count",
                    1,
                    "small files: one object per file avoids per-OST glimpse \
                     and destroy overhead"
                        .into(),
                ));
                moves.push((
                    "llite.statahead_max",
                    if l == 0 { 4096 } else { 8192 },
                    "directory scans stat entries in creation order; raise the \
                     statahead budget above the directory size so prefetch \
                     covers whole scans"
                        .into(),
                ));
                moves.push((
                    "mdc.max_rpcs_in_flight",
                    64 << l.min(1),
                    "many ranks per client issue metadata ops concurrently".into(),
                ));
                moves.push((
                    "mdc.max_mod_rpcs_in_flight",
                    (64 << l.min(1)) - 1,
                    "parallel create/unlink bursts need a deeper modifying \
                     window"
                        .into(),
                ));
                moves.push((
                    "llite.max_read_ahead_whole_mb",
                    8 << l.min(2),
                    "files are tiny: fetch them whole on first read".into(),
                ));
                moves.push((
                    "osc.short_io_bytes",
                    16384,
                    "file payloads fit inline RPCs".into(),
                ));
            }
            WorkloadClass::MixedMultiPhase => {
                let ss = Self::pow2_bytes(avg_write.max(2e6), 1 << 20, 16 << 20);
                moves.push((
                    "stripe_count",
                    -1,
                    "the bandwidth phases dominate wall time; stripe wide and \
                     accept small-file overhead in the metadata phases"
                        .into(),
                ));
                moves.push((
                    "stripe_size",
                    ss as i64,
                    "align to the large-phase transfer size".into(),
                ));
                moves.push((
                    "osc.max_rpcs_in_flight",
                    64 << l.min(1),
                    "deep pipelines serve both the streaming and the random \
                     phase"
                        .into(),
                ));
                moves.push((
                    "osc.max_dirty_mb",
                    512 << l.min(1),
                    "buffer the random-write phase for coalescing".into(),
                ));
                moves.push((
                    "osc.max_pages_per_rpc",
                    1024 << l.min(2),
                    "bigger bulk RPCs for the streaming phase".into(),
                ));
                moves.push((
                    "llite.max_read_ahead_mb",
                    512,
                    "the read phases stream sequentially".into(),
                ));
                moves.push((
                    "llite.max_read_ahead_per_file_mb",
                    256,
                    "deep per-file windows".into(),
                ));
                moves.push((
                    "llite.statahead_max",
                    8192,
                    "metadata phases scan directories".into(),
                ));
                moves.push((
                    "mdc.max_rpcs_in_flight",
                    64,
                    "metadata phases are concurrent".into(),
                ));
                moves.push((
                    "mdc.max_mod_rpcs_in_flight",
                    63,
                    "create/unlink storms in the metadata phases".into(),
                ));
            }
            WorkloadClass::SmallObjectDumps => {
                moves.push((
                    "osc.max_pages_per_rpc",
                    1024 << l.min(2),
                    "aggregate medium objects into large writeback RPCs".into(),
                ));
                moves.push((
                    "osc.max_dirty_mb",
                    256 << l.min(2),
                    "absorb each dump burst in the write cache".into(),
                ));
                moves.push((
                    "osc.max_rpcs_in_flight",
                    32 << l.min(2),
                    "keep the drain pipeline deep during fsync".into(),
                ));
                moves.push((
                    "stripe_count",
                    1,
                    "group files are already balanced across OSTs; extra \
                     stripes add object overhead"
                        .into(),
                ));
            }
        }

        // Rule-set priming: matched rules override the playbook for their
        // parameter (this is what makes the first guess with rules so strong
        // in Figs. 6-7).
        for (name, intended, reason) in moves {
            let rule = self.rules.iter().find(|r| r.parameter == name);
            match rule.and_then(|r| r.guidance()) {
                Some(g) => {
                    let value = self.guidance_value(g, name, avg_write, intended);
                    let mut cfg_value = value;
                    cfg_value = self.clamp_extracted(&config, name, cfg_value);
                    if config.set(name, cfg_value).is_ok() {
                        rationale.push((
                            name.to_string(),
                            format!(
                                "applying accumulated rule: {} -> {cfg_value}",
                                rule.expect("matched").rule_description
                            ),
                        ));
                    }
                }
                None => {
                    self.apply_move(
                        backend,
                        &mut config,
                        &mut rationale,
                        name,
                        intended,
                        &reason,
                        attempt,
                    );
                }
            }
        }
        // Rules may cover parameters outside the playbook.
        for r in &self.rules {
            if rationale.iter().any(|(p, _)| p == &r.parameter) {
                continue;
            }
            if let Some(g) = r.guidance() {
                let value = self.guidance_value(g, &r.parameter, avg_write, 0);
                let value = self.clamp_extracted(&config, &r.parameter, value);
                if config.set(&r.parameter, value).is_ok() {
                    rationale.push((
                        r.parameter.clone(),
                        format!(
                            "applying accumulated rule: {} -> {value}",
                            r.rule_description
                        ),
                    ));
                }
            }
        }
        (config, rationale)
    }

    fn guidance_value(&self, g: Guidance, name: &str, avg_write: f64, fallback: i64) -> i64 {
        match g {
            Guidance::SetToAllOsts => -1,
            Guidance::SetToOne => 1,
            Guidance::MatchTransferSize => {
                Self::pow2_bytes(avg_write.max(1e6), 1 << 20, 64 << 20) as i64
            }
            Guidance::RaiseToAtLeast(v) => v.max(fallback),
            Guidance::SetTo(v) => v,
            Guidance::Disable => 0,
        }
        .max(match name {
            "stripe_count" => -1,
            _ => 0,
        })
    }

    /// Alternate direction after a regression: revert to the best config and
    /// vary one untried secondary dimension.
    fn propose_alternate(
        &mut self,
        backend: &mut SimLlm,
        base: TuningConfig,
        alternate: u32,
    ) -> (TuningConfig, Vec<(String, String)>) {
        let mut config = base;
        let mut rationale = Vec::new();
        let class = self.classify();
        let attempt = self.history.len();
        let (name, value, reason): (&str, i64, &str) = match (class, alternate) {
            (WorkloadClass::MetadataSmallFiles, 1) => (
                "llite.max_cached_mb",
                131072,
                "keep the whole working set cached between rounds",
            ),
            (WorkloadClass::MetadataSmallFiles, _) => {
                ("llite.statahead_max", 8192, "push statahead to its maximum")
            }
            (WorkloadClass::RandomSmallShared, 1) => (
                "llite.max_read_ahead_mb",
                0,
                "random reads cannot benefit from readahead; stop wasting \
                 budget on it",
            ),
            (WorkloadClass::RandomSmallShared, _) => (
                "osc.max_dirty_mb",
                1024,
                "push buffering further for coalescing",
            ),
            (_, 1) => (
                "osc.max_rpcs_in_flight",
                128,
                "try an even deeper pipeline as an alternate direction",
            ),
            (_, _) => (
                "osc.max_dirty_mb",
                1024,
                "try deeper write-behind as an alternate direction",
            ),
        };
        self.apply_move(
            backend,
            &mut config,
            &mut rationale,
            name,
            value,
            reason,
            attempt,
        );
        rationale.push((
            "(strategy)".into(),
            "previous change regressed; reverted to the best configuration \
             and varying one dimension"
                .into(),
        ));
        (config, rationale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ContextTag;
    use llmsim::{ModelProfile, SimLlm};
    use pfs::params::ParamRegistry;
    use ragx::RagExtractor;

    fn setup() -> (Vec<ExtractedParam>, BTreeMap<String, ParamFact>) {
        let ex = RagExtractor::standard();
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let (params, _) = ex.extract(&mut backend);
        let mut truths = BTreeMap::new();
        for p in &params {
            let t = ragx::truth::truth_fact(&ParamRegistry::standard(), &p.name).unwrap();
            truths.insert(p.name.clone(), t);
        }
        (params, truths)
    }

    fn seq_report() -> IoReport {
        IoReport {
            nprocs: 50,
            avg_write_size: 16e6,
            seq_write_fraction: 0.95,
            consec_write_fraction: 0.95,
            shared_file_count: 1,
            file_count: 1,
            bytes_written: 19 << 30,
            bytes_read: 19 << 30,
            avg_file_bytes: 19e9,
            max_file_bytes: 19 << 30,
            seq_read_fraction: 0.95,
            dominant_module: "MPI-IO".into(),
            ..Default::default()
        }
    }

    fn md_report() -> IoReport {
        IoReport {
            nprocs: 50,
            avg_write_size: 8192.0,
            meta_ratio: 0.7,
            meta_ops: 7000,
            data_ops: 3000,
            avg_file_bytes: 8192.0,
            file_count: 20000,
            stats_per_file: 1.0,
            dominant_module: "POSIX".into(),
            ..Default::default()
        }
    }

    fn agent_for(
        backend: &mut SimLlm,
        report: Option<IoReport>,
        options: TuningOptions,
        rules: Vec<Rule>,
    ) -> TuningAgent {
        let (params, truths) = setup();
        TuningAgent::new(
            backend,
            options,
            ClusterSpec::paper_cluster(),
            params,
            &truths,
            report,
            rules,
            100.0,
        )
    }

    #[test]
    fn first_move_for_large_sequential_stripes_wide() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let mut agent = agent_for(&mut b, Some(seq_report()), TuningOptions::default(), vec![]);
        // Skip the follow-up question.
        let mut call = agent.decide(&mut b);
        if let ToolCall::Analyze(q) = call {
            agent.accept_answer(Answer {
                question: q,
                text: "sequential".into(),
                value: 0.95,
            });
            call = agent.decide(&mut b);
        }
        let ToolCall::RunConfig { config, rationale } = call else {
            panic!("expected RunConfig");
        };
        assert_eq!(config.stripe_count, -1);
        assert!(config.osc_max_rpcs_in_flight >= 32);
        assert!(config.osc_max_pages_per_rpc >= 1024);
        assert!(!rationale.is_empty());
    }

    #[test]
    fn first_move_for_metadata_keeps_stripe_one_and_raises_statahead() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let mut agent = agent_for(&mut b, Some(md_report()), TuningOptions::default(), vec![]);
        let mut call = agent.decide(&mut b);
        while let ToolCall::Analyze(q) = call {
            agent.accept_answer(Answer {
                question: q,
                text: "mostly small files".into(),
                value: 0.99,
            });
            call = agent.decide(&mut b);
        }
        let ToolCall::RunConfig { config, .. } = call else {
            panic!("expected RunConfig");
        };
        assert_eq!(config.stripe_count, 1);
        assert!(config.llite_statahead_max >= 4096);
        assert!(config.mdc_max_rpcs_in_flight >= 32);
        assert!(config.mdc_max_mod_rpcs_in_flight < config.mdc_max_rpcs_in_flight);
    }

    #[test]
    fn no_analysis_ablation_misreads_metadata_workload() {
        // Without the Analysis Agent the report is withheld and the agent
        // raises readahead/RPC parameters — the paper's observed failure.
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            use_analysis: false,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(md_report()), options, vec![]);
        let ToolCall::RunConfig { config, .. } = agent.decide(&mut b) else {
            panic!("expected RunConfig");
        };
        // Misguided for metadata: wide striping + readahead focus.
        assert_eq!(config.stripe_count, -1);
        assert!(config.llite_max_read_ahead_mb >= 512);
        assert_eq!(config.llite_statahead_max, 32, "statahead untouched");
    }

    #[test]
    fn no_descriptions_ablation_misdirects_stripe_count() {
        // Hallucinated stripe_count definition ("distribute the files more
        // evenly across all OSTs") flips the metadata move to -1.
        let mut b = SimLlm::new(ModelProfile::llama_31_70b(), 3);
        let options = TuningOptions {
            use_descriptions: false,
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(md_report()), options, vec![]);
        let ToolCall::RunConfig { config, rationale } = agent.decide(&mut b) else {
            panic!("expected RunConfig");
        };
        // llama's parametric memory hallucinates the stripe_count definition
        // (deterministic given the profile seed); the move is misdirected.
        let stripe_rationale = rationale
            .iter()
            .find(|(p, _)| p == "stripe_count")
            .map(|(_, r)| r.clone());
        if config.stripe_count == -1 {
            assert!(
                stripe_rationale.unwrap_or_default().contains("flawed"),
                "misdirection must be visible in the rationale"
            );
        }
    }

    #[test]
    fn escalates_on_improvement_and_stops_on_diminishing_returns() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(seq_report()), options, vec![]);
        // Attempt 1 improves strongly.
        let ToolCall::RunConfig { config, .. } = agent.decide(&mut b) else {
            panic!()
        };
        agent.record_result(config, 25.0);
        // Attempt 2: escalation.
        let ToolCall::RunConfig { config: c2, .. } = agent.decide(&mut b) else {
            panic!("expected escalation run")
        };
        agent.record_result(c2, 24.5); // tiny gain
                                       // Attempt 3 or end: with ≥3 attempts and small gain it may end; give
                                       // it one more cycle if it runs.
        match agent.decide(&mut b) {
            ToolCall::EndTuning { reason } => {
                assert!(reason.contains("further"), "{reason}");
            }
            ToolCall::RunConfig { config: c3, .. } => {
                agent.record_result(c3, 24.4);
                let ToolCall::EndTuning { .. } = agent.decide(&mut b) else {
                    panic!("must end at diminishing returns");
                };
            }
            ToolCall::Analyze(_) => panic!("no analysis after first attempt"),
        }
    }

    #[test]
    fn reverts_and_tries_alternate_on_regression() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(md_report()), options, vec![]);
        let ToolCall::RunConfig { config, .. } = agent.decide(&mut b) else {
            panic!()
        };
        agent.record_result(config.clone(), 60.0); // improved
        let ToolCall::RunConfig { config: c2, .. } = agent.decide(&mut b) else {
            panic!()
        };
        agent.record_result(c2, 80.0); // regression
        let call = agent.decide(&mut b);
        let ToolCall::RunConfig {
            config: c3,
            rationale,
        } = call
        else {
            panic!("expected alternate attempt");
        };
        // Alternate keeps the best attempt's core settings.
        assert_eq!(c3.stripe_count, config.stripe_count);
        assert!(rationale.iter().any(|(p, _)| p == "(strategy)"));
    }

    #[test]
    fn rules_prime_the_first_configuration() {
        let rules = vec![
            Rule::new(
                "stripe_count",
                Guidance::SetToAllOsts,
                &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile],
            ),
            Rule::new(
                "osc.max_rpcs_in_flight",
                Guidance::RaiseToAtLeast(64),
                &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile],
            ),
            // A scenario rule the session matched on a faulted cluster:
            // the agent applies it as handed, with no second filter.
            Rule::new(
                "osc.max_dirty_mb",
                Guidance::RaiseToAtLeast(1024),
                &[
                    ContextTag::LargeSequentialWrites,
                    ContextTag::SharedFile,
                    ContextTag::DegradedTopology,
                ],
            ),
        ];
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(seq_report()), options, rules);
        let ToolCall::RunConfig { config, rationale } = agent.decide(&mut b) else {
            panic!()
        };
        assert_eq!(config.stripe_count, -1);
        assert!(config.osc_max_rpcs_in_flight >= 64);
        assert!(config.osc_max_dirty_mb >= 1024);
        assert!(rationale
            .iter()
            .any(|(_, r)| r.contains("accumulated rule")));
    }

    #[test]
    fn budget_exhaustion_forces_end() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            max_attempts: 2,
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(seq_report()), options, vec![]);
        for wall in [50.0, 40.0] {
            let ToolCall::RunConfig { config, .. } = agent.decide(&mut b) else {
                panic!()
            };
            agent.record_result(config, wall);
        }
        let ToolCall::EndTuning { reason } = agent.decide(&mut b) else {
            panic!("expected end at budget");
        };
        assert!(reason.contains("budget"), "{reason}");
    }

    #[test]
    fn metadata_class_asks_the_case_study_questions() {
        // Fig. 10: file size detail and metadata/data ratio follow-ups.
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let mut agent = agent_for(&mut b, Some(md_report()), TuningOptions::default(), vec![]);
        let ToolCall::Analyze(q1) = agent.decide(&mut b) else {
            panic!("expected first follow-up");
        };
        assert_eq!(q1, AnalysisQuestion::FileSizeDistribution);
        agent.accept_answer(Answer {
            question: q1,
            text: "99% small".into(),
            value: 0.99,
        });
        let ToolCall::Analyze(q2) = agent.decide(&mut b) else {
            panic!("expected second follow-up");
        };
        assert_eq!(q2, AnalysisQuestion::MetaToDataRatio);
    }

    #[test]
    fn dependent_bound_respected_in_proposals() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let options = TuningOptions {
            max_follow_ups: 0,
            ..Default::default()
        };
        let mut agent = agent_for(&mut b, Some(seq_report()), options, vec![]);
        let ToolCall::RunConfig { config, .. } = agent.decide(&mut b) else {
            panic!()
        };
        assert!(
            config.llite_max_read_ahead_per_file_mb * 2 <= config.llite_max_read_ahead_mb,
            "{} vs {}",
            config.llite_max_read_ahead_per_file_mb,
            config.llite_max_read_ahead_mb
        );
        assert!(config.mdc_max_mod_rpcs_in_flight < config.mdc_max_rpcs_in_flight);
    }
}
