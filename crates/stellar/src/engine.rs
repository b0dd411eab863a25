//! The STELLAR engine: offline extraction + the online tuning run driver.
//!
//! The run driver itself lives in [`crate::session`]; [`Stellar::tune`] is
//! a thin compatibility wrapper that drains a [`crate::TuningSession`] to
//! completion. Construct engines with [`crate::StellarBuilder`] (or
//! [`Stellar::standard`] for the paper defaults).

use crate::session::TuningSession;
use agents::{RuleSet, RuleSnapshot, TuningOptions};
use darshan::{tables::to_tables, Collector, Table};
use llmsim::{ModelProfile, ParamFact, SimLlm, UsageMeter};
use pfs::params::{ParamRegistry, TuningConfig};
use pfs::topology::ClusterSpec;
use pfs::PfsSimulator;
use ragx::{ExtractedParam, ExtractionReport, RagExtractor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use workloads::Workload;

/// The default simulated deployment: the paper's cluster.
///
/// Single source of truth for every construction path — the builder,
/// [`Stellar::standard`], experiment drivers and the CLI all call this
/// instead of re-deriving cluster specs per call site.
pub fn default_topology() -> ClusterSpec {
    ClusterSpec::paper_cluster()
}

/// How a session's run seed derives from the caller-supplied seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Mix the workload name into the seed (`combine(seed,
    /// stable_hash(name))`), so the same caller seed gives every workload
    /// an independent noise stream. The historical and default behaviour.
    #[default]
    PerWorkload,
    /// Use the caller seed verbatim — callers manage stream separation
    /// themselves (campaign grids derive per-cell seeds explicitly).
    Fixed,
}

/// Engine-level options.
#[derive(Debug, Clone)]
pub struct StellarOptions {
    /// Tuning Agent model (Claude-3.7-Sonnet in the paper).
    pub tuning_model: ModelProfile,
    /// Analysis Agent model (GPT-4o in the paper).
    pub analysis_model: ModelProfile,
    /// Agent behaviour switches (ablations, attempt budget).
    pub tuning: TuningOptions,
    /// Run-seed derivation policy.
    pub seed_policy: SeedPolicy,
    /// The latency of each session's [`llmsim::SimTransport`], the
    /// simulated provider every agent turn goes through. When set,
    /// sessions suspend ([`crate::SessionEvent::Waiting`]) instead of
    /// blocking while a call is in flight, and campaign workers poll them
    /// through it. `None` (the default) is an instant provider: every
    /// call completes on its first poll. Results are bit-identical either
    /// way — latency changes *when* work happens, never what it computes.
    pub backend_latency: Option<llmsim::LatencyProfile>,
    /// When set, every simulated run executes under this [`pfs::FaultPlan`]:
    /// OST service times scale by the plan's piecewise-constant degradation
    /// factors, evaluated in simulated (event-queue) time. Sessions tag
    /// their rule contexts "degraded-topology" so knowledge learned here
    /// shards separately from pristine runs. `None` is a pristine cluster.
    pub faults: Option<pfs::FaultPlan>,
    /// When set, agent turns can fail: each session's
    /// [`llmsim::SimTransport`] turns a deterministic fraction of backend
    /// calls into [`llmsim::CallStatus::Failed`] outcomes (per-session
    /// streams derive from this injection's seed × the run seed).
    /// Sessions retry transients under [`StellarOptions::retry`] and end
    /// in [`crate::SessionEvent::Failed`] when the budget is spent.
    /// `None` (the default) is a perfect backend.
    pub failures: Option<llmsim::FailureInjection>,
    /// How sessions respond to failed backend calls. Only failures
    /// injected through [`StellarOptions::failures`] ever consume it.
    pub retry: crate::session::RetryPolicy,
}

impl Default for StellarOptions {
    fn default() -> Self {
        StellarOptions {
            tuning_model: ModelProfile::claude_37_sonnet(),
            analysis_model: ModelProfile::gpt_4o(),
            tuning: TuningOptions::default(),
            seed_policy: SeedPolicy::default(),
            backend_latency: None,
            faults: None,
            failures: None,
            retry: crate::session::RetryPolicy::default(),
        }
    }
}

/// One configuration attempt within a tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// 1-based attempt index.
    pub iteration: usize,
    /// Configuration tried.
    pub config: TuningConfig,
    /// Measured wall time.
    pub wall_secs: f64,
    /// Speedup vs the initial default run.
    pub speedup: f64,
}

/// A complete Tuning Run (initial execution through End Tuning).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningRun {
    /// Workload label.
    pub workload: String,
    /// Wall time of the initial default-configuration run (iteration 0).
    pub default_wall: f64,
    /// Tuned attempts in order.
    pub attempts: Vec<AttemptRecord>,
    /// Best wall time achieved (including the default if nothing beat it).
    pub best_wall: f64,
    /// Best configuration.
    pub best_config: TuningConfig,
    /// Best speedup vs default.
    pub best_speedup: f64,
    /// The agent's justification for ending.
    pub end_reason: String,
    /// Rules learned by Reflect & Summarize.
    pub new_rules: Vec<agents::Rule>,
    /// Narrated decision log (Fig. 10 material).
    pub transcript: Vec<String>,
    /// Tuning Agent token usage.
    pub tuning_usage: UsageMeter,
    /// Analysis Agent token usage.
    pub analysis_usage: UsageMeter,
}

/// The engine.
pub struct Stellar {
    sim: PfsSimulator,
    options: StellarOptions,
    params: Vec<ExtractedParam>,
    truths: BTreeMap<String, ParamFact>,
    extraction_report: ExtractionReport,
}

impl Stellar {
    /// Build the engine: construct the simulator for `topo` and run the
    /// offline RAG extraction phase.
    pub fn new(topo: ClusterSpec, options: StellarOptions) -> Self {
        let sim = PfsSimulator::new(topo);
        let extractor = RagExtractor::standard();
        let mut extraction_backend = SimLlm::new(options.analysis_model.clone(), 0x0FF1);
        let (params, extraction_report) = extractor.extract(&mut extraction_backend);
        let registry = ParamRegistry::standard();
        let mut truths = BTreeMap::new();
        for p in &params {
            if let Some(t) = ragx::truth::truth_fact(&registry, &p.name) {
                truths.insert(p.name.clone(), t);
            }
        }
        Stellar {
            sim,
            options,
            params,
            truths,
            extraction_report,
        }
    }

    /// A fluent builder with the paper-default configuration.
    pub fn builder() -> crate::StellarBuilder {
        crate::StellarBuilder::new()
    }

    /// Engine with the paper's cluster and default options.
    pub fn standard() -> Self {
        Self::new(default_topology(), StellarOptions::default())
    }

    /// The simulator (for baselines and measurement).
    pub fn sim(&self) -> &PfsSimulator {
        &self.sim
    }

    /// The engine options.
    pub fn options(&self) -> &StellarOptions {
        &self.options
    }

    /// The extracted tunables.
    pub fn params(&self) -> &[ExtractedParam] {
        &self.params
    }

    /// Ground-truth facts for the extracted tunables.
    pub(crate) fn truths(&self) -> &BTreeMap<String, ParamFact> {
        &self.truths
    }

    /// The offline extraction accounting.
    pub fn extraction_report(&self) -> &ExtractionReport {
        &self.extraction_report
    }

    /// Run one traced execution, returning wall time and the dataframes.
    pub(crate) fn traced_run(
        &self,
        workload: &dyn Workload,
        cfg: &TuningConfig,
        seed: u64,
    ) -> (f64, String, Vec<Table>) {
        let streams = workload.generate(self.sim.topology(), seed);
        let nprocs = self.sim.topology().total_ranks();
        let mut collector = Collector::new(workload.name(), nprocs);
        let result = self.sim.run_traced_faulted(
            streams,
            cfg,
            seed,
            self.options.faults.as_ref(),
            &mut collector,
        );
        let log = collector.finish();
        let (header, tables) = to_tables(&log);
        (result.wall_secs, header, tables)
    }

    /// Open a steppable tuning session against `workload`.
    ///
    /// The session consults `rules` when priming the Tuning Agent —
    /// anything convertible into a [`RuleSnapshot`]: a
    /// [`agents::ShardedRuleStore`] snapshot (O(1), the campaign path) or
    /// a flat [`RuleSet`] (moved into the snapshot). Merge the
    /// finished run's `new_rules` back into your global store to
    /// accumulate knowledge, as [`Stellar::tune`] does.
    pub fn session<'a>(
        &'a self,
        workload: &'a dyn Workload,
        rules: impl Into<RuleSnapshot>,
        seed: u64,
    ) -> TuningSession<'a> {
        TuningSession::new(self, workload, rules.into(), seed)
    }

    /// Execute a complete Tuning Run against `workload`, consulting and
    /// updating the global `rule_set`.
    ///
    /// Compatibility wrapper: drains a [`TuningSession`] to completion and
    /// merges the learned rules, reproducing the historical blocking
    /// behaviour bit for bit.
    pub fn tune(&self, workload: &dyn Workload, rule_set: &mut RuleSet, seed: u64) -> TuningRun {
        let run = self.session(workload, rule_set.clone(), seed).drain();
        rule_set.merge(run.new_rules.clone());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn engine() -> Stellar {
        Stellar::standard()
    }

    #[test]
    fn offline_phase_extracts_13_params() {
        let e = engine();
        assert_eq!(e.params().len(), 13);
        assert_eq!(e.extraction_report().selected, 13);
    }

    #[test]
    fn tuning_run_improves_ior_16m_within_five_attempts() {
        let e = engine();
        let w = WorkloadKind::Ior16M.spec().scaled(0.1);
        let mut rules = RuleSet::new();
        let run = e.tune(w.as_ref(), &mut rules, 1);
        assert!(run.attempts.len() <= 5, "{} attempts", run.attempts.len());
        assert!(
            run.best_speedup > 3.0,
            "speedup {:.2} (attempts: {:?})",
            run.best_speedup,
            run.attempts.iter().map(|a| a.speedup).collect::<Vec<_>>()
        );
        assert!(!run.end_reason.is_empty());
        assert!(!run.new_rules.is_empty(), "should learn rules");
        assert!(!rules.is_empty(), "global rule set updated");
    }

    #[test]
    fn tuning_run_improves_mdworkbench() {
        let e = engine();
        let w = WorkloadKind::MdWorkbench8K.spec().scaled(0.3);
        let mut rules = RuleSet::new();
        let run = e.tune(w.as_ref(), &mut rules, 2);
        assert!(run.best_speedup > 1.1, "speedup {:.3}", run.best_speedup);
        // Metadata workload must keep stripe_count = 1.
        assert_eq!(run.best_config.stripe_count, 1);
        assert!(run.best_config.llite_statahead_max > 32);
    }

    #[test]
    fn rules_improve_first_attempt() {
        let e = engine();
        let w = WorkloadKind::Ior16M.spec().scaled(0.1);
        let mut rules = RuleSet::new();
        let cold = e.tune(w.as_ref(), &mut rules, 3);
        assert!(!rules.is_empty());
        let warm = e.tune(w.as_ref(), &mut rules, 4);
        let cold_first = cold.attempts.first().map(|a| a.speedup).unwrap_or(1.0);
        let warm_first = warm.attempts.first().map(|a| a.speedup).unwrap_or(1.0);
        assert!(
            warm_first >= cold_first * 0.85,
            "warm first guess {warm_first:.2} vs cold {cold_first:.2}              (must be at least comparable despite run noise)"
        );
        assert!(
            warm.attempts.len() <= cold.attempts.len(),
            "rules should not lengthen tuning"
        );
    }

    #[test]
    fn usage_metering_present() {
        let e = engine();
        let w = WorkloadKind::Macsio16M.spec().scaled(0.2);
        let mut rules = RuleSet::new();
        let run = e.tune(w.as_ref(), &mut rules, 5);
        assert!(run.tuning_usage.calls > 0);
        assert!(run.analysis_usage.calls > 0);
        assert!(run.tuning_usage.input_tokens > 1000);
    }

    #[test]
    fn transcript_narrates_the_run() {
        let e = engine();
        let w = WorkloadKind::MdWorkbench8K.spec().scaled(0.15);
        let mut rules = RuleSet::new();
        let run = e.tune(w.as_ref(), &mut rules, 6);
        let text = run.transcript.join("\n");
        assert!(text.contains("Configuration Runner"));
        assert!(text.contains("[result]"));
    }
}
