//! Fluent construction of the STELLAR engine.
//!
//! [`StellarBuilder`] replaces the ad-hoc `Stellar::new(topo, options)`
//! construction that used to be scattered through the experiment drivers:
//! every knob — topology, per-agent model profiles, behaviour switches,
//! attempt budget, seed policy — has a named setter, and `build()` runs the
//! offline extraction phase exactly once.
//!
//! ```
//! use stellar::StellarBuilder;
//! use llmsim::ModelProfile;
//!
//! let engine = StellarBuilder::new()
//!     .tuning_model(ModelProfile::claude_37_sonnet())
//!     .attempt_budget(5)
//!     .build();
//! assert_eq!(engine.params().len(), 13);
//! ```

use crate::engine::{default_topology, SeedPolicy, Stellar, StellarOptions};
use agents::TuningOptions;
use llmsim::ModelProfile;
use pfs::topology::ClusterSpec;

/// Builder for [`Stellar`]. Defaults reproduce the paper's setup: the
/// paper's cluster, Claude-3.7-Sonnet tuning / GPT-4o analysis, five
/// attempts, analysis + descriptions + rules enabled, per-workload seeds.
#[derive(Debug, Clone)]
pub struct StellarBuilder {
    topology: ClusterSpec,
    options: StellarOptions,
}

impl Default for StellarBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StellarBuilder {
    /// Builder with the paper-default configuration.
    pub fn new() -> Self {
        StellarBuilder {
            topology: default_topology(),
            options: StellarOptions::default(),
        }
    }

    /// Simulated cluster to tune against.
    pub fn topology(mut self, topo: ClusterSpec) -> Self {
        self.topology = topo;
        self
    }

    /// Model profile behind the Tuning Agent.
    pub fn tuning_model(mut self, profile: ModelProfile) -> Self {
        self.options.tuning_model = profile;
        self
    }

    /// Model profile behind the Analysis Agent (and offline extraction).
    pub fn analysis_model(mut self, profile: ModelProfile) -> Self {
        self.options.analysis_model = profile;
        self
    }

    /// Replace the full set of agent behaviour switches.
    pub fn tuning_options(mut self, tuning: TuningOptions) -> Self {
        self.options.tuning = tuning;
        self
    }

    /// Configuration-attempt budget per run (the paper caps at 5).
    pub fn attempt_budget(mut self, attempts: usize) -> Self {
        self.options.tuning.max_attempts = attempts;
        self
    }

    /// Maximum minor-loop follow-up questions per run.
    pub fn max_follow_ups(mut self, n: usize) -> Self {
        self.options.tuning.max_follow_ups = n;
        self
    }

    /// Toggle the Analysis Agent (`false` = the `No Analysis` ablation).
    pub fn use_analysis(mut self, on: bool) -> Self {
        self.options.tuning.use_analysis = on;
        self
    }

    /// Toggle RAG descriptions (`false` = the `No Descriptions` ablation).
    pub fn use_descriptions(mut self, on: bool) -> Self {
        self.options.tuning.use_descriptions = on;
        self
    }

    /// Toggle global rule-set consultation.
    pub fn use_rules(mut self, on: bool) -> Self {
        self.options.tuning.use_rules = on;
        self
    }

    /// How run seeds derive from caller seeds (default:
    /// [`SeedPolicy::PerWorkload`]).
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.options.seed_policy = policy;
        self
    }

    /// Inject deterministic seeded backend latency (`profile` ticks per
    /// agent turn): sessions suspend with [`crate::SessionEvent::Waiting`]
    /// while a call is in flight instead of blocking, and campaign
    /// workers overlap suspended cells. Off by default (instant backend).
    /// Reports stay bit-identical to the instant path.
    pub fn backend_latency(mut self, profile: llmsim::LatencyProfile) -> Self {
        self.options.backend_latency = Some(profile);
        self
    }

    /// Execute every simulated run under `plan`: OST service times scale by
    /// the plan's event-scheduled degradation factors (simulated time, never
    /// wall-clock). Sessions tag learned rules "degraded-topology" so fault
    /// knowledge shards separately. Empty plans are treated as pristine.
    pub fn faults(mut self, plan: pfs::FaultPlan) -> Self {
        self.options.faults = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Inject deterministic seeded backend failures: each session's
    /// [`llmsim::SimTransport`] turns the injection's fraction of calls
    /// into [`llmsim::CallStatus::Failed`] outcomes, drawn per submission
    /// index so the schedule is reproducible and latency-invariant.
    /// Sessions retry transients under the engine's
    /// [`crate::RetryPolicy`] and end in [`crate::SessionEvent::Failed`]
    /// when the budget is spent. Off by default (perfect backend).
    pub fn failures(mut self, injection: llmsim::FailureInjection) -> Self {
        self.options.failures = Some(injection);
        self
    }

    /// How sessions respond to failed backend calls (attempt budget and
    /// poll-tick backoff). Defaults to [`crate::RetryPolicy::default`];
    /// only failures injected with [`StellarBuilder::failures`] ever
    /// consume it.
    pub fn retry_policy(mut self, policy: crate::RetryPolicy) -> Self {
        self.options.retry = policy;
        self
    }

    /// Build the engine: construct the simulator and run the offline RAG
    /// extraction phase.
    pub fn build(self) -> Stellar {
        Stellar::new(self.topology, self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_standard_engine() {
        let built = StellarBuilder::new().build();
        let standard = Stellar::standard();
        assert_eq!(built.sim().topology(), standard.sim().topology());
        assert_eq!(built.params().len(), standard.params().len());
    }

    #[test]
    fn setters_land_in_options() {
        let engine = StellarBuilder::new()
            .tuning_model(ModelProfile::llama_31_70b())
            .analysis_model(ModelProfile::claude_37_sonnet())
            .attempt_budget(3)
            .max_follow_ups(0)
            .use_analysis(false)
            .use_descriptions(false)
            .use_rules(false)
            .seed_policy(SeedPolicy::Fixed)
            .build();
        let o = engine.options();
        assert_eq!(o.tuning_model.name, "llama-3.1-70b-instruct");
        assert_eq!(o.analysis_model.name, "claude-3.7-sonnet");
        assert_eq!(o.tuning.max_attempts, 3);
        assert_eq!(o.tuning.max_follow_ups, 0);
        assert!(!o.tuning.use_analysis);
        assert!(!o.tuning.use_descriptions);
        assert!(!o.tuning.use_rules);
        assert!(matches!(o.seed_policy, SeedPolicy::Fixed));
    }

    #[test]
    fn faults_land_in_options() {
        let topo = default_topology();
        let plan = pfs::FaultPlan::seeded(topo.ost_count(), 7);
        let engine = StellarBuilder::new().faults(plan.clone()).build();
        assert_eq!(engine.options().faults.as_ref(), Some(&plan));
        // Empty plans normalize to pristine.
        let engine = StellarBuilder::new()
            .faults(pfs::FaultPlan::default())
            .build();
        assert!(engine.options().faults.is_none());
    }

    #[test]
    fn failure_knobs_land_in_options() {
        let injection = llmsim::FailureInjection::standard(9);
        let policy = crate::RetryPolicy {
            max_attempts: 5,
            backoff_ticks: 2,
        };
        let engine = StellarBuilder::new()
            .failures(injection)
            .retry_policy(policy)
            .build();
        assert_eq!(engine.options().failures, Some(injection));
        assert_eq!(engine.options().retry, policy);
        // Defaults: perfect backend, standard retry policy.
        let engine = StellarBuilder::new().build();
        assert!(engine.options().failures.is_none());
        assert_eq!(engine.options().retry, crate::RetryPolicy::default());
    }

    #[test]
    fn custom_topology_reaches_the_simulator() {
        let mut topo = default_topology();
        topo.oss_count *= 2;
        let engine = StellarBuilder::new().topology(topo.clone()).build();
        assert_eq!(engine.sim().topology().oss_count, topo.oss_count);
    }
}
