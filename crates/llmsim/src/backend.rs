//! The backend handle agents hold.
//!
//! [`SimLlm`] is the deterministic backend used throughout the
//! reproduction. It provides exactly the three capabilities the agents need:
//!
//! 1. **fact recall** — grounded (truth passes through) or parametric
//!    (corrupted per profile), the knowledge-fidelity mechanism behind the
//!    RAG ablation;
//! 2. **decision noise** — discipline-modulated jitter applied to the expert
//!    policy's value choices (how Fig. 9's models differ);
//! 3. **accounting** — every prompt/response pair is token-metered through
//!    the prefix cache.

use crate::facts::{corrupt, ParamFact};
use crate::profiles::ModelProfile;
use crate::tokens::{estimate_tokens, PrefixCache, UsageMeter};
use simcore::rng::{combine, stable_hash};
use simcore::SimRng;

/// Deterministic simulated backend.
#[derive(Debug, Clone)]
pub struct SimLlm {
    profile: ModelProfile,
    seed: u64,
    cache: PrefixCache,
    usage: UsageMeter,
    turn: u64,
}

impl SimLlm {
    /// Create a backend for `profile`, seeded for reproducibility.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        SimLlm {
            profile,
            seed,
            cache: PrefixCache::new(),
            usage: UsageMeter::default(),
            turn: 0,
        }
    }

    /// The model profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn rng_for(&self, context: &str) -> SimRng {
        SimRng::new(combine(
            combine(self.seed, stable_hash(self.profile.name)),
            stable_hash(context),
        ))
    }

    /// Recall what the model knows about a parameter. `grounding` carries
    /// the retrieved documentation when RAG supplied it; `truth` is the
    /// ground-truth fact used to service grounded answers and to seed
    /// corruption.
    pub fn param_fact(&mut self, truth: &ParamFact, grounded: bool) -> ParamFact {
        if grounded {
            ParamFact::grounded(&truth.name, &truth.definition, truth.min, truth.max)
        } else {
            corrupt(
                &self.profile,
                &truth.name,
                &truth.definition,
                truth.min,
                truth.max,
            )
        }
    }

    /// A multiplicative jitter around 1.0 for value selection; tighter for
    /// disciplined models.
    pub fn decision_jitter(&mut self, context: &str) -> f64 {
        let mut rng = self.rng_for(context);
        // Discipline 1.0 -> sigma 0; discipline 0.8 -> sigma 0.3.
        let sigma = (1.0 - self.profile.discipline).max(0.0) * 1.5;
        rng.lognormal_factor(sigma)
    }

    /// With probability tied to (1 - discipline), the model deviates from
    /// the policy's first-choice move (picks a secondary candidate).
    pub fn deviates(&mut self, context: &str) -> bool {
        let mut rng = self.rng_for(context);
        rng.chance((1.0 - self.profile.discipline) * 1.5)
    }

    /// Meter one inference call.
    pub fn charge(&mut self, prompt: &str, response: &str) {
        self.turn += 1;
        let input = estimate_tokens(prompt);
        let cached = self.cache.observe(prompt);
        let output = (estimate_tokens(response) as f64 * self.profile.verbosity).round() as u64;
        self.usage.record(input, cached, output);
    }

    /// Usage so far.
    pub fn usage(&self) -> &UsageMeter {
        &self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FactQuality;

    fn truth() -> ParamFact {
        ParamFact::grounded(
            "llite.statahead_max",
            "Maximum entries prefetched by statahead.",
            0,
            8192,
        )
    }

    #[test]
    fn grounded_recall_is_exact() {
        let mut b = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let f = b.param_fact(&truth(), true);
        assert_eq!(f.def_quality, FactQuality::Correct);
        assert_eq!(f.range_quality, FactQuality::Correct);
        assert_eq!(f.max, 8192);
    }

    #[test]
    fn ungrounded_recall_matches_corruption_model() {
        let mut b = SimLlm::new(ModelProfile::llama_31_70b(), 1);
        let f = b.param_fact(&truth(), false);
        let expected = crate::facts::corrupt(
            &ModelProfile::llama_31_70b(),
            "llite.statahead_max",
            "Maximum entries prefetched by statahead.",
            0,
            8192,
        );
        assert_eq!(f, expected);
    }

    #[test]
    fn jitter_is_deterministic_and_disciplined() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 7);
        let a = b.decision_jitter("stripe_count:attempt1");
        let a2 = b.decision_jitter("stripe_count:attempt1");
        assert_eq!(a.to_bits(), a2.to_bits());
        // Disciplined model jitters tightly.
        assert!((a - 1.0).abs() < 0.5);
    }

    #[test]
    fn less_disciplined_models_deviate_more() {
        let contexts: Vec<String> = (0..200).map(|i| format!("ctx{i}")).collect();
        let count = |p: ModelProfile| {
            let mut b = SimLlm::new(p, 3);
            contexts.iter().filter(|c| b.deviates(c)).count()
        };
        let steady = count(ModelProfile::claude_37_sonnet());
        let loose = count(ModelProfile::llama_31_70b());
        assert!(loose > steady, "loose {loose} !> steady {steady}");
    }

    #[test]
    fn charging_tracks_cache() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let system = "SYSTEM: you are a storage tuning agent. ".repeat(100);
        b.charge(&system, "ok");
        let longer = format!("{system} TURN 2: new observation.");
        b.charge(&longer, "a rationale");
        let u = b.usage();
        assert_eq!(u.calls, 2);
        assert!(u.cache_hit_ratio() > 0.3, "{}", u.cache_hit_ratio());
        assert!(u.output_tokens > 0);
    }

    #[test]
    fn verbosity_scales_output() {
        let resp = "r".repeat(400); // 100 tokens
        let mut terse = SimLlm::new(ModelProfile::gpt_4o(), 1); // 0.9
        terse.charge("p", &resp);
        let mut wordy = SimLlm::new(ModelProfile::llama_31_70b(), 1); // 1.2
        wordy.charge("p", &resp);
        assert_eq!(terse.usage().output_tokens, 90);
        assert_eq!(wordy.usage().output_tokens, 120);
    }
}
