//! Ground-truth scoring of parameter facts — the Fig. 2 experiment.
//!
//! For each tuning target we compare (a) what a model recalls from
//! parametric memory and (b) what the RAG pipeline extracts, against the
//! registry's ground truth, and tally correct / imprecise / wrong marks for
//! definitions and ranges (the ✓ / ~ / ✗ of the figure).

use crate::extract::RagExtractor;
use llmsim::{FactQuality, ModelProfile, ParamFact, SimLlm};
use pfs::params::{Bound, ParamRegistry, TUNABLE_NAMES};
use serde::{Deserialize, Serialize};

/// Tally of fact quality across parameters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FactScore {
    /// Source label (model name or "STELLAR RAG (gpt-4o)").
    pub source: String,
    /// Correct definitions.
    pub def_correct: usize,
    /// Imprecise definitions.
    pub def_imprecise: usize,
    /// Wrong definitions.
    pub def_wrong: usize,
    /// Correct ranges.
    pub range_correct: usize,
    /// Wrong ranges.
    pub range_wrong: usize,
}

impl FactScore {
    /// Parameters scored.
    pub fn total(&self) -> usize {
        self.def_correct + self.def_imprecise + self.def_wrong
    }
}

/// The ground-truth fact for a parameter (constant-bound view; dependent
/// bounds resolve with default values of their inputs for comparison).
pub fn truth_fact(registry: &ParamRegistry, name: &str) -> Option<ParamFact> {
    let def = registry.get(name)?;
    let env = pfs::params::TuningConfig::lustre_default()
        .env(&pfs::topology::ClusterSpec::paper_cluster());
    let min = def.min.resolve(&env).ok()?;
    let max = match &def.max {
        Bound::Const(v) => *v,
        Bound::Expr(_) => def.max.resolve(&env).ok()?,
    };
    Some(ParamFact::grounded(name, def.purpose, min, max))
}

/// Score a model's parametric memory over the 13 tuning targets.
pub fn score_parametric(registry: &ParamRegistry, profile: &ModelProfile) -> FactScore {
    let mut backend = SimLlm::new(profile.clone(), 0xF162);
    let mut score = FactScore {
        source: profile.name.to_string(),
        ..Default::default()
    };
    for name in TUNABLE_NAMES {
        let truth = truth_fact(registry, name).expect("targets have truth");
        let fact = backend.param_fact(&truth, false);
        tally(&mut score, &fact);
    }
    score
}

/// Score the RAG pipeline's grounded extraction over the same targets.
pub fn score_rag(extractor: &RagExtractor) -> FactScore {
    let mut score = FactScore {
        source: "STELLAR RAG (gpt-4o)".to_string(),
        ..Default::default()
    };
    for name in TUNABLE_NAMES {
        match extractor.grounded_fact(name) {
            Some(fact) => tally(&mut score, &fact),
            None => {
                score.def_wrong += 1;
                score.range_wrong += 1;
            }
        }
    }
    score
}

fn tally(score: &mut FactScore, fact: &ParamFact) {
    match fact.def_quality {
        FactQuality::Correct => score.def_correct += 1,
        FactQuality::Imprecise => score.def_imprecise += 1,
        FactQuality::Wrong => score.def_wrong += 1,
    }
    match fact.range_quality {
        FactQuality::Correct => score.range_correct += 1,
        _ => score.range_wrong += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rag_beats_every_parametric_model() {
        let reg = ParamRegistry::standard();
        let ex = RagExtractor::standard();
        let rag = score_rag(&ex);
        assert_eq!(rag.range_correct, 13, "{rag:?}");
        assert_eq!(rag.def_correct, 13);
        for p in [
            ModelProfile::gpt_45(),
            ModelProfile::gemini_25_pro(),
            ModelProfile::claude_37_sonnet(),
        ] {
            let s = score_parametric(&reg, &p);
            assert!(s.range_correct < rag.range_correct, "{}: {s:?}", p.name);
            assert_eq!(s.total(), 13);
        }
    }

    #[test]
    fn frontier_models_mostly_miss_ranges() {
        // Fig. 2: "All three were incorrect regarding the maximum accepted
        // value" — our profiles make wrong ranges the dominant outcome.
        let reg = ParamRegistry::standard();
        for p in [
            ModelProfile::gpt_45(),
            ModelProfile::gemini_25_pro(),
            ModelProfile::claude_37_sonnet(),
        ] {
            let s = score_parametric(&reg, &p);
            assert!(s.range_wrong > s.range_correct, "{}: {s:?}", p.name);
        }
    }

    #[test]
    fn scoring_is_deterministic() {
        let reg = ParamRegistry::standard();
        let a = score_parametric(&reg, &ModelProfile::gpt_45());
        let b = score_parametric(&reg, &ModelProfile::gpt_45());
        assert_eq!(a, b);
    }

    #[test]
    fn truth_fact_resolves_dependent_bounds() {
        let reg = ParamRegistry::standard();
        let f = truth_fact(&reg, "llite.max_read_ahead_per_file_mb").unwrap();
        assert_eq!(f.max, 32); // 64 / 2 with default settings
        let f2 = truth_fact(&reg, "mdc.max_mod_rpcs_in_flight").unwrap();
        assert_eq!(f2.max, 7); // min(8-1, 255)
    }
}
