//! Tuning rules and the global Rule Set (§4.4).
//!
//! Rules follow the paper's JSON schema exactly — a list of objects with
//! `Parameter`, `Rule Description` and `Tuning Context` keys. Descriptions
//! are *generalized* ("informed by the file size", "the number of available
//! OSTs") rather than literal values, and contexts describe workload
//! characteristics, never application names. To apply rules mechanically,
//! descriptions are written in a controlled grammar that
//! [`Rule::guidance`] parses back; contexts carry recognisable
//! [`ContextTag`] phrases that [`RuleSet::matching`] scores against a new
//! workload's report.

use crate::report::{IoReport, WorkloadClass};
use serde::{Deserialize, Serialize};

/// Workload-characteristic tags used inside tuning contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextTag {
    /// Large, mostly sequential writes.
    LargeSequentialWrites,
    /// Small, mostly random writes.
    RandomSmallWrites,
    /// A file written concurrently by many ranks.
    SharedFile,
    /// One file per process.
    FilePerProcess,
    /// Very many small files.
    ManySmallFiles,
    /// Metadata operations dominate.
    MetadataIntensive,
    /// Distinct phases with different patterns.
    MixedPhases,
    /// Substantial sequential read phase.
    SequentialReads,
    /// Medium-size object appends / bursty dumps.
    BurstyObjectDumps,
    /// Cluster running with faulted, degraded, or recovering OSTs
    /// (scenario tag — see [`ContextTag::is_scenario`]).
    DegradedTopology,
    /// Co-scheduled jobs contending for the same servers (scenario tag).
    NoisyNeighbor,
}

impl ContextTag {
    /// The phrase used in rendered contexts (and recognised when parsing).
    pub fn phrase(self) -> &'static str {
        match self {
            ContextTag::LargeSequentialWrites => "large sequential writes",
            ContextTag::RandomSmallWrites => "small random writes",
            ContextTag::SharedFile => "a file shared across many processes",
            ContextTag::FilePerProcess => "file-per-process access",
            ContextTag::ManySmallFiles => "very many small files",
            ContextTag::MetadataIntensive => "metadata-intensive operation mix",
            ContextTag::MixedPhases => "multiple phases with distinct I/O patterns",
            ContextTag::SequentialReads => "a substantial sequential read phase",
            ContextTag::BurstyObjectDumps => "bursty medium-size object dumps",
            ContextTag::DegradedTopology => "a degraded cluster with faulted or recovering OSTs",
            ContextTag::NoisyNeighbor => "noisy-neighbor contention from co-scheduled jobs",
        }
    }

    /// All tags (for parsing). Scenario tags come last so the bitmask
    /// positions of the original workload-shape tags never move.
    pub fn all() -> [ContextTag; 11] {
        [
            ContextTag::LargeSequentialWrites,
            ContextTag::RandomSmallWrites,
            ContextTag::SharedFile,
            ContextTag::FilePerProcess,
            ContextTag::ManySmallFiles,
            ContextTag::MetadataIntensive,
            ContextTag::MixedPhases,
            ContextTag::SequentialReads,
            ContextTag::BurstyObjectDumps,
            ContextTag::DegradedTopology,
            ContextTag::NoisyNeighbor,
        ]
    }

    /// Whether this tag describes the *scenario* a rule was learned under
    /// (faults, contention) rather than the workload's own I/O shape.
    ///
    /// Scenario tags gate matching exactly: a rule matches a probe only if
    /// the two agree on every scenario tag. Advice learned on a degraded or
    /// contended cluster must not leak into pristine sessions, and vice
    /// versa — the two regimes shard and federate separately.
    pub fn is_scenario(self) -> bool {
        matches!(
            self,
            ContextTag::DegradedTopology | ContextTag::NoisyNeighbor
        )
    }

    /// Bitmask over all scenario tags.
    pub fn scenario_mask() -> u16 {
        Self::all()
            .into_iter()
            .filter(|t| t.is_scenario())
            .fold(0, |m, t| m | t.bit())
    }

    /// Short machine-readable label for scenario tags (used in the obs
    /// canonical schema); `None` for workload-shape tags.
    pub fn scenario_label(self) -> Option<&'static str> {
        match self {
            ContextTag::DegradedTopology => Some("degraded-topology"),
            ContextTag::NoisyNeighbor => Some("noisy-neighbor"),
            _ => None,
        }
    }

    /// This tag's bit in a context-tag mask (bit positions follow
    /// [`ContextTag::all`] order).
    pub fn bit(self) -> u16 {
        let idx = Self::all()
            .iter()
            .position(|t| *t == self)
            .expect("every tag appears in all()");
        1 << idx
    }

    /// Bitmask over a set of tags (duplicates collapse).
    pub fn mask_of(tags: &[ContextTag]) -> u16 {
        tags.iter().fold(0, |m, t| m | t.bit())
    }

    /// Tags describing a report.
    pub fn tags_for(report: &IoReport) -> Vec<ContextTag> {
        let mut tags = Vec::new();
        match report.classify() {
            WorkloadClass::LargeSequentialShared => {
                tags.push(ContextTag::LargeSequentialWrites);
                tags.push(ContextTag::SharedFile);
            }
            WorkloadClass::RandomSmallShared => {
                tags.push(ContextTag::RandomSmallWrites);
                tags.push(ContextTag::SharedFile);
            }
            WorkloadClass::MetadataSmallFiles => {
                tags.push(ContextTag::ManySmallFiles);
                tags.push(ContextTag::MetadataIntensive);
            }
            WorkloadClass::MixedMultiPhase => {
                tags.push(ContextTag::MixedPhases);
                tags.push(ContextTag::MetadataIntensive);
                tags.push(ContextTag::LargeSequentialWrites);
            }
            WorkloadClass::SmallObjectDumps => {
                tags.push(ContextTag::BurstyObjectDumps);
                tags.push(ContextTag::FilePerProcess);
            }
        }
        if report.has_reads() && report.seq_read_fraction > 0.6 {
            tags.push(ContextTag::SequentialReads);
        }
        tags
    }
}

/// Machine-applicable guidance parsed from a rule description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Guidance {
    /// Stripe across all available OSTs.
    SetToAllOsts,
    /// Keep/set to one.
    SetToOne,
    /// Match the application's dominant transfer size.
    MatchTransferSize,
    /// Set to at least this value.
    RaiseToAtLeast(i64),
    /// Set to exactly this value.
    SetTo(i64),
    /// Disable (set to zero).
    Disable,
}

impl Guidance {
    /// Render in the controlled grammar used by rule descriptions.
    pub fn render(self, parameter: &str) -> String {
        match self {
            Guidance::SetToAllOsts => format!(
                "Set {parameter} to stripe across all available OSTs (-1) so \
                 aggregate server bandwidth serves the shared data."
            ),
            Guidance::SetToOne => format!(
                "Keep {parameter} at 1; additional stripes only add per-OST \
                 object overhead for this access pattern."
            ),
            Guidance::MatchTransferSize => format!(
                "Choose {parameter} informed by the application's dominant \
                 transfer size rather than a fixed value; align it to the \
                 transfer size or a small multiple of it."
            ),
            Guidance::RaiseToAtLeast(v) => {
                format!("Raise {parameter} to at least {v} for this workload shape.")
            }
            Guidance::SetTo(v) => format!("Set {parameter} to {v}."),
            Guidance::Disable => format!(
                "Disable {parameter} (set it to 0); it only wastes resources \
                 under this pattern."
            ),
        }
    }

    /// Parse back from a rendered description.
    pub fn parse(description: &str) -> Option<Guidance> {
        if description.contains("all available OSTs") {
            Some(Guidance::SetToAllOsts)
        } else if description.contains("at 1;") {
            Some(Guidance::SetToOne)
        } else if description.contains("dominant transfer size") {
            Some(Guidance::MatchTransferSize)
        } else if let Some(rest) = description.split("to at least ").nth(1) {
            let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            num.parse().ok().map(Guidance::RaiseToAtLeast)
        } else if description.contains("Disable") {
            Some(Guidance::Disable)
        } else if let Some(rest) = description.split(" to ").nth(1) {
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '-')
                .collect();
            num.parse().ok().map(Guidance::SetTo)
        } else {
            None
        }
    }

    /// Whether two guidances point in opposite directions (the hard-conflict
    /// case of §4.4.2 that removes both rules).
    pub fn conflicts_with(self, other: Guidance) -> bool {
        use Guidance::*;
        matches!(
            (self, other),
            (SetToAllOsts, SetToOne)
                | (SetToOne, SetToAllOsts)
                | (Disable, RaiseToAtLeast(_))
                | (RaiseToAtLeast(_), Disable)
        )
    }
}

/// One tuning rule, serialised with the paper's JSON keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Parameter name.
    #[serde(rename = "Parameter")]
    pub parameter: String,
    /// Generalized recommendation (controlled grammar).
    #[serde(rename = "Rule Description")]
    pub rule_description: String,
    /// I/O behaviour context in which the rule was learned.
    #[serde(rename = "Tuning Context")]
    pub tuning_context: String,
}

impl Rule {
    /// Build a rule from structured pieces.
    pub fn new(parameter: &str, guidance: Guidance, tags: &[ContextTag]) -> Self {
        let ctx = tags
            .iter()
            .map(|t| t.phrase())
            .collect::<Vec<_>>()
            .join("; ");
        Rule {
            parameter: parameter.to_string(),
            rule_description: guidance.render(parameter),
            tuning_context: format!("Workload exhibits {ctx}."),
        }
    }

    /// Parse the guidance back from the description.
    pub fn guidance(&self) -> Option<Guidance> {
        Guidance::parse(&self.rule_description)
    }

    /// Parse the context tags back from the context text.
    pub fn tags(&self) -> Vec<ContextTag> {
        ContextTag::all()
            .into_iter()
            .filter(|t| self.tuning_context.contains(t.phrase()))
            .collect()
    }

    /// Context-match score against a workload's tags: |intersection| /
    /// |rule tags|.
    ///
    /// Scenario tags ([`ContextTag::is_scenario`]) gate the score: if the
    /// rule and the probe disagree on *any* scenario tag — either side has
    /// one the other lacks — the score is 0.0 regardless of shape overlap.
    pub fn match_score(&self, workload_tags: &[ContextTag]) -> f64 {
        let mine = self.tags();
        if mine.is_empty() {
            return 0.0;
        }
        let disagree = (ContextTag::mask_of(&mine) ^ ContextTag::mask_of(workload_tags))
            & ContextTag::scenario_mask();
        if disagree != 0 {
            return 0.0;
        }
        let hit = mine.iter().filter(|t| workload_tags.contains(t)).count();
        hit as f64 / mine.len() as f64
    }
}

/// The global Rule Set.
///
/// ```
/// use agents::{ContextTag, Guidance, Rule, RuleSet};
///
/// let mut rules = RuleSet::new();
/// rules.merge(vec![Rule::new(
///     "stripe_count",
///     Guidance::SetToAllOsts,
///     &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile],
/// )]);
/// // Serialises with the paper's JSON keys and round-trips.
/// let json = rules.to_json();
/// assert!(json.contains("\"Rule Description\""));
/// assert_eq!(RuleSet::from_json(&json).unwrap(), rules);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    /// Rules, in accumulation order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Empty rule set (first STELLAR run on a system).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Serialize in the paper's JSON structure.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.rules).expect("rules serialise")
    }

    /// Parse from the JSON structure.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(RuleSet {
            rules: serde_json::from_str(json)?,
        })
    }

    /// Rules matching a workload's tags with score >= 0.6, best first.
    pub fn matching(&self, workload_tags: &[ContextTag]) -> Vec<&Rule> {
        let mut scored: Vec<(f64, &Rule)> = self
            .rules
            .iter()
            .map(|r| (r.match_score(workload_tags), r))
            .filter(|(s, _)| *s >= 0.6)
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.into_iter().map(|(_, r)| r).collect()
    }

    /// Merge newly learned rules (§4.4.2): direct contradictions on the same
    /// (parameter, context) remove both; near-duplicates collapse; slight
    /// variations are kept as alternatives.
    pub fn merge(&mut self, new_rules: Vec<Rule>) {
        for new in new_rules {
            let new_tags = new.tags();
            let new_guidance = new.guidance();
            let mut drop_new = false;
            let mut remove_existing: Vec<usize> = Vec::new();
            for (i, old) in self.rules.iter().enumerate() {
                if old.parameter != new.parameter {
                    continue;
                }
                let same_context = {
                    let old_tags = old.tags();
                    !old_tags.is_empty()
                        && old_tags.len() == new_tags.len()
                        && old_tags.iter().all(|t| new_tags.contains(t))
                };
                if !same_context {
                    continue;
                }
                match (old.guidance(), new_guidance) {
                    (Some(a), Some(b)) if a == b => {
                        drop_new = true; // exact duplicate
                    }
                    (Some(a), Some(b)) if a.conflicts_with(b) => {
                        // Hard conflict: cannot determine which is correct —
                        // remove both (the paper's rule).
                        remove_existing.push(i);
                        drop_new = true;
                    }
                    // Slight variation: keep both as alternatives.
                    _ => {}
                }
            }
            for i in remove_existing.into_iter().rev() {
                self.rules.remove(i);
            }
            if !drop_new {
                self.rules.push(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tags() -> Vec<ContextTag> {
        vec![ContextTag::LargeSequentialWrites, ContextTag::SharedFile]
    }

    fn md_tags() -> Vec<ContextTag> {
        vec![ContextTag::ManySmallFiles, ContextTag::MetadataIntensive]
    }

    #[test]
    fn guidance_roundtrips_through_description() {
        for g in [
            Guidance::SetToAllOsts,
            Guidance::SetToOne,
            Guidance::MatchTransferSize,
            Guidance::RaiseToAtLeast(64),
            Guidance::SetTo(512),
            Guidance::Disable,
        ] {
            let text = g.render("osc.max_rpcs_in_flight");
            assert_eq!(Guidance::parse(&text), Some(g), "{text}");
        }
    }

    #[test]
    fn rule_tags_roundtrip() {
        let r = Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags());
        assert_eq!(r.tags(), seq_tags());
        assert!(!r.tuning_context.contains("IOR"), "no app names in rules");
    }

    #[test]
    fn match_score_partial_overlap() {
        let r = Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags());
        assert_eq!(r.match_score(&seq_tags()), 1.0);
        assert_eq!(r.match_score(&[ContextTag::LargeSequentialWrites]), 0.5);
        assert_eq!(r.match_score(&md_tags()), 0.0);
    }

    #[test]
    fn scenario_tags_gate_matching_exactly() {
        // A rule learned under faults must not match a pristine probe...
        let faulted = Rule::new(
            "stripe_count",
            Guidance::SetToAllOsts,
            &[
                ContextTag::LargeSequentialWrites,
                ContextTag::SharedFile,
                ContextTag::DegradedTopology,
            ],
        );
        assert_eq!(faulted.match_score(&seq_tags()), 0.0);
        // ...and a pristine rule must not match a faulted probe.
        let pristine = Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags());
        let mut faulted_probe = seq_tags();
        faulted_probe.push(ContextTag::DegradedTopology);
        assert_eq!(pristine.match_score(&faulted_probe), 0.0);
        // Agreeing scenario subsets score normally.
        assert_eq!(faulted.match_score(&faulted_probe), 1.0);
        assert_eq!(pristine.match_score(&seq_tags()), 1.0);
        // Distinct scenarios never cross-match either.
        let mut noisy_probe = seq_tags();
        noisy_probe.push(ContextTag::NoisyNeighbor);
        assert_eq!(faulted.match_score(&noisy_probe), 0.0);
    }

    #[test]
    fn scenario_helpers_classify_tags() {
        assert!(ContextTag::DegradedTopology.is_scenario());
        assert!(ContextTag::NoisyNeighbor.is_scenario());
        assert!(!ContextTag::SharedFile.is_scenario());
        assert_eq!(
            ContextTag::scenario_mask(),
            ContextTag::DegradedTopology.bit() | ContextTag::NoisyNeighbor.bit()
        );
        assert_eq!(
            ContextTag::DegradedTopology.scenario_label(),
            Some("degraded-topology")
        );
        assert_eq!(
            ContextTag::NoisyNeighbor.scenario_label(),
            Some("noisy-neighbor")
        );
        assert_eq!(ContextTag::SharedFile.scenario_label(), None);
    }

    #[test]
    fn scenario_phrases_are_not_substrings_of_each_other() {
        // tags() parses by substring containment; no phrase may contain
        // another or parsing would invent tags.
        let all = ContextTag::all();
        for a in all {
            for b in all {
                if a != b {
                    assert!(!a.phrase().contains(b.phrase()), "{:?} contains {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn json_uses_paper_keys() {
        let mut rs = RuleSet::new();
        rs.merge(vec![Rule::new(
            "stripe_size",
            Guidance::MatchTransferSize,
            &seq_tags(),
        )]);
        let json = rs.to_json();
        assert!(json.contains("\"Parameter\""));
        assert!(json.contains("\"Rule Description\""));
        assert!(json.contains("\"Tuning Context\""));
        let back = RuleSet::from_json(&json).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn merge_dedups_exact_duplicates() {
        let mut rs = RuleSet::new();
        let r = Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags());
        rs.merge(vec![r.clone()]);
        rs.merge(vec![r]);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn merge_removes_direct_contradictions() {
        let mut rs = RuleSet::new();
        rs.merge(vec![Rule::new(
            "stripe_count",
            Guidance::SetToAllOsts,
            &seq_tags(),
        )]);
        rs.merge(vec![Rule::new(
            "stripe_count",
            Guidance::SetToOne,
            &seq_tags(),
        )]);
        // Opposite guidance, same parameter + context: both removed.
        assert!(rs.is_empty(), "{rs:?}");
    }

    #[test]
    fn merge_keeps_alternatives() {
        let mut rs = RuleSet::new();
        rs.merge(vec![Rule::new(
            "osc.max_rpcs_in_flight",
            Guidance::RaiseToAtLeast(32),
            &seq_tags(),
        )]);
        rs.merge(vec![Rule::new(
            "osc.max_rpcs_in_flight",
            Guidance::RaiseToAtLeast(64),
            &seq_tags(),
        )]);
        assert_eq!(
            rs.len(),
            2,
            "slightly different guidance kept as alternatives"
        );
    }

    #[test]
    fn merge_keeps_same_param_different_context() {
        let mut rs = RuleSet::new();
        rs.merge(vec![Rule::new(
            "stripe_count",
            Guidance::SetToAllOsts,
            &seq_tags(),
        )]);
        rs.merge(vec![Rule::new(
            "stripe_count",
            Guidance::SetToOne,
            &md_tags(),
        )]);
        assert_eq!(rs.len(), 2, "different contexts never conflict");
    }

    #[test]
    fn matching_orders_by_score() {
        let mut rs = RuleSet::new();
        rs.merge(vec![
            Rule::new("a", Guidance::SetTo(1), &[ContextTag::SharedFile]),
            Rule::new("b", Guidance::SetTo(2), &seq_tags()),
            Rule::new("c", Guidance::SetTo(3), &md_tags()),
        ]);
        let hits = rs.matching(&seq_tags());
        assert_eq!(hits.len(), 2);
        // b (score 1.0 on both tags) and a (score 1.0 on its single tag).
        assert!(hits.iter().any(|r| r.parameter == "a"));
        assert!(hits.iter().any(|r| r.parameter == "b"));
        assert!(!hits.iter().any(|r| r.parameter == "c"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tags() -> impl Strategy<Value = Vec<ContextTag>> {
        proptest::sample::subsequence(ContextTag::all().to_vec(), 1..4)
    }

    fn arb_guidance() -> impl Strategy<Value = Guidance> {
        prop_oneof![
            Just(Guidance::SetToAllOsts),
            Just(Guidance::SetToOne),
            Just(Guidance::MatchTransferSize),
            (1i64..100_000).prop_map(Guidance::RaiseToAtLeast),
            (1i64..100_000).prop_map(Guidance::SetTo),
            Just(Guidance::Disable),
        ]
    }

    proptest! {
        /// Every machine-generated rule parses back to its own guidance and
        /// tags, and survives the paper's JSON schema round trip.
        #[test]
        fn rules_are_self_describing(g in arb_guidance(), tags in arb_tags()) {
            let r = Rule::new("osc.max_dirty_mb", g, &tags);
            prop_assert_eq!(r.guidance(), Some(g));
            prop_assert_eq!(r.tags(), tags.clone());
            let json = serde_json::to_string(&r).unwrap();
            let back: Rule = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, r);
        }

        /// Merging is idempotent: merging the same batch twice never grows
        /// the set beyond the first merge.
        #[test]
        fn merge_idempotent(gs in proptest::collection::vec((arb_guidance(), arb_tags()), 1..8)) {
            let rules: Vec<Rule> = gs
                .iter()
                .map(|(g, tags)| Rule::new("stripe_count", *g, tags))
                .collect();
            let mut a = RuleSet::new();
            a.merge(rules.clone());
            let after_first = a.len();
            a.merge(rules);
            // Contradictions can shrink the set further, never grow it.
            prop_assert!(a.len() <= after_first);
        }

        /// match_score is always within [0, 1].
        #[test]
        fn match_score_bounded(g in arb_guidance(), tags in arb_tags(), probe in arb_tags()) {
            let r = Rule::new("x", g, &tags);
            let s = r.match_score(&probe);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        /// Scenario disagreement always zeroes the score; agreement leaves
        /// the score identical to the pure shape-overlap score.
        #[test]
        fn scenario_gating_is_exact(g in arb_guidance(), tags in arb_tags(), probe in arb_tags()) {
            let r = Rule::new("x", g, &tags);
            let s = r.match_score(&probe);
            let scen = ContextTag::scenario_mask();
            let disagree =
                (ContextTag::mask_of(&tags) ^ ContextTag::mask_of(&probe)) & scen != 0;
            if disagree {
                prop_assert_eq!(s, 0.0);
            } else {
                let hit = tags.iter().filter(|t| probe.contains(t)).count();
                prop_assert_eq!(s, hit as f64 / tags.len() as f64);
            }
        }
    }
}
