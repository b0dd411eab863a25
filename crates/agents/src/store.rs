//! Copy-on-write storage for the global rule set.
//!
//! [`ShardedRuleStore`] and [`RuleSnapshot`] are handles on one shared
//! [`RuleSet`]: the store merges with [`RuleSet::merge`] and snapshots
//! match with [`RuleSet::matching`], so the §4.4.2 protocol has exactly
//! one implementation.
//!
//! * **Copy-on-write snapshots.** The set lives behind an [`Arc`];
//!   [`ShardedRuleStore::snapshot`] hands out an O(1) [`RuleSnapshot`]
//!   that shares it. A later [`ShardedRuleStore::merge`] copies the set
//!   only while a snapshot still shares it (`Arc::make_mut`), so readers
//!   keep an immutable view of the state they started from.
//! * **Shards.** A shard is the group of rules that share one exact
//!   context-tag set, keyed by [`ShardSignature`] (the tag bitmask
//!   crossed with the store's topology bucket). The merge protocol only
//!   lets rules with equal tag sets interact, so shards are independent;
//!   [`ShardedRuleStore::census`] counts them on demand.
//!
//! ```
//! use agents::{ContextTag, Guidance, Rule, RuleSet, ShardedRuleStore};
//!
//! let mut store = ShardedRuleStore::new();
//! store.merge(vec![
//!     Rule::new("stripe_count", Guidance::SetToAllOsts,
//!               &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile]),
//!     Rule::new("llite.statahead_max", Guidance::RaiseToAtLeast(128),
//!               &[ContextTag::ManySmallFiles, ContextTag::MetadataIntensive]),
//! ]);
//! assert_eq!(store.shard_count(), 2);
//!
//! // O(1): shares the set instead of cloning rules.
//! let snapshot = store.snapshot();
//!
//! // A later merge copies the set away from the snapshot, which is fixed.
//! store.merge(vec![Rule::new("stripe_size", Guidance::MatchTransferSize,
//!                            &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile])]);
//! assert_eq!(snapshot.len(), 2);
//! assert_eq!(store.len(), 3);
//!
//! // The flat RuleSet round-trips in accumulation order.
//! let flat: RuleSet = store.to_rule_set();
//! assert_eq!(ShardedRuleStore::new().with_rules(&flat).to_rule_set(), flat);
//! ```

use crate::rules::{ContextTag, Rule, RuleSet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The shard key: a rule's exact context-tag bitmask crossed with the
/// topology bucket it was learned under.
///
/// Two rules can only interact during [`ShardedRuleStore::merge`] when
/// their tag sets are equal, so the exact mask groups rules the way the
/// merge protocol does; the topology bucket labels the cluster size the
/// store's rules were learned on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardSignature {
    /// Topology bucket: ⌊log₂(OST count)⌋ of the learning cluster
    /// (0 when unknown — e.g. rule sets loaded from JSON).
    pub topo_bucket: u8,
    /// Bitmask of the rule's context tags, bits in [`ContextTag::all`]
    /// order.
    pub tag_mask: u16,
}

impl ShardSignature {
    /// Signature for a tag set under a topology bucket.
    pub fn of_tags(topo_bucket: u8, tags: &[ContextTag]) -> Self {
        ShardSignature {
            topo_bucket,
            tag_mask: ContextTag::mask_of(tags),
        }
    }

    /// Signature of a rule (tags parsed back from its context text).
    pub fn of_rule(topo_bucket: u8, rule: &Rule) -> Self {
        Self::of_tags(topo_bucket, &rule.tags())
    }

    /// The tag set this signature encodes, in [`ContextTag::all`] order.
    pub fn tags(self) -> Vec<ContextTag> {
        ContextTag::all()
            .into_iter()
            .filter(|t| self.tag_mask & t.bit() != 0)
            .collect()
    }

    /// Human-readable label: the tag phrases (or "untagged").
    pub fn label(self) -> String {
        let tags = self.tags();
        if tags.is_empty() {
            return "untagged".to_string();
        }
        tags.iter()
            .map(|t| t.phrase())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// One row of [`ShardedRuleStore::census`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCensusEntry {
    /// The shard's key.
    pub signature: ShardSignature,
    /// Rules currently in the shard.
    pub rules: usize,
}

/// The copy-on-write global rule store. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedRuleStore {
    topo_bucket: u8,
    rules: Arc<RuleSet>,
}

impl ShardedRuleStore {
    /// Empty store with topology bucket 0 (first STELLAR run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store whose rules are attributed to the topology bucket
    /// ⌊log₂ `ost_count`⌋.
    pub fn for_topology(ost_count: u32) -> Self {
        ShardedRuleStore {
            topo_bucket: if ost_count == 0 {
                0
            } else {
                ost_count.ilog2() as u8
            },
            ..Self::default()
        }
    }

    /// Append a flat rule set verbatim (order-preserving, no merging) —
    /// the inverse of [`ShardedRuleStore::to_rule_set`].
    pub fn with_rules(mut self, rules: &RuleSet) -> Self {
        Arc::make_mut(&mut self.rules)
            .rules
            .extend_from_slice(&rules.rules);
        self
    }

    /// Total rules in the store.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the store holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of non-empty shards.
    pub fn shard_count(&self) -> usize {
        self.census().len()
    }

    /// The topology bucket the store's rules are attributed to.
    pub fn topo_bucket(&self) -> u8 {
        self.topo_bucket
    }

    /// An O(1) immutable view of the current state: shares the set,
    /// clones no rules, and is unaffected by later merges.
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot {
            rules: Arc::clone(&self.rules),
        }
    }

    /// Merge newly learned rules with [`RuleSet::merge`]. The set is
    /// copied first only while a [`RuleSnapshot`] still shares it; those
    /// snapshots keep the pre-merge state.
    pub fn merge(&mut self, new_rules: Vec<Rule>) {
        if !new_rules.is_empty() {
            Arc::make_mut(&mut self.rules).merge(new_rules);
        }
    }

    /// Rules per non-empty shard, in shard-key order (for introspection —
    /// the CLI's `campaign --rule-shards`).
    pub fn census(&self) -> Vec<ShardCensusEntry> {
        let mut counts: BTreeMap<ShardSignature, usize> = BTreeMap::new();
        for rule in &self.rules.rules {
            *counts
                .entry(ShardSignature::of_rule(self.topo_bucket, rule))
                .or_default() += 1;
        }
        counts
            .into_iter()
            .map(|(signature, rules)| ShardCensusEntry { signature, rules })
            .collect()
    }

    /// A copy of the flat [`RuleSet`], in accumulation order
    /// (bit-identical round trip with [`ShardedRuleStore::with_rules`]).
    pub fn to_rule_set(&self) -> RuleSet {
        RuleSet::clone(&self.rules)
    }
}

/// An immutable O(1) view of a [`ShardedRuleStore`] at a point in time.
///
/// Snapshots share the store's set; taking one never clones a rule, and
/// merges performed on the store afterwards are invisible to it. Sessions
/// hold a snapshot for the duration of a tuning run.
#[derive(Debug, Clone, Default)]
pub struct RuleSnapshot {
    rules: Arc<RuleSet>,
}

impl RuleSnapshot {
    /// A snapshot of nothing (no rules; the cold-start state).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total rules visible in this snapshot.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the snapshot holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules matching a workload's tags with score ≥ 0.6, best first
    /// ([`RuleSet::matching`]).
    pub fn matching(&self, workload_tags: &[ContextTag]) -> Vec<&Rule> {
        self.rules.matching(workload_tags)
    }

    /// A copy of the flat [`RuleSet`], in accumulation order.
    pub fn to_rule_set(&self) -> RuleSet {
        RuleSet::clone(&self.rules)
    }
}

impl From<RuleSet> for RuleSnapshot {
    fn from(rules: RuleSet) -> Self {
        RuleSnapshot {
            rules: Arc::new(rules),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Guidance;

    fn seq_tags() -> Vec<ContextTag> {
        vec![ContextTag::LargeSequentialWrites, ContextTag::SharedFile]
    }

    fn md_tags() -> Vec<ContextTag> {
        vec![ContextTag::ManySmallFiles, ContextTag::MetadataIntensive]
    }

    fn sample_rules() -> Vec<Rule> {
        vec![
            Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags()),
            Rule::new("stripe_size", Guidance::MatchTransferSize, &seq_tags()),
            Rule::new(
                "llite.statahead_max",
                Guidance::RaiseToAtLeast(128),
                &md_tags(),
            ),
        ]
    }

    #[test]
    fn shards_by_tag_signature() {
        let mut store = ShardedRuleStore::new();
        store.merge(sample_rules());
        assert_eq!(store.len(), 3);
        assert_eq!(store.shard_count(), 2, "two distinct tag signatures");
        let census = store.census();
        assert_eq!(census.iter().map(|e| e.rules).sum::<usize>(), 3);
        assert!(census.iter().all(|e| e.signature.topo_bucket == 0));
    }

    #[test]
    fn topology_bucket_separates_clusters() {
        let sig_small = ShardSignature::of_tags(2, &seq_tags());
        let sig_large = ShardSignature::of_tags(6, &seq_tags());
        assert_ne!(sig_small, sig_large);
        assert_eq!(sig_small.tag_mask, sig_large.tag_mask);
        assert_eq!(ShardedRuleStore::for_topology(5).topo_bucket(), 2);
        assert_eq!(ShardedRuleStore::for_topology(64).topo_bucket(), 6);
        assert_eq!(ShardedRuleStore::for_topology(0).topo_bucket(), 0);
    }

    #[test]
    fn signature_label_and_tags_roundtrip() {
        let sig = ShardSignature::of_tags(0, &seq_tags());
        assert_eq!(sig.tags(), seq_tags());
        assert!(sig.label().contains("large sequential writes"));
        assert_eq!(ShardSignature::of_tags(0, &[]).label(), "untagged");
    }

    #[test]
    fn snapshot_is_isolated_from_later_merges() {
        let mut store = ShardedRuleStore::new();
        store.merge(sample_rules());
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);

        // Merge into an existing shard and a new one.
        store.merge(vec![
            Rule::new(
                "osc.max_dirty_mb",
                Guidance::RaiseToAtLeast(1024),
                &seq_tags(),
            ),
            Rule::new(
                "osc.max_pages_per_rpc",
                Guidance::SetTo(1024),
                &[ContextTag::SequentialReads],
            ),
        ]);
        assert_eq!(store.len(), 5);
        assert_eq!(snap.len(), 3, "snapshot unaffected");
        assert_eq!(snap.to_rule_set().len(), 3);
        // And a contradiction that removes rules from the store.
        store.merge(vec![Rule::new(
            "stripe_count",
            Guidance::SetToOne,
            &seq_tags(),
        )]);
        assert_eq!(store.len(), 4);
        assert_eq!(snap.to_rule_set().rules[0].parameter, "stripe_count");
    }

    #[test]
    fn facade_roundtrip_preserves_duplicates_and_order() {
        // with_rules must NOT re-merge: a JSON-loaded set may contain
        // exact duplicates and they must survive the round trip.
        let r = Rule::new("stripe_count", Guidance::SetToAllOsts, &seq_tags());
        let flat = RuleSet {
            rules: vec![
                r.clone(),
                Rule::new(
                    "llite.statahead_max",
                    Guidance::RaiseToAtLeast(64),
                    &md_tags(),
                ),
                r,
            ],
        };
        let store = ShardedRuleStore::new().with_rules(&flat);
        assert_eq!(store.len(), 3);
        assert_eq!(store.to_rule_set(), flat);
        let snap: RuleSnapshot = flat.clone().into();
        assert_eq!(snap.to_rule_set(), flat);
    }

    #[test]
    fn scenario_shards_never_cross_match() {
        // Same shape tags, learned under three regimes: pristine, faulted,
        // contended. Each probe must see only its own regime's rules.
        let mut store = ShardedRuleStore::new();
        let mut faulted_tags = seq_tags();
        faulted_tags.push(ContextTag::DegradedTopology);
        let mut noisy_tags = seq_tags();
        noisy_tags.push(ContextTag::NoisyNeighbor);
        store.merge(vec![
            Rule::new("pristine_param", Guidance::SetToAllOsts, &seq_tags()),
            Rule::new("faulted_param", Guidance::SetToOne, &faulted_tags),
            Rule::new("noisy_param", Guidance::SetTo(4), &noisy_tags),
        ]);
        assert_eq!(store.shard_count(), 3, "one shard per scenario regime");

        let names = |hits: Vec<&Rule>| hits.iter().map(|r| r.parameter.clone()).collect::<Vec<_>>();
        let snap = store.snapshot();
        assert_eq!(names(snap.matching(&seq_tags())), vec!["pristine_param"]);
        assert_eq!(names(snap.matching(&faulted_tags)), vec!["faulted_param"]);
        assert_eq!(names(snap.matching(&noisy_tags)), vec!["noisy_param"]);
    }

    #[test]
    fn empty_snapshot_matches_nothing() {
        let snap = RuleSnapshot::empty();
        assert!(snap.is_empty());
        assert!(snap.matching(&seq_tags()).is_empty());
        assert!(snap.to_rule_set().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rules::Guidance;
    use proptest::prelude::*;

    fn arb_tags() -> impl Strategy<Value = Vec<ContextTag>> {
        proptest::sample::subsequence(ContextTag::all().to_vec(), 1..4)
    }

    fn arb_guidance() -> impl Strategy<Value = Guidance> {
        prop_oneof![
            Just(Guidance::SetToAllOsts),
            Just(Guidance::SetToOne),
            Just(Guidance::MatchTransferSize),
            (1i64..1000).prop_map(Guidance::RaiseToAtLeast),
            (1i64..1000).prop_map(Guidance::SetTo),
            Just(Guidance::Disable),
        ]
    }

    fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
        proptest::collection::vec(
            (
                proptest::sample::select(vec!["stripe_count", "stripe_size", "osc.max_dirty_mb"]),
                arb_guidance(),
                arb_tags(),
            ),
            1..16,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .map(|(p, g, tags)| Rule::new(p, g, &tags))
                .collect()
        })
    }

    /// The store's rules split by shard, each shard in accumulation order.
    fn per_shard(store: &ShardedRuleStore) -> BTreeMap<ShardSignature, Vec<Rule>> {
        let mut shards: BTreeMap<ShardSignature, Vec<Rule>> = BTreeMap::new();
        for rule in store.to_rule_set().rules {
            shards
                .entry(ShardSignature::of_rule(store.topo_bucket(), &rule))
                .or_default()
                .push(rule);
        }
        shards
    }

    proptest! {
        /// Merging is order-independent across shards: any permutation of
        /// a batch that preserves the relative order of same-signature
        /// rules leaves every shard the same (rules in different shards
        /// never interact).
        #[test]
        fn merge_order_independent_across_shards(rules in arb_rules()) {
            let mut in_batch_order = ShardedRuleStore::new();
            in_batch_order.merge(rules.clone());

            // Stable-sort by signature: per-shard order preserved, cross-
            // shard order fully rearranged.
            let mut by_shard = rules.clone();
            by_shard.sort_by_key(|r| ShardSignature::of_rule(0, r));
            let mut in_shard_order = ShardedRuleStore::new();
            in_shard_order.merge(by_shard);
            prop_assert_eq!(per_shard(&in_batch_order), per_shard(&in_shard_order));

            // Splitting one batch into two merges changes nothing either.
            let mid = rules.len() / 2;
            let mut split = ShardedRuleStore::new();
            split.merge(rules[..mid].to_vec());
            split.merge(rules[mid..].to_vec());
            prop_assert_eq!(&in_batch_order, &split);
        }

        /// Any rule set — including unmerged duplicates — round-trips
        /// bit-identically through the store and back through the
        /// RuleSet façade, and snapshots agree with the store.
        #[test]
        fn facade_roundtrip_is_bit_identical(rules in arb_rules()) {
            let flat = RuleSet { rules };
            let store = ShardedRuleStore::new().with_rules(&flat);
            prop_assert_eq!(store.to_rule_set(), flat.clone());
            prop_assert_eq!(store.snapshot().to_rule_set(), flat.clone());
            let json_back = RuleSet::from_json(&store.to_rule_set().to_json()).unwrap();
            prop_assert_eq!(json_back, flat);
        }
    }
}
