//! Sharded, copy-on-write storage for the global rule set.
//!
//! The flat [`RuleSet`] is the paper's serialization format and stays the
//! compatibility façade, but cloning it wholesale for every warm campaign
//! round is O(total rules) — the roadmap's blocker to "millions of
//! accumulated rules" scale. [`ShardedRuleStore`] replaces those clones:
//!
//! * **Sharding.** Rules are partitioned by [`ShardSignature`] — the
//!   rule's exact context-tag bitmask crossed with a topology bucket
//!   (⌊log₂ OST count⌋ of the cluster the rule was learned on). This is
//!   safe because the §4.4.2 merge protocol only ever lets two rules
//!   interact when their tag sets are *equal* (`same_context` demands set
//!   equality), and equal tag sets means equal signature: a per-shard
//!   merge is provably identical to the flat merge.
//! * **Copy-on-write snapshots.** The shard map lives behind an [`Arc`];
//!   [`ShardedRuleStore::snapshot`] hands out an O(1) [`RuleSnapshot`]
//!   that shares every shard. A later [`ShardedRuleStore::merge`] clones
//!   only the touched shards (`Arc::make_mut`), never the whole set —
//!   readers keep an immutable view of the state they started from.
//! * **Shard-pruned matching.** A rule's context-match score depends only
//!   on its tag set, which is uniform across a shard — so
//!   [`RuleSnapshot::matching`] scores whole shards from their signature
//!   and skips every shard below the 0.6 threshold without touching a
//!   single rule.
//!
//! Accumulation order is preserved via per-rule sequence numbers, so
//! [`ShardedRuleStore::to_rule_set`] round-trips bit-identically through
//! the façade and snapshot matching returns rules in the exact order the
//! flat [`RuleSet::matching`] would.
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
//! // O(1): shares every shard instead of cloning rules.
//! let snapshot = store.snapshot();
//!
//! // Later merges copy only the shards they touch; the snapshot is fixed.
//! store.merge(vec![Rule::new("stripe_size", Guidance::MatchTransferSize,
//!                            &[ContextTag::LargeSequentialWrites, ContextTag::SharedFile])]);
//! assert_eq!(snapshot.len(), 2);
//! assert_eq!(store.len(), 3);
//!
//! // The flat RuleSet façade round-trips in accumulation order.
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
/// their tag sets are equal, so keying shards by the exact mask loses
/// nothing; the topology bucket keeps knowledge learned on differently
/// sized clusters from being merged as if interchangeable.
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

    /// The context-match score every rule in this shard has against a
    /// workload tag mask: |intersection| / |shard tags|. Identical to
    /// [`Rule::match_score`] because a shard's rules all carry exactly
    /// this signature's tag set — including the scenario gate: shards
    /// whose scenario tags ([`ContextTag::is_scenario`]) disagree with
    /// the probe's score 0.0 outright, so fault- or contention-learned
    /// shards never leak into pristine matching (and vice versa).
    pub fn score_against(self, workload_mask: u16) -> f64 {
        let mine = self.tag_mask.count_ones();
        if mine == 0 {
            return 0.0;
        }
        if (self.tag_mask ^ workload_mask) & ContextTag::scenario_mask() != 0 {
            return 0.0;
        }
        f64::from((self.tag_mask & workload_mask).count_ones()) / f64::from(mine)
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

/// A rule plus its global accumulation sequence number (the position it
/// would occupy in the equivalent flat [`RuleSet`]).
#[derive(Debug, Clone, PartialEq)]
struct SeqRule {
    seq: u64,
    rule: Rule,
}

type ShardMap = BTreeMap<ShardSignature, Arc<Vec<SeqRule>>>;

/// One row of [`ShardedRuleStore::census`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCensusEntry {
    /// The shard's key.
    pub signature: ShardSignature,
    /// Rules currently in the shard.
    pub rules: usize,
}

/// The sharded, copy-on-write global rule store. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ShardedRuleStore {
    topo_bucket: u8,
    shards: Arc<ShardMap>,
    next_seq: u64,
    len: usize,
}

/// Stores are equal when they hold the same rules in the same per-shard
/// accumulation order (sequence numbers themselves are an implementation
/// detail and do not participate).
impl PartialEq for ShardedRuleStore {
    fn eq(&self, other: &Self) -> bool {
        self.topo_bucket == other.topo_bucket
            && self.len == other.len
            && self.shards.len() == other.shards.len()
            && self.shards.iter().zip(other.shards.iter()).all(
                |((sig_a, shard_a), (sig_b, shard_b))| {
                    sig_a == sig_b
                        && shard_a.len() == shard_b.len()
                        && shard_a
                            .iter()
                            .zip(shard_b.iter())
                            .all(|(a, b)| a.rule == b.rule)
                },
            )
    }
}

impl ShardedRuleStore {
    /// Empty store with topology bucket 0 (first STELLAR run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store whose merged rules are attributed to the topology
    /// bucket ⌊log₂ `ost_count`⌋.
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

    /// Absorb a flat rule set verbatim (order-preserving, no merging),
    /// attributing every rule to this store's topology bucket — the
    /// inverse of [`ShardedRuleStore::to_rule_set`].
    pub fn with_rules(mut self, rules: &RuleSet) -> Self {
        self.insert_unmerged(rules.rules.iter().cloned());
        self
    }

    /// Append rules verbatim (no merge semantics), consuming them —
    /// shared by [`ShardedRuleStore::with_rules`] and the owned
    /// `From<RuleSet>` conversion, which must not clone a second time.
    fn insert_unmerged(&mut self, rules: impl IntoIterator<Item = Rule>) {
        let shards = Arc::make_mut(&mut self.shards);
        for rule in rules {
            let sig = ShardSignature::of_rule(self.topo_bucket, &rule);
            Arc::make_mut(shards.entry(sig).or_default()).push(SeqRule {
                seq: self.next_seq,
                rule,
            });
            self.next_seq += 1;
            self.len += 1;
        }
    }

    /// Total rules across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no rules.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-empty shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The topology bucket merged rules are attributed to.
    pub fn topo_bucket(&self) -> u8 {
        self.topo_bucket
    }

    /// An O(1) immutable view of the current state: shares every shard,
    /// clones no rules, and is unaffected by later merges.
    pub fn snapshot(&self) -> RuleSnapshot {
        RuleSnapshot {
            shards: Arc::clone(&self.shards),
            len: self.len,
        }
    }

    /// Merge newly learned rules under the §4.4.2 protocol, restricted to
    /// each rule's own shard (equivalent to [`RuleSet::merge`] — see the
    /// module docs). Only touched shards are copied; outstanding
    /// [`RuleSnapshot`]s keep the pre-merge state.
    pub fn merge(&mut self, new_rules: Vec<Rule>) {
        if new_rules.is_empty() {
            return;
        }
        let shards = Arc::make_mut(&mut self.shards);
        for new in new_rules {
            let sig = ShardSignature::of_rule(self.topo_bucket, &new);
            let shard = Arc::make_mut(shards.entry(sig).or_default());
            // Untagged rules land in the mask-0 shard and — like the flat
            // merge, whose `same_context` rejects empty tag sets — never
            // dedup or conflict: append directly.
            let mut drop_new = false;
            if sig.tag_mask != 0 {
                let new_guidance = new.guidance();
                let mut remove_existing: Vec<usize> = Vec::new();
                for (i, old) in shard.iter().enumerate() {
                    if old.rule.parameter != new.parameter {
                        continue;
                    }
                    // Shard membership implies equal, non-empty tag sets,
                    // so the flat merge's `same_context` holds by
                    // construction.
                    match (old.rule.guidance(), new_guidance) {
                        (Some(a), Some(b)) if a == b => {
                            drop_new = true; // exact duplicate
                        }
                        (Some(a), Some(b)) if a.conflicts_with(b) => {
                            // Hard conflict: remove both (the paper's rule).
                            remove_existing.push(i);
                            drop_new = true;
                        }
                        // Slight variation: keep both as alternatives.
                        _ => {}
                    }
                }
                for i in remove_existing.into_iter().rev() {
                    shard.remove(i);
                    self.len -= 1;
                }
            }
            if !drop_new {
                shard.push(SeqRule {
                    seq: self.next_seq,
                    rule: new,
                });
                self.next_seq += 1;
                self.len += 1;
            }
            if shard.is_empty() {
                shards.remove(&sig);
            }
        }
    }

    /// Per-shard occupancy, in shard-key order (for introspection — the
    /// CLI's `campaign --rule-shards`).
    pub fn census(&self) -> Vec<ShardCensusEntry> {
        self.shards
            .iter()
            .map(|(sig, shard)| ShardCensusEntry {
                signature: *sig,
                rules: shard.len(),
            })
            .collect()
    }

    /// Flatten back into the paper's [`RuleSet`] façade, in exact
    /// accumulation order (bit-identical round trip with
    /// [`ShardedRuleStore::with_rules`]).
    pub fn to_rule_set(&self) -> RuleSet {
        self.snapshot().to_rule_set()
    }
}

/// An immutable O(1) view of a [`ShardedRuleStore`] at a point in time.
///
/// Snapshots share the store's shards; taking one never clones a rule,
/// and merges performed on the store afterwards are invisible to it.
/// Sessions hold a snapshot for the duration of a tuning run.
#[derive(Debug, Clone, Default)]
pub struct RuleSnapshot {
    shards: Arc<ShardMap>,
    len: usize,
}

impl RuleSnapshot {
    /// A snapshot of nothing (no rules; the cold-start state).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total rules visible in this snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no rules.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards visible in this snapshot.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rules matching a workload's tags with score ≥ 0.6, best first —
    /// the same rules, in the same order, as [`RuleSet::matching`] on the
    /// flattened set. Shards whose signature scores below the threshold
    /// are skipped wholesale.
    pub fn matching(&self, workload_tags: &[ContextTag]) -> Vec<&Rule> {
        let workload_mask = ContextTag::mask_of(workload_tags);
        let mut scored: Vec<(f64, u64, &Rule)> = Vec::new();
        for (sig, shard) in self.shards.iter() {
            let score = sig.score_against(workload_mask);
            if score < 0.6 {
                continue;
            }
            scored.extend(shard.iter().map(|r| (score, r.seq, &r.rule)));
        }
        // Score descending, accumulation order among ties — matching the
        // flat RuleSet's stable sort.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().map(|(_, _, r)| r).collect()
    }

    /// Flatten into the [`RuleSet`] façade, in accumulation order.
    pub fn to_rule_set(&self) -> RuleSet {
        let mut seq: Vec<(u64, &Rule)> = self
            .shards
            .values()
            .flat_map(|shard| shard.iter().map(|r| (r.seq, &r.rule)))
            .collect();
        seq.sort_by_key(|(s, _)| *s);
        RuleSet {
            rules: seq.into_iter().map(|(_, r)| r.clone()).collect(),
        }
    }
}

impl From<RuleSet> for RuleSnapshot {
    fn from(rules: RuleSet) -> Self {
        // Owned path: partition without a second per-rule clone.
        let mut store = ShardedRuleStore::new();
        store.insert_unmerged(rules.rules);
        store.snapshot()
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
    fn merge_matches_flat_ruleset_semantics() {
        // Same scenario as the RuleSet unit tests: duplicate, conflict,
        // alternative, cross-context.
        let batches = vec![
            vec![Rule::new(
                "stripe_count",
                Guidance::SetToAllOsts,
                &seq_tags(),
            )],
            vec![Rule::new(
                "stripe_count",
                Guidance::SetToAllOsts,
                &seq_tags(),
            )], // dup
            vec![Rule::new("stripe_count", Guidance::SetToOne, &md_tags())], // other ctx
            vec![Rule::new(
                "osc.max_rpcs_in_flight",
                Guidance::RaiseToAtLeast(32),
                &seq_tags(),
            )],
            vec![Rule::new(
                "osc.max_rpcs_in_flight",
                Guidance::RaiseToAtLeast(64),
                &seq_tags(),
            )],
            vec![Rule::new("stripe_count", Guidance::SetToOne, &seq_tags())], // conflict
        ];
        let mut flat = RuleSet::new();
        let mut store = ShardedRuleStore::new();
        for batch in batches {
            flat.merge(batch.clone());
            store.merge(batch);
        }
        assert_eq!(store.to_rule_set(), flat);
        assert_eq!(store.len(), flat.len());
    }

    #[test]
    fn matching_agrees_with_flat_ruleset_order() {
        let mut flat = RuleSet::new();
        let mut store = ShardedRuleStore::new();
        let batch = vec![
            Rule::new("a", Guidance::SetTo(1), &[ContextTag::SharedFile]),
            Rule::new("b", Guidance::SetTo(2), &seq_tags()),
            Rule::new("c", Guidance::SetTo(3), &md_tags()),
            Rule::new(
                "d",
                Guidance::SetTo(4),
                &[ContextTag::LargeSequentialWrites],
            ),
        ];
        flat.merge(batch.clone());
        store.merge(batch);
        let flat_hits: Vec<&Rule> = flat.matching(&seq_tags());
        let snap = store.snapshot();
        let snap_hits = snap.matching(&seq_tags());
        assert_eq!(flat_hits, snap_hits);
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
        assert_eq!(snap.shard_count(), 0);
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

    proptest! {
        /// Sharded merge is equivalent to the flat §4.4.2 merge: same
        /// rules, same accumulation order, for any batch sequence.
        #[test]
        fn sharded_merge_equals_flat_merge(a in arb_rules(), b in arb_rules()) {
            let mut flat = RuleSet::new();
            let mut store = ShardedRuleStore::new();
            flat.merge(a.clone());
            flat.merge(b.clone());
            store.merge(a);
            store.merge(b);
            prop_assert_eq!(store.to_rule_set(), flat);
            prop_assert_eq!(store.len(), flat.len());
        }

        /// Merging is order-independent across shards: any permutation of
        /// a batch that preserves the relative order of same-signature
        /// rules produces the same store (rules in different shards never
        /// interact).
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
            prop_assert_eq!(&in_batch_order, &in_shard_order);

            // Splitting one batch into two merges changes nothing either.
            let mid = rules.len() / 2;
            let mut split = ShardedRuleStore::new();
            split.merge(rules[..mid].to_vec());
            split.merge(rules[mid..].to_vec());
            prop_assert_eq!(&in_batch_order, &split);
        }

        /// Any rule set — including unmerged duplicates — round-trips
        /// bit-identically through the sharded store and back through the
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

        /// Snapshot matching returns exactly what flat matching returns,
        /// in the same order, for arbitrary stores and probe tags.
        #[test]
        fn snapshot_matching_equals_flat(rules in arb_rules(), probe in arb_tags()) {
            let mut store = ShardedRuleStore::new();
            store.merge(rules);
            let flat = store.to_rule_set();
            let flat_hits: Vec<Rule> = flat.matching(&probe).into_iter().cloned().collect();
            let snap_hits: Vec<Rule> = store.snapshot().matching(&probe).into_iter().cloned().collect();
            prop_assert_eq!(flat_hits, snap_hits);
        }
    }
}
