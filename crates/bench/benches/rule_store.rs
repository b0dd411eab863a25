//! Rule-store scaling: what a warm campaign round pays to hand each cell
//! its starting rules, flat clone vs sharded snapshot.
//!
//! The flat path clones every rule (`RuleSet::clone`, O(n)); the sharded
//! path bumps one `Arc` per store (`ShardedRuleStore::snapshot`, O(1)).
//! Matching is measured too: the sharded store scores whole shards from
//! their signatures and skips non-overlapping ones without touching rules.
//!
//! This is the repository's first recorded BENCH baseline — see
//! `CHANGES.md` for the numbers at 1k/10k/100k rules.

use agents::{ContextTag, Guidance, Rule, RuleSet, ShardedRuleStore};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// `n` distinct rules spread over the 9×9 tag-pair signature space (built
/// directly, not via `merge`, so setup stays O(n) at 100k).
fn synth_rules(n: usize) -> RuleSet {
    let all = ContextTag::all();
    let params = [
        "stripe_count",
        "stripe_size",
        "osc.max_rpcs_in_flight",
        "osc.max_dirty_mb",
        "llite.statahead_max",
    ];
    let rules = (0..n)
        .map(|i| {
            let a = all[i % all.len()];
            let b = all[(i / all.len()) % all.len()];
            let tags = if a == b { vec![a] } else { vec![a, b] };
            Rule::new(
                params[i % params.len()],
                Guidance::RaiseToAtLeast((i as i64 % 4096) + 1),
                &tags,
            )
        })
        .collect();
    RuleSet { rules }
}

fn bench_snapshot_vs_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_store");
    group.sample_size(10);
    for n in SIZES {
        let flat = synth_rules(n);
        let store = ShardedRuleStore::new().with_rules(&flat);
        group.bench_function(&format!("clone_flat/{n}"), |b| {
            b.iter(|| black_box(flat.clone()))
        });
        group.bench_function(&format!("snapshot_sharded/{n}"), |b| {
            b.iter(|| black_box(store.snapshot()))
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_store_matching");
    group.sample_size(10);
    let probe = [ContextTag::LargeSequentialWrites, ContextTag::SharedFile];
    for n in SIZES {
        let flat = synth_rules(n);
        let snapshot = ShardedRuleStore::new().with_rules(&flat).snapshot();
        group.bench_function(&format!("flat/{n}"), |b| {
            b.iter(|| black_box(flat.matching(&probe).len()))
        });
        group.bench_function(&format!("sharded/{n}"), |b| {
            b.iter(|| black_box(snapshot.matching(&probe).len()))
        });
    }
    group.finish();
}

fn bench_cow_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_store_merge");
    group.sample_size(10);
    // One round's learnings merged into a large store with a live
    // snapshot: copy-on-write must touch only the destination shards.
    let base = ShardedRuleStore::new().with_rules(&synth_rules(100_000));
    let batch: Vec<Rule> = synth_rules(8).rules;
    group.bench_function("merge_8_into_100k_under_snapshot", |b| {
        b.iter_batched(
            || base.clone(),
            |mut store| {
                let snap = store.snapshot();
                store.merge(batch.clone());
                black_box((snap.len(), store.len()))
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_vs_clone,
    bench_matching,
    bench_cow_merge
);
criterion_main!(benches);
