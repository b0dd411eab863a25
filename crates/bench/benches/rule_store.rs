//! Rule-store cost of handing each cell of a warm campaign round its
//! starting rules: flat clone vs store snapshot.
//!
//! The flat path clones every rule (`RuleSet::clone`, O(n)); the store
//! path bumps one `Arc` (`ShardedRuleStore::snapshot`, O(1)).

use agents::{ContextTag, Guidance, Rule, RuleSet, ShardedRuleStore};
use criterion::{criterion_group, criterion_main, Criterion};
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

criterion_group!(benches, bench_snapshot_vs_clone);
criterion_main!(benches);
