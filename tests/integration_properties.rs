//! Property-based cross-crate tests: arbitrary valid configurations must
//! never break the simulator, and core invariants must hold across the
//! whole tunable space.

use pfs::params::{ParamRegistry, TuningConfig, TUNABLE_NAMES};
use pfs::{ClusterSpec, PfsSimulator};
use proptest::prelude::*;
use stellar::baselines::candidate_values;
use workloads::WorkloadKind;

/// Strategy: a configuration assembled from per-parameter candidate grids,
/// then clamped into validity (mirrors what any sane tuner would submit).
fn arb_config() -> impl Strategy<Value = TuningConfig> {
    let picks: Vec<BoxedStrategy<i64>> = TUNABLE_NAMES
        .iter()
        .map(|name| {
            let cands = candidate_values(name, 5);
            if cands.is_empty() {
                Just(0i64).boxed()
            } else {
                proptest::sample::select(cands).boxed()
            }
        })
        .collect();
    picks.prop_map(|values| {
        let mut cfg = TuningConfig::lustre_default();
        for (name, v) in TUNABLE_NAMES.iter().zip(values) {
            let _ = cfg.set(name, v);
        }
        cfg.clamped(&ParamRegistry::standard(), &ClusterSpec::paper_cluster())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any clamped configuration validates and runs to completion with
    /// positive wall time and conserved byte counts.
    #[test]
    fn simulator_total_under_arbitrary_configs(cfg in arb_config(), seed in 0u64..1000) {
        let topo = ClusterSpec::paper_cluster();
        prop_assert!(cfg.validate(&ParamRegistry::standard(), &topo).is_ok());
        let sim = PfsSimulator::new(topo);
        let w = WorkloadKind::Macsio16M.spec().scaled(0.1);
        let streams = w.generate(sim.topology(), seed);
        let declared: u64 = streams.iter().map(|s| s.bytes_written()).sum();
        let r = sim.run(streams, &cfg, seed);
        prop_assert!(r.wall_secs > 0.0);
        prop_assert!(r.wall_secs.is_finite());
        prop_assert_eq!(r.bytes_written, declared);
    }

    /// Determinism across the config space: same inputs, bit-equal outputs.
    #[test]
    fn simulator_deterministic_under_arbitrary_configs(cfg in arb_config()) {
        let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
        let w = WorkloadKind::Ior16M.spec().scaled(0.03);
        let a = sim.run(w.generate(sim.topology(), 3), &cfg, 3);
        let b = sim.run(w.generate(sim.topology(), 3), &cfg, 3);
        prop_assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        prop_assert_eq!(a.bulk_rpcs, b.bulk_rpcs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rule sets survive JSON round trips for arbitrary guidance content.
    #[test]
    fn rules_roundtrip(v in 1i64..100_000) {
        use agents::{ContextTag, Guidance, Rule, RuleSet};
        let mut rs = RuleSet::new();
        rs.merge(vec![
            Rule::new("osc.max_dirty_mb", Guidance::RaiseToAtLeast(v),
                      &[ContextTag::RandomSmallWrites, ContextTag::SharedFile]),
            Rule::new("stripe_count", Guidance::SetToAllOsts,
                      &[ContextTag::LargeSequentialWrites]),
        ]);
        let parsed = RuleSet::from_json(&rs.to_json()).unwrap();
        prop_assert_eq!(parsed, rs);
    }
}
