//! Scenario-layer conformance: deterministic fault & contention scenarios
//! end to end.
//!
//! The scenario layer adds two run regimes to the simulator — seeded OST
//! fault plans ([`pfs::FaultPlan`], applied in simulated event-queue time)
//! and contention composites ([`workloads::Contention`], interleaving
//! several jobs' streams over shared OSTs) — and threads them through the
//! engine, the rule store and the canonical run-record schema. This suite
//! pins the contract:
//!
//! * a faulted + contended campaign's canonical JSONL is byte-identical
//!   across serial, multi-threaded and latency-injected executions (the
//!   in-process mirror of CI's faulted determinism cell);
//! * `Contention::cost_hint` passes the same exactness test as the suite
//!   workloads, so the PR 3 scheduler stays exact on composite cells;
//! * fault schedules replay bit-identically, degrade wall time without
//!   changing trace shape, and mid-run recovery lands a run strictly
//!   between the pristine and forever-degraded walls;
//! * rules learned under a scenario never match a pristine-topology
//!   session, and vice versa — warm reuse is scenario-sharded.

use agents::{ContextTag, RuleSet};
use llmsim::LatencyProfile;
use pfs::topology::ClusterSpec;
use pfs::{FaultEvent, FaultKind, FaultPlan, PfsSimulator, TuningConfig};
use proptest::prelude::*;
use stellar::{
    Campaign, CampaignReport, JsonlEmitter, ObsEvent, RuleMode, RunRecord, Stellar, StellarBuilder,
};
use workloads::{Contention, CostHint, Workload, WorkloadKind};

const SCALE: f64 = 0.05;
const SEEDS: [u64; 1] = [61];
const FAULT_SEED: u64 = 7;

/// A faulted engine, optionally with injected backend latency.
fn faulted_engine(latency: Option<LatencyProfile>) -> Stellar {
    let topo = stellar::default_topology();
    let mut b = StellarBuilder::new()
        .attempt_budget(3)
        .faults(FaultPlan::seeded(topo.ost_count(), FAULT_SEED));
    if let Some(p) = latency {
        b = b.backend_latency(p);
    }
    b.build()
}

/// One composite (contended) cell plus one plain cell.
fn scenario_cells() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Contention::new(vec![
            WorkloadKind::Ior64K.spec_at(SCALE),
            WorkloadKind::MdWorkbench2K.spec_at(SCALE),
        ])),
        WorkloadKind::Ior64K.spec_at(SCALE),
    ]
}

fn scenario_campaign(e: &Stellar) -> Campaign<'_> {
    let mut c = Campaign::new(e);
    for w in scenario_cells() {
        c = c.workload(w);
    }
    c.seeds(SEEDS).rule_mode(RuleMode::Warm)
}

fn record_campaign(e: &Stellar, threads: usize, serial: bool) -> (CampaignReport, RunRecord) {
    let mut emitter = JsonlEmitter::new(Vec::new());
    let c = scenario_campaign(e)
        .threads(threads)
        .observe(Box::new(&mut emitter));
    let report = if serial { c.run_serial() } else { c.run() };
    drop(c);
    let bytes = emitter.into_inner();
    let record = RunRecord::parse(std::str::from_utf8(&bytes).expect("utf-8")).expect("parses");
    (report, record)
}

/// The headline acceptance criterion: the canonical stream of a faulted,
/// contended campaign is byte-identical whether it runs serially, across
/// 4 worker threads, or with cells suspending on injected backend latency
/// — fault schedules live in simulated time, so execution shape cannot
/// perturb them.
#[test]
fn faulted_contended_canonical_stream_is_mode_invariant() {
    let instant = faulted_engine(None);
    let (_, serial) = record_campaign(&instant, 1, true);
    let (_, parallel) = record_campaign(&instant, 4, false);
    let latent_engine = faulted_engine(Some(LatencyProfile::fixed(3)));
    let (_, latent) = record_campaign(&latent_engine, 2, false);

    let canon = serial.canonical_jsonl();
    assert!(!canon.is_empty());
    assert_eq!(canon, parallel.canonical_jsonl(), "serial vs 4-thread");
    assert_eq!(canon, latent.canonical_jsonl(), "serial vs latency");
    // The scenario metadata is canonical: the record itself says the grid
    // ran faulted, with a composite cell.
    assert!(canon.contains("\"faults\":"), "{canon}");
    assert!(canon.contains("IOR_64K+MDWorkbench_2K"), "{canon}");
    // And the full records still differ (telemetry is run-specific).
    assert_ne!(serial.to_jsonl(), latent.to_jsonl(), "full records differ");
}

/// A faulted grid must not record identically to a pristine grid of the
/// same shape: faults are canon, not telemetry.
#[test]
fn faulted_and_pristine_records_differ_canonically() {
    let (_, faulted) = record_campaign(&faulted_engine(None), 1, true);
    let pristine = StellarBuilder::new().attempt_budget(3).build();
    let (_, clean) = record_campaign(&pristine, 1, true);
    assert_ne!(faulted.canonical_jsonl(), clean.canonical_jsonl());
    let faults_of = |r: &RunRecord| {
        r.events().find_map(|e| match e {
            ObsEvent::CampaignStart { faults, .. } => Some(faults.clone()),
            _ => None,
        })
    };
    assert!(faults_of(&faulted).expect("campaign start").is_some());
    assert_eq!(faults_of(&clean).expect("campaign start"), None);
}

/// `Contention::cost_hint` passes the suite workloads' exactness test:
/// exact op counts and byte estimates within 5% of the generated streams,
/// for composites over every pairing used in the scenario grids.
#[test]
fn contention_cost_hints_are_exact_against_generated_streams() {
    let topo = ClusterSpec::tiny();
    let pairs = [
        (WorkloadKind::Ior64K, WorkloadKind::MdWorkbench2K),
        (WorkloadKind::Ior16M, WorkloadKind::Macsio16M),
        (WorkloadKind::MdWorkbench8K, WorkloadKind::Ior64K),
    ];
    for (a, b) in pairs {
        let w = Contention::new(vec![a.spec_at(SCALE), b.spec_at(SCALE)]);
        let hint = w.cost_hint(&topo);
        let exact = CostHint::from_streams(&w.generate(&topo, 1));
        assert_eq!(hint.data_ops, exact.data_ops, "{}", w.name());
        assert_eq!(hint.meta_ops, exact.meta_ops, "{}", w.name());
        let err = (hint.bytes as f64 - exact.bytes as f64).abs() / exact.bytes as f64;
        assert!(err < 0.05, "{}: bytes off by {:.1}%", w.name(), err * 100.0);
    }
    // Three-job composites stay exact too (hints are additive).
    let w = Contention::new(vec![
        WorkloadKind::Ior64K.spec_at(SCALE),
        WorkloadKind::Ior16M.spec_at(SCALE),
        WorkloadKind::MdWorkbench2K.spec_at(SCALE),
    ]);
    let hint = w.cost_hint(&topo);
    let exact = CostHint::from_streams(&w.generate(&topo, 1));
    assert_eq!(hint.data_ops, exact.data_ops);
    assert_eq!(hint.meta_ops, exact.meta_ops);
}

/// Fault replay: the same plan produces bit-identical runs, an empty plan
/// is exactly pristine, and mid-run recovery forces re-characterization —
/// the recovered wall lands strictly between pristine and forever-degraded.
#[test]
fn fault_schedules_replay_and_recovery_recharacterizes() {
    let topo = ClusterSpec::tiny();
    let sim = PfsSimulator::new(topo.clone());
    let w = WorkloadKind::Ior16M.spec_at(SCALE);
    let cfg = TuningConfig::lustre_default();
    let streams = || w.generate(&topo, 3);

    let pristine = sim.run(streams(), &cfg, 3).wall_secs;
    let degrade_all = |until: Option<u64>| {
        let mut events: Vec<FaultEvent> = (0..topo.ost_count())
            .map(|ost| FaultEvent {
                at_nanos: 0,
                ost,
                kind: FaultKind::Degrade { factor: 16.0 },
            })
            .collect();
        if let Some(at) = until {
            events.extend((0..topo.ost_count()).map(|ost| FaultEvent {
                at_nanos: at,
                ost,
                kind: FaultKind::Recover,
            }));
        }
        FaultPlan::new(events)
    };

    let forever = degrade_all(None);
    let run = |plan: &FaultPlan| {
        let mut sink = pfs::trace::NullSink;
        sim.run_traced_faulted(streams(), &cfg, 3, Some(plan), &mut sink)
            .wall_secs
    };
    let degraded = run(&forever);
    let d2 = run(&forever);
    assert_eq!(degraded.to_bits(), d2.to_bits(), "faulted replay is exact");
    assert!(degraded > pristine * 2.0, "{degraded} vs {pristine}");

    // Recover at half the pristine wall: the tail runs at full speed, so
    // the wall must land strictly between the two extremes.
    let recovery_at = (pristine * 0.5 * 1e9) as u64;
    let recovered = run(&degrade_all(Some(recovery_at)));
    assert!(
        pristine < recovered && recovered < degraded,
        "pristine {pristine} < recovered {recovered} < degraded {degraded}"
    );
}

/// Contention interleaving invariants: the composite is deterministic per
/// seed, every rank sees the same number of barriers (phases stay aligned
/// across jobs of different lengths), and the composite runs strictly
/// slower than its heaviest component alone — the contention actually
/// contends for the shared OSTs.
#[test]
fn contention_interleaves_deterministically_and_contends() {
    let topo = ClusterSpec::tiny();
    let w = Contention::new(vec![
        WorkloadKind::Ior64K.spec_at(SCALE),
        WorkloadKind::MdWorkbench2K.spec_at(SCALE),
    ]);
    let a = w.generate(&topo, 5);
    let b = w.generate(&topo, 5);
    // RankStream carries no PartialEq; its serde form is canonical.
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "composite generation is deterministic"
    );

    let barriers = |s: &pfs::RankStream| {
        s.ops
            .iter()
            .filter(|op| matches!(op, pfs::IoOp::Barrier))
            .count()
    };
    let first = barriers(&a[0]);
    assert!(
        a.iter().all(|s| barriers(s) == first),
        "uniform barrier count across ranks"
    );

    let sim = PfsSimulator::new(topo.clone());
    let cfg = TuningConfig::lustre_default();
    let composite_wall = sim.run(w.generate(&topo, 5), &cfg, 5).wall_secs;
    let solo_wall = |k: WorkloadKind| {
        let solo = k.spec_at(SCALE);
        sim.run(solo.generate(&topo, 5), &cfg, 5).wall_secs
    };
    let heaviest = solo_wall(WorkloadKind::Ior64K).max(solo_wall(WorkloadKind::MdWorkbench2K));
    assert!(
        composite_wall > heaviest,
        "composite {composite_wall} must exceed heaviest solo {heaviest}"
    );
}

/// The warm-vs-cold satellite: rules learned under a faulted, contended
/// session carry both scenario tags, never match a pristine probe, and a
/// pristine session handed those rules behaves bit-identically to one
/// with no rules at all — while the scenario session itself can reuse
/// them.
#[test]
fn scenario_rules_never_cross_into_pristine_sessions() {
    let faulted = faulted_engine(None);
    let composite = Contention::new(vec![
        WorkloadKind::Ior64K.spec_at(SCALE),
        WorkloadKind::MdWorkbench2K.spec_at(SCALE),
    ]);
    let mut learned = RuleSet::new();
    let run = faulted.tune(&composite, &mut learned, 61);
    assert!(
        !run.new_rules.is_empty(),
        "the faulted composite session must learn rules"
    );
    for r in &run.new_rules {
        let tags = r.tags();
        assert!(tags.contains(&ContextTag::DegradedTopology), "{tags:?}");
        assert!(tags.contains(&ContextTag::NoisyNeighbor), "{tags:?}");
    }

    // A pristine single-job session given the scenario rules is
    // bit-identical to a cold one: the rules cannot match its probe.
    let pristine = StellarBuilder::new().attempt_budget(3).build();
    let w = WorkloadKind::Ior64K.spec_at(SCALE);
    let mut none = RuleSet::new();
    let cold = pristine.tune(w.as_ref(), &mut none, 9);
    let mut warm_rules = learned.clone();
    let warm = pristine.tune(w.as_ref(), &mut warm_rules, 9);
    assert_eq!(
        cold, warm,
        "scenario rules must be invisible to a pristine session"
    );

    // The same engine running the same scenario *can* see them: the
    // matching probe (report tags + scenario tags) scores them > 0.
    let probe_tags: Vec<ContextTag> = {
        let mut t = run.new_rules[0].tags();
        t.sort_by_key(|x| format!("{x:?}"));
        t
    };
    assert!(
        run.new_rules
            .iter()
            .all(|r| r.match_score(&probe_tags) > 0.0),
        "scenario rules must match their own regime's probe"
    );
    // ... and the next session in that regime applies them.
    let reuse = faulted.tune(&composite, &mut learned.clone(), 62);
    assert!(
        reuse
            .transcript
            .iter()
            .any(|entry| entry.contains("applying accumulated rule")),
        "the scenario session must apply its own regime's rules"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded fault plans are pure functions of (ost_count, seed): the
    /// event schedule replays identically, serializes losslessly, and a
    /// reconstructed plan evaluates to the same factor at any instant —
    /// the property that makes fault schedules portable across processes.
    #[test]
    fn seeded_fault_plans_are_reproducible(seed in 0u64..1_000, osts in 1u32..12) {
        let a = FaultPlan::seeded(osts, seed);
        let b = FaultPlan::seeded(osts, seed);
        prop_assert_eq!(&a, &b);
        let json = serde_json::to_string(&a).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&back, &a);
        for ost in 0..osts {
            for t in [0u64, 1, 1_000_000, u64::MAX / 2] {
                let at = simcore::SimTime(t);
                prop_assert_eq!(back.factor(ost, at).to_bits(), a.factor(ost, at).to_bits());
            }
        }
    }

    /// Composite cost hints are additive over their components for any
    /// subset of the suite, keeping scheduler estimates exact by
    /// construction.
    #[test]
    fn contention_hints_are_component_sums(picks in proptest::collection::vec(0usize..8, 2..4)) {
        let kinds = [
            WorkloadKind::Ior64K, WorkloadKind::Ior16M,
            WorkloadKind::MdWorkbench2K, WorkloadKind::MdWorkbench8K,
            WorkloadKind::Io500, WorkloadKind::Amrex,
            WorkloadKind::Macsio512K, WorkloadKind::Macsio16M,
        ];
        let topo = ClusterSpec::tiny();
        let jobs: Vec<_> = picks.iter().map(|&i| kinds[i].spec_at(SCALE)).collect();
        let mut want = CostHint::default();
        for j in &jobs {
            let h = j.cost_hint(&topo);
            want.data_ops += h.data_ops;
            want.meta_ops += h.meta_ops;
            want.bytes += h.bytes;
        }
        let got = Contention::new(jobs).cost_hint(&topo);
        prop_assert_eq!(got, want);
    }
}
