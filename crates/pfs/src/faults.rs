//! Deterministic fault scenarios: seeded, event-scheduled OST degradation.
//!
//! A [`FaultPlan`] is a sorted schedule of [`FaultEvent`]s — each one flips
//! a single OST's health state at a fixed point in **simulated** time
//! (`simcore` nanoseconds, never wall-clock). The engine consults
//! [`FaultPlan::factor`] whenever it schedules device work on an OST and
//! multiplies the returned slowdown into the service-time noise, so a
//! degraded OST serves the same operations at a worse rate.
//!
//! Dropout is modelled as a *brown-out* rather than an error: a dropped
//! OST keeps accepting requests at [`DROP_FACTOR`]× service time. This
//! keeps every operation stream — and therefore every Darshan counter,
//! trace record and replayed canonical event — structurally identical to
//! the pristine run, which is what lets faulted campaigns ride the
//! existing byte-identical determinism contract: faults change *wall
//! times*, never the shape of the record.
//!
//! Determinism argument: a plan is plain data (serializable, sorted at
//! construction); [`FaultPlan::seeded`] derives it from a `SimRng` child
//! stream, so equal `(ost_count, seed)` pairs produce equal schedules in
//! any process; and [`FaultPlan::factor`] is a pure function of
//! `(ost, simulated time)`. Nothing reads a host clock or host RNG
//! (detlint rules D001/D003 apply to this module like any other
//! canonical-path code).

use serde::{Deserialize, Serialize};
use simcore::time::SimTime;
use simcore::SimRng;

/// Service-time multiplier modelling a dropped-out OST (brown-out: the
/// device still answers, pathologically slowly, so op streams and traces
/// keep their pristine shape).
pub const DROP_FACTOR: f64 = 64.0;

/// What happens to the OST at the event's instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The OST degrades: device service times multiply by `factor` (> 1).
    Degrade {
        /// Multiplicative service-time slowdown while degraded.
        factor: f64,
    },
    /// The OST drops out (served at [`DROP_FACTOR`]× until recovery).
    Drop,
    /// The OST returns to full health (factor 1.0).
    Recover,
}

impl FaultKind {
    /// The service-time factor this state imposes.
    pub fn factor(self) -> f64 {
        match self {
            FaultKind::Degrade { factor } => factor,
            FaultKind::Drop => DROP_FACTOR,
            FaultKind::Recover => 1.0,
        }
    }
}

/// One scheduled health transition of one OST.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated instant of the transition, nanoseconds since run start.
    pub at_nanos: u64,
    /// The OST whose state changes.
    pub ost: u32,
    /// The new state.
    pub kind: FaultKind,
}

/// A deterministic, event-scheduled fault scenario for one run.
///
/// Events are held sorted by `(at_nanos, ost)`; each OST's health is the
/// piecewise-constant trace of its own events (last event at or before
/// the query instant wins; no event yet means healthy).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Build a plan from explicit events (sorted on construction, so two
    /// plans with the same event *set* compare and serialize equal).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.at_nanos, e.ost));
        FaultPlan { events }
    }

    /// A seeded scenario for a cluster with `ost_count` OSTs.
    ///
    /// One victim OST is always degraded from the start of the run
    /// (2–8× slower), may later drop out entirely, and may recover
    /// mid-run; every other OST independently suffers a mild transient
    /// slowdown with probability 1/4. Equal `(ost_count, seed)` inputs
    /// yield bit-identical plans — property-tested in this module and
    /// exercised cross-process by the CI determinism matrix.
    pub fn seeded(ost_count: u32, seed: u64) -> Self {
        let base = SimRng::new(seed);
        let mut events = Vec::new();
        if ost_count == 0 {
            return FaultPlan::new(events);
        }
        let mut rng = base.derive("pfs::faults::primary", 0);
        let victim = rng.index(ost_count as usize) as u32;
        let factor = rng.uniform(2.0, 8.0);
        events.push(FaultEvent {
            at_nanos: 0,
            ost: victim,
            kind: FaultKind::Degrade { factor },
        });
        let mut last = 0u64;
        if rng.chance(0.4) {
            last += (rng.exponential(0.5) * 1e9) as u64 + 1;
            events.push(FaultEvent {
                at_nanos: last,
                ost: victim,
                kind: FaultKind::Drop,
            });
        }
        if rng.chance(0.6) {
            last += (rng.exponential(1.0) * 1e9) as u64 + 1;
            events.push(FaultEvent {
                at_nanos: last,
                ost: victim,
                kind: FaultKind::Recover,
            });
        }
        for ost in 0..ost_count {
            if ost == victim {
                continue;
            }
            let mut rng = base.derive("pfs::faults::secondary", u64::from(ost));
            if !rng.chance(0.25) {
                continue;
            }
            let at = (rng.exponential(0.25) * 1e9) as u64;
            events.push(FaultEvent {
                at_nanos: at,
                ost,
                kind: FaultKind::Degrade {
                    factor: rng.uniform(1.5, 3.0),
                },
            });
            if rng.chance(0.5) {
                events.push(FaultEvent {
                    at_nanos: at + (rng.exponential(0.5) * 1e9) as u64 + 1,
                    ost,
                    kind: FaultKind::Recover,
                });
            }
        }
        FaultPlan::new(events)
    }

    /// The schedule, sorted by `(at_nanos, ost)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The service-time factor in force on `ost` at simulated instant
    /// `at` — the last scheduled transition at or before `at`, or 1.0
    /// (healthy) if none has fired yet.
    pub fn factor(&self, ost: u32, at: SimTime) -> f64 {
        let t = at.as_nanos();
        self.events
            .iter()
            .rfind(|e| e.ost == ost && e.at_nanos <= t)
            .map_or(1.0, |e| e.kind.factor())
    }

    /// Short human/observer label, e.g. `3 fault event(s) on 2 OST(s)`.
    pub fn label(&self) -> String {
        let mut osts: Vec<u32> = self.events.iter().map(|e| e.ost).collect();
        osts.sort_unstable();
        osts.dedup();
        format!(
            "{} fault event(s) on {} OST(s)",
            self.events.len(),
            osts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded_then_recovered() -> FaultPlan {
        FaultPlan::new(vec![
            FaultEvent {
                at_nanos: 2_000,
                ost: 1,
                kind: FaultKind::Recover,
            },
            FaultEvent {
                at_nanos: 0,
                ost: 1,
                kind: FaultKind::Degrade { factor: 4.0 },
            },
            FaultEvent {
                at_nanos: 1_000,
                ost: 1,
                kind: FaultKind::Drop,
            },
        ])
    }

    #[test]
    fn factor_is_piecewise_constant_per_ost() {
        let plan = degraded_then_recovered();
        assert_eq!(plan.factor(1, SimTime::from_nanos(0)), 4.0);
        assert_eq!(plan.factor(1, SimTime::from_nanos(999)), 4.0);
        assert_eq!(plan.factor(1, SimTime::from_nanos(1_000)), DROP_FACTOR);
        assert_eq!(plan.factor(1, SimTime::from_nanos(2_000)), 1.0);
        assert_eq!(plan.factor(1, SimTime::FAR_FUTURE), 1.0);
        // Other OSTs are untouched at every instant.
        assert_eq!(plan.factor(0, SimTime::from_nanos(1_500)), 1.0);
    }

    #[test]
    fn construction_sorts_events() {
        let plan = degraded_then_recovered();
        let times: Vec<u64> = plan.events().iter().map(|e| e.at_nanos).collect();
        assert_eq!(times, vec![0, 1_000, 2_000]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_always_healthy() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.factor(0, SimTime::from_secs(5)), 1.0);
        assert_eq!(plan.label(), "0 fault event(s) on 0 OST(s)");
    }

    #[test]
    fn seeded_always_faults_from_the_start() {
        for seed in 0..32u64 {
            let plan = FaultPlan::seeded(5, seed);
            assert!(!plan.is_empty(), "seed {seed}");
            let first = plan.events()[0];
            assert_eq!(first.at_nanos, 0, "seed {seed}: victim faults at t=0");
            let f = plan.factor(first.ost, SimTime::ZERO);
            assert!(f >= 1.5, "seed {seed}: factor {f} should slow the OST");
        }
    }

    #[test]
    fn seeded_is_deterministic_and_seed_sensitive() {
        assert_eq!(FaultPlan::seeded(5, 7), FaultPlan::seeded(5, 7));
        // Across 16 seeds at least one plan must differ from seed 7's.
        let reference = FaultPlan::seeded(5, 7);
        assert!((0..16).any(|s| FaultPlan::seeded(5, s) != reference));
    }

    #[test]
    fn seeded_handles_degenerate_clusters() {
        assert!(FaultPlan::seeded(0, 1).is_empty());
        let one = FaultPlan::seeded(1, 1);
        assert!(one.events().iter().all(|e| e.ost == 0));
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let plan = degraded_then_recovered();
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn label_counts_distinct_osts() {
        let plan = degraded_then_recovered();
        assert_eq!(plan.label(), "3 fault event(s) on 1 OST(s)");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = FaultEvent> {
        (0u64..5_000_000_000, 0u32..8, 0usize..3).prop_map(|(at_nanos, ost, k)| FaultEvent {
            at_nanos,
            ost,
            kind: match k {
                0 => FaultKind::Degrade { factor: 3.0 },
                1 => FaultKind::Drop,
                _ => FaultKind::Recover,
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite: plans round-trip through JSON exactly, and equal
        /// seeds yield identical schedules (the cross-process guarantee —
        /// nothing in the construction path can see process identity).
        #[test]
        fn plans_roundtrip_and_seeds_are_reproducible(
            events in proptest::collection::vec(arb_event(), 0..12),
            ost_count in 1u32..16,
            seed in 0u64..1_000,
        ) {
            let plan = FaultPlan::new(events);
            let json = serde_json::to_string(&plan).expect("serialize");
            let back: FaultPlan = serde_json::from_str(&json).expect("parse");
            prop_assert_eq!(&plan, &back);

            let a = FaultPlan::seeded(ost_count, seed);
            let b = FaultPlan::seeded(ost_count, seed);
            prop_assert_eq!(&a, &b);
            let json_a = serde_json::to_string(&a).expect("serialize");
            let json_b = serde_json::to_string(&b).expect("serialize");
            prop_assert_eq!(json_a, json_b);
            prop_assert!(a.events().iter().all(|e| e.ost < ost_count));
        }

        /// `factor` never returns a speed-up and always starts healthy.
        #[test]
        fn factors_are_slowdowns(
            events in proptest::collection::vec(arb_event(), 0..12),
            ost in 0u32..8,
            at in 0u64..6_000_000_000,
        ) {
            let plan = FaultPlan::new(events);
            let f = plan.factor(ost, SimTime::from_nanos(at));
            prop_assert!(f >= 1.0);
            let earliest = plan
                .events()
                .iter()
                .filter(|e| e.ost == ost)
                .map(|e| e.at_nanos)
                .min();
            if earliest.is_none_or(|t| t > at) {
                prop_assert_eq!(f, 1.0);
            }
        }
    }
}
