//! Deterministic seeded failure injection for the simulated provider.
//!
//! A [`FailureInjection`] given to a [`SimTransport`] turns a seeded
//! fraction of calls into [`CallStatus::Failed`] outcomes, with the
//! verdict drawn **per submission index** from the injection seed —
//! exactly the discipline `pfs::FaultPlan` applies to storage faults and
//! the transport applies to latency. Two consequences make the schedule
//! safe for the canonical-stream contract:
//!
//! * **Reproducible**: the verdict for submission `i` is a pure function
//!   of `(seed, i)`. Same seed, same profile ⇒ the same calls fail with
//!   the same errors, on every run, on every host.
//! * **Latency-invariant**: latency changes how many times a call is
//!   *polled*, never how many calls are *submitted*, so the transport
//!   yields identical failure schedules under any latency profile. This
//!   is what lets the CI determinism matrix demand byte-identical
//!   canonical streams across serial, parallel and injected-latency runs
//!   *with failures on*.
//!
//! A drawn failure surfaces on the first poll after the call's latency
//! ticks are spent (so latency still elapses first), and consumes the
//! handle just as `Ready` would.
//!
//! [`SimTransport`]: crate::SimTransport
//! [`CallStatus::Failed`]: crate::CallStatus::Failed

use crate::transport::CallError;
use serde::{Deserialize, Serialize};
use simcore::rng::combine;
use simcore::SimRng;

/// Transient reason labels, drawn uniformly once a call is marked
/// transient-failed. Fixed set: the labels feed canonical events.
const TRANSIENT_REASONS: [&str; 3] = ["rate-limited", "gateway-timeout", "overloaded"];

/// Fatal reason labels, drawn uniformly once a call is marked fatal.
const FATAL_REASONS: [&str; 2] = ["invalid-request", "credentials-revoked"];

/// Per-call failure probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureProfile {
    /// Probability a call fails transiently (retryable).
    pub transient_rate: f64,
    /// Probability a call fails fatally (never retryable).
    pub fatal_rate: f64,
}

impl FailureProfile {
    /// The standard injection mix: 15% transient, 2% fatal — enough to
    /// exercise every retry path in a modest campaign without drowning it.
    pub fn standard() -> Self {
        FailureProfile {
            transient_rate: 0.15,
            fatal_rate: 0.02,
        }
    }
}

/// A seeded failure schedule: seed plus per-call probabilities.
///
/// The verdict for submission index `i` is
/// [`draw(i)`](FailureInjection::draw) — a pure function, so schedules
/// are reproducible across construction order, processes and hosts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureInjection {
    /// Root seed of the failure stream.
    pub seed: u64,
    /// Per-call failure probabilities.
    pub profile: FailureProfile,
}

impl FailureInjection {
    /// The [`FailureProfile::standard`] mix under `seed`.
    pub fn standard(seed: u64) -> Self {
        FailureInjection {
            seed,
            profile: FailureProfile::standard(),
        }
    }

    /// Canonical label for run records and reports
    /// (e.g. `"seed 9 (transient 0.15, fatal 0.02)"`).
    pub fn label(&self) -> String {
        format!(
            "seed {} (transient {}, fatal {})",
            self.seed, self.profile.transient_rate, self.profile.fatal_rate
        )
    }

    /// The verdict for submission index `submission`: `None` = the call
    /// succeeds, `Some(err)` = it concludes with `err`. One uniform roll
    /// decides the band (fatal first, then transient); a second draw
    /// picks the reason label. Pure in `(self, submission)`.
    pub fn draw(&self, submission: u64) -> Option<CallError> {
        let mut rng = SimRng::new(combine(self.seed, submission));
        let roll = rng.unit();
        if roll < self.profile.fatal_rate {
            let reason = FATAL_REASONS[rng.index(FATAL_REASONS.len())];
            Some(CallError::Fatal {
                reason: reason.to_string(),
            })
        } else if roll < self.profile.fatal_rate + self.profile.transient_rate {
            let reason = TRANSIENT_REASONS[rng.index(TRANSIENT_REASONS.len())];
            Some(CallError::Transient {
                reason: reason.to_string(),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CallStatus, LatencyProfile, SimTransport};

    /// Submit the next call and poll it until it concludes.
    fn settle(t: &mut SimTransport) -> CallStatus {
        let h = t.submit();
        loop {
            match t.poll(h) {
                CallStatus::Pending => continue,
                done => return done,
            }
        }
    }

    #[test]
    fn draws_are_pure_and_seed_sensitive() {
        let inj = FailureInjection::standard(7);
        let a: Vec<_> = (0..256).map(|i| inj.draw(i)).collect();
        let b: Vec<_> = (0..256).map(|i| inj.draw(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let other = FailureInjection::standard(8);
        let c: Vec<_> = (0..256).map(|i| other.draw(i)).collect();
        assert_ne!(a, c, "different seed, different schedule");
        // The standard mix produces successes, transients and fatals.
        assert!(a.iter().any(|v| v.is_none()));
        assert!(a.iter().any(|v| matches!(v, Some(e) if e.is_transient())));
        assert!(a.iter().any(|v| matches!(v, Some(e) if !e.is_transient())));
    }

    #[test]
    fn injected_verdicts_surface_on_poll() {
        let inj = FailureInjection::standard(7);
        let mut t = SimTransport::new(LatencyProfile::fixed(0), 0, Some(inj));
        for i in 0..64 {
            match (settle(&mut t), inj.draw(i)) {
                (CallStatus::Ready, None) => {}
                (CallStatus::Failed(got), Some(want)) => assert_eq!(got, want, "call {i}"),
                (got, want) => panic!("call {i}: got {got:?}, drew {want:?}"),
            }
        }
        assert_eq!(t.in_flight(), 0);
    }

    /// The failure schedule is keyed by submission index, so it is
    /// identical whether or not latency delays the polls — the property
    /// the cross-latency byte-equality CI cell rests on.
    #[test]
    fn schedule_is_latency_invariant() {
        let inj = FailureInjection::standard(3);
        let statuses = |profile: LatencyProfile| -> Vec<CallStatus> {
            let mut t = SimTransport::new(profile, 11, Some(inj));
            (0..48).map(|_| settle(&mut t)).collect()
        };
        let instant = statuses(LatencyProfile::fixed(0));
        assert_eq!(instant, statuses(LatencyProfile::fixed(3)));
        assert_eq!(instant, statuses(LatencyProfile::uniform(1, 4)));
    }

    /// Latency ticks elapse before a drawn failure surfaces.
    #[test]
    fn failures_respect_the_latency_budget() {
        let inj = FailureInjection::standard(3);
        let failing = (0..)
            .find(|&i| inj.draw(i).is_some())
            .expect("standard mix fails eventually");
        let mut t = SimTransport::new(LatencyProfile::fixed(2), 11, Some(inj));
        for _ in 0..failing {
            settle(&mut t);
        }
        let h = t.submit();
        assert_eq!(h.id(), failing);
        assert_eq!(t.poll(h), CallStatus::Pending, "tick 1 still pending");
        assert_eq!(t.poll(h), CallStatus::Pending, "tick 2 still pending");
        assert!(
            matches!(t.poll(h), CallStatus::Failed(_)),
            "failure surfaces only after the budget"
        );
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            FailureInjection::standard(9).label(),
            "seed 9 (transient 0.15, fatal 0.02)"
        );
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let inj = FailureInjection {
            seed: 17,
            profile: FailureProfile {
                transient_rate: 0.25,
                fatal_rate: 0.0,
            },
        };
        let json = serde_json::to_string(&inj).expect("serialize");
        let back: FailureInjection = serde_json::from_str(&json).expect("parse");
        assert_eq!(inj, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_profile() -> impl Strategy<Value = FailureProfile> {
        // Rates sum below 1.0 so every band stays reachable.
        (0.0f64..0.5, 0.0f64..0.5).prop_map(|(transient_rate, fatal_rate)| FailureProfile {
            transient_rate,
            fatal_rate,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Satellite: schedules are reproducible across construction
        /// order (the verdict for an index never depends on which indices
        /// were drawn before it) and injections round-trip through JSON
        /// exactly — mirroring the `FaultPlan` proptests.
        #[test]
        fn schedules_are_order_independent_and_roundtrip(
            seed in 0u64..1_000,
            profile in arb_profile(),
            indices in proptest::collection::vec(0u64..512, 1..32),
        ) {
            let inj = FailureInjection { seed, profile };

            // Forward order, reverse order and fresh-per-index draws all
            // agree: draw is pure in (injection, index).
            let forward: Vec<_> = indices.iter().map(|&i| inj.draw(i)).collect();
            let reverse: Vec<_> = indices.iter().rev().map(|&i| inj.draw(i)).collect();
            let reversed_back: Vec<_> = reverse.into_iter().rev().collect();
            prop_assert_eq!(&forward, &reversed_back);
            let fresh: Vec<_> = indices
                .iter()
                .map(|&i| FailureInjection { seed, profile }.draw(i))
                .collect();
            prop_assert_eq!(&forward, &fresh);

            // Fatal verdicts only appear with a nonzero fatal rate, and
            // likewise for transients.
            if profile.fatal_rate == 0.0 {
                prop_assert!(forward
                    .iter()
                    .all(|v| !matches!(v, Some(e) if !e.is_transient())));
            }
            if profile.transient_rate == 0.0 {
                prop_assert!(forward
                    .iter()
                    .all(|v| !matches!(v, Some(e) if e.is_transient())));
            }

            let json = serde_json::to_string(&inj).expect("serialize");
            let back: FailureInjection = serde_json::from_str(&json).expect("parse");
            prop_assert_eq!(inj, back);
        }
    }
}
