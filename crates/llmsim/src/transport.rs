//! The simulated provider transport.
//!
//! In STELLAR every agent turn is one provider API call. [`SimTransport`]
//! simulates that call's round trip so a session can suspend on it and
//! retry it deterministically: [`submit`] puts a call in flight and
//! returns a [`CallHandle`]; [`poll`] reports [`CallStatus::Pending`]
//! until the call's latency has elapsed, then [`CallStatus::Ready`], or
//! [`CallStatus::Failed`] when the seeded [`FailureInjection`] fails it.
//! The transport carries no reply: the caller computes the turn through
//! its synchronous [`crate::SimLlm`] once the call is ready.
//!
//! ## The contract with callers
//!
//! A transport carries one conversation, so at most one call is in flight:
//! submitting while a call is in flight panics. A handle is live from
//! `submit` until the `poll` that returns `Ready` or `Failed` (either
//! consumes it) or until [`cancel`]. Polling a consumed, cancelled or
//! foreign handle panics: a stale handle is a caller bug, not a
//! recoverable state.
//!
//! Latency is counted in *ticks*: each `poll` of a pending call burns one
//! tick. A driver that keeps polling therefore always makes progress, and
//! a driver that polls K suspended sessions round-robin would advance all
//! K calls at once. Since ticks are polls, not host time, such overlap
//! saves no host time, so the campaign workers poll one call at a time.
//!
//! Both draws key off the call's *submission index* `i`: its tick budget
//! is `latency.draw(seed, i)` and its verdict `injection.draw(i)`. Latency
//! changes how many times a call is polled, never how many calls are
//! submitted, so the failure schedule is the same under every latency
//! profile.
//!
//! [`submit`]: SimTransport::submit
//! [`poll`]: SimTransport::poll
//! [`cancel`]: SimTransport::cancel

use crate::failures::FailureInjection;
use serde::{Deserialize, Serialize};
use simcore::rng::combine;
use simcore::SimRng;
use std::fmt;

/// Opaque identifier of one in-flight call: its submission index.
///
/// Handles are only meaningful to the transport that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallHandle(u64);

impl CallHandle {
    /// The raw id, for logs and telemetry.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Why a call concluded without a reply.
///
/// The split mirrors real provider error taxonomies: [`Transient`] covers
/// conditions a resubmission can clear (rate limiting, gateway timeouts,
/// load shedding), [`Fatal`] covers calls that can never succeed as issued
/// (malformed requests, revoked credentials). Retry layers key off
/// [`CallError::is_transient`]; everything else is presentation.
///
/// [`Transient`]: CallError::Transient
/// [`Fatal`]: CallError::Fatal
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallError {
    /// A provider-side hiccup a retry can clear.
    Transient {
        /// Short provider-style reason label (e.g. `"rate-limited"`).
        reason: String,
    },
    /// The call can never succeed as issued; retrying is pointless.
    Fatal {
        /// Short provider-style reason label (e.g. `"invalid-request"`).
        reason: String,
    },
}

impl CallError {
    /// Whether a resubmission could clear this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, CallError::Transient { .. })
    }
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Transient { reason } => write!(f, "transient: {reason}"),
            CallError::Fatal { reason } => write!(f, "fatal: {reason}"),
        }
    }
}

/// Outcome of polling an in-flight call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallStatus {
    /// The call completed; the handle is consumed.
    Ready,
    /// Still in flight — suspend and poll again later.
    Pending,
    /// The call concluded with an error; the handle is consumed. Retry
    /// decisions belong to the caller (see [`CallError::is_transient`]).
    Failed(CallError),
}

/// How many poll ticks a simulated call stays in flight.
///
/// `min_ticks..=max_ticks`, drawn deterministically per call from the
/// transport's seed and the call's submission index — so a given session
/// always sees the same latency sequence regardless of what else runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyProfile {
    /// Fewest ticks a call can take (0 = can complete on the first poll).
    pub min_ticks: u32,
    /// Most ticks a call can take.
    pub max_ticks: u32,
}

impl LatencyProfile {
    /// Every call takes exactly `ticks` polls.
    pub fn fixed(ticks: u32) -> Self {
        LatencyProfile {
            min_ticks: ticks,
            max_ticks: ticks,
        }
    }

    /// Calls take between `min` and `max` ticks inclusive.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn uniform(min: u32, max: u32) -> Self {
        assert!(min <= max, "latency profile: min {min} > max {max}");
        LatencyProfile {
            min_ticks: min,
            max_ticks: max,
        }
    }

    /// Parse a CLI spelling: a single tick count (`"3"`) or an inclusive
    /// range (`"1..4"`).
    pub fn parse(s: &str) -> Option<Self> {
        if let Some((lo, hi)) = s.split_once("..") {
            let (min, max) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
            (min <= max).then(|| LatencyProfile::uniform(min, max))
        } else {
            s.trim().parse().ok().map(LatencyProfile::fixed)
        }
    }

    /// The CLI spelling (`"3"` or `"1..4"`).
    pub fn label(&self) -> String {
        if self.min_ticks == self.max_ticks {
            format!("{}", self.min_ticks)
        } else {
            format!("{}..{}", self.min_ticks, self.max_ticks)
        }
    }

    fn draw(&self, seed: u64, submission: u64) -> u32 {
        if self.min_ticks == self.max_ticks {
            return self.min_ticks;
        }
        // In usize, so the full `0..=u32::MAX` range cannot overflow.
        let span = (self.max_ticks - self.min_ticks) as usize + 1;
        self.min_ticks + SimRng::new(combine(seed, submission)).index(span) as u32
    }
}

/// The call in flight: its handle, the ticks it still has to wait, and
/// the verdict drawn when it was submitted.
#[derive(Debug)]
struct InFlight {
    handle: CallHandle,
    ticks: u32,
    verdict: Option<CallError>,
}

/// A seeded simulated provider: per-call latency from a
/// [`LatencyProfile`] and, optionally, per-call failures from a
/// [`FailureInjection`]. See the [module docs](self) for the contract.
///
/// With `LatencyProfile::fixed(0)` and no injection every call is
/// `Ready` on its first poll.
#[derive(Debug)]
pub struct SimTransport {
    latency: LatencyProfile,
    seed: u64,
    injection: Option<FailureInjection>,
    submitted: u64,
    in_flight: Option<InFlight>,
}

impl SimTransport {
    /// A transport whose latency stream derives from `seed`, failing calls
    /// under `injection` when one is given.
    pub fn new(latency: LatencyProfile, seed: u64, injection: Option<FailureInjection>) -> Self {
        SimTransport {
            latency,
            seed,
            injection,
            submitted: 0,
            in_flight: None,
        }
    }

    /// Put the next call in flight and return its handle. Its tick budget
    /// and verdict are drawn here, from its submission index.
    ///
    /// # Panics
    /// Panics if a call is already in flight.
    pub fn submit(&mut self) -> CallHandle {
        assert!(
            self.in_flight.is_none(),
            "submitted while a call is in flight: a transport carries one conversation"
        );
        let i = self.submitted;
        self.submitted += 1;
        let handle = CallHandle(i);
        self.in_flight = Some(InFlight {
            handle,
            ticks: self.latency.draw(self.seed, i),
            verdict: self.injection.as_ref().and_then(|inj| inj.draw(i)),
        });
        handle
    }

    /// Check on the call in flight: `Pending` while it has ticks left,
    /// then `Ready` or `Failed`, either of which consumes the handle.
    ///
    /// # Panics
    /// Panics on a handle that is not the one in flight.
    pub fn poll(&mut self, handle: CallHandle) -> CallStatus {
        let call = self
            .in_flight
            .as_mut()
            .filter(|call| call.handle == handle)
            .expect("polled unknown or already-completed call");
        if call.ticks > 0 {
            call.ticks -= 1;
            return CallStatus::Pending;
        }
        match self.in_flight.take().and_then(|call| call.verdict) {
            Some(err) => CallStatus::Failed(err),
            None => CallStatus::Ready,
        }
    }

    /// Abandon the call in flight (e.g. the session aborted). Cancelling
    /// a handle that is no longer in flight is a no-op.
    pub fn cancel(&mut self, handle: CallHandle) {
        self.in_flight.take_if(|call| call.handle == handle);
    }

    /// Number of calls currently in flight (0 or 1).
    pub fn in_flight(&self) -> usize {
        usize::from(self.in_flight.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "already-completed")]
    fn polling_a_consumed_handle_panics() {
        let mut t = SimTransport::new(LatencyProfile::fixed(0), 1, None);
        let h = t.submit();
        let _ = t.poll(h);
        let _ = t.poll(h);
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn submitting_while_a_call_is_in_flight_panics() {
        let mut t = SimTransport::new(LatencyProfile::fixed(2), 1, None);
        let _ = t.submit();
        let _ = t.submit();
    }

    #[test]
    fn latency_holds_calls_for_their_tick_budget() {
        let mut t = SimTransport::new(LatencyProfile::fixed(3), 42, None);
        let h = t.submit();
        assert_eq!(t.in_flight(), 1);
        for _ in 0..3 {
            assert_eq!(t.poll(h), CallStatus::Pending);
        }
        assert_eq!(t.poll(h), CallStatus::Ready);
        assert_eq!(t.in_flight(), 0);
        // The next call gets the next submission index.
        assert_eq!(t.submit().id(), h.id() + 1);
    }

    #[test]
    fn latency_draws_are_deterministic_and_within_profile() {
        let profile = LatencyProfile::uniform(1, 4);
        let draws = |seed| -> Vec<u32> { (0..32).map(|i| profile.draw(seed, i)).collect() };
        let a = draws(7);
        assert_eq!(a, draws(7), "same seed, same latency sequence");
        assert_ne!(a, draws(8), "different seed, different sequence");
        assert!(a.iter().all(|&t| (1..=4).contains(&t)));
        assert!(a.iter().any(|&t| t != a[0]), "spread over the range");
    }

    /// The full `u32` range spans 2^32 values, one more than `u32` holds.
    #[test]
    fn full_range_draws_do_not_overflow() {
        let profile = LatencyProfile::parse("0..4294967295").expect("valid range");
        assert_eq!(profile, LatencyProfile::uniform(0, u32::MAX));
        let draws: Vec<u32> = (0..8).map(|i| profile.draw(5, i)).collect();
        assert!(
            draws.iter().any(|&t| t > 0),
            "the full range must not collapse to zero ticks: {draws:?}"
        );
    }

    #[test]
    fn cancel_kills_the_handle() {
        let mut t = SimTransport::new(LatencyProfile::fixed(5), 1, None);
        let h = t.submit();
        t.cancel(h);
        assert_eq!(t.in_flight(), 0);
        // Cancelling twice is a no-op, not a panic.
        t.cancel(h);
    }

    #[test]
    fn latency_profile_parsing() {
        assert_eq!(LatencyProfile::parse("3"), Some(LatencyProfile::fixed(3)));
        assert_eq!(
            LatencyProfile::parse("1..4"),
            Some(LatencyProfile::uniform(1, 4))
        );
        assert_eq!(LatencyProfile::parse("4..1"), None);
        assert_eq!(LatencyProfile::parse("fast"), None);
        assert_eq!(LatencyProfile::fixed(2).label(), "2");
        assert_eq!(LatencyProfile::uniform(0, 3).label(), "0..3");
    }

    #[test]
    fn instant_profile_is_ready_on_first_poll() {
        let mut t = SimTransport::new(LatencyProfile::fixed(0), 3, None);
        let h = t.submit();
        assert_eq!(t.poll(h), CallStatus::Ready);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Near-miss CLI spellings: digit runs (some past `u32::MAX`) around
    /// range-like separators.
    fn arb_spelling() -> impl Strategy<Value = String> {
        (
            "[0-9]{0,11}",
            proptest::sample::select(vec!["", "..", " .. ", "...", "..=", ".", "-"]),
            "[0-9 ]{0,11}",
        )
            .prop_map(|(lo, sep, hi)| format!("{lo}{sep}{hi}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse` never panics; whatever it accepts is a valid profile
        /// that round-trips through `label`, and whose draws stay in range.
        #[test]
        fn parsed_profiles_are_valid(
            noise in "[0-9. +x-]{0,24}",
            spelling in arb_spelling(),
            seed in 0u64..1_000,
        ) {
            for s in [noise, spelling] {
                let Some(p) = LatencyProfile::parse(&s) else {
                    continue;
                };
                prop_assert!(p.min_ticks <= p.max_ticks, "{s:?} parsed to {p:?}");
                prop_assert_eq!(LatencyProfile::parse(&p.label()), Some(p));
                for i in 0..16 {
                    let ticks = p.draw(seed, i);
                    prop_assert!(
                        (p.min_ticks..=p.max_ticks).contains(&ticks),
                        "{p:?} drew {ticks}"
                    );
                }
            }
        }
    }
}
