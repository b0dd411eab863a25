//! Cost-model-driven scheduling of campaign rounds.
//!
//! A campaign round is a set of independent cells (one per workload) that
//! must all finish before the round's rule merge — a classic makespan
//! problem. The historical scheduler drained cells in naive grid (FIFO)
//! order from an atomic counter, so one late-claimed heavy MDWorkbench
//! cell could strand every other worker at the round barrier.
//!
//! This module supplies the three pieces the [`crate::Campaign`] runner
//! composes:
//!
//! * a [`CostModel`] seeded from parameter-derived [`CostHint`]s
//!   (`workloads::Workload::cost_hint`) and refined with measured per-cell
//!   wall times after every round (exponential moving average), so later
//!   rounds schedule on observation instead of estimation;
//! * [`plan`], which turns the model into a deterministic execution order —
//!   longest-processing-time-first for [`Schedule::Lpt`] /
//!   [`Schedule::Adaptive`], grid order for [`Schedule::Fifo`];
//! * [`makespan`], a greedy list-scheduling simulator mirroring the
//!   runner's claim loop, used by benches and the `perfsuite` binary to
//!   compare policies on measured costs independently of host core count.
//!
//! ## Why reordering preserves determinism
//!
//! Scheduling only permutes *execution* order within a round. Cells are
//! data-independent — every cell of a round reads the same starting
//! [`agents::RuleSnapshot`] and its noise stream derives from the grid
//! seed and cell position, not the executing thread or instant — and the
//! runner still collects results into grid-indexed slots and merges
//! learned rules in grid order. Any permutation therefore yields a
//! bit-identical [`crate::CampaignReport`] (property-tested in
//! `tests/integration_campaign.rs`).

use simcore::stats::Samples;
use workloads::CostHint;

/// Cell-ordering policy for a campaign round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Naive grid order — the historical behaviour, kept as the explicit
    /// baseline the `campaign_sched` bench compares against.
    Fifo,
    /// Longest-processing-time-first over the static, parameter-derived
    /// cost hints.
    Lpt,
    /// LPT over measured per-cell wall times (EMA-smoothed), falling back
    /// to the static hints until a workload has been observed once.
    #[default]
    Adaptive,
}

impl Schedule {
    /// Parse a CLI name (`fifo`, `lpt`, `adaptive`).
    pub fn parse(s: &str) -> Option<Schedule> {
        match s {
            "fifo" => Some(Schedule::Fifo),
            "lpt" => Some(Schedule::Lpt),
            "adaptive" => Some(Schedule::Adaptive),
            _ => None,
        }
    }

    /// The CLI/JSON name.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Fifo => "fifo",
            Schedule::Lpt => "lpt",
            Schedule::Adaptive => "adaptive",
        }
    }
}

/// Smoothing factor for measured-cost feedback: new observations get half
/// the weight, so one noisy round cannot thrash the order.
const EMA_ALPHA: f64 = 0.5;

/// Per-workload cost estimates: static hints refined by observation.
#[derive(Debug, Clone)]
pub struct CostModel {
    hints: Vec<f64>,
    measured: Vec<Option<f64>>,
    /// EMA of measured seconds per hint-weight unit — the anchor that
    /// rescales unobserved hints into seconds-space so adaptive costs
    /// compare like with like (see [`CostModel::cost`]).
    hint_scale: Option<f64>,
}

impl CostModel {
    /// Model seeded from the grid's parameter-derived hints, in grid
    /// (workload index) order.
    pub fn from_hints(hints: impl IntoIterator<Item = CostHint>) -> Self {
        let hints: Vec<f64> = hints.into_iter().map(|h| h.weight()).collect();
        let measured = vec![None; hints.len()];
        CostModel {
            hints,
            measured,
            hint_scale: None,
        }
    }

    /// Number of workloads modeled.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether the model covers no workloads.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }

    /// Feed back one measured cell wall time for workload `idx`.
    ///
    /// Besides the per-workload EMA, each observation with a positive
    /// hint refreshes the model's seconds-per-hint-unit anchor, so
    /// workloads that have *not* been observed yet are costed in the same
    /// unit as those that have.
    pub fn observe(&mut self, idx: usize, secs: f64) {
        let m = &mut self.measured[idx];
        *m = Some(match *m {
            Some(prev) => prev * (1.0 - EMA_ALPHA) + secs * EMA_ALPHA,
            None => secs,
        });
        if self.hints[idx] > 0.0 {
            let ratio = secs / self.hints[idx];
            self.hint_scale = Some(match self.hint_scale {
                Some(prev) => prev * (1.0 - EMA_ALPHA) + ratio * EMA_ALPHA,
                None => ratio,
            });
        }
    }

    /// The scheduling cost of workload `idx` under `schedule`.
    ///
    /// Hint weights (op-count scale) and measured wall times (seconds)
    /// are different units, and a round *can* be partially observed — a
    /// cell aborts, or the grid grows between rounds — so adaptive mode
    /// must never compare them raw: an unobserved hint in the millions
    /// would dwarf every measured cost and hijack the order. Once
    /// anything has been observed, unobserved hints are rescaled into
    /// seconds-space through the anchor ratio maintained by
    /// [`CostModel::observe`]; before the first observation all costs are
    /// hints, which compare consistently among themselves.
    pub fn cost(&self, idx: usize, schedule: Schedule) -> f64 {
        match schedule {
            Schedule::Fifo | Schedule::Lpt => self.hints[idx],
            Schedule::Adaptive => self.measured[idx].unwrap_or_else(|| match self.hint_scale {
                Some(scale) => self.hints[idx] * scale,
                None => self.hints[idx],
            }),
        }
    }

    /// Whether workload `idx` has been observed at least once.
    pub fn is_observed(&self, idx: usize) -> bool {
        self.measured[idx].is_some()
    }
}

/// The deterministic execution order for one round.
///
/// FIFO returns grid order; LPT/adaptive sort descending by modeled cost,
/// breaking ties by grid index so equal-cost cells keep a stable order.
pub fn plan(schedule: Schedule, model: &CostModel) -> Vec<usize> {
    let mut order: Vec<usize> = (0..model.len()).collect();
    if schedule != Schedule::Fifo {
        order.sort_by(|&a, &b| {
            model
                .cost(b, schedule)
                .total_cmp(&model.cost(a, schedule))
                .then(a.cmp(&b))
        });
    }
    order
}

/// Greedy list-scheduling makespan: cells execute in `order`, each claimed
/// by the earliest-free of `workers` workers (ties to the lowest worker).
///
/// This mirrors the claim loop in `Campaign::run_round` exactly, so
/// benches can compare policies from measured per-cell costs without
/// needing the host to actually have that many cores.
pub fn makespan(order: &[usize], costs: &[f64], workers: usize) -> f64 {
    let w = workers.clamp(1, order.len().max(1));
    let mut busy = vec![0.0f64; w];
    for &i in order {
        let k = (0..w)
            .min_by(|&a, &b| busy[a].total_cmp(&busy[b]).then(a.cmp(&b)))
            .expect("at least one worker");
        busy[k] += costs[i];
    }
    busy.iter().fold(0.0, |m, &b| m.max(b))
}

/// A deterministic pseudo-random permutation of `0..n` derived from
/// `seed` (Fisher–Yates over a [`simcore::SimRng`] stream).
///
/// Used by the determinism property test and the `campaign_sched` bench
/// to exercise arbitrary execution orders through
/// [`crate::Campaign::order_override`].
pub fn permutation_from_seed(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = simcore::SimRng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.index(i + 1);
        order.swap(i, j);
    }
    order
}

/// Worker busy fraction for one round: `busy / (workers × makespan)`.
///
/// Guards the degenerate single-cell round whose measured makespan is
/// below the host clock's granularity: dividing by a zero (or epsilon)
/// makespan used to report an infinite utilization, which then turned the
/// makespan-weighted campaign mean into `inf × 0 = NaN`. A round that
/// took no measurable time reports 0 — it contributes nothing to the
/// weighted mean either way.
pub fn round_utilization(busy_secs: f64, workers: usize, makespan_secs: f64) -> f64 {
    if makespan_secs <= 0.0 || workers == 0 {
        return 0.0;
    }
    busy_secs / (workers as f64 * makespan_secs)
}

/// Scheduling telemetry for one executed round.
#[derive(Debug, Clone)]
pub struct RoundSched {
    /// The grid seed of this round.
    pub seed: u64,
    /// Execution order used (grid indices, first-claimed first).
    pub order: Vec<usize>,
    /// Active worker seconds per cell, in grid order: the time a worker
    /// actually spent stepping the cell. Under multiplexing this
    /// excludes suspension and sibling cells' work (claim-to-publish
    /// elapsed time would count both, handing the adaptive cost model
    /// makespan-sized "measurements" for every overlapped cell), so the
    /// numbers stay comparable across blocking and non-blocking runs.
    pub cell_secs: Vec<f64>,
    /// Measured wall-clock duration of the whole round.
    pub makespan_secs: f64,
    /// Worker busy fraction: `Σ cell_secs / (workers × makespan)`.
    pub utilization: f64,
    /// Most backend calls any single worker had simultaneously in flight
    /// during the round (a suspended cell holds exactly one). 0 when the
    /// backend completes instantly — nothing ever suspends; 1 when
    /// suspended cells are drained one at a time (serial rounds); ≥ 2
    /// means a worker multiplexed — that many provider calls genuinely
    /// overlapped on one thread.
    pub max_in_flight: usize,
}

/// Campaign-level scheduling telemetry, recorded on every
/// [`crate::CampaignReport`] so speedups are observable rather than vibes.
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// The ordering policy the campaign ran under.
    pub schedule: Schedule,
    /// Worker threads requested (builder/CLI `--threads`).
    pub threads_requested: usize,
    /// Workers actually used per round (`min(threads, cells per round)`).
    pub workers: usize,
    /// Whether `available_parallelism` failed and the default worker count
    /// silently fell back to 1 — previously invisible, now recorded.
    pub parallelism_fallback: bool,
    /// Per-round telemetry, in seed order.
    pub rounds: Vec<RoundSched>,
}

impl SchedStats {
    /// Total measured cell seconds across all rounds.
    pub fn total_busy_secs(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.cell_secs.iter().sum::<f64>())
            .sum()
    }

    /// Total measured round makespan across all rounds.
    pub fn total_makespan_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.makespan_secs).sum()
    }

    /// Campaign-mean worker utilization, weighted by round makespan
    /// (0 when no rounds ran or nothing took measurable time).
    ///
    /// Weighting matters: an unweighted mean lets a 1-cell tail round
    /// lasting milliseconds drag the campaign figure exactly as hard as a
    /// full multi-minute round — the classic mis-weighted composite
    /// indicator. Weighted by duration, the mean equals total busy time
    /// over total worker-time, which is what "utilization of the
    /// campaign" actually means.
    pub fn mean_utilization(&self) -> f64 {
        let total: f64 = self.rounds.iter().map(|r| r.makespan_secs).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.rounds
            .iter()
            .map(|r| r.utilization * r.makespan_secs)
            .sum::<f64>()
            / total
    }

    /// Most backend calls any single worker had simultaneously in flight
    /// across the campaign (0 when no rounds ran or nothing suspended;
    /// see [`RoundSched::max_in_flight`]).
    pub fn max_in_flight(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_in_flight)
            .max()
            .unwrap_or(0)
    }

    /// `(p50, p90, max)` of per-cell wall times across the campaign,
    /// via a single-sort [`Samples`] set.
    pub fn cell_time_percentiles(&self) -> (f64, f64, f64) {
        let mut s = Samples::with_capacity(self.rounds.iter().map(|r| r.cell_secs.len()).sum());
        for r in &self.rounds {
            for &c in &r.cell_secs {
                s.add(c);
            }
        }
        (s.percentile(50.0), s.percentile(90.0), s.max())
    }

    /// One-line human summary for reports and the CLI.
    pub fn render(&self) -> String {
        let (p50, p90, max) = self.cell_time_percentiles();
        format!(
            "sched: {} over {} worker(s){} — {} round(s), makespan {:.3}s, \
             utilization {:.0}%, in-flight peak {}, cell p50/p90/max {:.3}/{:.3}/{:.3}s",
            self.schedule.label(),
            self.workers,
            if self.parallelism_fallback {
                " (parallelism probe failed; fell back to 1)"
            } else {
                ""
            },
            self.rounds.len(),
            self.total_makespan_secs(),
            self.mean_utilization() * 100.0,
            self.max_in_flight(),
            p50,
            p90,
            max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hint(data_ops: u64) -> CostHint {
        CostHint {
            data_ops,
            meta_ops: 0,
            bytes: 0,
        }
    }

    #[test]
    fn schedule_parse_roundtrips() {
        for s in [Schedule::Fifo, Schedule::Lpt, Schedule::Adaptive] {
            assert_eq!(Schedule::parse(s.label()), Some(s));
        }
        assert_eq!(Schedule::parse("nope"), None);
        assert_eq!(Schedule::default(), Schedule::Adaptive);
    }

    #[test]
    fn fifo_keeps_grid_order_lpt_sorts_heaviest_first() {
        let model = CostModel::from_hints([hint(1), hint(100), hint(10), hint(100)]);
        assert_eq!(plan(Schedule::Fifo, &model), vec![0, 1, 2, 3]);
        // Descending by cost, equal costs tie-broken by grid index.
        assert_eq!(plan(Schedule::Lpt, &model), vec![1, 3, 2, 0]);
    }

    #[test]
    fn adaptive_prefers_measurement_over_hint() {
        let mut model = CostModel::from_hints([hint(1), hint(100)]);
        // Hints say cell 1 is heavy; measurement says otherwise.
        model.observe(0, 9.0);
        model.observe(1, 1.0);
        assert_eq!(plan(Schedule::Lpt, &model), vec![1, 0]);
        assert_eq!(plan(Schedule::Adaptive, &model), vec![0, 1]);
        // EMA smooths: a second observation moves halfway.
        model.observe(0, 1.0);
        assert!((model.cost(0, Schedule::Adaptive) - 5.0).abs() < 1e-12);
        assert!(model.is_observed(0) && model.is_observed(1));
        assert_eq!(model.len(), 2);
        assert!(!model.is_empty());
    }

    /// Regression: a partially observed round (cell aborted, or the grid
    /// grew between rounds) used to compare raw hint weights (op-count
    /// scale) against measured seconds, so an unobserved-but-cheap cell
    /// with a large hint outranked every measured cell. The anchor ratio
    /// rescales hints into seconds-space from the first observation on.
    #[test]
    fn adaptive_rescales_unobserved_hints_into_seconds() {
        // Hints say cell 0 is twice the work of cell 1.
        let mut model = CostModel::from_hints([hint(100), hint(50)]);
        // Only cell 0 has been observed: 10 seconds.
        model.observe(0, 10.0);
        assert!(!model.is_observed(1));
        // Cell 1's cost must be in seconds-space: 50 hint-units at the
        // observed 0.1 s/unit anchor = 5 s, NOT a raw 50 that would
        // out-rank the measured 10 s.
        assert!((model.cost(1, Schedule::Adaptive) - 5.0).abs() < 1e-12);
        assert!((model.cost(0, Schedule::Adaptive) - 10.0).abs() < 1e-12);
        // So the genuinely heavier (measured) cell schedules first.
        assert_eq!(plan(Schedule::Adaptive, &model), vec![0, 1]);
        // The anchor itself is EMA-smoothed across observations.
        model.observe(0, 30.0); // measured EMA -> 20; ratio EMA -> 0.2
        assert!((model.cost(1, Schedule::Adaptive) - 10.0).abs() < 1e-12);
        // Pure-hint schedules are unaffected (single consistent unit).
        assert!((model.cost(1, Schedule::Lpt) - 50.0).abs() < 1e-12);
    }

    /// Zero-weight hints must not poison the anchor (no 0-division).
    #[test]
    fn zero_hints_leave_the_anchor_alone() {
        let mut model = CostModel::from_hints([hint(0), hint(100)]);
        model.observe(0, 4.0);
        // No anchor yet (observed hint was 0): unobserved cost stays raw.
        assert!((model.cost(1, Schedule::Adaptive) - 100.0).abs() < 1e-12);
        model.observe(1, 1.0);
        assert!((model.cost(1, Schedule::Adaptive) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_rewards_lpt_on_skewed_rounds() {
        // One heavy straggler scheduled last under FIFO.
        let costs = [1.0, 1.0, 2.0, 3.0, 5.0];
        let model = CostModel::from_hints(costs.map(|c| hint(c as u64 * 100)));
        let fifo = makespan(&plan(Schedule::Fifo, &model), &costs, 2);
        let lpt = makespan(&plan(Schedule::Lpt, &model), &costs, 2);
        assert_eq!(fifo, 8.0); // [1+2+5 | 1+3]
        assert_eq!(lpt, 6.0); // [5+1 | 3+2+1]
        assert!(lpt <= fifo);
        // Degenerate worker counts clamp sanely.
        assert_eq!(makespan(&[0, 1], &[2.0, 3.0], 0), 5.0);
        assert_eq!(makespan(&[], &[], 4), 0.0);
    }

    /// Regression: plan() and makespan() sorted with
    /// `partial_cmp(..).expect("finite costs")`, so a single NaN wall
    /// time fed through observe() panicked the scheduler mid-campaign.
    /// Under total_cmp, +NaN orders above every finite cost: the run
    /// survives and the order stays deterministic.
    #[test]
    fn nan_costs_order_deterministically_without_panicking() {
        let mut model = CostModel::from_hints([hint(0), hint(1), hint(5)]);
        model.observe(0, f64::NAN);
        let order = plan(Schedule::Adaptive, &model);
        // +NaN sorts greatest, so the poisoned cell schedules first;
        // the rest keep the usual heaviest-first order.
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(order, plan(Schedule::Adaptive, &model));
        // The worker pick survives a NaN busy clock too: that worker
        // never again compares least, so the remaining cells drain
        // deterministically through the healthy one.
        assert_eq!(makespan(&order, &[f64::NAN, 1.0, 2.0], 2), 3.0);
    }

    #[test]
    fn sched_stats_summarize() {
        let stats = SchedStats {
            schedule: Schedule::Lpt,
            threads_requested: 4,
            workers: 2,
            parallelism_fallback: false,
            rounds: vec![RoundSched {
                seed: 42,
                order: vec![1, 0],
                cell_secs: vec![1.0, 3.0],
                makespan_secs: 3.0,
                utilization: 4.0 / 6.0,
                max_in_flight: 1,
            }],
        };
        assert_eq!(stats.total_busy_secs(), 4.0);
        assert_eq!(stats.total_makespan_secs(), 3.0);
        assert!((stats.mean_utilization() - 2.0 / 3.0).abs() < 1e-12);
        let (p50, p90, max) = stats.cell_time_percentiles();
        assert_eq!(p50, 2.0);
        assert!(p90 > p50 && max == 3.0);
        let line = stats.render();
        assert!(line.contains("lpt over 2 worker(s)"), "{line}");
        assert_eq!(stats.max_in_flight(), 1);
        let empty = SchedStats {
            rounds: vec![],
            ..stats
        };
        assert_eq!(empty.mean_utilization(), 0.0);
        assert_eq!(empty.max_in_flight(), 0);
    }

    /// Regression: a single-cell round finishing under the host clock's
    /// granularity used to divide busy time by a zero makespan, reporting
    /// `inf` utilization — and the makespan-weighted campaign mean then
    /// evaluated `inf × 0 = NaN`, poisoning every later percentile and
    /// the rendered summary. Zero-duration rounds now report 0.
    #[test]
    fn zero_makespan_rounds_report_zero_utilization() {
        assert_eq!(round_utilization(0.0, 2, 0.0), 0.0);
        assert_eq!(round_utilization(1.0e-9, 4, 0.0), 0.0);
        assert_eq!(round_utilization(3.0, 0, 1.0), 0.0);
        assert!((round_utilization(4.0, 2, 3.0) - 2.0 / 3.0).abs() < 1e-12);
        // A zero-makespan tail round mixed into real rounds must leave
        // the weighted campaign mean finite and unchanged.
        let round = |makespan_secs: f64, busy: f64, workers: usize| RoundSched {
            seed: 9,
            order: vec![0],
            cell_secs: vec![busy],
            makespan_secs,
            utilization: round_utilization(busy, workers, makespan_secs),
            max_in_flight: 0,
        };
        let stats = SchedStats {
            schedule: Schedule::Adaptive,
            threads_requested: 1,
            workers: 1,
            parallelism_fallback: false,
            rounds: vec![round(10.0, 8.0, 1), round(0.0, 1.0e-9, 1)],
        };
        let mean = stats.mean_utilization();
        assert!(mean.is_finite(), "mean must not be NaN/inf: {mean}");
        assert!((mean - 0.8).abs() < 1e-12, "got {mean}");
        assert!(stats.render().contains("utilization 80%"));
    }

    /// Regression: the campaign mean used to average per-round
    /// utilization unweighted, so a millisecond 1-cell tail round dragged
    /// the figure as hard as a full round. The mean is now weighted by
    /// round makespan (≡ total busy over total worker-time).
    #[test]
    fn mean_utilization_weights_rounds_by_makespan() {
        let round = |makespan_secs: f64, utilization: f64| RoundSched {
            seed: 1,
            order: vec![0],
            cell_secs: vec![utilization * 2.0 * makespan_secs],
            makespan_secs,
            utilization,
            max_in_flight: 1,
        };
        let stats = SchedStats {
            schedule: Schedule::Adaptive,
            threads_requested: 2,
            workers: 2,
            parallelism_fallback: false,
            // A long fully-busy round and a tiny mostly-idle tail round.
            rounds: vec![round(10.0, 1.0), round(1.0, 0.1)],
        };
        let weighted = (10.0 * 1.0 + 1.0 * 0.1) / 11.0;
        assert!(
            (stats.mean_utilization() - weighted).abs() < 1e-12,
            "got {}, want {weighted} (unweighted mean would be 0.55)",
            stats.mean_utilization()
        );
        assert!(stats.mean_utilization() > 0.9, "tail round must not drag");
    }
}
