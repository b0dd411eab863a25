//! The untraced run: end-to-end metrics.

use crate::clock::Stopwatch;
use crate::exec::{self, Round, Unit};
use crate::spec::{Setup, Shape, Spec, SETUP_REPS};
use crate::stats::{gmean, mean, median, ratio};
use crate::{peak_rss_mb, Args, BenchResult};
use pfs::IoOp;

pub fn run(args: &Args) -> BenchResult {
    let spec = &args.spec;
    let cycle = spec.cycle();
    let (setup, mut set_up_times) = setup_times(spec, args.seed, 1);
    let rounds = exec::rounds(&setup, spec, args.seed, args.seconds, cycle, false);
    let peak_rss = peak_rss_mb();
    let first_cycle = &rounds[..cycle];
    let mut problems = Vec::new();
    let mut unit_ops = Vec::new();
    for round in first_cycle {
        let (ops, round_problems) = round_ops(&setup, spec, round);
        unit_ops.push(ops);
        problems.extend(round_problems);
    }
    // The remaining set-up repetitions run after the measured phase, with
    // the host as warm as it was for the rounds.
    set_up_times.extend(setup_times(spec, args.seed, SETUP_REPS - 1).1);
    let (typical_secs, units_per, ops_per) = typical_inputs(spec, &rounds, &unit_ops);
    let cycle_secs: f64 = typical_secs.iter().sum();

    let session_secs: Vec<f64> = rounds.iter().flat_map(|r| r.session_secs.clone()).collect();

    let units: Vec<&Unit> = first_cycle.iter().flat_map(|r| &r.units).collect();
    let finished: Vec<_> = units
        .iter()
        .filter_map(|u| u.outcome.as_ref().ok())
        .collect();
    let speedups: Vec<f64> = finished.iter().map(|r| r.best_speedup).collect();
    let attempts: Vec<f64> = finished.iter().map(|r| r.attempts.len() as f64).collect();
    let tokens: Vec<f64> = finished
        .iter()
        .map(|r| {
            let (t, a) = (&r.tuning_usage, &r.analysis_usage);
            (t.input_tokens + t.output_tokens + a.input_tokens + a.output_tokens) as f64
        })
        .collect();

    let mut result = BenchResult {
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum::<usize>() + problems.len(),
        problems: rounds
            .iter()
            .flat_map(|r| r.problems.clone())
            .chain(problems)
            .collect(),
        notes: notes(spec, first_cycle),
        metrics: Vec::new(),
    };
    result.metrics = vec![
        ("setup_s", median(&set_up_times)),
        ("sessions_per_s", ratio(units_per.iter().sum(), cycle_secs)),
        ("session_p50_s", median(&session_secs)),
        ("sim_ops_per_s", ratio(ops_per.iter().sum(), cycle_secs)),
        ("peak_rss_mb", peak_rss),
        ("best_speedup_gmean", gmean(&speedups)),
        ("attempts_mean", mean(&attempts)),
        ("tokens_per_session", mean(&tokens)),
        (
            "finished_frac",
            ratio(finished.len() as f64, units.len() as f64),
        ),
    ];
    result
}

/// Every distinct input the run repeats — each session seed of a session
/// round, each campaign of the cycle — with its typical host seconds (the
/// median over its repetitions), the sessions it counts and its simulated
/// operations. Throughputs divide summed work by summed typical seconds:
/// a burst of load from outside the process moves a median less than a
/// total, and the sum keeps the mix of inputs fixed.
fn typical_inputs(
    spec: &Spec,
    rounds: &[Round],
    unit_ops: &[Vec<u64>],
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    match spec.shape {
        Shape::Sessions { per_round, .. } => {
            let secs = (0..per_round)
                .map(|p| median(&rounds.iter().map(|r| r.session_secs[p]).collect::<Vec<_>>()))
                .collect();
            let ops = unit_ops[0].iter().map(|&o| o as f64).collect();
            (secs, vec![1.0; per_round], ops)
        }
        Shape::Campaign { .. } => {
            let cycle = spec.cycle();
            let secs = (0..cycle)
                .map(|p| {
                    let at_p: Vec<f64> = rounds
                        .iter()
                        .skip(p)
                        .step_by(cycle)
                        .map(|r| r.secs)
                        .collect();
                    median(&at_p)
                })
                .collect();
            let units = rounds[..cycle].iter().map(|r| r.attempted as f64).collect();
            let ops = unit_ops
                .iter()
                .map(|u| u.iter().sum::<u64>() as f64)
                .collect();
            (secs, units, ops)
        }
    }
}

/// Build the engine and workloads `reps` times (at least once), timing
/// each; returns the last set-up and the times.
pub fn setup_times(spec: &Spec, seed: u64, reps: usize) -> (Setup, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Stopwatch::start();
        last = Some(crate::spec::setup(spec, seed));
        times.push(t0.secs());
    }
    (last.expect("at least one set-up"), times)
}

/// The labelled non-metric lines: the canonical digest of each distinct
/// round, and the share of sessions or cells that ended failed (a
/// structured error is a correct outcome under injected backend
/// failures).
pub fn notes(spec: &Spec, rounds: &[Round]) -> Vec<String> {
    let mut lines: Vec<String> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| format!("digest {} {i} {:016x}", spec.name, r.digest))
        .collect();
    let units = rounds.iter().map(|r| r.units.len()).sum::<usize>();
    let failed = rounds
        .iter()
        .flat_map(|r| &r.units)
        .filter(|u| u.outcome.is_err())
        .count();
    lines.push(format!(
        "failed_frac {} {} ({failed}/{units})",
        spec.name,
        ratio(failed as f64, units as f64)
    ));
    lines
}

/// Non-barrier operations of every simulator run each unit of the round
/// made. Finished units list their runs; a failed unit is reopened as a
/// standalone session (bit-identical to the original) to learn how many
/// runs it made before failing. Returns a problem for each reopened
/// session that does not reproduce its failure.
fn round_ops(setup: &Setup, spec: &Spec, round: &Round) -> (Vec<u64>, Vec<String>) {
    let (snapshots, _) = exec::round_snapshots(spec, &round.units, |_, _| {});
    let mut ops = Vec::new();
    let mut problems = Vec::new();
    for unit in &round.units {
        let attempts = match &unit.outcome {
            Ok(run) => run.attempts.len(),
            Err(_) => match reopen(setup.engine(round.index), setup, unit, &snapshots) {
                Ok(n) => n,
                Err(problem) => {
                    problems.push(problem);
                    ops.push(0);
                    continue;
                }
            },
        };
        let w = setup.workloads[unit.workload].as_ref();
        let seeds = unit.run_seeds(attempts);
        ops.push(
            seeds
                .iter()
                .map(|&s| sim_ops(&w.generate(&spec.topology, s)))
                .sum(),
        );
    }
    (ops, problems)
}

/// Reopen a failed unit; returns the attempts it made before failing.
fn reopen(
    engine: &stellar::Stellar,
    setup: &Setup,
    unit: &Unit,
    snapshots: &[agents::RuleSnapshot],
) -> Result<usize, String> {
    let w = setup.workloads[unit.workload].as_ref();
    let snapshot = snapshots[unit.round.min(snapshots.len() - 1)].clone();
    let (outcome, steps) = exec::step_session(engine, w, snapshot, unit.seed);
    if outcome != unit.outcome {
        return Err(format!(
            "reopened session (seed {}) did not reproduce its outcome",
            unit.seed
        ));
    }
    if steps.initial_wall.is_none() {
        return Err(format!(
            "failed session (seed {}) made no default run",
            unit.seed
        ));
    }
    Ok(steps.attempts.len())
}

/// Operations the simulator retires for `streams` (barriers excluded).
pub fn sim_ops(streams: &[pfs::RankStream]) -> u64 {
    streams
        .iter()
        .map(|s| {
            s.ops
                .iter()
                .filter(|op| !matches!(op, IoOp::Barrier))
                .count() as u64
        })
        .sum()
}
