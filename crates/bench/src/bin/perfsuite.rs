//! `perfsuite` — records the repository's performance trajectory
//! (`BENCH_sched.json`).
//!
//! The headline experiment is the campaign-scheduler A/B: a skewed,
//! MDWorkbench-heavy workload grid is run once per seed round and each
//! cell's wall time measured; three cell orders are then compared by
//! replaying those *measured* costs through `stellar::sched::makespan` —
//! the same greedy claim loop the parallel runner executes:
//!
//! * `fifo`: naive grid order, what serial rounds run;
//! * `lpt`: `sched::plan` over a fresh, hint-only `CostModel`, i.e.
//!   longest-processing-time-first over the static cost hints;
//! * `adaptive`: `sched::plan` over a model fed each earlier round's
//!   measurements, which is what parallel rounds run.
//!
//! The round-makespan numbers are deterministic given the measurements and
//! independent of how many cores the benching host happens to have. A
//! small hot-path probe (mean simulator run time) rides along so
//! inner-loop regressions show up in the same artifact.
//!
//! ```text
//! perfsuite [--quick] [--out FILE] [--workers N] [--seeds N]
//!           [--light-scale F] [--heavy-scale F] [--attempts N]
//! perfsuite --simscale [--quick] [--out FILE] [--prior FILE]
//! ```
//!
//! Any other `--` argument, or one that belongs to the other mode, exits
//! 2 with `unknown flag`, so a typo such as `--quik` fails fast instead
//! of running with defaults.
//!
//! `--quick` (the CI `bench-smoke` job) shrinks seeds and scales so the
//! suite finishes in well under a minute; the committed baseline is a full
//! run (8 seeds × 5 workloads).
//!
//! `--simscale` switches to the engine-scaling sweep (`BENCH_simscale.json`):
//! a ranks × OSTs grid of file-per-process IOR attempts run straight against
//! `PfsSimulator`, reporting wall seconds **and** host-comparable columns —
//! simulated ops/second and cost-per-op normalized by a calibration probe
//! (nanoseconds per `SimRng` lognormal draw on this host). `--prior FILE`
//! bakes a previous report's per-point costs in as `speedup_vs_prior`.

use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use stellar::sched::{self, CostModel};
use stellar::{Campaign, StellarBuilder};
use workloads::ior::Ior;
use workloads::{Workload, WorkloadKind};

#[derive(Serialize)]
struct RoundNumbers {
    seed: u64,
    /// Measured wall seconds per cell, grid order.
    cell_secs: Vec<f64>,
    fifo_makespan_secs: f64,
    lpt_makespan_secs: f64,
    adaptive_makespan_secs: f64,
}

#[derive(Serialize)]
struct HotPath {
    workload: String,
    scale: f64,
    reps: usize,
    mean_run_secs: f64,
}

#[derive(Serialize)]
struct SchedReport {
    bench: &'static str,
    mode: &'static str,
    grid: Vec<String>,
    light_scale: f64,
    heavy_scale: f64,
    attempts: usize,
    workers: usize,
    seeds: Vec<u64>,
    rounds: Vec<RoundNumbers>,
    total_fifo_makespan_secs: f64,
    total_lpt_makespan_secs: f64,
    total_adaptive_makespan_secs: f64,
    /// Round-makespan reduction of LPT vs FIFO, percent.
    lpt_reduction_pct: f64,
    /// Round-makespan reduction of adaptive vs FIFO, percent.
    adaptive_reduction_pct: f64,
    hot_path: HotPath,
}

/// The first `--` argument the chosen mode does not read, if any.
fn unknown_flag(args: &[String]) -> Option<&str> {
    let (switches, valued): (&[&str], &[&str]) = if args.iter().any(|a| a == "--simscale") {
        (&["--simscale", "--quick"], &["--out", "--prior"])
    } else {
        (
            &["--quick"],
            &[
                "--out",
                "--workers",
                "--seeds",
                "--light-scale",
                "--heavy-scale",
                "--attempts",
            ],
        )
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") && !switches.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `(1 - num/den) * 100`, or 0 when the denominator is empty (quick-mode
/// grids with zero measured cells must not poison the JSON with NaN).
fn pct_reduction(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        (1.0 - num / den) * 100.0
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// --simscale: the engine-scaling sweep (BENCH_simscale.json)
// ---------------------------------------------------------------------------

/// One measured cell of the ranks × OSTs grid.
#[derive(Serialize)]
struct SimscalePoint {
    ranks: u32,
    osts: u32,
    /// Non-barrier simulated operations per attempt.
    sim_ops: u64,
    reps: usize,
    /// Mean wall seconds per attempt (host-dependent; see normalized columns).
    wall_secs_mean: f64,
    /// Fastest attempt in wall seconds — the least-contended rep, and the
    /// basis of the ops/cost columns (min is the standard robust estimator
    /// on shared hosts: contention only ever adds time).
    wall_secs_min: f64,
    /// Simulated operations per wall second, from the fastest attempt
    /// (0 when the cell is empty).
    ops_per_sec: f64,
    /// Wall nanoseconds per simulated operation, from the fastest attempt
    /// (0 when the cell is empty).
    cost_per_op_ns: f64,
    /// `cost_per_op_ns` divided by this host's calibration probe
    /// (ns per `SimRng` lognormal draw) — dimensionless and comparable
    /// across machines.
    cost_per_op_norm: f64,
    /// `cost_per_op_norm` from the `--prior` report at this grid point.
    #[serde(skip_serializing_if = "Option::is_none")]
    prior_cost_per_op_norm: Option<f64>,
    /// `prior_cost_per_op_norm / cost_per_op_norm` — how much cheaper one
    /// simulated op got since the prior report.
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup_vs_prior: Option<f64>,
}

#[derive(Serialize)]
struct SimscaleReport {
    bench: &'static str,
    mode: &'static str,
    workload: String,
    /// Calibration probe: nanoseconds per `SimRng::lognormal_factor` draw on
    /// the benching host. Dividing `cost_per_op_ns` by this yields the
    /// host-comparable `cost_per_op_norm` column.
    calib_ns_per_draw: f64,
    sweeps: SimscaleSweeps,
}

#[derive(Serialize)]
struct SimscaleSweeps {
    /// The CI `bench-smoke` grid: small enough to finish in seconds.
    quick: Vec<SimscalePoint>,
    /// Full-mode extension, topped by the 1k-OST / 100k-rank point.
    full: Vec<SimscalePoint>,
}

/// The CI quick grid (largest point last — the regression-guard anchor).
const SIMSCALE_QUICK: &[(u32, u32)] = &[(50, 5), (1_000, 64), (10_000, 256)];
/// Full-mode extension: the datacenter target point.
const SIMSCALE_FULL: &[(u32, u32)] = &[(100_000, 1_000)];

/// The slice of a previous `BENCH_simscale.json` that `--prior` reads
/// (extra keys in the file are ignored by deserialization).
#[derive(Deserialize)]
struct PriorReport {
    sweeps: PriorSweeps,
}

#[derive(Deserialize)]
struct PriorSweeps {
    quick: Vec<PriorPoint>,
    full: Vec<PriorPoint>,
}

#[derive(Deserialize)]
struct PriorPoint {
    ranks: u32,
    osts: u32,
    cost_per_op_norm: f64,
}

/// Nanoseconds per `SimRng` lognormal draw on this host: the unit the
/// normalized columns are quoted in. Minimum over three ~700k-draw probes —
/// like the per-point wall minimum, the fastest probe is the one closest to
/// the host's uncontended speed.
fn calibrate_ns_per_draw() -> f64 {
    let mut rng = simcore::SimRng::new(0xCA11B).derive("simscale-calib", 0);
    let draws = 700_000u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for _ in 0..draws {
            acc += rng.lognormal_factor(0.05);
        }
        let ns = t0.elapsed().as_nanos() as f64 / draws as f64;
        std::hint::black_box(acc);
        best = best.min(ns);
    }
    best
}

/// Look up `cost_per_op_norm` for `(ranks, osts)` in a previous
/// `BENCH_simscale.json` (searches both sweeps).
fn prior_norm(prior: &PriorReport, ranks: u32, osts: u32) -> Option<f64> {
    prior
        .sweeps
        .quick
        .iter()
        .chain(&prior.sweeps.full)
        .find(|p| p.ranks == ranks && p.osts == osts)
        .map(|p| p.cost_per_op_norm)
}

/// Measure one grid point: `reps` fresh engine runs of the fpp-IOR attempt.
fn simscale_point(
    ranks: u32,
    osts: u32,
    calib_ns: f64,
    prior: Option<&PriorReport>,
) -> SimscalePoint {
    let topo = ClusterSpec::scaled(ranks, osts);
    let sim = PfsSimulator::new(topo.clone());
    let cfg = TuningConfig::lustre_default();
    // 4 MiB transfers into a 16 MiB block per rank: 12 non-barrier ops per
    // rank (create/open + close per phase, 4 writes, 4 reads), so the grid
    // stresses event dispatch and placement rather than byte accounting.
    let w = Ior::ior_fpp(4 << 20, 16 << 20);
    let streams = w.generate(&topo, 1);
    let sim_ops: u64 = streams
        .iter()
        .map(|s| (s.ops.len() - s.barrier_count()) as u64)
        .sum();

    let reps = match ranks {
        0..=1_000 => 5,
        1_001..=10_000 => 3,
        _ => 2,
    };
    let mut total = 0.0;
    let mut wall_min = f64::INFINITY;
    for rep in 0..reps {
        let t0 = Instant::now();
        let r = sim.run(w.generate(&topo, 1), &cfg, 1 + rep as u64);
        let wall = t0.elapsed().as_secs_f64();
        total += wall;
        wall_min = wall_min.min(wall);
        std::hint::black_box(r.wall_secs);
    }
    let wall_mean = total / reps as f64;

    // Cost columns come from the fastest rep: contention on a shared host
    // only ever inflates wall time, so the minimum is the closest estimate
    // of the engine's true cost. Empty/degenerate cells report zeros rather
    // than dividing by zero.
    let (ops_per_sec, cost_per_op_ns) = if sim_ops > 0 && wall_min > 0.0 {
        (sim_ops as f64 / wall_min, wall_min * 1e9 / sim_ops as f64)
    } else {
        (0.0, 0.0)
    };
    let cost_per_op_norm = if calib_ns > 0.0 {
        cost_per_op_ns / calib_ns
    } else {
        0.0
    };
    let prior_cost_per_op_norm = prior.and_then(|p| prior_norm(p, ranks, osts));
    let speedup_vs_prior = prior_cost_per_op_norm
        .filter(|_| cost_per_op_norm > 0.0)
        .map(|p| p / cost_per_op_norm);
    SimscalePoint {
        ranks,
        osts,
        sim_ops,
        reps,
        wall_secs_mean: wall_mean,
        wall_secs_min: wall_min,
        ops_per_sec,
        cost_per_op_ns,
        cost_per_op_norm,
        prior_cost_per_op_norm,
        speedup_vs_prior,
    }
}

fn run_simscale(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let out = flag(args, "--out").unwrap_or_else(|| "BENCH_simscale.json".into());
    let prior: Option<PriorReport> = flag(args, "--prior").map(|path| {
        let text = std::fs::read_to_string(&path).expect("read --prior file");
        serde_json::from_str(&text).expect("parse --prior JSON")
    });

    let calib_ns = calibrate_ns_per_draw();
    eprintln!("simscale: calibration {calib_ns:.1} ns/draw");

    let measure_tier = |points: &[(u32, u32)]| -> Vec<SimscalePoint> {
        points
            .iter()
            .map(|&(ranks, osts)| {
                eprintln!("simscale: {ranks} ranks x {osts} OSTs...");
                let p = simscale_point(ranks, osts, calib_ns, prior.as_ref());
                eprintln!(
                    "simscale:   {:.3}s mean, {:.0} ops/s, {:.0} ns/op (norm {:.1}{})",
                    p.wall_secs_mean,
                    p.ops_per_sec,
                    p.cost_per_op_ns,
                    p.cost_per_op_norm,
                    p.speedup_vs_prior
                        .map(|s| format!(", {s:.1}x vs prior"))
                        .unwrap_or_default(),
                );
                p
            })
            .collect()
    };

    let report = SimscaleReport {
        bench: "simscale",
        mode: if quick { "quick" } else { "full" },
        workload: Ior::ior_fpp(4 << 20, 16 << 20).name(),
        calib_ns_per_draw: calib_ns,
        sweeps: SimscaleSweeps {
            quick: measure_tier(SIMSCALE_QUICK),
            full: if quick {
                Vec::new()
            } else {
                measure_tier(SIMSCALE_FULL)
            },
        },
    };

    for p in report.sweeps.quick.iter().chain(&report.sweeps.full) {
        println!(
            "simscale {}x{}: {:.0} ops/s, {:.0} ns/op, norm {:.1}",
            p.ranks, p.osts, p.ops_per_sec, p.cost_per_op_ns, p.cost_per_op_norm
        );
    }
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, rendered + "\n").expect("write BENCH json");
    println!("wrote {out}");
}

/// The skewed grid: four comparably light cells and one dominant
/// MDWorkbench cell, heaviest *last* in grid order — the worst case for
/// FIFO, which claims cells in grid order and strands the round on the
/// late straggler. Per-cell multipliers equalize the light cells
/// (MDWorkbench_2K is metadata-dense and IOR_16M cheap to simulate, so at
/// a uniform scale the round would have two self-balancing heavies
/// instead of one straggler).
fn grid(light: f64, heavy: f64) -> Vec<(WorkloadKind, f64)> {
    vec![
        (WorkloadKind::Ior64K, light),
        (WorkloadKind::Ior16M, light * 2.0),
        (WorkloadKind::Io500, light),
        (WorkloadKind::MdWorkbench2K, light * 0.25),
        (WorkloadKind::MdWorkbench8K, heavy),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args) {
        eprintln!("unknown flag `{flag}`");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--simscale") {
        run_simscale(&args);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_sched.json".into());
    let workers: usize = flag(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let n_seeds: usize = flag(&args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 8 });
    let light_scale: f64 = flag(&args, "--light-scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 0.04 } else { 0.05 });
    let heavy_scale: f64 = flag(&args, "--heavy-scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 0.04 } else { 0.05 });
    let attempts: usize = flag(&args, "--attempts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 3 });

    let seeds: Vec<u64> = (0..n_seeds as u64).map(|i| 1_041 + i).collect();
    let cells = grid(light_scale, heavy_scale);
    let engine = StellarBuilder::new().attempt_budget(attempts).build();
    let topo = engine.sim().topology();

    // The hint-only cost model the parallel runner starts from: planning
    // over it is LPT over the static hints.
    let workloads: Vec<Box<dyn Workload>> = cells.iter().map(|(k, s)| k.spec_at(*s)).collect();
    let hint_model = CostModel::from_hints(workloads.iter().map(|w| w.cost_hint(topo)));

    // Measure every cell once per round, serially, so per-cell timings are
    // undistorted by co-scheduling.
    eprintln!(
        "perfsuite: measuring {} rounds x {} cells (serial)...",
        seeds.len(),
        cells.len()
    );
    let mut campaign = Campaign::new(&engine).seeds(seeds.iter().copied());
    for w in workloads {
        campaign = campaign.workload(w);
    }
    let report = campaign.run_serial();

    // Replay the measured costs through each order.
    let fifo_order: Vec<usize> = (0..cells.len()).collect();
    let lpt_order = sched::plan(&hint_model);
    let mut adaptive_model = hint_model.clone();
    let mut rounds = Vec::new();
    let (mut tot_fifo, mut tot_lpt, mut tot_adapt) = (0.0, 0.0, 0.0);
    for r in &report.sched_stats.rounds {
        let costs = &r.cell_secs;
        let adaptive_order = sched::plan(&adaptive_model);
        let fifo = sched::makespan(&fifo_order, costs, workers);
        let lpt = sched::makespan(&lpt_order, costs, workers);
        let adaptive = sched::makespan(&adaptive_order, costs, workers);
        for (i, &secs) in costs.iter().enumerate() {
            adaptive_model.observe(i, secs);
        }
        tot_fifo += fifo;
        tot_lpt += lpt;
        tot_adapt += adaptive;
        rounds.push(RoundNumbers {
            seed: r.seed,
            cell_secs: costs.clone(),
            fifo_makespan_secs: fifo,
            lpt_makespan_secs: lpt,
            adaptive_makespan_secs: adaptive,
        });
    }

    // Hot-path probe: mean wall-clock of one traced-free simulator run.
    let hot_w = WorkloadKind::Ior16M.spec_at(if quick { 0.1 } else { 0.3 });
    let reps = if quick { 3 } else { 8 };
    let cfg = pfs::params::TuningConfig::lustre_default();
    let t0 = Instant::now();
    let _ = stellar::measure::measure(engine.sim(), hot_w.as_ref(), &cfg, reps, "perfsuite-hot");
    let hot_mean = t0.elapsed().as_secs_f64() / reps as f64;

    let json = SchedReport {
        bench: "campaign_sched",
        mode: if quick { "quick" } else { "full" },
        grid: cells
            .iter()
            .map(|(k, s)| format!("{}@{s}", k.label()))
            .collect(),
        light_scale,
        heavy_scale,
        attempts,
        workers,
        seeds,
        rounds,
        total_fifo_makespan_secs: tot_fifo,
        total_lpt_makespan_secs: tot_lpt,
        total_adaptive_makespan_secs: tot_adapt,
        lpt_reduction_pct: pct_reduction(tot_lpt, tot_fifo),
        adaptive_reduction_pct: pct_reduction(tot_adapt, tot_fifo),
        hot_path: HotPath {
            workload: hot_w.name(),
            scale: if quick { 0.1 } else { 0.3 },
            reps,
            mean_run_secs: hot_mean,
        },
    };

    println!(
        "campaign_sched ({} mode, {} workers): FIFO {:.2}s | LPT {:.2}s ({:+.1}%) | adaptive {:.2}s ({:+.1}%)",
        json.mode,
        workers,
        tot_fifo,
        tot_lpt,
        -json.lpt_reduction_pct,
        tot_adapt,
        -json.adaptive_reduction_pct,
    );
    println!(
        "hot path: {} x{} reps, {:.3}s mean per simulated run",
        json.hot_path.workload, reps, hot_mean
    );
    let rendered = serde_json::to_string_pretty(&json).expect("report serializes");
    std::fs::write(&out, rendered + "\n").expect("write BENCH json");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::unknown_flag;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Both `perfsuite` invocations in `ci.yml` parse; a typo, or a flag
    /// of the other mode, is unknown.
    #[test]
    fn flags_outside_the_mode_are_unknown() {
        assert_eq!(unknown_flag(&args("--quick --out BENCH_sched.json")), None);
        assert_eq!(
            unknown_flag(&args("--simscale --quick --out BENCH_simscale_ci.json")),
            None
        );
        assert_eq!(
            unknown_flag(&args("--workers 2 --seeds 8 --attempts 3")),
            None
        );
        assert_eq!(unknown_flag(&args("--quik --seeds 1")), Some("--quik"));
        assert_eq!(unknown_flag(&args("--simscale --seeds 2")), Some("--seeds"));
        assert_eq!(unknown_flag(&args("--prior old.json")), Some("--prior"));
    }
}
