//! The replicated measurement protocol of §5.1: eight runs per
//! configuration, mean with 90% confidence interval, fresh file-system state
//! per run. Replications execute sequentially: the vendored `rayon` is a
//! sequential stand-in.

use pfs::params::TuningConfig;
use pfs::PfsSimulator;
use rayon::prelude::*;
use simcore::rng::{combine, stable_hash};
use simcore::stats::Accumulator;
use workloads::Workload;

/// Replications per configuration (the paper's protocol).
pub const DEFAULT_REPS: usize = 8;

/// Measure `workload` under `cfg`: per-rep wall times and the accumulator.
/// `label` keys the seed stream so different experiments never share noise.
pub fn measure(
    sim: &PfsSimulator,
    workload: &dyn Workload,
    cfg: &TuningConfig,
    reps: usize,
    label: &str,
) -> (Accumulator, Vec<f64>) {
    let base = combine(stable_hash(label), stable_hash(&workload.name()));
    let walls: Vec<f64> = (0..reps)
        .into_par_iter()
        .map(|rep| {
            let seed = combine(base, rep as u64 + 1);
            let streams = workload.generate(sim.topology(), base);
            sim.run(streams, cfg, seed).wall_secs
        })
        .collect();
    let mut acc = Accumulator::new();
    for &w in &walls {
        acc.add(w);
    }
    (acc, walls)
}

/// Single evaluation (used inside search loops): mean of `reps` runs.
pub fn evaluate(
    sim: &PfsSimulator,
    workload: &dyn Workload,
    cfg: &TuningConfig,
    reps: usize,
    label: &str,
) -> f64 {
    measure(sim, workload, cfg, reps, label).0.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    #[test]
    fn measurement_is_reproducible_and_noisy() {
        let sim = PfsSimulator::new(crate::engine::default_topology());
        let w = WorkloadKind::Ior16M.spec().scaled(0.05);
        let cfg = TuningConfig::lustre_default();
        let (a, walls_a) = measure(&sim, w.as_ref(), &cfg, 4, "test");
        let (b, walls_b) = measure(&sim, w.as_ref(), &cfg, 4, "test");
        assert_eq!(walls_a, walls_b, "same label => same seeds");
        assert_eq!(a.count(), 4);
        // Run-to-run noise exists across replications.
        assert!(a.std_dev() > 0.0);
        let (c, _) = measure(&sim, w.as_ref(), &cfg, 4, "other-label");
        assert_ne!(b.mean().to_bits(), c.mean().to_bits());
    }

    #[test]
    fn ci_shrinks_with_more_reps() {
        // A single salt can get an unluckily tight 3-rep draw, so assert
        // the statistical property on the mean ratio across several
        // independent noise streams instead of one hand-picked seed.
        let sim = PfsSimulator::new(crate::engine::default_topology());
        let w = WorkloadKind::Macsio16M.spec().scaled(0.2);
        let cfg = TuningConfig::lustre_default();
        let salts = ["ci-a", "ci-b", "ci-c", "ci-d"];
        let mean_ratio: f64 = salts
            .iter()
            .map(|salt| {
                let (small, _) = measure(&sim, w.as_ref(), &cfg, 3, salt);
                let (big, _) = measure(&sim, w.as_ref(), &cfg, 12, salt);
                big.ci90_half_width() / small.ci90_half_width().max(1e-12)
            })
            .sum::<f64>()
            / salts.len() as f64;
        assert!(
            mean_ratio < 1.0,
            "mean CI ratio {mean_ratio:.3} (12 vs 3 reps)"
        );
    }
}
