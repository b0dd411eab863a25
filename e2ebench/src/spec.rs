//! The three workloads, their sizes, and the set-up every run starts with.

use llmsim::{FailureInjection, LatencyProfile};
use pfs::ClusterSpec;
use simcore::rng::combine;
use stellar::{SeedPolicy, Stellar, StellarBuilder};
use workloads::{Workload, WorkloadKind};

/// Configuration attempts per session (the paper's budget).
pub const BUDGET: usize = 5;

/// Campaign worker threads.
pub const CAMPAIGN_THREADS: usize = 2;

/// How many times set-up is timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Distinct campaigns per cycle (see [`Spec::cycle`]).
const CAMPAIGN_CYCLE: usize = 8;

/// What one round of a workload executes.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `per_round` cold-rule sessions on one workload, drained serially.
    Sessions {
        kind: WorkloadKind,
        per_round: usize,
    },
    /// One warm-rule campaign over `kinds` × `seeds` grid seeds, with
    /// backend latency and injected failures.
    Campaign {
        kinds: Vec<WorkloadKind>,
        seeds: usize,
    },
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    pub scale: f64,
    pub topology: ClusterSpec,
}

/// Workloads the command accepts; `BENCHMARK.json` declares a subset.
pub const NAMES: [&str; 3] = ["md_session", "dc_session", "warm_campaign"];

const CAMPAIGN_KINDS: [WorkloadKind; 7] = [
    WorkloadKind::Ior64K,
    WorkloadKind::Ior16M,
    WorkloadKind::Io500,
    WorkloadKind::Amrex,
    WorkloadKind::Macsio512K,
    WorkloadKind::Macsio16M,
    WorkloadKind::MdWorkbench2K,
];

impl Spec {
    /// The full-size workload `name`, or `None` for an unknown name.
    pub fn standard(name: &str) -> Option<Spec> {
        let spec = match name {
            // Metadata-bound: MDS, statahead and lock paths, and tens of
            // thousands of Darshan records for the analysis agent.
            "md_session" => Spec {
                name: "md_session",
                shape: Shape::Sessions {
                    kind: WorkloadKind::MdWorkbench8K,
                    per_round: 5,
                },
                scale: 0.2,
                topology: stellar::default_topology(),
            },
            // Datacenter topology on the data path: 4000 rank streams,
            // bulk RPCs and per-(client, OST) state.
            "dc_session" => Spec {
                name: "dc_session",
                shape: Shape::Sessions {
                    kind: WorkloadKind::Ior16M,
                    per_round: 5,
                },
                scale: 0.1,
                topology: ClusterSpec::scaled(4000, 128),
            },
            // The only workload that runs the campaign worker loop, the
            // rule store, retries and run-record emission.
            "warm_campaign" => Spec {
                name: "warm_campaign",
                shape: Shape::Campaign {
                    kinds: CAMPAIGN_KINDS.to_vec(),
                    seeds: 10,
                },
                scale: 0.1,
                topology: stellar::default_topology(),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// A miniature of `name` for the smoke test.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Spec {
        let mut spec = Spec::standard(name).expect("known workload");
        spec.scale = 0.02;
        match &mut spec.shape {
            Shape::Sessions { per_round, .. } => *per_round = 2,
            Shape::Campaign { kinds, seeds } => {
                kinds.truncate(3);
                *seeds = 2;
            }
        }
        if name == "dc_session" {
            spec.topology = ClusterSpec::scaled(200, 8);
        }
        spec
    }

    /// The workload kinds, in grid order.
    pub fn kinds(&self) -> Vec<WorkloadKind> {
        match &self.shape {
            Shape::Sessions { kind, .. } => vec![*kind],
            Shape::Campaign { kinds, .. } => kinds.clone(),
        }
    }

    /// Rounds with distinct inputs before the inputs repeat. A session
    /// round already averages over several seeds; one warm campaign's
    /// quality figures hinge on the rules its first seed rounds happen to
    /// learn, so the campaign workload cycles through several independent
    /// campaigns and reports quality over all of them.
    pub fn cycle(&self) -> usize {
        match self.shape {
            Shape::Sessions { .. } => 1,
            Shape::Campaign { .. } => CAMPAIGN_CYCLE,
        }
    }

    /// Session seeds (sessions) or grid seeds (campaign) of round `round`,
    /// all derived from the benchmark seed.
    pub fn round_seeds(&self, seed: u64, round: usize) -> Vec<u64> {
        let n = match &self.shape {
            Shape::Sessions { per_round, .. } => *per_round,
            Shape::Campaign { seeds, .. } => *seeds,
        };
        // One flat index per (position, seed): nesting `combine` would be
        // symmetric in the two indices (it XORs), repeating seeds across
        // the campaigns of a cycle.
        let first = ((round % self.cycle()) * n) as u64;
        (first..first + n as u64)
            .map(|i| combine(seed, i))
            .collect()
    }
}

/// The engines (one per cycle position) and the workload generators,
/// built before any timing.
pub struct Setup {
    engines: Vec<Stellar>,
    pub workloads: Vec<Box<dyn Workload>>,
}

impl Setup {
    /// The engine round `round` runs on.
    pub fn engine(&self, round: usize) -> &Stellar {
        &self.engines[round % self.engines.len()]
    }
}

/// Build the engines (ragx extraction and simulator construction) and the
/// workloads. Each campaign of a cycle gets its own failure-injection
/// seed: the injected failure rate varies strongly with that seed, and one
/// seed per run would make `finished_frac` a property of the seed rather
/// than of the program. Campaign engines use `SeedPolicy::Fixed` so that a
/// campaign cell can be reopened as a standalone session with its derived
/// seed; campaigns themselves bypass the seed policy.
pub fn setup(spec: &Spec, seed: u64) -> Setup {
    let engines = (0..spec.cycle() as u64)
        .map(|k| {
            let builder = StellarBuilder::new()
                .topology(spec.topology.clone())
                .attempt_budget(BUDGET);
            match spec.shape {
                Shape::Sessions { .. } => builder,
                Shape::Campaign { .. } => builder
                    .seed_policy(SeedPolicy::Fixed)
                    .backend_latency(LatencyProfile::uniform(1, 4))
                    .failures(FailureInjection::standard(combine(seed, k))),
            }
            .build()
        })
        .collect();
    Setup {
        engines,
        workloads: spec.kinds().iter().map(|k| k.spec_at(spec.scale)).collect(),
    }
}
