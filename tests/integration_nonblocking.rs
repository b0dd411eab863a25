//! Non-blocking backend seam, end to end: campaign workers poll a
//! suspended session one call at a time, and no seeded latency profile
//! may ever change what a campaign computes — cells, rules, transcripts,
//! usage meters, all bit-identical to the instant-backend path.

use llmsim::{CallHandle, LatencyProfile};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use stellar::{Campaign, CampaignObserver, CampaignReport, RuleMode, Stellar, StellarBuilder};
use workloads::WorkloadKind;

const GRID: [WorkloadKind; 3] = [
    WorkloadKind::Ior64K,
    WorkloadKind::Ior16M,
    WorkloadKind::MdWorkbench2K,
];
const SCALE: f64 = 0.05;
const SEEDS: [u64; 2] = [51, 52];

fn engine(latency: Option<LatencyProfile>) -> Stellar {
    let mut b = StellarBuilder::new().attempt_budget(3);
    if let Some(p) = latency {
        b = b.backend_latency(p);
    }
    b.build()
}

fn campaign(e: &Stellar) -> Campaign<'_> {
    Campaign::new(e)
        .kinds(&GRID, SCALE)
        .seeds(SEEDS)
        .rule_mode(RuleMode::Warm)
        .threads(2)
}

/// Everything semantic in two reports, compared bit for bit — including
/// the usage meters, which would drift if suspension replayed or skipped
/// a single backend charge.
fn assert_reports_identical(tag: &str, a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.cells.len(), b.cells.len(), "{tag}: cell count");
    for (cx, cy) in a.cells.iter().zip(&b.cells) {
        assert_eq!(cx.workload, cy.workload, "{tag}");
        assert_eq!(cx.seed, cy.seed, "{tag}");
        assert_eq!(cx.cell_seed, cy.cell_seed, "{tag}");
        let x = cx.run().expect("perfect backend: every cell finishes");
        let y = cy.run().expect("perfect backend: every cell finishes");
        assert_eq!(
            x.best_wall.to_bits(),
            y.best_wall.to_bits(),
            "{tag}: {} @ seed {} best_wall diverged",
            cx.workload,
            cx.seed
        );
        assert_eq!(x.best_config, y.best_config, "{tag}");
        assert_eq!(x.attempts.len(), y.attempts.len(), "{tag}");
        assert_eq!(x.end_reason, y.end_reason, "{tag}");
        assert_eq!(x.transcript, y.transcript, "{tag}");
        assert_eq!(x.new_rules, y.new_rules, "{tag}");
        assert_eq!(x.tuning_usage, y.tuning_usage, "{tag}: tuning usage");
        assert_eq!(x.analysis_usage, y.analysis_usage, "{tag}: analysis usage");
    }
    assert_eq!(a.rules, b.rules, "{tag}: accumulated rules diverged");
}

/// The instant-backend serial report every latency variant must equal.
fn baseline() -> &'static CampaignReport {
    static BASELINE: std::sync::OnceLock<CampaignReport> = std::sync::OnceLock::new();
    BASELINE.get_or_init(|| {
        let e = engine(None);
        // Bind the campaign so it drops before `e`: since campaigns can
        // carry 'e-bounded observer boxes, a tail-expression temporary
        // would outlive the block's locals and trip dropck.
        let c = campaign(&e);
        c.run_serial()
    })
}

/// On a SINGLE worker thread, injected latency suspends cells, and the
/// worker polls its suspended cell instead of claiming ahead of it:
/// latency is counted in polls, so overlapping calls would save no host
/// time. Exactly one call is in flight at a peak in every round, and the
/// report stays bit-identical to the instant serial baseline.
#[test]
fn single_worker_overlaps_backend_calls() {
    let e = engine(Some(LatencyProfile::fixed(4)));
    let report = campaign(&e).threads(1).run();
    let stats = &report.sched_stats;
    assert_eq!(stats.workers, 1, "one worker thread by construction");
    for round in &stats.rounds {
        assert_eq!(
            round.max_in_flight, 1,
            "seed {}: every 3-cell round suspends, one call at a time",
            round.seed
        );
    }
    assert_reports_identical("1-worker overlap", &report, baseline());
}

/// Without latency the claim loop degenerates to the historical
/// one-cell-per-worker behaviour: no call ever suspends, so none ever
/// overlap.
#[test]
fn instant_backend_never_suspends() {
    let e = engine(None);
    let report = campaign(&e).run();
    assert_eq!(report.sched_stats.max_in_flight(), 0);
    assert_reports_identical("instant parallel", &report, baseline());
}

/// Serial campaigns poll suspended cells to completion one at a time:
/// same report, exactly one call in flight at a time.
#[test]
fn serial_run_with_latency_matches_instant() {
    let e = engine(Some(LatencyProfile::uniform(0, 3)));
    let report = campaign(&e).run_serial();
    assert_eq!(report.sched_stats.max_in_flight(), 1);
    assert_reports_identical("serial latency", &report, baseline());
}

/// One worker callback: `(callback, seed, grid_idx)`.
type Seen = (&'static str, u64, usize);

/// Worker telemetry in arrival order.
#[derive(Clone, Default)]
struct Telemetry(Arc<Mutex<Vec<Seen>>>);

impl CampaignObserver for Telemetry {
    fn on_cell_claimed(&mut self, _worker: usize, seed: u64, grid_idx: usize, _workload: &str) {
        self.0.lock().unwrap().push(("claimed", seed, grid_idx));
    }

    fn on_cell_suspended(&mut self, _worker: usize, seed: u64, grid_idx: usize, _call: CallHandle) {
        self.0.lock().unwrap().push(("suspended", seed, grid_idx));
    }

    fn on_cell_published(&mut self, _worker: usize, seed: u64, grid_idx: usize, _busy_secs: f64) {
        self.0.lock().unwrap().push(("published", seed, grid_idx));
    }
}

/// A serial run is the worker loop with one worker that never claims
/// ahead: under injected latency every round claims its cells in grid
/// order, publishes each cell before claiming the next, and reports the
/// suspensions its one open cell polls through.
#[test]
fn serial_run_never_claims_ahead_of_a_suspended_cell() {
    let e = engine(Some(LatencyProfile::fixed(4)));
    let telemetry = Telemetry::default();
    let report = campaign(&e)
        .observe(Box::new(telemetry.clone()))
        .run_serial();
    let seen = telemetry.0.lock().unwrap();
    for seed in SEEDS {
        let round: Vec<(&str, usize)> = seen
            .iter()
            .filter(|&&(_, s, _)| s == seed)
            .map(|&(callback, _, i)| (callback, i))
            .collect();
        let lifecycle: Vec<(&str, usize)> = round
            .iter()
            .copied()
            .filter(|&(callback, _)| callback != "suspended")
            .collect();
        let one_at_a_time: Vec<(&str, usize)> = (0..GRID.len())
            .flat_map(|i| [("claimed", i), ("published", i)])
            .collect();
        assert_eq!(lifecycle, one_at_a_time, "seed {seed}");
        assert!(
            round.iter().any(|&(callback, _)| callback == "suspended"),
            "seed {seed}: a serial round must report its suspensions"
        );
    }
    assert_eq!(report.sched_stats.max_in_flight(), 1);
    assert_reports_identical("serial fixed latency", &report, baseline());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The property the whole seam rests on: for ANY seeded latency
    /// profile, the multiplexed non-blocking campaign produces a report
    /// bit-identical to the sync path — warm mode, so any ordering or
    /// state leak between suspended cells would surface in the rules.
    #[test]
    fn any_latency_profile_preserves_reports(
        min in 0u32..3,
        span in 0u32..4,
        threads in 1usize..4,
    ) {
        let profile = LatencyProfile::uniform(min, min + span);
        let e = engine(Some(profile));
        let report = campaign(&e).threads(threads).run();
        assert_reports_identical(
            &format!("latency {} over {threads} thread(s)", profile.label()),
            &report,
            baseline(),
        );
    }
}
