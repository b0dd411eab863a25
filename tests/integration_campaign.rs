//! Campaign-layer integration: deterministic parallel execution and
//! cross-layer consistency with single sessions.

use agents::{RuleSet, ShardedRuleStore};
use stellar::{sched, Campaign, CampaignReport, RuleMode, Schedule, StellarBuilder};
use workloads::WorkloadKind;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::Ior16M, WorkloadKind::MdWorkbench8K];

/// The same workload/seed grid run serially and in parallel yields
/// identical `best_wall`/`best_config` per cell — in warm mode, where
/// cross-cell rule sharing makes ordering bugs visible.
#[test]
fn campaign_parallel_equals_serial() {
    let engine = StellarBuilder::new().build();
    let campaign = Campaign::new(&engine)
        .kinds(&KINDS, 0.08)
        .seeds([11, 12])
        .rule_mode(RuleMode::Warm)
        .threads(4);
    let parallel = campaign.run();
    let serial = campaign.run_serial();

    assert_eq!(parallel.cells.len(), 4);
    assert_eq!(parallel.cells.len(), serial.cells.len());
    for (cp, cs) in parallel.cells.iter().zip(&serial.cells) {
        assert_eq!(cp.workload, cs.workload);
        assert_eq!(cp.seed, cs.seed);
        assert_eq!(cp.cell_seed, cs.cell_seed);
        let p = cp.run().expect("perfect backend: every cell finishes");
        let s = cs.run().expect("perfect backend: every cell finishes");
        assert_eq!(
            p.best_wall.to_bits(),
            s.best_wall.to_bits(),
            "{} @ seed {}: parallel and serial best_wall diverged",
            cp.workload,
            cp.seed
        );
        assert_eq!(
            p.best_config, s.best_config,
            "{} @ seed {}: parallel and serial best_config diverged",
            cp.workload, cp.seed
        );
        assert_eq!(p.attempts.len(), s.attempts.len());
    }
    assert_eq!(parallel.rules, serial.rules, "accumulated rules diverged");
}

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
        assert_eq!(x.transcript, y.transcript, "{tag}");
    }
    assert_eq!(a.rules, b.rules, "{tag}: accumulated rules diverged");
}

/// The property the cost-model scheduler rests on: *any* execution-order
/// permutation of a round — the planner's LPT/adaptive orders, reversed
/// grid order, or random permutations derived from seeds — produces a
/// report bit-identical to the serial grid-order run, in warm mode where
/// cross-round rule flow would expose any ordering leak.
#[test]
fn schedule_permutations_preserve_reports() {
    let engine = StellarBuilder::new().attempt_budget(3).build();
    let grid = [
        WorkloadKind::Ior64K,
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench2K,
    ];
    let campaign = |order: Option<Vec<usize>>, schedule: Schedule| {
        let mut c = Campaign::new(&engine)
            .kinds(&grid, 0.05)
            .seeds([31, 32])
            .rule_mode(RuleMode::Warm)
            .threads(3)
            .schedule(schedule);
        if let Some(o) = order {
            c = c.order_override(o);
        }
        c
    };
    let baseline = campaign(None, Schedule::Fifo).run_serial();

    for schedule in [Schedule::Fifo, Schedule::Lpt, Schedule::Adaptive] {
        let report = campaign(None, schedule).run();
        assert_reports_identical(schedule.label(), &report, &baseline);
    }
    let reversed: Vec<usize> = (0..grid.len()).rev().collect();
    let mut orders = vec![("reversed", reversed)];
    for perm_seed in [7u64, 8, 9] {
        orders.push((
            "random",
            sched::permutation_from_seed(grid.len(), perm_seed),
        ));
    }
    for (tag, order) in orders {
        let report = campaign(Some(order.clone()), Schedule::Fifo).run();
        assert_reports_identical(&format!("{tag} {order:?}"), &report, &baseline);
    }
}

/// A cold campaign cell reproduces the stand-alone session for the same
/// derived seed and starting rules — the layers compose, they don't drift.
/// Campaign cell seeds are fully derived, so the equivalent stand-alone
/// session uses `SeedPolicy::Fixed` (the default `PerWorkload` policy
/// would hash the workload name into the seed a second time).
#[test]
fn campaign_cell_matches_standalone_session() {
    let engine = StellarBuilder::new().build();
    let report = Campaign::new(&engine)
        .kinds(&[WorkloadKind::Ior16M], 0.08)
        .seeds([21])
        .run();
    let cell = &report.cells[0];

    let fixed_engine = StellarBuilder::new()
        .seed_policy(stellar::SeedPolicy::Fixed)
        .build();
    let w = WorkloadKind::Ior16M.spec().scaled(0.08);
    let standalone = fixed_engine
        .session(w.as_ref(), RuleSet::new(), cell.cell_seed)
        .drain();
    let run = cell.run().expect("perfect backend: the cell finishes");
    assert_eq!(run.best_wall.to_bits(), standalone.best_wall.to_bits());
    assert_eq!(run.best_config, standalone.best_config);
    assert_eq!(run.transcript, standalone.transcript);
}

/// A warm campaign rebuilt by hand, outside the worker loop that both
/// `run()` and `run_serial()` execute: every cell is a stand-alone
/// drained session at its recorded cell seed, every round starts from a
/// snapshot of the rules merged so far, and learned rules merge in grid
/// order.
#[test]
fn warm_campaign_matches_hand_built_reference() {
    let grid = [
        WorkloadKind::Ior64K,
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench2K,
    ];
    let engine = StellarBuilder::new().attempt_budget(3).build();
    let campaign = Campaign::new(&engine)
        .kinds(&grid, 0.05)
        .seeds([41, 42])
        .rule_mode(RuleMode::Warm)
        .threads(3);
    let parallel = campaign.run();
    let serial = campaign.run_serial();
    assert!(
        !parallel.rules.is_empty(),
        "round one hands rules to round two"
    );

    // Cell seeds are fully derived, hence `SeedPolicy::Fixed` (see
    // `campaign_cell_matches_standalone_session`).
    let fixed_engine = StellarBuilder::new()
        .attempt_budget(3)
        .seed_policy(stellar::SeedPolicy::Fixed)
        .build();
    let workloads: Vec<_> = grid.iter().map(|k| k.spec_at(0.05)).collect();
    let mut store = ShardedRuleStore::for_topology(fixed_engine.sim().topology().ost_count());
    let mut reference = Vec::new();
    for round in parallel.cells.chunks(grid.len()) {
        let snapshot = store.snapshot();
        let runs: Vec<_> = round
            .iter()
            .zip(&workloads)
            .map(|(cell, w)| {
                fixed_engine
                    .session(w.as_ref(), snapshot.clone(), cell.cell_seed)
                    .drain()
            })
            .collect();
        for run in runs {
            store.merge(run.new_rules.clone());
            reference.push(run);
        }
    }

    for (tag, report) in [("run", &parallel), ("run_serial", &serial)] {
        assert_eq!(report.cells.len(), reference.len(), "{tag}: cell count");
        for (cell, want) in report.cells.iter().zip(&reference) {
            let at = format!("{tag}: {} @ seed {}", cell.workload, cell.seed);
            let got = cell.run().expect("perfect backend: every cell finishes");
            assert_eq!(got.best_wall.to_bits(), want.best_wall.to_bits(), "{at}");
            assert_eq!(got.transcript, want.transcript, "{at}");
            assert_eq!(got.new_rules, want.new_rules, "{at}");
        }
        assert_eq!(report.rules, store.to_rule_set(), "{tag}: final rules");
    }
}
