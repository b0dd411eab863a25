//! Campaign-layer integration: deterministic parallel execution and
//! cross-layer consistency with single sessions.

use agents::{RuleSet, ShardedRuleStore};
use std::sync::{Arc, Mutex};
use stellar::{sched, Campaign, CampaignObserver, CampaignReport, RuleMode, StellarBuilder};
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
/// permutation of a round — the default adaptive plan, grid order, the
/// plan over the static hints alone, reversed grid order, or random
/// permutations derived from seeds — produces a report bit-identical to
/// the serial grid-order run, in warm mode where cross-round rule flow
/// would expose any ordering leak.
#[test]
fn schedule_permutations_preserve_reports() {
    let engine = StellarBuilder::new().attempt_budget(3).build();
    let grid = [
        WorkloadKind::Ior64K,
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench2K,
    ];
    let campaign = |order: Option<Vec<usize>>| {
        let mut c = Campaign::new(&engine)
            .kinds(&grid, 0.05)
            .seeds([31, 32])
            .rule_mode(RuleMode::Warm)
            .threads(3);
        if let Some(o) = order {
            c = c.order_override(o);
        }
        c
    };
    let baseline = campaign(None).run_serial();

    let report = campaign(None).run();
    assert_reports_identical("adaptive", &report, &baseline);
    let topo = engine.sim().topology();
    let hints = sched::CostModel::from_hints(grid.iter().map(|k| k.spec_at(0.05).cost_hint(topo)));
    let mut orders = vec![
        ("grid", (0..grid.len()).collect()),
        ("hint-planned", sched::plan(&hints)),
        ("reversed", (0..grid.len()).rev().collect()),
    ];
    for perm_seed in [7u64, 8, 9] {
        orders.push((
            "random",
            sched::permutation_from_seed(grid.len(), perm_seed),
        ));
    }
    for (tag, order) in orders {
        let report = campaign(Some(order.clone())).run();
        assert_reports_identical(&format!("{tag} {order:?}"), &report, &baseline);
    }
}

/// Round starts and worker claims, by seed, in the order they arrived.
#[derive(Clone, Default)]
struct Lifecycle(Arc<Mutex<Vec<(&'static str, u64)>>>);

impl CampaignObserver for Lifecycle {
    fn on_round_start(&mut self, seed: u64) {
        self.0.lock().unwrap().push(("round", seed));
    }

    fn on_cell_claimed(&mut self, _worker: usize, seed: u64, _grid_idx: usize, _workload: &str) {
        self.0.lock().unwrap().push(("claim", seed));
    }
}

/// A worker with nothing left in round r claims round r + 1's next
/// planned cell and steps it up to its rule lookup while round r's heavy
/// cell still runs. Where one MDWorkbench cell outweighs the light cells
/// together, some round's first claim therefore precedes its
/// `RoundStart`, and the warm report still equals the serial one.
#[test]
fn idle_workers_open_the_next_round_early() {
    let seeds = [61, 62, 63, 64];
    let engine = StellarBuilder::new().attempt_budget(3).build();
    let lifecycle = Lifecycle::default();
    let campaign = Campaign::new(&engine)
        .kinds(&[WorkloadKind::Ior64K, WorkloadKind::Ior16M], 0.02)
        .workload(WorkloadKind::MdWorkbench2K.spec_at(0.05))
        .seeds(seeds)
        .rule_mode(RuleMode::Warm)
        .threads(2)
        .observe(Box::new(lifecycle.clone()));
    let report = campaign.run();
    let seen = std::mem::take(&mut *lifecycle.0.lock().unwrap());
    let position = |event: (&str, u64)| seen.iter().position(|&e| e == event);
    let early: Vec<u64> = seeds[1..]
        .iter()
        .copied()
        .filter(|&seed| position(("claim", seed)) < position(("round", seed)))
        .collect();
    assert!(
        !early.is_empty(),
        "no round was claimed before it started: {seen:?}"
    );
    assert_reports_identical("overlapped rounds", &report, &campaign.run_serial());
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

/// The `(parameter, value)` pairs a transcript applied from accumulated
/// rules, in order. Rationale lines read `- {parameter}: applying
/// accumulated rule: {description} -> {value}`.
fn applied_rules(transcript: &[String]) -> Vec<(String, i64)> {
    transcript
        .iter()
        .flat_map(|entry| entry.lines())
        .filter(|line| line.contains("applying accumulated rule"))
        .map(|line| {
            let (param, rest) = line
                .trim_start_matches("- ")
                .split_once(": ")
                .expect("rationale line names its parameter");
            let (_, value) = rest.rsplit_once(" -> ").expect("applied value");
            (param.to_string(), value.parse().expect("integer value"))
        })
        .collect()
}

/// Pins pristine warm rule reuse across commits. Round two of a serial
/// warm campaign applies round one's rules with exactly these values and
/// finishes in exactly these attempts; a warm `Stellar::tune` pair, which
/// hands the session a flat `RuleSet`, does the same. The hand-built
/// reference test cannot catch a change here, because it rebuilds its
/// reference from the same session code.
#[test]
fn pristine_warm_rule_reuse_is_pinned() {
    type Pin = (&'static str, usize, u64, &'static [(&'static str, i64)]);
    const ROUND_TWO: [Pin; 3] = [
        (
            "IOR_16M",
            1,
            0x3fde_6eec_cf43_1622,
            &[
                ("stripe_count", -1),
                ("stripe_size", 16_777_216),
                ("osc.max_pages_per_rpc", 2048),
                ("osc.max_rpcs_in_flight", 64),
                ("osc.max_dirty_mb", 512),
                ("llite.max_read_ahead_mb", 1024),
                ("llite.max_read_ahead_per_file_mb", 512),
            ],
        ),
        (
            "MDWorkbench_2K",
            1,
            0x3fd5_d7b4_51ab_c43f,
            &[
                ("llite.statahead_max", 8192),
                ("mdc.max_rpcs_in_flight", 128),
                ("mdc.max_mod_rpcs_in_flight", 127),
                ("llite.max_read_ahead_whole_mb", 16),
                ("osc.short_io_bytes", 16384),
            ],
        ),
        (
            "IO500",
            1,
            0x3fc9_21ae_6a4f_eec5,
            &[
                ("stripe_count", -1),
                ("stripe_size", 2_097_152),
                ("osc.max_rpcs_in_flight", 128),
                ("osc.max_dirty_mb", 1024),
                ("osc.max_pages_per_rpc", 4096),
                ("llite.max_read_ahead_mb", 512),
                ("llite.max_read_ahead_per_file_mb", 256),
                ("llite.statahead_max", 8192),
                ("mdc.max_rpcs_in_flight", 64),
                ("mdc.max_mod_rpcs_in_flight", 63),
            ],
        ),
    ];
    const TUNE_SEED_2: Pin = (
        "IOR_16M",
        2,
        0x3fdb_7b84_eaa4_bdd4,
        &[
            ("stripe_count", -1),
            ("stripe_size", 16_777_216),
            ("osc.max_pages_per_rpc", 1024),
            ("osc.max_rpcs_in_flight", 128),
            ("osc.max_dirty_mb", 256),
            ("llite.max_read_ahead_mb", 512),
            ("llite.max_read_ahead_per_file_mb", 256),
            ("stripe_count", -1),
            ("stripe_size", 16_777_216),
            ("osc.max_pages_per_rpc", 2048),
            ("osc.max_rpcs_in_flight", 128),
            ("osc.max_dirty_mb", 512),
            ("llite.max_read_ahead_mb", 1024),
            ("llite.max_read_ahead_per_file_mb", 512),
        ],
    );
    let check = |run: &stellar::TuningRun, (workload, attempts, best_wall, applied): Pin| {
        assert_eq!(run.workload, workload);
        assert_eq!(run.attempts.len(), attempts, "{workload}: attempts");
        assert_eq!(run.best_wall.to_bits(), best_wall, "{workload}: best_wall");
        let want: Vec<(String, i64)> = applied.iter().map(|&(p, v)| (p.to_string(), v)).collect();
        assert_eq!(
            applied_rules(&run.transcript),
            want,
            "{workload}: applied rules"
        );
    };

    let engine = StellarBuilder::new().attempt_budget(3).build();
    let grid = [
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench2K,
        WorkloadKind::Io500,
    ];
    let report = Campaign::new(&engine)
        .kinds(&grid, 0.05)
        .seeds([51, 52])
        .rule_mode(RuleMode::Warm)
        .run_serial();
    assert_eq!(report.cells.len(), 2 * grid.len());
    for (cell, pin) in report.cells[grid.len()..].iter().zip(ROUND_TWO) {
        check(
            cell.run().expect("perfect backend: every cell finishes"),
            pin,
        );
    }
    assert_eq!(report.rules.len(), 24, "final rule count");
    assert_eq!(report.rule_store.shard_count(), 3, "final shard count");
    let census: Vec<(u16, usize)> = report
        .rule_store
        .census()
        .iter()
        .map(|e| (e.signature.tag_mask, e.rules))
        .collect();
    assert_eq!(census, [(0x030, 5), (0x085, 7), (0x0e1, 12)], "census");

    let mut rules = RuleSet::new();
    let w = WorkloadKind::Ior16M.spec_at(0.05);
    engine.tune(w.as_ref(), &mut rules, 1);
    check(&engine.tune(w.as_ref(), &mut rules, 2), TUNE_SEED_2);
}
