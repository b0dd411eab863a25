//! The traced run: per-layer metrics.
//!
//! A third of the run's seconds runs untraced rounds, a third traced rounds
//! (every `TuningSession::step` timed and classified by the event it
//! returned; for the campaign, the run-record emitter and each seed round
//! timed through observers). Then the first traced round is replayed
//! through the public layer calls — `Workload::generate`,
//! `PfsSimulator::run_traced_faulted` into a timed `darshan::Collector`,
//! `Collector::finish`, `to_tables`, `AnalysisAgent`, and for the campaign
//! the `ShardedRuleStore` — with each replayed simulator run checked bit
//! for bit against the wall time the session recorded.
//!
//! Every time and count is per round. A layer's self time is its span
//! minus its children; `stellar.session.self_s` is the step spans minus
//! the replayed layers below them (agent decisions, reflection and
//! bookkeeping).

use crate::clock::Stopwatch;
use crate::exec::{self, Steps, Unit};
use crate::measure::sim_ops;
use crate::spec::{Setup, Shape};
use crate::stats::{mean, median, ratio};
use crate::{Args, BenchResult};
use agents::{AnalysisAgent, ContextTag, RuleSnapshot};
use darshan::tables::to_tables;
use darshan::{Collector, Table};
use llmsim::SimLlm;
use pfs::trace::{OpRecord, TraceSink};
use pfs::{IoOp, RunResult, TuningConfig};
use simcore::rng::combine;
use stellar::Stellar;
use workloads::Workload;

/// Host seconds and counts of the replayed layers, over one round.
#[derive(Debug, Default)]
struct Layers {
    generate_s: f64,
    ops: u64,
    largest_run_ops: u64,
    runs: u64,
    pfs_run_s: f64,
    sim: Vec<RunResult>,
    sink_s: f64,
    records: u64,
    finish_s: f64,
    tables_s: f64,
    file_records: u64,
    table_rows: u64,
    report_s: f64,
    answer_s: f64,
    analysis_calls: u64,
    matching_s: f64,
    merge_s: f64,
    snapshot_s: f64,
    rules_matched: u64,
}

impl Layers {
    /// Replayed host time inside step spans.
    fn below_steps(&self) -> f64 {
        self.generate_s
            + self.pfs_run_s
            + self.sink_s
            + self.finish_s
            + self.tables_s
            + self.report_s
            + self.answer_s
            + self.matching_s
    }

    fn sim_sum(&self, f: impl Fn(&RunResult) -> f64) -> f64 {
        self.sim.iter().map(f).sum()
    }
}

/// Record calls per timed call in [`TimedSink`]. Reading the clock
/// around every call would cost about as much as the call itself.
const SINK_SAMPLE: u64 = 16;

/// Forwards every record to the wrapped collector and times one call in
/// [`SINK_SAMPLE`]; [`TimedSink::secs`] scales the sample up.
struct TimedSink<'a> {
    inner: &'a mut Collector,
    sampled_secs: f64,
    records: u64,
}

impl TimedSink<'_> {
    /// Estimated host seconds inside the collector.
    fn secs(&self) -> f64 {
        self.sampled_secs
            * ratio(
                self.records as f64,
                self.records.div_ceil(SINK_SAMPLE) as f64,
            )
    }
}

impl TraceSink for TimedSink<'_> {
    fn record(&mut self, rec: &OpRecord) {
        if self.records % SINK_SAMPLE == 0 {
            let t0 = Stopwatch::start();
            self.inner.record(rec);
            self.sampled_secs += t0.secs();
        } else {
            self.inner.record(rec);
        }
        self.records += 1;
    }
}

/// One simulator run, layer by layer, as `Stellar` makes it inside a
/// session. Returns the simulated wall time and the analysis tables.
fn replay_run(
    engine: &Stellar,
    w: &dyn Workload,
    cfg: &TuningConfig,
    seed: u64,
    acc: &mut Layers,
) -> (f64, String, Vec<Table>) {
    let topo = engine.sim().topology();
    let t0 = Stopwatch::start();
    let streams = w.generate(topo, seed);
    acc.generate_s += t0.secs();
    acc.ops += sim_ops(&streams);
    let all_ops: usize = streams.iter().map(|s| s.ops.len()).sum();
    acc.largest_run_ops = acc.largest_run_ops.max(all_ops as u64);

    let mut collector = Collector::new(w.name(), topo.total_ranks());
    let mut sink = TimedSink {
        inner: &mut collector,
        sampled_secs: 0.0,
        records: 0,
    };
    let t0 = Stopwatch::start();
    let faults = engine.options().faults.as_ref();
    let result = engine
        .sim()
        .run_traced_faulted(streams, cfg, seed, faults, &mut sink);
    let run_s = t0.secs();
    let sink_s = sink.secs();
    acc.pfs_run_s += run_s - sink_s;
    acc.sink_s += sink_s;
    acc.records += sink.records;
    acc.runs += 1;

    let t0 = Stopwatch::start();
    let log = collector.finish();
    acc.finish_s += t0.secs();
    acc.file_records += log.records.len() as u64;
    let t0 = Stopwatch::start();
    let (header, tables) = to_tables(&log);
    acc.tables_s += t0.secs();
    acc.table_rows += tables.iter().map(|t| t.rows.len() as u64).sum::<u64>();
    let wall = result.wall_secs;
    acc.sim.push(result);
    (wall, header, tables)
}

/// Replay one unit's simulator runs, analysis calls and rule matching.
/// Returns a problem for every replayed run whose wall time differs from
/// the recorded one.
fn replay_unit(
    engine: &Stellar,
    setup: &Setup,
    unit: &Unit,
    steps: &Steps,
    snapshot: &RuleSnapshot,
    acc: &mut Layers,
) -> Vec<String> {
    let w = setup.workloads[unit.workload].as_ref();
    let mut problems = Vec::new();
    let mut check = |what: String, replayed: f64, recorded: f64| {
        if replayed.to_bits() != recorded.to_bits() {
            problems.push(format!(
                "replay of {what} (run seed {}): wall {replayed} != recorded {recorded}",
                unit.run_seed
            ));
        }
    };
    let Some(initial_wall) = steps.initial_wall else {
        return problems;
    };
    let default = TuningConfig::lustre_default();
    let seed = combine(unit.run_seed, 100);
    let (wall, header, mut tables) = replay_run(engine, w, &default, seed, acc);
    check("the default run".into(), wall, initial_wall);

    let profile = engine.options().analysis_model.clone();
    let mut backend = SimLlm::new(profile, combine(unit.run_seed, 1));
    if steps.reported {
        let t0 = Stopwatch::start();
        let report = AnalysisAgent::new(&mut backend).initial_report(&header, &tables);
        acc.report_s += t0.secs();
        acc.analysis_calls += 1;
        let t0 = Stopwatch::start();
        let matched = snapshot.matching(&ContextTag::tags_for(&report)).len();
        acc.matching_s += t0.secs();
        acc.rules_matched += matched as u64;
    }
    let mut questions = steps.questions.iter().peekable();
    let mut answer = |tables: &[Table], acc: &mut Layers, before: usize| {
        while let Some((q, _)) = questions.next_if(|(_, n)| *n <= before) {
            let t0 = Stopwatch::start();
            AnalysisAgent::new(&mut backend).answer(*q, tables);
            acc.answer_s += t0.secs();
            acc.analysis_calls += 1;
        }
    };
    for (k, attempt) in steps.attempts.iter().enumerate() {
        answer(&tables, acc, k);
        let seed = combine(unit.run_seed, 100 + attempt.iteration as u64);
        let (wall, _, next) = replay_run(engine, w, &attempt.config, seed, acc);
        check(
            format!("attempt {}", attempt.iteration),
            wall,
            attempt.wall_secs,
        );
        tables = next;
    }
    answer(&tables, acc, usize::MAX);
    problems
}

/// Median host seconds of the offline ragx extraction `StellarBuilder`
/// runs at build time.
fn ragx_extract_s(engine: &Stellar) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut backend = SimLlm::new(engine.options().analysis_model.clone(), 0x0FF1);
            let t0 = Stopwatch::start();
            let extracted = ragx::RagExtractor::standard().extract(&mut backend);
            let secs = t0.secs();
            drop(extracted);
            secs
        })
        .collect();
    median(&times)
}

pub fn run(args: &Args) -> BenchResult {
    let spec = &args.spec;
    let (setup, _) = crate::measure::setup_times(spec, args.seed, 1);
    let extract_s = ragx_extract_s(setup.engine(0));
    // A third of the run untraced, a third traced; the replay takes about
    // the last third.
    let plain = exec::rounds(&setup, spec, args.seed, args.seconds / 3.0, 1, false);
    let traced = exec::rounds(&setup, spec, args.seed, args.seconds / 3.0, 1, true);
    let first = &traced[0];
    let engine = setup.engine(first.index);
    let campaign = matches!(spec.shape, Shape::Campaign { .. });

    let mut acc = Layers::default();
    let mut problems: Vec<String> = Vec::new();
    let mut failed_units = 0;
    let (snapshots, store) = exec::round_snapshots(spec, &first.units, |merge, snap| {
        acc.merge_s += merge;
        acc.snapshot_s += snap;
    });
    // Campaign cells are reopened as standalone sessions with their
    // round's snapshot: that gives their step spans and events, and must
    // reproduce the cell bit for bit.
    let mut replay_steps = Steps::default();
    for unit in &first.units {
        let snapshot = &snapshots[unit.round.min(snapshots.len() - 1)];
        let reopened;
        let steps = match &unit.steps {
            Some(steps) => steps,
            None => {
                let w = setup.workloads[unit.workload].as_ref();
                let (outcome, steps) = exec::step_session(engine, w, snapshot.clone(), unit.seed);
                let mut unit_problems = Vec::new();
                if outcome != unit.outcome {
                    unit_problems.push(format!(
                        "reopened cell (seed {}) differs from the campaign's",
                        unit.seed
                    ));
                }
                replay_steps.add(&steps);
                reopened = steps;
                failed_units += usize::from(!unit_problems.is_empty());
                problems.extend(unit_problems);
                &reopened
            }
        };
        let unit_problems = replay_unit(engine, &setup, unit, steps, snapshot, &mut acc);
        failed_units += usize::from(!unit_problems.is_empty());
        problems.extend(unit_problems);
    }
    if let Some(extras) = &first.campaign {
        if store.len() != extras.rule_store_len {
            problems.push(format!(
                "replayed rule store holds {} rules, the campaign's {}",
                store.len(),
                extras.rule_store_len
            ));
            failed_units += 1;
        }
    }

    // Step spans of the replayed round: live for sessions, from the
    // reopened cells for the campaign.
    let steps = if campaign {
        replay_steps
    } else {
        first.steps.clone()
    };

    let finished: Vec<_> = first
        .units
        .iter()
        .filter_map(|u| u.outcome.as_ref().ok())
        .collect();
    let usage = |f: fn(&llmsim::UsageMeter) -> u64| -> f64 {
        finished
            .iter()
            .map(|r| f(&r.tuning_usage) + f(&r.analysis_usage))
            .sum::<u64>() as f64
    };
    let input = usage(|u| u.input_tokens);
    let cached = usage(|u| u.cached_input_tokens);

    let extras: Vec<_> = traced.iter().filter_map(|r| r.campaign.as_ref()).collect();
    let per_campaign = |f: &dyn Fn(&exec::CampaignExtras) -> f64| -> f64 {
        mean(&extras.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    let cell_secs: Vec<f64> = traced.iter().flat_map(|r| r.session_secs.clone()).collect();
    let max_in_flight = match &first.campaign {
        Some(e) => e.sched.max_in_flight(),
        None => first.steps.max_in_flight,
    };
    let unattributed = if campaign {
        ratio(
            per_campaign(&|e| {
                e.wall_s - e.emit.round_s.iter().sum::<f64>() - e.emit.emit_outside_s
            }),
            per_campaign(&|e| e.wall_s),
        )
    } else {
        let wall: f64 = traced.iter().map(|r| r.steps.wall_s).sum();
        let spans: f64 = traced.iter().map(|r| r.steps.span_total()).sum();
        ratio(wall - spans, wall)
    };
    // Rounds at the same cycle position ran the same inputs.
    let paired: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| ratio(t.secs, p.secs))
        .collect();
    let overhead = median(&paired) - 1.0;
    let written = acc.sim_sum(|r| r.bytes_written as f64);
    let read = acc.sim_sum(|r| r.bytes_read as f64);
    let readahead = acc.sim_sum(|r| r.readahead_bytes as f64);
    let mb = 1e6;

    let mut result = BenchResult {
        attempted: plain.iter().chain(&traced).map(|r| r.attempted).sum(),
        failed: plain.iter().chain(&traced).map(|r| r.failed).sum::<usize>() + failed_units,
        problems: plain
            .iter()
            .chain(&traced)
            .flat_map(|r| r.problems.clone())
            .chain(problems)
            .collect(),
        notes: crate::measure::notes(spec, std::slice::from_ref(first)),
        metrics: Vec::new(),
    };
    result.metrics = vec![
        ("ragx.extract_s", extract_s),
        ("workloads.generate_s", acc.generate_s),
        ("workloads.ops", acc.ops as f64),
        (
            "workloads.stream_mb",
            (acc.largest_run_ops as usize * std::mem::size_of::<IoOp>()) as f64 / mb,
        ),
        ("pfs.run_s", acc.pfs_run_s),
        ("pfs.runs", acc.runs as f64),
        ("pfs.ns_per_op", ratio(acc.pfs_run_s * 1e9, acc.ops as f64)),
        (
            "pfs.ns_per_rpc",
            ratio(acc.pfs_run_s * 1e9, acc.sim_sum(|r| r.bulk_rpcs as f64)),
        ),
        ("pfs.sim_s", acc.sim_sum(|r| r.wall_secs)),
        ("pfs.bulk_rpcs", acc.sim_sum(|r| r.bulk_rpcs as f64)),
        ("pfs.mds_ops", acc.sim_sum(|r| r.mds_ops as f64)),
        (
            "pfs.lock_revocations",
            acc.sim_sum(|r| r.lock_revocations as f64),
        ),
        (
            "pfs.cache_hit_ratio",
            ratio(acc.sim_sum(|r| r.cache_hit_ratio), acc.sim.len() as f64),
        ),
        (
            "pfs.statahead_hits",
            acc.sim_sum(|r| r.statahead_hits as f64),
        ),
        ("pfs.readahead_mb", readahead / mb),
        ("pfs.dirty_stall_s", acc.sim_sum(|r| r.dirty_stall_secs)),
        ("pfs.written_mb", written / mb),
        ("pfs.read_mb", read / mb),
        ("darshan.sink_s", acc.sink_s),
        ("darshan.records", acc.records as f64),
        ("darshan.finish_s", acc.finish_s),
        ("darshan.tables_s", acc.tables_s),
        ("darshan.file_records", acc.file_records as f64),
        ("darshan.table_rows", acc.table_rows as f64),
        ("agents.analysis.report_s", acc.report_s),
        ("agents.analysis.answer_s", acc.answer_s),
        ("agents.analysis.calls", acc.analysis_calls as f64),
        ("agents.store.matching_s", acc.matching_s),
        ("agents.store.merge_s", acc.merge_s),
        ("agents.store.snapshot_s", acc.snapshot_s),
        ("agents.store.rules", store.len() as f64),
        ("agents.store.shards", store.shard_count() as f64),
        ("agents.rules_matched", acc.rules_matched as f64),
        ("llmsim.calls", usage(|u| u.calls)),
        ("llmsim.input_tokens", input),
        ("llmsim.output_tokens", usage(|u| u.output_tokens)),
        ("llmsim.cached_tokens", cached),
        ("llmsim.cache_hit_ratio", ratio(cached, input)),
        ("llmsim.retries", steps.retries as f64),
        ("llmsim.wait_steps", steps.waits as f64),
        ("llmsim.max_in_flight", max_in_flight as f64),
        ("stellar.steps", steps.steps as f64),
        ("stellar.step.initial_s", steps.spans[0]),
        ("stellar.step.analysis_s", steps.spans[1]),
        ("stellar.step.minor_s", steps.spans[2]),
        ("stellar.step.attempt_s", steps.spans[3]),
        ("stellar.step.end_s", steps.spans[4]),
        ("stellar.step.wait_s", steps.spans[5]),
        (
            "stellar.session.self_s",
            steps.span_total() - acc.below_steps(),
        ),
        (
            "stellar.campaign.cell_p50_s",
            if campaign { median(&cell_secs) } else { 0.0 },
        ),
        (
            "stellar.campaign.round_s",
            per_campaign(&|e| mean(&e.emit.round_s)),
        ),
        (
            "stellar.sched.utilization",
            per_campaign(&|e| {
                mean(
                    &e.sched
                        .rounds
                        .iter()
                        .map(|r| r.utilization)
                        .collect::<Vec<_>>(),
                )
            }),
        ),
        (
            "stellar.sched.idle_s",
            per_campaign(&|e| {
                e.sched
                    .rounds
                    .iter()
                    .map(|r| {
                        e.sched.workers as f64 * r.makespan_secs - r.cell_secs.iter().sum::<f64>()
                    })
                    .sum()
            }),
        ),
        ("stellar.obs.emit_s", per_campaign(&|e| e.emit.emit_s)),
        (
            "stellar.obs.record_kb",
            first
                .campaign
                .as_ref()
                .map_or(0.0, |e| e.record_bytes as f64 / 1e3),
        ),
        ("stellar.obs.parse_s", per_campaign(&|e| e.parse_s)),
        ("trace.unattributed_frac", unattributed),
        ("trace.overhead_frac", overhead),
    ];
    result
}
