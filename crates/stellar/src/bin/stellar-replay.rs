//! `stellar-replay` — read a JSONL run record back and re-render it.
//!
//! ```text
//! stellar-replay <file.jsonl>            summarize the run from the record
//! stellar-replay <file.jsonl> --events   re-render every canonical event
//! stellar-replay <file.jsonl> --notes    dump the scheduling/timing sidecar
//! ```
//!
//! Any other `--` argument exits 2 with `unknown flag`, so a typo such as
//! `--event` fails fast instead of printing the summary.
//!
//! Records are written by `stellar-tune tune --emit` / `campaign --emit`
//! (one [`stellar::RecordLine`] per line, schema-versioned — see
//! `stellar::obs`). The summary is reproduced from the record alone: for
//! campaign records the per-cell table and trailer are byte-identical to
//! what `stellar-tune campaign` printed live.

use stellar::{ObsEvent, RunRecord, SchedNote};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--events" | "--notes"))
    {
        eprintln!("unknown flag `{flag}`");
        std::process::exit(2);
    }
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: stellar-replay <file.jsonl> [--events] [--notes]");
        std::process::exit(2);
    };
    let record = match RunRecord::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bad run record: {e}");
            std::process::exit(1);
        }
    };
    let has = |name: &str| args.iter().any(|a| a == name);
    if has("--events") {
        for e in record.events() {
            println!("{}", render_event(e));
        }
    }
    if has("--notes") {
        for n in record.notes() {
            println!("{}", render_note(n));
        }
    }
    if !has("--events") && !has("--notes") {
        print!("{}", record.summary());
    }
}

/// One human-readable line per canonical event — the offline counterpart
/// of watching `tune --stream` / `campaign --progress` live.
fn render_event(e: &ObsEvent) -> String {
    match e {
        ObsEvent::SessionStart {
            workload,
            run_seed,
            scenario,
        } => {
            if scenario.is_empty() {
                format!("session: {workload} (run seed {run_seed})")
            } else {
                format!(
                    "session: {workload} (run seed {run_seed}; scenario: {})",
                    scenario.join(", ")
                )
            }
        }
        ObsEvent::InitialRun { wall_secs } => format!("initial run: {wall_secs:.3}s"),
        ObsEvent::AnalysisReport { report } => format!(
            "analysis report: {:?}, {} data op(s), {} meta op(s)",
            report.classify(),
            report.data_ops,
            report.meta_ops
        ),
        ObsEvent::MinorLoop { question, answer } => {
            format!("minor loop: {question:?} -> {}", answer.text)
        }
        ObsEvent::Attempt { record } => format!(
            "attempt {}: {:.3}s (x{:.2})",
            record.iteration, record.wall_secs, record.speedup
        ),
        ObsEvent::Transcript { line } => format!("  | {line}"),
        ObsEvent::Usage { tuning, analysis } => format!(
            "usage: +{} tuning call(s) (+{} in / +{} out), +{} analysis call(s)",
            tuning.calls, tuning.input_tokens, tuning.output_tokens, analysis.calls
        ),
        ObsEvent::Retry {
            context,
            attempt,
            error,
        } => format!("  retry {attempt} at {context}: {error}"),
        ObsEvent::SessionEnd { reason } => format!("session ended: {reason}"),
        ObsEvent::SessionFailed { error } => format!("session failed: {error}"),
        ObsEvent::CampaignStart {
            workloads,
            seeds,
            mode,
            faults,
            injection,
            retry,
        } => {
            let mut line = format!(
                "campaign: [{}] x {} seed(s), {} rules",
                workloads.join(", "),
                seeds.len(),
                mode,
            );
            if let Some(label) = faults {
                line.push_str(&format!(", faults: {label}"));
            }
            if let Some(label) = injection {
                line.push_str(&format!(", failures: {label}"));
            }
            if let Some(label) = retry {
                line.push_str(&format!(", retry: {label}"));
            }
            line
        }
        ObsEvent::RoundStart { seed } => format!("round: seed {seed}"),
        ObsEvent::CellFinished {
            workload,
            seed,
            run,
            ..
        } => format!(
            "cell: {workload} @ seed {seed} -> x{:.2} in {} attempt(s) ({})",
            run.best_speedup,
            run.attempts.len(),
            run.end_reason
        ),
        ObsEvent::CellFailed {
            workload,
            seed,
            failure,
            ..
        } => format!("cell: {workload} @ seed {seed} -> failed ({failure})"),
        ObsEvent::RuleMerge {
            workload,
            added,
            total,
        } => format!("rules: {workload} merged {added} -> {total} in store"),
        ObsEvent::CampaignEnd {
            cells,
            evaluations,
            mean_best_speedup,
            rules,
            shards,
            failed,
        } => format!(
            "campaign ended: {cells} cell(s){}, {evaluations} evaluation(s), \
             mean x{mean_best_speedup:.2}, {rules} rule(s) in {shards} shard(s)",
            if *failed > 0 {
                format!(" ({failed} failed)")
            } else {
                String::new()
            }
        ),
    }
}

fn render_note(n: &SchedNote) -> String {
    match n {
        SchedNote::Waiting { call } => format!("waiting on call #{call}"),
        SchedNote::RoundPlanned {
            seed,
            schedule,
            order,
        } => format!("seed {seed}: planned {order:?} ({schedule})"),
        SchedNote::CellClaimed {
            worker,
            seed,
            grid_idx,
            workload,
        } => format!("seed {seed}: w{worker} claimed [{grid_idx}] {workload}"),
        SchedNote::CellSuspended {
            worker,
            seed,
            grid_idx,
            call,
        } => format!("seed {seed}: w{worker} suspended [{grid_idx}] on call #{call}"),
        SchedNote::CellPublished {
            worker,
            seed,
            grid_idx,
            busy_secs,
        } => format!("seed {seed}: w{worker} published [{grid_idx}] after {busy_secs:.3}s"),
        SchedNote::RoundStats {
            seed,
            makespan_secs,
            utilization,
            max_in_flight,
            cell_secs,
        } => format!(
            "seed {seed}: makespan {makespan_secs:.3}s, utilization {:.0}%, \
             in-flight peak {max_in_flight}, {} cell(s)",
            utilization * 100.0,
            cell_secs.len()
        ),
    }
}
