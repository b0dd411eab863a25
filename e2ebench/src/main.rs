//! End-to-end tuning benchmark.
//!
//! Drives cold tuning sessions and a warm campaign through the public
//! `stellar` API (`StellarBuilder` → `TuningSession` / `Campaign`), checks
//! their outputs, and prints one JSON result line last on stdout:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload md_session --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced run and reports the per-layer metrics. See `README.md`
//! beside this file.

mod clock;
mod exec;
mod measure;
mod spec;
mod stats;
mod trace;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_p50_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("best_speedup_gmean", "x"),
    ("attempts_mean", "count"),
    ("tokens_per_session", "tokens"),
    ("finished_frac", "ratio"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. Times
/// and counts are per round (one fixed set of sessions, or one campaign).
pub const PER_LAYER: [(&str, &str); 58] = [
    ("ragx.extract_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.ops", "count"),
    ("workloads.stream_mb", "MB"),
    ("pfs.run_s", "s"),
    ("pfs.runs", "count"),
    ("pfs.ns_per_op", "ns"),
    ("pfs.ns_per_rpc", "ns"),
    ("pfs.sim_s", "s"),
    ("pfs.bulk_rpcs", "count"),
    ("pfs.mds_ops", "count"),
    ("pfs.lock_revocations", "count"),
    ("pfs.cache_hit_ratio", "ratio"),
    ("pfs.statahead_hits", "count"),
    ("pfs.readahead_mb", "MB"),
    ("pfs.dirty_stall_s", "s"),
    ("pfs.written_mb", "MB"),
    ("pfs.read_mb", "MB"),
    ("darshan.sink_s", "s"),
    ("darshan.records", "count"),
    ("darshan.finish_s", "s"),
    ("darshan.tables_s", "s"),
    ("darshan.file_records", "count"),
    ("darshan.table_rows", "count"),
    ("agents.analysis.report_s", "s"),
    ("agents.analysis.answer_s", "s"),
    ("agents.analysis.calls", "count"),
    ("agents.store.matching_s", "s"),
    ("agents.store.merge_s", "s"),
    ("agents.store.snapshot_s", "s"),
    ("agents.store.rules", "count"),
    ("agents.store.shards", "count"),
    ("agents.rules_matched", "count"),
    ("llmsim.calls", "count"),
    ("llmsim.input_tokens", "tokens"),
    ("llmsim.output_tokens", "tokens"),
    ("llmsim.cached_tokens", "tokens"),
    ("llmsim.cache_hit_ratio", "ratio"),
    ("llmsim.retries", "count"),
    ("llmsim.wait_steps", "count"),
    ("llmsim.max_in_flight", "count"),
    ("stellar.steps", "count"),
    ("stellar.step.initial_s", "s"),
    ("stellar.step.analysis_s", "s"),
    ("stellar.step.minor_s", "s"),
    ("stellar.step.attempt_s", "s"),
    ("stellar.step.end_s", "s"),
    ("stellar.step.wait_s", "s"),
    ("stellar.session.self_s", "s"),
    ("stellar.campaign.cell_p50_s", "s"),
    ("stellar.campaign.round_s", "s"),
    ("stellar.sched.utilization", "ratio"),
    ("stellar.sched.idle_s", "s"),
    ("stellar.obs.emit_s", "s"),
    ("stellar.obs.record_kb", "kB"),
    ("stellar.obs.parse_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub spec: spec::Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <md_session|dc_session|warm_campaign> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let slot = match flag.as_str() {
                "--workload" => &mut workload,
                "--seed" => &mut seed,
                "--seconds" => &mut seconds,
                "--trace" => &mut trace,
                _ => return Err(format!("unknown flag {flag}")),
            };
            *slot = Some(value);
        }
        let workload = workload.ok_or("--workload is required")?;
        let spec = spec::Spec::standard(&workload).ok_or(format!(
            "unknown workload {workload}; one of {:?}",
            spec::NAMES
        ))?;
        let seed = seed
            .ok_or("--seed is required")?
            .parse::<u64>()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = seconds
            .ok_or("--seconds is required")?
            .parse::<f64>()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        let trace = match trace.as_deref().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Args {
            spec,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a run prints: the verdict, the metrics, and labelled notes.
#[derive(Debug, Default)]
pub struct BenchResult {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// Non-metric lines printed before the result (digest, failure share).
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl BenchResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line. Panics if the metric names differ from the
    /// declared set for the mode — a bug in this benchmark.
    pub fn to_json(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names, expected,
            "emitted metrics differ from the declared set"
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(declared)
            .map(|((name, value), (_, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, 0.0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        trace::run(&args)
    } else {
        measure::run(&args)
    };
    for problem in &result.problems {
        eprintln!("e2ebench: CHECK FAILED: {problem}");
    }
    let mut out = result.notes.join("\n");
    out.push('\n');
    out.push_str(&result.to_json(args.trace));
    // detlint::allow(D005): the notes and the result line are this benchmark's output contract
    println!("{out}");
    if !result.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    #[allow(dead_code)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    #[allow(dead_code)]
    struct Metric {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    #[allow(dead_code)]
    struct Benchmark {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    fn declared() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let b = declared();
        let pairs = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&b.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&b.per_layer), own(&PER_LAYER));
        for w in &b.workloads {
            assert!(spec::NAMES.contains(&w.name.as_str()), "{}", w.name);
        }
    }

    #[test]
    fn args_reject_bad_input() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload md_session --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(parse("--workload md_session --seed x --seconds 2 --trace 0").is_err());
        assert!(parse("--workload md_session --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload md_session --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload md_session --seed 1 --seconds").is_err());
    }

    /// A tiny-scale run of every workload in both modes: all metrics are
    /// emitted, finite, and every output check passes.
    #[test]
    fn smoke_all_workloads_tiny() {
        for name in spec::NAMES {
            for trace in [false, true] {
                let args = Args {
                    spec: spec::Spec::tiny(name),
                    seed: 3,
                    seconds: 0.01,
                    trace,
                };
                let result = if trace {
                    trace::run(&args)
                } else {
                    measure::run(&args)
                };
                assert!(
                    result.correct(),
                    "{name} trace={trace}: {:?}",
                    result.problems
                );
                assert!(result.attempted >= 1);
                let json = result.to_json(trace);
                assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
                for (metric, value) in &result.metrics {
                    assert!(value.is_finite(), "{name}: {metric} = {value}");
                }
            }
        }
    }
}
