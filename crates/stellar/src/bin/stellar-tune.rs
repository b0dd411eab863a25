//! `stellar-tune` — command-line frontend for the STELLAR engine.
//!
//! ```text
//! stellar-tune workloads                         list known workloads
//! stellar-tune extract                           run the offline RAG extraction
//! stellar-tune tune IOR_16M [options]            run one tuning run
//! stellar-tune campaign IOR_16M,MACSio_16M [options]   run a workload × seed grid
//! stellar-tune baseline IOR_16M [--scale f]      expert oracle + random search
//! stellar-tune rules <file.json>                 pretty-print a rule set
//!
//! tune options:
//!   --scale <f>        workload scale factor (default 1.0)
//!   --attempts <n>     configuration budget (default 5)
//!   --model <name>     claude-3.7-sonnet | gpt-4o | llama-3.1-70b
//!   --rules <file>     load the global rule set from a JSON file
//!   --save-rules <f>   write the updated rule set back
//!   --seed <n>         experiment seed (default 42)
//!   --stream           print agent transcript lines as they happen
//!   --emit <path>      write the run record as JSONL (see stellar::obs;
//!                      replay with `stellar-replay <path>`)
//!   --backend-latency <t|a..b>   simulated provider latency in poll ticks
//!                      (fixed or inclusive range); sessions suspend
//!                      instead of blocking — results are unchanged
//!   --faults <seed>    run under a seeded OST fault plan (degradation,
//!                      dropout, recovery scheduled in simulated time);
//!                      learned rules shard under "degraded-topology"
//!   --inject-failures <seed>   fail a seeded fraction of backend calls
//!                      (transient + fatal); transients retry under the
//!                      engine's retry policy, fatal errors end the
//!                      session with a structured failure
//!   --retry <n>        total submissions allowed per backend call under
//!                      --inject-failures (default 3)
//!   --no-analysis / --no-descriptions / --no-rules   ablation switches
//!
//! campaign options (plus --scale/--rules/--save-rules/--attempts/--model/
//!                   --backend-latency/--faults/--inject-failures/--retry/
//!                   --emit); a grid cell label
//!                   may be a composite `A+B`, which co-schedules the named
//!                   workloads over shared OSTs (noisy-neighbor contention):
//!   --seeds <a,b,c>    grid seeds (default 42)
//!   --warm             accumulate rules across seed rounds
//!   --serial           disable parallel cell execution
//!   --threads <n>      worker threads (default: hardware parallelism);
//!                      parallel rounds claim cells heaviest-first, as
//!                      planned from cost hints and measured cell times
//!   --progress         draw a live per-worker status board on stderr
//!   --rule-shards      print the final rule census, one row per tag set
//!   --resume <record.jsonl>   replay the completed rounds of a partial
//!                      run record (same grid and flags) and execute only
//!                      the remainder; the final report is bit-identical
//!                      to an uninterrupted run
//! ```
//!
//! Every `--` argument must be a flag its subcommand reads: anything else
//! (a typo, a removed flag) exits 2 with `unknown flag`.

use agents::RuleSet;
use llmsim::{LatencyProfile, ModelProfile};
use stellar::baselines::{expert_oracle, random_search};
use stellar::{Campaign, RuleMode, RunObserver, Stellar, StellarBuilder};
use workloads::{WorkloadKind, BENCHMARKS, REAL_APPS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("workloads") => checked(&args, &[], |_| cmd_workloads()),
        Some("extract") => checked(&args, &[], |_| cmd_extract()),
        Some("tune") => checked(&args, &[ENGINE, TUNE], cmd_tune),
        Some("campaign") => checked(&args, &[ENGINE, CAMPAIGN], cmd_campaign),
        Some("baseline") => checked(&args, &[BASELINE], cmd_baseline),
        Some("rules") => checked(&args, &[], cmd_rules),
        _ => {
            eprintln!("usage: stellar-tune <workloads|extract|tune|campaign|baseline|rules> ...");
            eprintln!("see the crate docs or README for options");
            2
        }
    };
    std::process::exit(code);
}

/// The flags a subcommand reads: `(flags that take a value, switches)`.
type Flags = (&'static [&'static str], &'static [&'static str]);

/// Read by `engine_from_flags`, so by `tune` and `campaign`.
const ENGINE: Flags = (
    &[
        "--attempts",
        "--model",
        "--backend-latency",
        "--faults",
        "--inject-failures",
        "--retry",
    ],
    &["--no-analysis", "--no-descriptions", "--no-rules"],
);
const TUNE: Flags = (
    &["--scale", "--seed", "--rules", "--save-rules", "--emit"],
    &["--stream"],
);
const CAMPAIGN: Flags = (
    &[
        "--scale",
        "--seeds",
        "--rules",
        "--save-rules",
        "--emit",
        "--threads",
        "--resume",
    ],
    &["--warm", "--serial", "--progress", "--rule-shards"],
);
const BASELINE: Flags = (&["--scale"], &[]);

/// Run the subcommand `args[0]` on the rest of `args` once every `--`
/// argument there is one of `flags`; a flag's value is skipped, not
/// checked. Anything else is a usage error (exit 2), never ignored.
fn checked(args: &[String], flags: &[Flags], cmd: impl FnOnce(&[String]) -> i32) -> i32 {
    let args = &args[1..];
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let arg = arg.as_str();
        if flags.iter().any(|(valued, _)| valued.contains(&arg)) {
            rest.next();
        } else if arg.starts_with("--")
            && !flags.iter().any(|(_, switches)| switches.contains(&arg))
        {
            eprintln!("unknown flag `{arg}`");
            return 2;
        }
    }
    cmd(args)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Strictly parse a numeric `--flag <value>`: an absent flag yields
/// `default`, but a present-and-malformed value is a usage error (friendly
/// message, exit 2) — never a silent fall-back to the default.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, i32> {
    match flag_value(args, name) {
        Some(v) => v.parse().map_err(|_| {
            eprintln!("bad {name} `{v}`; expected a number");
            2
        }),
        None => Ok(default),
    }
}

fn parse_workload(args: &[String]) -> Result<WorkloadKind, i32> {
    let Some(label) = args.first() else {
        eprintln!("missing workload label; try `stellar-tune workloads`");
        return Err(2);
    };
    WorkloadKind::from_label(label).ok_or_else(|| {
        eprintln!("unknown workload `{label}`; try `stellar-tune workloads`");
        2
    })
}

fn cmd_workloads() -> i32 {
    println!("benchmarks:");
    for k in BENCHMARKS {
        println!("  {:<16} {}", k.label(), k.spec().describe());
    }
    println!("real applications:");
    for k in REAL_APPS {
        println!("  {:<16} {}", k.label(), k.spec().describe());
    }
    0
}

fn cmd_extract() -> i32 {
    let engine = Stellar::standard();
    let report = engine.extraction_report();
    println!(
        "extracted {} of {} parameters ({} writable, {} documented, {} non-binary)",
        report.selected, report.total_params, report.writable, report.sufficient, report.non_binary
    );
    for p in engine.params() {
        println!(
            "  {:<34} default {}{}{}",
            p.name,
            p.default,
            if p.unit.is_empty() { "" } else { " " },
            p.unit
        );
    }
    0
}

/// Build an engine from the shared CLI flags (`--attempts`, `--model`,
/// ablation switches).
fn engine_from_flags(args: &[String]) -> Result<Stellar, i32> {
    let mut builder = StellarBuilder::new()
        .use_analysis(!has_flag(args, "--no-analysis"))
        .use_descriptions(!has_flag(args, "--no-descriptions"))
        .use_rules(!has_flag(args, "--no-rules"));
    if let Some(v) = flag_value(args, "--attempts") {
        match v.parse() {
            Ok(n) => builder = builder.attempt_budget(n),
            Err(_) => {
                eprintln!("bad --attempts `{v}`; expected a number");
                return Err(2);
            }
        }
    }
    if let Some(model) = flag_value(args, "--model") {
        builder = builder.tuning_model(match model.as_str() {
            "claude-3.7-sonnet" => ModelProfile::claude_37_sonnet(),
            "gpt-4o" => ModelProfile::gpt_4o(),
            "llama-3.1-70b" => ModelProfile::llama_31_70b(),
            other => {
                eprintln!("unknown model `{other}`");
                return Err(2);
            }
        });
    }
    if let Some(spec) = flag_value(args, "--backend-latency") {
        match LatencyProfile::parse(&spec) {
            Some(profile) => builder = builder.backend_latency(profile),
            None => {
                eprintln!("bad --backend-latency `{spec}`; use ticks (`3`) or a range (`1..4`)");
                return Err(2);
            }
        }
    }
    if let Some(spec) = flag_value(args, "--faults") {
        match spec.parse::<u64>() {
            Ok(fault_seed) => {
                let topo = stellar::default_topology();
                builder = builder.faults(pfs::FaultPlan::seeded(topo.ost_count(), fault_seed));
            }
            Err(_) => {
                eprintln!("bad --faults `{spec}`; use an integer fault-plan seed");
                return Err(2);
            }
        }
    }
    if let Some(spec) = flag_value(args, "--inject-failures") {
        match spec.parse::<u64>() {
            Ok(seed) => builder = builder.failures(llmsim::FailureInjection::standard(seed)),
            Err(_) => {
                eprintln!("bad --inject-failures `{spec}`; use an integer injection seed");
                return Err(2);
            }
        }
    }
    if let Some(spec) = flag_value(args, "--retry") {
        match spec.parse::<u32>() {
            Ok(n) if n >= 1 => {
                builder = builder.retry_policy(stellar::RetryPolicy {
                    max_attempts: n,
                    ..Default::default()
                });
            }
            _ => {
                eprintln!("bad --retry `{spec}`; use a positive total attempt count");
                return Err(2);
            }
        }
    }
    Ok(builder.build())
}

/// Open the `--emit <path>` run-record emitter, if requested.
fn open_emitter(
    args: &[String],
) -> Result<Option<stellar::JsonlEmitter<std::io::BufWriter<std::fs::File>>>, i32> {
    match flag_value(args, "--emit") {
        Some(path) => match stellar::JsonlEmitter::create(&path) {
            Ok(em) => Ok(Some(em)),
            Err(e) => {
                eprintln!("cannot create run record {path}: {e}");
                Err(1)
            }
        },
        None => Ok(None),
    }
}

fn load_rules(args: &[String]) -> Result<RuleSet, i32> {
    match flag_value(args, "--rules") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(json) => RuleSet::from_json(&json).map_err(|e| {
                eprintln!("bad rule set {path}: {e}");
                1
            }),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                Err(1)
            }
        },
        None => Ok(RuleSet::new()),
    }
}

fn save_rules(args: &[String], rules: &RuleSet) -> i32 {
    if let Some(path) = flag_value(args, "--save-rules") {
        if let Err(e) = std::fs::write(&path, rules.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("rule set ({} rules) written to {path}", rules.len());
    }
    0
}

/// Observer printing transcript lines live (`tune --stream`).
///
/// Transcript lines go to stdout (they are latency-invariant, so stdout
/// stays bit-identical across reruns); suspensions and usage growth go to
/// stderr — under `--backend-latency` a streamed run used to go silent
/// for every in-flight provider call, which read as a hang.
#[derive(Default)]
struct StreamPrinter {
    tuning_calls: u64,
    analysis_calls: u64,
    last_wait: Option<u64>,
}

impl RunObserver for StreamPrinter {
    fn on_transcript(&mut self, line: &str) {
        println!("{line}");
    }

    fn on_waiting(&mut self, call: llmsim::CallHandle) {
        // Once per suspension, not once per poll of the same call.
        if self.last_wait != Some(call.id()) {
            self.last_wait = Some(call.id());
            eprintln!("... waiting on backend call #{}", call.id());
        }
    }

    fn on_usage(&mut self, tuning: &llmsim::UsageMeter, analysis: &llmsim::UsageMeter) {
        // One line per new inference call, not per step.
        if tuning.calls != self.tuning_calls || analysis.calls != self.analysis_calls {
            self.tuning_calls = tuning.calls;
            self.analysis_calls = analysis.calls;
            eprintln!(
                "usage: tuning {} call(s) / {} in / {} out; analysis {} call(s) / {} in / {} out",
                tuning.calls,
                tuning.input_tokens,
                tuning.output_tokens,
                analysis.calls,
                analysis.input_tokens,
                analysis.output_tokens,
            );
        }
    }
}

fn cmd_tune(args: &[String]) -> i32 {
    let kind = match parse_workload(args) {
        Ok(k) => k,
        Err(c) => return c,
    };
    let scale: f64 = match parse_flag(args, "--scale", 1.0) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let seed: u64 = match parse_flag(args, "--seed", 42) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let engine = match engine_from_flags(args) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let mut rules = match load_rules(args) {
        Ok(r) => r,
        Err(c) => return c,
    };

    let mut emitter = match open_emitter(args) {
        Ok(e) => e,
        Err(c) => return c,
    };

    let workload = kind.spec_at(scale);
    let mut session = engine.session(workload.as_ref(), rules.clone(), seed);
    if has_flag(args, "--stream") {
        session.observe(Box::new(StreamPrinter::default()));
    }
    if let Some(em) = emitter.as_mut() {
        // Lend the emitter to the session; it is handed back below to
        // record the rule merge and flush.
        session.observe(Box::new(em));
    }
    let run = match session.drain_outcome() {
        stellar::SessionOutcome::Finished(run) => run,
        stellar::SessionOutcome::Failed(error) => {
            // The failure is structured, never a panic: report it, then
            // still settle the run record so the failure is durable.
            eprintln!("tuning run failed: {error}");
            if let Some(em) = emitter.as_mut() {
                if let Err(e) = em.finish() {
                    eprintln!("cannot flush run record: {e}");
                } else {
                    eprintln!("run record: {} line(s) emitted", em.lines());
                }
            }
            return 1;
        }
    };
    rules.merge(run.new_rules.clone());

    println!("workload: {} (scale {scale})", run.workload);
    println!("default: {:.3}s", run.default_wall);
    for a in &run.attempts {
        println!(
            "  attempt {}: {:.3}s (x{:.2})",
            a.iteration, a.wall_secs, a.speedup
        );
    }
    println!(
        "best: x{:.2} in {} attempts — {}",
        run.best_speedup,
        run.attempts.len(),
        run.end_reason
    );
    println!("{}", run.best_config.render());
    // Results and learned rules persist before the run record settles: a
    // full disk under --emit must not discard the finished run.
    let save_code = save_rules(args, &rules);
    if let Some(em) = emitter.as_mut() {
        em.event(stellar::ObsEvent::RuleMerge {
            workload: run.workload.clone(),
            added: run.new_rules.len(),
            total: rules.len(),
        });
        if let Err(e) = em.finish() {
            eprintln!("cannot flush run record: {e}");
            return 1;
        }
        eprintln!("run record: {} line(s) emitted", em.lines());
    }
    save_code
}

/// Parse one campaign cell label at `scale`: a single suite workload, or
/// a `A+B` composite that co-schedules the named workloads as contending
/// jobs over shared OSTs ([`workloads::Contention`]).
fn parse_cell(label: &str, scale: f64) -> Result<Box<dyn workloads::Workload>, i32> {
    if label.contains('+') {
        let mut jobs = Vec::new();
        for part in label.split('+') {
            match WorkloadKind::from_label(part) {
                Some(k) => jobs.push(k.spec_at(scale)),
                None => {
                    eprintln!(
                        "unknown workload `{part}` in composite `{label}`; \
                         try `stellar-tune workloads`"
                    );
                    return Err(2);
                }
            }
        }
        Ok(Box::new(workloads::Contention::new(jobs)))
    } else {
        match WorkloadKind::from_label(label) {
            Some(k) => Ok(k.spec_at(scale)),
            None => {
                eprintln!("unknown workload `{label}`; try `stellar-tune workloads`");
                Err(2)
            }
        }
    }
}

fn cmd_campaign(args: &[String]) -> i32 {
    let Some(list) = args.first() else {
        eprintln!("missing workload list; try `stellar-tune campaign IOR_16M,MACSio_16M`");
        return 2;
    };
    let scale: f64 = match parse_flag(args, "--scale", 1.0) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let mut cells = Vec::new();
    for label in list.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        match parse_cell(label, scale) {
            Ok(w) => cells.push(w),
            Err(c) => return c,
        }
    }
    if cells.is_empty() {
        eprintln!("empty workload list; try `stellar-tune campaign IOR_16M,MACSio_16M`");
        return 2;
    }
    let mut seeds: Vec<u64> = Vec::new();
    match flag_value(args, "--seeds") {
        Some(list) => {
            for v in list.split(',').map(str::trim).filter(|v| !v.is_empty()) {
                match v.parse() {
                    Ok(seed) => seeds.push(seed),
                    Err(_) => {
                        eprintln!("bad seed `{v}` in --seeds");
                        return 2;
                    }
                }
            }
        }
        None => seeds.push(42),
    }
    if seeds.is_empty() {
        eprintln!("--seeds produced no valid seeds");
        return 2;
    }
    let engine = match engine_from_flags(args) {
        Ok(e) => e,
        Err(c) => return c,
    };
    let rules = match load_rules(args) {
        Ok(r) => r,
        Err(c) => return c,
    };

    let mut emitter = match open_emitter(args) {
        Ok(e) => e,
        Err(c) => return c,
    };

    let mut campaign = Campaign::new(&engine);
    for w in cells {
        campaign = campaign.workload(w);
    }
    campaign = campaign
        .seeds(seeds)
        .starting_rules(rules)
        .rule_mode(if has_flag(args, "--warm") {
            RuleMode::Warm
        } else {
            RuleMode::Cold
        });
    if let Some(v) = flag_value(args, "--threads") {
        match v.parse() {
            Ok(n) => campaign = campaign.threads(n),
            Err(_) => {
                eprintln!("bad --threads `{v}`; expected a number");
                return 2;
            }
        }
    }
    if let Some(path) = flag_value(args, "--resume") {
        let record = match stellar::RunRecord::load_partial(&path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bad run record {path}: {e}");
                return 2;
            }
        };
        match campaign.resume_from(&record) {
            Ok(c) => campaign = c,
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return 2;
            }
        }
    }
    if let Some(em) = emitter.as_mut() {
        campaign = campaign.observe(Box::new(em));
    }
    if has_flag(args, "--progress") {
        campaign = campaign.observe(Box::new(stellar::ProgressRenderer::stderr()));
    }
    let report = if has_flag(args, "--serial") {
        campaign.run_serial()
    } else {
        campaign.run()
    };
    // The campaign borrows the emitter through its observer box; release
    // it before flushing (which happens last — the computed report and
    // saved rules must survive a run-record write failure).
    drop(campaign);
    print!("{}", report.render());
    // Timing telemetry goes to stderr: stdout stays bit-identical across
    // reruns of the same command (the workspace determinism invariant).
    eprintln!("{}", report.sched_stats.render());
    let (tuning, analysis) = report.total_usage();
    println!(
        "tokens: tuning {} in / {} out ({:.0}% cached), analysis {} in / {} out",
        tuning.input_tokens,
        tuning.output_tokens,
        tuning.cache_hit_ratio() * 100.0,
        analysis.input_tokens,
        analysis.output_tokens,
    );
    if has_flag(args, "--rule-shards") {
        let store = &report.rule_store;
        println!(
            "rule shards: {} rules in {} shards (topology bucket {})",
            store.len(),
            store.shard_count(),
            store.topo_bucket()
        );
        for entry in store.census() {
            println!(
                "  {:>4} rule(s)  [mask {:#05x}] {}",
                entry.rules,
                entry.signature.tag_mask,
                entry.signature.label()
            );
        }
    }
    let save_code = save_rules(args, &report.rules);
    if let Some(mut em) = emitter.take() {
        if let Err(e) = em.finish() {
            eprintln!("cannot flush run record: {e}");
            return 1;
        }
        eprintln!("run record: {} line(s) emitted", em.lines());
    }
    save_code
}

fn cmd_baseline(args: &[String]) -> i32 {
    let kind = match parse_workload(args) {
        Ok(k) => k,
        Err(c) => return c,
    };
    let scale: f64 = match parse_flag(args, "--scale", 1.0) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let engine = Stellar::standard();
    let w = kind.spec_at(scale);
    let default = stellar::measure::evaluate(
        engine.sim(),
        w.as_ref(),
        &pfs::params::TuningConfig::lustre_default(),
        2,
        "cli-default",
    );
    println!("default: {default:.3}s");
    let oracle = expert_oracle(engine.sim(), w.as_ref(), 2, 2);
    println!(
        "expert oracle: {:.3}s (x{:.2}) after {} evaluations",
        oracle.wall_secs,
        default / oracle.wall_secs,
        oracle.evaluations
    );
    let rand = random_search(engine.sim(), w.as_ref(), 20, 7);
    println!(
        "random search (20 samples): {:.3}s (x{:.2})",
        rand.wall_secs,
        default / rand.wall_secs
    );
    0
}

fn cmd_rules(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: stellar-tune rules <file.json>");
        return 2;
    };
    match std::fs::read_to_string(path) {
        Ok(json) => match RuleSet::from_json(&json) {
            Ok(rs) => {
                println!("{} rules:", rs.len());
                for r in &rs.rules {
                    println!("- [{}] {}", r.parameter, r.rule_description);
                    println!("    context: {}", r.tuning_context);
                }
                0
            }
            Err(e) => {
                eprintln!("bad rule set: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            1
        }
    }
}
