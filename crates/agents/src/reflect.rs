//! Reflect & Summarize (§4.3.2, §4.4): distill a finished tuning run into
//! generalized rules.
//!
//! The agent compares the best configuration against the default, keeps the
//! parameters that contributed to improving attempts, and renders each as a
//! generalized [`Rule`] — no literal application names, values abstracted
//! where a structural recommendation exists ("all available OSTs", "match
//! the transfer size", "at least N").

use crate::report::IoReport;
use crate::rules::{ContextTag, Guidance, Rule};
use crate::tuning::Attempt;
use llmsim::SimLlm;
use pfs::params::{TuningConfig, TUNABLE_NAMES};

/// Generate rules from a completed run. Returns an empty vector when the
/// run found no improvement worth learning from.
///
/// `extra_tags` are appended to the report-derived context — the session
/// layer passes the scenario tags ([`ContextTag::is_scenario`]) of the run
/// (degraded topology, noisy neighbor), so rules learned under faults or
/// contention carry their regime in the context and shard separately.
pub fn reflect(
    backend: &mut SimLlm,
    report: &IoReport,
    history: &[Attempt],
    baseline_wall: f64,
    extra_tags: &[ContextTag],
) -> Vec<Rule> {
    let Some(best) = history
        .iter()
        .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
    else {
        return Vec::new();
    };
    // Only meaningful improvements become knowledge.
    if best.wall_secs >= baseline_wall * 0.97 {
        backend.charge(
            "Reflect on the tuning run and summarize reusable rules.",
            "No configuration meaningfully outperformed the default; no rules \
             recorded.",
        );
        return Vec::new();
    }
    let default = TuningConfig::lustre_default();
    let mut tags = ContextTag::tags_for(report);
    for t in extra_tags {
        if !tags.contains(t) {
            tags.push(*t);
        }
    }
    let mut rules = Vec::new();
    for name in TUNABLE_NAMES {
        let best_v = best.config.get(name).expect("known");
        let def_v = default.get(name).expect("known");
        if best_v == def_v {
            continue;
        }
        let guidance = generalize(name, best_v, report);
        rules.push(Rule::new(name, guidance, &tags));
    }
    let rendered: String = rules
        .iter()
        .map(|r| format!("{} :: {}\n", r.parameter, r.rule_description))
        .collect();
    backend.charge(
        &format!(
            "Reflect on the tuning run (best {:.3}s vs default {:.3}s over {} \
             attempts) and summarize reusable rules as JSON with Parameter, \
             Rule Description and Tuning Context keys. Exclude the application \
             name; generalize recommendations.",
            best.wall_secs,
            baseline_wall,
            history.len()
        ),
        &rendered,
    );
    rules
}

/// Abstract a concrete best value into transferable guidance.
fn generalize(name: &str, value: i64, report: &IoReport) -> Guidance {
    match name {
        "stripe_count" => {
            if value <= 0 || value >= 4 {
                Guidance::SetToAllOsts
            } else if value == 1 {
                Guidance::SetToOne
            } else {
                Guidance::SetTo(value)
            }
        }
        "stripe_size" => {
            // If the best stripe tracks the transfer size, record the
            // structural relation, not the number (the paper's Fig. 4
            // example: "informed by the file size / transfer size").
            let avg = report.avg_write_size;
            if avg > 0.0 && (value as f64) >= avg * 0.5 && (value as f64) <= avg * 4.0 {
                Guidance::MatchTransferSize
            } else {
                Guidance::SetTo(value)
            }
        }
        _ if value == 0 => Guidance::Disable,
        _ => Guidance::RaiseToAtLeast(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::{ModelProfile, SimLlm};

    fn seq_report() -> IoReport {
        IoReport {
            nprocs: 50,
            avg_write_size: 16e6,
            seq_write_fraction: 0.95,
            consec_write_fraction: 0.95,
            shared_file_count: 1,
            file_count: 1,
            avg_file_bytes: 19e9,
            max_file_bytes: 19 << 30,
            bytes_written: 19 << 30,
            bytes_read: 19 << 30,
            seq_read_fraction: 0.9,
            dominant_module: "MPI-IO".into(),
            ..Default::default()
        }
    }

    fn improved_history() -> Vec<Attempt> {
        let mut best = TuningConfig::lustre_default();
        best.stripe_count = -1;
        best.stripe_size = 16 << 20;
        best.osc_max_rpcs_in_flight = 64;
        best.llite_max_read_ahead_mb = 512;
        vec![
            Attempt {
                config: best,
                wall_secs: 8.0,
            },
            Attempt {
                config: TuningConfig::lustre_default(),
                wall_secs: 35.0,
            },
        ]
    }

    #[test]
    fn rules_generated_for_changed_params_only() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let rules = reflect(&mut b, &seq_report(), &improved_history(), 37.0, &[]);
        let params: Vec<&str> = rules.iter().map(|r| r.parameter.as_str()).collect();
        assert!(params.contains(&"stripe_count"));
        assert!(params.contains(&"stripe_size"));
        assert!(params.contains(&"osc.max_rpcs_in_flight"));
        assert!(!params.contains(&"llite.statahead_max"), "unchanged param");
    }

    #[test]
    fn stripe_rules_are_generalized() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let rules = reflect(&mut b, &seq_report(), &improved_history(), 37.0, &[]);
        let sc = rules
            .iter()
            .find(|r| r.parameter == "stripe_count")
            .unwrap();
        assert_eq!(sc.guidance(), Some(Guidance::SetToAllOsts));
        let ss = rules.iter().find(|r| r.parameter == "stripe_size").unwrap();
        assert_eq!(ss.guidance(), Some(Guidance::MatchTransferSize));
        // Context carries workload characteristics, not app names.
        assert!(sc.tuning_context.contains("large sequential writes"));
    }

    #[test]
    fn no_rules_without_improvement() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let history = vec![Attempt {
            config: TuningConfig::lustre_default(),
            wall_secs: 37.0,
        }];
        let rules = reflect(&mut b, &seq_report(), &history, 37.0, &[]);
        assert!(rules.is_empty());
    }

    #[test]
    fn empty_history_no_rules() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        assert!(reflect(&mut b, &seq_report(), &[], 10.0, &[]).is_empty());
    }

    #[test]
    fn scenario_tags_land_in_rule_contexts() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        let rules = reflect(
            &mut b,
            &seq_report(),
            &improved_history(),
            37.0,
            &[ContextTag::DegradedTopology],
        );
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(
                r.tags().contains(&ContextTag::DegradedTopology),
                "scenario tag missing from {:?}",
                r.tuning_context
            );
        }
        // And the resulting rules no longer match a pristine probe.
        let pristine = ContextTag::tags_for(&seq_report());
        assert!(rules.iter().all(|r| r.match_score(&pristine) == 0.0));
    }

    #[test]
    fn reflection_charges_tokens() {
        let mut b = SimLlm::new(ModelProfile::claude_37_sonnet(), 1);
        reflect(&mut b, &seq_report(), &improved_history(), 37.0, &[]);
        assert_eq!(b.usage().calls, 1);
    }
}
