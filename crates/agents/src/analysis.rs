//! The Analysis Agent (§4.3.1): a code-executing agent operating on the
//! Darshan dataframes.
//!
//! In the paper this is an OpenInterpreter-driven LLM writing pandas code;
//! here the "generated code" is a fixed library of table programs the agent
//! executes over [`darshan::Table`]s — the same queries an LLM writes for
//! this task (group-bys, sums, ratios, size histograms). The agent has two
//! entry points matching its two roles: [`AnalysisAgent::initial_report`]
//! and [`AnalysisAgent::answer`] for the Tuning Agent's follow-ups.

use crate::report::IoReport;
use darshan::counters::{Counter, FCounter, COUNTERS};
use darshan::Table;
use llmsim::SimLlm;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Follow-up questions the Tuning Agent may pose (the "minor loop").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisQuestion {
    /// Distribution of file sizes (small-file dominance).
    FileSizeDistribution,
    /// Ratio of metadata operations to data operations.
    MetaToDataRatio,
    /// How many files are accessed by multiple ranks.
    SharedFileAccess,
    /// Histogram of access sizes.
    AccessSizeProfile,
    /// Are accesses sequential or random?
    Sequentiality,
    /// Per-rank imbalance on shared files.
    RankImbalance,
}

impl AnalysisQuestion {
    /// The prompt text the Tuning Agent sends.
    pub fn prompt(&self) -> &'static str {
        match self {
            AnalysisQuestion::FileSizeDistribution => {
                "Provide more detailed file size information: how large are \
                 the files the application touches, and what fraction are \
                 small?"
            }
            AnalysisQuestion::MetaToDataRatio => {
                "What is the ratio of metadata operations to data operations?"
            }
            AnalysisQuestion::SharedFileAccess => {
                "Are files shared between ranks or private per process?"
            }
            AnalysisQuestion::AccessSizeProfile => {
                "Summarize the distribution of read and write request sizes."
            }
            AnalysisQuestion::Sequentiality => {
                "Are the accesses sequential or random within files?"
            }
            AnalysisQuestion::RankImbalance => "Is I/O time balanced across ranks on shared files?",
        }
    }
}

/// A follow-up answer: prose plus the headline number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// The question answered.
    pub question: AnalysisQuestion,
    /// Prose summary (goes into the Tuning Agent's context).
    pub text: String,
    /// Headline value (ratio/fraction/bytes, question-dependent).
    pub value: f64,
}

/// The Analysis Agent.
pub struct AnalysisAgent<'b> {
    backend: &'b mut SimLlm,
}

/// Maximum dataframe rows rendered into the agent's context. The paper's
/// Analysis Agent works over the full dataframes (via generated code), which
/// is why it dominates input-token volume (§5.7: ~400k tokens per run); the
/// digest reproduces that cost structure while keeping prompts bounded.
const DIGEST_ROW_CAP: usize = 1500;

/// Render the session context the agent carries: header, column glossary,
/// and a row digest of every dataframe. Stable across calls so the prompt
/// cache resolves it after the first turn.
pub fn tables_digest(tables: &[Table]) -> String {
    // Writing into a `String` cannot fail, so the `fmt::Result`s below are
    // dropped.
    let mut s = String::with_capacity(1 << 16);
    s.push_str("COLUMN DESCRIPTIONS:\n");
    for (k, v) in darshan::column_descriptions() {
        let _ = writeln!(s, "{k}: {v}");
    }
    for t in tables {
        let _ = writeln!(s, "\nDATAFRAME {} ({} rows):", t.name, t.len());
        s.push_str(&t.columns.join(","));
        s.push('\n');
        for row in t.rows.iter().take(DIGEST_ROW_CAP) {
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_cell(&mut s, v);
            }
            s.push('\n');
        }
        if t.len() > DIGEST_ROW_CAP {
            let _ = writeln!(s, "... ({} rows truncated)", t.len() - DIGEST_ROW_CAP);
        }
    }
    s
}

/// Append `v` as `format!("{v:.0}")` renders it. An integral value below
/// 1e15 in magnitude converts to `i64` exactly and prints the same digits
/// through integer formatting, which is far cheaper; -0.0 (printed "-0"),
/// fractions (rounded half to even) and everything else take the float
/// formatter.
fn push_cell(s: &mut String, v: f64) {
    let _ = if v.fract() == 0.0 && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) {
        write!(s, "{}", v as i64)
    } else {
        write!(s, "{v:.0}")
    };
}

impl<'b> AnalysisAgent<'b> {
    /// Create an agent over an LLM backend (GPT-4o in the paper).
    pub fn new(backend: &'b mut SimLlm) -> Self {
        AnalysisAgent { backend }
    }

    /// Produce the initial I/O report from the log header and tables.
    pub fn initial_report(&mut self, header: &str, tables: &[Table]) -> IoReport {
        let report = build_report(header, tables);
        // Header and task come *after* the digest so follow-up calls share
        // the long digest prefix (prompt-cache friendly, as in §5.7).
        let prompt = format!(
            "You are the Analysis Agent operating on loaded pandas dataframes.\n{}\n\
             DARSHAN HEADER:\n{header}\n\
             Task: summarize the application's I/O behavior, identify the files \
             accessed, and highlight anything useful for tuning the parallel \
             file system parameters.",
            tables_digest(tables)
        );
        let response = report.render();
        self.backend.charge(&prompt, &response);
        report
    }

    /// Answer a follow-up question from the Tuning Agent. The session keeps
    /// the dataframe digest in context (prefix-cached after the first call).
    pub fn answer(&mut self, q: AnalysisQuestion, tables: &[Table]) -> Answer {
        let ans = compute_answer(q, tables);
        let prompt = format!(
            "You are the Analysis Agent operating on loaded pandas dataframes.\n{}\n\
             Follow-up question: {}",
            tables_digest(tables),
            q.prompt()
        );
        self.backend.charge(&prompt, &ans.text);
        ans
    }
}

fn sum_all(tables: &[Table], col: &str) -> f64 {
    tables.iter().map(|t| t.sum(col)).sum()
}

/// Build the I/O report with plain table programs.
pub fn build_report(header: &str, tables: &[Table]) -> IoReport {
    let mut r = IoReport::default();
    // Header lines: "# exe: X", "# nprocs: N", "# run time: T s", "# files: F"
    for line in header.lines() {
        if let Some(v) = line.strip_prefix("# nprocs: ") {
            r.nprocs = v.trim().parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("# run time: ") {
            r.runtime_secs = v.trim_end_matches(" s").trim().parse().unwrap_or(0.0);
        }
    }

    r.bytes_written = sum_all(tables, Counter::BytesWritten.name()) as u64;
    r.bytes_read = sum_all(tables, Counter::BytesRead.name()) as u64;
    let writes = sum_all(tables, Counter::Writes.name());
    let reads = sum_all(tables, Counter::Reads.name());
    r.data_ops = (writes + reads) as u64;
    let opens = sum_all(tables, Counter::Opens.name());
    let stats = sum_all(tables, Counter::Stats.name());
    let unlinks = sum_all(tables, Counter::Unlinks.name());
    let fsyncs = sum_all(tables, Counter::Fsyncs.name());
    r.meta_ops = (opens + stats + unlinks + fsyncs) as u64;
    r.unlinks = unlinks as u64;
    r.meta_ratio = if r.meta_ops + r.data_ops > 0 {
        r.meta_ops as f64 / (r.meta_ops + r.data_ops) as f64
    } else {
        0.0
    };
    r.avg_write_size = if writes > 0.0 {
        r.bytes_written as f64 / writes
    } else {
        0.0
    };
    r.avg_read_size = if reads > 0.0 {
        r.bytes_read as f64 / reads
    } else {
        0.0
    };

    // Dominant module by bytes moved.
    r.dominant_module = tables
        .iter()
        .max_by(|a, b| {
            let ab = a.sum(Counter::BytesWritten.name()) + a.sum(Counter::BytesRead.name());
            let bb = b.sum(Counter::BytesWritten.name()) + b.sum(Counter::BytesRead.name());
            ab.total_cmp(&bb)
        })
        .map(|t| t.name.clone())
        .unwrap_or_default();

    // Per-file statistics via group-by on FILE_ID.
    let mut file_sizes: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut file_ranks: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for t in tables {
        let (Some(fi), Some(ri), Some(mwi), Some(mri)) = (
            t.col("FILE_ID"),
            t.col("RANK"),
            t.col(Counter::MaxByteWritten.name()),
            t.col(Counter::MaxByteRead.name()),
        ) else {
            continue;
        };
        for row in &t.rows {
            let f = row[fi] as u64;
            let sz = row[mwi].max(row[mri]);
            let e = file_sizes.entry(f).or_default();
            *e = e.max(sz);
            *file_ranks.entry(f).or_default() += 1;
            let _ = ri;
        }
    }
    r.file_count = file_sizes.len() as u64;
    r.shared_file_count = file_ranks.values().filter(|&&n| n > 1).count() as u64;
    r.avg_file_bytes = if r.file_count > 0 {
        file_sizes.values().sum::<f64>() / r.file_count as f64
    } else {
        0.0
    };
    r.max_file_bytes = file_sizes.values().fold(0.0f64, |a, &b| a.max(b)) as u64;
    r.files_per_rank = if r.nprocs > 0 {
        r.file_count as f64 / r.nprocs as f64
    } else {
        0.0
    };
    r.stats_per_file = if r.file_count > 0 {
        stats / r.file_count as f64
    } else {
        0.0
    };

    // A record's first write/read has no predecessor and can never count as
    // sequential; exclude those from the denominator.
    let seq_writes = sum_all(tables, Counter::SeqWrites.name());
    let seq_reads = sum_all(tables, Counter::SeqReads.name());
    let mut writing_records = 0.0;
    let mut reading_records = 0.0;
    for t in tables {
        let (Some(wi), Some(ri)) = (t.col(Counter::Writes.name()), t.col(Counter::Reads.name()))
        else {
            continue;
        };
        for row in &t.rows {
            if row[wi] > 0.0 {
                writing_records += 1.0;
            }
            if row[ri] > 0.0 {
                reading_records += 1.0;
            }
        }
    }
    r.seq_write_fraction = if writes - writing_records > 0.0 {
        (seq_writes / (writes - writing_records)).min(1.0)
    } else {
        1.0
    };
    r.seq_read_fraction = if reads - reading_records > 0.0 {
        (seq_reads / (reads - reading_records)).min(1.0)
    } else {
        1.0
    };
    let consec_writes = sum_all(tables, Counter::ConsecWrites.name());
    let consec_reads = sum_all(tables, Counter::ConsecReads.name());
    r.consec_write_fraction = if writes - writing_records > 0.0 {
        (consec_writes / (writes - writing_records)).min(1.0)
    } else {
        1.0
    };
    r.consec_read_fraction = if reads - reading_records > 0.0 {
        (consec_reads / (reads - reading_records)).min(1.0)
    } else {
        1.0
    };
    let switches = sum_all(tables, Counter::RwSwitches.name());
    r.rw_switches_per_file = if r.file_count > 0 {
        switches / r.file_count as f64
    } else {
        0.0
    };
    r.meta_time_secs = sum_all(tables, FCounter::MetaTime.name());
    r.data_time_secs =
        sum_all(tables, FCounter::ReadTime.name()) + sum_all(tables, FCounter::WriteTime.name());

    // Mean shared-file variance of per-rank time.
    let var_col = FCounter::VarianceRankTime.name();
    let mut vsum = 0.0;
    let mut vcount = 0u64;
    for t in tables {
        if let Some(vals) = t.column(var_col) {
            for v in vals {
                if v > 0.0 {
                    vsum += v;
                    vcount += 1;
                }
            }
        }
    }
    r.rank_time_variance = if vcount > 0 {
        vsum / vcount as f64
    } else {
        0.0
    };
    r
}

fn compute_answer(q: AnalysisQuestion, tables: &[Table]) -> Answer {
    match q {
        AnalysisQuestion::FileSizeDistribution => {
            let r = build_report("", tables);
            let small_cut = 1 << 20;
            // Count files below 1 MiB via MAX_BYTE columns per record.
            let mut small = 0u64;
            let mut total = 0u64;
            let mut seen = std::collections::BTreeSet::new();
            for t in tables {
                let (Some(fi), Some(mwi)) =
                    (t.col("FILE_ID"), t.col(Counter::MaxByteWritten.name()))
                else {
                    continue;
                };
                for row in &t.rows {
                    let f = row[fi] as u64;
                    if seen.insert(f) {
                        total += 1;
                        if (row[mwi] as u64) < small_cut {
                            small += 1;
                        }
                    }
                }
            }
            let frac = if total > 0 {
                small as f64 / total as f64
            } else {
                0.0
            };
            Answer {
                question: q,
                text: format!(
                    "{total} distinct files; {small} ({:.0}%) are smaller than 1 MiB. \
                     Mean file size {:.1} KiB, largest {:.1} MiB.",
                    frac * 100.0,
                    r.avg_file_bytes / 1024.0,
                    r.max_file_bytes as f64 / (1 << 20) as f64
                ),
                value: frac,
            }
        }
        AnalysisQuestion::MetaToDataRatio => {
            let r = build_report("", tables);
            Answer {
                question: q,
                text: format!(
                    "{} metadata operations against {} data operations: \
                     metadata ratio {:.2}. Metadata time {:.2}s vs data time {:.2}s.",
                    r.meta_ops, r.data_ops, r.meta_ratio, r.meta_time_secs, r.data_time_secs
                ),
                value: r.meta_ratio,
            }
        }
        AnalysisQuestion::SharedFileAccess => {
            let r = build_report("", tables);
            let frac = if r.file_count > 0 {
                r.shared_file_count as f64 / r.file_count as f64
            } else {
                0.0
            };
            Answer {
                question: q,
                text: format!(
                    "{} of {} files are accessed by multiple ranks ({:.0}%).",
                    r.shared_file_count,
                    r.file_count,
                    frac * 100.0
                ),
                value: frac,
            }
        }
        AnalysisQuestion::AccessSizeProfile => {
            // Modal write bucket across the size histogram columns.
            let mut best = ("", 0.0f64);
            for c in COUNTERS {
                let n = c.name();
                if n.starts_with("SIZE_WRITE") {
                    let s = sum_all(tables, n);
                    if s > best.1 {
                        best = (n, s);
                    }
                }
            }
            let r = build_report("", tables);
            Answer {
                question: q,
                text: format!(
                    "Write sizes concentrate in bucket {} ({} requests); \
                     mean write {:.1} KiB, mean read {:.1} KiB.",
                    best.0,
                    best.1 as u64,
                    r.avg_write_size / 1024.0,
                    r.avg_read_size / 1024.0
                ),
                value: r.avg_write_size,
            }
        }
        AnalysisQuestion::Sequentiality => {
            let r = build_report("", tables);
            Answer {
                question: q,
                text: format!(
                    "{:.0}% of writes and {:.0}% of reads are sequential within \
                     their file.",
                    r.seq_write_fraction * 100.0,
                    r.seq_read_fraction * 100.0
                ),
                value: r.seq_write_fraction,
            }
        }
        AnalysisQuestion::RankImbalance => {
            let r = build_report("", tables);
            Answer {
                question: q,
                text: format!(
                    "Mean variance of per-rank I/O time on shared files: {:.4}.",
                    r.rank_time_variance
                ),
                value: r.rank_time_variance,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::{ModelProfile, SimLlm};
    use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
    use proptest::prelude::*;
    use workloads::WorkloadKind;

    fn tables_for(kind: WorkloadKind) -> (String, Vec<Table>) {
        let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
        let spec = kind.spec().scaled(0.1);
        let mut collector = darshan::Collector::new(kind.label(), 50);
        sim.run_traced_faulted(
            spec.generate(sim.topology(), 1),
            &TuningConfig::lustre_default(),
            1,
            None,
            &mut collector,
        );
        darshan::tables::to_tables(&collector.finish())
    }

    #[test]
    fn ior_16m_report_classifies_large_sequential() {
        let (header, tables) = tables_for(WorkloadKind::Ior16M);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let mut agent = AnalysisAgent::new(&mut backend);
        let r = agent.initial_report(&header, &tables);
        assert_eq!(r.nprocs, 50);
        assert!(r.avg_write_size > 8e6, "{}", r.avg_write_size);
        assert!(r.seq_write_fraction > 0.9);
        assert_eq!(r.shared_file_count, 1);
        assert_eq!(
            r.classify(),
            crate::report::WorkloadClass::LargeSequentialShared
        );
    }

    #[test]
    fn ior_64k_report_classifies_random_small() {
        let (header, tables) = tables_for(WorkloadKind::Ior64K);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let mut agent = AnalysisAgent::new(&mut backend);
        let r = agent.initial_report(&header, &tables);
        assert!(r.avg_write_size < 100_000.0);
        assert!(r.consec_write_fraction < 0.2, "{}", r.consec_write_fraction);
        assert_eq!(
            r.classify(),
            crate::report::WorkloadClass::RandomSmallShared
        );
    }

    #[test]
    fn mdworkbench_report_classifies_metadata() {
        let (header, tables) = tables_for(WorkloadKind::MdWorkbench8K);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let mut agent = AnalysisAgent::new(&mut backend);
        let r = agent.initial_report(&header, &tables);
        assert!(r.meta_ratio > 0.5, "{}", r.meta_ratio);
        assert!(r.avg_file_bytes < 100_000.0);
        assert_eq!(
            r.classify(),
            crate::report::WorkloadClass::MetadataSmallFiles
        );
    }

    #[test]
    fn io500_report_classifies_mixed() {
        let (header, tables) = tables_for(WorkloadKind::Io500);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let mut agent = AnalysisAgent::new(&mut backend);
        let r = agent.initial_report(&header, &tables);
        assert_eq!(r.classify(), crate::report::WorkloadClass::MixedMultiPhase);
    }

    #[test]
    fn follow_up_answers_are_consistent() {
        let (_, tables) = tables_for(WorkloadKind::MdWorkbench8K);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        let mut agent = AnalysisAgent::new(&mut backend);
        let a = agent.answer(AnalysisQuestion::FileSizeDistribution, &tables);
        assert!(a.value > 0.9, "small-file fraction {}", a.value);
        let b = agent.answer(AnalysisQuestion::MetaToDataRatio, &tables);
        assert!(b.value > 0.5);
        assert!(b.text.contains("metadata ratio"));
    }

    #[test]
    fn agent_charges_tokens() {
        let (header, tables) = tables_for(WorkloadKind::Ior16M);
        let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
        {
            let mut agent = AnalysisAgent::new(&mut backend);
            agent.initial_report(&header, &tables);
            agent.answer(AnalysisQuestion::Sequentiality, &tables);
        }
        assert_eq!(backend.usage().calls, 2);
        assert!(backend.usage().input_tokens > 50);
    }

    fn cell(v: f64) -> String {
        let mut s = String::new();
        push_cell(&mut s, v);
        s
    }

    #[test]
    fn digest_cells_match_float_formatting_at_the_edges() {
        for v in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -0.4,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            -1e15 + 1.0,
            -1e15,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(cell(v), format!("{v:.0}"), "bits {:#x}", v.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The digest renders every `f64` exactly as `format!("{v:.0}")`:
        /// arbitrary bit patterns (NaNs, infinities, subnormals, huge and
        /// tiny values), plus small integers, integers up to 1e15 either
        /// side of zero and halves, where the integer path and the
        /// half-to-even rounding meet.
        #[test]
        fn digest_cells_match_float_formatting(
            bits in 0..u64::MAX,
            small in -5_000_000i64..5_000_000,
            wide in 0u64..2_000_000_000_000_001,
        ) {
            let wide = wide as f64 - 1e15;
            for v in [f64::from_bits(bits), small as f64, small as f64 + 0.5, wide] {
                prop_assert_eq!(cell(v), format!("{v:.0}"), "bits {:#x}", v.to_bits());
            }
        }
    }
}
