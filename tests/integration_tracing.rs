//! Cross-crate integration: simulator ⇄ Darshan ⇄ Analysis Agent
//! consistency (conservation laws and classification stability).

use darshan::counters::Counter;
use darshan::{tables::to_tables, Collector};
use llmsim::{ModelProfile, SimLlm};
use pfs::{ClusterSpec, PfsSimulator, TuningConfig};
use workloads::WorkloadKind;

fn trace(kind: WorkloadKind, scale: f64) -> (pfs::RunResult, darshan::DarshanLog) {
    let sim = PfsSimulator::new(ClusterSpec::paper_cluster());
    let w = kind.spec().scaled(scale);
    let mut c = Collector::new(kind.label(), sim.topology().total_ranks());
    let r = sim.run_traced_faulted(
        w.generate(sim.topology(), 1),
        &TuningConfig::lustre_default(),
        1,
        None,
        &mut c,
    );
    (r, c.finish())
}

#[test]
fn darshan_conserves_bytes() {
    for kind in [
        WorkloadKind::Ior16M,
        WorkloadKind::MdWorkbench8K,
        WorkloadKind::Io500,
        WorkloadKind::Macsio512K,
    ] {
        let (run, log) = trace(kind, 0.1);
        let traced_written: i64 = log
            .records
            .iter()
            .map(|r| r.get(Counter::BytesWritten))
            .sum();
        let traced_read: i64 = log.records.iter().map(|r| r.get(Counter::BytesRead)).sum();
        assert_eq!(
            traced_written as u64,
            run.bytes_written,
            "{}: written mismatch",
            kind.label()
        );
        assert_eq!(
            traced_read as u64,
            run.bytes_read,
            "{}: read mismatch",
            kind.label()
        );
    }
}

#[test]
fn analysis_classification_is_stable_across_scales_and_configs() {
    use agents::WorkloadClass;
    let expectations = [
        (WorkloadKind::Ior16M, WorkloadClass::LargeSequentialShared),
        (WorkloadKind::Ior64K, WorkloadClass::RandomSmallShared),
        (
            WorkloadKind::MdWorkbench2K,
            WorkloadClass::MetadataSmallFiles,
        ),
        (WorkloadKind::Io500, WorkloadClass::MixedMultiPhase),
        (WorkloadKind::Macsio512K, WorkloadClass::SmallObjectDumps),
    ];
    for (kind, expected) in expectations {
        for scale in [0.1, 0.3] {
            let (_, log) = trace(kind, scale);
            let (header, tables) = to_tables(&log);
            let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
            let mut agent = agents::AnalysisAgent::new(&mut backend);
            let report = agent.initial_report(&header, &tables);
            assert_eq!(
                report.classify(),
                expected,
                "{} at scale {scale}: {report:?}",
                kind.label()
            );
        }
    }
}

#[test]
fn runtime_header_tracks_wall_time() {
    let (run, log) = trace(WorkloadKind::Amrex, 0.25);
    assert!(log.header.runtime_secs > 0.0);
    // Darshan sees the last application op; writeback drain may extend the
    // engine's wall beyond it, never the reverse.
    assert!(log.header.runtime_secs <= run.wall_secs + 1e-9);
    assert!(log.header.runtime_secs > run.wall_secs * 0.5);
}

#[test]
fn shared_file_detection_matches_workload_structure() {
    // IOR: one shared file. MDWorkbench: none.
    let (_, ior_log) = trace(WorkloadKind::Ior16M, 0.1);
    let (header, tables) = to_tables(&ior_log);
    let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 1);
    let report = agents::AnalysisAgent::new(&mut backend).initial_report(&header, &tables);
    assert_eq!(report.shared_file_count, 1);
    assert_eq!(report.file_count, 1);

    let (_, mdw_log) = trace(WorkloadKind::MdWorkbench8K, 0.1);
    let (header, tables) = to_tables(&mdw_log);
    let mut backend = SimLlm::new(ModelProfile::gpt_4o(), 2);
    let report = agents::AnalysisAgent::new(&mut backend).initial_report(&header, &tables);
    assert_eq!(report.shared_file_count, 0);
    assert!(report.file_count > 100);
}
