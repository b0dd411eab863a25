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

/// Simulator outputs pinned bit for bit, so a change inside the engine
/// (page cache, RPC or lock paths) that shifts every run alike still fails
/// here. Each case runs under the default config and under the registry
/// minimum `llite.max_cached_mb = 64`; every client's footprint exceeds
/// 64 MB, so the second run evicts.
#[test]
fn simulator_outputs_are_pinned_across_cache_budgets() {
    use workloads::mdworkbench::MdWorkbench;
    use workloads::Workload;
    // MDWorkbench keeps one directory of files per rank resident at a time;
    // at any `scaled()` factor cheap enough here that stays under 64 MB per
    // client, so the case widens the directory instead: 120 one-chunk files
    // x 10 ranks is 75 MB.
    let mdw = MdWorkbench {
        dirs_per_rank: 1,
        files_per_dir: 120,
        rounds: 1,
        ..MdWorkbench::mdw_2k()
    };
    let cases: [(ClusterSpec, Box<dyn Workload>); 4] = [
        (
            ClusterSpec::scaled(200, 8),
            WorkloadKind::Ior16M.spec().scaled(0.05),
        ),
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::Ior64K.spec().scaled(0.1),
        ),
        (ClusterSpec::paper_cluster(), Box::new(mdw)),
        (
            ClusterSpec::paper_cluster(),
            WorkloadKind::Io500.spec().scaled(0.2),
        ),
    ];
    // Per case, default then 64 MB: (wall_secs, cache_hit_ratio,
    // dirty_stall_secs) as bits, bulk_rpcs, readahead_bytes.
    #[rustfmt::skip]
    const PINNED: [(u64, u64, u64, u64, u64); 8] = [
        (0x400cb7c462a396d1, 0x3fe9d47ae147ae14, 0x40719a47d6d31398, 3845, 0x1c00000),
        (0x40186bacc13ea42b, 0x3f9d70a3d70a3d71, 0x40719a47d6d31398, 6407, 0x6300000),
        (0x40146a45d6230cca, 0x3f567ce349b0167d, 0x4053951edd8a4e17, 19675, 0x100000),
        (0x40146a45d6230cca, 0x3f567ce349b0167d, 0x4053951edd8a4e17, 19675, 0x100000),
        (0x3fdb87d822e3a726, 0x3ff0000000000000, 0x0, 6000, 0x0),
        (0x3fde175802c2ca62, 0x3feb0a3d70a3d70a, 0x0, 6930, 0x0),
        (0x3ffe7e3e2235c61c, 0x3fef388d5fda67db, 0x4030b194737b3300, 7153, 0x12300000),
        (0x400904cce91eb46d, 0x3fe5038c9867c7b5, 0x4030b194737b3300, 11363, 0x26100000),
    ];
    let mut small = TuningConfig::lustre_default();
    small.llite_max_cached_mb = 64;
    let configs = [TuningConfig::lustre_default(), small];
    let mut pinned = PINNED.iter();
    let mut evicted = false;
    for (topo, w) in cases {
        let sim = PfsSimulator::new(topo);
        let mut hit = [0.0; 2];
        for (i, cfg) in configs.iter().enumerate() {
            let r = sim.run(w.generate(sim.topology(), 3), cfg, 3);
            hit[i] = r.cache_hit_ratio;
            let got = (
                r.wall_secs.to_bits(),
                r.cache_hit_ratio.to_bits(),
                r.dirty_stall_secs.to_bits(),
                r.bulk_rpcs,
                r.readahead_bytes,
            );
            let want = *pinned.next().expect("one pin per run");
            assert_eq!(
                got,
                want,
                "{} at max_cached_mb {}: {r:?}",
                w.name(),
                cfg.llite_max_cached_mb
            );
        }
        evicted |= hit[1] < hit[0];
    }
    assert!(evicted, "no 64 MB run lost cache hits to eviction");
}
