//! The simulation engine: executes per-rank operation streams against the
//! cluster's shared resources.
//!
//! Each rank is a sequential program; the engine interleaves ranks through a
//! deterministic event queue (one event per operation), so shared resources —
//! NICs, OST disks, the MDS pool, OSC/MDC windows, extent locks — see
//! arrivals in global time order. Barriers park ranks until all arrive.
//!
//! The engine is built to scale to datacenter-sized topologies (100k ranks ×
//! 1k OSTs) without changing a single canonical byte relative to a dense
//! small-grid run: per-OST and per-(client, OST) state is materialized
//! lazily on first touch, rank cursors are structure-of-arrays, hot maps use
//! a fixed-key deterministic hasher ([`simcore::hash`]), and same-timestamp
//! events drain in batches ([`EventQueue::pop_run_into`]). See
//! `ARCHITECTURE.md` § "Simulation performance model" for the cost
//! accounting and the argument why none of this is observable.

use crate::faults::FaultPlan;
use crate::model::cache::{chunks_covering, PageCache, CHUNK_BYTES};
use crate::model::disk::DiskCalendar;
use crate::model::state::{
    DirState, DirtyRanges, FileState, LockTable, MdcState, OscState, RaState, SaState,
};
use crate::ops::{DirId, FileId, IoOp, Module, RankStream};
use crate::params::TuningConfig;
use crate::stripe::{Layout, ObjectExtent, PlacementCache};
use crate::topology::ClusterSpec;
use crate::trace::{OpClass, OpRecord, TraceSink};
use simcore::hash::FxBuildHasher;
use simcore::resources::{BandwidthChannel, MultiServer};
use simcore::time::{Duration, SimTime};
use simcore::{EventQueue, SimRng};
use std::collections::HashMap;

/// Aggregate diagnostics of one run (beyond what Darshan exposes).
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Total bytes written by the application.
    pub bytes_written: u64,
    /// Total bytes read by the application.
    pub bytes_read: u64,
    /// Reads served from client page cache.
    pub cache_hit_chunks: u64,
    /// Reads that missed and hit the wire.
    pub cache_miss_chunks: u64,
    /// LDLM revocations observed.
    pub lock_revocations: u64,
    /// Cumulative writer stalls on `osc.max_dirty_mb`.
    pub dirty_stall_secs: f64,
    /// Metadata operations serviced by the MDS.
    pub mds_ops: u64,
    /// Bulk RPCs issued (read + write + readahead).
    pub bulk_rpcs: u64,
    /// Readahead RPC bytes issued.
    pub readahead_bytes: u64,
    /// Stats served by the statahead fast path.
    pub statahead_hits: u64,
    /// Aggregate OST disk busy seconds.
    pub disk_busy_secs: f64,
    /// Sequential transfers observed across OST disks.
    pub disk_seq_ops: u64,
    /// Random (positioned) transfers observed across OST disks.
    pub disk_rand_ops: u64,
}

enum Event {
    RankReady(usize),
}

/// Fixed per-message NIC overhead shared by client and OSS channels.
fn nic_overhead() -> Duration {
    Duration::from_micros(20)
}

/// The engine for one run. Construct with [`Engine::new`], call
/// [`Engine::run`] once.
pub struct Engine<'s> {
    topo: ClusterSpec,
    cfg: TuningConfig,
    run_noise: f64,
    faults: Option<FaultPlan>,
    rng: SimRng,

    client_nics: Vec<BandwidthChannel>,
    // Server-side resources are materialized lazily on first touch: a
    // 1k-OST topology running a workload that only strides a few OSTs per
    // client never pays construction (or memory) for the rest. `None` slots
    // are observationally identical to a freshly-constructed, never-used
    // resource, so laziness cannot change any canonical output.
    oss_nics: Vec<Option<BandwidthChannel>>,
    disks: Vec<Option<DiskCalendar>>,
    mds: MultiServer,

    // Sparse per-(client, OST) OSC state. The dense layout was
    // client_count × ost_count entries (2M OscStates at the 100k-rank
    // point), nearly all of them never touched; every access is a point
    // lookup keyed by (client, ost), so a deterministic-hash map
    // materializing entries on first touch is order-safe.
    oscs: HashMap<(u32, u32), OscState, FxBuildHasher>,
    mdcs: Vec<MdcState>,    // per client
    caches: Vec<PageCache>, // per client

    // determinism audit (D002): every map below is accessed by point
    // lookups keyed from deterministic op streams; the only iterations are
    // `agg` flushes (keys collected and sorted before RPC issue — hash
    // order is laundered) and the annotated max-reduction over `files`.
    agg: HashMap<(u32, FileId, u32), DirtyRanges, FxBuildHasher>, // (client, file, obj_index)
    ra: HashMap<(u32, FileId), RaState, FxBuildHasher>,
    ra_ready: HashMap<(u32, FileId, u64), SimTime, FxBuildHasher>, // chunk -> ready time
    ra_inflight: Vec<std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>>, // per client (end, bytes)
    ra_inflight_bytes: Vec<u64>,
    sa: HashMap<(u32, DirId), SaState, FxBuildHasher>,
    locks: HashMap<FileId, LockTable, FxBuildHasher>,
    files: HashMap<FileId, FileState, FxBuildHasher>,
    dirs: HashMap<DirId, DirState, FxBuildHasher>,

    next_start_ost: u32,
    // Per-op allocation avoidance: memoized stripe→OST tables plus reusable
    // buffers (taken/restored around each use, like `scratch_extents`).
    // `scratch_runs`/`scratch_starts` serve flush_object and do_read's miss
    // accumulation; `scratch_objs`/`scratch_file_objs` serve the flush key
    // collections. Holders never overlap: flush_object never re-enters
    // itself, and do_read never flushes.
    placements: PlacementCache,
    scratch_extents: Vec<ObjectExtent>,
    scratch_runs: Vec<(u64, u64)>,
    scratch_starts: Vec<u64>,
    scratch_objs: Vec<u32>,
    scratch_file_objs: Vec<(FileId, u32)>,
    diag: Diagnostics,
    sink: &'s mut dyn TraceSink,
}

impl<'s> Engine<'s> {
    /// Build an engine for `topo` under `cfg`, seeded with `seed`.
    pub fn new(
        topo: &ClusterSpec,
        cfg: &TuningConfig,
        seed: u64,
        sink: &'s mut dyn TraceSink,
    ) -> Self {
        Self::with_faults(topo, cfg, seed, sink, None)
    }

    /// Like [`Engine::new`], but with an optional [`FaultPlan`] whose
    /// degradation factors multiply OST disk service times in simulated
    /// (event-queue) time. `None` is a pristine cluster.
    pub fn with_faults(
        topo: &ClusterSpec,
        cfg: &TuningConfig,
        seed: u64,
        sink: &'s mut dyn TraceSink,
        faults: Option<&FaultPlan>,
    ) -> Self {
        let mut rng = SimRng::new(seed);
        let run_noise = rng.lognormal_factor(topo.run_noise_sigma);
        let client_nics = (0..topo.client_count)
            .map(|_| BandwidthChannel::new(topo.nic_bytes_per_sec, nic_overhead()))
            .collect();
        // Lazy server-side state: every slot starts empty and is built on
        // first touch (see `disk_at`/`oss_nic_at`/`osc_mut`). None of the
        // constructors draw from the RNG, so laziness cannot shift the
        // deterministic draw order either.
        let oss_nics = (0..topo.oss_count).map(|_| None).collect();
        let disks = (0..topo.ost_count()).map(|_| None).collect();
        let mds = MultiServer::new(topo.mds_threads as usize);
        let mdcs = (0..topo.client_count)
            .map(|_| {
                MdcState::new(
                    cfg.mdc_max_rpcs_in_flight as usize,
                    cfg.mdc_max_mod_rpcs_in_flight as usize,
                )
            })
            .collect();
        let caches = (0..topo.client_count)
            .map(|_| PageCache::new(cfg.llite_max_cached_mb as u64 * (1 << 20)))
            .collect();
        let ra_inflight = (0..topo.client_count)
            .map(|_| std::collections::BinaryHeap::new())
            .collect();
        Engine {
            topo: topo.clone(),
            cfg: cfg.clone(),
            run_noise,
            faults: faults.filter(|p| !p.is_empty()).cloned(),
            rng,
            client_nics,
            oss_nics,
            disks,
            mds,
            oscs: HashMap::default(),
            mdcs,
            caches,
            agg: HashMap::default(),
            ra: HashMap::default(),
            ra_ready: HashMap::default(),
            ra_inflight,
            ra_inflight_bytes: vec![0; topo.client_count as usize],
            sa: HashMap::default(),
            locks: HashMap::default(),
            files: HashMap::default(),
            dirs: HashMap::default(),
            next_start_ost: 0,
            placements: PlacementCache::new(topo.ost_count()),
            scratch_extents: Vec::new(),
            scratch_runs: Vec::new(),
            scratch_starts: Vec::new(),
            scratch_objs: Vec::new(),
            scratch_file_objs: Vec::new(),
            diag: Diagnostics::default(),
            sink,
        }
    }

    /// The (client, ost) OSC, materialized on first touch. A fresh
    /// `OscState` is indistinguishable from a dense-constructed one that was
    /// never used, so lazy materialization is invisible to the simulation.
    fn osc_mut(&mut self, client: u32, ost: u32) -> &mut OscState {
        let depth = self.cfg.osc_max_rpcs_in_flight as usize;
        self.oscs
            .entry((client, ost))
            .or_insert_with(|| OscState::new(depth))
    }

    /// The disk calendar of `ost`, materialized on first touch. An
    /// associated function (not `&mut self`) so call sites can borrow
    /// `self.rng` / `self.diag` alongside the returned calendar.
    fn disk_at<'a>(
        disks: &'a mut [Option<DiskCalendar>],
        topo: &ClusterSpec,
        ost: u32,
    ) -> &'a mut DiskCalendar {
        disks[ost as usize].get_or_insert_with(|| DiskCalendar::new(topo.disk.clone()))
    }

    /// The OSS ingress NIC of `oss`, materialized on first touch.
    fn oss_nic_at<'a>(
        nics: &'a mut [Option<BandwidthChannel>],
        topo: &ClusterSpec,
        oss: usize,
    ) -> &'a mut BandwidthChannel {
        nics[oss]
            .get_or_insert_with(|| BandwidthChannel::new(topo.nic_bytes_per_sec, nic_overhead()))
    }

    /// Materialize every lazy slot eagerly, exactly as the engine's former
    /// dense layout did at construction. Test-only hook: the equivalence
    /// suite runs a prematerialized engine against a lazy one and asserts
    /// bit-identical traces, wall clocks and diagnostics.
    #[cfg(test)]
    pub(crate) fn prematerialize_dense(&mut self) {
        for ost in 0..self.topo.ost_count() {
            Self::disk_at(&mut self.disks, &self.topo, ost);
        }
        for oss in 0..self.topo.oss_count as usize {
            Self::oss_nic_at(&mut self.oss_nics, &self.topo, oss);
        }
        for client in 0..self.topo.client_count {
            for ost in 0..self.topo.ost_count() {
                self.osc_mut(client, ost);
            }
        }
    }

    /// Service-time multiplier of `ost` at simulated instant `at` under the
    /// run's fault plan (1.0 when pristine). Piecewise-constant in event-queue
    /// time, so the factor is a pure function of the deterministic schedule.
    fn fault_factor(&self, ost: u32, at: SimTime) -> f64 {
        match &self.faults {
            Some(plan) => plan.factor(ost, at),
            None => 1.0,
        }
    }

    fn half_rtt(&self) -> Duration {
        Duration::from_secs_f64(self.topo.rpc_rtt_us * 0.5e-6)
    }

    fn bulk_setup(&self) -> Duration {
        Duration::from_secs_f64(self.topo.bulk_setup_us * 1e-6)
    }

    fn memcpy(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.topo.mem_bytes_per_sec)
    }

    fn mds_service(&mut self, factor: f64) -> Duration {
        let jitter = self.rng.lognormal_factor(self.topo.op_noise_sigma);
        Duration::from_secs_f64(self.topo.mds_getattr_us * 1e-6 * factor * self.run_noise * jitter)
    }

    /// One synchronous metadata RPC through the MDS: window admission, wire
    /// round trip, service. Returns completion time.
    fn mds_rpc(&mut self, client: u32, now: SimTime, modifying: bool, svc_factor: f64) -> SimTime {
        let mdc = &mut self.mdcs[client as usize];
        let admit = if modifying {
            mdc.mod_window.admit(now)
        } else {
            mdc.rpc_window.admit(now)
        };
        let svc = self.mds_service(svc_factor);
        let arrive = admit + self.half_rtt();
        let grant = self.mds.schedule(arrive, svc);
        let end = grant.end + self.half_rtt();
        let mdc = &mut self.mdcs[client as usize];
        if modifying {
            mdc.mod_window.complete(end);
        } else {
            mdc.rpc_window.complete(end);
        }
        self.diag.mds_ops += 1;
        end
    }

    /// Background (asynchronous) MDS load that does not block the rank.
    fn mds_background(&mut self, now: SimTime, svc_factor: f64) {
        let svc = self.mds_service(svc_factor);
        let _ = self.mds.schedule(now + self.half_rtt(), svc);
        self.diag.mds_ops += 1;
    }

    /// One bulk data RPC: OSC window -> client NIC -> OSS NIC -> disk -> reply.
    /// Returns completion time at the client.
    #[allow(clippy::too_many_arguments)] // mirrors the RPC descriptor fields
    fn bulk_rpc(
        &mut self,
        client: u32,
        file: FileId,
        obj_index: u32,
        ost: u32,
        obj_offset: u64,
        bytes: u64,
        now: SimTime,
        is_write: bool,
        short_io: bool,
    ) -> SimTime {
        let _ = is_write; // reads traverse the request first, then data flows
                          // back; the calendar composition is symmetric, so
                          // both directions share one pipeline.
        let admit = self.osc_mut(client, ost).window.admit(now);
        let setup = if short_io {
            Duration::ZERO
        } else {
            self.bulk_setup()
        };
        let t0 = admit + setup + self.half_rtt();
        let g_cnic = self.client_nics[client as usize].schedule(t0, bytes);
        let oss = self.topo.oss_of_ost(ost) as usize;
        let g_onic =
            Self::oss_nic_at(&mut self.oss_nics, &self.topo, oss).schedule(g_cnic.end, bytes);
        let noise = self.run_noise * self.fault_factor(ost, g_onic.end);
        let g_disk = Self::disk_at(&mut self.disks, &self.topo, ost).transfer(
            g_onic.end,
            file,
            obj_index,
            obj_offset,
            bytes,
            noise,
            &mut self.rng,
        );
        let end = g_disk.end + self.half_rtt();
        self.osc_mut(client, ost).window.complete(end);
        self.diag.bulk_rpcs += 1;
        end
    }

    /// Acquire extent locks, returning added latency from revocations.
    fn lock_acquire(&mut self, client: u32, file: FileId, offset: u64, len: u64) -> Duration {
        let table = self.locks.entry(file).or_default();
        let revocations = table.acquire(client, offset, len);
        if revocations > 0 {
            self.diag.lock_revocations += revocations as u64;
            Duration::from_secs_f64(self.topo.lock_revoke_us * 1e-6 * revocations as f64)
        } else {
            Duration::ZERO
        }
    }

    /// Issue writeback RPCs for a contiguous run of an object stream,
    /// asynchronously w.r.t. the rank. Updates dirty completion tracking and
    /// the file's writeback horizon.
    #[allow(clippy::too_many_arguments)] // mirrors the RPC descriptor fields
    fn writeback_run(
        &mut self,
        client: u32,
        file: FileId,
        obj_index: u32,
        ost: u32,
        obj_offset: u64,
        len: u64,
        now: SimTime,
    ) {
        let rpc_bytes = self.cfg.rpc_bytes().max(4096);
        let mut off = obj_offset;
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(rpc_bytes);
            let end = self.bulk_rpc(client, file, obj_index, ost, off, take, now, true, false);
            self.osc_mut(client, ost)
                .wb_pending
                .push(std::cmp::Reverse((end, take)));
            if let Some(f) = self.files.get_mut(&file) {
                f.last_wb_end = f.last_wb_end.max(end);
            }
            off += take;
            remaining -= take;
        }
    }

    /// Flush every complete RPC-sized prefix of runs in one object stream;
    /// `force` flushes partial tails too.
    fn flush_object(
        &mut self,
        client: u32,
        file: FileId,
        obj_index: u32,
        now: SimTime,
        force: bool,
    ) {
        let key = (client, file, obj_index);
        let Some(ranges) = self.agg.get_mut(&key) else {
            return;
        };
        let ost = ranges.ost;
        let rpc_bytes = self.cfg.rpc_bytes().max(4096);
        let mut to_issue = std::mem::take(&mut self.scratch_runs);
        if force {
            ranges.drain_all_into(&mut to_issue);
        } else {
            // Pull only runs long enough to fill at least one RPC; keep the
            // sub-RPC remainder buffered for further aggregation.
            let mut full = std::mem::take(&mut self.scratch_starts);
            full.extend(
                ranges
                    .iter_runs()
                    .filter(|&(_, l)| l >= rpc_bytes)
                    .map(|(s, _)| s),
            );
            for s in full.drain(..) {
                if let Some((start, len)) = ranges.take(s) {
                    let keep = len % rpc_bytes;
                    let issue = len - keep;
                    if keep > 0 {
                        ranges.insert(start + issue, keep);
                    }
                    if issue > 0 {
                        to_issue.push((start, issue));
                    }
                }
            }
            self.scratch_starts = full;
        }
        if self.agg.get(&key).map(|r| r.is_empty()).unwrap_or(false) {
            self.agg.remove(&key);
        }
        for (s, l) in to_issue.drain(..) {
            self.writeback_run(client, file, obj_index, ost, s, l, now);
        }
        self.scratch_runs = to_issue;
    }

    /// Flush all buffered dirty data of (client, file).
    fn flush_file(&mut self, client: u32, file: FileId, now: SimTime) {
        let mut keys = std::mem::take(&mut self.scratch_objs);
        keys.extend(
            self.agg
                .keys()
                .filter(|(c, f, _)| *c == client && *f == file)
                .map(|(_, _, o)| *o),
        );
        // HashMap iteration order is nondeterministic; RPC issue order is
        // observable through resource calendars, so sort.
        keys.sort_unstable();
        for obj in keys.drain(..) {
            self.flush_object(client, file, obj, now, true);
        }
        self.scratch_objs = keys;
    }

    /// Flush every buffered run of `client` whose object lives on `ost`.
    fn flush_osc(&mut self, client: u32, ost: u32, now: SimTime) {
        let mut keys = std::mem::take(&mut self.scratch_file_objs);
        keys.extend(
            self.agg
                .iter()
                .filter(|((c, _, _), r)| *c == client && r.ost == ost)
                .map(|((_, f, o), _)| (*f, *o)),
        );
        keys.sort_unstable();
        for (f, o) in keys.drain(..) {
            self.flush_object(client, f, o, now, true);
        }
        self.scratch_file_objs = keys;
    }

    fn layout_of(&mut self, file: FileId) -> Layout {
        match self.files.get(&file) {
            Some(f) => f.layout,
            None => {
                // Implicitly created file (workload wrote without Create):
                // allocate a layout now.
                let layout = self.fresh_layout();
                self.files.insert(
                    file,
                    FileState {
                        layout,
                        size: 0,
                        dir: DirId(0),
                        create_index: 0,
                        last_wb_end: SimTime::ZERO,
                        exists: true,
                    },
                );
                layout
            }
        }
    }

    fn fresh_layout(&mut self) -> Layout {
        let sc = self.cfg.effective_stripe_count(&self.topo);
        let layout = Layout::new(
            self.cfg.stripe_size,
            sc,
            self.next_start_ost,
            self.topo.ost_count(),
        );
        self.next_start_ost = (self.next_start_ost + 1) % self.topo.ost_count();
        layout
    }

    // ------------------------------------------------------------------
    // Operation handlers. Each returns the rank's completion time.
    // ------------------------------------------------------------------

    fn do_write(
        &mut self,
        rank: u32,
        file: FileId,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> SimTime {
        let client = self.topo.client_of_rank(rank);
        self.diag.bytes_written += len;
        let layout = self.layout_of(file);
        if let Some(f) = self.files.get_mut(&file) {
            f.size = f.size.max(offset + len);
        }

        let mut t = now + self.lock_acquire(client, file, offset, len);
        let osts = self.placements.osts(&layout);
        let mut extents = std::mem::take(&mut self.scratch_extents);
        layout.map_into(
            offset,
            len,
            self.topo.ost_count(),
            Some(&osts),
            &mut extents,
        );

        // Short I/O fast path: synchronous inline RPC, no bulk setup.
        if len <= self.cfg.osc_short_io_bytes as u64 && len > 0 {
            let mut end = t;
            for e in &extents {
                let done = self.bulk_rpc(
                    client,
                    file,
                    e.obj_index,
                    e.ost,
                    e.obj_offset,
                    e.len,
                    t,
                    true,
                    true,
                );
                end = end.max(done);
            }
            self.scratch_extents = extents;
            if let Some(f) = self.files.get_mut(&file) {
                f.last_wb_end = f.last_wb_end.max(end);
            }
            // Written data is in the client cache too.
            self.caches[client as usize].insert(file, chunks_covering(offset, len));
            return end;
        }

        // Buffered path: copy into cache, aggregate, flush full RPCs.
        t += self.memcpy(len);
        self.caches[client as usize].insert(file, chunks_covering(offset, len));

        let dirty_cap = self.cfg.osc_max_dirty_mb as u64 * (1 << 20);
        let rpc_bytes = self.cfg.rpc_bytes().max(4096);
        for e in &extents {
            // Dirty-limit backpressure.
            let over_cap = {
                let osc = self.osc_mut(client, e.ost);
                osc.advance(t);
                osc.dirty_bytes + e.len > dirty_cap
            };
            if over_cap {
                // Push out buffered runs on this OSC, then wait for drain.
                self.flush_osc(client, e.ost, t);
                let before = t;
                if let Some(ready) = self
                    .osc_mut(client, e.ost)
                    .drain_until_room(t, e.len, dirty_cap)
                {
                    let stall = ready.saturating_since(before);
                    let osc = self.osc_mut(client, e.ost);
                    osc.dirty_stall = osc.dirty_stall.saturating_add(stall);
                    self.diag.dirty_stall_secs += stall.as_secs_f64();
                    t = ready;
                }
            }
            self.osc_mut(client, e.ost).dirty_bytes += e.len;

            // Coalescing aggregation: insert the extent into the object's
            // dirty-range set; once the containing run fills an RPC, flush
            // its full-RPC prefix.
            let key = (client, file, e.obj_index);
            let ranges = self
                .agg
                .entry(key)
                .or_insert_with(|| DirtyRanges::new(e.ost));
            let (_, run_len) = ranges.insert(e.obj_offset, e.len);
            if run_len >= rpc_bytes {
                self.flush_object(client, file, e.obj_index, t, false);
            }
        }
        self.scratch_extents = extents;
        t
    }

    fn do_read(&mut self, rank: u32, file: FileId, offset: u64, len: u64, now: SimTime) -> SimTime {
        let client = self.topo.client_of_rank(rank);
        self.diag.bytes_read += len;
        let layout = self.layout_of(file);
        let file_size = self.files.get(&file).map(|f| f.size).unwrap_or(0);

        let t = now + self.lock_acquire(client, file, offset, len);

        // Classify chunks: cached / readahead-inflight / miss. The run
        // accumulator reuses the flush scratch buffer ((offset, len) in
        // bytes): reads never flush, so the two holders cannot overlap.
        let mut miss_runs = std::mem::take(&mut self.scratch_runs);
        let mut wait_until = t;
        let mut run_start: Option<u64> = None;
        let mut last_chunk_end = 0u64;
        for chunk in chunks_covering(offset, len) {
            let cached = self.caches[client as usize].probe(file, chunk);
            let ra_key = (client, file, chunk);
            let ra_hit = if cached {
                None
            } else {
                self.ra_ready.get(&ra_key).copied()
            };
            if cached {
                self.diag.cache_hit_chunks += 1;
            } else if let Some(ready) = ra_hit {
                // Covered by a readahead RPC: wait for it if still in flight.
                wait_until = wait_until.max(ready);
                self.diag.cache_hit_chunks += 1;
                self.ra_ready.remove(&ra_key);
                self.caches[client as usize].insert(file, chunk..chunk + 1);
            } else {
                self.diag.cache_miss_chunks += 1;
            }
            let is_miss = !cached && ra_hit.is_none();
            let chunk_start = chunk * CHUNK_BYTES;
            if is_miss {
                if run_start.is_none() {
                    run_start = Some(chunk_start);
                }
                last_chunk_end = chunk_start + CHUNK_BYTES;
            } else if let Some(s) = run_start.take() {
                miss_runs.push((s, last_chunk_end - s));
            }
        }
        if let Some(s) = run_start.take() {
            miss_runs.push((s, last_chunk_end - s));
        }

        // Issue synchronous RPCs for misses.
        let rpc_bytes = self.cfg.rpc_bytes().max(CHUNK_BYTES);
        let short = len <= self.cfg.osc_short_io_bytes as u64;
        let mut end = wait_until;
        let osts = self.placements.osts(&layout);
        let mut extents = std::mem::take(&mut self.scratch_extents);
        for (roff, rlen) in &miss_runs {
            let mut cur = *roff;
            let stop = roff + rlen;
            while cur < stop {
                let take = (stop - cur).min(rpc_bytes);
                layout.map_into(cur, take, self.topo.ost_count(), Some(&osts), &mut extents);
                for e in &extents {
                    let done = self.bulk_rpc(
                        client,
                        file,
                        e.obj_index,
                        e.ost,
                        e.obj_offset,
                        e.len,
                        t,
                        false,
                        short,
                    );
                    end = end.max(done);
                }
                cur += take;
            }
            self.caches[client as usize].insert(file, chunks_covering(*roff, *rlen));
        }
        self.scratch_extents = extents;
        miss_runs.clear();
        self.scratch_runs = miss_runs;
        // Memory copy to the application buffer.
        end = end.max(t) + self.memcpy(len);

        // Readahead state machine (after satisfying the current read).
        self.update_readahead(client, file, offset, len, file_size, layout, end);
        end
    }

    #[allow(clippy::too_many_arguments)] // readahead consults the whole op context
    fn update_readahead(
        &mut self,
        client: u32,
        file: FileId,
        offset: u64,
        len: u64,
        file_size: u64,
        layout: Layout,
        now: SimTime,
    ) {
        let ra_budget = self.cfg.llite_max_read_ahead_mb as u64 * (1 << 20);
        if ra_budget == 0 {
            return;
        }
        // Retire completed readahead from the budget.
        {
            let heap = &mut self.ra_inflight[client as usize];
            while let Some(&std::cmp::Reverse((ready, bytes))) = heap.peek() {
                if ready <= now {
                    heap.pop();
                    self.ra_inflight_bytes[client as usize] =
                        self.ra_inflight_bytes[client as usize].saturating_sub(bytes);
                } else {
                    break;
                }
            }
        }

        let whole_cap = self.cfg.llite_max_read_ahead_whole_mb as u64 * (1 << 20);
        let per_file_cap: u64 = self.cfg.llite_max_read_ahead_per_file_mb as u64 * (1 << 20);
        let state = self.ra.entry((client, file)).or_default();

        // Whole-file readahead for small files on first access.
        let start: u64;
        let mut window: u64;
        if !state.whole_done && file_size > 0 && file_size <= whole_cap {
            state.whole_done = true;
            start = 0;
            window = file_size;
            state.expect = file_size;
        } else if offset == state.expect || (state.expect == 0 && offset == 0) {
            // Sequential: grow the window.
            let grown = if state.window == 0 {
                1 << 20
            } else {
                state.window * 2
            };
            window = grown.min(per_file_cap);
            start = offset + len;
            state.expect = offset + len;
            state.window = window;
        } else {
            // Random: reset.
            state.expect = offset + len;
            state.window = 0;
            return;
        }
        if window == 0 || file_size == 0 {
            return;
        }
        // Clamp to EOF and the client-wide budget.
        if start >= file_size {
            return;
        }
        window = window.min(file_size - start);
        let budget_left = ra_budget.saturating_sub(self.ra_inflight_bytes[client as usize]);
        window = window.min(budget_left);
        if window == 0 {
            return;
        }

        // Issue asynchronous readahead RPCs for not-yet-resident chunks.
        let rpc_bytes = self.cfg.rpc_bytes().max(CHUNK_BYTES);
        let osts = self.placements.osts(&layout);
        let mut extents = std::mem::take(&mut self.scratch_extents);
        let mut cur = start;
        let stop = start + window;
        while cur < stop {
            let take = (stop - cur).min(rpc_bytes);
            // Skip fully resident pieces cheaply at chunk granularity.
            let all_resident = chunks_covering(cur, take).all(|c| {
                self.caches[client as usize].contains(file, c)
                    || self.ra_ready.contains_key(&(client, file, c))
            });
            if !all_resident {
                let mut piece_end = now;
                layout.map_into(cur, take, self.topo.ost_count(), Some(&osts), &mut extents);
                for e in &extents {
                    let done = self.bulk_rpc(
                        client,
                        file,
                        e.obj_index,
                        e.ost,
                        e.obj_offset,
                        e.len,
                        now,
                        false,
                        false,
                    );
                    piece_end = piece_end.max(done);
                }
                for chunk in chunks_covering(cur, take) {
                    self.ra_ready.insert((client, file, chunk), piece_end);
                }
                self.ra_inflight[client as usize].push(std::cmp::Reverse((piece_end, take)));
                self.ra_inflight_bytes[client as usize] += take;
                self.diag.readahead_bytes += take;
            }
            cur += take;
        }
        self.scratch_extents = extents;
    }

    fn do_stat(&mut self, rank: u32, file: FileId, now: SimTime) -> SimTime {
        let client = self.topo.client_of_rank(rank);
        let (dir, create_index, layout) = match self.files.get(&file) {
            Some(f) => (f.dir, f.create_index, f.layout),
            None => (DirId(0), 0, self.fresh_layout()),
        };

        // Statahead detection: sequential stats over a directory's entries.
        // The thread prefetches at most `statahead_max` entries per scan;
        // once the budget is consumed, stats fall back to synchronous RPCs.
        let sa_max = self.cfg.llite_statahead_max;
        let sa = self.sa.entry((client, dir)).or_default();
        let sequential = create_index == sa.expect_index;
        if sequential {
            sa.run += 1;
        } else {
            // New scan: reset the run and the prefetch budget.
            sa.run = 1;
            sa.active = false;
            sa.consumed = 0;
        }
        sa.expect_index = create_index + 1;
        if sa.run >= 2 && sa_max > 0 && !sa.active && sa.consumed == 0 {
            sa.active = true;
        }
        if sa.active && sa.consumed >= sa_max {
            sa.active = false; // budget exhausted for this scan
        }
        if sa.active {
            sa.consumed += 1;
        }
        let active = sa.active;

        if active {
            // Attributes (and glimpse) prefetched by the statahead thread:
            // the rank pays only local cost plus the pipelining residual;
            // the MDS and OSTs still pay the service cost in the background.
            self.diag.statahead_hits += 1;
            let depth = sa_max.max(1) as f64;
            self.mds_background(now, 2.0);
            for obj in 0..layout.stripe_count {
                let ost = layout.ost_of(obj, self.topo.ost_count());
                let noise = self.run_noise * self.fault_factor(ost, now);
                let _ = Self::disk_at(&mut self.disks, &self.topo, ost).small_op(now, noise);
            }
            let residual_us = 2.0 * (self.topo.mds_getattr_us + self.topo.rpc_rtt_us) / depth + 6.0;
            return now + Duration::from_secs_f64(residual_us * 1e-6);
        }

        // Synchronous stat: path lookup + getattr at the MDS, then a size
        // glimpse RPC per stripe object (uncached attributes require the
        // full chain, which is what makes cold stat scans expensive and
        // wide-striped small files doubly so).
        let lookup_done = self.mds_rpc(client, now, false, 1.0);
        let mds_done = self.mds_rpc(client, lookup_done, false, 1.0);
        let glimpse_arrival = mds_done + self.half_rtt();
        let half = self.half_rtt();
        let mut end = mds_done;
        for obj in 0..layout.stripe_count {
            let ost = layout.ost_of(obj, self.topo.ost_count());
            let noise = self.run_noise * self.fault_factor(ost, glimpse_arrival);
            let g =
                Self::disk_at(&mut self.disks, &self.topo, ost).small_op(glimpse_arrival, noise);
            end = end.max(g.end + half + half);
        }
        end
    }

    fn do_op(&mut self, rank: u32, op: &IoOp, now: SimTime) -> (SimTime, Option<OpRecord>) {
        let client = self.topo.client_of_rank(rank);
        let module = Module::Posix; // overwritten by caller with stream module
        match *op {
            IoOp::Mkdir { dir } => {
                self.dirs.entry(dir).or_default();
                let end = self.mds_rpc(client, now, true, 1.4);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: None,
                        module,
                        class: OpClass::DirOp,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Create { file, dir } => {
                let layout = self.fresh_layout();
                let d = self.dirs.entry(dir).or_default();
                let create_index = d.entries;
                d.entries += 1;
                self.files.insert(
                    file,
                    FileState {
                        layout,
                        size: 0,
                        dir,
                        create_index,
                        last_wb_end: SimTime::ZERO,
                        exists: true,
                    },
                );
                // Wider layouts carry more object-allocation bookkeeping.
                let factor = 2.0 + 0.15 * (layout.stripe_count.saturating_sub(1)) as f64;
                let end = self.mds_rpc(client, now, true, factor);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Open,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Open { file } => {
                self.layout_of(file);
                let end = self.mds_rpc(client, now, false, 1.2);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Open,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Close { file } => {
                self.flush_file(client, file, now);
                let end = now + Duration::from_micros(3);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Close,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Write { file, offset, len } => {
                let end = self.do_write(rank, file, offset, len, now);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Write,
                        offset,
                        bytes: len,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Read { file, offset, len } => {
                let end = self.do_read(rank, file, offset, len, now);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Read,
                        offset,
                        bytes: len,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Stat { file } => {
                let end = self.do_stat(rank, file, now);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Stat,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Unlink { file } => {
                self.flush_file(client, file, now);
                let wb_done = self
                    .files
                    .get(&file)
                    .map(|f| f.last_wb_end)
                    .unwrap_or(SimTime::ZERO);
                let t = now.max(wb_done);
                let (layout, _exists) = match self.files.get_mut(&file) {
                    Some(f) => {
                        f.exists = false;
                        (f.layout, true)
                    }
                    None => (self.fresh_layout(), false),
                };
                let end = self.mds_rpc(client, t, true, 1.8);
                // Object destroys proceed asynchronously on each OST.
                for obj in 0..layout.stripe_count {
                    let ost = layout.ost_of(obj, self.topo.ost_count());
                    let noise = self.run_noise * self.fault_factor(ost, end);
                    let disk = Self::disk_at(&mut self.disks, &self.topo, ost);
                    let _ = disk.small_op(end, noise);
                    disk.forget(file, obj);
                }
                self.caches[client as usize].invalidate_file(file);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Unlink,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Fsync { file } => {
                self.flush_file(client, file, now);
                let wb = self
                    .files
                    .get(&file)
                    .map(|f| f.last_wb_end)
                    .unwrap_or(SimTime::ZERO);
                let end = now.max(wb) + Duration::from_micros(5);
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: Some(file),
                        module,
                        class: OpClass::Sync,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Readdir { dir } => {
                let entries = self.dirs.get(&dir).map(|d| d.entries).unwrap_or(0);
                let factor = 1.0 + entries as f64 / 64.0 * 0.2;
                let end = self.mds_rpc(client, now, false, factor);
                // Readdir primes statahead expectations from entry 0.
                let sa = self.sa.entry((client, dir)).or_default();
                sa.expect_index = 0;
                sa.run = 0;
                (
                    end,
                    Some(OpRecord {
                        rank,
                        file: None,
                        module,
                        class: OpClass::DirOp,
                        offset: 0,
                        bytes: 0,
                        start: now,
                        end,
                    }),
                )
            }
            IoOp::Compute { nanos } => (now + Duration::from_nanos(nanos), None),
            IoOp::Barrier => unreachable!("barriers handled by the run loop"),
        }
    }

    /// Execute all streams to completion; returns (wall time, diagnostics).
    pub fn run(mut self, streams: Vec<RankStream>) -> (Duration, Diagnostics) {
        assert!(!streams.is_empty(), "at least one rank required");
        let barrier_counts: Vec<usize> = streams.iter().map(|s| s.barrier_count()).collect();
        assert!(
            barrier_counts.windows(2).all(|w| w[0] == w[1]),
            "all ranks must have the same number of barriers"
        );

        let n = streams.len();
        // Structure-of-arrays cursors: the loop touches `pcs`/`done` on
        // every event but a stream only to fetch one op, so the hot
        // bookkeeping stays dense in cache instead of strided across
        // RankStream-sized records.
        let mut pcs: Vec<usize> = vec![0; n];
        let mut done: Vec<bool> = vec![false; n];
        // Maintained count of unfinished ranks. The old code recounted
        // `!done` on every barrier arrival — O(n) per arrival, O(n²) per
        // barrier, the dominant cost at 100k ranks. Pure bookkeeping: the
        // count it replaces is exactly `done.iter().filter(|d| !**d).count()`.
        let mut live = n;

        // One in-flight event per rank, so pre-sizing to the rank count
        // makes the run loop's push/pop cycle allocation-free.
        let mut queue: EventQueue<Event> = EventQueue::with_capacity(n + 1);
        for i in 0..n {
            queue.push(SimTime::ZERO, Event::RankReady(i));
        }
        let mut waiting_at_barrier: Vec<usize> = Vec::new();
        let mut barrier_time = SimTime::ZERO;
        let mut finish = SimTime::ZERO;

        // Drain all events sharing the earliest timestamp in one pass.
        // `pop_run_into` preserves FIFO order within the instant and events
        // pushed during the batch land in later drains (see its docs), so
        // this processes the exact sequence the one-event `pop` loop did
        // while amortizing heap rebalancing across the batch.
        let mut batch: Vec<Event> = Vec::with_capacity(n);
        while let Some(now) = queue.pop_run_into(&mut batch) {
            for event in batch.drain(..) {
                let Event::RankReady(i) = event;
                if done[i] {
                    continue;
                }
                if pcs[i] >= streams[i].ops.len() {
                    done[i] = true;
                    live -= 1;
                    finish = finish.max(now);
                    continue;
                }
                let op = streams[i].ops[pcs[i]];
                pcs[i] += 1;
                let rank = streams[i].rank;
                let module = streams[i].module;

                if matches!(op, IoOp::Barrier) {
                    waiting_at_barrier.push(i);
                    barrier_time = barrier_time.max(now);
                    if waiting_at_barrier.len() == live {
                        let resume = barrier_time + Duration::from_micros(60);
                        // Release in rank order so same-instant create/open
                        // races after a barrier resolve the way MPI programs
                        // expect (creator ranks are the lowest in their
                        // group).
                        waiting_at_barrier.sort_unstable();
                        for j in waiting_at_barrier.drain(..) {
                            queue.push(resume, Event::RankReady(j));
                        }
                        barrier_time = SimTime::ZERO;
                    }
                    continue;
                }

                let (end, rec) = self.do_op(rank, &op, now);
                if let Some(mut r) = rec {
                    r.module = module;
                    self.sink.record(&r);
                }
                queue.push(end.max(now), Event::RankReady(i));
            }
        }

        // Drain all outstanding writeback so the run accounts for data
        // actually reaching stable storage (IOR-style close semantics).
        let mut drain = finish;
        // detlint::allow(D002): max-reduction over values — commutative and
        // associative, so visitation order cannot reach the result
        for f in self.files.values() {
            drain = drain.max(f.last_wb_end);
        }
        // Never-materialized disks would contribute exactly 0.0 busy seconds
        // and 0 ops; `x + 0.0 == x` bitwise for these non-negative sums, so
        // skipping the `None` slots (in the same index order) is
        // bit-identical to the dense accounting.
        for d in self.disks.iter().flatten() {
            self.diag.disk_busy_secs += d.busy_time().as_secs_f64();
            self.diag.disk_seq_ops += d.seq_ops();
            self.diag.disk_rand_ops += d.rand_ops();
        }
        (drain - SimTime::ZERO, self.diag)
    }
}
