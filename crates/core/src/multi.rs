//! The multi-device engine: G-Shards/CW over a [`DeviceFleet`] with a
//! modeled halo exchange.
//!
//! The graph's shard sequence is split into N edge-balanced contiguous
//! ranges ([`FleetPartition`]); device `d` holds the vertex values, shard
//! entries and (CW) concatenated windows of its own range. Each iteration
//! every device runs the same four-stage kernel as the single-device engine
//! over its shards; stage-4 writes that land in *another* device's shard
//! arrays — the halo updates — are written to a per-device outbox buffer
//! (charging normal store traffic) and then exchanged: one bulk-synchronous
//! all-to-all per iteration, timed by the fleet's [`Interconnect`].
//!
//! **Determinism / bit-identity.** Functionally the fleet re-enacts the
//! single-device engine's exact schedule: devices are processed in
//! ascending order (continuing the global block-id order), and each
//! device's halo updates are applied to their targets immediately after its
//! launch — so devices later in the order observe them within the same
//! iteration and earlier devices in the next, exactly like stage-4 writes
//! through the single shared `SrcValue` array. Outputs are therefore
//! bit-identical to [`crate::run`] for any device count. *Timing* is
//! modeled as concurrent: an iteration costs the slowest device's wall time
//! plus the exchange, which is where the speedup (and the interconnect
//! bottleneck) appears.
//!
//! **Fault isolation.** Each device has its own [`FaultPlan`] and its own
//! recovery ladder — transient copy faults retry with exponential backoff,
//! kernel faults relaunch in place (launch faults fire before any block
//! runs, so the relaunch is exact), a device that cannot hold its partition
//! rebatches it through a fresh device under a shrinking budget, and a
//! device whose kernel keeps faulting degrades to a host-side re-enactment
//! of its own shards. A faulted device never poisons the fleet: the other
//! devices keep running on hardware, and results stay bit-identical.

use crate::autotune::select_vertices_per_shard;
use crate::cw::ConcatWindows;
use crate::engine::Detector;
use crate::engine::{CuShaConfig, CuShaOutput, NoopObserver, Repr, RunObserver};
use crate::error::EngineError;
use crate::fallback::{host_sweep, FALLBACK_LABEL};
use crate::integrity::{apply_flips, checksum, CheckpointManager};
use crate::kernel::{launch_shards, Offsets, Outbox, ShardBufs, ShardLaunch, SpillSink, OWN_ENTRY};
use crate::memsize::entry_bytes;
use crate::middleware::with_copy_retries;
use crate::program::{Value, VertexProgram};
use crate::shards::GShards;
use crate::stats::{FaultStats, IterationStat, MemoStats, RunStats, SdcStats};
use cusha_graph::{FleetPartition, Graph};
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{
    DevVec, DeviceFault, DeviceFleet, Gpu, Interconnect, KernelDesc, KernelStats, Pod, Profile,
    REPLAY_SLOTS,
};
use std::collections::HashSet;
use std::ops::Range;

/// Configuration of the multi-device engine.
#[derive(Clone, Debug)]
pub struct MultiConfig {
    /// Base engine configuration (representation, shard size, per-device
    /// hardware model, watchdog). `base.fault_plan`, if set, is installed
    /// on device 0 unless [`MultiConfig::fault_plans`] overrides it.
    pub base: CuShaConfig,
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Interconnect preset timing the per-iteration halo exchange.
    pub interconnect: Interconnect,
    /// Per-device fault plans (index = device id); shorter than `devices`
    /// leaves the remaining devices fault-free.
    pub fault_plans: Vec<Option<cusha_simt::FaultPlan>>,
    /// Transient-copy-fault retries allowed per operation per device.
    pub max_copy_retries: u32,
    /// First retry's backoff in seconds; doubles per subsequent retry.
    pub backoff_base_seconds: f64,
    /// In-place kernel relaunches before a device degrades to the host.
    pub max_kernel_retries: u32,
    /// Budget-halving cycles allowed per device on OOM before it degrades.
    pub max_rebatches: u32,
    /// Host worker threads driving per-device kernel execution. `0` (the
    /// default) resolves through the `CUSHA_JOBS` environment variable and
    /// then the host's available parallelism. Any value produces bit-identical
    /// outputs, modeled times, and counters: parallelism only changes how the
    /// wall clock is spent (see DESIGN.md §4.9).
    pub jobs: usize,
}

impl MultiConfig {
    /// `devices` copies of the base configuration's device over PCIe.
    pub fn new(base: CuShaConfig, devices: usize) -> Self {
        MultiConfig {
            base,
            devices,
            interconnect: Interconnect::pcie_gen3(),
            fault_plans: Vec::new(),
            max_copy_retries: 3,
            backoff_base_seconds: 1e-3,
            max_kernel_retries: 1,
            max_rebatches: 8,
            jobs: 0,
        }
    }

    /// Sets the host worker-thread count (`0` = auto; see
    /// [`effective_jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Selects the interconnect preset.
    pub fn with_interconnect(mut self, ic: Interconnect) -> Self {
        self.interconnect = ic;
        self
    }

    /// Installs a fault plan on one device of the fleet.
    pub fn with_device_fault_plan(mut self, d: usize, plan: cusha_simt::FaultPlan) -> Self {
        if self.fault_plans.len() <= d {
            self.fault_plans.resize(d + 1, None);
        }
        self.fault_plans[d] = Some(plan);
        self
    }

    /// Checks the multi-device invariants on top of
    /// [`CuShaConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.devices == 0 {
            return Err("devices must be at least 1".into());
        }
        if self.fault_plans.len() > self.devices {
            return Err(format!(
                "fault_plans names device {} but the fleet has {} devices",
                self.fault_plans.len() - 1,
                self.devices
            ));
        }
        Ok(())
    }
}

/// Resolves a requested job count to the worker-thread count actually used:
/// an explicit `requested > 0` wins, else the `CUSHA_JOBS` environment
/// variable (if set to a positive integer), else the host's available
/// parallelism, else 1.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(j) = std::env::var("CUSHA_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
    {
        return j;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-device breakdown inside a [`MultiRunStats`].
#[derive(Clone, Debug)]
pub struct DeviceRunStats {
    /// Device id within the fleet.
    pub device: usize,
    /// How the device finished the run: `"resident"` (whole partition on
    /// device), `"rebatched"` (OOM recovery: batches through a fresh
    /// device), or `"host-fallback"` (kernel-fault recovery).
    pub mode: &'static str,
    /// Shards owned by this device.
    pub shards: usize,
    /// Vertices owned by this device.
    pub vertices: usize,
    /// Shard entries (edges) owned by this device.
    pub edges: usize,
    /// Remote vertices this device's entries read (the partition halo).
    pub halo_vertices: usize,
    /// Host→device seconds charged on this device.
    pub h2d_seconds: f64,
    /// Device→host seconds charged on this device.
    pub d2h_seconds: f64,
    /// Kernel seconds charged on this device.
    pub kernel_seconds: f64,
    /// Kernels launched on this device.
    pub kernels_launched: u64,
    /// Accumulated simulator counters of this device's launches.
    pub kernel: KernelStats,
    /// Halo bytes this device sent over the interconnect.
    pub exchange_sent_bytes: u64,
    /// Halo bytes this device received over the interconnect.
    pub exchange_recv_bytes: u64,
    /// Recovery activity on this device.
    pub fault: FaultStats,
    /// Silent-data-corruption defense activity on this device.
    pub sdc: SdcStats,
    /// Simulator memo activity on this device, including every fresh
    /// device a rebatched run swapped in (each starts with cold memos).
    pub memo: MemoStats,
    /// Per-launch kernel history when profiling was enabled.
    pub profile: Option<Profile>,
}

/// Statistics of one multi-device run.
#[derive(Clone, Debug)]
pub struct MultiRunStats {
    /// Engine label, e.g. `"CuSha-CW x4"`.
    pub engine: String,
    /// Interconnect preset name.
    pub interconnect: String,
    /// Devices in the fleet.
    pub devices: usize,
    /// Iterations until convergence (or the cap).
    pub iterations: u32,
    /// Whether the fleet converged before the iteration cap.
    pub converged: bool,
    /// Modeled setup seconds: the slowest device's initial upload.
    pub setup_seconds: f64,
    /// Modeled iteration seconds: per iteration, the slowest device's wall
    /// (transfers + kernels + watchdog snapshots), devices overlapping.
    pub compute_seconds: f64,
    /// Total halo bytes moved over the interconnect.
    pub exchange_bytes: u64,
    /// Modeled interconnect seconds across all exchanges.
    pub exchange_seconds: f64,
    /// Modeled final-download seconds: the slowest device's result copy.
    pub teardown_seconds: f64,
    /// Edge-count load imbalance of the partition (1.0 = perfect).
    pub load_imbalance: f64,
    /// Per-device breakdown.
    pub per_device: Vec<DeviceRunStats>,
    /// Fleet-level aggregate of every device's kernel counters.
    pub aggregate: KernelStats,
    /// Fleet-level aggregate of every device's recovery activity.
    pub fault: FaultStats,
    /// Fleet-level aggregate of every device's SDC-defense activity.
    pub sdc: SdcStats,
    /// Fleet-level sum of every device's simulator memo activity.
    pub memo: MemoStats,
    /// Per-iteration detail (seconds = slowest device's kernel time).
    pub per_iteration: Vec<IterationStat>,
}

impl MultiRunStats {
    /// End-to-end modeled seconds: setup + overlapped iterations +
    /// exchanges + teardown.
    pub fn modeled_seconds(&self) -> f64 {
        self.setup_seconds + self.compute_seconds + self.exchange_seconds + self.teardown_seconds
    }

    /// Flattens into a single-engine [`RunStats`] (setup → `h2d`,
    /// iterations + exchange → `compute`, teardown → `d2h`, aggregate
    /// counters → `kernel`) for code paths that consume the single-device
    /// shape, e.g. [`EngineError::NonConverged`].
    pub fn as_run_stats(&self) -> RunStats {
        RunStats {
            engine: self.engine.clone(),
            iterations: self.iterations,
            converged: self.converged,
            h2d_seconds: self.setup_seconds,
            compute_seconds: self.compute_seconds + self.exchange_seconds,
            d2h_seconds: self.teardown_seconds,
            per_iteration: self.per_iteration.clone(),
            kernel: self.aggregate.clone(),
            profile: None,
            fault: self.fault,
            sdc: self.sdc,
            frontier: None,
            memo: self.memo,
        }
    }

    /// Records the fleet run — overlapped phase timings, exchange volume,
    /// aggregate kernel counters, fleet fault activity, and a per-device
    /// breakdown under an added `device=N` label — into a metrics registry.
    pub fn record_metrics(&self, reg: &mut cusha_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.add("multi_devices", labels, self.devices as u64);
        reg.add("run_iterations", labels, self.iterations as u64);
        reg.set_gauge(
            "run_converged",
            labels,
            if self.converged { 1.0 } else { 0.0 },
        );
        reg.set_gauge("multi_setup_seconds", labels, self.setup_seconds);
        reg.set_gauge("multi_compute_seconds", labels, self.compute_seconds);
        reg.set_gauge("multi_exchange_seconds", labels, self.exchange_seconds);
        reg.set_gauge("multi_teardown_seconds", labels, self.teardown_seconds);
        reg.set_gauge("multi_total_seconds", labels, self.modeled_seconds());
        reg.add("multi_exchange_bytes", labels, self.exchange_bytes);
        reg.set_gauge("multi_load_imbalance", labels, self.load_imbalance);
        for it in &self.per_iteration {
            reg.observe("iteration_seconds", labels, it.seconds);
            reg.observe(
                "iteration_updated_vertices",
                labels,
                it.updated_vertices as f64,
            );
        }
        self.aggregate.record_metrics(reg, labels);
        self.fault.record_metrics(reg, labels);
        self.sdc.record_metrics(reg, labels);
        self.memo.record_metrics(reg, labels);
        for dev in &self.per_device {
            let id = dev.device.to_string();
            let mut dl: Vec<(&str, &str)> = labels.to_vec();
            dl.push(("device", &id));
            reg.add("device_shards", &dl, dev.shards as u64);
            reg.add("device_vertices", &dl, dev.vertices as u64);
            reg.add("device_edges", &dl, dev.edges as u64);
            reg.add("device_halo_vertices", &dl, dev.halo_vertices as u64);
            reg.add("device_kernels_launched", &dl, dev.kernels_launched);
            reg.add("device_exchange_sent_bytes", &dl, dev.exchange_sent_bytes);
            reg.add("device_exchange_recv_bytes", &dl, dev.exchange_recv_bytes);
            reg.set_gauge("device_h2d_seconds", &dl, dev.h2d_seconds);
            reg.set_gauge("device_d2h_seconds", &dl, dev.d2h_seconds);
            reg.set_gauge("device_kernel_seconds", &dl, dev.kernel_seconds);
            dev.kernel.record_metrics(reg, &dl);
            dev.fault.record_metrics(reg, &dl);
            dev.sdc.record_metrics(reg, &dl);
            dev.memo.record_metrics(reg, &dl);
        }
    }
}

/// Result of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiOutput<V> {
    /// Final vertex values, indexed by vertex id — bit-identical to the
    /// single-device engine's.
    pub values: Vec<V>,
    /// Multi-device statistics.
    pub stats: MultiRunStats,
}

/// Executes `prog` over `graph` on a fleet of `cfg.devices` devices.
///
/// # Panics
/// Panics on invalid configuration or graph and on unrecovered device
/// faults. A run that merely hits the iteration cap returns its partial
/// output (`stats.converged == false`). Fallible callers use
/// [`try_run_multi`].
pub fn run_multi<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
) -> MultiOutput<P::V> {
    match run_multi_inner(prog, graph, cfg, &mut NoopObserver) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Executes `prog` over `graph` on the fleet, returning every failure as an
/// [`EngineError`]. A capped run yields [`EngineError::NonConverged`]
/// carrying the flattened partial output.
pub fn try_run_multi<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    try_run_multi_observed(prog, graph, cfg, &mut NoopObserver)
}

/// [`try_run_multi`] with a [`RunObserver`] consulted after every fleet
/// iteration (elapsed is the modeled fleet clock: per-iteration critical
/// path plus halo exchange). The observer returning `false` aborts with
/// [`EngineError::Deadline`].
pub fn try_run_multi_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    let out = run_multi_inner(prog, graph, cfg, observer)?;
    if out.stats.converged {
        Ok(out)
    } else {
        let partial = CuShaOutput {
            values: out.values,
            stats: out.stats.as_run_stats(),
        };
        Err(EngineError::NonConverged {
            partial: Box::new(partial),
        })
    }
}

/// Global ranges of one device's slice of the layout.
#[derive(Clone, Debug)]
struct DevInfo {
    /// Global shard ids owned (contiguous).
    shards: Range<u32>,
    /// Global vertex range covered by those shards.
    vrange: Range<usize>,
    /// Global shard-entry range covered.
    erange: Range<usize>,
    /// Global CW-entry range covered (CW mode; `0..0` otherwise).
    cwrange: Range<usize>,
    /// Sorted global entry positions this device's stage 4 writes *outside*
    /// `erange` — the halo-update targets.
    remote: Vec<usize>,
    /// CW with remote targets: the outbox slot (index into `remote`) of
    /// each entry in `cwrange`, [`OWN_ENTRY`] where the target is local.
    cw_slots: Vec<u32>,
}

impl DevInfo {
    /// Global ranges of a contiguous shard range (empty ranges for none).
    fn new(gs: &GShards, cw: Option<&ConcatWindows>, shards: Range<u32>) -> Self {
        if shards.is_empty() {
            return DevInfo {
                shards,
                vrange: 0..0,
                erange: 0..0,
                cwrange: 0..0,
                remote: Vec::new(),
                cw_slots: Vec::new(),
            };
        }
        let (first, last) = (shards.start, shards.end - 1);
        let vrange = gs.vertex_range(first).start as usize..gs.vertex_range(last).end as usize;
        let erange = gs.shard_entries(first).start..gs.shard_entries(last).end;
        let cwrange = match cw {
            Some(cw) => cw.cw_entries(first).start..cw.cw_entries(last).end,
            None => 0..0,
        };
        let remote = remote_targets(gs, cw, shards.clone(), &erange);
        let cw_slots = match cw {
            Some(cw) if !remote.is_empty() => cw.mapper()[cwrange.clone()]
                .iter()
                .map(|&pos| match remote.binary_search(&(pos as usize)) {
                    Ok(slot) => slot as u32,
                    Err(_) => OWN_ENTRY,
                })
                .collect(),
            _ => Vec::new(),
        };
        DevInfo {
            shards,
            vrange,
            erange,
            cwrange,
            remote,
            cw_slots,
        }
    }
}

/// Device-resident buffers of one device's slice (a partition, or one
/// batch of a rebatched device): the kernel's own buffers plus the outbox
/// its stage-4 writes to remote entries land in.
struct ResidentDev<P: VertexProgram> {
    bufs: ShardBufs<P>,
    /// G-Shards: `SrcIndex` of every remote target, slot for slot.
    remote_src_index: Option<DevVec<u32>>,
    outbox: Option<DevVec<P::V>>,
}

/// Execution mode of one device.
enum Mode<P: VertexProgram> {
    /// No shards assigned (more devices than shards); never launches.
    Idle,
    /// Whole partition slice resident on the device.
    Resident(Box<ResidentDev<P>>),
    /// OOM recovery: shards stream through a fresh device in batches under
    /// the byte budget.
    Rebatched {
        /// Current per-batch byte budget; halved on each further OOM.
        budget: u64,
    },
    /// Kernel-fault recovery: the device's shards are re-enacted on the
    /// host (bit-identical, zero modeled device time).
    Fallback,
}

impl<P: VertexProgram> Mode<P> {
    fn label(&self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Resident(_) => "resident",
            Mode::Rebatched { .. } => "rebatched",
            Mode::Fallback => FALLBACK_LABEL,
        }
    }
}

/// Time totals carried across device rebuilds (rebatching replaces the
/// `Gpu`, which restarts its counters).
#[derive(Clone, Copy, Default)]
struct TimeAcc {
    h2d: f64,
    d2h: f64,
    kernel: f64,
    launched: u64,
    memo: MemoStats,
}

/// Replay-table slots of each fleet device: the devices split one device's
/// table, so the simulator's host memory does not grow with the fleet
/// (each device also holds only its own shards' scopes).
fn replay_slots(devices: usize) -> usize {
    let share = (REPLAY_SLOTS / devices).max(2);
    1 << share.ilog2()
}

/// Stage-4 targets of `shards` that fall outside `erange`, sorted.
fn remote_targets(
    gs: &GShards,
    cw: Option<&ConcatWindows>,
    shards: Range<u32>,
    erange: &Range<usize>,
) -> Vec<usize> {
    let mut remote = Vec::new();
    match cw {
        None => {
            for s in shards {
                for j in 0..gs.num_shards() {
                    let w = gs.window(s, j);
                    if !w.is_empty() && !erange.contains(&w.start) {
                        remote.extend(w);
                    }
                }
            }
        }
        Some(cw) => {
            for s in shards {
                for k in cw.cw_entries(s) {
                    let pos = cw.mapper()[k] as usize;
                    if !erange.contains(&pos) {
                        remote.push(pos);
                    }
                }
            }
        }
    }
    remote.sort_unstable();
    remote.dedup();
    remote
}

/// Everything the convergence loop needs, shared across devices.
struct MultiState<'a, P: VertexProgram> {
    prog: &'a P,
    cfg: &'a MultiConfig,
    gs: GShards,
    cw: Option<ConcatWindows>,
    fleet: DeviceFleet,
    infos: Vec<DevInfo>,
    modes: Vec<Mode<P>>,
    /// Host-authoritative vertex values for non-resident devices (resident
    /// devices keep theirs on device; their master slice is stale).
    master_values: Vec<P::V>,
    /// Host-authoritative `SrcValue` column for non-resident devices; also
    /// receives every halo update.
    master_src_value: Vec<P::V>,
    static_entries: Option<Vec<P::SV>>,
    edge_entries: Option<Vec<P::E>>,
    faults: Vec<FaultStats>,
    sdcs: Vec<SdcStats>,
    acc: Vec<TimeAcc>,
    profiles: Vec<Option<Profile>>,
    desc_name: std::sync::Arc<str>,
    /// `devices + 1` prefix of global entry starts, for owner lookup.
    estarts: Vec<usize>,
}

/// Outcome of one device's slice of one iteration.
struct DeviceIter<P: VertexProgram> {
    updated: u64,
    kernel_seconds: f64,
    /// Stage-4 writes outside the launch's own entry range, in write order:
    /// `(global entry position, value)`.
    spills: Vec<(usize, P::V)>,
}

impl<P: VertexProgram> MultiState<'_, P> {
    fn device_time(&self, d: usize) -> f64 {
        let g = self.fleet.device(d);
        let a = &self.acc[d];
        a.h2d + a.d2h + a.kernel + g.h2d_seconds + g.d2h_seconds + g.kernel_seconds
    }

    fn owner_of_entry(&self, k: usize) -> usize {
        self.estarts.partition_point(|&s| s <= k) - 1
    }

    /// Folds a retired `Gpu`'s counters into the device's carried totals
    /// (called when rebatching swaps in a fresh device).
    fn retire_gpu(&mut self, d: usize, mut old: Gpu) {
        let a = &mut self.acc[d];
        a.h2d += old.h2d_seconds;
        a.d2h += old.d2h_seconds;
        a.kernel += old.kernel_seconds;
        a.launched += old.kernels_launched;
        a.memo.add(&MemoStats::from_gpu(&old));
        if let Some(p) = old.profile.take() {
            let merged = self.profiles[d].get_or_insert_with(Profile::default);
            for launch in p.launches() {
                merged.record(launch);
            }
        }
        if let Some(plan) = old.take_fault_plan() {
            self.fleet.device_mut(d).set_fault_plan(plan);
        }
    }

    /// Uploads device `d`'s partition slice; `Err` carries the device fault
    /// (OOM → caller switches the device to rebatched mode).
    fn setup_resident(&mut self, d: usize) -> Result<(), DeviceFault> {
        let info = self.infos[d].clone();
        let dev = self.upload(d, &info)?;
        self.modes[d] = Mode::Resident(Box::new(dev));
        Ok(())
    }

    /// Uploads the slice `info` describes from the host masters to device
    /// `d`, retrying transient copy faults. The op sequence is the
    /// single-device engine's, plus the remote `SrcIndex` and the outbox
    /// before the flag.
    fn upload(&mut self, d: usize, info: &DevInfo) -> Result<ResidentDev<P>, DeviceFault> {
        let (maxr, backoff) = (self.cfg.max_copy_retries, self.cfg.backoff_base_seconds);
        let (er, cwr) = (info.erange.clone(), info.cwrange.clone());
        let fault = &mut self.faults[d];
        let gpu = self.fleet.device_mut(d);
        let vertex_values = with_copy_retries(gpu, maxr, backoff, fault, |g| {
            g.try_upload(&self.master_values[info.vrange.clone()])
        })?;
        let src_value = with_copy_retries(gpu, maxr, backoff, fault, |g| {
            g.try_upload(&self.master_src_value[er.clone()])
        })?;
        let src_static = match &self.static_entries {
            Some(v) => Some(with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_upload(&v[er.clone()])
            })?),
            None => None,
        };
        let edge_value = match &self.edge_entries {
            Some(v) => Some(with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_upload(&v[er.clone()])
            })?),
            None => None,
        };
        let mut up = |gpu: &mut Gpu, data: &[u32]| {
            with_copy_retries(gpu, maxr, backoff, fault, |g| g.try_upload(data))
        };
        let dest_index = up(gpu, &self.gs.dest_index()[er.clone()])?;
        let (src_index, mapper) = match &self.cw {
            Some(cw) => (
                up(gpu, &cw.src_index()[cwr.clone()])?,
                Some(up(gpu, &cw.mapper()[cwr])?),
            ),
            None => (up(gpu, &self.gs.src_index()[er])?, None),
        };
        let window_offsets = match self.cw {
            None => Some(up(gpu, self.gs.window_offsets())?),
            Some(_) => None,
        };
        let remote_src_index = if self.cw.is_none() && !info.remote.is_empty() {
            let rsi: Vec<u32> = info
                .remote
                .iter()
                .map(|&k| self.gs.src_index()[k])
                .collect();
            Some(up(gpu, &rsi)?)
        } else {
            None
        };
        let outbox = if info.remote.is_empty() {
            None
        } else {
            Some(gpu.try_alloc::<P::V>(info.remote.len())?)
        };
        let flag = up(gpu, &[1u32])?;
        Ok(ResidentDev {
            bufs: ShardBufs {
                vertex_values,
                src_value,
                src_static,
                edge_value,
                dest_index,
                src_index,
                mapper,
                window_offsets,
                flag,
            },
            remote_src_index,
            outbox,
        })
    }

    /// Launches the shared four-stage kernel over the slice `info`
    /// describes; remote stage-4 writes go to the outbox and are recorded
    /// in `spills`. Kernel faults relaunch in place up to `max_retries`
    /// times (a launch fault fires before any block runs — and so before
    /// any spill is recorded — so the relaunch is exact); the last one
    /// surfaces. Returns the launch stats and the updated-vertex count.
    #[allow(clippy::too_many_arguments)]
    fn launch_retrying(
        gpu: &mut Gpu,
        desc: &KernelDesc,
        prog: &P,
        gs: &GShards,
        cw: Option<&ConcatWindows>,
        info: &DevInfo,
        dev: &mut ResidentDev<P>,
        max_retries: u32,
        fault: &mut FaultStats,
        spills: &mut dyn SpillSink<P::V>,
    ) -> Result<(KernelStats, u64), DeviceFault> {
        let launch = ShardLaunch {
            gs,
            cw,
            first_shard: info.shards.start,
            off: Offsets {
                voff: info.vrange.start,
                eoff: info.erange.start,
                cwoff: info.cwrange.start,
            },
            own: &info.erange,
            remote: &info.remote,
        };
        let mut attempts = 0u32;
        loop {
            let outbox = dev.outbox.as_mut().map(|buf| Outbox {
                buf,
                remote_src_index: dev.remote_src_index.as_ref(),
                cw_slots: &info.cw_slots,
                spills: &mut *spills,
            });
            match launch_shards(gpu, desc, prog, &launch, &mut dev.bufs, outbox) {
                Err(DeviceFault::Kernel { .. }) if attempts < max_retries => {
                    fault.kernel_retries += 1;
                    gpu.tracer().clone().instant(
                        gpu.trace_pid(),
                        lanes::FAULT,
                        "fault",
                        "kernel-retry",
                        gpu.total_seconds(),
                    );
                    attempts += 1;
                }
                r => return r,
            }
        }
    }

    /// Applies every resident device's due bit flips to its on-device
    /// buffers. Flips land while the data is at rest in device DRAM, before
    /// any device of the fleet launches — later writes into those buffers
    /// (spills from other devices' stage 4) are legitimate and must not be
    /// mistaken for corruption by the scrub that follows. Devices running
    /// rebatched or on the host stage through trusted host masters, which
    /// the flip model (device DRAM) cannot reach.
    fn apply_due_flips(&mut self) {
        for d in 0..self.cfg.devices {
            if let Mode::Resident(dev) = &mut self.modes[d] {
                let flips = self.fleet.device_mut(d).take_due_bit_flips();
                if !flips.is_empty() {
                    apply_flips(&flips, &mut dev.bufs.vertex_values, &mut dev.bufs.src_value);
                }
            }
        }
    }

    /// Scrub pass: verifies every resident device's protected buffers
    /// against the checksums recorded at the end of the previous fleet
    /// iteration, returning the first device whose state no longer matches.
    fn scrub(&self, crcs: &[(u64, u64)]) -> Option<usize> {
        (0..self.cfg.devices).find(|&d| {
            if let Mode::Resident(dev) = &self.modes[d] {
                checksum(dev.bufs.vertex_values.host()) != crcs[d].0
                    || checksum(dev.bufs.src_value.host()) != crcs[d].1
            } else {
                false
            }
        })
    }

    /// Records the post-iteration checksums of every resident device's
    /// protected buffers (after all spills of the iteration have landed) —
    /// the state the next scrub pass must find untouched.
    fn store_crcs(&self, crcs: &mut [(u64, u64)]) {
        for (mode, crc) in self.modes.iter().zip(crcs.iter_mut()) {
            if let Mode::Resident(dev) = mode {
                *crc = (
                    checksum(dev.bufs.vertex_values.host()),
                    checksum(dev.bufs.src_value.host()),
                );
            }
        }
    }

    /// Restores the whole fleet to the given verified global state: both
    /// host masters, plus each resident device's slices as real, charged
    /// H2D uploads. Refreshes the scrub references and the per-device time
    /// marks (restore time is recovery activity, accumulated into
    /// `integrity_seconds`).
    fn restore_global(
        &mut self,
        values: &[P::V],
        src: &[P::V],
        crcs: &mut [(u64, u64)],
        time_marks: &mut [f64],
        integrity_seconds: &mut f64,
    ) -> Result<(), DeviceFault> {
        self.master_values.copy_from_slice(values);
        self.master_src_value.copy_from_slice(src);
        let (maxr, backoff) = (self.cfg.max_copy_retries, self.cfg.backoff_base_seconds);
        for d in 0..self.cfg.devices {
            let before = self.device_time(d);
            let info = self.infos[d].clone();
            let Mode::Resident(dev) = &mut self.modes[d] else {
                continue;
            };
            let gpu = self.fleet.device_mut(d);
            let fault = &mut self.faults[d];
            with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_h2d(&mut dev.bufs.vertex_values, &values[info.vrange.clone()])
            })?;
            with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_h2d(&mut dev.bufs.src_value, &src[info.erange.clone()])
            })?;
            crcs[d] = (
                checksum(dev.bufs.vertex_values.host()),
                checksum(dev.bufs.src_value.host()),
            );
            let after = self.device_time(d);
            *integrity_seconds += after - before;
            time_marks[d] = after;
        }
        Ok(())
    }

    /// One rung of the fleet's SDC recovery ladder after a corruption was
    /// detected on (or attributed to) device `det`: global rollback to the
    /// latest verified checkpoint while the fleet-wide budget lasts, then
    /// one full restart from the initial state, and finally degradation to
    /// the host re-enactment — the detecting device for a checksum hit, or
    /// every resident device for an invariant hit (whose culprit is
    /// unknown) — since host masters are immune to device flips.
    #[allow(clippy::too_many_arguments)]
    fn sdc_recover_fleet(
        &mut self,
        det: usize,
        detector: Detector,
        ckpts: &mut CheckpointManager<P::V>,
        crcs: &mut [(u64, u64)],
        stats: &mut MultiRunStats,
        watchdog_seen: &mut HashSet<u64>,
        init_values: &[P::V],
        init_src: &[P::V],
        time_marks: &mut [f64],
        integrity_seconds: &mut f64,
    ) -> Result<(), DeviceFault> {
        match detector {
            Detector::Checksum => self.sdcs[det].checksum_detections += 1,
            Detector::Invariant => self.sdcs[det].invariant_detections += 1,
        }
        self.cfg.base.trace.instant(
            det as u32,
            lanes::FAULT,
            "sdc",
            "corruption-detected",
            self.device_time(det),
        );
        let integ = &self.cfg.base.integrity;
        let rollbacks: u32 = self.sdcs.iter().map(|s| s.rollbacks).sum();
        let restarts: u32 = self.sdcs.iter().map(|s| s.full_restarts).sum();
        if rollbacks < integ.max_rollbacks {
            let cp = ckpts.latest().expect("initial checkpoint always present");
            let (iteration, watchdog) = (cp.iteration, cp.watchdog.clone());
            let (values, src) = (cp.values.clone(), cp.src_value.clone());
            self.restore_global(&values, &src, crcs, time_marks, integrity_seconds)?;
            self.sdcs[det].reexecuted_iterations += stats.iterations - iteration;
            stats.iterations = iteration;
            stats.per_iteration.truncate(iteration as usize);
            *watchdog_seen = watchdog;
            self.sdcs[det].rollbacks += 1;
            self.cfg.base.trace.instant(
                det as u32,
                lanes::FAULT,
                "sdc",
                "rollback",
                self.device_time(det),
            );
        } else if restarts < integ.max_full_restarts {
            self.restore_global(init_values, init_src, crcs, time_marks, integrity_seconds)?;
            self.sdcs[det].reexecuted_iterations += stats.iterations;
            stats.iterations = 0;
            stats.per_iteration.clear();
            watchdog_seen.clear();
            ckpts.clear();
            ckpts.push(0, init_values.to_vec(), init_src.to_vec(), HashSet::new());
            self.sdcs[det].full_restarts += 1;
            self.cfg.base.trace.instant(
                det as u32,
                lanes::FAULT,
                "sdc",
                "full-restart",
                self.device_time(det),
            );
        } else {
            let victims: Vec<usize> = match detector {
                Detector::Checksum => vec![det],
                Detector::Invariant => (0..self.cfg.devices)
                    .filter(|&d| matches!(self.modes[d], Mode::Resident(_)))
                    .collect(),
            };
            if victims.is_empty() {
                // Nothing left to degrade (the whole fleet already runs on
                // host masters, which flips cannot reach): let the run
                // proceed rather than rewinding without progress — the
                // iteration cap still bounds the loop.
                return Ok(());
            }
            let cp = ckpts.latest().expect("initial checkpoint always present");
            let (iteration, watchdog) = (cp.iteration, cp.watchdog.clone());
            let (values, src) = (cp.values.clone(), cp.src_value.clone());
            self.restore_global(&values, &src, crcs, time_marks, integrity_seconds)?;
            self.sdcs[det].reexecuted_iterations += stats.iterations - iteration;
            stats.iterations = iteration;
            stats.per_iteration.truncate(iteration as usize);
            *watchdog_seen = watchdog;
            for v in victims {
                if matches!(self.modes[v], Mode::Resident(_) | Mode::Rebatched { .. }) {
                    self.modes[v] = Mode::Fallback;
                }
                self.sdcs[v].host_fallbacks += 1;
                self.cfg.base.trace.instant(
                    v as u32,
                    lanes::FAULT,
                    "sdc",
                    "host-fallback",
                    self.device_time(v),
                );
            }
        }
        Ok(())
    }

    /// Host re-enactment of `shards` for device `d` — mirrors the fallback
    /// engine's exact schedule over the master arrays. Stage-4 writes
    /// outside the device's own entry range are also pushed as spills so
    /// they still flow through the halo exchange accounting.
    fn host_iterate(&mut self, d: usize, shards: Range<u32>, out: &mut DeviceIter<P>) {
        let own_erange = self.infos[d].erange.clone();
        out.updated += host_sweep(
            self.prog,
            &self.gs,
            self.static_entries.as_deref(),
            self.edge_entries.as_deref(),
            shards,
            &own_erange,
            &mut self.master_values,
            0,
            &mut self.master_src_value,
            0,
            true,
            &mut out.spills,
        );
    }

    /// Phase A of the host-parallel schedule: re-enacts resident device
    /// `d`'s upcoming launch on scratch clones of its host mirrors, without
    /// touching the device. The oracle yields the iteration's spills and
    /// updated count at the serial point in the device order — so halo
    /// visibility matches the sequential engine — while the real launch
    /// (which recomputes the same values bit-for-bit) runs concurrently in
    /// Phase B. Also returns the scratch: the post-iteration vertex values
    /// and `SrcValue` slice of the device.
    fn oracle_resident(&self, d: usize) -> (DeviceIter<P>, Vec<P::V>, Vec<P::V>) {
        let info = &self.infos[d];
        let Mode::Resident(dev) = &self.modes[d] else {
            unreachable!("oracle runs only for resident devices")
        };
        let mut vv = dev.bufs.vertex_values.host().to_vec();
        let mut sv = dev.bufs.src_value.host().to_vec();
        // Each remote entry is written at most once per launch.
        let mut out = DeviceIter {
            updated: 0,
            kernel_seconds: 0.0,
            spills: Vec::with_capacity(info.remote.len()),
        };
        out.updated += host_sweep(
            self.prog,
            &self.gs,
            self.static_entries.as_deref(),
            self.edge_entries.as_deref(),
            info.shards.clone(),
            &info.erange,
            &mut vv,
            info.vrange.start,
            &mut sv,
            info.erange.start,
            false,
            &mut out.spills,
        );
        (out, vv, sv)
    }

    /// One iteration of a rebatched device: its shards stream through a
    /// fresh device in contiguous batches under the byte budget; each
    /// batch's updated slices are downloaded back into the masters. A
    /// further OOM halves the budget (up to the rebatch cap); exhausted
    /// kernel retries degrade to host fallback.
    fn iterate_rebatched(&mut self, d: usize) -> Result<DeviceIter<P>, DeviceFault> {
        let info = self.infos[d].clone();
        let per_entry = entry_bytes::<P>(self.cfg.base.repr);
        let mut out = DeviceIter {
            updated: 0,
            kernel_seconds: 0.0,
            spills: Vec::new(),
        };
        let mut s = info.shards.start;
        'shards: while s < info.shards.end {
            let Mode::Rebatched { budget } = self.modes[d] else {
                unreachable!()
            };
            // Greedy contiguous batch from `s` under the budget (always at
            // least one shard — a shard is indivisible).
            let mut end = s + 1;
            let mut bytes = self.gs.shard_entries(s).len() as u64 * per_entry;
            while end < info.shards.end {
                let nb = self.gs.shard_entries(end).len() as u64 * per_entry;
                if bytes + nb > budget {
                    break;
                }
                bytes += nb;
                end += 1;
            }
            match self.run_batch(d, s..end, &mut out) {
                Ok(()) => s = end,
                Err(DeviceFault::Oom { .. }) => {
                    self.faults[d].oom_rebatches += 1;
                    self.cfg.base.trace.instant(
                        d as u32,
                        lanes::FAULT,
                        "fault",
                        "oom-rebatch",
                        self.device_time(d),
                    );
                    if self.faults[d].oom_rebatches > self.cfg.max_rebatches {
                        self.faults[d].degradations += 1;
                        self.cfg.base.trace.instant(
                            d as u32,
                            lanes::FAULT,
                            "fault",
                            "degrade-to-host",
                            self.device_time(d),
                        );
                        self.modes[d] = Mode::Fallback;
                        self.host_iterate(d, s..info.shards.end, &mut out);
                        break 'shards;
                    }
                    self.modes[d] = Mode::Rebatched {
                        budget: (budget / 2).max(per_entry),
                    };
                }
                Err(DeviceFault::Kernel { .. }) => {
                    self.faults[d].degradations += 1;
                    self.cfg.base.trace.instant(
                        d as u32,
                        lanes::FAULT,
                        "fault",
                        "degrade-to-host",
                        self.device_time(d),
                    );
                    self.modes[d] = Mode::Fallback;
                    self.host_iterate(d, s..info.shards.end, &mut out);
                    break 'shards;
                }
                Err(other) => return Err(other),
            }
        }
        Ok(out)
    }

    /// Uploads, launches and downloads one batch of a rebatched device
    /// through a fresh `Gpu`. Kernel faults are retried in place up to the
    /// cap and then surface to the caller for degradation.
    fn run_batch(
        &mut self,
        d: usize,
        batch: Range<u32>,
        out: &mut DeviceIter<P>,
    ) -> Result<(), DeviceFault> {
        let info = DevInfo::new(&self.gs, self.cw.as_ref(), batch);
        let (maxr, backoff) = (self.cfg.max_copy_retries, self.cfg.backoff_base_seconds);

        // Fresh device for the batch, carrying the fault plan and retiring
        // the previous device's time totals.
        let mut fresh = Gpu::new(self.cfg.base.device.clone());
        fresh.set_profiling(self.cfg.base.profile);
        fresh.set_replay_slots(replay_slots(self.cfg.devices));
        let old = self.fleet.replace_device(d, fresh);
        self.retire_gpu(d, old);
        let mut dev = self.upload(d, &info)?;

        let desc = KernelDesc::new(
            self.desc_name.clone(),
            info.shards.len() as u32,
            self.cfg.base.threads_per_block,
        );
        let mut batch_spills = Vec::new();
        let (kstats, batch_updated) = Self::launch_retrying(
            self.fleet.device_mut(d),
            &desc,
            self.prog,
            &self.gs,
            self.cw.as_ref(),
            &info,
            &mut dev,
            self.cfg.max_kernel_retries,
            &mut self.faults[d],
            &mut batch_spills,
        )?;
        out.kernel_seconds += kstats.seconds;
        self.fleet.record_launch(d, &kstats);
        {
            let gpu = self.fleet.device_mut(d);
            let fault = &mut self.faults[d];
            let _ = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download_scalar(&dev.bufs.flag, 0)
            })?;
            // Sync the batch's updated state back into the masters — the
            // next batch (and the next iteration) upload from them.
            let vals = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download(&dev.bufs.vertex_values)
            })?;
            self.master_values[info.vrange.clone()].copy_from_slice(&vals);
            let srcv = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download(&dev.bufs.src_value)
            })?;
            self.master_src_value[info.erange.clone()].copy_from_slice(&srcv);
        }
        // Cross-batch stage-4 writes must land in the master `SrcValue`
        // before the next batch uploads its slice — that is exactly the
        // single-buffer visibility the resident kernel has for free.
        for &(k, v) in &batch_spills {
            self.master_src_value[k] = v;
        }
        out.updated += batch_updated;
        out.spills.append(&mut batch_spills);
        Ok(())
    }
}

/// What the Phase A oracle predicts for one resident device's Phase B
/// launch, and what the join checks the launch against.
#[derive(Clone, Copy, Debug)]
struct OracleCheck {
    updated: u64,
    spills: SpillDigest,
}

/// Count and FNV-1a fold of a spill sequence, one 64-bit word at a time —
/// position, then value bit pattern, in write order. Phase B records its
/// launch's spills into one of these instead of a list: the Phase A oracle
/// has already published the values, so only the check needs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpillDigest {
    count: u64,
    hash: u64,
}

impl SpillDigest {
    fn new() -> Self {
        SpillDigest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn of<V: Value>(spills: &[(usize, V)]) -> Self {
        let mut d = Self::new();
        for &(k, v) in spills {
            d.spill(k, v);
        }
        d
    }
}

impl<V: Value> SpillSink<V> for SpillDigest {
    fn spill(&mut self, entry: usize, value: V) {
        const PRIME: u64 = 0x100_0000_01b3;
        self.count += 1;
        self.hash = (self.hash ^ entry as u64).wrapping_mul(PRIME);
        self.hash = (self.hash ^ value.to_bits()).wrapping_mul(PRIME);
    }
}

/// Release-mode check of a Phase B launch against its Phase A oracle:
/// updated counts, spill counts, then the spill digests. `None` when they
/// agree, else what differed.
fn oracle_mismatch(updated: u64, spills: SpillDigest, oracle: &OracleCheck) -> Option<String> {
    if updated != oracle.updated {
        return Some(format!(
            "launch updated {updated} vertices, oracle {}",
            oracle.updated
        ));
    }
    let want = oracle.spills;
    if spills.count != want.count {
        return Some(format!(
            "launch wrote {} halo entries, oracle {}",
            spills.count, want.count
        ));
    }
    (spills.hash != want.hash).then(|| {
        format!(
            "halo digest {:#018x}, oracle {:#018x}",
            spills.hash, want.hash
        )
    })
}

/// What one resident device's Phase B worker brings back to the join point.
struct ResidentOutcome {
    /// `Some` for a completed launch; `None` when kernel retries were
    /// exhausted and the device must degrade to host fallback.
    kstats: Option<KernelStats>,
    updated: u64,
    spills: SpillDigest,
}

/// Phase B body for one resident device, run on a worker thread against
/// disjoint `&mut` borrows of the device's simulator, buffers, and fault
/// counters: flag reset upload, kernel launch with in-place retries, and
/// converged-flag readback — the same op sequence, in the same per-device
/// order, as the serial engine, so every modeled charge and fault-plan
/// consumption is identical. Exhausted kernel retries charge the degrade
/// path's state downloads (the data itself is discarded — the Phase A
/// oracle already holds those bytes) and report `kstats: None`; the join
/// point performs the actual degradation serially.
#[allow(clippy::too_many_arguments)]
fn resident_iteration<P: VertexProgram>(
    prog: &P,
    cfg: &MultiConfig,
    gs: &GShards,
    cw: Option<&ConcatWindows>,
    info: &DevInfo,
    desc: &KernelDesc,
    gpu: &mut Gpu,
    dev: &mut ResidentDev<P>,
    fault: &mut FaultStats,
) -> Result<ResidentOutcome, DeviceFault> {
    let (maxr, backoff) = (cfg.max_copy_retries, cfg.backoff_base_seconds);
    with_copy_retries(gpu, maxr, backoff, fault, |g| {
        g.try_h2d(&mut dev.bufs.flag, &[1u32])
    })?;
    let mut spills = SpillDigest::new();
    match MultiState::launch_retrying(
        gpu,
        desc,
        prog,
        gs,
        cw,
        info,
        dev,
        cfg.max_kernel_retries,
        fault,
        &mut spills,
    ) {
        Ok((k, updated)) => {
            // Per-iteration is_converged readback, as in Figure 5.
            let _ = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download_scalar(&dev.bufs.flag, 0)
            })?;
            Ok(ResidentOutcome {
                kstats: Some(k),
                updated,
                spills,
            })
        }
        Err(DeviceFault::Kernel { .. }) => {
            let _ = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download(&dev.bufs.vertex_values)
            })?;
            let _ = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download(&dev.bufs.src_value)
            })?;
            Ok(ResidentOutcome {
                kstats: None,
                updated: 0,
                spills,
            })
        }
        Err(other) => Err(other),
    }
}

/// Runs the fleet to completion. Returns the output whether or not it
/// converged (the `converged` flag tells); hard failures are errors.
fn run_multi_inner<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &MultiConfig,
    observer: &mut O,
) -> Result<MultiOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let n_per = cfg.base.vertices_per_shard.unwrap_or_else(|| {
        select_vertices_per_shard(
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            <P::V as Pod>::SIZE,
            &cfg.base.device,
            cfg.base.resident_blocks,
        )
    });
    let gs = GShards::from_graph(graph, n_per);
    let cw = matches!(cfg.base.repr, Repr::ConcatWindows).then(|| ConcatWindows::from_gshards(&gs));
    let fp = FleetPartition::from_graph(graph, n_per, cfg.devices);
    debug_assert_eq!(fp.num_shards(), gs.num_shards() as usize);

    let init: Vec<P::V> = (0..graph.num_vertices())
        .map(|v| prog.initial_value(v))
        .collect();
    let master_src_value: Vec<P::V> = gs.src_index().iter().map(|&s| init[s as usize]).collect();
    let static_entries: Option<Vec<P::SV>> = P::HAS_STATIC_VALUES.then(|| {
        let per_vertex = prog.static_values(graph);
        gs.src_index()
            .iter()
            .map(|&s| per_vertex[s as usize])
            .collect()
    });
    let edge_entries: Option<Vec<P::E>> = P::HAS_EDGE_VALUES.then(|| {
        let by_id = prog.edge_values(graph);
        gs.edge_id().iter().map(|&id| by_id[id as usize]).collect()
    });

    let mut fleet = DeviceFleet::new(&cfg.base.device, cfg.devices, cfg.interconnect.clone());
    fleet.set_tracer(&cfg.base.trace);
    let fleet_pid = fleet.fleet_pid();
    for d in 0..cfg.devices {
        fleet.device_mut(d).set_profiling(cfg.base.profile);
        fleet
            .device_mut(d)
            .set_replay_slots(replay_slots(cfg.devices));
    }
    let mut plans = cfg.fault_plans.clone();
    if plans.iter().all(Option::is_none) {
        if let Some(base_plan) = cfg.base.fault_plan.clone() {
            if plans.is_empty() {
                plans.push(None);
            }
            plans[0] = Some(base_plan);
        }
    }
    for (d, plan) in plans.into_iter().enumerate() {
        if let Some(p) = plan {
            fleet.device_mut(d).set_fault_plan(p);
        }
    }

    // Per-device global ranges from the edge-balanced partition.
    let infos: Vec<DevInfo> = fp
        .parts()
        .iter()
        .map(|part| {
            let shards = part.shards.start as u32..part.shards.end as u32;
            DevInfo::new(&gs, cw.as_ref(), shards)
        })
        .collect();
    // Monotone entry starts for owner lookup; empty partitions inherit the
    // running boundary so `partition_point` never sees a regression.
    let mut estarts: Vec<usize> = Vec::with_capacity(cfg.devices + 1);
    let mut boundary = 0usize;
    for info in &infos {
        if !info.shards.is_empty() {
            boundary = info.erange.start;
        }
        estarts.push(boundary);
        if !info.shards.is_empty() {
            boundary = info.erange.end;
        }
    }
    estarts.push(gs.num_edges() as usize);

    let desc_name: std::sync::Arc<str> =
        format!("{}::{}", cfg.base.repr.label(), prog.name()).into();
    let engine_label = if cfg.devices == 1 {
        cfg.base.repr.label().to_string()
    } else {
        format!("{} x{}", cfg.base.repr.label(), cfg.devices)
    };

    let mut st = MultiState {
        prog,
        cfg,
        gs,
        cw,
        fleet,
        infos,
        modes: (0..cfg.devices).map(|_| Mode::Idle).collect(),
        master_values: init,
        master_src_value,
        static_entries,
        edge_entries,
        faults: vec![FaultStats::default(); cfg.devices],
        sdcs: vec![SdcStats::default(); cfg.devices],
        acc: vec![TimeAcc::default(); cfg.devices],
        profiles: vec![None; cfg.devices],
        desc_name,
        estarts,
    };

    // ---- Setup: upload every non-empty partition (H2D) --------------------
    for d in 0..cfg.devices {
        if st.infos[d].shards.is_empty() {
            continue;
        }
        match st.setup_resident(d) {
            Ok(()) => {}
            Err(DeviceFault::Oom { .. }) => {
                // The partition does not fit: stream it in batches under
                // half the device's memory, like the streamed engine.
                st.faults[d].oom_rebatches += 1;
                cfg.base.trace.instant(
                    d as u32,
                    lanes::FAULT,
                    "fault",
                    "oom-rebatch",
                    st.device_time(d),
                );
                st.modes[d] = Mode::Rebatched {
                    budget: (cfg.base.device.global_mem_bytes / 2).max(1),
                };
            }
            Err(f) => return Err(f.into()),
        }
    }
    let setup_seconds = (0..cfg.devices)
        .map(|d| st.device_time(d))
        .fold(0.0f64, f64::max);
    let setup_marks: Vec<f64> = (0..cfg.devices).map(|d| st.device_time(d)).collect();
    cfg.base.trace.complete(
        fleet_pid,
        lanes::ENGINE,
        "engine",
        "setup",
        0.0,
        setup_seconds,
    );
    // Fleet-lane clock: devices overlap, so the fleet timeline advances by
    // the slowest device's wall per iteration plus each exchange.
    let mut fleet_clock = setup_seconds;

    // ---- Convergence loop -------------------------------------------------
    let halo_bytes_per_vertex = <P::V as Pod>::SIZE as u64 + 4; // value + vertex id
    let mut stats = MultiRunStats {
        engine: engine_label,
        interconnect: cfg.interconnect.name.to_string(),
        devices: cfg.devices,
        iterations: 0,
        converged: false,
        setup_seconds,
        compute_seconds: 0.0,
        exchange_bytes: 0,
        exchange_seconds: 0.0,
        teardown_seconds: 0.0,
        load_imbalance: fp.imbalance(),
        per_device: Vec::new(),
        aggregate: KernelStats::default(),
        fault: FaultStats::default(),
        sdc: SdcStats::default(),
        memo: MemoStats::default(),
        per_iteration: Vec::new(),
    };
    let mut sent_bytes_total = vec![0u64; cfg.devices];
    let mut recv_bytes_total = vec![0u64; cfg.devices];
    let mut time_marks = setup_marks;
    let mut watchdog_seen: HashSet<u64> = HashSet::new();
    let mut halo_seen = vec![0u64; (graph.num_vertices() as usize * cfg.devices).div_ceil(64)];
    let mut watchdog_seconds = 0.0f64;
    let mut converged = false;

    // ---- SDC defense state ------------------------------------------------
    // The masters still hold the untouched initial state here (no iteration
    // has run), so they seed both the checkpoint ring and the full-restart
    // image for free. Fleet-global bookkeeping (checkpoints, invariant
    // detections) is attributed to device 0.
    let integ = cfg.base.integrity;
    let mut ckpts: CheckpointManager<P::V> = CheckpointManager::new(integ.max_checkpoints);
    let init_state = if integ.mode.enabled() {
        ckpts.push(
            0,
            st.master_values.clone(),
            st.master_src_value.clone(),
            HashSet::new(),
        );
        st.sdcs[0].checkpoints += 1;
        Some((st.master_values.clone(), st.master_src_value.clone()))
    } else {
        None
    };
    let mut crcs: Vec<(u64, u64)> = vec![(0, 0); cfg.devices];
    if integ.mode.checksums() {
        st.store_crcs(&mut crcs);
    }
    let mut integrity_seconds = 0.0f64;
    let mut need_reverify = false;

    while stats.iterations < cfg.base.max_iterations {
        // Flip points: every device's due silent bit flips land while the
        // fleet is quiescent, and the scrubber verifies every resident
        // device before any kernel consumes (or spill overwrites) the
        // corrupted words.
        st.apply_due_flips();
        if integ.mode.checksums() {
            if let Some(det) = st.scrub(&crcs) {
                let (iv, is) = init_state.as_ref().expect("checksums imply enabled");
                let (iv, is) = (iv.clone(), is.clone());
                st.sdc_recover_fleet(
                    det,
                    Detector::Checksum,
                    &mut ckpts,
                    &mut crcs,
                    &mut stats,
                    &mut watchdog_seen,
                    &iv,
                    &is,
                    &mut time_marks,
                    &mut integrity_seconds,
                )
                .map_err(EngineError::from)?;
                need_reverify = true;
                continue;
            }
        }
        let mut iter_updated = 0u64;
        let mut max_wall = 0.0f64;
        let mut max_kernel = 0.0f64;
        // Distinct (source vertex, target device) halo pairs, one bit
        // each: a vertex's value crosses to a peer at most once per
        // exchange. Each device spills only its own vertices' values.
        halo_seen.fill(0);
        let mut sent_pairs = vec![0u64; cfg.devices];
        let mut recv_pairs = vec![0u64; cfg.devices];
        // ---- Phase A: serial functional oracle, in device order ----------
        // Resident devices are re-enacted on host scratch without touching
        // the device; rebatched and fallback devices, whose work is
        // host-mastered and inherently order-dependent, run in full. Every
        // spill therefore lands in the masters — and in later resident
        // devices' `SrcValue` mirrors — at exactly the serial schedule's
        // points, before any Phase B launch consumes it.
        let mut iters: Vec<Option<DeviceIter<P>>> = (0..cfg.devices).map(|_| None).collect();
        let mut oracle: Vec<Option<OracleCheck>> = vec![None; cfg.devices];
        // Spills whose resident owner precedes the writer in device order:
        // the serial schedule lands them after the owner's launch, so the
        // parallel one must hold them until every launch has joined.
        let mut deferred: Vec<(usize, usize, P::V)> = Vec::new();
        for d in 0..cfg.devices {
            let mut res = match &st.modes[d] {
                Mode::Idle => continue,
                Mode::Resident(_) => {
                    // The scratch is dropped here; a degrading launch
                    // rebuilds it at the join.
                    let (res, _, _) = st.oracle_resident(d);
                    oracle[d] = Some(OracleCheck {
                        updated: res.updated,
                        spills: SpillDigest::of(&res.spills),
                    });
                    res
                }
                Mode::Rebatched { .. } => st.iterate_rebatched(d).map_err(EngineError::from)?,
                Mode::Fallback => {
                    let shards = st.infos[d].shards.clone();
                    let mut out = DeviceIter {
                        updated: 0,
                        kernel_seconds: 0.0,
                        spills: Vec::new(),
                    };
                    st.host_iterate(d, shards, &mut out);
                    out
                }
            };
            // Apply the device's halo updates in write order: later devices
            // observe them this iteration, earlier ones next — exactly the
            // single-buffer stage-4 visibility of the serial engine.
            for &(k, v) in &res.spills {
                st.master_src_value[k] = v;
                let t = st.owner_of_entry(k);
                if t != d {
                    match &mut st.modes[t] {
                        Mode::Resident(dev) if t > d => {
                            dev.bufs.src_value.host_mut()[k - st.infos[t].erange.start] = v;
                        }
                        Mode::Resident(_) => deferred.push((t, k, v)),
                        _ => {}
                    }
                    let bit = st.gs.src_index()[k] as usize * cfg.devices + t;
                    let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                    if halo_seen[word] & mask == 0 {
                        halo_seen[word] |= mask;
                        sent_pairs[d] += 1;
                        recv_pairs[t] += 1;
                    }
                }
            }
            // Published: only the oracle's digest of them is needed now.
            res.spills = Vec::new();
            iters[d] = Some(res);
        }

        // ---- Phase B: the real resident launches, on worker threads ------
        // Each worker owns disjoint `&mut` borrows of one device's
        // simulator, buffers, and fault counters, plus a private fork of
        // the tracer. All modeled time and every fault-plan draw is
        // per-device, so the thread interleaving cannot change a single
        // charge, counter, or value — only how fast the host gets through
        // them.
        let mut outcomes: Vec<Option<Result<ResidentOutcome, DeviceFault>>> =
            (0..cfg.devices).map(|_| None).collect();
        {
            let prog = st.prog;
            let mcfg = st.cfg;
            let gs = &st.gs;
            let cw = st.cw.as_ref();
            let infos = &st.infos;
            let mut work: Vec<(
                usize,
                KernelDesc,
                &mut Gpu,
                &mut ResidentDev<P>,
                &mut FaultStats,
            )> = Vec::new();
            for (d, ((gpu, mode), fault)) in st
                .fleet
                .devices_mut()
                .iter_mut()
                .zip(st.modes.iter_mut())
                .zip(st.faults.iter_mut())
                .enumerate()
            {
                if let Mode::Resident(dev) = mode {
                    let desc = KernelDesc::new(
                        st.desc_name.clone(),
                        infos[d].shards.len() as u32,
                        mcfg.base.threads_per_block,
                    );
                    work.push((d, desc, gpu, &mut **dev, fault));
                }
            }
            let jobs = effective_jobs(mcfg.jobs).min(work.len()).max(1);
            let mut buckets: Vec<Vec<_>> = (0..jobs).map(|_| Vec::new()).collect();
            for (i, w) in work.into_iter().enumerate() {
                buckets[i % jobs].push(w);
            }
            let run_bucket = |bucket: Vec<_>| {
                bucket
                    .into_iter()
                    .map(
                        |(d, desc, gpu, dev, fault): (usize, KernelDesc, &mut Gpu, _, _)| {
                            let pid = gpu.trace_pid();
                            let fork = gpu.tracer().fork();
                            gpu.set_tracer(fork, pid);
                            let r = resident_iteration(
                                prog, mcfg, gs, cw, &infos[d], &desc, gpu, dev, fault,
                            );
                            (d, r)
                        },
                    )
                    .collect::<Vec<_>>()
            };
            // One job runs on the calling thread. A worker spawned per
            // iteration would be placed on the other CPU, so every
            // iteration would hop between CPUs and a stall on either one
            // would stretch the solve.
            let results: Vec<_> = if jobs == 1 {
                buckets.into_iter().flat_map(run_bucket).collect()
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = buckets
                        .into_iter()
                        .map(|bucket| scope.spawn(move || run_bucket(bucket)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("phase B worker panicked"))
                        .collect()
                })
            };
            for (d, r) in results {
                outcomes[d] = Some(r);
            }
        }

        // ---- Join: fold Phase B back in, in device order -----------------
        let mut first_err: Option<DeviceFault> = None;
        for d in 0..cfg.devices {
            let Some(outcome) = outcomes[d].take() else {
                continue;
            };
            // Merge the worker's private trace lane and restore the shared
            // tracer, so absorbed events sit in device order just as the
            // serial engine emitted them.
            {
                let gpu = st.fleet.device_mut(d);
                let fork = gpu.tracer().clone();
                cfg.base.trace.absorb(&fork);
                gpu.set_tracer(cfg.base.trace.clone(), d as u32);
            }
            let oc = match outcome {
                Ok(oc) => oc,
                Err(f) => {
                    if first_err.is_none() {
                        first_err = Some(f);
                    }
                    continue;
                }
            };
            let it = iters[d].as_mut().expect("oracle ran for this device");
            match oc.kstats {
                Some(k) => {
                    // The oracle already published this launch's halo
                    // updates; a launch that disagrees with it leaves the
                    // fleet's values untrustworthy, so the run stops.
                    let want = oracle[d].as_ref().expect("oracle state");
                    if let Some(detail) = oracle_mismatch(oc.updated, oc.spills, want) {
                        return Err(EngineError::OracleMismatch { device: d, detail });
                    }
                    it.kernel_seconds = k.seconds;
                    st.fleet.record_launch(d, &k);
                }
                None => {
                    // Kernel retries exhausted: degrade to host fallback.
                    // The worker already charged the serial path's state
                    // downloads. A launch fault fires before any block
                    // runs and the deferred spills have not landed yet, so
                    // the device mirrors still hold the oracle's input:
                    // re-running it rebuilds the Phase A scratch, which is
                    // bit-identical to download-then-re-enact and becomes
                    // the master copy.
                    let (_, vv, sv) = st.oracle_resident(d);
                    let info = &st.infos[d];
                    st.master_values[info.vrange.clone()].copy_from_slice(&vv);
                    st.master_src_value[info.erange.clone()].copy_from_slice(&sv);
                    st.faults[d].degradations += 1;
                    cfg.base.trace.instant(
                        d as u32,
                        lanes::FAULT,
                        "fault",
                        "degrade-to-host",
                        st.device_time(d),
                    );
                    st.modes[d] = Mode::Fallback;
                }
            }
        }
        // Deferred spills land now that every launch has joined. An owner
        // that just degraded takes them in its master slice instead (the
        // scratch copy-in above rolled the slice back to the owner's own
        // post-iteration state, which predates these writes).
        for &(t, k, v) in &deferred {
            if let Mode::Resident(dev) = &mut st.modes[t] {
                dev.bufs.src_value.host_mut()[k - st.infos[t].erange.start] = v;
            } else {
                st.master_src_value[k] = v;
            }
        }
        if let Some(f) = first_err {
            return Err(EngineError::from(f));
        }
        // Per-device iteration accounting, in device order; all Phase B
        // charges are in, so every modeled clock reads the serial value.
        for d in 0..cfg.devices {
            let Some(res) = &iters[d] else { continue };
            iter_updated += res.updated;
            max_kernel = max_kernel.max(res.kernel_seconds);
            let now = st.device_time(d);
            max_wall = max_wall.max(now - time_marks[d]);
            time_marks[d] = now;
        }
        // Record the post-iteration checksums once every device's spills
        // have landed — legitimate halo writes into a peer's `SrcValue`
        // must be inside the reference, not flagged by the next scrub.
        if integ.mode.checksums() {
            st.store_crcs(&mut crcs);
        }
        stats.iterations += 1;
        stats.per_iteration.push(IterationStat {
            seconds: max_kernel,
            updated_vertices: iter_updated,
        });
        stats.compute_seconds += max_wall;
        let iter_no = stats.iterations as u64 - 1;
        cfg.base.trace.complete_with(
            fleet_pid,
            lanes::ENGINE,
            "engine",
            "iteration",
            fleet_clock,
            max_wall,
            || {
                vec![
                    ("iteration", ArgVal::U64(iter_no)),
                    ("updated_vertices", ArgVal::U64(iter_updated)),
                ]
            },
        );
        fleet_clock += max_wall;
        cfg.base.trace.counter(
            fleet_pid,
            lanes::ENGINE,
            "updated_vertices",
            fleet_clock,
            iter_updated as f64,
        );
        // Bulk-synchronous halo exchange over the interconnect.
        let sent: Vec<u64> = sent_pairs
            .iter()
            .map(|&n| n * halo_bytes_per_vertex)
            .collect();
        let exchange = st.fleet.exchange_seconds(&sent);
        stats.exchange_seconds += exchange;
        let exchanged_bytes: u64 = sent.iter().sum();
        cfg.base.trace.complete_with(
            fleet_pid,
            lanes::ENGINE,
            "exchange",
            "halo-exchange",
            fleet_clock,
            exchange,
            || vec![("bytes", ArgVal::U64(exchanged_bytes))],
        );
        fleet_clock += exchange;
        for d in 0..cfg.devices {
            sent_bytes_total[d] += sent[d];
            stats.exchange_bytes += sent[d];
            recv_bytes_total[d] += recv_pairs[d] * halo_bytes_per_vertex;
        }
        if iter_updated == 0 {
            converged = true;
            break;
        }
        if !observer.on_iteration(stats.iterations, iter_updated, fleet_clock) {
            return Err(EngineError::Deadline {
                iterations: stats.iterations,
                elapsed_seconds: fleet_clock,
            });
        }
        // Checkpoint boundary: assemble the global state (resident slices
        // are real, charged D2H downloads), verify the algorithm invariant
        // against the last verified snapshot, and store it as the new
        // rollback target.
        if integ.mode.enabled() && stats.iterations.is_multiple_of(integ.checkpoint_every) {
            let mut vals = st.master_values.clone();
            let mut srcs = st.master_src_value.clone();
            for d in 0..cfg.devices {
                if let Mode::Resident(dev) = &st.modes[d] {
                    let before = st.device_time(d);
                    let gpu = st.fleet.device_mut(d);
                    let fault = &mut st.faults[d];
                    let v = with_copy_retries(
                        gpu,
                        cfg.max_copy_retries,
                        cfg.backoff_base_seconds,
                        fault,
                        |g| g.try_download(&dev.bufs.vertex_values),
                    )
                    .map_err(EngineError::from)?;
                    vals[st.infos[d].vrange.clone()].copy_from_slice(&v);
                    let sv = with_copy_retries(
                        gpu,
                        cfg.max_copy_retries,
                        cfg.backoff_base_seconds,
                        fault,
                        |g| g.try_download(&dev.bufs.src_value),
                    )
                    .map_err(EngineError::from)?;
                    srcs[st.infos[d].erange.clone()].copy_from_slice(&sv);
                    let after = st.device_time(d);
                    integrity_seconds += after - before;
                    time_marks[d] = after;
                }
            }
            let violated = integ.mode.invariants()
                && prog
                    .check_invariant(&ckpts.latest().expect("initial checkpoint").values, &vals)
                    .is_err();
            if violated {
                let (iv, is) = init_state.as_ref().expect("enabled mode has init state");
                let (iv, is) = (iv.clone(), is.clone());
                st.sdc_recover_fleet(
                    0,
                    Detector::Invariant,
                    &mut ckpts,
                    &mut crcs,
                    &mut stats,
                    &mut watchdog_seen,
                    &iv,
                    &is,
                    &mut time_marks,
                    &mut integrity_seconds,
                )
                .map_err(EngineError::from)?;
                need_reverify = true;
                continue;
            }
            ckpts.push(stats.iterations, vals, srcs, watchdog_seen.clone());
            st.sdcs[0].checkpoints += 1;
            if need_reverify {
                need_reverify = false;
                cfg.base
                    .trace
                    .instant(fleet_pid, lanes::FAULT, "sdc", "reverify", fleet_clock);
            }
        }
        if let Some(w) = cfg.base.watchdog_interval {
            if stats.iterations.is_multiple_of(w) {
                // Assemble the current global value vector (resident
                // slices are real, charged D2H snapshots).
                let mut snapshot = st.master_values.clone();
                for d in 0..cfg.devices {
                    if let Mode::Resident(dev) = &st.modes[d] {
                        let before = st.device_time(d);
                        let gpu = st.fleet.device_mut(d);
                        let fault = &mut st.faults[d];
                        let vals = with_copy_retries(
                            gpu,
                            cfg.max_copy_retries,
                            cfg.backoff_base_seconds,
                            fault,
                            |g| g.try_download(&dev.bufs.vertex_values),
                        )
                        .map_err(EngineError::from)?;
                        snapshot[st.infos[d].vrange.clone()].copy_from_slice(&vals);
                        let after = st.device_time(d);
                        watchdog_seconds += after - before;
                        time_marks[d] = after;
                    }
                }
                if !watchdog_seen.insert(crate::engine::fingerprint(&snapshot)) {
                    return Err(EngineError::Watchdog {
                        iterations: stats.iterations,
                    });
                }
            }
        }
    }
    stats.converged = converged;
    stats.compute_seconds += watchdog_seconds + integrity_seconds;
    if need_reverify {
        // The recovered trajectory converged before the next checkpoint
        // boundary re-verified it; the converged state itself is the proof.
        cfg.base
            .trace
            .instant(fleet_pid, lanes::FAULT, "sdc", "reverify", fleet_clock);
    }

    // ---- Download results (D2H) -------------------------------------------
    let mut values = st.master_values.clone();
    let mut teardown = 0.0f64;
    for d in 0..cfg.devices {
        if let Mode::Resident(dev) = &st.modes[d] {
            let before = st.device_time(d);
            let gpu = st.fleet.device_mut(d);
            let fault = &mut st.faults[d];
            let vals = with_copy_retries(
                gpu,
                cfg.max_copy_retries,
                cfg.backoff_base_seconds,
                fault,
                |g| g.try_download(&dev.bufs.vertex_values),
            )
            .map_err(EngineError::from)?;
            values[st.infos[d].vrange.clone()].copy_from_slice(&vals);
            teardown = teardown.max(st.device_time(d) - before);
        }
    }
    stats.teardown_seconds = teardown;
    cfg.base.trace.complete(
        fleet_pid,
        lanes::ENGINE,
        "engine",
        "download",
        fleet_clock,
        teardown,
    );

    // ---- Per-device breakdown ---------------------------------------------
    for d in 0..cfg.devices {
        let gpu = st.fleet.device(d);
        st.sdcs[d].flips_injected = gpu
            .fault_plan()
            .map(|p| p.injected().bit_flips)
            .unwrap_or(0);
        let a = st.acc[d];
        let mut memo = a.memo;
        memo.add(&MemoStats::from_gpu(gpu));
        let part = &fp.parts()[d];
        let mut profile = st.profiles[d].take();
        if let Some(fresh) = st.fleet.device(d).profile.as_ref() {
            let merged = profile.get_or_insert_with(Profile::default);
            for launch in fresh.launches() {
                merged.record(launch);
            }
        }
        stats.per_device.push(DeviceRunStats {
            device: d,
            mode: st.modes[d].label(),
            shards: part.shards.len(),
            vertices: part.vertices.len(),
            edges: part.edges,
            halo_vertices: part.halo.len(),
            h2d_seconds: a.h2d + gpu.h2d_seconds,
            d2h_seconds: a.d2h + gpu.d2h_seconds,
            kernel_seconds: a.kernel + gpu.kernel_seconds,
            kernels_launched: a.launched + gpu.kernels_launched,
            kernel: st.fleet.device_stats(d).clone(),
            exchange_sent_bytes: sent_bytes_total[d],
            exchange_recv_bytes: recv_bytes_total[d],
            fault: st.faults[d],
            sdc: st.sdcs[d],
            memo,
            profile,
        });
        let f = &st.faults[d];
        stats.fault.copy_retries += f.copy_retries;
        stats.fault.backoff_seconds += f.backoff_seconds;
        stats.fault.oom_rebatches += f.oom_rebatches;
        stats.fault.degradations += f.degradations;
        stats.fault.kernel_retries += f.kernel_retries;
        stats.sdc.absorb(&st.sdcs[d]);
        stats.memo.add(&memo);
    }
    stats.aggregate = st.fleet.aggregate_stats();
    stats.aggregate.name = st.desc_name.clone();

    Ok(MultiOutput { values, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, CuShaConfig};
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, VertexId};
    use cusha_simt::FaultPlan;

    struct MiniSssp {
        source: VertexId,
    }

    const INF: u32 = u32::MAX;

    impl VertexProgram for MiniSssp {
        type V = u32;
        type E = u32;
        type SV = u32;
        const HAS_EDGE_VALUES: bool = true;
        const HAS_STATIC_VALUES: bool = false;

        fn name(&self) -> &'static str {
            "mini-sssp"
        }
        fn initial_value(&self, v: VertexId) -> u32 {
            if v == self.source {
                0
            } else {
                INF
            }
        }
        fn edge_value(&self, w: u32) -> u32 {
            w
        }
        fn init_compute(&self, local: &mut u32, global: &u32) {
            *local = *global;
        }
        fn compute(&self, src: &u32, _st: &u32, edge: &u32, local: &mut u32) {
            if *src != INF {
                *local = (*local).min(src.saturating_add(*edge));
            }
        }
        fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
            *local < *old
        }
    }

    fn test_graph() -> Graph {
        rmat(&RmatConfig::graph500(8, 1500, 21))
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn one_device_matches_engine_bit_for_bit_gs() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 1));
        assert_eq!(single.values, multi.values);
        let (s, m) = (&single.stats, &multi.stats);
        assert_eq!(s.iterations, m.iterations);
        assert_eq!(m.exchange_bytes, 0);
        assert_eq!(m.exchange_seconds, 0.0);
        // Same upload/launch/readback schedule -> same modeled time.
        assert!(
            close(s.h2d_seconds, m.setup_seconds),
            "{} vs {}",
            s.h2d_seconds,
            m.setup_seconds
        );
        assert!(
            close(s.compute_seconds, m.compute_seconds),
            "{} vs {}",
            s.compute_seconds,
            m.compute_seconds
        );
        assert!(close(s.d2h_seconds, m.teardown_seconds));
        assert!(close(s.total_seconds(), m.modeled_seconds()));
    }

    #[test]
    fn one_device_matches_engine_bit_for_bit_cw() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 1));
        assert_eq!(single.values, multi.values);
        assert!(close(
            single.stats.total_seconds(),
            multi.stats.modeled_seconds()
        ));
    }

    #[test]
    fn multi_device_output_is_bit_identical() {
        let g = test_graph();
        for repr_cfg in [CuShaConfig::gs(), CuShaConfig::cw()] {
            let base = repr_cfg.with_vertices_per_shard(32);
            let single = run(&MiniSssp { source: 0 }, &g, &base);
            for devices in [2, 3, 4] {
                let multi = run_multi(
                    &MiniSssp { source: 0 },
                    &g,
                    &MultiConfig::new(base.clone(), devices),
                );
                assert_eq!(
                    single.values,
                    multi.values,
                    "{} x{devices} diverged",
                    base.repr.label()
                );
                assert_eq!(single.stats.iterations, multi.stats.iterations);
            }
        }
    }

    #[test]
    fn multi_device_exchanges_halo_bytes() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 4));
        assert!(multi.stats.exchange_bytes > 0);
        assert!(multi.stats.exchange_seconds > 0.0);
        let sent: u64 = multi
            .stats
            .per_device
            .iter()
            .map(|d| d.exchange_sent_bytes)
            .sum();
        let recv: u64 = multi
            .stats
            .per_device
            .iter()
            .map(|d| d.exchange_recv_bytes)
            .sum();
        assert_eq!(sent, multi.stats.exchange_bytes);
        assert!(recv > 0);
        assert!(multi.stats.load_imbalance >= 1.0);
    }

    #[test]
    fn nvlink_exchanges_faster_than_pcie() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let pcie = run_multi(
            &MiniSssp { source: 0 },
            &g,
            &MultiConfig::new(base.clone(), 4),
        );
        let nv = run_multi(
            &MiniSssp { source: 0 },
            &g,
            &MultiConfig::new(base, 4).with_interconnect(Interconnect::nvlink()),
        );
        assert_eq!(pcie.values, nv.values);
        assert_eq!(pcie.stats.exchange_bytes, nv.stats.exchange_bytes);
        assert!(nv.stats.exchange_seconds < pcie.stats.exchange_seconds);
    }

    #[test]
    fn more_devices_than_shards_leaves_spares_idle() {
        // 3 vertices at 2 per shard -> 2 shards, 4 devices.
        let g = Graph::new(
            3,
            vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 5)],
        );
        let base = CuShaConfig::gs().with_vertices_per_shard(2);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 4));
        assert_eq!(single.values, multi.values);
        let idle = multi
            .stats
            .per_device
            .iter()
            .filter(|d| d.mode == "idle")
            .count();
        assert_eq!(idle, 2);
        for d in &multi.stats.per_device {
            if d.mode == "idle" {
                assert_eq!(d.kernels_launched, 0);
                assert_eq!(d.exchange_sent_bytes, 0);
            }
        }
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = Graph::empty(8);
        let base = CuShaConfig::cw().with_vertices_per_shard(4);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        assert!(multi.stats.converged);
        assert_eq!(multi.stats.iterations, 1);
        assert_eq!(multi.stats.exchange_bytes, 0);
        assert_eq!(multi.values[0], 0);
        assert!(multi.values[1..].iter().all(|&v| v == INF));
    }

    #[test]
    fn kernel_fault_on_one_device_degrades_it_not_the_fleet() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        // Two faults on device 1: the in-place retry is exhausted and the
        // device degrades to the host path.
        let cfg = MultiConfig::new(base, 3)
            .with_device_fault_plan(1, FaultPlan::new().fail_kernel_at(&[1, 2]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(
            single.values, multi.values,
            "fault recovery broke bit-identity"
        );
        assert_eq!(multi.stats.per_device[1].mode, FALLBACK_LABEL);
        assert_eq!(multi.stats.per_device[1].fault.kernel_retries, 1);
        assert_eq!(multi.stats.per_device[1].fault.degradations, 1);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
        assert_eq!(multi.stats.per_device[2].mode, "resident");
        assert!(multi.stats.fault.degradations == 1);
    }

    #[test]
    fn transient_copy_fault_is_retried() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let cfg =
            MultiConfig::new(base, 2).with_device_fault_plan(0, FaultPlan::new().fail_h2d_at(&[3]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(single.values, multi.values);
        assert_eq!(multi.stats.per_device[0].fault.copy_retries, 1);
        assert!(multi.stats.fault.backoff_seconds > 0.0);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
    }

    #[test]
    fn alloc_fault_rebatches_without_breaking_identity() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let single = run(&MiniSssp { source: 0 }, &g, &base);
        let cfg = MultiConfig::new(base, 2)
            .with_device_fault_plan(1, FaultPlan::new().fail_alloc_at(&[4]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &cfg);
        assert_eq!(single.values, multi.values, "rebatching broke bit-identity");
        assert_eq!(multi.stats.per_device[1].mode, "rebatched");
        assert!(multi.stats.per_device[1].fault.oom_rebatches >= 1);
        assert_eq!(multi.stats.per_device[0].mode, "resident");
    }

    #[test]
    fn base_fault_plan_lands_on_device_zero() {
        let g = test_graph();
        let base = CuShaConfig::gs()
            .with_vertices_per_shard(32)
            .with_fault_plan(FaultPlan::new().fail_h2d_at(&[1]));
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        assert_eq!(multi.stats.per_device[0].fault.copy_retries, 1);
        assert_eq!(multi.stats.per_device[1].fault.copy_retries, 0);
    }

    #[test]
    fn aggregate_equals_sum_of_devices() {
        let g = test_graph();
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 3));
        let s = &multi.stats;
        assert_eq!(s.per_device.len(), 3);
        let blocks: u32 = s.per_device.iter().map(|d| d.kernel.blocks).sum();
        assert_eq!(s.aggregate.blocks, blocks);
        let wi: u64 = s
            .per_device
            .iter()
            .map(|d| d.kernel.counters.warp_instructions)
            .sum();
        assert_eq!(s.aggregate.counters.warp_instructions, wi);
        let secs: f64 = s.per_device.iter().map(|d| d.kernel.seconds).sum();
        assert!(close(s.aggregate.seconds, secs));
        // Per-iteration compute is the slowest device, so overlapped time
        // is below the serial sum.
        let serial: f64 = s.per_device.iter().map(|d| d.kernel_seconds).sum();
        assert!(s.compute_seconds < serial + s.setup_seconds + 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let zero = MultiConfig {
            devices: 0,
            ..MultiConfig::new(base.clone(), 1)
        };
        assert!(matches!(
            try_run_multi(&MiniSssp { source: 0 }, &g, &zero),
            Err(EngineError::InvalidConfig(_))
        ));
        let overfull = MultiConfig::new(base, 2).with_device_fault_plan(5, FaultPlan::new());
        assert!(matches!(
            try_run_multi(&MiniSssp { source: 0 }, &g, &overfull),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tracer_records_fleet_and_device_lanes() {
        use cusha_obs::trace::{Ph, Tracer};
        let g = test_graph();
        let tracer = Tracer::enabled();
        let base = CuShaConfig::gs()
            .with_vertices_per_shard(32)
            .with_tracer(tracer.clone());
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        let fleet_pid = 2u32; // devices 0..2, fleet lane after them
        tracer.with_events(|events| {
            let iters = events
                .iter()
                .filter(|e| e.pid == fleet_pid && e.name == "iteration" && e.ph == Ph::Complete)
                .count();
            assert_eq!(iters as u32, multi.stats.iterations);
            assert!(events
                .iter()
                .any(|e| e.pid == fleet_pid && e.name == "halo-exchange"));
            assert!(events
                .iter()
                .any(|e| e.pid == fleet_pid && e.name == "setup" && e.ph == Ph::Complete));
            // Both devices launched kernels on their own lanes.
            for pid in 0..2u32 {
                assert!(
                    events
                        .iter()
                        .any(|e| e.pid == pid && e.cat == "kernel" && e.ph == Ph::Complete),
                    "device {pid} has no kernel span"
                );
            }
        });
    }

    #[test]
    fn record_metrics_emits_per_device_series() {
        let g = test_graph();
        let base = CuShaConfig::gs().with_vertices_per_shard(32);
        let multi = run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2));
        let mut reg = cusha_obs::MetricsRegistry::new();
        multi.stats.record_metrics(&mut reg, &[("engine", "multi")]);
        let text = reg.render_text();
        assert!(text.contains("multi_devices{engine=multi}"));
        assert!(text.contains("device_kernel_seconds{device=0,engine=multi}"));
        assert!(text.contains("device_kernel_seconds{device=1,engine=multi}"));
        assert!(text.contains("gpu_gld_efficiency{device=1,engine=multi}"));
        assert!(text.contains("fault_copy_retries{engine=multi}"));
        // Memo telemetry, per device and summed fleet-wide.
        let hits: u64 = multi
            .stats
            .per_device
            .iter()
            .map(|d| d.memo.replay_hits)
            .sum();
        assert!(hits > 0);
        assert_eq!(multi.stats.memo.replay_hits, hits);
        assert_eq!(multi.stats.as_run_stats().memo, multi.stats.memo);
        assert!(text.contains("simt_replay_memo_hits_total{device=0,engine=multi}"));
        assert!(text.contains("simt_coalesce_memo_misses_total{device=1,engine=multi}"));
        assert!(text.contains(&format!(
            "simt_replay_memo_hits_total{{engine=multi}} = {hits}"
        )));
    }

    #[test]
    fn oracle_check_names_what_differs() {
        let digest = |s: &[(usize, u32)]| SpillDigest::of(s);
        let spills = [(5, 1), (9, 2)];
        let oracle = OracleCheck {
            updated: 3,
            spills: digest(&spills),
        };
        assert_eq!(oracle_mismatch(3, digest(&spills), &oracle), None);
        let cases = [
            (4, digest(&spills), "updated 4"),
            (3, digest(&spills[..1]), "1 halo entries"),
            (3, digest(&[(9, 2), (5, 1)]), "digest"),
            (3, digest(&[(5, 1), (9, 3)]), "digest"),
        ];
        for (updated, spills, want) in cases {
            let detail = oracle_mismatch(updated, spills, &oracle).expect("mismatch");
            assert!(detail.contains(want), "{detail}");
            let e: EngineError<u32> = EngineError::OracleMismatch { device: 1, detail };
            assert_eq!(e.kind(), "oracle-mismatch");
            assert!(e.to_string().starts_with("device 1: "), "{e}");
        }
    }

    #[test]
    fn non_converged_carries_flattened_partial() {
        let g = test_graph();
        let mut base = CuShaConfig::gs().with_vertices_per_shard(32);
        base.max_iterations = 1;
        let err =
            try_run_multi(&MiniSssp { source: 0 }, &g, &MultiConfig::new(base, 2)).unwrap_err();
        match err {
            EngineError::NonConverged { partial } => {
                assert_eq!(partial.stats.iterations, 1);
                assert!(!partial.stats.converged);
                assert!(partial.stats.compute_seconds > 0.0);
            }
            other => panic!("expected NonConverged, got {other}"),
        }
    }
}
