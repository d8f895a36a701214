//! Multi-streamed out-of-core processing — the extension the paper's
//! Section 5.1 sketches: *"If graphs do not fit in the GPU RAM, a
//! multi-streamed procedure should be incorporated to overlap computation
//! and data transfer."*
//!
//! The scheme: `VertexValues` (and the convergence flag) stay resident on
//! the device; the per-entry shard arrays — the bulk of G-Shards/CW — are
//! split into **batches** of consecutive shards that fit a configurable
//! device-memory budget. Every iteration uploads each batch in turn,
//! processes its shards with the normal 4-stage kernel, and copies the
//! batch's (possibly updated) `SrcValue` column back to the host master
//! copy. Stage-4 write-backs that target a *non-resident* batch are
//! applied to the host master directly (the real implementation would
//! buffer them in pinned memory; either way they cross PCIe, and we charge
//! them to the device-to-host budget).
//!
//! With `streams >= 2`, batch `k+1`'s upload overlaps batch `k`'s kernel, so
//! an iteration's modeled time is the pipelined
//! `copy_0 + Σ max(kernel_k, copy_{k+1}) + kernel_last` instead of the
//! serial sum.
//!
//! # Fault tolerance
//!
//! Because it owns the batching loop, the streamed engine is also where
//! recovery lives (see `DESIGN.md`, "Failure model & recovery"):
//!
//! * **Transient copy faults** (H2D/D2H) are retried in place with
//!   exponential backoff, up to [`StreamingConfig::max_copy_retries`] per
//!   operation. A failed copy transferred nothing, so the retry re-issues
//!   the identical transfer.
//! * **Device OOM** halves [`StreamingConfig::resident_bytes`] and restarts
//!   the computation from scratch with more, smaller batches — up to
//!   [`StreamingConfig::max_rebatches`] times.
//! * **Kernel faults** are retried up to
//!   [`StreamingConfig::max_kernel_retries`] per launch; past that the
//!   engine walks the degradation ladder CW → G-Shards → host fallback
//!   ([`crate::run_fallback`]), restarting from scratch on each rung.
//! * A **watchdog** (opt-in via `base.watchdog_interval`) snapshots the
//!   value vector periodically and flags livelock when a state recurs.
//!
//! Restarts are safe because every engine in the ladder computes the same
//! deterministic fixed point from scratch; the installed
//! [`cusha_simt::FaultPlan`] is carried across restarts (its operation
//! counters persist), so consumed one-shot faults do not re-fire. All
//! recovery activity is recorded in [`RunStats::fault`].

use crate::cw::ConcatWindows;
use crate::engine::Detector;
use crate::engine::{fingerprint, CuShaConfig, CuShaOutput, Repr, RunObserver};
use crate::error::EngineError;
use crate::fallback::run_fallback;
use crate::integrity::{apply_flips, checksum, CheckpointManager};
use crate::memsize::entry_bytes;
use crate::middleware::with_copy_retries;
use crate::program::VertexProgram;
use crate::shards::GShards;
use crate::stats::{FaultStats, IterationStat, RunStats, SdcStats};
use cusha_graph::Graph;
use cusha_obs::trace::{lanes, ArgVal};
use cusha_simt::{
    aligned_chunks, DevVec, DeviceFault, FaultPlan, Gpu, KernelDesc, Mask, Pod, WARP,
};
use std::collections::HashSet;

/// Warp-trace replay site tag for the streamed stage-2 apply region
/// (`"st" "APLY"`-flavored constant; distinct from the in-core engine's
/// tags so traces never alias across engines sharing a key layout).
const SITE_ST_APPLY: u64 = 0x7374_4150504c59;

/// Configuration of the streamed engine.
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// Base engine configuration (representation, shard size, device...).
    pub base: CuShaConfig,
    /// Device-memory budget for the per-entry shard arrays, in bytes.
    /// Batches are the longest runs of consecutive shards fitting it.
    pub resident_bytes: u64,
    /// Number of copy/compute streams; `>= 2` overlaps uploads with
    /// kernels, `1` serializes them.
    pub streams: u32,
    /// Transient-copy-fault retries allowed per operation before the fault
    /// is considered permanent.
    pub max_copy_retries: u32,
    /// First retry's backoff in seconds; doubles per subsequent retry of
    /// the same operation. Recorded in [`FaultStats::backoff_seconds`].
    pub backoff_base_seconds: f64,
    /// In-place re-launches allowed per kernel fault before the engine
    /// degrades to the next representation.
    pub max_kernel_retries: u32,
    /// Halve-and-restart cycles allowed on device OOM before giving up.
    pub max_rebatches: u32,
}

impl StreamingConfig {
    /// Streams the given base configuration within `resident_bytes`,
    /// double-buffered, with default recovery limits (3 copy retries,
    /// 1 ms base backoff, 1 kernel retry, 8 rebatches).
    pub fn new(base: CuShaConfig, resident_bytes: u64) -> Self {
        StreamingConfig {
            base,
            resident_bytes,
            streams: 2,
            max_copy_retries: 3,
            backoff_base_seconds: 1e-3,
            max_kernel_retries: 1,
            max_rebatches: 8,
        }
    }

    /// Checks the streaming-specific invariants on top of
    /// [`CuShaConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.streams == 0 {
            return Err("streams must be at least 1".into());
        }
        if self.resident_bytes == 0 {
            return Err("resident_bytes must be nonzero".into());
        }
        Ok(())
    }
}

/// Splits shards into batches of consecutive shards whose entry arrays fit
/// the byte budget. Every batch holds at least one shard (a single shard
/// larger than the budget still forms its own batch — the kernel cannot
/// split a shard).
fn plan_batches(gs: &GShards, per_entry: u64, budget: u64) -> Vec<std::ops::Range<u32>> {
    let mut batches = Vec::new();
    let mut start = 0u32;
    let mut bytes = 0u64;
    for s in 0..gs.num_shards() {
        let b = gs.shard_entries(s).len() as u64 * per_entry;
        if s > start && bytes + b > budget {
            batches.push(start..s);
            start = s;
            bytes = 0;
        }
        bytes += b;
    }
    batches.push(start..gs.num_shards());
    batches
}

/// Why one from-scratch attempt of the streamed loop gave up.
enum AttemptError {
    /// A device fault escaped the in-attempt retries.
    Fault(DeviceFault),
    /// The watchdog saw the value vector revisit an earlier state.
    Watchdog { iterations: u32 },
    /// Detected silent corruption outlived the rollback and restart
    /// budgets; the caller escalates to the host fallback.
    SdcExhausted,
    /// The caller's observer cancelled the run at an iteration boundary
    /// (deadline enforcement).
    Cancelled {
        iterations: u32,
        elapsed_seconds: f64,
    },
}

impl From<DeviceFault> for AttemptError {
    fn from(f: DeviceFault) -> Self {
        AttemptError::Fault(f)
    }
}

/// Executes `prog` over `graph` with the streamed engine.
///
/// # Panics
/// Panics on invalid configuration/graph and on unrecovered device faults.
/// A run that merely hits the iteration cap returns its partial output
/// (`stats.converged == false`), the historical behavior. Fallible callers
/// use [`try_run_streamed`].
pub fn run_streamed<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
) -> CuShaOutput<P::V> {
    match try_run_streamed(prog, graph, cfg) {
        Ok(out) => out,
        Err(EngineError::NonConverged { partial }) => *partial,
        Err(e) => panic!("{e}"),
    }
}

/// Executes `prog` over `graph` with the streamed engine, recovering from
/// injected or genuine device faults as described in the module docs and
/// returning unrecoverable failures as [`EngineError`]s. Recovery activity
/// is recorded in the output's [`RunStats::fault`].
pub fn try_run_streamed<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    try_run_streamed_observed(prog, graph, cfg, None, &mut crate::engine::NoopObserver)
}

/// [`try_run_streamed`] with the resident-caller extras of
/// [`try_run_warm`](crate::try_run_warm): a caller-owned [`FaultPlan`]
/// (installed in place of `cfg.base.fault_plan`, advanced state written
/// back on every exit) and an iteration-boundary observer. The observer's
/// elapsed clock accumulates across the engine's internal restarts
/// (rebatches, degradations), so deadlines measure the whole recovery
/// trajectory, not just the final attempt.
pub fn try_run_streamed_observed<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
    mut fault_plan: Option<&mut FaultPlan>,
    observer: &mut O,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;

    let mut fault = FaultStats::default();
    let mut sdc = SdcStats::default();
    let mut plan = fault_plan
        .as_deref()
        .cloned()
        .or_else(|| cfg.base.fault_plan.clone());
    let mut resident = cfg.resident_bytes;
    let mut repr = cfg.base.repr;
    let mut elapsed_base = 0.0f64;
    // Per-launch profile history accumulated across restarts/rebatches, so
    // the streamed engine reports through `--profile` like every other.
    let mut run_profile: Option<cusha_simt::Profile> = None;

    loop {
        let mut gpu = Gpu::new(cfg.base.device.clone());
        gpu.set_tracer(cfg.base.trace.clone(), 0);
        gpu.set_profiling(cfg.base.profile);
        if let Some(p) = plan.take() {
            gpu.set_fault_plan(p);
        }
        let result = stream_attempt(
            prog,
            graph,
            cfg,
            repr,
            resident,
            &mut gpu,
            &mut fault,
            &mut sdc,
            observer,
            elapsed_base,
        );
        // The plan's operation counters persist across restarts, so
        // consumed one-shot faults (and fired bit flips) never re-fire.
        plan = gpu.take_fault_plan();
        if let (Some(slot), Some(p)) = (fault_plan.as_deref_mut(), plan.as_ref()) {
            *slot = p.clone();
        }
        sdc.flips_injected = plan.as_ref().map(|p| p.injected().bit_flips).unwrap_or(0);
        let attempt_end = gpu.total_seconds();
        elapsed_base += attempt_end;
        let attempt_memo = crate::stats::MemoStats::from_gpu(&gpu);
        if let Some(p) = gpu.profile.take() {
            run_profile
                .get_or_insert_with(cusha_simt::Profile::default)
                .absorb(&p);
        }
        drop(gpu);

        match result {
            Ok(mut out) => {
                out.stats.fault = fault;
                out.stats.sdc = sdc;
                out.stats.memo.add(&attempt_memo);
                out.stats.profile = run_profile.take();
                return if out.stats.converged {
                    Ok(out)
                } else {
                    Err(EngineError::NonConverged {
                        partial: Box::new(out),
                    })
                };
            }
            Err(AttemptError::Watchdog { iterations }) => {
                return Err(EngineError::Watchdog { iterations });
            }
            Err(AttemptError::Cancelled {
                iterations,
                elapsed_seconds,
            }) => {
                return Err(EngineError::Deadline {
                    iterations,
                    elapsed_seconds,
                });
            }
            Err(AttemptError::SdcExhausted) => {
                // Last rung of the SDC ladder: abandon the device for the
                // host fallback, whose memory no device flip can reach.
                sdc.host_fallbacks += 1;
                cfg.base
                    .trace
                    .instant(0, lanes::FAULT, "sdc", "host-fallback", attempt_end);
                let mut base = cfg.base.clone();
                base.repr = Repr::GShards;
                base.fault_plan = None;
                return match run_fallback(prog, graph, &base) {
                    Ok(mut out) => {
                        out.stats.fault = fault;
                        out.stats.sdc = sdc;
                        if let Some(p) = out.stats.profile.take() {
                            run_profile
                                .get_or_insert_with(cusha_simt::Profile::default)
                                .absorb(&p);
                        }
                        out.stats.profile = run_profile.take();
                        Ok(out)
                    }
                    Err(EngineError::NonConverged { mut partial }) => {
                        partial.stats.fault = fault;
                        partial.stats.sdc = sdc;
                        Err(EngineError::NonConverged { partial })
                    }
                    Err(e) => Err(e),
                };
            }
            Err(AttemptError::Fault(DeviceFault::Oom {
                requested_bytes,
                capacity_bytes,
                ..
            })) => {
                if fault.oom_rebatches >= cfg.max_rebatches {
                    return Err(EngineError::DeviceOom {
                        requested_bytes,
                        capacity_bytes,
                    });
                }
                fault.oom_rebatches += 1;
                resident = (resident / 2).max(1);
                cfg.base
                    .trace
                    .instant(0, lanes::FAULT, "fault", "oom-rebatch", attempt_end);
            }
            Err(AttemptError::Fault(DeviceFault::Kernel { name, op_index })) => {
                match repr {
                    Repr::ConcatWindows => {
                        // First rung: fall back to G-Shards, whose kernels
                        // are a different code path (and, under injection, a
                        // different name pattern).
                        fault.degradations += 1;
                        repr = Repr::GShards;
                        cfg.base.trace.instant(
                            0,
                            lanes::FAULT,
                            "fault",
                            "degrade-to-gshards",
                            attempt_end,
                        );
                    }
                    Repr::GShards => {
                        // Last rung: abandon the device entirely.
                        fault.degradations += 1;
                        cfg.base.trace.instant(
                            0,
                            lanes::FAULT,
                            "fault",
                            "degrade-to-host",
                            attempt_end,
                        );
                        let _ = (name, op_index);
                        let mut base = cfg.base.clone();
                        base.repr = Repr::GShards;
                        base.fault_plan = None;
                        return match run_fallback(prog, graph, &base) {
                            Ok(mut out) => {
                                out.stats.fault = fault;
                                out.stats.sdc = sdc;
                                Ok(out)
                            }
                            Err(EngineError::NonConverged { mut partial }) => {
                                partial.stats.fault = fault;
                                partial.stats.sdc = sdc;
                                Err(EngineError::NonConverged { partial })
                            }
                            Err(e) => Err(e),
                        };
                    }
                }
            }
            Err(AttemptError::Fault(f @ DeviceFault::Copy { .. })) => {
                return Err(f.into());
            }
        }
    }
}

/// One from-scratch pass of the streamed convergence loop with the given
/// representation and residency budget. Copy faults are retried inside;
/// OOM, persistent kernel faults and exhausted SDC-recovery budgets bubble
/// up for the caller's coarser-grained recovery.
#[allow(clippy::too_many_arguments)]
fn stream_attempt<P: VertexProgram, O: RunObserver + ?Sized>(
    prog: &P,
    graph: &Graph,
    cfg: &StreamingConfig,
    repr: Repr,
    resident_bytes: u64,
    gpu: &mut Gpu,
    fault: &mut FaultStats,
    sdc: &mut SdcStats,
    observer: &mut O,
    elapsed_base: f64,
) -> Result<CuShaOutput<P::V>, AttemptError> {
    let base = &cfg.base;
    let (maxr, backoff) = (cfg.max_copy_retries, cfg.backoff_base_seconds);
    let n_per = base.vertices_per_shard.unwrap_or_else(|| {
        crate::autotune::select_vertices_per_shard(
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            <P::V as Pod>::SIZE,
            &base.device,
            base.resident_blocks,
        )
    });
    let gs = GShards::from_graph(graph, n_per);
    let cw = matches!(repr, Repr::ConcatWindows).then(|| ConcatWindows::from_gshards(&gs));

    // ---- Host master copies of the per-entry arrays ------------------------
    let init: Vec<P::V> = (0..graph.num_vertices())
        .map(|v| prog.initial_value(v))
        .collect();
    let mut master_src_value: Vec<P::V> =
        gs.src_index().iter().map(|&s| init[s as usize]).collect();
    let master_static: Option<Vec<P::SV>> = P::HAS_STATIC_VALUES.then(|| {
        let per_vertex = prog.static_values(graph);
        gs.src_index()
            .iter()
            .map(|&s| per_vertex[s as usize])
            .collect()
    });
    let master_edges: Option<Vec<P::E>> = P::HAS_EDGE_VALUES.then(|| {
        let by_id = prog.edge_values(graph);
        gs.edge_id().iter().map(|&id| by_id[id as usize]).collect()
    });

    // Resident state: vertex values + convergence flag.
    let mut vertex_values = with_copy_retries(gpu, maxr, backoff, fault, |g| g.try_upload(&init))?;
    let mut converged_flag =
        with_copy_retries(gpu, maxr, backoff, fault, |g| g.try_upload(&[1u32]))?;
    let h2d_resident = gpu.h2d_seconds;

    let per_entry = entry_bytes::<P>(repr);
    let batches = plan_batches(&gs, per_entry, resident_bytes);
    let p = gs.num_shards();

    let mut total = RunStats {
        engine: format!("{}-streamed", repr.label()),
        ..Default::default()
    };
    let mut kernel_seconds_pipelined = 0.0f64;
    let mut extra_transfer_seconds = 0.0f64;
    let mut converged = false;
    let mut watchdog_seen: HashSet<u64> = HashSet::new();

    // ---- SDC defense state ------------------------------------------------
    // The resident `VertexValues` is scrubbed against the checksum recorded
    // after the previous launch; each batch's freshly-uploaded `SrcValue`
    // is scrubbed against its trusted host-master slice. A checkpoint is a
    // downloaded value vector plus a clone of the master `SrcValue` column
    // (the host side is authoritative between batches).
    let integ = &base.integrity;
    let mut ckpts: CheckpointManager<P::V> = CheckpointManager::new(integ.max_checkpoints);
    if integ.mode.enabled() {
        ckpts.push(0, init.clone(), master_src_value.clone(), HashSet::new());
        sdc.checkpoints += 1;
    }
    let mut vv_crc = if integ.mode.checksums() {
        checksum(&init)
    } else {
        0
    };
    let mut need_reverify = false;

    // One rung of the recovery ladder; evaluates to `false` once the
    // rollback and restart budgets are spent (caller escalates).
    macro_rules! sdc_recover {
        ($detector:expr) => {{
            match $detector {
                Detector::Checksum => sdc.checksum_detections += 1,
                Detector::Invariant => sdc.invariant_detections += 1,
            }
            gpu.tracer().clone().instant(
                gpu.trace_pid(),
                lanes::FAULT,
                "sdc",
                "corruption-detected",
                gpu.total_seconds(),
            );
            if sdc.rollbacks < integ.max_rollbacks {
                let cp = ckpts.latest().expect("initial checkpoint always present");
                with_copy_retries(gpu, maxr, backoff, fault, |g| {
                    g.try_h2d(&mut vertex_values, &cp.values)
                })?;
                master_src_value.copy_from_slice(&cp.src_value);
                vv_crc = cp.values_crc;
                sdc.reexecuted_iterations += total.iterations - cp.iteration;
                total.iterations = cp.iteration;
                total.per_iteration.truncate(cp.iteration as usize);
                watchdog_seen = cp.watchdog.clone();
                sdc.rollbacks += 1;
                need_reverify = true;
                gpu.tracer().clone().instant(
                    gpu.trace_pid(),
                    lanes::FAULT,
                    "sdc",
                    "rollback",
                    gpu.total_seconds(),
                );
                true
            } else if sdc.full_restarts < integ.max_full_restarts {
                with_copy_retries(gpu, maxr, backoff, fault, |g| {
                    g.try_h2d(&mut vertex_values, &init)
                })?;
                for (k, &s) in gs.src_index().iter().enumerate() {
                    master_src_value[k] = init[s as usize];
                }
                vv_crc = checksum(&init);
                sdc.reexecuted_iterations += total.iterations;
                total.iterations = 0;
                total.per_iteration.clear();
                watchdog_seen.clear();
                ckpts.clear();
                ckpts.push(0, init.clone(), master_src_value.clone(), HashSet::new());
                sdc.full_restarts += 1;
                need_reverify = true;
                gpu.tracer().clone().instant(
                    gpu.trace_pid(),
                    lanes::FAULT,
                    "sdc",
                    "full-restart",
                    gpu.total_seconds(),
                );
                true
            } else {
                false
            }
        }};
    }

    'iter: while total.iterations < base.max_iterations {
        let iter_ts = gpu.total_seconds();
        with_copy_retries(gpu, maxr, backoff, fault, |g| {
            g.try_h2d(&mut converged_flag, &[1u32])
        })?;
        extra_transfer_seconds += base.device.transfer_seconds(4);
        let mut updated_this_iter = 0u64;
        let mut copy_times = Vec::with_capacity(batches.len());
        let mut kernel_times = Vec::with_capacity(batches.len());

        for (batch_index, batch) in batches.iter().enumerate() {
            let batch_ts = gpu.total_seconds();
            let entry_lo = gs.shard_entries(batch.start).start;
            let entry_hi = gs.shard_entries(batch.end - 1).end;
            let er_all = entry_lo..entry_hi;

            // ---- Upload the batch (tracked separately for pipelining). ----
            let h2d_before = gpu.h2d_seconds;
            let mut src_value = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_upload(&master_src_value[er_all.clone()])
            })?;
            let static_buf: Option<DevVec<P::SV>> = match master_static.as_ref() {
                Some(m) => Some(with_copy_retries(gpu, maxr, backoff, fault, |g| {
                    g.try_upload(&m[er_all.clone()])
                })?),
                None => None,
            };
            let edge_buf: Option<DevVec<P::E>> = match master_edges.as_ref() {
                Some(m) => Some(with_copy_retries(gpu, maxr, backoff, fault, |g| {
                    g.try_upload(&m[er_all.clone()])
                })?),
                None => None,
            };
            let dest_index = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_upload(&gs.dest_index()[er_all.clone()])
            })?;
            let (src_index, mapper_buf) = match &cw {
                Some(cw) => {
                    let cw_lo = cw.cw_entries(batch.start).start;
                    let cw_hi = cw.cw_entries(batch.end - 1).end;
                    let si = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                        g.try_upload(&cw.src_index()[cw_lo..cw_hi])
                    })?;
                    let mp = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                        g.try_upload(&cw.mapper()[cw_lo..cw_hi])
                    })?;
                    (si, Some((mp, cw_lo)))
                }
                None => (
                    with_copy_retries(gpu, maxr, backoff, fault, |g| {
                        g.try_upload(&gs.src_index()[er_all.clone()])
                    })?,
                    None,
                ),
            };
            copy_times.push(gpu.h2d_seconds - h2d_before);

            // Flip point: silent bit flips land while the batch sits in
            // device DRAM, and the scrubber verifies both protected buffers
            // before the kernel consumes them. The batch `SrcValue` was
            // uploaded from the trusted host master, so the master slice's
            // checksum is its reference.
            let flips = gpu.take_due_bit_flips();
            if !flips.is_empty() {
                apply_flips(&flips, &mut vertex_values, &mut src_value);
            }
            if integ.mode.checksums()
                && (checksum(vertex_values.host()) != vv_crc
                    || checksum(src_value.host()) != checksum(&master_src_value[er_all.clone()]))
            {
                if sdc_recover!(Detector::Checksum) {
                    continue 'iter;
                }
                return Err(AttemptError::SdcExhausted);
            }

            // ---- Process the batch's shards. -----------------------------
            let desc = KernelDesc::new(
                format!("{}-streamed::{}", repr.label(), prog.name()),
                batch.len() as u32,
                base.threads_per_block,
            );
            let mut host_writes = 0u64; // bytes escaping to non-resident batches
            let mut body = |b: &mut cusha_simt::Block<'_>| {
                let s = batch.start + b.id();
                let vrange = gs.vertex_range(s);
                let offset = vrange.start as usize;
                let nv = vrange.len();
                let mut local = b.shared_alloc::<P::V>(nv);

                // Stage 1.
                for (abase, mask) in aligned_chunks(offset..offset + nv) {
                    let vals = b.gload_run(&vertex_values, mask, abase as isize);
                    let mut inited = [P::V::default(); WARP];
                    for l in mask.iter() {
                        let mut lv = P::V::default();
                        prog.init_compute(&mut lv, &vals[l]);
                        inited[l] = lv;
                    }
                    b.exec(mask, 1);
                    b.sstore_run(&mut local, mask, abase as isize - offset as isize, &inited);
                }
                b.sync();

                // Stage 2 (indices shifted into the batch-local buffers).
                let er = gs.shard_entries(s);
                let lo = entry_lo;
                for (abase, mask) in aligned_chunks(er.clone()) {
                    let shift = abase as isize - lo as isize;
                    let dst = b.gload_run(&dest_index, mask, shift);
                    // `lo` participates in the site key: the batch shift
                    // changes buffer alignment, so the same `abase` in a
                    // later batch is a different trace.
                    b.warp_scope(
                        &[SITE_ST_APPLY, abase as u64, offset as u64, lo as u64],
                        mask,
                        &dst,
                    );
                    let srcv = b.gload_run(&src_value, mask, shift);
                    let statv = match &static_buf {
                        Some(buf) => b.gload_run(buf, mask, shift),
                        None => [P::SV::default(); WARP],
                    };
                    let ev = match &edge_buf {
                        Some(buf) => b.gload_run(buf, mask, shift),
                        None => [P::E::default(); WARP],
                    };
                    b.exec(mask, P::COMPUTE_COST);
                    b.supdate(
                        &mut local,
                        mask,
                        |l| dst[l] as usize - offset,
                        |l, slot| prog.compute(&srcv[l], &statv[l], &ev[l], slot),
                    );
                    b.warp_scope_end();
                }
                b.sync();

                // Stage 3.
                let mut block_updated = false;
                for (abase, mask) in aligned_chunks(offset..offset + nv) {
                    let old = b.gload_run(&vertex_values, mask, abase as isize);
                    let loc = b.sload_run(&local, mask, abase as isize - offset as isize);
                    let mut newv = loc;
                    let mut cond_bits = 0u32;
                    for l in mask.iter() {
                        if prog.update_condition(&mut newv[l], &old[l]) {
                            cond_bits |= 1 << l;
                        }
                    }
                    b.exec(mask, 1);
                    b.sstore_run(&mut local, mask, abase as isize - offset as isize, &newv);
                    let smask = Mask(cond_bits);
                    if !smask.is_empty() {
                        b.gstore_run(&mut vertex_values, smask, abase as isize, &newv);
                        block_updated = true;
                        updated_this_iter += smask.count() as u64;
                    }
                }
                b.sync();

                // Stage 4: resident targets via device stores; non-resident
                // targets land in the host master (counted as PCIe bytes).
                if block_updated {
                    let mut write = |b: &mut cusha_simt::Block<'_>,
                                     local: &cusha_simt::SharedVec<P::V>,
                                     abs_pos: [usize; WARP],
                                     sidx: [u32; WARP],
                                     mask: Mask| {
                        let loc = b.sload(local, mask, |l| sidx[l] as usize - offset);
                        let resident = mask.and(Mask::from_fn(|l| er_all.contains(&abs_pos[l])));
                        if !resident.is_empty() {
                            b.gstore(&mut src_value, resident, |l| abs_pos[l] - lo, |l| loc[l]);
                        }
                        for l in mask.iter() {
                            if !er_all.contains(&abs_pos[l]) {
                                master_src_value[abs_pos[l]] = loc[l];
                                host_writes += <P::V as Pod>::SIZE as u64;
                            }
                        }
                    };
                    match &cw {
                        None => {
                            for j in 0..p {
                                for (abase, mask) in aligned_chunks(gs.window(s, j)) {
                                    // SrcIndex of non-resident windows comes
                                    // from the host-pinned copy in a real
                                    // implementation; the read traffic is
                                    // equivalent, so model it through the
                                    // resident buffer when possible.
                                    let mut sidx = [0u32; WARP];
                                    let mut abs = [0usize; WARP];
                                    let res_mask =
                                        mask.and(Mask::from_fn(|l| er_all.contains(&(abase + l))));
                                    let loaded = if !res_mask.is_empty() {
                                        b.gload_run(
                                            &src_index,
                                            res_mask,
                                            abase as isize - lo as isize,
                                        )
                                    } else {
                                        [0u32; WARP]
                                    };
                                    for l in mask.iter() {
                                        abs[l] = abase + l;
                                        sidx[l] = if er_all.contains(&(abase + l)) {
                                            loaded[l]
                                        } else {
                                            gs.src_index()[abase + l]
                                        };
                                    }
                                    write(b, &local, abs, sidx, mask);
                                }
                            }
                        }
                        Some(cw) => {
                            let r = cw.cw_entries(s);
                            let cw_lo = mapper_buf.as_ref().unwrap().1;
                            for (abase, mask) in aligned_chunks(r) {
                                let shift = abase as isize - cw_lo as isize;
                                let sidx = b.gload_run(&src_index, mask, shift);
                                let map = b.gload_run(&mapper_buf.as_ref().unwrap().0, mask, shift);
                                let mut abs = [0usize; WARP];
                                for l in mask.iter() {
                                    abs[l] = map[l] as usize;
                                }
                                write(b, &local, abs, sidx, mask);
                            }
                        }
                    }
                    b.gstore(&mut converged_flag, Mask::first(1), |_| 0, |_| 0u32);
                }
            };
            // Kernel faults fire before any block runs, so an in-place
            // re-launch re-executes the identical work.
            let mut launch_attempts = 0u32;
            let kstats = loop {
                match gpu.try_launch(&desc, &mut body) {
                    Ok(k) => break k,
                    Err(f @ DeviceFault::Kernel { .. }) => {
                        if launch_attempts >= cfg.max_kernel_retries {
                            return Err(f.into());
                        }
                        launch_attempts += 1;
                        fault.kernel_retries += 1;
                        gpu.tracer().clone().instant(
                            gpu.trace_pid(),
                            lanes::FAULT,
                            "fault",
                            "kernel-retry",
                            gpu.total_seconds(),
                        );
                    }
                    Err(f) => return Err(f.into()),
                }
            };
            kernel_times.push(kstats.seconds);
            // The launch legitimately rewrote the resident values; record
            // the state the next scrub pass must find untouched.
            if integ.mode.checksums() {
                vv_crc = checksum(vertex_values.host());
            }
            total.kernel.counters.add(&kstats.counters);
            total.kernel.blocks += kstats.blocks;
            total.kernel.threads_per_block = kstats.threads_per_block;

            // ---- Write the batch's SrcValue back to the host master. ------
            let batch_values =
                with_copy_retries(gpu, maxr, backoff, fault, |g| g.try_download(&src_value))?;
            master_src_value[er_all].copy_from_slice(&batch_values);
            extra_transfer_seconds += base.device.transfer_seconds(host_writes);
            let shards = batch.len() as u64;
            gpu.tracer().clone().complete_with(
                gpu.trace_pid(),
                lanes::ENGINE,
                "engine",
                "batch",
                batch_ts,
                gpu.total_seconds() - batch_ts,
                || {
                    vec![
                        ("batch", ArgVal::U64(batch_index as u64)),
                        ("shards", ArgVal::U64(shards)),
                    ]
                },
            );
        }

        // Pipelined iteration time: with >= 2 streams, copy k+1 overlaps
        // kernel k.
        let iter_seconds = if cfg.streams >= 2 {
            let mut t = copy_times[0];
            for (k, &kernel) in kernel_times.iter().enumerate() {
                let next_copy = copy_times.get(k + 1).copied().unwrap_or(0.0);
                t += kernel.max(next_copy);
            }
            t
        } else {
            copy_times.iter().sum::<f64>() + kernel_times.iter().sum::<f64>()
        };
        kernel_seconds_pipelined += iter_seconds;
        total.iterations += 1;
        total.per_iteration.push(IterationStat {
            seconds: iter_seconds,
            updated_vertices: updated_this_iter,
        });
        let flag = with_copy_retries(gpu, maxr, backoff, fault, |g| {
            g.try_download_scalar(&converged_flag, 0)
        })?;
        let iter = total.iterations as u64 - 1;
        gpu.tracer().clone().complete_with(
            gpu.trace_pid(),
            lanes::ENGINE,
            "engine",
            "iteration",
            iter_ts,
            gpu.total_seconds() - iter_ts,
            || {
                vec![
                    ("iteration", ArgVal::U64(iter)),
                    ("updated_vertices", ArgVal::U64(updated_this_iter)),
                ]
            },
        );
        if flag == 1 {
            converged = true;
            break;
        }
        // Iteration-boundary cancellation: deadlines and resident callers'
        // observers share the watchdog's discipline (the in-flight batch
        // has completed). The elapsed clock spans the engine's earlier
        // restarts, so a deadline bounds the whole recovery trajectory.
        {
            let elapsed = elapsed_base + gpu.total_seconds();
            if !observer.on_iteration(total.iterations, updated_this_iter, elapsed) {
                return Err(AttemptError::Cancelled {
                    iterations: total.iterations,
                    elapsed_seconds: elapsed,
                });
            }
        }
        // Checkpoint boundary: download the resident values (real, charged
        // D2H), verify the algorithm invariant against the last verified
        // snapshot, and store it (with the master `SrcValue` column) as the
        // new rollback target.
        if integ.mode.enabled() && total.iterations.is_multiple_of(integ.checkpoint_every) {
            let vals = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                g.try_download(&vertex_values)
            })?;
            if integ.mode.invariants() {
                let prev = &ckpts.latest().expect("initial checkpoint").values;
                if prog.check_invariant(prev, &vals).is_err() {
                    if sdc_recover!(Detector::Invariant) {
                        continue 'iter;
                    }
                    return Err(AttemptError::SdcExhausted);
                }
            }
            ckpts.push(
                total.iterations,
                vals,
                master_src_value.clone(),
                watchdog_seen.clone(),
            );
            sdc.checkpoints += 1;
            if need_reverify {
                need_reverify = false;
                gpu.tracer().clone().instant(
                    gpu.trace_pid(),
                    lanes::FAULT,
                    "sdc",
                    "reverify",
                    gpu.total_seconds(),
                );
            }
        }
        if let Some(w) = base.watchdog_interval {
            if total.iterations.is_multiple_of(w) {
                let snapshot = with_copy_retries(gpu, maxr, backoff, fault, |g| {
                    g.try_download(&vertex_values)
                })?;
                if !watchdog_seen.insert(fingerprint(&snapshot)) {
                    return Err(AttemptError::Watchdog {
                        iterations: total.iterations,
                    });
                }
            }
        }
    }

    let values = with_copy_retries(gpu, maxr, backoff, fault, |g| {
        g.try_download(&vertex_values)
    })?;
    if need_reverify {
        // The recovered trajectory converged before the next checkpoint
        // boundary re-verified it; the converged state itself is the proof.
        gpu.tracer().clone().instant(
            gpu.trace_pid(),
            lanes::FAULT,
            "sdc",
            "reverify",
            gpu.total_seconds(),
        );
    }
    total.converged = converged;
    total.kernel.name = format!("{}-streamed::{}", repr.label(), prog.name()).into();
    total.h2d_seconds = h2d_resident;
    total.compute_seconds = kernel_seconds_pipelined + extra_transfer_seconds;
    total.d2h_seconds = base
        .device
        .transfer_seconds(graph.num_vertices() as u64 * <P::V as Pod>::SIZE as u64);
    Ok(CuShaOutput {
        values,
        stats: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use cusha_graph::generators::rmat::{rmat, RmatConfig};
    use cusha_graph::{Edge, VertexId};

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
        fn compute(&self, src: &u32, _st: &u32, e: &u32, local: &mut u32) {
            if *src != INF {
                *local = (*local).min(src.saturating_add(*e));
            }
        }
        fn update_condition(&self, local: &mut u32, old: &u32) -> bool {
            *local < *old
        }
    }

    fn tiny_budget(gs_like_edges: u64) -> u64 {
        // Force several batches: room for roughly a third of the entries.
        (gs_like_edges * 16 / 3).max(256)
    }

    #[test]
    fn streamed_matches_in_core_gs() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 90));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::gs().with_vertices_per_shard(16);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(
            &prog,
            &g,
            &StreamingConfig::new(base.clone(), tiny_budget(1500)),
        );
        assert!(streamed.stats.converged);
        assert!(streamed.stats.fault.is_clean());
        assert_eq!(streamed.values, in_core.values);
    }

    #[test]
    fn streamed_matches_in_core_cw() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 91));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(16);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(
            &prog,
            &g,
            &StreamingConfig::new(base.clone(), tiny_budget(1500)),
        );
        assert!(streamed.stats.converged);
        assert_eq!(streamed.values, in_core.values);
    }

    #[test]
    fn batches_respect_budget_where_possible() {
        let g = rmat(&RmatConfig::graph500(8, 2000, 92));
        let gs = GShards::from_graph(&g, 16);
        let per_entry = 16u64;
        let budget = 2000 * per_entry / 4;
        let batches = plan_batches(&gs, per_entry, budget);
        assert!(batches.len() >= 3, "expected several batches");
        // Batches tile the shard range exactly.
        assert_eq!(batches[0].start, 0);
        assert_eq!(batches.last().unwrap().end, gs.num_shards());
        for w in batches.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Multi-shard batches fit the budget.
        for b in &batches {
            let bytes: u64 = b
                .clone()
                .map(|s| gs.shard_entries(s).len() as u64 * per_entry)
                .sum();
            if b.len() > 1 {
                assert!(bytes <= budget);
            }
        }
    }

    #[test]
    fn single_batch_degenerates_to_in_core_behaviour() {
        let g = rmat(&RmatConfig::graph500(7, 700, 93));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let in_core = run(&prog, &g, &base);
        let streamed = run_streamed(&prog, &g, &StreamingConfig::new(base, u64::MAX));
        assert_eq!(streamed.values, in_core.values);
        assert_eq!(streamed.stats.iterations, in_core.stats.iterations);
    }

    #[test]
    fn overlap_beats_serial_streams() {
        let g = rmat(&RmatConfig::graph500(9, 6000, 94));
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::cw().with_vertices_per_shard(32);
        let mut cfg = StreamingConfig::new(base, tiny_budget(6000));
        cfg.streams = 2;
        let overlapped = run_streamed(&prog, &g, &cfg);
        cfg.streams = 1;
        let serial = run_streamed(&prog, &g, &cfg);
        assert_eq!(overlapped.values, serial.values);
        assert!(
            overlapped.stats.compute_seconds < serial.stats.compute_seconds,
            "overlap {} !< serial {}",
            overlapped.stats.compute_seconds,
            serial.stats.compute_seconds
        );
    }

    #[test]
    fn works_on_a_chain_crossing_batches() {
        let g = cusha_graph::Graph::new(120, (0..119).map(|v| Edge::new(v, v + 1, 1)).collect());
        let prog = MiniSssp { source: 0 };
        let base = CuShaConfig::gs().with_vertices_per_shard(8);
        let streamed = run_streamed(&prog, &g, &StreamingConfig::new(base, 1024));
        for (v, &d) in streamed.values.iter().enumerate() {
            assert_eq!(d, v as u32);
        }
    }

    #[test]
    fn zero_streams_is_an_invalid_config() {
        let g = Graph::empty(4);
        let mut cfg = StreamingConfig::new(CuShaConfig::gs(), 1024);
        cfg.streams = 0;
        assert!(matches!(
            try_run_streamed(&MiniSssp { source: 0 }, &g, &cfg),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
