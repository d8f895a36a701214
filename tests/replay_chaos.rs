//! Warp-trace replay chaos: the replay memo is an accounting accelerator,
//! never an observable feature. Toggling `DeviceConfig::replay_memo` must
//! change *nothing* about a run — values, iteration counts, kernel
//! counters, modeled timings — across every engine family and algorithm,
//! and an injected fault plan (including silent bit flips) must land with
//! identical effect whether replay is on or off, because replay is gated
//! off for any launch a due fault could still disrupt.

use cusha::algos::{Bfs, PageRank, Sssp};
use cusha::baselines::{MtcpuEngine, VwcEngine};
use cusha::core::{
    run_engine, try_run_multi, CuShaConfig, CuShaOutput, Engine, IntegrityConfig, IntegrityMode,
    MultiConfig, MultiOutput, NoopObserver, Repr, RunStats, ShardEngine, StreamedEngine,
    VertexProgram,
};
use cusha::frontier::FrontierEngine;
use cusha::graph::generators::rmat::{rmat, RmatConfig};
use cusha::graph::Graph;
use cusha::simt::{FaultPlan, FlipTarget};

const MAX_ITERS: u32 = 5_000;

fn chaos_graph(seed: u64) -> Graph {
    rmat(&RmatConfig::graph500(8, 3500, seed))
}

/// The six engine families, fresh boxes each call (engines are stateful).
fn all_engines<P: VertexProgram>() -> Vec<Box<dyn Engine<P>>> {
    vec![
        Box::new(ShardEngine::new(Repr::GShards)),
        Box::new(ShardEngine::new(Repr::ConcatWindows)),
        Box::new(StreamedEngine::new(64 << 20)),
        Box::new(VwcEngine::new(8)),
        // One CPU thread: the multithreaded schedule is honest-to-goodness
        // nondeterministic (iteration counts vary run to run), which would
        // confound a bit-identity harness for a knob that doesn't even
        // touch the CPU engine.
        Box::new(MtcpuEngine::new(1)),
        Box::new(FrontierEngine::new()),
    ]
}

fn run_with_replay<P: VertexProgram>(
    engine: &mut dyn Engine<P>,
    prog: &P,
    g: &Graph,
    replay: bool,
    plan: Option<FaultPlan>,
    integrity: IntegrityConfig,
) -> CuShaOutput<P::V> {
    let mut cfg = CuShaConfig::gs();
    cfg.max_iterations = MAX_ITERS;
    cfg.device.replay_memo = replay;
    cfg.integrity = integrity;
    run_engine(engine, prog, g, &cfg, plan, &mut NoopObserver)
        .unwrap_or_else(|e| panic!("{} (replay={replay}): {e}", engine.label()))
}

/// Everything in [`RunStats`] except the memo hit/miss telemetry (which is
/// *supposed* to differ between the two modes) and the engine label.
fn assert_stats_identical(tag: &str, on: &RunStats, off: &RunStats) {
    assert_eq!(on.iterations, off.iterations, "{tag}: iterations");
    assert_eq!(on.converged, off.converged, "{tag}: converged");
    // MTCPU times are *measured* wall clock, which legitimately varies
    // between runs; every device engine reports modeled times — exact f64s
    // derived from cycle counters — and replay applies recorded deltas, so
    // those must match to the last bit.
    if !tag.starts_with("MTCPU") {
        assert_eq!(on.h2d_seconds.to_bits(), off.h2d_seconds.to_bits(), "{tag}: h2d");
        assert_eq!(
            on.compute_seconds.to_bits(),
            off.compute_seconds.to_bits(),
            "{tag}: compute"
        );
        assert_eq!(on.d2h_seconds.to_bits(), off.d2h_seconds.to_bits(), "{tag}: d2h");
        assert_eq!(on.per_iteration, off.per_iteration, "{tag}: per-iteration detail");
    } else {
        let updated = |s: &RunStats| {
            s.per_iteration
                .iter()
                .map(|i| i.updated_vertices)
                .collect::<Vec<_>>()
        };
        assert_eq!(updated(on), updated(off), "{tag}: per-iteration updates");
    }
    assert_eq!(on.kernel, off.kernel, "{tag}: kernel counters");
    assert_eq!(on.fault, off.fault, "{tag}: fault stats");
    assert_eq!(on.sdc, off.sdc, "{tag}: sdc stats");
    assert_eq!(on.frontier, off.frontier, "{tag}: frontier stats");
}

/// Engines whose kernels delimit warp-trace scopes (and therefore exercise
/// the replay table); the CPU baseline and the frontier engine account
/// per-op only.
fn uses_replay_scopes(label: &str) -> bool {
    label.starts_with("CuSha-") || label.starts_with("VWC-") || label.starts_with("Streamed")
}

#[test]
fn replay_toggle_is_invisible_across_engines_and_algorithms() {
    let g = chaos_graph(123);
    for algo in ["bfs", "sssp", "pr"] {
        // Monomorphic helper per algorithm: run every engine both ways and
        // compare the full observable surface.
        fn check<P: VertexProgram>(g: &Graph, prog: &P, algo: &str) {
            for (mut on_engine, mut off_engine) in
                all_engines::<P>().into_iter().zip(all_engines::<P>())
            {
                let label = on_engine.label();
                let tag = format!("{label}/{algo}");
                let on = run_with_replay(
                    on_engine.as_mut(),
                    prog,
                    g,
                    true,
                    None,
                    IntegrityConfig::default(),
                );
                let off = run_with_replay(
                    off_engine.as_mut(),
                    prog,
                    g,
                    false,
                    None,
                    IntegrityConfig::default(),
                );
                assert_eq!(on.values, off.values, "{tag}: values diverged");
                assert_stats_identical(&tag, &on.stats, &off.stats);
                if uses_replay_scopes(&label) {
                    assert!(
                        on.stats.memo.replay_hits > 0,
                        "{tag}: replay-on run never replayed a scope ({:?})",
                        on.stats.memo
                    );
                    assert_eq!(
                        off.stats.memo.replay_hits, 0,
                        "{tag}: replay-off run served hits"
                    );
                    assert!(
                        off.stats.memo.replay_fallbacks > 0,
                        "{tag}: replay-off scopes not counted as fallbacks ({:?})",
                        off.stats.memo
                    );
                }
            }
        }
        match algo {
            "bfs" => check(&g, &Bfs::new(0), algo),
            "sssp" => check(&g, &Sssp::new(0), algo),
            "pr" => check(&g, &PageRank::new(), algo),
            _ => unreachable!(),
        }
    }
}

#[test]
fn replay_never_swallows_faults() {
    // A transient copy fault plus two silent bit flips, with full
    // integrity defense. The flips change *values*, never access patterns,
    // so a wrongly-replaying scope would be the exact failure mode this
    // guards: the flip would land in real data while stale recorded
    // accounting hid the disruption. Correctness bar: the fault plan's
    // observable effect — recovery counters, SDC detections, final values —
    // is bit-identical with replay on and off, and the replay-on run shows
    // the fault-window gate actually fired (fallbacks recorded).
    let g = chaos_graph(321);
    let plan = || {
        FaultPlan::new()
            .fail_h2d_at(&[1])
            .flip_at(2, FlipTarget::VertexValues, 3, 7)
            .flip_at(4, FlipTarget::SrcValue, 1, 11)
    };
    let integrity = IntegrityConfig {
        mode: IntegrityMode::Full,
        ..IntegrityConfig::default()
    };
    for (mut on_engine, mut off_engine) in
        all_engines::<Bfs>().into_iter().zip(all_engines::<Bfs>())
    {
        let label = on_engine.label();
        let on = run_with_replay(
            on_engine.as_mut(),
            &Bfs::new(0),
            &g,
            true,
            Some(plan()),
            integrity.clone(),
        );
        let off = run_with_replay(
            off_engine.as_mut(),
            &Bfs::new(0),
            &g,
            false,
            Some(plan()),
            integrity.clone(),
        );
        assert_eq!(on.values, off.values, "{label}: values under chaos");
        assert_stats_identical(&label, &on.stats, &off.stats);
        // MTCPU runs on host memory, outside the device fault domain.
        if !label.starts_with("MTCPU") {
            assert!(
                on.stats.fault.copy_retries >= 1,
                "{label}: copy fault never fired ({:?})",
                on.stats.fault
            );
        }
        if uses_replay_scopes(&label) {
            assert!(
                on.stats.memo.replay_fallbacks > 0,
                "{label}: no scope fell back while the plan could disrupt ({:?})",
                on.stats.memo
            );
        }
        // The VWC baseline has no `SrcValue` buffer, so that flip can never
        // fire there and the plan (correctly) gates its replay for the whole
        // run. On the shard engines every fault lands, the plan drains, and
        // replay must resume for the remaining iterations.
        if label.starts_with("CuSha-") {
            assert!(
                on.stats.memo.replay_hits > 0,
                "{label}: replay never resumed after the plan drained ({:?})",
                on.stats.memo
            );
        }
    }
}

fn run_fleet<P: VertexProgram>(
    prog: &P,
    g: &Graph,
    repr: Repr,
    replay: bool,
    jobs: usize,
    flip_on_device_1: bool,
) -> MultiOutput<P::V> {
    let mut base = CuShaConfig::new(repr);
    base.max_iterations = MAX_ITERS;
    base.device.replay_memo = replay;
    let mut cfg = MultiConfig::new(base, 2).with_jobs(jobs);
    if flip_on_device_1 {
        cfg.base.integrity = IntegrityConfig {
            mode: IntegrityMode::Full,
            ..IntegrityConfig::default()
        };
        cfg = cfg.with_device_fault_plan(
            1,
            FaultPlan::new()
                .flip_at(2, FlipTarget::VertexValues, 3, 7)
                .flip_at(4, FlipTarget::SrcValue, 1, 11),
        );
    }
    try_run_multi(prog, g, &cfg)
        .unwrap_or_else(|e| panic!("{} x2 (replay={replay}, jobs={jobs}): {e}", repr.label()))
}

/// Everything a fleet run reports except the memo telemetry: values,
/// iterations, per-iteration detail, aggregate and per-device counters,
/// exchange volume, recovery activity, and every modeled time to the bit.
fn assert_fleet_identical<V: PartialEq + std::fmt::Debug>(
    tag: &str,
    on: &MultiOutput<V>,
    off: &MultiOutput<V>,
) {
    assert_eq!(on.values, off.values, "{tag}: values");
    let (a, b) = (&on.stats, &off.stats);
    assert_eq!(a.iterations, b.iterations, "{tag}: iterations");
    assert_eq!(a.converged, b.converged, "{tag}: converged");
    assert_eq!(a.per_iteration, b.per_iteration, "{tag}: per-iteration detail");
    assert_eq!(a.aggregate, b.aggregate, "{tag}: aggregate counters");
    assert_eq!(a.exchange_bytes, b.exchange_bytes, "{tag}: exchange bytes");
    assert_eq!(a.fault, b.fault, "{tag}: fault stats");
    assert_eq!(a.sdc, b.sdc, "{tag}: sdc stats");
    for (name, x, y) in [
        ("setup", a.setup_seconds, b.setup_seconds),
        ("compute", a.compute_seconds, b.compute_seconds),
        ("exchange", a.exchange_seconds, b.exchange_seconds),
        ("teardown", a.teardown_seconds, b.teardown_seconds),
        ("modeled", a.modeled_seconds(), b.modeled_seconds()),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {name} seconds");
    }
    for (x, y) in a.per_device.iter().zip(&b.per_device) {
        let d = x.device;
        assert_eq!(x.mode, y.mode, "{tag}: device {d} mode");
        assert_eq!(x.kernel, y.kernel, "{tag}: device {d} counters");
        assert_eq!(
            x.kernel_seconds.to_bits(),
            y.kernel_seconds.to_bits(),
            "{tag}: device {d} kernel seconds"
        );
    }
}

#[test]
fn fleet_replay_toggle_is_invisible() {
    let g = chaos_graph(123);
    fn check<P: VertexProgram>(g: &Graph, prog: &P, algo: &str) {
        for repr in [Repr::GShards, Repr::ConcatWindows] {
            let mut first_on: Option<MultiOutput<P::V>> = None;
            for jobs in [1, 2] {
                let tag = format!("{} x2/{algo}/jobs={jobs}", repr.label());
                let on = run_fleet(prog, g, repr, true, jobs, false);
                let off = run_fleet(prog, g, repr, false, jobs, false);
                assert_fleet_identical(&tag, &on, &off);
                assert_eq!(off.stats.memo.replay_hits, 0, "{tag}: replay-off hits");
                for dev in &on.stats.per_device {
                    assert!(
                        dev.memo.replay_hits + dev.memo.replay_misses > 0,
                        "{tag}: device {} opened no replay scope ({:?})",
                        dev.device,
                        dev.memo
                    );
                }
                // Each device owns its memo, so the host schedule cannot
                // move even the memo telemetry.
                match &first_on {
                    None => first_on = Some(on),
                    Some(first) => {
                        assert_fleet_identical(&tag, first, &on);
                        assert_eq!(first.stats.memo, on.stats.memo, "{tag}: memo vs jobs=1");
                    }
                }
            }
        }
    }
    check(&g, &Bfs::new(0), "bfs");
    check(&g, &Sssp::new(0), "sssp");
    check(&g, &PageRank::new(), "pr");
}

#[test]
fn fleet_replay_never_swallows_bit_flips() {
    // Two silent flips on device 1 under full integrity defense: the
    // recovery it triggers must be bit-identical with replay on and off,
    // device 1 must gate replay while its plan can still fire, and device
    // 0 (no plan) must keep replaying.
    let g = chaos_graph(321);
    for repr in [Repr::GShards, Repr::ConcatWindows] {
        for jobs in [1, 2] {
            let tag = format!("{} x2/pr/jobs={jobs}/flips", repr.label());
            let on = run_fleet(&PageRank::new(), &g, repr, true, jobs, true);
            let off = run_fleet(&PageRank::new(), &g, repr, false, jobs, true);
            assert_fleet_identical(&tag, &on, &off);
            assert!(
                on.stats.sdc.flips_injected > 0,
                "{tag}: no flip fired ({:?})",
                on.stats.sdc
            );
            let d1 = &on.stats.per_device[1];
            assert!(
                d1.memo.replay_fallbacks > 0,
                "{tag}: device 1 replayed while its plan could fire ({:?})",
                d1.memo
            );
            assert!(
                on.stats.per_device[0].memo.replay_hits > 0,
                "{tag}: device 0 stopped replaying ({:?})",
                on.stats.per_device[0].memo
            );
        }
    }
}

#[test]
fn clean_fleet_pagerank_replays() {
    // The fleet launches the one shared kernel; a per-device copy without
    // replay scopes would read zero hits here.
    let g = chaos_graph(123);
    let out = run_fleet(&PageRank::new(), &g, Repr::ConcatWindows, true, 1, false);
    assert!(
        out.stats.memo.replay_hits > 0,
        "2-device PageRank never replayed a scope ({:?})",
        out.stats.memo
    );
}
