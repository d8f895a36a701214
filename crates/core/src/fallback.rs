//! Host-side fallback engine — the last rung of the degradation ladder.
//!
//! When the streamed engine's kernels keep faulting even after degrading
//! CW → G-Shards, it abandons the device and finishes the computation here.
//! This is *not* a fast CPU engine (the multithreaded CSR baseline lives in
//! `cusha-baselines`, which depends on this crate and therefore cannot be
//! called from it); it is a correctness anchor: a sequential re-enactment
//! of the G-Shards engine's exact four-stage schedule — same shard order,
//! same entry order, same publish rules — so its results are bit-identical
//! to a fault-free [`crate::run`] in GS mode for every program, floats
//! included. No device is involved, so no device fault can reach it.

use crate::autotune::select_vertices_per_shard;
use crate::engine::{CuShaConfig, CuShaOutput};
use crate::error::EngineError;
use crate::program::VertexProgram;
use crate::shards::GShards;
use crate::stats::{IterationStat, RunStats};
use cusha_graph::Graph;
use std::ops::Range;

/// Engine label reported by the fallback in [`RunStats::engine`].
pub const FALLBACK_LABEL: &str = "host-fallback";

/// Executes `prog` over `graph` on the host, re-enacting the G-Shards
/// engine's deterministic schedule. Only `vertices_per_shard`,
/// `max_iterations` and the autotuner-relevant fields of `cfg` are used;
/// device-specific settings are ignored. Modeled transfer/kernel times are
/// zero (there is no device).
pub fn run_fallback<P: VertexProgram>(
    prog: &P,
    graph: &Graph,
    cfg: &CuShaConfig,
) -> Result<CuShaOutput<P::V>, EngineError<P::V>> {
    cfg.validate().map_err(EngineError::InvalidConfig)?;
    graph.validate()?;
    let n_per = cfg.vertices_per_shard.unwrap_or_else(|| {
        select_vertices_per_shard(
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            <P::V as cusha_simt::Pod>::SIZE,
            &cfg.device,
            cfg.resident_blocks,
        )
    });
    let gs = GShards::from_graph(graph, n_per);
    let p = gs.num_shards();

    let init: Vec<P::V> = (0..graph.num_vertices())
        .map(|v| prog.initial_value(v))
        .collect();
    let mut vertex_values = init.clone();
    let mut src_value: Vec<P::V> = gs.src_index().iter().map(|&s| init[s as usize]).collect();
    let static_vals: Option<Vec<P::SV>> = P::HAS_STATIC_VALUES.then(|| {
        let per_vertex = prog.static_values(graph);
        gs.src_index()
            .iter()
            .map(|&s| per_vertex[s as usize])
            .collect()
    });
    let edge_vals: Option<Vec<P::E>> = P::HAS_EDGE_VALUES.then(|| {
        let by_id = prog.edge_values(graph);
        gs.edge_id().iter().map(|&id| by_id[id as usize]).collect()
    });

    let mut total = RunStats {
        engine: FALLBACK_LABEL.to_string(),
        ..Default::default()
    };
    let all = 0..gs.num_edges() as usize;
    let mut converged = false;
    while total.iterations < cfg.max_iterations {
        // Every entry is local, so the sweep never spills.
        let updated = host_sweep(
            prog,
            &gs,
            static_vals.as_deref(),
            edge_vals.as_deref(),
            0..p,
            &all,
            &mut vertex_values,
            0,
            &mut src_value,
            0,
            true,
            &mut Vec::new(),
        );
        total.iterations += 1;
        total.per_iteration.push(IterationStat {
            seconds: 0.0,
            updated_vertices: updated,
        });
        if updated == 0 {
            converged = true;
            break;
        }
    }

    total.converged = converged;
    let output = CuShaOutput {
        values: vertex_values,
        stats: total,
    };
    if converged {
        Ok(output)
    } else {
        Err(EngineError::NonConverged {
            partial: Box::new(output),
        })
    }
}

/// One host sweep of the CuSha iteration over `shards`: the device
/// kernel's exact per-shard schedule (init, fold in entry order, update
/// condition, window write-back) on caller-provided value slices. `vv`/`sv`
/// hold vertex values and the `SrcValue` column from global offsets
/// `voff`/`eoff`. Stage-4 writes inside `own` land in `sv`; writes outside
/// it are pushed to `spills` (and also written through when
/// `sv_is_global`, i.e. the slices are the full master arrays). Returns
/// the number of vertex values published. The fallback engine, the fleet's
/// Phase A oracle and its host-fallback devices all run this one sweep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn host_sweep<P: VertexProgram>(
    prog: &P,
    gs: &GShards,
    static_entries: Option<&[P::SV]>,
    edge_entries: Option<&[P::E]>,
    shards: Range<u32>,
    own: &Range<usize>,
    vv: &mut [P::V],
    voff: usize,
    sv: &mut [P::V],
    eoff: usize,
    sv_is_global: bool,
    spills: &mut Vec<(usize, P::V)>,
) -> u64 {
    let p = gs.num_shards();
    let mut updated = 0;
    for s in shards {
        let vrange = gs.vertex_range(s);
        let offset = vrange.start as usize;
        // Stage 1: shard-local working copy.
        let mut local: Vec<P::V> = vrange
            .clone()
            .map(|v| {
                let mut lv = P::V::default();
                prog.init_compute(&mut lv, &vv[v as usize - voff]);
                lv
            })
            .collect();
        // Stage 2: fold every shard entry into its destination's slot, in
        // entry order (the simulator's lane-serialized order).
        for e in gs.shard_entries(s) {
            let statv = static_entries.map(|v| v[e]).unwrap_or_default();
            let ev = edge_entries.map(|v| v[e]).unwrap_or_default();
            let slot = gs.dest_index()[e] as usize - offset;
            prog.compute(&sv[e - eoff], &statv, &ev, &mut local[slot]);
        }
        // Stage 3: publish values passing the update condition.
        let mut block_updated = false;
        for v in vrange.clone() {
            let i = v as usize - offset;
            let old = vv[v as usize - voff];
            let mut newv = local[i];
            let cond = prog.update_condition(&mut newv, &old);
            local[i] = newv;
            if cond {
                vv[v as usize - voff] = newv;
                block_updated = true;
                updated += 1;
            }
        }
        // Stage 4: write the shard's column back to every window.
        if block_updated {
            for j in 0..p {
                for e in gs.window(s, j) {
                    let val = local[gs.src_index()[e] as usize - offset];
                    if own.contains(&e) {
                        sv[e - eoff] = val;
                    } else {
                        if sv_is_global {
                            sv[e - eoff] = val;
                        }
                        spills.push((e, val));
                    }
                }
            }
        }
    }
    updated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, CuShaConfig};
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

    #[test]
    fn fallback_bit_matches_the_gs_engine() {
        let g = rmat(&RmatConfig::graph500(8, 1500, 44));
        let prog = MiniSssp { source: 0 };
        let cfg = CuShaConfig::gs().with_vertices_per_shard(16);
        let device = run(&prog, &g, &cfg);
        let host = run_fallback(&prog, &g, &cfg).unwrap();
        assert_eq!(host.values, device.values);
        assert_eq!(host.stats.iterations, device.stats.iterations);
        assert_eq!(host.stats.engine, "host-fallback");
    }

    #[test]
    fn fallback_solves_a_chain() {
        let g = Graph::new(40, (0..39).map(|v| Edge::new(v, v + 1, 2)).collect());
        let cfg = CuShaConfig::gs().with_vertices_per_shard(8);
        let out = run_fallback(&MiniSssp { source: 0 }, &g, &cfg).unwrap();
        for (v, &d) in out.values.iter().enumerate() {
            assert_eq!(d, 2 * v as u32);
        }
        assert!(out.stats.converged);
    }

    #[test]
    fn fallback_rejects_bad_config() {
        let g = Graph::empty(4);
        let mut cfg = CuShaConfig::gs();
        cfg.threads_per_block = 33;
        assert!(matches!(
            run_fallback(&MiniSssp { source: 0 }, &g, &cfg),
            Err(EngineError::InvalidConfig(_))
        ));
    }
}
