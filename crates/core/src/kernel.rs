//! The four-stage CuSha shard kernel (paper Figure 5), written once.
//!
//! Every engine that keeps a range of shards resident on one device — the
//! single-device engine ([`crate::engine`]) and each device of the fleet
//! ([`crate::multi`]), resident or rebatched — launches this body. One
//! thread block processes one shard:
//!
//! 1. **gather** — coalesced fetch of the shard's `VertexValues` into
//!    shared memory (`init_compute`),
//! 2. **apply** — fold every shard entry into its destination's local value
//!    with a shared-memory atomic (`compute`),
//! 3. **scatter** — `update_condition`, publishing changed values,
//! 4. **compact** — window write-back: refresh the `SrcValue` copies of the
//!    shard's vertices in every shard (G-Shards walks the windows, CW sweeps
//!    the concatenated window through the `Mapper`).
//!
//! All stride-1 traffic goes through the run-form ops and the gather-shaped
//! regions sit inside warp-trace replay scopes (see `DESIGN.md` §4.14), so
//! every caller inherits both fast paths. The launch is parameterised by:
//!
//! * [`Offsets`] — the global vertex, entry and CW positions at which the
//!   device buffers begin (all zero on one device),
//! * `own` — the global entry range whose `SrcValue` lives in the launch's
//!   own buffer,
//! * `remote` — the sorted global entry positions stage 4 writes outside
//!   `own`,
//! * an optional [`Outbox`] — the device buffer those writes land in, each
//!   recorded as a spill `(global entry, value)` in write order.
//!
//! With zero offsets, `own` covering every entry and `remote` empty, the
//! op stream is the single-device engine's, counter for counter.

use crate::cw::ConcatWindows;
use crate::program::VertexProgram;
use crate::shards::GShards;
use cusha_simt::{
    aligned_chunks, DevVec, DeviceFault, Gpu, KernelDesc, KernelStats, Mask, Pod, WARP,
};
use std::ops::Range;

/// Site tags naming the replay-scoped regions of the kernel (first word of
/// every `warp_scope` key; see `cusha_simt::replay`).
const SITE_APPLY: u64 = 0x6373_4150504c59; // "APPLY"
const SITE_GS_WB: u64 = 0x6373_47535742; // "GSWB"
const SITE_CW_WB: u64 = 0x6373_43575742; // "CWWB"

/// Last site word of a G-Shards write-back scope that stores to the outbox
/// instead of `SrcValue` (the word folds the buffers a scope touches).
const SITE_OUTBOX: u64 = 1;

/// Device buffers of one shard range: the per-vertex values, the per-entry
/// columns, the CW (or G-Shards window-table) indexing, and the
/// `is_converged` flag.
pub(crate) struct ShardBufs<P: VertexProgram> {
    pub vertex_values: DevVec<P::V>,
    pub src_value: DevVec<P::V>,
    pub src_static: Option<DevVec<P::SV>>,
    pub edge_value: Option<DevVec<P::E>>,
    pub dest_index: DevVec<u32>,
    /// `SrcIndex`: window-major (CW) or shard-entry order (G-Shards).
    pub src_index: DevVec<u32>,
    /// CW only.
    pub mapper: Option<DevVec<u32>>,
    /// G-Shards only: the full p×p window-start table.
    pub window_offsets: Option<DevVec<u32>>,
    pub flag: DevVec<u32>,
}

/// Global positions at which a launch's buffers begin: element `i` of
/// `vertex_values` is vertex `voff + i`, of the per-entry columns entry
/// `eoff + i`, and of `src_index`/`mapper` (CW) CW entry `cwoff + i`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Offsets {
    pub voff: usize,
    pub eoff: usize,
    pub cwoff: usize,
}

/// [`Outbox::cw_slots`] entry of a CW entry whose target is in `own`.
pub(crate) const OWN_ENTRY: u32 = u32::MAX;

/// Sink for stage-4 writes outside the launch's own entry range.
pub(crate) struct Outbox<'a, V: Pod> {
    /// One slot per `remote` position.
    pub buf: &'a mut DevVec<V>,
    /// G-Shards: `SrcIndex` of every `remote` position, slot for slot (the
    /// launch's own `src_index` covers only `own`).
    pub remote_src_index: Option<&'a DevVec<u32>>,
    /// CW: per CW entry of the launch, the outbox slot its `Mapper` target
    /// takes, or [`OWN_ENTRY`] — host-side indexing metadata, like the
    /// window bounds, so the sweep needs no per-lane search.
    pub cw_slots: &'a [u32],
    /// Records every outbox write as `(global entry, value)`, in write
    /// order.
    pub spills: &'a mut dyn SpillSink<V>,
}

/// Receiver of a launch's outbox writes.
pub(crate) trait SpillSink<V> {
    /// One stage-4 write of `value` to global entry `entry`.
    fn spill(&mut self, entry: usize, value: V);
}

impl<V> SpillSink<V> for Vec<(usize, V)> {
    fn spill(&mut self, entry: usize, value: V) {
        self.push((entry, value));
    }
}

/// Shard layout and launch geometry shared by every block.
pub(crate) struct ShardLaunch<'a> {
    pub gs: &'a GShards,
    pub cw: Option<&'a ConcatWindows>,
    /// Global id of the shard block 0 processes.
    pub first_shard: u32,
    pub off: Offsets,
    pub own: &'a Range<usize>,
    pub remote: &'a [usize],
}

/// Launches the kernel over `desc.grid_blocks` shards starting at
/// `l.first_shard`. Returns the launch statistics and the number of vertex
/// values stage 3 published.
pub(crate) fn launch_shards<P: VertexProgram>(
    gpu: &mut Gpu,
    desc: &KernelDesc,
    prog: &P,
    l: &ShardLaunch<'_>,
    bufs: &mut ShardBufs<P>,
    mut outbox: Option<Outbox<'_, P::V>>,
) -> Result<(KernelStats, u64), DeviceFault> {
    let ShardLaunch {
        gs,
        cw,
        first_shard,
        off,
        own,
        remote,
    } = *l;
    let (voff, eoff, cwoff) = (off.voff as isize, off.eoff as isize, off.cwoff as isize);
    let p = gs.num_shards();
    let mut updated = 0u64;
    let kstats = gpu.try_launch(desc, |b| {
        let s = first_shard + b.id();
        let vrange = gs.vertex_range(s);
        let offset = vrange.start as usize;
        let nv = vrange.len();
        let mut local = b.shared_alloc::<P::V>(nv);

        // Stage 1: coalesced fetch of VertexValues into shared memory.
        // Pure stride-1 traffic: SoA run operations copy whole lane columns
        // and account in closed form.
        b.phase("gather");
        for (base, mask) in aligned_chunks(offset..offset + nv) {
            let vals = b.gload_run(&bufs.vertex_values, mask, base as isize - voff);
            let mut inited = [P::V::default(); WARP];
            for l in mask.iter() {
                let mut lv = P::V::default();
                prog.init_compute(&mut lv, &vals[l]);
                inited[l] = lv;
            }
            b.exec(mask, 1);
            b.sstore_run(&mut local, mask, base as isize - offset as isize, &inited);
        }
        b.sync();

        // Stage 2: process shard entries; atomic shared update of the
        // destination's local value. The destination column is the chunk's
        // access fingerprint: once it is loaded, every counter the rest of
        // the chunk produces is a pure function of (chunk, mask, dst) — a
        // warp-trace scope replays the atomic collision scan and load
        // accounting wholesale.
        b.phase("apply");
        for (base, mask) in aligned_chunks(gs.shard_entries(s)) {
            let shift = base as isize - eoff;
            let dst = b.gload_run(&bufs.dest_index, mask, shift);
            b.warp_scope(&[SITE_APPLY, base as u64, offset as u64, 0], mask, &dst);
            let srcv = b.gload_run(&bufs.src_value, mask, shift);
            let statv = match &bufs.src_static {
                Some(buf) => b.gload_run(buf, mask, shift),
                None => [P::SV::default(); WARP],
            };
            let ev = match &bufs.edge_value {
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

        // Stage 3: update_condition; publish changed values.
        b.phase("scatter");
        let mut block_updated = false;
        for (base, mask) in aligned_chunks(offset..offset + nv) {
            let old = b.gload_run(&bufs.vertex_values, mask, base as isize - voff);
            let loc = b.sload_run(&local, mask, base as isize - offset as isize);
            let mut newv = loc;
            let mut cond_bits = 0u32;
            for l in mask.iter() {
                if prog.update_condition(&mut newv[l], &old[l]) {
                    cond_bits |= 1 << l;
                }
            }
            b.exec(mask, 1);
            // update_condition may have refined local (e.g. PageRank's
            // damping); keep the shared copy current for stage 4.
            b.sstore_run(&mut local, mask, base as isize - offset as isize, &newv);
            let smask = Mask(cond_bits);
            if !smask.is_empty() {
                b.gstore_run(&mut bufs.vertex_values, smask, base as isize - voff, &newv);
                block_updated = true;
                updated += smask.count() as u64;
            }
        }
        b.sync();

        // Stage 4: write-back to the windows in all shards; writes outside
        // the launch's own entry range go to the outbox.
        b.phase("compact");
        if !block_updated {
            return;
        }
        match cw {
            None => {
                // G-Shards: one warp walks each window W_sj, first fetching
                // its boundary from the offset table.
                for j in 0..p {
                    if let Some(wo) = &bufs.window_offsets {
                        let lanes = if s + 1 < p { 2 } else { 1 };
                        b.gload_run(wo, Mask::first(lanes), (j * p + s) as isize);
                    }
                    let w = gs.window(s, j);
                    if w.is_empty() || own.contains(&w.start) {
                        for (base, mask) in aligned_chunks(w) {
                            // The source-index column fingerprints the
                            // shared gather; the store is stride-1.
                            let shift = base as isize - eoff;
                            let sidx = b.gload_run(&bufs.src_index, mask, shift);
                            b.warp_scope(&[SITE_GS_WB, base as u64, offset as u64, 0], mask, &sidx);
                            let full = b.sload(&local, mask, |l| sidx[l] as usize - offset);
                            b.gstore_run(&mut bufs.src_value, mask, shift, &full);
                            b.warp_scope_end();
                        }
                    } else {
                        // A remote window is wholly remote, so its entries
                        // take consecutive outbox slots.
                        let ob = outbox.as_mut().expect("remote window requires an outbox");
                        let rsi = ob
                            .remote_src_index
                            .expect("remote window requires remote_src_index");
                        let slot0 = remote
                            .binary_search(&w.start)
                            .expect("remote window listed in remote targets");
                        let wshift = slot0 as isize - w.start as isize;
                        for (base, mask) in aligned_chunks(w) {
                            let shift = base as isize + wshift;
                            let sidx = b.gload_run(rsi, mask, shift);
                            b.warp_scope(
                                &[SITE_GS_WB, base as u64, offset as u64, SITE_OUTBOX],
                                mask,
                                &sidx,
                            );
                            let loc = b.sload(&local, mask, |l| sidx[l] as usize - offset);
                            b.gstore_run(&mut *ob.buf, mask, shift, &loc);
                            b.warp_scope_end();
                            for l in mask.iter() {
                                ob.spills.spill(base + l, loc[l]);
                            }
                        }
                    }
                }
            }
            Some(cw) => {
                // Concatenated Windows: dense sweep of CW_s through the
                // Mapper.
                let mapper = bufs.mapper.as_ref().expect("CW mode always has a mapper");
                for (base, mask) in aligned_chunks(cw.cw_entries(s)) {
                    let shift = base as isize - cwoff;
                    let sidx = b.gload_run(&bufs.src_index, mask, shift);
                    let map = b.gload_run(mapper, mask, shift);
                    // Both index columns drive the accounting: fold them
                    // into one fingerprint (the mix is site-static within a
                    // run; verify-on-sample backstops any fold collision).
                    let mut fp = [0u32; WARP];
                    for l in mask.iter() {
                        fp[l] = sidx[l] ^ map[l].rotate_left(16);
                    }
                    b.warp_scope(&[SITE_CW_WB, base as u64, offset as u64, 0], mask, &fp);
                    let loc = b.sload(&local, mask, |l| sidx[l] as usize - offset);
                    match outbox.as_mut() {
                        None => b.gstore(
                            &mut bufs.src_value,
                            mask,
                            |l| map[l] as usize - off.eoff,
                            |l| loc[l],
                        ),
                        Some(ob) => {
                            let mut slot = [OWN_ENTRY; WARP];
                            for l in mask.iter() {
                                slot[l] = ob.cw_slots[(shift + l as isize) as usize];
                            }
                            let rem = Mask::from_fn(|l| slot[l] != OWN_ENTRY);
                            let mine = Mask(mask.0 & !rem.0);
                            if !mine.is_empty() {
                                b.gstore(
                                    &mut bufs.src_value,
                                    mine,
                                    |l| map[l] as usize - off.eoff,
                                    |l| loc[l],
                                );
                            }
                            if !rem.is_empty() {
                                b.gstore(&mut *ob.buf, rem, |l| slot[l] as usize, |l| loc[l]);
                                for l in rem.iter() {
                                    ob.spills.spill(map[l] as usize, loc[l]);
                                }
                            }
                        }
                    }
                    b.warp_scope_end();
                }
            }
        }
        b.gstore(&mut bufs.flag, Mask::first(1), |_| 0, |_| 0u32);
    })?;
    Ok((kstats, updated))
}
