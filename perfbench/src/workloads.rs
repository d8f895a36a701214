//! The four workloads. Each generates its inputs from the seed, times
//! operations for the run's budget, and checks every output outside the
//! timed region. Why each exists is recorded in README.md.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use cusha_algos::pagerank::pagerank_power_iteration;
use cusha_algos::{run_sequential, Bfs, PageRank, Sssp, Sswp};
use cusha_core::{
    try_run_multi_observed, try_run_warm, CuShaConfig, EngineError, MultiConfig, MultiRunStats,
    PreparedLayout, Repr, RunObserver, RunStats,
};
use cusha_graph::generators::rmat::{rmat, RmatConfig};
use cusha_graph::{Graph, MutationBatch};
use cusha_serve::{parse_json, parse_line, Json, ServeConfig, Service, WalConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;
use crate::stats::median;
use crate::{check, peak_rss_mb, Args, Report};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &[
    "pagerank-steady",
    "sssp-oneshot",
    "serve-mixed",
    "pagerank-fleet2",
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub fn run(a: &Args, spans: &mut Spans) -> Report {
    match a.workload.as_str() {
        "pagerank-steady" => pagerank(a, spans, false),
        "pagerank-fleet2" => pagerank(a, spans, true),
        "sssp-oneshot" => sssp_oneshot(a, spans),
        "serve-mixed" => serve_mixed(a, spans),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// The workload's own random choices (sources, mutations): a stream apart
/// from the one the rmat generator draws from the same seed.
fn client_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xC11E_57C1_1E57_C11E)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Iteration-boundary wall clock: the benchmark's own observer.
struct IterClock {
    start: Instant,
    marks: Vec<Instant>,
}

impl IterClock {
    fn new() -> Self {
        IterClock {
            start: Instant::now(),
            marks: Vec::with_capacity(128),
        }
    }

    /// Wall ms of the first iteration (upload included) and the median of
    /// the later ones. The engine reports no boundary after the converging
    /// iteration, so that one is not sampled.
    fn iteration_ms(&self) -> (f64, f64) {
        let Some(first) = self.marks.first() else {
            return (0.0, 0.0);
        };
        let steady: Vec<f64> = self
            .marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        ((*first - self.start).as_secs_f64() * 1e3, median(&steady))
    }
}

impl RunObserver for IterClock {
    fn on_iteration(&mut self, _iteration: u32, _updated: u64, _elapsed: f64) -> bool {
        self.marks.push(Instant::now());
        true
    }
}

/// Simulated counts of one engine run. They depend only on the inputs, so
/// every operation of a run must produce the same ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    iterations: u32,
    modeled_ms: f64,
    warp_insts: u64,
    gld_transactions: u64,
    replay_hits: u64,
    replay_misses: u64,
    coalesce_hits: u64,
    coalesce_misses: u64,
    halo_vertices: u64,
    exchange_bytes: u64,
}

impl Counts {
    fn single(s: &RunStats) -> Self {
        Counts {
            iterations: s.iterations,
            modeled_ms: s.total_ms(),
            warp_insts: s.kernel.counters.warp_instructions,
            gld_transactions: s.kernel.counters.gld_transactions,
            replay_hits: s.memo.replay_hits,
            replay_misses: s.memo.replay_misses,
            coalesce_hits: s.memo.coalesce_hits,
            coalesce_misses: s.memo.coalesce_misses,
            ..Counts::default()
        }
    }

    fn fleet(s: &MultiRunStats) -> Self {
        Counts {
            iterations: s.iterations,
            modeled_ms: s.modeled_seconds() * 1e3,
            warp_insts: s.aggregate.counters.warp_instructions,
            gld_transactions: s.aggregate.counters.gld_transactions,
            halo_vertices: s.per_device.iter().map(|d| d.halo_vertices as u64).sum(),
            exchange_bytes: s.exchange_bytes,
            ..Counts::default()
        }
    }

    fn report(&self, r: &mut Report, fleet: bool) {
        let ratio = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        r.set("engine.iterations", self.iterations as f64);
        r.set("simt.modeled_ms", self.modeled_ms);
        r.set("simt.warp_insts", self.warp_insts as f64);
        r.set("simt.gld_transactions", self.gld_transactions as f64);
        r.set(
            "simt.replay_hit_ratio",
            ratio(self.replay_hits, self.replay_misses),
        );
        r.set(
            "simt.coalesce_hit_ratio",
            ratio(self.coalesce_hits, self.coalesce_misses),
        );
        if fleet {
            r.set("fleet.halo_vertices", self.halo_vertices as f64);
            r.set("fleet.exchange_bytes", self.exchange_bytes as f64);
            r.set("fleet.modeled_ms", self.modeled_ms);
        }
    }
}

fn engine_err<V>(e: EngineError<V>) -> String {
    format!("engine error [{}]: {e}", e.kind())
}

/// Calls one engine entry point inside a span on `layer`, with the
/// benchmark's iteration clock as its observer. Returns the values and the
/// operation's sample; [`drive`] stamps its wall time.
fn engine_call<V>(
    spans: &mut Spans,
    layer: &'static str,
    f: impl FnOnce(&mut IterClock) -> Result<(Vec<V>, Counts), String>,
) -> Result<(Vec<V>, OpSample), String> {
    spans.enter(layer, "solve");
    let mut clock = IterClock::new();
    let result = f(&mut clock);
    let engine_s = secs(clock.start);
    spans.exit();
    let (values, counts) = result?;
    let (iter_first_ms, iter_steady_ms) = clock.iteration_ms();
    let sample = OpSample {
        wall_s: 0.0,
        traced: false,
        engine_s,
        iter_first_ms,
        iter_steady_ms,
        gen_s: 0.0,
        layout_s: 0.0,
        counts,
    };
    Ok((values, sample))
}

/// Per-operation facts kept for the metrics after the loop.
struct OpSample {
    wall_s: f64,
    traced: bool,
    engine_s: f64,
    iter_first_ms: f64,
    iter_steady_ms: f64,
    gen_s: f64,
    layout_s: f64,
    counts: Counts,
}

/// Runs timed operations for the budget: with tracing on, the first half
/// untraced and the second half traced, each at least one operation and
/// the run at least `min_ops`. `op` gets the operation's index and is
/// timed; `check` runs after it, untimed, on its output and sample,
/// and returns whether the operation failed.
fn drive<T>(
    a: &Args,
    spans: &mut Spans,
    min_ops: usize,
    mut op: impl FnMut(&mut Spans, usize) -> Result<(T, OpSample), String>,
    mut check: impl FnMut(&mut Spans, usize, T, &OpSample, &mut Report) -> bool,
    r: &mut Report,
) -> Vec<OpSample> {
    let phases: &[bool] = if a.trace { &[false, true] } else { &[false] };
    let budget = a.seconds / phases.len() as f64;
    let mut samples = Vec::new();
    let mut id = 0usize;
    for &traced in phases {
        spans.set_enabled(traced);
        let (mut spent, mut n) = (0.0, 0);
        while spent < budget || id < min_ops || n == 0 {
            id += 1;
            spans.set_op(id as u64);
            spans.enter("op", "op");
            let t = Instant::now();
            let result = op(spans, id - 1);
            let wall_s = secs(t);
            spans.exit();
            spent += wall_s;
            n += 1;
            r.attempted += 1;
            match result {
                Ok((out, mut s)) => {
                    s.wall_s = wall_s;
                    s.traced = traced;
                    let failed = check(spans, id - 1, out, &s, r);
                    r.failed += u64::from(failed);
                    samples.push(s);
                }
                Err(e) => {
                    eprintln!("perfbench: operation {id} failed: {e}");
                    r.failed += 1;
                }
            }
        }
    }
    spans.set_enabled(a.trace);
    samples
}

/// End-to-end and per-layer timing metrics shared by the engine workloads:
/// one operation is one engine solve (or one whole one-shot pipeline).
fn report_ops(r: &mut Report, samples: &[OpSample], a: &Args) {
    let pick = |traced: bool, f: fn(&OpSample) -> f64| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect()
    };
    let wall_ms = pick(false, |s| s.wall_s * 1e3);
    r.op_ms = wall_ms.clone();
    r.set("op_p50_ms", median(&wall_ms));
    let total: f64 = wall_ms.iter().sum::<f64>() / 1e3;
    r.set("ops_per_s", wall_ms.len() as f64 / total);
    let all =
        |f: fn(&OpSample) -> f64| -> f64 { median(&samples.iter().map(f).collect::<Vec<_>>()) };
    r.set("engine.iter_first_ms", all(|s| s.iter_first_ms));
    r.set("engine.iter_steady_ms", all(|s| s.iter_steady_ms));
    if a.trace {
        let traced = median(&pick(true, |s| s.wall_s * 1e3));
        r.set("obs.trace_overhead_ratio", traced / median(&wall_ms) - 1.0);
    }
}

/// Records the simulator's wall cost per unit of simulated work: medians
/// over operations of engine wall time per warp instruction and per
/// modeled second.
fn report_simt_cost(r: &mut Report, samples: &[OpSample]) {
    let per = |f: fn(&OpSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    r.set(
        "simt.host_ns_per_warp_inst",
        per(|s| s.engine_s * 1e9 / s.counts.warp_insts.max(1) as f64),
    );
    r.set(
        "simt.host_s_per_modeled_s",
        per(|s| s.engine_s * 1e3 / s.counts.modeled_ms),
    );
}

/// Checks that an operation's simulated counts equal the first ones seen
/// for the same input; a difference is a determinism bug in the program.
fn same_counts(first: &mut Option<Counts>, c: Counts, r: &mut Report) -> bool {
    match first {
        None => {
            *first = Some(c);
            true
        }
        Some(f) if *f == c => true,
        Some(f) => {
            r.error(format!(
                "simulated counts varied between identical operations: {f:?} vs {c:?}"
            ));
            false
        }
    }
}

/// Graphs per run. Solve time follows the iteration count, which differs
/// by a few iterations from one rmat seed to the next; cycling the
/// operations over several graphs of one run narrows the seed-to-seed
/// spread of the run's median.
const GRAPHS: usize = 3;

/// The rmat seed of graph `k` of a run.
fn graph_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(GRAPHS as u64).wrapping_add(k as u64)
}

/// Sums the per-graph counts in graph order (so float sums repeat
/// exactly) and reports them.
fn report_counts(r: &mut Report, per_graph: &[Option<Counts>], fleet: bool) {
    let mut t = Counts::default();
    for c in per_graph.iter().flatten() {
        t.iterations += c.iterations;
        t.modeled_ms += c.modeled_ms;
        t.warp_insts += c.warp_insts;
        t.gld_transactions += c.gld_transactions;
        t.replay_hits += c.replay_hits;
        t.replay_misses += c.replay_misses;
        t.coalesce_hits += c.coalesce_hits;
        t.coalesce_misses += c.coalesce_misses;
        t.halo_vertices += c.halo_vertices;
        t.exchange_bytes += c.exchange_bytes;
    }
    t.report(r, fleet);
}

/// `pagerank-steady` / `pagerank-fleet2`: PageRank solved repeatedly on
/// resident rmat 14 graphs, on one device (warm CW layouts) or on a
/// two-device PCIe fleet.
fn pagerank(a: &Args, spans: &mut Spans, fleet: bool) -> Report {
    const SCALE: u32 = 14;
    const EDGES: u64 = 500_000;
    const DEVICES: usize = 2;
    let mut r = Report::default();
    let cfg = CuShaConfig::cw();
    let prog = PageRank::new();

    let (mut setup, mut gen, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut resident = Vec::new();
    for _ in 0..SETUP_REPS {
        let t_rep = Instant::now();
        resident.clear();
        for k in 0..GRAPHS {
            let t = Instant::now();
            let g = spans.scope("graph", "rmat", || {
                rmat(&RmatConfig::graph500(SCALE, EDGES, graph_seed(a.seed, k)))
            });
            gen.push(secs(t));
            let layout = (!fleet).then(|| {
                let t = Instant::now();
                let n_per = PreparedLayout::select_n_per(&g, &cfg, 4);
                let l = spans.scope("layout", "prepared-layout", || {
                    PreparedLayout::build(&g, Repr::ConcatWindows, n_per)
                });
                build.push(secs(t));
                l
            });
            resident.push((g, layout));
        }
        setup.push(secs(t_rep));
    }
    r.set("setup_s", median(&setup));
    r.set("graph.gen_s", median(&gen));
    if !fleet {
        r.set("layout.build_s", median(&build));
        let shards: u32 = resident
            .iter()
            .filter_map(|(_, l)| l.as_ref().map(PreparedLayout::num_shards))
            .sum();
        r.set("layout.shards", shards as f64);
    }

    let oracles: Vec<Vec<f32>> = spans.scope("check", "pagerank-oracle", || {
        resident
            .iter()
            .map(|(g, _)| pagerank_power_iteration(g, 1e-9, 10_000))
            .collect()
    });
    // One host worker thread. With two on a 2-CPU host, a hypervisor steal
    // burst on either CPU stretched 4 of 10 runs' solves from ~3.1 s to the
    // one-thread ~5.1 s (IQR/median 0.55). One thread still runs every
    // fleet layer; only Phase B's device launches run one after another.
    let mcfg = MultiConfig::new(cfg.clone(), DEVICES).with_jobs(1);
    let mut firsts = [None; GRAPHS];
    let mut self_tested = false;
    let samples = drive(
        a,
        spans,
        GRAPHS,
        |spans, i| {
            let (g, layout) = &resident[i % GRAPHS];
            match layout {
                None => engine_call(spans, "fleet", |clock| {
                    try_run_multi_observed(&prog, g, &mcfg, clock)
                        .map(|o| (o.values, Counts::fleet(&o.stats)))
                        .map_err(engine_err)
                }),
                Some(l) => engine_call(spans, "engine", |clock| {
                    try_run_warm(&prog, g, l, &cfg, None, clock)
                        .map(|o| (o.values, Counts::single(&o.stats)))
                        .map_err(engine_err)
                }),
            }
        },
        |spans, i, values, s, r| {
            spans.enter("check", "pagerank");
            let oracle = &oracles[i % GRAPHS];
            let mut failed = !same_counts(&mut firsts[i % GRAPHS], s.counts, r);
            if let Err(e) = check::pagerank(&values, oracle) {
                r.error(format!("PageRank output: {e}"));
                failed = true;
            }
            if !self_tested {
                self_tested = true;
                let bad = check::perturb_rank(&values, argmax(oracle));
                if let Err(e) = check::rejects(check::pagerank(&bad, oracle), "PageRank") {
                    r.error(e);
                }
            }
            spans.exit();
            failed
        },
        &mut r,
    );
    r.set("peak_rss_mb", peak_rss_mb());
    report_ops(&mut r, &samples, a);
    report_counts(&mut r, &firsts, fleet);
    report_simt_cost(&mut r, &samples);
    r
}

fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|x, y| x.1.total_cmp(y.1))
        .map_or(0, |(i, _)| i)
}

/// `sssp-oneshot`: each operation generates an rmat 16 graph, builds its
/// CW layout, solves SSSP and renders the values as text, as a one-shot
/// `cusha` run does. Operations cycle over [`GRAPHS`] graph seeds.
fn sssp_oneshot(a: &Args, spans: &mut Spans) -> Report {
    const SCALE: u32 = 16;
    const EDGES: u64 = 1 << 20;
    /// The warm-up pipeline runs at this scale with proportionally fewer
    /// edges: enough to fault in code and allocator arenas.
    const WARM_SCALE: u32 = 14;
    let mut r = Report::default();
    let cfg = CuShaConfig::cw();
    // The `cusha` CLI's default source. In a graph500 rmat vertex 0 has
    // the heaviest out-degree, which keeps the iteration count (5-6 per
    // graph) from swinging with the seed the way a random source's does.
    let source = 0;
    let pipeline = |spans: &mut Spans, scale: u32, edges: u64, seed: u64| {
        let t = Instant::now();
        let g = spans.scope("graph", "rmat", || {
            rmat(&RmatConfig::graph500(scale, edges, seed))
        });
        let gen_s = secs(t);
        let t = Instant::now();
        let layout = spans.scope("layout", "prepared-layout", || {
            let n_per = PreparedLayout::select_n_per(&g, &cfg, 4);
            PreparedLayout::build(&g, Repr::ConcatWindows, n_per)
        });
        let layout_s = secs(t);
        let (values, mut s) = engine_call(spans, "engine", |clock| {
            try_run_warm(&Sssp::new(source), &g, &layout, &cfg, None, clock)
                .map(|o| (o.values, Counts::single(&o.stats)))
                .map_err(engine_err)
        })?;
        spans.scope("output", "render", || {
            let mut text = String::with_capacity(values.len() * 8);
            for (v, d) in values.iter().enumerate() {
                let _ = writeln!(text, "{v} {d}");
            }
            black_box(text);
        });
        s.gen_s = gen_s;
        s.layout_s = layout_s;
        Ok::<_, String>(((g, layout.num_shards(), values), s))
    };

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let warm_edges = EDGES >> (SCALE - WARM_SCALE);
        if let Err(e) = pipeline(spans, WARM_SCALE, warm_edges, a.seed) {
            r.error(format!("warm-up failed: {e}"));
        }
        setup.push(secs(t));
    }
    r.set("setup_s", median(&setup));

    let mut oracles: [Option<Vec<u32>>; GRAPHS] = Default::default();
    let mut firsts = [None; GRAPHS];
    let mut shards = [0u32; GRAPHS];
    let samples = drive(
        a,
        spans,
        GRAPHS,
        |spans, i| pipeline(spans, SCALE, EDGES, graph_seed(a.seed, i % GRAPHS)),
        |spans, i, (g, n_shards, values), s, r| {
            spans.enter("check", "sssp");
            let k = i % GRAPHS;
            shards[k] = n_shards;
            let mut failed = !same_counts(&mut firsts[k], s.counts, r);
            let want = oracles[k].get_or_insert_with(|| {
                let want = run_sequential(&Sssp::new(source), &g, 10_000).values;
                // Negative self-test, once per graph: a one-value change
                // must fail.
                let v = want
                    .iter()
                    .position(|&d| d != cusha_algos::INF && d > 0)
                    .unwrap_or(0);
                let bad = check::perturb_u32(&values, v);
                if let Err(e) = check::rejects(check::exact(&bad, &want), "SSSP") {
                    r.error(e);
                }
                want
            });
            if let Err(e) = check::exact(&values, want) {
                r.error(format!("SSSP output: {e}"));
                failed = true;
            }
            spans.exit();
            failed
        },
        &mut r,
    );
    r.set("peak_rss_mb", peak_rss_mb());
    report_ops(&mut r, &samples, a);
    r.set("layout.shards", shards.iter().sum::<u32>() as f64);
    let med = |f: fn(&OpSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    r.set("graph.gen_s", med(|s| s.gen_s));
    r.set("layout.build_s", med(|s| s.layout_s));
    report_counts(&mut r, &firsts, false);
    report_simt_cost(&mut r, &samples);
    r
}

/// One query the client sent, and what came back.
struct Sent {
    kind: &'static str,
    source: u32,
    epoch: u64,
    admitted: Instant,
    traced: bool,
    latency_ms: Option<f64>,
    status: String,
    checksum: Option<u64>,
}

/// Client-side bookkeeping of the serve session.
#[derive(Default)]
struct Session {
    sent: Vec<Sent>,
    lines: Vec<String>,
    admit_us: Vec<f64>,
    flush_ms: Vec<f64>,
    rebuild_flush_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    /// Inserted edge of each committed epoch, in order.
    mutations: Vec<(u32, u32, u32)>,
    failed: u64,
}

impl Session {
    /// Settles the responses of one call at `at`.
    fn settle(&mut self, responses: &[String], at: Instant) {
        for line in responses {
            let Ok(v) = parse_json(line) else {
                eprintln!("perfbench: unparseable response {line:?}");
                self.failed += 1;
                continue;
            };
            let status = v.get("status").and_then(Json::as_str).unwrap_or("");
            if status == "flushed" {
                continue;
            }
            let Some(q) = v
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|id| self.sent.get_mut(id as usize))
            else {
                eprintln!("perfbench: response without a query id: {line}");
                self.failed += 1;
                continue;
            };
            q.latency_ms = Some((at - q.admitted).as_secs_f64() * 1e3);
            q.status = status.to_string();
            q.checksum = v
                .get("checksum")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            if status != "ok" {
                eprintln!("perfbench: query not answered: {line}");
                self.failed += 1;
            }
        }
    }
}

/// `serve-mixed`: a resident service with a WAL answering one closed-loop
/// client: batches of 8 BFS/SSSP/SSWP queries and a flush; after every
/// fifth batch a one-edge insert and a flush.
fn serve_mixed(a: &Args, spans: &mut Spans) -> Report {
    const SCALE: u32 = 12;
    const EDGES: u64 = 100_000;
    const BATCH: usize = 8;
    const MUTATE_EVERY: usize = 5;
    const HOT: usize = 8;
    /// Service counters are read after this many batches, so they repeat
    /// exactly for a seed however fast the host runs.
    const COUNT_BATCHES: usize = 25;
    const KINDS: [&str; 3] = ["bfs", "sssp", "sswp"];
    let mut r = Report::default();

    let wal_dir =
        std::path::PathBuf::from(crate::OUT_DIR).join(format!("wal-{}", std::process::id()));
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut resident = None;
    for rep in 0..SETUP_REPS {
        let wal = wal_dir.join(format!("rep{rep}"));
        let _ = std::fs::remove_dir_all(&wal);
        if let Err(e) = std::fs::create_dir_all(&wal) {
            r.error(format!("cannot create {}: {e}", wal.display()));
            return r;
        }
        let t = Instant::now();
        let g = spans.scope("graph", "rmat", || {
            rmat(&RmatConfig::graph500(SCALE, EDGES, a.seed))
        });
        let gen_s = secs(t);
        gen.push(gen_s);
        let copy = g.clone();
        let t = Instant::now();
        let cfg = ServeConfig {
            wal: Some(WalConfig {
                path: wal.join("serve.wal"),
                snapshot_every: 0,
                crash: None,
            }),
            ..ServeConfig::default()
        };
        let svc = spans.scope("serve", "start", || Service::new(g, cfg));
        let mut svc = match svc {
            Ok(s) => s,
            Err(e) => {
                r.error(format!("service did not start: {e}"));
                return r;
            }
        };
        let warm = spans.scope("serve", "warm-up", || {
            let mut out = Vec::new();
            for line in ["bfs 0", "sssp 0", "sswp 0", "flush"] {
                out.extend(svc.handle_line(line));
            }
            out
        });
        setup.push(gen_s + secs(t));
        let answered = |l: &String| {
            ["ok", "flushed"]
                .iter()
                .any(|st| l.contains(&format!("\"status\":\"{st}\"")))
        };
        if !warm.iter().all(answered) {
            r.error(format!("warm-up queries failed: {warm:?}"));
        }
        resident = Some((svc, copy));
    }
    let (mut svc, graph) = resident.expect("SETUP_REPS > 0");
    r.set("setup_s", median(&setup));
    r.set("graph.gen_s", median(&gen));

    let n = graph.num_vertices();
    let mut rng = client_rng(a.seed);
    let hot: Vec<u32> = (0..HOT).map(|_| rng.gen_range(0..n)).collect();
    let mut s = Session::default();
    let phases: &[bool] = if a.trace { &[false, true] } else { &[false] };
    let budget = a.seconds / phases.len() as f64;
    let mut batch = 0usize;
    let mut busy = [0.0f64; 2];
    let mut counted: Option<(f64, f64, f64)> = None;
    for &traced in phases {
        spans.set_enabled(traced);
        let mut spent = 0.0;
        while spent < budget || batch < COUNT_BATCHES {
            spans.set_op(batch as u64);
            let t_batch = Instant::now();
            spans.enter("op", "batch");
            for _ in 0..BATCH {
                let kind = KINDS[rng.gen_range(0..KINDS.len())];
                let source = if rng.gen_bool(0.3) {
                    hot[rng.gen_range(0..HOT)]
                } else {
                    rng.gen_range(0..n)
                };
                let id = s.sent.len();
                let line = format!("{{\"op\":\"{kind}\",\"source\":{source},\"id\":{id}}}");
                let admitted = Instant::now();
                s.sent.push(Sent {
                    kind,
                    source,
                    epoch: svc.epoch(),
                    admitted,
                    traced,
                    latency_ms: None,
                    status: String::new(),
                    checksum: None,
                });
                let resp = spans.scope("serve", "admit", || svc.handle_line(&line));
                let now = Instant::now();
                s.admit_us.push((now - admitted).as_secs_f64() * 1e6);
                s.settle(&resp, now);
                s.lines.push(line);
            }
            let t = Instant::now();
            let resp = spans.scope("serve", "flush", || svc.handle_line("flush"));
            let now = Instant::now();
            s.flush_ms.push((now - t).as_secs_f64() * 1e3);
            s.settle(&resp, now);

            if batch % MUTATE_EVERY == MUTATE_EVERY - 1 {
                let (src, dst, w) = (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(1..=64u32),
                );
                let line = format!(
                    "{{\"op\":\"mutate\",\"id\":\"w{batch}\",\"insert\":[[{src},{dst},{w}]]}}"
                );
                let t = Instant::now();
                let resp = spans.scope("serve", "mutate", || svc.handle_line(&line));
                s.mutate_ms.push(secs(t) * 1e3);
                r.attempted += 1;
                if resp.len() == 1 && resp[0].contains("\"status\":\"ok\"") {
                    s.mutations.push((src, dst, w));
                } else {
                    eprintln!("perfbench: mutation not committed: {resp:?}");
                    s.failed += 1;
                }
                let t = Instant::now();
                let resp = spans.scope("serve", "flush", || svc.handle_line("flush"));
                s.rebuild_flush_ms.push(secs(t) * 1e3);
                s.settle(&resp, Instant::now());
            }
            spans.exit();
            let w = secs(t_batch);
            spent += w;
            busy[usize::from(traced)] += w;
            batch += 1;
            if batch == COUNT_BATCHES {
                let m = svc.metrics();
                let c = |name: &str| m.counter(name, &[]).unwrap_or(0) as f64;
                let modeled_ms = m
                    .histogram("serve_query_modeled_seconds", &[])
                    .map_or(0.0, |h| h.sum * 1e3);
                let hits = c("serve_cache_hits_total");
                counted = Some((
                    hits / (hits + c("serve_cache_misses_total")),
                    c("serve_batches_total") / c("serve_queries_total"),
                    c("serve_cold_launches_total"),
                ));
                r.set("simt.modeled_ms", modeled_ms);
            }
        }
    }
    spans.set_enabled(a.trace);
    r.set("peak_rss_mb", peak_rss_mb());
    r.attempted += s.sent.len() as u64;

    // End-to-end: per-query wall latency and answered queries per second,
    // from the untraced phase.
    let lat = |traced: bool| -> Vec<f64> {
        s.sent
            .iter()
            .filter(|q| q.traced == traced && q.status == "ok")
            .filter_map(|q| q.latency_ms)
            .collect()
    };
    let untraced = lat(false);
    r.op_ms = untraced.clone();
    r.set("op_p50_ms", median(&untraced));
    r.set("ops_per_s", untraced.len() as f64 / busy[0]);
    if a.trace {
        r.set(
            "obs.trace_overhead_ratio",
            median(&lat(true)) / median(&untraced) - 1.0,
        );
    }
    if let Some((hit, launches, cold)) = counted {
        r.set("serve.cache_hit_ratio", hit);
        r.set("serve.launches_per_query", launches);
        r.set("serve.cold_launches", cold);
    }
    r.set("serve.admit_us", median(&s.admit_us));
    r.set("serve.flush_ms", median(&s.flush_ms));
    r.set("serve.rebuild_flush_ms", median(&s.rebuild_flush_ms));
    r.set("serve.mutate_commit_ms", median(&s.mutate_ms));
    // Parse cost alone, re-parsing the session's lines outside the run.
    let parse_us: Vec<f64> = s
        .lines
        .iter()
        .map(|l| {
            let t = Instant::now();
            black_box(parse_line(black_box(l)).is_ok());
            secs(t) * 1e6
        })
        .collect();
    r.set("serve.parse_us", median(&parse_us));

    spans.enter("check", "serve-oracle");
    check_serve(&s, graph, &mut r);
    spans.exit();
    r.failed += s.failed;
    let _ = std::fs::remove_dir_all(&wal_dir);
    r
}

/// Replays the session's mutations on the benchmark's own copy of the
/// graph and checks every `ok` answer's checksum against the sequential
/// oracle at the answer's epoch.
fn check_serve(s: &Session, mut graph: Graph, r: &mut Report) {
    let mut epoch = 0u64;
    let mut memo = std::collections::HashMap::new();
    let mut self_tested = false;
    for q in s.sent.iter().filter(|q| q.status == "ok") {
        while epoch < q.epoch {
            let (src, dst, w) = s.mutations[epoch as usize];
            if let Err(e) = MutationBatch::new().insert(src, dst, w).apply(&mut graph) {
                r.error(format!("mutation replay failed: {e}"));
                return;
            }
            epoch += 1;
            memo.clear();
        }
        let want = memo.entry((q.kind, q.source)).or_insert_with(|| {
            let values = match q.kind {
                "bfs" => run_sequential(&Bfs::new(q.source), &graph, 10_000).values,
                "sssp" => run_sequential(&Sssp::new(q.source), &graph, 10_000).values,
                _ => run_sequential(&Sswp::new(q.source), &graph, 10_000).values,
            };
            (check::answer_checksum(&values), values)
        });
        if q.checksum != Some(want.0) {
            r.error(format!(
                "{} {} at epoch {}: checksum {:?} differs from the oracle's {:016x}",
                q.kind, q.source, q.epoch, q.checksum, want.0
            ));
            r.failed += 1;
        }
        if !self_tested {
            self_tested = true;
            let bad = check::answer_checksum(&check::perturb_u32(&want.1, q.source as usize));
            if Some(bad) == q.checksum {
                r.error("serve checksum check accepted a one-value perturbation".into());
            }
        }
    }
}
