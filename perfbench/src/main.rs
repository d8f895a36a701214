//! Host wall-clock benchmark of the cusha workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> --runs <k> [--seconds <s>] [--seed <n>] [--trace <0|1>]
//! ```
//!
//! A run generates every input from `--seed`, times calls into the
//! workspace crates' public functions for `--seconds` of operations, checks
//! every output against an independent oracle outside the timed region,
//! and prints one JSON result as its last stdout line. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones, from a run
//! whose second half records wall spans around every layer call. See
//! README.md for the workloads and which layer metric should move which
//! end-to-end metric.

mod check;
mod spans;
mod stats;
mod steady;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), reported by every workload with
/// tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by the traced run. A metric
/// that does not apply to a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_s", "s"),
    ("layout.build_s", "s"),
    ("layout.shards", "count"),
    ("engine.iter_first_ms", "ms"),
    ("engine.iter_steady_ms", "ms"),
    ("engine.iterations", "count"),
    ("simt.replay_hit_ratio", "ratio"),
    ("simt.coalesce_hit_ratio", "ratio"),
    ("simt.host_ns_per_warp_inst", "ns"),
    ("simt.host_s_per_modeled_s", "ratio"),
    ("simt.warp_insts", "count"),
    ("simt.gld_transactions", "count"),
    ("simt.modeled_ms", "ms"),
    ("fleet.halo_vertices", "count"),
    ("fleet.exchange_bytes", "bytes"),
    ("fleet.modeled_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.flush_ms", "ms"),
    ("serve.rebuild_flush_ms", "ms"),
    ("serve.mutate_commit_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.launches_per_query", "ratio"),
    ("serve.cold_launches", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("graph.self_s", "s"),
    ("layout.self_s", "s"),
    ("engine.self_s", "s"),
    ("fleet.self_s", "s"),
    ("serve.self_s", "s"),
];

/// Per-layer metrics that are simulated counts: for a fixed seed they must
/// repeat exactly, run after run, because a speed-only change may not move
/// them.
pub const EXACT: &[&str] = &[
    "layout.shards",
    "engine.iterations",
    "simt.replay_hit_ratio",
    "simt.coalesce_hit_ratio",
    "simt.warp_insts",
    "simt.gld_transactions",
    "simt.modeled_ms",
    "fleet.halo_vertices",
    "fleet.exchange_bytes",
    "fleet.modeled_ms",
    "serve.cache_hit_ratio",
    "serve.launches_per_query",
    "serve.cold_launches",
];

/// Parsed command line of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: operation counts, correctness findings and
/// every metric it measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs, failed self-tests and simulated counts that varied.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall ms of every untraced operation, in order (kept in the detail
    /// record so spreads can be traced to single operations).
    pub op_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a correctness finding; it fails the run's `correct` flag.
    pub fn error(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.errors.push(msg);
    }
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
       perfbench steady --workload <name> --runs <k> [--seconds <s>] [--seed <n>] [--trace <0|1>]";

/// Parses `--flag value` pairs into a map, rejecting anything else.
pub fn flag_map(argv: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), val.clone());
    }
    Ok(out)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let m = flag_map(argv, &["workload", "seed", "seconds", "trace"])?;
    let get = |k: &str| m.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?.clone();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision read from `.git` in the working directory,
/// or "unknown" outside a git checkout (no parent directory is searched).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = match read(".git/HEAD") {
        Some(h) => h.trim().to_string(),
        None => return "unknown".into(),
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds the hypervisor has taken from this machine's CPUs: the
/// `steal` column of `/proc/stat`, in USER_HZ (100 per second) ticks.
fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn push_metrics(out: &mut String, names: &[(&str, &str)], m: &BTreeMap<&'static str, f64>) {
    out.push('{');
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let v = m.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
    }
    out.push('}');
}

/// The full record of a run: every metric, the host and the revision.
/// Printed as the second-to-last stdout line and kept under `.bench_out/`.
fn detail_json(a: &Args, r: &Report, steal_s: f64) -> String {
    let mut out = String::from("{\"schema\":\"perfbench-result/v1\"");
    let _ = write!(
        out,
        ",\"workload\":\"{}\",\"seed\":{},\"seconds\":{:?},\"trace\":{},\"nproc\":{},\
         \"git_rev\":\"{}\",\"host_steal_s\":{steal_s:.2},\"attempted\":{},\"failed\":{},\"correct\":{}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc(),
        git_rev(),
        r.attempted,
        r.failed,
        r.errors.is_empty()
    );
    out.push_str(",\"op_ms\":[");
    for (i, ms) in r.op_ms.iter().enumerate() {
        let _ = write!(out, "{}{ms:.3}", if i > 0 { "," } else { "" });
    }
    out.push(']');
    out.push_str(",\"end_to_end\":");
    push_metrics(&mut out, END_TO_END, &r.metrics);
    out.push_str(",\"per_layer\":");
    push_metrics(&mut out, PER_LAYER, &r.metrics);
    out.push('}');
    out
}

/// The contract line: `correct`, `attempted`, `failed` and the metrics of
/// the selected mode.
fn result_json(a: &Args, r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
        r.errors.is_empty(),
        r.attempted,
        r.failed
    );
    push_metrics(
        &mut out,
        if a.trace { PER_LAYER } else { END_TO_END },
        &r.metrics,
    );
    out.push('}');
    out
}

/// Output directory for result records, span files and the service WAL.
pub const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steady") {
        return steady::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let steal_before = host_steal_s();
    let mut spans = spans::Spans::new(args.trace);
    let mut report = workloads::run(&args, &mut spans);
    if args.trace {
        let selfs = spans.self_seconds();
        for (layer, name) in [
            ("graph", "graph.self_s"),
            ("layout", "layout.self_s"),
            ("engine", "engine.self_s"),
            ("fleet", "fleet.self_s"),
            ("serve", "serve.self_s"),
        ] {
            report.set(name, selfs.get(layer).copied().unwrap_or(0.0));
        }
    }
    for (name, _) in END_TO_END {
        if !report.metrics.get(name).is_some_and(|v| *v > 0.0) {
            report.error(format!("{} measured no positive {name}", args.workload));
        }
    }

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let detail = detail_json(&args, &report, host_steal_s() - steal_before);
    let mut files = vec![(format!("{stem}.json"), format!("{detail}\n"))];
    if args.trace {
        let table = spans.table();
        eprintln!("perfbench: {} self time per layer\n{table}", args.workload);
        files.push((format!("{stem}.spans.json"), spans.to_json()));
        files.push((format!("{stem}.selftime.txt"), table));
    }
    for (path, body) in files {
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("perfbench-detail {detail}");
    println!("{}", result_json(&args, &report));
    ExitCode::SUCCESS
}
