//! `perfbench steady`: runs one workload k times, each in its own process,
//! and prints each metric's median, quartiles, IQR/median and
//! (max-min)/median. With `--seed` every run uses that seed and the
//! simulated counts must repeat exactly; without it run i uses seed i, as
//! a sweep over inputs does.

use std::process::{Command, ExitCode};

use cusha_obs::json::{parse_json, Json};

use crate::stats::{median, quartiles};
use crate::{flag_map, END_TO_END, EXACT, PER_LAYER};

pub fn main(argv: &[String]) -> ExitCode {
    match steady(argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run's metrics, in END_TO_END then PER_LAYER order.
fn one_run(workload: &str, seed: u64, seconds: &str, trace: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let seed_s = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed_s])
        .args(["--seconds", seconds, "--trace", trace])
        .output()
        .map_err(|e| format!("cannot run benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("perfbench-detail "))
        .ok_or("no detail line in the benchmark's output")?;
    let v = parse_json(detail)?;
    if v.get("correct").and_then(Json::as_bool) != Some(true)
        || v.get("failed").and_then(Json::as_u64) != Some(0)
    {
        return Err(format!(
            "seed {seed}: run failed or was incorrect: {detail}"
        ));
    }
    let mut vals = Vec::new();
    for (section, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for (name, _) in names {
            let x = v
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} missing"))?;
            vals.push(x);
        }
    }
    Ok(vals)
}

fn steady(argv: &[String]) -> Result<bool, String> {
    let m = flag_map(argv, &["workload", "runs", "seconds", "seed", "trace"])?;
    let workload = m.get("workload").ok_or("--workload is required")?;
    let runs: u64 = m
        .get("runs")
        .ok_or("--runs is required")?
        .parse()
        .map_err(|e| format!("bad --runs: {e}"))?;
    let seconds = m.get("seconds").map_or("35", String::as_str);
    let trace = m.get("trace").map_or("0", String::as_str);
    let pinned: Option<u64> = m
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?;

    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 1..=runs {
        let seed = pinned.unwrap_or(i);
        rows.push(one_run(workload, seed, seconds, trace)?);
        eprintln!("perfbench steady: run {i}/{runs} (seed {seed}) done");
    }

    let names = END_TO_END.iter().chain(PER_LAYER);
    let traced = trace == "1";
    println!(
        "{workload}: {runs} runs, --seconds {seconds}, --trace {trace}, seeds {}",
        pinned.map_or(format!("1..={runs}"), |s| format!("all {s}"))
    );
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med", "range/med"
    );
    let mut exact_ok = true;
    for (col, (name, unit)) in names.enumerate() {
        let is_layer = col >= END_TO_END.len();
        if is_layer && !traced {
            continue;
        }
        let xs: Vec<f64> = rows.iter().map(|r| r[col]).collect();
        let med = median(&xs);
        let (q1, q3) = quartiles(&xs);
        let (lo, hi) = xs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| {
                (l.min(x), h.max(x))
            });
        let rel = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
        let mut note = String::new();
        if pinned.is_some() && EXACT.contains(name) {
            if xs.iter().all(|&x| x.to_bits() == xs[0].to_bits()) {
                note.push_str("  exact");
            } else {
                note.push_str("  VARIES (determinism bug)");
                exact_ok = false;
            }
        }
        println!(
            "{:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {:>9.4}  {unit}{note}",
            name,
            rel(q3 - q1),
            rel(hi - lo)
        );
    }
    Ok(exact_ok)
}
