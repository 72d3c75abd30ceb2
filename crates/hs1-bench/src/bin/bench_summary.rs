//! `bench_summary` — roll the regenerated figure CSVs up into one
//! machine-readable `bench_results/summary.json` (hand-rolled JSON, no
//! dependencies). CI uploads it next to the CSVs so downstream tooling
//! can check which figures were regenerated and how many data rows each
//! carries without parsing every CSV.
//!
//! The summary also carries **provenance** (git SHA, measurement window)
//! and a flat **metrics** object extracted from the key figures — knee
//! goodput per `fig_knee` lane, quickstart e2e latency means from
//! `fig_critical_path`. `bench_gate` compares those metrics against
//! the committed `BENCH_baseline.json`, and the same object is written to
//! `bench_results/BENCH_<sha8>.json` so CI can upload a per-commit
//! trajectory of the repo's performance.
//!
//! Exits non-zero if `bench_results/` holds no CSVs or any figure is
//! header-only — an empty figure must fail the job, not ship silently.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.join("bench_results")
}

/// Commit being measured: `GITHUB_SHA` in CI, `git rev-parse HEAD`
/// locally, `unknown` outside a checkout.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Data rows of a figure CSV as split fields, if the figure exists.
fn csv_rows(dir: &Path, name: &str) -> Option<Vec<Vec<String>>> {
    let text = std::fs::read_to_string(dir.join(format!("{name}.csv"))).ok()?;
    Some(
        text.lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split(',').map(|f| f.trim().to_string()).collect())
            .collect(),
    )
}

/// Max of `col` (parsed as f64) over rows matching `pick`.
fn col_max(rows: &[Vec<String>], pick: impl Fn(&[String]) -> bool, col: usize) -> Option<f64> {
    rows.iter()
        .filter(|r| pick(r))
        .filter_map(|r| r.get(col)?.parse::<f64>().ok())
        .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
}

/// First value of `col` over rows matching `pick`.
fn col_first(rows: &[Vec<String>], pick: impl Fn(&[String]) -> bool, col: usize) -> Option<f64> {
    rows.iter().filter(|r| pick(r)).find_map(|r| r.get(col)?.parse::<f64>().ok())
}

/// Extract the gate metrics from whichever key figures were regenerated.
/// A missing figure simply omits its metrics — `bench_gate` fails on any
/// baseline metric the summary lacks, so CI cannot skip a figure and
/// still pass the gate.
fn gate_metrics(dir: &Path) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    if let Some(rows) = csv_rows(dir, "fig_knee") {
        // goodput_tps is column 4; lanes keyed by (protocol, lane).
        let lane = |p: &'static str, l: &'static str| {
            move |r: &[String]| {
                r.first().is_some_and(|v| v == p) && r.get(1).is_some_and(|v| v == l)
            }
        };
        if let Some(v) = col_max(&rows, lane("HotStuff-1", "poisson"), 4) {
            m.push(("knee_goodput_hs1_tps", v));
        }
        if let Some(v) = col_max(&rows, lane("HotStuff-2", "poisson"), 4) {
            m.push(("knee_goodput_hs2_tps", v));
        }
    }
    if let Some(rows) = csv_rows(dir, "fig_critical_path") {
        // e2e_ms is column 8; mean rows only.
        let mean = |p: &'static str| {
            move |r: &[String]| {
                r.first().is_some_and(|v| v == p) && r.get(1).is_some_and(|v| v == "mean")
            }
        };
        if let Some(v) = col_first(&rows, mean("HotStuff-1"), 8) {
            m.push(("e2e_mean_ms_hs1", v));
        }
        if let Some(v) = col_first(&rows, mean("HotStuff-2"), 8) {
            m.push(("e2e_mean_ms_hs2", v));
        }
    }
    m
}

/// Escape a string for a JSON literal (the inputs are CSV identifiers,
/// but stay correct for arbitrary bytes anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let dir = results_dir();
    let mut csvs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| {
            eprintln!("no bench_results dir at {}: {e}", dir.display());
            std::process::exit(1);
        })
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    csvs.sort();
    if csvs.is_empty() {
        eprintln!("no figure CSVs in {}", dir.display());
        std::process::exit(1);
    }

    let mut figures = Vec::new();
    for path in &csvs {
        let name = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("read {}: {e}", path.display());
            std::process::exit(1);
        });
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let rows = lines.filter(|l| !l.trim().is_empty()).count();
        if rows == 0 {
            eprintln!("{name}: header-only CSV — the figure is empty");
            std::process::exit(1);
        }
        let columns: Vec<String> = header.split(',').map(|c| json_str(c.trim())).collect();
        figures.push(format!(
            "    {{\"name\": {}, \"rows\": {rows}, \"columns\": [{}]}}",
            json_str(&name),
            columns.join(", "),
        ));
    }

    let sha = git_sha();
    let bench_seconds = std::env::var("HS1_BENCH_SECONDS").unwrap_or_else(|_| "1.0".to_string());
    let provenance = format!(
        "  \"provenance\": {{\"git_sha\": {}, \"bench_seconds\": {}}}",
        json_str(&sha),
        json_str(&bench_seconds),
    );
    let metrics = gate_metrics(&dir);
    let metrics_json = format!(
        "  \"metrics\": {{\n{}\n  }}",
        metrics
            .iter()
            .map(|(k, v)| format!("    {}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",\n"),
    );

    let json = format!(
        "{{\n  \"figures\": [\n{}\n  ],\n  \"count\": {},\n{provenance},\n{metrics_json}\n}}\n",
        figures.join(",\n"),
        figures.len(),
    );
    let out = dir.join("summary.json");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("write {}: {e}", out.display());
        std::process::exit(1);
    }
    print!("{json}");
    println!("-> wrote {}", out.display());

    // Per-commit trajectory artifact: provenance + metrics only, named by
    // the short SHA so successive CI runs accumulate a comparable series.
    let short = &sha[..sha.len().min(8)];
    let traj = format!("{{\n{provenance},\n{metrics_json}\n}}\n");
    let traj_path = dir.join(format!("BENCH_{short}.json"));
    if let Err(e) = std::fs::write(&traj_path, &traj) {
        eprintln!("write {}: {e}", traj_path.display());
        std::process::exit(1);
    }
    println!("-> wrote {}", traj_path.display());
}
