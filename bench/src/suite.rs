//! The one command: every workload, untraced then traced, each run in a
//! fresh child process; every metric printed by name and unit; the result
//! written to `<out>/<git-sha>.json`. And `--compare`, which holds two
//! such results against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::procfs;
use crate::stats::{median, spread};
use crate::Cli;

/// Measured seconds of the untraced run (`run_seconds` in
/// `BENCHMARK.json`) and of the traced run that follows it.
pub const UNTRACED_S: u64 = 12;
const TRACED_S: u64 = 8;

fn git_sha(home: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(home)
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

/// Run one workload once in a child process and read back its detail.
fn child(cli: &Cli, workload: &str, seconds: u64, trace: bool) -> Result<(Json, bool), String> {
    let out = cli.out_dir();
    let detail = out.join(format!("{workload}.t{}.json", trace as u8));
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let status = Command::new(exe)
        .arg("--home")
        .arg(&cli.home)
        .arg("--out")
        .arg(&out)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        // The child's result line is for the driver; the suite reads the
        // detail file instead.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&detail)
        .map_err(|_| format!("{workload} (trace {}) produced no result ({status})", trace as u8))?;
    let _ = std::fs::remove_file(&detail);
    Ok((Json::parse(&text)?, status.success()))
}

fn value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("values")?.get(name)?.as_f64()
}

pub fn run_all(cli: &Cli) -> Result<bool, String> {
    let out = cli.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let scale = if cli.quick { 2 } else { 1 };
    let (untraced_s, traced_s) = (cli.seconds.unwrap_or(UNTRACED_S) / scale, TRACED_S / scale);
    let host = procfs::host_shape();
    let sha = git_sha(&cli.home);
    println!(
        "hs1-wallbench @ {sha}  seed {}  windows {untraced_s}s untraced + {traced_s}s traced",
        cli.seed
    );
    println!("host: {} × {} / Linux {}\n", host.nproc, host.cpu_model, host.kernel);

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS.iter().filter(|w| cli.only.as_deref().is_none_or(|o| o == w.name)) {
        eprintln!("── {} …", w.name);
        let (plain, ok_plain) = child(cli, w.name, untraced_s.max(1), false)?;
        let (traced, ok_traced) = child(cli, w.name, traced_s.max(1), true)?;
        all_correct &= ok_plain && ok_traced;

        println!("{}  ({})", w.name, w.why);
        let mut end_to_end = Vec::new();
        for m in &END_TO_END {
            let v = value(&plain, m.name).unwrap_or(0.0);
            println!("  {:<28} {:>14.4} {}", m.name, v, m.unit);
            end_to_end.push((m.name, Json::Num(v)));
        }
        // Per-layer numbers come from the traced run, except where the
        // longer untraced run measured the same thing.
        let mut per_layer = Vec::new();
        for m in &PER_LAYER {
            let v = value(&plain, m.name).or_else(|| value(&traced, m.name)).unwrap_or(0.0);
            println!("  {:<36} {:>14.4} {:<6} [{}]", m.name, v, m.unit, m.source.tag());
            per_layer.push((m.name, Json::Num(v)));
        }
        println!(
            "  also: peak_rss_mb (VmHWM) {:.1} MiB, one boot {:.3} ms",
            value(&plain, "peak_rss_mb").unwrap_or(0.0),
            value(&plain, "boot_ms_p50").unwrap_or(0.0)
        );
        let count = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  correct: {}  attempted {}  failed {}\n",
            ok_plain && ok_traced,
            count(&plain, "attempted"),
            count(&plain, "failed")
        );
        budget_table(&per_layer, &end_to_end);
        workloads.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(ok_plain && ok_traced)),
                ("attempted", Json::Num(count(&plain, "attempted"))),
                ("failed", Json::Num(count(&plain, "failed"))),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
                ("series", plain.get("series").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    if workloads.is_empty() {
        return Err(format!("--only {}: no such workload", cli.only.as_deref().unwrap_or("")));
    }

    let doc = Json::obj([
        ("git_sha", Json::Str(sha.clone())),
        ("seed", Json::Num(cli.seed as f64)),
        ("untraced_seconds", Json::Num(untraced_s as f64)),
        ("traced_seconds", Json::Num(traced_s as f64)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host.nproc as f64)),
                ("kernel", Json::Str(host.kernel)),
                ("cpu_model", Json::Str(host.cpu_model)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out.join(format!("{sha}.json"));
    std::fs::write(&path, doc.encode() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// The ROADMAP item-1 table for one workload: CPU per finalized
/// transaction by thread class, and how much of it the lab explains.
fn budget_table(per_layer: &[(&str, Json)], end_to_end: &[(&str, Json)]) {
    let get = |rows: &[(&str, Json)], name: &str| {
        rows.iter().find(|(k, _)| *k == name).and_then(|(_, v)| v.as_f64()).unwrap_or(0.0)
    };
    let total = get(end_to_end, "cpu_us_per_tx");
    let engine = get(per_layer, "core.engine_cpu_us_per_tx");
    let reactor = get(per_layer, "net.reactor_cpu_us_per_tx");
    let share = |v: f64| if total > 0.0 { 100.0 * v / total } else { 0.0 };
    println!("  budget (µs CPU per finalized tx, all replicas)");
    println!("    engine threads   {engine:>9.2}  {:>5.1}%  of which in engine steps {:.2} (journal {:.2})",
        share(engine), get(per_layer, "core.step_us_per_tx"), get(per_layer, "storage.persist_us_per_tx"));
    println!(
        "    reactor threads  {reactor:>9.2}  {:>5.1}%  {:.0}% of it in the kernel",
        share(reactor),
        100.0 * get(per_layer, "net.reactor_sys_frac")
    );
    println!(
        "    other threads    {:>9.2}  {:>5.1}%",
        total - engine - reactor,
        share(total - engine - reactor)
    );
    println!(
        "    cpu_us_per_tx    {total:>9.2}          lab cannot explain {:.0}% of engine + reactor",
        100.0 * get(per_layer, "budget.unattributed_frac")
    );
    println!(
        "    (load generator  {:>9.2}, not counted)\n",
        get(per_layer, "client.cpu_us_per_tx")
    );
}

/// Values of `metric` on `workload` across the files of one side.
fn side_values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

fn load_side(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Hold B against A under the bounds. Prints one verdict per workload ×
/// end-to-end metric; returns false if anything regressed.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load_side(a)?, load_side(b)?);
    let mut regressed = false;
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (side_values(&a, w.name, m.name), side_values(&b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let bound = m.bound_on(w.name);
            // Positive = B is worse, as a share of A's median.
            let worse = match (m.better, ma) {
                (_, 0.0) => 0.0,
                (Better::Lower, _) => (mb - ma) / ma,
                (Better::Higher, _) => (ma - mb) / ma,
            };
            // Spread of A's own runs when there are enough of them, else
            // the spread recorded when the bounds were confirmed.
            let noise =
                if va.len() >= 4 { spread(&va).unwrap_or(0.0) } else { m.spread_on(w.name) };
            let verdict = if noise > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "REGRESSED"
            } else if -worse > bound.max(noise) {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<16} {:<15} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                w.name,
                m.name,
                -100.0 * worse,
                100.0 * noise,
                100.0 * bound
            );
        }
    }
    Ok(!regressed)
}
