//! `hs1-wallbench` — wall-clock benchmark of the real TCP cluster.
//!
//! Reached through `bench/run.sh`, which builds this package and passes
//! its own directory as `--home`. Three modes:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of stdout is the result
//!   object the driver reads (`--trace 0`: end-to-end metrics, `--trace
//!   1`: per-layer metrics).
//! * no `--workload` — the suite: every workload (or `--only W`), an
//!   untraced and a traced run each, one fresh child process per run;
//!   prints every metric and writes `<out>/<git-sha>.json`.
//! * `--compare A.json B.json` — apply the bounds to two suite results
//!   (each side may be a comma-separated list of files).

mod cluster;
mod json;
mod lab;
mod loadgen;
mod metrics;
mod procfs;
mod run;
mod stats;
mod stream;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};

/// Parsed command line. Unknown flags are an error, not ignored.
#[derive(Default)]
pub struct Cli {
    pub home: PathBuf,
    pub out: Option<PathBuf>,
    pub workload: Option<String>,
    pub only: Option<String>,
    pub seed: u64,
    pub seconds: Option<u64>,
    pub trace: bool,
    pub quick: bool,
    pub detail: Option<PathBuf>,
    pub compare: Option<(String, String)>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli { home: PathBuf::from("bench"), seed: 1, ..Cli::default() };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            let number =
                |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
            match flag.as_str() {
                "--home" => cli.home = value()?.into(),
                "--out" => cli.out = Some(value()?.into()),
                "--workload" => cli.workload = Some(value()?),
                "--only" => cli.only = Some(value()?),
                "--seed" => cli.seed = number(value()?)?,
                "--seconds" => cli.seconds = Some(number(value()?)?),
                "--trace" => cli.trace = number(value()?)? != 0,
                "--detail" => cli.detail = Some(value()?.into()),
                "--quick" => cli.quick = true,
                "--compare" => cli.compare = Some((value()?, value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    pub fn out_dir(&self) -> PathBuf {
        self.out.clone().unwrap_or_else(|| self.home.join("out"))
    }
}

/// One workload in this process; prints the driver's result line.
fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = metrics::workload(name).ok_or_else(|| {
        let names: Vec<_> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seconds = cli.seconds.ok_or("--workload needs --seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: want 1..=60"));
    }
    let args = run::RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        out_dir: cli.out_dir(),
    };
    let outcome = run::run(&args)?;
    for v in &outcome.violations {
        eprintln!("INCORRECT [{name}]: {v}");
    }
    let correct = outcome.violations.is_empty();

    let metric = |name: &str, unit: &str| {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        (
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]),
        )
    };
    // What `BENCHMARK.json` lists: gated end-to-end metrics on an untraced
    // run; the ungated one and the per-layer ones on a traced run.
    let end_to_end: Vec<_> =
        END_TO_END.iter().filter(|m| m.gated).map(|m| metric(m.name, m.unit)).collect();
    let per_layer: Vec<_> = END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| metric(m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| metric(m.name, m.unit)))
        .collect();
    let head = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
    ];
    if let Some(path) = &cli.detail {
        // Everything this run could measure, for the suite to merge.
        let all = outcome.metrics.iter().map(|(k, v)| (*k, Json::Num(*v)));
        let doc = Json::obj(
            head.clone()
                .into_iter()
                .chain([("values", Json::obj(all)), ("series", outcome.series.clone())]),
        );
        std::fs::write(path, doc.encode()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let listed = Json::Obj(if cli.trace { per_layer } else { end_to_end });
    println!("{}", Json::obj(head.into_iter().chain([("metrics", listed)])).encode());
    Ok(correct)
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hs1-wallbench: {e}");
            eprintln!("usage: run.sh [--seed N] [--only W] [--quick] [--out DIR]");
            eprintln!("       run.sh --workload W --seed N --seconds S --trace 0|1");
            eprintln!("       run.sh --compare A.json[,A2.json…] B.json[,B2.json…]");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &cli.compare {
        suite::compare(a, b)
    } else if let Some(name) = &cli.workload {
        run_one(&cli, name)
    } else {
        suite::run_all(&cli)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hs1-wallbench: {e}");
            ExitCode::from(1)
        }
    }
}
