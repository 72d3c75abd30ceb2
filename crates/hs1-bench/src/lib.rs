//! Shared plumbing for the figure-regeneration benches, and the table of
//! sweep figures ([`figures`]).
//!
//! Every bench target prints the paper's series to stdout and writes a
//! CSV to `bench_results/`. Simulated runs measure 1.0 s after a 0.4 s
//! warm-up (the paper uses 120 s runs; sim time only affects statistical
//! noise, not shape). The simulator is deterministic, so a committed CSV
//! is pinned, not gated: CI regenerates every committed figure and fails
//! on any difference from the committed bytes.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::fs;
use std::path::PathBuf;

use hs1_sim::{Report, Scenario};

pub mod figures;

/// Apply the standard measurement window to a scenario: 1.0 simulated
/// seconds after a 0.4 s warm-up.
pub fn standard(s: Scenario) -> Scenario {
    s.sim_seconds(1.0).warmup_seconds(0.4)
}

/// Collects rows and writes them to `bench_results/<name>.csv`.
pub struct FigureSink {
    name: &'static str,
    rows: Vec<String>,
}

impl FigureSink {
    pub fn new(name: &'static str, title: &str) -> FigureSink {
        // Data rows are prefixed with the sweep tag; the header must
        // carry the same leading column or every field parses one off.
        FigureSink::with_header(name, title, &format!("sweep,{}", Report::csv_header()))
    }

    /// A sink with a custom CSV header, for harnesses whose rows are not
    /// simulator [`Report`]s (e.g. `fig_recovery` times the storage and
    /// state-sync layers directly).
    pub fn with_header(name: &'static str, title: &str, header: &str) -> FigureSink {
        println!("=== {name}: {title} ===");
        FigureSink { name, rows: vec![header.to_string()] }
    }

    /// Record a run: print the human row, log the CSV row tagged with the
    /// sweep variable. Exits non-zero on any invariant violation — bench
    /// output must never scroll past a safety regression as advisory.
    pub fn record(&mut self, sweep: &str, report: &Report) {
        println!("  [{sweep:>24}] {}", report.row());
        report.ensure_invariants(&format!("{} [{sweep}]", self.name));
        self.rows.push(format!("{sweep},{}", report.csv_row()));
    }

    /// Record a pre-formatted CSV row (custom-header sinks).
    pub fn record_raw(&mut self, row: String) {
        println!("  {row}");
        self.rows.push(row);
    }

    /// Write the CSV (missing dir is created). A harness that emitted no
    /// data rows is a broken figure — fail the run loudly instead of
    /// uploading a header-only CSV that looks like a regenerated figure.
    /// An unwritable CSV fails the run too: the previous file would stay
    /// in place and pass for this run's output.
    pub fn finish(self) {
        assert!(
            self.rows.len() > 1,
            "figure harness {} emitted no rows — the figure would be silently empty",
            self.name
        );
        let dir = results_dir();
        let path = dir.join(format!("{}.csv", self.name));
        let text = self.rows.join("\n") + "\n";
        if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text)) {
            panic!("figure harness {}: write {}: {e}", self.name, path.display());
        }
        println!("  -> wrote {}", path.display());
    }
}

fn results_dir() -> PathBuf {
    // Workspace root when run via cargo bench; fall back to cwd.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.join("bench_results")
}
