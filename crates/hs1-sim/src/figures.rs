//! The paper's evaluation as data: each entry of [`FIGURES`] prints one
//! figure's series, asserts what the figure claims, and writes
//! `bench_results/<name>.csv`. The `figures` bench target runs whichever
//! entries it is asked for.
//!
//! Simulated runs measure 1.0 s after a 0.4 s warm-up (the paper uses
//! 120 s runs; sim time only affects statistical noise, not shape). The
//! simulator is deterministic, so a committed CSV is pinned, not gated:
//! CI regenerates every committed figure and fails on any difference from
//! the committed bytes. `fig_recovery` times the storage and state-sync
//! layers on the wall clock, so its CSV is a report and is not committed.

use std::fs;
use std::path::Path;

use hs1_adversary::AdversaryStrategy;
use hs1_core::Fault;
use hs1_types::{ReplicaId, SimDuration};

use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::regions::{split, Region};
use crate::{ProtocolKind, Report, Scenario, WorkloadKind};

mod critical_path;
mod knee;
mod recovery;

/// `(sweep label, scenario)` per CSV row, in row order.
type Rows = Vec<(String, Scenario)>;

/// One figure: `bench_results/<name>.csv`.
pub struct Figure {
    pub name: &'static str,
    pub title: &'static str,
    run: Run,
}

/// What a figure runs.
enum Run {
    /// A parameter sweep: one row per scenario, tagged with its label.
    Sweep(fn() -> Rows),
    /// Anything else: it fills the sink itself, header first, and asserts
    /// what the figure claims.
    Own(fn(&mut FigureSink)),
}

const fn sweep(name: &'static str, title: &'static str, rows: fn() -> Rows) -> Figure {
    Figure { name, title, run: Run::Sweep(rows) }
}

const fn own(name: &'static str, title: &'static str, run: fn(&mut FigureSink)) -> Figure {
    Figure { name, title, run: Run::Own(run) }
}

impl Figure {
    /// Run the figure and write its CSV.
    pub fn regenerate(&self) {
        println!("=== {}: {} ===", self.name, self.title);
        let mut sink = FigureSink { name: self.name, rows: Vec::new() };
        match self.run {
            Run::Sweep(rows) => {
                sink.sweep(rows());
            }
            Run::Own(run) => run(&mut sink),
        }
        sink.finish();
    }
}

/// Every figure, in the order the `figures` harness lists them.
pub static FIGURES: [Figure; 15] = [
    sweep("fig7_slotting", "adaptive slotting vs view timer (Figs 6-7)", fig7_slotting),
    sweep("fig8_scalability", "throughput/latency vs replicas (Fig 8a,b)", fig8_scalability),
    sweep("fig8_batching", "throughput/latency vs batch size (Fig 8c,d)", fig8_batching),
    sweep("fig8_geo", "geo-scale scalability (Fig 8e-h)", fig8_geo),
    sweep("fig9_delay", "injected message delays (Fig 9a-d,f-i)", fig9_delay),
    sweep("fig9_geo2", "Virginia/London split (Fig 9e,j)", fig9_geo2),
    sweep("fig10_slowness", "leader slowness (Fig 10a-d)", fig10_slowness),
    sweep("fig10_tailfork", "tail-forking attack (Fig 10e,f)", fig10_tailfork),
    sweep("fig10_rollback", "rollback attack (Fig 10g,h)", fig10_rollback),
    own("halfphase_ladder", "half-phase latency ladder (§7 Baselines)", |s| {
        halfphase_ladder_check(&s.sweep(halfphase_ladder()))
    }),
    sweep("fig_chaos", "throughput/latency vs link loss", fig_chaos),
    sweep(
        "fig_adversary",
        "throughput/latency vs backup adversary strategy (1 of 4 replicas Byzantine)",
        fig_adversary,
    ),
    own(
        "fig_knee",
        "offered-load knee curves, HS1 vs HS2 (n=4, batch 32, open-loop Poisson)",
        knee::run,
    ),
    own(
        "fig_critical_path",
        "commit critical-path attribution, HS1 vs HS2 (n=4, batch 32, 64 clients)",
        critical_path::run,
    ),
    own("fig_recovery", "recovery time vs journal length", recovery::run),
];

/// Collects a figure's CSV rows, header first, for
/// `bench_results/<name>.csv`.
struct FigureSink {
    name: &'static str,
    rows: Vec<String>,
}

impl FigureSink {
    /// The CSV header: the first call of every figure's `run`.
    fn header(&mut self, header: &str) {
        self.rows.push(header.to_string());
    }

    /// Run a sweep, one row per scenario, tagged with its sweep label.
    /// Exits non-zero on any invariant violation — bench output must
    /// never scroll past a safety regression as advisory.
    fn sweep(&mut self, rows: Rows) -> Vec<(String, Report)> {
        // Data rows are prefixed with the sweep tag; the header must
        // carry the same leading column or every field parses one off.
        self.header(&format!("sweep,{}", Report::csv_header()));
        rows.into_iter()
            .map(|(sweep, scenario)| {
                let report = scenario.run();
                println!("  [{sweep:>24}] {}", report.row());
                report.ensure_invariants(&format!("{} [{sweep}]", self.name));
                self.rows.push(format!("{sweep},{}", report.csv_row()));
                (sweep, report)
            })
            .collect()
    }

    /// Record a pre-formatted CSV row (an `own` figure's).
    fn record(&mut self, row: String) {
        println!("  {row}");
        self.rows.push(row);
    }

    /// Write the CSV (missing dir is created). A figure that emitted no
    /// data rows is broken — fail the run loudly instead of uploading a
    /// header-only CSV that looks like a regenerated figure. An
    /// unwritable CSV fails the run too: the previous file would stay in
    /// place and pass for this run's output.
    fn finish(self) {
        assert!(
            self.rows.len() > 1,
            "figure {} emitted no rows — the figure would be silently empty",
            self.name
        );
        // The workspace root, two levels above this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace");
        let dir = root.join("bench_results");
        let path = dir.join(format!("{}.csv", self.name));
        let text = self.rows.join("\n") + "\n";
        if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text)) {
            panic!("figure {}: write {}: {e}", self.name, path.display());
        }
        println!("  -> wrote {}", path.display());
    }
}

/// Apply the standard measurement window to a scenario: 1.0 simulated
/// seconds after a 0.4 s warm-up.
fn standard(s: Scenario) -> Scenario {
    s.sim_seconds(1.0).warmup_seconds(0.4)
}

/// The sweep every figure shares: one row per `(x, protocol)`, `xs`
/// outermost. `row` shapes the standard-window scenario for `x` and tags
/// it; the row's label is `"<tag> <protocol>"`.
fn grid<X: Copy>(
    xs: impl IntoIterator<Item = X>,
    protocols: &[ProtocolKind],
    row: impl Fn(X, Scenario) -> (String, Scenario),
) -> Rows {
    let mut rows = Vec::new();
    for x in xs {
        for &p in protocols {
            let (tag, scenario) = row(x, standard(Scenario::new(p)));
            rows.push((format!("{tag} {}", p.name()), scenario));
        }
    }
    rows
}

/// Every `(a, b)`, `a` outermost.
fn cross<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter().flat_map(|&a| b.iter().map(move |&b| (a, b))).collect()
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Figures 6–7: adaptive slotting — slotted HotStuff-1 against the
/// streamlined baselines as the view timer stretches. Slotting keeps a
/// leader productive for many slots per view, so throughput should hold
/// roughly flat while the single-slot engines degrade with longer views.
fn fig7_slotting() -> Rows {
    let protocols =
        [ProtocolKind::HotStuff1Slotted, ProtocolKind::HotStuff1, ProtocolKind::HotStuff2];
    grid([10u64, 25, 50, 100, 250], &protocols, |timer, s| {
        let s = s.replicas(16).batch_size(100).clients(400).view_timer(ms(timer));
        (format!("timer={timer}ms"), s)
    })
}

/// Figure 8(a,b): throughput and client latency vs number of replicas
/// (n ∈ {4, 16, 32, 64}, YCSB, batch 100).
fn fig8_scalability() -> Rows {
    grid([4usize, 16, 32, 64], &ProtocolKind::EVALUATED, |n, s| {
        (format!("n={n}"), s.replicas(n).batch_size(100).clients(200))
    })
}

/// Figure 8(c,d): throughput and client latency vs batch size
/// (batch ∈ {100, 1000, 2000, 5000, 10000}, n = 32, YCSB).
fn fig8_batching() -> Rows {
    grid([100usize, 1000, 2000, 5000, 10000], &ProtocolKind::EVALUATED, |batch, s| {
        (format!("batch={batch}"), s.replicas(32).batch_size(batch).clients(batch * 2))
    })
}

/// Figure 8(e–h): geo-scale deployments — throughput and latency vs number
/// of regions (2–5: N.Virginia, HongKong, London, SãoPaulo, Zurich),
/// n = 32 spread uniformly, YCSB and TPC-C.
fn fig8_geo() -> Rows {
    let xs = cross(&[WorkloadKind::Ycsb, WorkloadKind::Tpcc], &[2usize, 3, 4, 5]);
    grid(xs, &ProtocolKind::EVALUATED, |(workload, regions), s| {
        let s = s.replicas(32).batch_size(100).clients(400).workload(workload);
        (format!("{workload:?} regions={regions}"), s.geo_regions(regions).view_timer(ms(600)))
    })
}

/// Figure 9(a–d, f–i): throughput and latency under injected message
/// delays δ ∈ {1, 5, 50, 500} ms on k ∈ {0, f, f+1, n−f−1, n−f, n}
/// impacted replicas (n = 31, f = 10).
fn fig9_delay() -> Rows {
    let xs = cross(&[1u64, 5, 50, 500], &[0usize, 10, 11, 20, 21, 31]);
    grid(xs, &ProtocolKind::EVALUATED, |(delay, k), s| {
        // View timers must exceed the injected delay for liveness
        // (the paper tunes timeouts per deployment).
        let s = s.replicas(31).batch_size(100).clients(200).view_timer(ms((4 * delay).max(10)));
        (format!("d={delay}ms k={k}"), s.inject_delay(k, ms(delay)))
    })
}

/// Figure 9(e,j): two-region deployment — n = 31 replicas split between
/// London (k) and N.Virginia (n−k), clients in N.Virginia,
/// k ∈ {0, f, f+1, n−f−1, n−f, n}.
fn fig9_geo2() -> Rows {
    grid([0usize, 10, 11, 20, 21, 31], &ProtocolKind::EVALUATED, |k, s| {
        let placement = split(31, k, Region::London, Region::NorthVirginia);
        let s = s.replicas(31).batch_size(100).clients(200).placement(placement);
        (format!("london={k}"), s.clients_in(Region::NorthVirginia).view_timer(ms(400)))
    })
}

/// The Fig. 10 deployment: n = 32 (f = 10), batch 100, `faulty` leaders
/// playing `fault`.
fn under_attack(s: Scenario, timer: u64, faulty: usize, fault: Fault) -> Scenario {
    s.replicas(32).batch_size(100).clients(400).view_timer(ms(timer)).faulty_leaders(faulty, fault)
}

/// Figure 10(a–d): leader-slowness — throughput and latency vs the number
/// of slow leaders (0..f, n = 32, batch 100), with view timers of 10 ms
/// and 100 ms. Slotted HotStuff-1 is run at both timer settings (the
/// paper's "10ms-slotting" / "100ms-slotting" series).
fn fig10_slowness() -> Rows {
    let xs = cross(&[10u64, 100], &[0usize, 1, 4, 7, 10]);
    grid(xs, &ProtocolKind::EVALUATED, |(timer, slow), s| {
        (format!("timer={timer}ms slow={slow}"), under_attack(s, timer, slow, Fault::SlowLeader))
    })
}

/// Figure 10(e,f): tail-forking attack — throughput and latency vs the
/// number of faulty leaders (0..f, n = 32). A faulty leader of view v
/// ignores the certificate of view v−1 and extends the certificate of
/// view v−2 (Example 6.2); slotted HotStuff-1's carry blocks bound the
/// damage to the attacker's own view.
fn fig10_tailfork() -> Rows {
    grid([0usize, 1, 4, 7, 10], &ProtocolKind::EVALUATED, |faulty, s| {
        (format!("faulty={faulty}"), under_attack(s, 10, faulty, Fault::TailFork))
    })
}

/// Figure 10(g,h): rollback attack — throughput and latency vs the number
/// of faulty leaders (0..f, n = 32), each equivocating to force up to f
/// correct replicas to speculate on a doomed branch and roll back
/// (Appendix A.2). Slotted HotStuff-1 confines the attack to the last
/// slot of the previous view.
fn fig10_rollback() -> Rows {
    let protocols =
        [ProtocolKind::HotStuff2, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted];
    grid([0usize, 1, 4, 7, 10], &protocols, |faulty, s| {
        // Victims: the f correct replicas with the highest ids (never
        // overlapping the faulty leader set, which starts at id 1).
        let victims = (22..32).map(ReplicaId).collect();
        (format!("faulty={faulty}"), under_attack(s, 10, faulty, Fault::RollbackAttack { victims }))
    })
}

/// §7 "Baselines" half-phase ladder: HotStuff needs 7 half-phases to
/// consensus, HotStuff-2 needs 5, HotStuff-1 needs 3 (speculative
/// response). The check verifies the declared ladder and measures the
/// corresponding latency ratio on a uniform-latency network.
fn halfphase_ladder() -> Rows {
    [ProtocolKind::HotStuff, ProtocolKind::HotStuff2, ProtocolKind::HotStuff1]
        .into_iter()
        .map(|p| {
            // Light load isolates protocol latency from queueing.
            let s = Scenario::new(p).replicas(31).batch_size(100).clients(100);
            (format!("halfphases={}", p.half_phases()), standard(s))
        })
        .collect()
}

fn halfphase_ladder_check(rows: &[(String, Report)]) {
    let [hs, hs2, hs1] = *rows.iter().map(|(_, r)| r.mean_latency_ms).collect::<Vec<_>>() else {
        panic!("one row per rung, got {}", rows.len());
    };
    // The ladder must be strictly decreasing: HS > HS2 > HS1.
    assert!(hs > hs2, "HotStuff slower than HotStuff-2");
    assert!(hs2 > hs1, "HotStuff-2 slower than HotStuff-1");
    println!(
        "  HotStuff-1 latency reduction: {:.1}% vs HotStuff (paper: 41.5%), \
         {:.1}% vs HotStuff-2 (paper: 24.2%)",
        100.0 * (hs - hs1) / hs,
        100.0 * (hs2 - hs1) / hs2
    );
}

/// Chaos degradation curve: throughput and latency vs per-link message
/// loss (duplication and reordering riding along at half the drop cap),
/// for the three HotStuff-1 engines and the HotStuff-2 baseline. The
/// figure shows how gracefully each commit rule sheds load as the
/// network decays — speculation needs `n − f` matching responses, so
/// HotStuff-1's early-finality path feels loss first while the
/// `f + 1`-committed fallback keeps finality moving.
fn fig_chaos() -> Rows {
    let protocols = [
        ProtocolKind::HotStuff2,
        ProtocolKind::HotStuff1Basic,
        ProtocolKind::HotStuff1,
        ProtocolKind::HotStuff1Slotted,
    ];
    // Link faults only: the adversary/bit-rot/skew axes are disabled
    // so the loss axis stays apples-to-apples run-over-run (the
    // adversary absorption cost has its own figure, fig_adversary).
    let links = |loss_pct: u32| {
        ChaosConfig {
            drop_p: loss_pct as f64 / 100.0,
            dup_p: loss_pct as f64 / 200.0,
            reorder_p: loss_pct as f64 / 200.0,
            reorder_delay: ms(5),
            partitions: 0,
            crashes: 0,
            ..ChaosConfig::default()
        }
        .without_new_axes()
    };
    let mut xs: Vec<(String, u64, ChaosConfig)> =
        [0u32, 1, 2, 5, 10].map(|loss| (format!("loss={loss}%"), 7, links(loss))).into();
    // One row with the full fault mix (partition + crash-restart) so the
    // CSV also tracks recovery overhead run-over-run.
    xs.push(("full-mix".to_string(), 11, ChaosConfig::default()));
    grid(&xs, &protocols, |(tag, seed, cfg), s| {
        let s = s.replicas(4).batch_size(32).clients(64).seed(*seed);
        let plan = ChaosPlan::generate(*seed, cfg, 4, s.chaos_horizon());
        (tag.clone(), s.chaos(plan))
    })
}

/// Adversary absorption cost: throughput/latency of the three HotStuff-1
/// engines with one Byzantine backup playing each in-model strategy,
/// against the honest baseline. The protocols must *absorb* every ≤ f
/// adversary (the oracles gate each run), so this figure measures what
/// the absorption costs — equivocal votes burn leader tally work,
/// withheld votes shrink the quorum margin, stale certificates churn the
/// pacemaker, and corrupt fetch bodies delay catch-up after every loss.
fn fig_adversary() -> Rows {
    let backups = std::iter::once(None).chain(AdversaryStrategy::IN_MODEL.map(Some));
    let engine = |p| {
        grid(backups.clone(), &[p], |backup, s| {
            let s = s.replicas(4).batch_size(32).clients(64).seed(17);
            match backup {
                None => ("honest".to_string(), s),
                Some(strategy) => (strategy.name().to_string(), s.with_adversary(1, strategy)),
            }
        })
    };
    [ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted]
        .into_iter()
        .flat_map(engine)
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// A sweep's labels key its CSV rows: each must be there, once.
    fn assert_unique_labels(figure: &str, rows: &Rows) {
        assert!(!rows.is_empty(), "{figure} sweeps nothing");
        let labels: HashSet<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), rows.len(), "{figure}: duplicate sweep label");
    }

    #[test]
    fn names_and_sweep_labels_are_unique() {
        let names: HashSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        for fig in &FIGURES {
            assert!(!fig.name.is_empty() && !fig.title.is_empty());
            if let Run::Sweep(rows) = fig.run {
                assert_unique_labels(fig.name, &rows());
            }
        }
        assert_unique_labels("halfphase_ladder", &halfphase_ladder());
    }

    #[test]
    fn halfphase_ladder_passes_its_own_check_on_a_short_window() {
        let rows: Vec<(String, Report)> =
            halfphase_ladder().into_iter().map(|(l, s)| (l, s.sim_seconds(0.2).run())).collect();
        assert_eq!(rows.len(), 3);
        halfphase_ladder_check(&rows);
    }
}
