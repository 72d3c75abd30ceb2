//! `chaos_sweep` — the CI chaos gate.
//!
//! Sweep mode (default): run N seeded fault schedules (drops, duplicates,
//! reordering, a partition/heal cycle, a crash-restart window) against
//! the chosen protocols, checking the strengthened safety/liveness
//! invariants after every run. On failure the schedule is shrunk to the
//! minimal failing plan and the exact replay command is printed before
//! exiting non-zero.
//!
//! ```text
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- --seeds 64
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- \
//!     --replay 'hs1:v1;seed=7;n=4;...'        # byte-identical re-run
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- \
//!     --replay 'hs1:...' --trace /tmp/run.jsonl   # + structured trace dump
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- \
//!     --replay 'hs1:...' --metrics /tmp/run.csv   # + counter/gauge snapshot
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- \
//!     --replay 'hs1:...' --trace-dir /tmp/run     # per-replica + merged
//!                                                 # cluster trace, critical-
//!                                                 # path CSV, Perfetto JSON
//! cargo run --release -p hs1-chaos --bin chaos_sweep -- \
//!     --seeds 4 --inject rollback             # prove the gate trips
//! ```
//!
//! `--trace-dir` doubles as the critical-path canary: the replay fails
//! (exit 1) unless every finalized block gets an attributed critical
//! path whose hop durations telescope exactly to its end-to-end latency.

#![warn(unreachable_pub)]

use hs1_chaos::{parse_replay, parse_sim_seconds, replay_command, sweep, ChaosCase, Inject};
use hs1_obs::{Clock, Obs};
use hs1_sim::chaos::ChaosConfig;
use hs1_sim::ProtocolKind;

struct Args {
    seeds: u64,
    start: u64,
    sim_seconds: f64,
    protocols: Vec<ProtocolKind>,
    inject: Inject,
    replay: Option<String>,
    /// Replay mode: dump the run's deterministic JSONL trace here.
    trace: Option<String>,
    /// Replay mode: dump the run's `MetricsSnapshot` CSV here.
    metrics: Option<String>,
    /// Replay mode: record per-replica traces into this directory and
    /// emit the merged cluster timeline, critical-path attribution CSV,
    /// and Perfetto export (plus canary validation of the paths).
    trace_dir: Option<String>,
    config: ChaosConfig,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos_sweep [--seeds N] [--start K] [--sim-seconds F] \
         [--protocols hs,hs2,hs1,basic,slotted] \
         [--config default|lossy|events|legacy] [--inject none|halt|rollback|forge] \
         [--replay '<protocol>:<plan-spec>'] [--trace PATH] [--metrics PATH] \
         [--trace-dir DIR] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 16,
        start: 0,
        sim_seconds: 1.0,
        protocols: ProtocolKind::ALL.to_vec(),
        inject: Inject::None,
        replay: None,
        trace: None,
        metrics: None,
        trace_dir: None,
        config: ChaosConfig::default(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--seeds" => args.seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--start" => args.start = val("--start").parse().unwrap_or_else(|_| usage()),
            "--sim-seconds" => {
                args.sim_seconds =
                    parse_sim_seconds(&val("--sim-seconds")).unwrap_or_else(|| usage())
            }
            "--protocols" => {
                args.protocols = val("--protocols")
                    .split(',')
                    .map(|t| ProtocolKind::from_token(t).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--inject" => args.inject = Inject::parse(&val("--inject")).unwrap_or_else(|| usage()),
            "--replay" => args.replay = Some(val("--replay")),
            "--trace" => args.trace = Some(val("--trace")),
            "--metrics" => args.metrics = Some(val("--metrics")),
            "--trace-dir" => args.trace_dir = Some(val("--trace-dir")),
            "--config" => {
                args.config = match val("--config").as_str() {
                    "default" => ChaosConfig::default(),
                    "lossy" => ChaosConfig::lossy_only(),
                    "events" => ChaosConfig::events_only(),
                    // Pre-adversary axis set (drops/dups/reorder/
                    // partitions/crashes only) for bisecting regressions.
                    "legacy" => ChaosConfig::default().without_new_axes(),
                    _ => usage(),
                }
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.protocols.is_empty() || args.seeds == 0 {
        usage();
    }
    args
}

fn replay(args: &Args, spec: &str) -> ! {
    let (protocol, plan) = match parse_replay(spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad --replay spec: {e}");
            std::process::exit(2);
        }
    };
    let case = ChaosCase { protocol, plan, sim_seconds: args.sim_seconds, inject: args.inject };
    println!("replaying {} under {}", case.plan, case.protocol.name());
    let mut scenario = case.scenario();
    let cluster_n = scenario.n;
    let mut recorder = None;
    let mut fanout = None;
    if let Some(dir) = &args.trace_dir {
        // Per-replica fan-out over the same sim-driven manual clock:
        // each replica's JSONL lands in DIR, and the merge back into one
        // cluster timeline is byte-identical across replays of the spec.
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create --trace-dir {}: {e}", dir.display());
            std::process::exit(2);
        }
        let (s, fan) = scenario.record_cluster();
        scenario = s;
        fan.lock().unwrap().set_trace_dir(&dir);
        fanout = Some((fan, dir));
    } else if args.trace.is_some() || args.metrics.is_some() {
        // A recording observer over the sim-driven manual clock: the
        // dumped JSONL is byte-identical across replays of the same spec
        // (and so are the snapshot's counter/gauge rows).
        let (obs, rec) = Obs::recording(Clock::manual());
        if let Some(path) = &args.trace {
            rec.lock().unwrap().set_trace_path(path.into());
        }
        scenario = scenario.with_observer(obs);
        recorder = Some(rec);
    }
    let report = scenario.run();
    println!("  {}", report.row());
    println!(
        "  chaos: dropped={} dup={} reordered={} partitions={} crashes={} restarts={} \
         snapshot-syncs={} replays={} adversaries={} bitrot={} failstops={} rotations={} stuck={}",
        report.chaos.dropped_msgs,
        report.chaos.duplicated_msgs,
        report.chaos.reordered_msgs,
        report.chaos.partitions,
        report.chaos.crashes,
        report.chaos.restarts,
        report.chaos.snapshot_syncs,
        report.chaos.replay_catchups,
        report.chaos.adversaries,
        report.chaos.bitrot_events,
        report.chaos.bitrot_failstops,
        report.chaos.snapshot_rotations,
        report.chaos.stuck_syncs,
    );
    println!("  views: {:?}  chain-lens: {:?}", report.replica_views, report.replica_chain_lens);
    println!("  fingerprint: {:#018x}", report.fingerprint);
    report.ensure_invariants("replay");
    println!("  invariants hold");
    if let Some(rec) = recorder {
        let mut rec = rec.lock().unwrap();
        if let Some(path) = &args.trace {
            if let Err(e) = rec.flush_to_path() {
                eprintln!("failed to write trace {path}: {e}");
                std::process::exit(1);
            }
            let snapshot = rec.snapshot();
            println!(
                "  trace: {} events, {} metric rows -> {path}",
                rec.trace().len(),
                snapshot.rows.len()
            );
        }
        if let Some(path) = &args.metrics {
            let snapshot = rec.snapshot();
            if let Err(e) = std::fs::write(path, snapshot.to_csv()) {
                eprintln!("failed to write metrics {path}: {e}");
                std::process::exit(1);
            }
            println!("  metrics: {} rows -> {path}", snapshot.rows.len());
        }
    }
    if let Some((fan, dir)) = fanout {
        let mut fan = fan.lock().unwrap();
        // Write the per-replica JSONL files (replica-<i>.jsonl +
        // harness.jsonl) that set_trace_dir configured.
        hs1_obs::Observer::flush(&mut *fan);
        let merged = fan.merged();
        let quorum = cluster_n - (cluster_n - 1) / 3;
        let paths = hs1_obs::critical_path::analyze(&merged.events, quorum);
        let finalized = hs1_obs::critical_path::finalized_blocks(&merged.events);

        let write = |name: &str, body: String| {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        write("cluster.jsonl", merged.to_jsonl());
        write("critical_path.csv", hs1_obs::attribution_csv(&paths));
        write("trace.perfetto.json", hs1_obs::perfetto::chrome_trace_json(&merged.events));
        if let Some(path) = &args.metrics {
            let snapshot = fan.snapshot();
            if let Err(e) = std::fs::write(path, snapshot.to_csv()) {
                eprintln!("failed to write metrics {path}: {e}");
                std::process::exit(1);
            }
            println!("  metrics: {} rows -> {path}", snapshot.rows.len());
        }
        println!(
            "  cluster trace: {} events across {} replica lanes -> {}",
            merged.events.len(),
            fan.n(),
            dir.join("cluster.jsonl").display()
        );
        println!(
            "  critical path: {} blocks attributed ({} finalized), hops telescope exactly",
            paths.len(),
            finalized
        );
        println!("  perfetto: {}", dir.join("trace.perfetto.json").display());

        // Canary: every finalized block must get an attributed critical
        // path, and each path's hop durations must telescope exactly to
        // its end-to-end latency. Runs after the artifacts are written so
        // a failure leaves the trace on disk for inspection.
        if paths.len() < finalized {
            eprintln!(
                "CRITICAL-PATH CANARY FAILED: {} finalized blocks but only {} attributed paths",
                finalized,
                paths.len()
            );
            std::process::exit(1);
        }
        for p in &paths {
            let hop_sum: u64 = (0..5).map(|i| p.hop_ns(i)).sum();
            if hop_sum != p.e2e_ns() {
                eprintln!(
                    "CRITICAL-PATH CANARY FAILED: block {:#018x} hops sum to {hop_sum}ns \
                     but e2e is {}ns",
                    p.block,
                    p.e2e_ns()
                );
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(spec) = &args.replay {
        replay(&args, spec);
    }

    let cells = args.seeds * args.protocols.len() as u64;
    println!(
        "chaos sweep: {} seeds x {} protocols = {cells} runs ({}s sim each, n=4)",
        args.seeds,
        args.protocols.len(),
        args.sim_seconds,
    );
    let started = std::time::Instant::now();
    let quiet = args.quiet;
    // Per protocol, in sweep order: snapshot syncs, replays, rotations,
    // replicas still syncing at run end.
    let mut totals: Vec<(ProtocolKind, [u64; 4])> =
        args.protocols.iter().map(|&p| (p, [0; 4])).collect();
    let result = sweep(
        &args.protocols,
        args.start,
        args.seeds,
        &args.config,
        4,
        args.sim_seconds,
        args.inject,
        |case, report| {
            let c = &report.chaos;
            let counts = [c.snapshot_syncs, c.replay_catchups, c.snapshot_rotations, c.stuck_syncs];
            if let Some((_, t)) = totals.iter_mut().find(|(p, _)| *p == case.protocol) {
                t.iter_mut().zip(counts).for_each(|(t, c)| *t += c);
            }
            if !quiet {
                println!(
                    "  seed={:<4} {:<10} tput={:>8.0} tx/s dropped={:<5} dup={:<4} crashes={} \
                     snap={} replays={} rotations={} stuck={} adv={} bitrot={} ok={}",
                    case.plan.seed,
                    case.protocol.token(),
                    report.throughput_tps,
                    c.dropped_msgs,
                    c.duplicated_msgs,
                    c.crashes,
                    c.snapshot_syncs,
                    c.replay_catchups,
                    c.snapshot_rotations,
                    c.stuck_syncs,
                    c.adversaries,
                    c.bitrot_events,
                    report.invariants_ok(),
                );
            }
        },
    );
    for (p, [snap, replays, rotations, stuck]) in &totals {
        println!(
            "  totals {:<10} snapshot-syncs={snap} replays={replays} rotations={rotations} \
             stuck={stuck}",
            p.token()
        );
    }
    match result {
        Ok(passed) => {
            println!(
                "all {passed} chaos runs passed in {:.1}s wall",
                started.elapsed().as_secs_f64()
            );
        }
        Err(failure) => {
            eprintln!("\nCHAOS FAILURE under {}:", failure.case.protocol.name());
            for v in &failure.report.invariant_violations {
                eprintln!("  - {v}");
            }
            eprintln!("  seed     : {}", failure.case.plan.seed);
            eprintln!("  plan     : {}", failure.case.plan);
            eprintln!("  shrunk   : {} ({} runs)", failure.minimized.plan, failure.shrink_runs);
            eprintln!("  fingerprint: {:#018x}", failure.report.fingerprint);
            eprintln!("\nreplay the original:\n  {}", replay_command(&failure.case));
            eprintln!("\nreplay the minimized schedule:\n  {}", replay_command(&failure.minimized));
            std::process::exit(1);
        }
    }
}
