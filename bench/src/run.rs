//! One workload, start to finish: boot, drive, check, measure.
//!
//! The timeline of a run, all on one clock (`epoch`):
//!
//! ```text
//! probe boots │ boot ── warm-up (3 s) ──┤ measured window ├── drain (≤ 2 s) ── join
//! └──────────── setup_s ────────────────┘m0  …segments…    mN
//! ```
//!
//! `NodeRunner::run_for` takes a duration and cannot be stopped early, so
//! every instant after a boot is fixed before its replicas start. The
//! main thread only sleeps from mark to mark, reading `/proc` at each;
//! in a traced run it also flips span recording at each mark, so that one
//! boot gives untraced segments (even) and traced segments (odd).
//!
//! `setup_s` is the time from the start of the run to `m0`, the first
//! measured request's due time. Building and connecting a cluster takes
//! half a millisecond, far too little to time once, so it is done
//! [`PROBE_BOOTS`] times over before the boot that is measured: work moved
//! into boot costs `setup_s` thirty-two times what it costs one boot.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hs1_net::mesh::NetStatsSnapshot;

use crate::cluster::{Cluster, ClusterSpec, NodeReport, N};
use crate::json::Json;
use crate::lab;
use crate::loadgen::{ClientConn, Load, LoadGen, LoadReport, Schedule, UNSET};
use crate::metrics::Workload;
use crate::procfs::{self, CpuSnapshot};
use crate::stats::{median, percentile_of, Windows, SEC_NS};
use crate::stream::{request_of, RequestStream};
use crate::trace::{Span, Tracer};

/// Throwaway boots before the measured one.
const PROBE_BOOTS: usize = 31;
/// How long a probe boot's replicas live: long enough to be dialed.
const PROBE_NS: u64 = SEC_NS / 40;
/// From boot to the start of the measured window.
const WARMUP_NS: u64 = 3 * SEC_NS;
/// How long stragglers are waited for after sending stops.
const DRAIN_NS: u64 = 2 * SEC_NS;
/// A traced run alternates this many untraced/traced segments.
const TRACE_SEGMENTS: u64 = 4;
/// Resident memory is sampled this often across the window.
const RSS_EVERY_NS: u64 = SEC_NS / 10;
/// How much of the recorded spans the span file keeps.
const SPAN_TAIL_NS: u64 = SEC_NS / 4;
/// The traced correctness check skips transactions decided this close to
/// shutdown: their block may not have reached commit at replica 0 yet.
const COMMIT_GRACE_NS: u64 = SEC_NS;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where journals and span files go.
    pub out_dir: PathBuf,
}

/// What one run produced.
pub struct Outcome {
    /// Requests due (open loop) or sent (closed loop) inside the window.
    pub attempted: u64,
    /// Of those, how many were not final when the drain ended, although
    /// the client submitted them again.
    pub failed: u64,
    /// Correctness violations; empty means the outputs were correct.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-second series over the measured window.
    pub series: Json,
}

/// One boot's raw observations.
struct Driven {
    /// Boot to a dialed cluster, in seconds.
    boot_s: f64,
    /// When the replicas stopped.
    deadline_ns: u64,
    load: LoadReport,
    nodes: Vec<NodeReport>,
    /// `/proc` CPU readings, one per mark.
    cpu: Vec<CpuSnapshot>,
    /// `VmRSS` in MiB, sampled every [`RSS_EVERY_NS`] between the first
    /// mark and the last.
    rss_mb: Vec<f64>,
}

/// One boot: from nothing to four constructed replicas (engine built,
/// listener bound, storage opened) with the client connected and
/// identified to each. The replicas run until `deadline_ns`.
fn boot(
    spec: &ClusterSpec,
    epoch: Instant,
    deadline_ns: u64,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Cluster, ClientConn, f64), String> {
    let t0 = Instant::now();
    let deadline = epoch + Duration::from_nanos(deadline_ns);
    let cluster = Cluster::boot(spec, deadline, tracer).map_err(|e| format!("boot: {e}"))?;
    let conn =
        ClientConn::dial(N, cluster.base_port).map_err(|e| format!("dial the replicas: {e}"))?;
    Ok((cluster, conn, t0.elapsed().as_secs_f64()))
}

/// Boot a cluster and drive it. Sending starts at once and stops at the
/// last of `marks_ns` (instants since `epoch`, ascending).
fn drive(
    spec: &ClusterSpec,
    load: Load,
    speculative: bool,
    seed: u64,
    epoch: Instant,
    marks_ns: &[u64],
    tracer: Option<Arc<Tracer>>,
) -> Result<Driven, String> {
    let stop_ns = *marks_ns.last().expect("at least one mark");
    let drain_ns = stop_ns + DRAIN_NS;
    let deadline_ns = drain_ns + SEC_NS / 20;
    let (cluster, conn, boot_s) = boot(spec, epoch, deadline_ns, tracer.clone())?;
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let schedule = Schedule { epoch, start_ns, stop_ns, drain_ns };
    let generator = LoadGen::start(conn, RequestStream::new(seed), load, schedule, speculative)
        .map_err(|e| format!("start the load generator: {e}"))?;
    let mut cpu = Vec::with_capacity(marks_ns.len());
    let mut rss_mb = Vec::new();
    for (i, &mark) in marks_ns.iter().enumerate() {
        let mut next_sample = schedule.now_ns();
        while i > 0 && next_sample < mark {
            schedule.sleep_until(next_sample);
            rss_mb.push(procfs::rss_mb());
            next_sample += RSS_EVERY_NS;
        }
        schedule.sleep_until(mark);
        cpu.push(procfs::cpu_snapshot());
        if let Some(tracer) = &tracer {
            tracer.record_spans(i % 2 == 1 && i + 1 < marks_ns.len());
        }
    }
    let load = generator.join();
    let nodes = cluster.join()?;
    Ok(Driven { boot_s, deadline_ns, load, nodes, cpu, rss_mb })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let host_before = procfs::host_cpu();
    let speculative = w.protocol.client_needs_nf_quorum();
    let store_root = args.out_dir.join(format!("{}-store", w.name));
    let spec_for = |boot: usize| -> Result<ClusterSpec, String> {
        let storage_dir = w.durable.then(|| store_root.join(format!("boot{boot}")));
        if let Some(dir) = &storage_dir {
            // A journal left by an earlier run would be recovered from.
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        Ok(ClusterSpec {
            protocol: w.protocol,
            storage_dir,
            silent: w.silent_replica.then_some(N as u32 - 1),
        })
    };

    // Set-up, several times.
    let mut boot_s = Vec::with_capacity(PROBE_BOOTS + 1);
    for probe in 0..PROBE_BOOTS {
        let (cluster, conn, took) = boot(&spec_for(probe)?, epoch, now_ns() + PROBE_NS, None)?;
        boot_s.push(took);
        drop(conn);
        cluster.join()?;
    }

    // The measured boot.
    let window_ns = args.seconds * SEC_NS;
    let m0 = now_ns() + WARMUP_NS;
    let segments = if args.trace { TRACE_SEGMENTS } else { 1 };
    let marks: Vec<u64> = (0..=segments).map(|i| m0 + window_ns * i / segments).collect();
    let tracer = args.trace.then(|| Tracer::new(epoch, N));
    let spec = spec_for(PROBE_BOOTS)?;
    let driven = drive(&spec, w.load, speculative, args.seed, epoch, &marks, tracer.clone())?;
    let _ = std::fs::remove_dir_all(&store_root);
    boot_s.push(driven.boot_s);

    let mut out = analyze(w, &driven, &marks, tracer.as_deref());
    out.metrics.insert("setup_s", m0 as f64 / 1e9);
    out.metrics.insert("boot_ms_p50", median(&boot_s) * 1e3);
    out.metrics.insert("peak_rss_mb", procfs::peak_rss_mb());
    out.metrics.insert("rss_mb", per(driven.rss_mb.iter().sum(), driven.rss_mb.len() as u64));
    out.metrics.insert("host.steal_frac", procfs::steal_frac(host_before, procfs::host_cpu()));
    if let Some(tracer) = &tracer {
        let path = args.out_dir.join(format!("{}.spans.jsonl", w.name));
        write_spans(&path, tracer, &driven.load).map_err(|e| format!("{}: {e}", path.display()))?;
        lab::run(&args.out_dir.join("lab"), args.seed, &mut out.metrics)?;
        budget(&mut out.metrics);
    }
    Ok(out)
}

/// Sum of transport counters over the replicas.
fn net_totals(nodes: &[NodeReport]) -> NetStatsSnapshot {
    let mut t = NetStatsSnapshot::default();
    for n in nodes {
        t.tx_frames += n.net.tx_frames;
        t.tx_bytes += n.net.tx_bytes;
        t.write_calls += n.net.write_calls;
        t.rx_frames += n.net.rx_frames;
        t.rx_bytes += n.net.rx_bytes;
        t.read_calls += n.net.read_calls;
        t.frames_shed += n.net.frames_shed;
        t.reconnects += n.net.reconnects;
    }
    t
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Is `t` inside one of the `[from, to)` ranges?
fn within(ranges: &[(u64, u64)], t: u64) -> bool {
    ranges.iter().any(|&(a, b)| a <= t && t < b)
}

fn analyze(w: &Workload, d: &Driven, marks: &[u64], tracer: Option<&Tracer>) -> Outcome {
    let load = &d.load;
    let (m0, m_end) = (marks[0], *marks.last().expect("marks"));
    let window_s = (m_end - m0) as f64 / 1e9;
    let secs = ((m_end - m0) / SEC_NS) as usize;
    let hz = procfs::ticks_per_sec();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut violations = Vec::new();

    // Segments: even ones run untraced, odd ones traced. An untraced
    // run is one even segment.
    let segs: Vec<(u64, u64)> = marks.windows(2).map(|p| (p[0], p[1])).collect();
    let off: Vec<(u64, u64)> = segs.iter().copied().step_by(2).collect();
    let on: Vec<(u64, u64)> = segs.iter().copied().skip(1).step_by(2).collect();
    let secs_of =
        |ranges: &[(u64, u64)]| ranges.iter().map(|&(a, b)| b - a).sum::<u64>() as f64 / 1e9;
    let finals_in = |ranges: &[(u64, u64)]| {
        load.final_ns.iter().filter(|&&t| t != UNSET && within(ranges, t)).count() as u64
    };

    // The measured set: requests due inside the window.
    let mut attempted = 0u64;
    let mut lost: Vec<usize> = Vec::new();
    let mut again: Vec<usize> = Vec::new();
    let mut first_try = 0u64;
    let mut lat_by_sec = Windows::new(m0, secs);
    let mut done_by_sec = Windows::new(m0, secs);
    let mut lat_all: Vec<u64> = Vec::new();
    let mut first_reply: Vec<u64> = Vec::new();
    let mut quorum_wait: Vec<u64> = Vec::new();
    let mut late: Vec<u64> = Vec::new();
    let (mut multi_group, mut conflicts, mut diverged, mut dup_final) = (0u64, 0u64, 0u64, 0u64);
    for seq in 0..load.issued() {
        let due = load.due_ns(seq);
        let done = load.final_ns[seq];
        if done != UNSET {
            done_by_sec.add(done, 1);
        }
        if due < m0 || due >= m_end {
            continue;
        }
        attempted += 1;
        late.push(load.sent_ns[seq].saturating_sub(due));
        let slot = &load.slots[seq];
        dup_final += slot.redecided() as u64;
        diverged += slot.diverged() as u64;
        let resubmitted = load.resubmitted.binary_search(&(seq as u64)).is_ok();
        if resubmitted {
            again.push(seq);
        }
        first_try += (!resubmitted && done != UNSET) as u64;
        if done == UNSET {
            lost.push(seq);
            continue;
        }
        multi_group += (slot.distinct_groups() != 1) as u64;
        conflicts += slot.conflict() as u64;
        let lat = done.saturating_sub(due);
        lat_by_sec.add(due, lat);
        lat_all.push(lat);
        let first = load.first_reply_ns[seq];
        first_reply.push(first.saturating_sub(due));
        quorum_wait.push(done.saturating_sub(first));
    }
    let failed = lost.len() as u64;
    let done_series = done_by_sec.counts();
    let lat_series = lat_by_sec.medians();

    // End to end.
    let finals_window = finals_in(&[(m0, m_end)]);
    let goodput = match w.load {
        Load::Closed { .. } => median(&done_series),
        Load::Open { .. } => (attempted - failed) as f64 / window_s,
    };
    metrics.insert("goodput_tps", goodput);
    metrics.insert("lat_p50_ms", median(&lat_series) / 1e6);
    metrics.insert("finalized_frac", per(first_try as f64, attempted));
    let cpu_window = d.cpu[d.cpu.len() - 1].since(d.cpu[0]);
    metrics.insert("cpu_us_per_tx", per(cpu_window.sut().micros(hz), finals_window));

    // The client's view of the tail, and of itself.
    metrics.insert("client.lat_p99_ms", percentile_of(&mut lat_all, 0.99) / 1e6);
    metrics.insert("client.lat_p999_ms", percentile_of(&mut lat_all, 0.999) / 1e6);
    metrics.insert("client.first_reply_us_p50", percentile_of(&mut first_reply, 0.5) / 1e3);
    metrics.insert("client.quorum_wait_us_p50", percentile_of(&mut quorum_wait, 0.5) / 1e3);
    metrics.insert("client.sched_late_us_p99", percentile_of(&mut late, 0.99) / 1e3);
    metrics.insert("client.dup_final", dup_final as f64);
    metrics.insert("client.resubmitted", again.len() as f64);

    // CPU by thread class, over the untraced segments.
    let cpu_off = (0..segs.len())
        .step_by(2)
        .fold(CpuSnapshot::default(), |sum, i| sum.plus(d.cpu[i + 1].since(d.cpu[i])));
    let finals_off = finals_in(&off);
    metrics.insert("core.engine_cpu_us_per_tx", per(cpu_off.engine.micros(hz), finals_off));
    metrics.insert("core.engine_sys_frac", cpu_off.engine.sys_frac());
    metrics.insert("net.reactor_cpu_us_per_tx", per(cpu_off.reactor.micros(hz), finals_off));
    metrics.insert("net.reactor_sys_frac", cpu_off.reactor.sys_frac());
    metrics.insert("client.cpu_us_per_tx", per(cpu_off.loadgen.micros(hz), finals_off));

    // Transport counters: whole-run totals over whole-run finalities.
    let net = net_totals(&d.nodes);
    let finals_run = load.final_ns.iter().filter(|&&t| t != UNSET).count() as u64;
    metrics.insert("net.frames_per_tx", per(net.tx_frames as f64, finals_run));
    metrics.insert("net.bytes_per_tx", per(net.tx_bytes as f64, finals_run));
    metrics.insert("net.write_calls_per_tx", per(net.write_calls as f64, finals_run));
    metrics.insert("net.read_calls_per_tx", per(net.read_calls as f64, finals_run));
    metrics.insert("net.frames_per_writev", per(net.tx_frames as f64, net.write_calls));
    metrics.insert("net.frames_shed", net.frames_shed as f64);
    metrics.insert("net.reconnects", net.reconnects as f64);

    // Correctness the client can judge alone.
    if diverged > 0 {
        violations.push(format!(
            "{diverged} transactions drew different results from different replicas for one block"
        ));
    }
    // Not violations, but worth a line: a block that is proposed, answered
    // by a replica or two and then orphaned leaves a second group behind;
    // a transaction two leaders both proposed gathers two quorums (it is
    // then executed twice — an open question in the README).
    if multi_group > 0 {
        eprintln!("note: {multi_group} final transactions also drew replies naming another block");
    }
    if conflicts > 0 {
        eprintln!("note: {conflicts} transactions gathered a quorum in each of two blocks");
    }
    if load.stray > 0 {
        violations.push(format!("{} replies for requests never sent", load.stray));
    }
    if load.dead_sockets > 0 {
        violations
            .push(format!("{} replica connections closed under the client", load.dead_sockets));
    }
    if d.nodes.iter().filter(|n| n.committed_blocks == 0).count() > w.silent_replica as usize {
        violations.push("an honest replica committed nothing".into());
    }
    report_ranges("resubmitted", &again, load, m0);
    report_ranges("unfinalized", &lost, load, m0);

    if let Some(tracer) = tracer {
        let finals_on = finals_in(&on);
        let (on_s, off_s) = (secs_of(&on), secs_of(&off));
        let overhead = 1.0 - per(finals_on as f64 / on_s * off_s, finals_off);
        metrics.insert("bench.trace_overhead_frac", overhead);
        trace_metrics(tracer, &on, on_s, finals_on, &mut metrics);
        check_commits(tracer, w, load, d, &mut violations);
    }

    let series = Json::obj([
        ("finalized_per_s", Json::nums(done_series)),
        ("lat_p50_ms_per_s", Json::nums(lat_series.iter().map(|ns| ns / 1e6))),
    ]);
    Outcome { attempted, failed, violations, metrics, series }
}

/// Print the sequence ranges that had to be submitted again, or never
/// became final, and the second of the window each was due in.
fn report_ranges(what: &str, seqs: &[usize], load: &LoadReport, m0: u64) {
    let mut i = 0;
    while i < seqs.len() {
        let mut j = i;
        while j + 1 < seqs.len() && seqs[j + 1] == seqs[j] + 1 {
            j += 1;
        }
        let due_s = (load.due_ns(seqs[i]) - m0) as f64 / 1e9;
        eprintln!(
            "{what}: seq {}..={} ({} txs), due at +{due_s:.3} s",
            seqs[i],
            seqs[j],
            j - i + 1
        );
        i = j + 1;
    }
}

/// Per-layer numbers from the spans and events of the traced segments.
fn trace_metrics(
    tracer: &Tracer,
    on: &[(u64, u64)],
    on_s: f64,
    finals_on: u64,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let (mut steps, mut step_ns, mut persist_ns, mut actions) = (0u64, 0u64, 0u64, 0u64);
    let (mut journal_bytes, mut view_timeouts, mut rollbacks) = (0u64, 0u64, 0u64);
    for replica in 0..tracer.replicas() {
        let log = tracer.log(replica);
        for span in &log.spans {
            let dur = span.dur_ns();
            if let Some(kind) = span.name.strip_prefix("step.") {
                steps += 1;
                step_ns += dur;
                actions += span.count as u64;
                let kind = if kind.starts_with("timer") { "timer" } else { kind };
                view_timeouts += (span.name == "step.timer.view" && span.count > 0) as u64;
                by_kind.entry(kind).or_default().push(dur);
            } else {
                persist_ns += dur;
                journal_bytes += span.count as u64;
                by_kind.entry(if syncs(span) { "sync" } else { span.name }).or_default().push(dur);
            }
        }
        rollbacks +=
            log.rollbacks.iter().filter(|r| within(on, r.0)).map(|r| r.1 as u64).sum::<u64>();
    }
    let mut p50_us =
        |kind: &str| by_kind.get_mut(kind).map_or(0.0, |v| percentile_of(v, 0.5) / 1e3);
    metrics.insert("core.propose_step_us_p50", p50_us("propose"));
    metrics.insert("core.vote_step_us_p50", p50_us("vote"));
    metrics.insert("core.newview_step_us_p50", p50_us("newview"));
    metrics.insert("core.request_step_us_p50", p50_us("request"));
    metrics.insert("core.timer_step_us_p50", p50_us("timer"));
    metrics.insert("storage.sync_us_p50", p50_us("sync"));
    metrics.insert("storage.on_commit_us_p50", p50_us("persist.on_commit"));
    metrics.insert("core.step_us_per_tx", per(step_ns as f64 / 1e3, finals_on));
    metrics.insert(
        "core.self_us_per_tx",
        per((step_ns - persist_ns.min(step_ns)) as f64 / 1e3, finals_on),
    );
    metrics.insert("core.steps_per_tx", per(steps as f64, finals_on));
    metrics.insert("core.actions_per_step", per(actions as f64, steps));
    metrics.insert("core.view_timeouts", view_timeouts as f64);
    metrics.insert("core.rollbacks", rollbacks as f64);
    metrics.insert("storage.persist_us_per_tx", per(persist_ns as f64 / 1e3, finals_on));
    metrics.insert("storage.journal_bytes_per_tx", per(journal_bytes as f64, finals_on));

    // The chain as replica 0 (always honest) saw it.
    let log = tracer.log(0);
    let views = log.views_ns.iter().filter(|&&t| within(on, t)).count();
    let commits: Vec<_> = log.commits.iter().filter(|c| within(on, c.at_ns)).collect();
    let blocks = commits.len() as u64;
    let txs: u64 = commits.iter().map(|c| c.txs as u64).sum();
    let empty = commits.iter().filter(|c| c.txs == 0).count();
    let synced = log.spans.iter().filter(|s| syncs(s)).count();
    metrics.insert("core.views_per_s", views as f64 / on_s);
    metrics.insert("core.blocks_per_s", blocks as f64 / on_s);
    metrics.insert("core.txs_per_block", per(txs as f64, blocks));
    metrics.insert("core.empty_block_frac", per(empty as f64, blocks));
    metrics.insert("storage.syncs_per_block", per(synced as f64, blocks));
}

/// Is this span a persistence call that ends in an fsync?
fn syncs(span: &Span) -> bool {
    matches!(
        span.name,
        "persist.on_view" | "persist.on_cert" | "persist.on_speculate" | "persist.sync"
    )
}

/// The two checks only a traced run can make: honest replicas commit one
/// chain, and what the client was told is what got committed.
fn check_commits(
    tracer: &Tracer,
    w: &Workload,
    load: &LoadReport,
    d: &Driven,
    violations: &mut Vec<String>,
) {
    let honest = tracer.replicas() - w.silent_replica as usize;
    let chains: Vec<Vec<u64>> =
        (0..honest).map(|r| tracer.log(r).commits.iter().map(|c| c.block).collect()).collect();
    let longest = chains.iter().max_by_key(|c| c.len()).expect("replicas");
    for (r, chain) in chains.iter().enumerate() {
        if !longest.starts_with(chain) {
            violations
                .push(format!("replica {r}'s committed chain is not a prefix of the longest"));
        }
    }

    // Prefix speculation on real sockets: a transaction the client took
    // as final in block B must be committed in B. (It may be committed in
    // a second block as well — see the open questions in the README —
    // which is reported but is not this check's business.)
    let log = tracer.log(0);
    let mut committed_in = vec![[0u64; 2]; load.issued()];
    let mut twice = 0u64;
    for &(block, seq) in &log.commit_seqs {
        let Some(at) = committed_in.get_mut(request_of(seq) as usize) else { continue };
        twice += (at[0] != 0) as u64;
        *at = [block, at[0]];
    }
    if twice > 0 {
        eprintln!("note: {twice} transactions were committed in two blocks");
    }
    let (mut wrong, mut missing) = (0u64, 0u64);
    for ((&done, slot), blocks) in load.final_ns.iter().zip(&load.slots).zip(&committed_in) {
        let Some(told) = slot.final_block() else { continue };
        if done == UNSET || done + COMMIT_GRACE_NS >= d.deadline_ns {
            continue;
        }
        match blocks {
            [0, _] => missing += 1,
            blocks if !blocks.contains(&told) => wrong += 1,
            _ => {}
        }
    }
    if wrong > 0 {
        violations.push(format!(
            "{wrong} final transactions were committed, but not in the block the client was told"
        ));
    }
    if missing > 0 {
        violations.push(format!("{missing} final transactions were never committed at replica 0"));
    }
}

/// Write the last [`SPAN_TAIL_NS`] of recorded spans, plus the client's
/// two spans for each transaction decided in that time, one JSON object
/// per line. (A whole run is over a million spans; all of them feed the
/// metrics, the tail is what a reader can open.)
fn write_spans(path: &Path, tracer: &Tracer, load: &LoadReport) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let last = (0..tracer.replicas())
        .filter_map(|r| tracer.log(r).spans.last().map(|s| s.start_ns))
        .max()
        .unwrap_or(0);
    let from = last.saturating_sub(SPAN_TAIL_NS);
    let line = |name: &str, start: u64, end: u64, parent: i64, replica: i64, block: u64| {
        Json::obj([
            ("name", Json::Str(name.into())),
            ("start_ns", Json::Num(start as f64)),
            ("end_ns", Json::Num(end as f64)),
            ("parent", Json::Num(parent as f64)),
            ("replica", Json::Num(replica as f64)),
            ("block", Json::Str(format!("{block:016x}"))),
        ])
        .encode()
    };
    for replica in 0..tracer.replicas() {
        let log = tracer.log(replica);
        for span in log.spans.iter().filter(|s| s.start_ns >= from) {
            // `parent` is the parent's index in this replica's full log,
            // -1 for a root; -1 as `replica` marks a client span.
            let parent = span.parent as i64 - 1;
            writeln!(
                file,
                "{}",
                line(span.name, span.start_ns, span.end_ns, parent, replica as i64, span.block)
            )?;
        }
    }
    for seq in 0..load.issued() {
        let (done, Some(block)) = (load.final_ns[seq], load.slots[seq].final_block()) else {
            continue;
        };
        if done < from || done > last {
            continue;
        }
        let (due, first) = (load.due_ns(seq), load.first_reply_ns[seq]);
        writeln!(file, "{}", line("client.submit_to_first_reply", due, first, -1, -1, block))?;
        writeln!(file, "{}", line("client.first_reply_to_quorum", first, done, -1, -1, block))?;
    }
    file.flush()
}

/// `budget.unattributed_frac`: the share of the engine and reactor CPU per
/// transaction that operation counts × lab unit costs do not explain.
///
/// The model (per finalized transaction, summed over replicas):
/// every frame is encoded once and reassembled once; a transaction is
/// decoded as a request at four replicas, carried in one proposal that is
/// built and encoded once and decoded at three; each `propose` step
/// verifies a three-share certificate and signs one vote, each `vote`
/// step verifies one share; four replicas execute the transaction and
/// hash one response. What is left over is what the lab has no row for:
/// syscalls, the reactor↔engine channel hop, mempool, allocation, the
/// pacemaker and the scheduler.
fn budget(m: &mut BTreeMap<&'static str, f64>) {
    let g = |name: &str| m.get(name).copied().unwrap_or(0.0);
    // Every view costs a proposal whether or not it carries transactions:
    // three backups check its certificate and vote, and the next leader
    // checks three votes.
    let views_per_tx =
        if g("goodput_tps") > 0.0 { g("core.views_per_s") / g("goodput_tps") } else { 0.0 };
    let per_view_ns = 3.0 * (3.0 * g("crypto.verify_ns") + g("crypto.sign_ns"))
        + 3.0 * g("crypto.verify_ns")
        + 4.0 * (g("types.decode_vote_ns") + g("types.encode_vote_ns"));
    let per_tx_ns = g("net.frames_per_tx")
        * (g("net.encode_frame_ns") + g("net.frame_reader_ns_per_frame"))
        + 4.0 * g("types.request_roundtrip_ns")
        + g("types.block_new_ns_per_tx")
        + g("types.encode_propose_ns_per_tx")
        + 3.0 * g("types.decode_propose_ns_per_tx")
        + 4.0 * (g("ledger.exec_spec_ns_per_tx") + g("crypto.hmac_64b_ns"));
    let explained_us = (per_tx_ns + per_view_ns * views_per_tx) / 1e3;
    let measured_us = g("core.engine_cpu_us_per_tx") + g("net.reactor_cpu_us_per_tx");
    let unattributed = if measured_us > 0.0 { 1.0 - explained_us / measured_us } else { 0.0 };
    m.insert("budget.unattributed_frac", unattributed);
}
