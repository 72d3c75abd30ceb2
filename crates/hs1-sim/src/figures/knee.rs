//! Offered-load knee curves: open-loop saturation sweep, HS1 vs HS2 at
//! the quickstart configuration (n=4, batch 32).
//!
//! Unlike the closed-loop figures (where clients reissue on finality and
//! throughput self-limits), this figure drives each protocol with a
//! seed-deterministic Poisson arrival process at a fixed offered load and
//! sweeps that load past saturation. Below the knee, goodput tracks the
//! offer and latency is flat; past it, the bounded mempool sheds load
//! (drop rate > 0), goodput plateaus at the service rate, and p99 latency
//! diverges as queue wait dominates.
//!
//! The figure also enforces the determinism contract on every lane's
//! mid-sweep point: two same-seed runs must produce byte-identical CSV
//! rows and equal fingerprints, and attaching a recording observer must
//! not change the fingerprint.

use hs1_obs::{Clock, Obs};

use super::{standard, FigureSink};
use crate::{OpenLoop, ProtocolKind, Report, Scenario};

const SEED: u64 = 42;

/// Offered loads swept at the quickstart config, tx/s. The batch-32
/// service rate sits near 50k tx/s, so the last points are past
/// saturation.
const LOADS: [f64; 8] =
    [4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0, 40_000.0, 48_000.0, 64_000.0];

/// The quickstart batch size.
const BATCH: usize = 32;

/// One lane per protocol: the headline HS1-vs-HS2 knee.
const LANES: [ProtocolKind; 2] = [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2];

/// The CSV's `lane` column: the arrival process.
const LANE: &str = "poisson";

fn scenario(lane: ProtocolKind, tps: f64, obs: Option<Obs>) -> Scenario {
    let mut s = Scenario::new(lane)
        .replicas(4)
        .batch_size(BATCH)
        .seed(SEED)
        .open_loop(OpenLoop::poisson(tps));
    if let Some(obs) = obs {
        s = s.with_observer(obs);
    }
    standard(s)
}

fn run_point(lane: ProtocolKind, tps: f64) -> Report {
    let r = scenario(lane, tps, None).run();
    r.ensure_invariants(&format!("fig_knee [{} {} @{tps}]", lane.name(), LANE));
    r
}

fn csv_row(lane: ProtocolKind, tps: f64, r: &Report) -> String {
    format!(
        "{},{},{:.0},{:.1},{:.1},{:.3},{:.3},{:.3},{},{},{},{:.4},{}",
        lane.name(),
        LANE,
        tps,
        r.offered_tps(),
        r.throughput_tps,
        r.mean_latency_ms,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.offered_txs,
        r.committed_txs,
        r.admission_drops,
        r.drop_rate(),
        r.requests_deduped,
    )
}

/// Determinism spot-check at one load point: same seed twice must be
/// byte-identical, and a recording observer must be pure.
fn check_determinism(lane: ProtocolKind, tps: f64, first: &Report, first_row: &str) {
    let again = run_point(lane, tps);
    assert_eq!(
        first.fingerprint,
        again.fingerprint,
        "{} {}: same seed, same fingerprint",
        lane.name(),
        LANE
    );
    assert_eq!(
        first_row,
        csv_row(lane, tps, &again),
        "{} {}: same seed, byte-identical CSV row",
        lane.name(),
        LANE
    );
    let (obs, _rec) = Obs::recording(Clock::manual());
    let watched = scenario(lane, tps, Some(obs)).run();
    assert_eq!(
        first.fingerprint,
        watched.fingerprint,
        "{} {}: attaching an observer changed the run",
        lane.name(),
        LANE
    );
}

/// Knee-shape acceptance: goodput tracks the offer below saturation,
/// plateaus past it while the admission bound sheds load, and tail
/// latency diverges.
fn check_knee(lane: ProtocolKind, points: &[(f64, Report)]) {
    let label = format!("{} {}", lane.name(), LANE);
    let first = &points.first().expect("sweep is non-empty").1;
    let last = &points.last().expect("sweep is non-empty").1;
    let peak_goodput = points.iter().map(|(_, r)| r.throughput_tps).fold(0.0_f64, f64::max);

    // Below the knee: the lightest load finalizes essentially everything
    // it offers, with no backpressure.
    assert_eq!(first.admission_drops, 0, "{label}: no drops at the lightest load");
    assert!(
        first.throughput_tps > first.offered_tps() * 0.8,
        "{label}: goodput tracks offer below the knee ({:.0} of {:.0} tx/s)",
        first.throughput_tps,
        first.offered_tps()
    );

    // Past the knee: the bounded mempool sheds load and goodput plateaus
    // well short of the offer.
    assert!(last.admission_drops > 0, "{label}: backpressure engaged past saturation");
    assert!(
        last.throughput_tps < last.offered_tps() * 0.95,
        "{label}: goodput plateaus below the offer past saturation ({:.0} vs {:.0})",
        last.throughput_tps,
        last.offered_tps()
    );
    assert!(
        peak_goodput < LOADS[LOADS.len() - 1] * 0.95,
        "{label}: the service rate saturates below the top offered load"
    );

    // Tail divergence: p99 past saturation dwarfs p99 below it.
    assert!(
        last.p99_latency_ms > first.p99_latency_ms * 2.0,
        "{label}: p99 diverges past the knee ({:.2} ms -> {:.2} ms)",
        first.p99_latency_ms,
        last.p99_latency_ms
    );
}

pub(super) fn run(sink: &mut FigureSink) {
    sink.header(
        "protocol,lane,target_tps,offered_tps,goodput_tps,mean_ms,p50_ms,p99_ms,\
         offered,finalized,drops,drop_rate,deduped",
    );
    for lane in LANES {
        let mut points = Vec::new();
        for (i, &tps) in LOADS.iter().enumerate() {
            let r = run_point(lane, tps);
            let row = csv_row(lane, tps, &r);
            println!(
                "  [{:>9} {:>7} @{:>6.0}] goodput={:>8.0} tx/s  p50/p99={:>7.2}/{:>8.2} ms  drops={} ({:.1}%)",
                lane.name(),
                LANE,
                tps,
                r.throughput_tps,
                r.p50_latency_ms,
                r.p99_latency_ms,
                r.admission_drops,
                r.drop_rate() * 100.0,
            );
            // Mid-sweep determinism spot-check (once per lane, cheap).
            if i == LOADS.len() / 2 {
                check_determinism(lane, tps, &r, &row);
            }
            sink.record(row);
            points.push((tps, r));
        }
        check_knee(lane, &points);
    }
}
