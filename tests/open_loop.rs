//! Open-loop load-driver properties: seed determinism (with and without
//! an observer), admission backpressure under a bounded mempool, and the
//! duplicate-submission dedup regression.

use hotstuff1::obs::{Clock, Obs};
use hotstuff1::sim::{ArrivalKind, OpenLoop, ProtocolKind, Report, Scenario};
use hs1_types::SimDuration;

const SEED: u64 = 23;

fn scenario(p: ProtocolKind) -> Scenario {
    Scenario::new(p).replicas(4).batch_size(32).warmup_seconds(0.1).sim_seconds(0.4).seed(SEED)
}

fn open(p: ProtocolKind, cfg: OpenLoop) -> Report {
    scenario(p).open_loop(cfg).run()
}

#[test]
fn open_loop_finalizes_offered_traffic() {
    // Well under saturation: everything offered in-window finalizes
    // (modulo the tail still in flight at window end).
    let r = open(ProtocolKind::HotStuff1, OpenLoop::poisson(5_000.0));
    r.ensure_invariants("open_loop_finalizes");
    assert!(r.offered_txs > 1_500, "offered {}", r.offered_txs);
    assert_eq!(r.admission_drops, 0, "no backpressure below the knee");
    assert!(
        r.committed_txs as f64 > r.offered_txs as f64 * 0.8,
        "most offered txs finalize: {} of {}",
        r.committed_txs,
        r.offered_txs
    );
}

#[test]
fn open_loop_is_deterministic_per_seed() {
    for arrivals in [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty { period: SimDuration::from_millis(20), duty: 0.25 },
    ] {
        let cfg = OpenLoop { arrivals, ..OpenLoop::poisson(8_000.0) };
        let a = open(ProtocolKind::HotStuff1, cfg.clone());
        let b = open(ProtocolKind::HotStuff1, cfg);
        assert_eq!(a.fingerprint, b.fingerprint, "{arrivals:?}");
        assert_eq!(a.committed_txs, b.committed_txs);
        assert_eq!(a.offered_txs, b.offered_txs);
        assert_eq!(a.admission_drops, b.admission_drops);
    }
}

#[test]
fn observer_is_pure_and_traces_byte_identical_in_open_loop() {
    let cfg = OpenLoop::bursty(10_000.0);
    let bare = open(ProtocolKind::HotStuff1, cfg.clone());

    let observed = || {
        let (obs, rec) = Obs::recording(Clock::manual());
        let r = scenario(ProtocolKind::HotStuff1).open_loop(cfg.clone()).with_observer(obs).run();
        let rec = rec.lock().expect("recorder");
        let det_rows = rec
            .snapshot()
            .to_csv()
            .lines()
            .filter(|l| !l.contains(",hist,"))
            .collect::<Vec<_>>()
            .join("\n");
        (r, rec.jsonl_string(), det_rows)
    };
    let (ra, trace_a, csv_a) = observed();
    let (rb, trace_b, csv_b) = observed();
    assert_eq!(bare.fingerprint, ra.fingerprint, "attaching an observer changed the run");
    assert_eq!(ra.fingerprint, rb.fingerprint);
    assert_eq!(trace_a, trace_b, "same seed, same JSONL bytes");
    assert_eq!(csv_a, csv_b, "same seed, same counter/gauge rows");
    assert!(!trace_a.is_empty());
    // The queueing instrumentation reported: depth + in-flight gauges and
    // the queue-wait histogram all have rows.
    assert!(csv_a.contains("mempool_depth"), "mempool-depth gauge present:\n{csv_a}");
    assert!(csv_a.contains("inflight_txs"), "in-flight gauge present");
}

#[test]
fn bounded_mempool_sheds_load_past_saturation() {
    // Offered load far past the quickstart knee with a tiny admission
    // bound: the pool must shed (drops > 0) while the system keeps
    // finalizing (goodput > 0), and the two must account for the offer.
    let cfg = OpenLoop::poisson(60_000.0);
    let r = scenario(ProtocolKind::HotStuff1).open_loop(cfg).mempool_cap(256).run();
    r.ensure_invariants("bounded_mempool_sheds");
    assert!(r.admission_drops > 0, "backpressure engaged");
    assert!(r.committed_txs > 0, "goodput persists under overload");
    assert!(
        r.drop_rate() > 0.05,
        "a 256-deep pool at 60k tx/s sheds a visible fraction: {}",
        r.drop_rate()
    );
    assert!(
        r.committed_txs < r.offered_txs,
        "past saturation goodput trails offer: {} < {}",
        r.committed_txs,
        r.offered_txs
    );
}

#[test]
fn duplicate_submissions_are_deduped_not_reproposed() {
    // Every 5th arrival resubmits the previous transaction. Admission
    // dedup must drop them all (the oracle would flag double-finality as
    // an invariant violation if a duplicate were re-proposed, and the
    // ledger would double-execute the id).
    let cfg = OpenLoop::poisson(8_000.0).duplicate_every(5);
    let r = scenario(ProtocolKind::HotStuff1).open_loop(cfg).mempool_cap(0).run();
    r.ensure_invariants("duplicate_submissions");
    // ~1/5 of arrivals are duplicates (whole-run, including warmup).
    let arrivals_lower_bound = r.offered_txs; // in-window fresh arrivals
    assert!(
        r.requests_deduped * 4 > arrivals_lower_bound / 2,
        "dedup counter tracks the duplicate stream: {} dups for {} offered",
        r.requests_deduped,
        r.offered_txs
    );
    // Finalized never exceeds fresh submissions (a re-proposed duplicate
    // would double-count its id).
    assert!(r.committed_txs <= r.offered_txs + 1_000, "no duplicate re-proposals");
}

#[test]
fn open_loop_closed_loop_reports_differ_only_in_loop_fields() {
    // A closed-loop run reports zero offered/dropped/deduped — the new
    // accounting never leaks into the historical mode.
    let r = scenario(ProtocolKind::HotStuff1).clients(64).run();
    assert_eq!(r.offered_txs, 0);
    assert_eq!(r.admission_drops, 0);
    assert_eq!(r.requests_deduped, 0);
    assert!(r.committed_txs > 0);
}
