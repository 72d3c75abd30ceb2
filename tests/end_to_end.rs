//! Cross-crate end-to-end tests: every protocol under the full simulator,
//! the paper's headline claims, and the safety scenarios of Appendix A.

use hotstuff1::consensus::Fault;
use hotstuff1::sim::{ProtocolKind, Scenario, WorkloadKind};
use hotstuff1::types::{ReplicaId, SimDuration};

fn quick(p: ProtocolKind) -> Scenario {
    Scenario::new(p).replicas(4).batch_size(32).clients(100).sim_seconds(0.6).warmup_seconds(0.2)
}

#[test]
fn every_protocol_reaches_consensus_in_sim() {
    for p in ProtocolKind::ALL {
        let r = quick(p).run();
        assert!(r.committed_txs > 0, "{p:?} committed nothing");
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
    }
}

#[test]
fn hotstuff1_latency_beats_baselines() {
    // The paper's headline: HotStuff-1 lowers latency vs HotStuff-2 and
    // HotStuff at identical throughput (§7.1).
    let hs1 = quick(ProtocolKind::HotStuff1).run();
    let hs2 = quick(ProtocolKind::HotStuff2).run();
    let hs = quick(ProtocolKind::HotStuff).run();
    assert!(
        hs1.mean_latency_ms < hs2.mean_latency_ms,
        "HS1 {} < HS2 {}",
        hs1.mean_latency_ms,
        hs2.mean_latency_ms
    );
    assert!(
        hs2.mean_latency_ms < hs.mean_latency_ms,
        "HS2 {} < HS {}",
        hs2.mean_latency_ms,
        hs.mean_latency_ms
    );
}

#[test]
fn throughput_is_protocol_independent() {
    // Fig. 8a: all streamlined protocols sustain the same throughput
    // (message complexity is identical).
    let hs1 = quick(ProtocolKind::HotStuff1).clients(500).run();
    let hs2 = quick(ProtocolKind::HotStuff2).clients(500).run();
    let ratio = hs1.throughput_tps / hs2.throughput_tps;
    assert!((0.8..1.25).contains(&ratio), "throughput ratio {ratio}");
}

#[test]
fn tpcc_workload_runs_on_all_protocols() {
    for p in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted] {
        let r = quick(p).workload(WorkloadKind::Tpcc).run();
        assert!(r.committed_txs > 0, "{p:?}");
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
    }
}

#[test]
fn crash_fault_does_not_violate_safety() {
    for p in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted] {
        let r = quick(p).with_fault(2, Fault::Crash { after_view: 5 }).sim_seconds(1.0).run();
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} lost liveness");
    }
}

#[test]
fn rollback_attack_rolls_back_but_stays_safe() {
    // Appendix A.2: equivocating leaders force speculating replicas to
    // roll back; safety (and client finality soundness) must hold.
    let r = Scenario::new(ProtocolKind::HotStuff1)
        .replicas(4)
        .batch_size(32)
        .clients(100)
        .sim_seconds(1.5)
        .warmup_seconds(0.2)
        .with_fault(1, Fault::RollbackAttack { victims: vec![ReplicaId(3)] })
        .run();
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    assert!(r.committed_txs > 0, "liveness under rollback attack");
}

#[test]
fn tail_fork_hurts_chained_more_than_slotted() {
    // Fig. 10(e): slotting bounds tail-forking damage.
    let chained = Scenario::new(ProtocolKind::HotStuff1)
        .replicas(8)
        .batch_size(32)
        .clients(200)
        .view_timer(SimDuration::from_millis(10))
        .sim_seconds(1.0)
        .warmup_seconds(0.3)
        .faulty_leaders(2, Fault::TailFork)
        .run();
    let chained_clean = Scenario::new(ProtocolKind::HotStuff1)
        .replicas(8)
        .batch_size(32)
        .clients(200)
        .view_timer(SimDuration::from_millis(10))
        .sim_seconds(1.0)
        .warmup_seconds(0.3)
        .run();
    assert!(r_ok(&chained) && r_ok(&chained_clean));
    assert!(chained.orphaned_blocks > 0, "tail-forking orphans blocks in the chained protocol");
    assert!(chained.throughput_tps < chained_clean.throughput_tps);
}

fn r_ok(r: &hotstuff1::sim::Report) -> bool {
    r.invariants_ok()
}

#[test]
fn slow_leaders_hurt_less_with_slotting() {
    // Fig. 10(a–d): leader slowness degrades chained protocols far more
    // than slotted HotStuff-1.
    fn tput(p: ProtocolKind, slow: usize) -> f64 {
        Scenario::new(p)
            .replicas(8)
            .batch_size(32)
            .clients(200)
            .view_timer(SimDuration::from_millis(10))
            .sim_seconds(1.0)
            .warmup_seconds(0.3)
            .faulty_leaders(slow, Fault::SlowLeader)
            .run()
            .throughput_tps
    }
    let chained_kept = tput(ProtocolKind::HotStuff1, 2) / tput(ProtocolKind::HotStuff1, 0);
    let slotted_kept =
        tput(ProtocolKind::HotStuff1Slotted, 2) / tput(ProtocolKind::HotStuff1Slotted, 0);
    assert!(
        slotted_kept > chained_kept,
        "slotting retains more throughput: {slotted_kept:.2} vs {chained_kept:.2}"
    );
}

#[test]
fn injected_delays_preserve_safety_and_shape() {
    // Fig. 9: delaying f+1 replicas slows everyone; safety holds.
    let clean = quick(ProtocolKind::HotStuff1).replicas(7).run();
    let delayed = quick(ProtocolKind::HotStuff1)
        .replicas(7)
        .view_timer(SimDuration::from_millis(60))
        .inject_delay(3, SimDuration::from_millis(5))
        .run();
    assert!(clean.invariants_ok() && delayed.invariants_ok());
    assert!(delayed.mean_latency_ms > clean.mean_latency_ms);
}

#[test]
fn geo_deployment_latency_grows_with_regions() {
    let two = quick(ProtocolKind::HotStuff1)
        .replicas(8)
        .geo_regions(2)
        .view_timer(SimDuration::from_millis(600))
        .sim_seconds(2.0)
        .run();
    let five = quick(ProtocolKind::HotStuff1)
        .replicas(8)
        .geo_regions(5)
        .view_timer(SimDuration::from_millis(600))
        .sim_seconds(2.0)
        .run();
    assert!(two.invariants_ok() && five.invariants_ok());
    assert!(two.committed_txs > 0 && five.committed_txs > 0);
    assert!(five.mean_latency_ms > two.mean_latency_ms);
}

#[test]
fn slotted_commits_many_blocks_per_view() {
    let r = Scenario::new(ProtocolKind::HotStuff1Slotted)
        .replicas(4)
        .batch_size(16)
        .clients(200)
        .view_timer(SimDuration::from_millis(20))
        .sim_seconds(1.0)
        .warmup_seconds(0.2)
        .run();
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    assert!(
        r.committed_blocks > r.views_entered,
        "adaptive slotting: {} blocks > {} views",
        r.committed_blocks,
        r.views_entered
    );
}

#[test]
fn deterministic_given_seed() {
    let a = quick(ProtocolKind::HotStuff1).seed(7).run();
    let b = quick(ProtocolKind::HotStuff1).seed(7).run();
    assert_eq!(a.committed_txs, b.committed_txs);
    assert_eq!(a.committed_blocks, b.committed_blocks);
    assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    let c = quick(ProtocolKind::HotStuff1).seed(8).run();
    // Different seed: allowed to differ (jitter), must still be safe.
    assert!(c.invariants_ok());
}
