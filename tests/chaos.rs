//! Chaos-harness integration tests: the new fault axes — partition/heal
//! liveness, duplicate/reorder tolerance, and crash-restart-mid-view
//! convergence — asserted for the basic, chained, and slotted engines,
//! plus the determinism guarantees the seed-sweep gate depends on.

use hotstuff1::sim::chaos::{ChaosConfig, ChaosEvent, ChaosEventKind, ChaosPlan};
use hotstuff1::sim::{AdversaryStrategy, ProtocolKind, Report, Scenario};
use hotstuff1::types::{SimDuration, SimTime};

/// The three HotStuff-1 engine families (basic / chained / slotted).
const ENGINES: [ProtocolKind; 3] =
    [ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted];

fn scenario(p: ProtocolKind, seed: u64) -> Scenario {
    Scenario::new(p)
        .replicas(4)
        .batch_size(32)
        .clients(64)
        .warmup_seconds(0.2)
        .sim_seconds(0.6)
        .seed(seed)
}

fn run_with(p: ProtocolKind, seed: u64, cfg: &ChaosConfig) -> Report {
    let s = scenario(p, seed);
    let plan = ChaosPlan::generate(seed, cfg, 4, s.chaos_horizon());
    s.chaos(plan).run()
}

#[test]
fn partition_heal_liveness_all_engines() {
    // One partition/heal cycle on clean links: commits must resume after
    // the heal (the runner's post-GST invariant) and the run must make
    // real progress. HS2/HS baselines get the same mix in
    // `full_chaos_mix_all_engines_and_baselines`. New axes disabled:
    // this test isolates the partition axis.
    let cfg = ChaosConfig { crashes: 0, ..ChaosConfig::events_only() }.without_new_axes();
    for p in ENGINES {
        let r = run_with(p, 3, &cfg);
        assert_eq!(r.chaos.partitions, 1, "{p:?} scheduled one partition");
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} made progress");
    }
}

#[test]
fn duplicate_and_reorder_tolerance_all_engines() {
    // Heavy duplication + reordering, no loss: every duplicate must be
    // absorbed idempotently and reordered deliveries must not break
    // safety or stall progress.
    let cfg = ChaosConfig {
        drop_p: 0.0,
        dup_p: 0.25,
        reorder_p: 0.25,
        reorder_delay: SimDuration::from_millis(8),
        partitions: 0,
        crashes: 0,
        ..ChaosConfig::default()
    }
    .without_new_axes();
    for p in ENGINES {
        let r = run_with(p, 5, &cfg);
        assert!(r.chaos.duplicated_msgs > 0, "{p:?} saw duplicates");
        assert!(r.chaos.reordered_msgs > 0, "{p:?} saw reordering");
        assert_eq!(r.chaos.dropped_msgs, 0, "{p:?}: nothing dropped in this config");
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} made progress under dup/reorder");
    }
}

#[test]
fn crash_restart_mid_view_converges_all_engines() {
    // One crash-restart window on clean links: recovery must go through
    // the real journal path (commit-prefix preserved — checked by the
    // runner), liveness must resume after the rejoin, and the recovered
    // replica must land back on the canonical chain (state-root
    // convergence is a runner invariant; chain length shows it caught
    // up). Bit rot off: this test asserts *clean* recovery; the rot
    // oracle has its own test below.
    let cfg =
        ChaosConfig { partitions: 0, crashes: 1, ..ChaosConfig::events_only() }.without_new_axes();
    for p in ENGINES {
        let r = run_with(p, 7, &cfg);
        assert_eq!(r.chaos.crashes, 1, "{p:?} crashed one replica");
        assert_eq!(r.chaos.restarts, 1, "{p:?} restarted it");
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} made progress across the crash");
        let max = r.replica_chain_lens.iter().max().copied().unwrap_or(0);
        let min = r.replica_chain_lens.iter().min().copied().unwrap_or(0);
        assert!(
            min * 2 > max,
            "{p:?}: recovered replica caught up (chains {:?})",
            r.replica_chain_lens
        );
    }
}

#[test]
fn full_chaos_mix_all_engines_and_baselines() {
    // The acceptance-criteria mix on one seed: drops + duplicates +
    // reordering + one partition/heal + one crash-restart, for all three
    // engines and both HS1/HS2 (plus 3-chain HotStuff for good measure).
    let cfg = ChaosConfig::default();
    for p in ProtocolKind::ALL {
        let r = run_with(p, 11, &cfg);
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} survived the full mix");
    }
}

/// A plan that crashes `replica` at `down` and restarts it at `up` (ms).
fn crash_window(seed: u64, n: usize, replica: u32, down: u64, up: u64) -> ChaosPlan {
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut plan = ChaosPlan::empty(seed, n);
    plan.events.push(ChaosEvent { at: at(down), kind: ChaosEventKind::Crash { replica } });
    plan.events.push(ChaosEvent { at: at(up), kind: ChaosEventKind::Restart { replica } });
    plan
}

#[test]
fn snapshot_decision_point_taken_on_large_gap() {
    // A long crash window: the restarted replica falls more than
    // `SyncConfig::gap_threshold` (64) blocks behind its peers' newest
    // checkpoint, so its sync client downloads and installs a snapshot
    // instead of leaving the gap to per-block replay, and the run still
    // converges. (Three of four replicas commit slowly: every fourth
    // view's leader is down.)
    let plan = crash_window(13, 4, 2, 100, 900);
    let r = scenario(ProtocolKind::HotStuff1, 13).sim_seconds(1.0).chaos(plan).run();
    assert_eq!(r.chaos.snapshot_syncs, 1, "gap exceeded threshold: snapshot chosen");
    assert_eq!(r.chaos.replay_catchups, 0);
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
}

#[test]
fn replay_catchup_taken_on_small_gap() {
    // A short crash window: the gap stays under the threshold, the sync
    // client declines, and the restart replays through the live fetch
    // path instead.
    let cfg = ChaosConfig {
        partitions: 0,
        crashes: 1,
        downtime: SimDuration::from_millis(20),
        ..ChaosConfig::events_only()
    }
    .without_new_axes();
    let s = scenario(ProtocolKind::HotStuff1, 13);
    let plan = ChaosPlan::generate(13, &cfg, 4, s.chaos_horizon());
    let r = s.chaos(plan).run();
    assert_eq!(r.chaos.snapshot_syncs, 0);
    assert_eq!(r.chaos.replay_catchups, 1);
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
}

#[test]
fn snapshot_sync_rotates_past_a_corrupt_snapshot_peer() {
    // n = 7 with a `CorruptSnapshot` backup at the lowest peer id, which
    // is where a sync client starts its download. An honest replica
    // restarts far behind: its first chunk fails the CRC index, the
    // client bans that peer and finishes from the next one, and the
    // replica ends on its peers' state.
    let plan = crash_window(5, 7, 3, 100, 900);
    let r = scenario(ProtocolKind::HotStuff1, 5)
        .replicas(7)
        .sim_seconds(1.0)
        .with_adversary(0, AdversaryStrategy::CorruptSnapshot)
        .chaos(plan)
        .run();
    assert_eq!(r.chaos.snapshot_syncs, 1, "{:?}", r.chaos);
    assert!(r.chaos.snapshot_rotations >= 1, "{:?}", r.chaos);
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    let lens = &r.replica_chain_lens;
    let peer = (0..7).find(|&p| p != 3 && lens[p] == lens[3]).expect("a peer at its height");
    assert_eq!(r.replica_roots[3], r.replica_roots[peer], "restarted replica on its peers' state");
}

#[test]
fn byzantine_backup_axis_absorbed_under_full_chaos() {
    // Seeds whose plans draw an adversarial backup, under the full fault
    // mix: the strengthened oracles (honest-replica commit agreement,
    // prefix preservation, state-root convergence) must hold for every
    // engine, and the run must keep committing.
    let cfg = ChaosConfig::default();
    for p in ENGINES {
        let mut exercised = false;
        for seed in 0..24 {
            let s = scenario(p, seed);
            let plan = ChaosPlan::generate(seed, &cfg, 4, s.chaos_horizon());
            if plan.adversaries.is_empty() {
                continue;
            }
            let r = s.chaos(plan).run();
            assert_eq!(r.chaos.adversaries, 1, "{p:?} seed {seed}");
            assert!(r.invariants_ok(), "{p:?} seed {seed}: {:?}", r.invariant_violations);
            assert!(r.committed_txs > 0, "{p:?} seed {seed} made progress");
            exercised = true;
            break;
        }
        assert!(exercised, "{p:?}: no seed in 0..24 drew an adversary");
    }
}

#[test]
fn bitrot_recovery_fail_stops_or_restores_a_clean_prefix() {
    // Heavy rot (64 flips) on the crashing replica's storage: the
    // restart must either fail-stop (replica stays down, cluster keeps
    // quorum) or restore a clean prefix — the runner's strengthened
    // oracle flags any silent divergence as a violation. Sweep a few
    // seeds so both outcomes occur.
    let cfg = ChaosConfig {
        partitions: 0,
        crashes: 1,
        bitrot_flips: 64,
        adversaries: 0,
        skew_max: 0.0,
        ..ChaosConfig::events_only()
    };
    let mut rotted = 0;
    let mut failstops = 0;
    for seed in 0..8 {
        let s = scenario(ProtocolKind::HotStuff1, seed);
        let plan = ChaosPlan::generate(seed, &cfg, 4, s.chaos_horizon());
        if !plan.has_bitrot() {
            continue;
        }
        let r = s.chaos(plan).run();
        assert!(r.invariants_ok(), "seed {seed}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "seed {seed}: cluster survived the rot");
        assert_eq!(r.chaos.bitrot_events, 1, "seed {seed}");
        rotted += 1;
        failstops += r.chaos.bitrot_failstops;
    }
    assert!(rotted >= 2, "several seeds scheduled rot (got {rotted})");
    assert!(failstops >= 1, "64 flips fail-stopped at least one recovery");
}

#[test]
fn clock_skew_alone_preserves_liveness() {
    // Pure skew (±8%, beyond the default) with clean links and no
    // events: the pacemaker's epoch synchronization must keep every
    // engine live even though replica clocks drift apart.
    let cfg = ChaosConfig {
        drop_p: 0.0,
        dup_p: 0.0,
        reorder_p: 0.0,
        partitions: 0,
        crashes: 0,
        adversaries: 0,
        bitrot_flips: 0,
        skew_max: 0.08,
        ..ChaosConfig::default()
    };
    for p in ENGINES {
        let s = scenario(p, 37);
        let plan = ChaosPlan::generate(37, &cfg, 4, s.chaos_horizon());
        assert!(plan.skew.iter().any(|&r| r != 1.0), "{p:?}: plan skews clocks");
        let r = s.chaos(plan).run();
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0, "{p:?} stayed live under ±8% skew");
    }
}

#[test]
fn chaos_runs_are_byte_identical_per_seed() {
    // The replay guarantee: same seed + plan → identical fingerprint;
    // a plan that round-trips through its text spec replays identically;
    // different seeds diverge.
    let cfg = ChaosConfig::default();
    let a = run_with(ProtocolKind::HotStuff1, 21, &cfg);
    let b = run_with(ProtocolKind::HotStuff1, 21, &cfg);
    assert_eq!(a.fingerprint, b.fingerprint, "same seed, same run");
    assert_eq!(a.committed_txs, b.committed_txs);
    assert_eq!(a.chaos.dropped_msgs, b.chaos.dropped_msgs);

    let s = scenario(ProtocolKind::HotStuff1, 21);
    let plan = ChaosPlan::generate(21, &cfg, 4, s.chaos_horizon());
    let spec = plan.to_spec();
    let c = s.chaos(ChaosPlan::from_spec(&spec).expect("spec parses")).run();
    assert_eq!(a.fingerprint, c.fingerprint, "spec round-trip replays byte-identically");

    let d = run_with(ProtocolKind::HotStuff1, 22, &cfg);
    assert_ne!(a.fingerprint, d.fingerprint, "different seed, different run");
}

#[test]
fn fault_free_chaos_plan_changes_nothing() {
    // Installing an empty plan must not perturb the fault-free rng
    // stream: the calibrated figures stay bit-for-bit identical.
    let base = scenario(ProtocolKind::HotStuff1, 31).run();
    let with_empty = scenario(ProtocolKind::HotStuff1, 31).chaos(ChaosPlan::empty(31, 4)).run();
    assert_eq!(base.fingerprint, with_empty.fingerprint);
    assert_eq!(base.committed_txs, with_empty.committed_txs);
}

#[test]
fn manual_partition_without_heal_is_caught_by_hand_built_plan() {
    // Hand-built plans work too (not just generated ones): cutting a
    // quorum-breaking side and healing late still converges afterwards.
    let mut plan = ChaosPlan::empty(1, 4);
    plan.events.push(ChaosEvent {
        at: SimTime::ZERO + SimDuration::from_millis(300),
        kind: ChaosEventKind::PartitionStart { side: vec![0, 1] },
    });
    plan.events.push(ChaosEvent {
        at: SimTime::ZERO + SimDuration::from_millis(450),
        kind: ChaosEventKind::PartitionHeal,
    });
    let r = scenario(ProtocolKind::HotStuff1, 1).chaos(plan).run();
    // 2|2 split: neither side has quorum during the window; the post-heal
    // invariant proves the cluster recovered.
    assert_eq!(r.chaos.partitions, 1);
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    assert!(r.committed_txs > 0);
}
