//! Adversary-layer regression tests: every in-model backup strategy must
//! be *absorbed* at n = 3f + 1 (no honest-replica divergence, continued
//! progress), the snapshot joiner must ban and rotate off a
//! chunk-corrupting peer, and the beyond-model ForgeQuorum canary must
//! genuinely trip the safety oracles.

use std::collections::HashMap;

use hotstuff1::adversary::{AdversaryMutator, AdversaryStrategy};
use hotstuff1::ledger::KvStore;
use hotstuff1::sim::{ProtocolKind, Scenario};
use hotstuff1::statesync::{SnapshotServer, SyncClient, SyncConfig, SyncPhase};
use hotstuff1::storage::testutil::TempDir;
use hotstuff1::storage::{Checkpoint, Disk};
use hotstuff1::types::{
    BlockId, Certificate, CommittedLog, Message, ReplicaId, SimDuration, SimTime, SystemConfig,
    View,
};

/// The three HotStuff-1 engine families (basic / chained / slotted).
const HS1_ENGINES: [ProtocolKind; 3] =
    [ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted];

fn scenario(p: ProtocolKind) -> Scenario {
    Scenario::new(p).replicas(4).batch_size(32).clients(64).warmup_seconds(0.2).sim_seconds(0.6)
}

#[test]
fn every_in_model_strategy_absorbed_by_every_hs1_engine() {
    // One adversarial backup (replica 1) per strategy, clean network: the
    // honest replicas must neither diverge nor stall. This is the
    // per-strategy regression floor; the chaos sweep explores the same
    // strategies under loss/partition/crash schedules.
    for p in HS1_ENGINES {
        for strategy in AdversaryStrategy::IN_MODEL {
            let r = scenario(p).seed(19).with_adversary(1, strategy).run();
            assert!(
                r.invariants_ok(),
                "{p:?} vs {}: {:?}",
                strategy.name(),
                r.invariant_violations
            );
            assert!(r.committed_txs > 0, "{p:?} vs {} made progress", strategy.name());
            assert_eq!(r.chaos.adversaries, 1);
        }
    }
}

#[test]
fn baselines_absorb_equivocation_too() {
    // The non-speculative baselines share the vote path; double-votes
    // must be absorbed there as well.
    for p in [ProtocolKind::HotStuff, ProtocolKind::HotStuff2] {
        let r = scenario(p).seed(23).with_adversary(2, AdversaryStrategy::Equivocate).run();
        assert!(r.invariants_ok(), "{p:?}: {:?}", r.invariant_violations);
        assert!(r.committed_txs > 0);
    }
}

#[test]
fn f_adversaries_at_n_7_absorbed() {
    // n = 7 tolerates f = 2: two simultaneous adversaries playing
    // different strategies.
    let r = Scenario::new(ProtocolKind::HotStuff1)
        .replicas(7)
        .batch_size(32)
        .clients(64)
        .warmup_seconds(0.2)
        .sim_seconds(0.6)
        .seed(29)
        .with_adversary(2, AdversaryStrategy::Equivocate)
        .with_adversary(5, AdversaryStrategy::WithholdVotes)
        .run();
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    assert!(r.committed_txs > 0);
    assert_eq!(r.chaos.adversaries, 2);
}

#[test]
fn forge_quorum_canary_trips_the_safety_oracles() {
    // Beyond the fault model by construction: forged quorum certificates
    // over a fabricated fork make honest replicas commit conflicting
    // state. The oracles MUST catch it — this is the test that proves the
    // gate detects safety violations, not just liveness halts.
    let r = scenario(ProtocolKind::HotStuff1)
        .seed(42)
        .with_adversary(1, AdversaryStrategy::ForgeQuorum)
        .run();
    // A safety violation, not a halted cluster. At this seed the honest
    // replicas commit the forged fork consistently, and only the
    // orphaned-finality rule sees it.
    assert!(
        r.invariant_violations
            .iter()
            .any(|v| v.contains("conflicting commits") || v.contains("orphaned")),
        "a forged quorum fork must violate the safety oracles: {:?}",
        r.invariant_violations
    );
}

/// A backup that lies only about snapshots runs consensus at full speed:
/// past its committed window its recorded chain agrees with its peers'.
#[test]
fn a_snapshot_corrupting_backup_commits_past_its_window_in_agreement() {
    let lie = AdversaryStrategy::CorruptSnapshot;
    let r =
        scenario(ProtocolKind::HotStuff1).sim_seconds(1.5).seed(31).with_adversary(1, lie).run();
    assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
    assert_eq!(r.chaos.adversaries, 1);
    let lens = &r.replica_chain_lens;
    assert!(lens.iter().all(|&len| len > CommittedLog::WINDOW + 64), "chain lengths {lens:?}");
}

// ---------------------------------------------------------------------------
// Snapshot trust boundary: the joiner vs adversarial serving peers.
// ---------------------------------------------------------------------------

const CHUNK: u32 = 64;

fn cluster_checkpoint() -> (KvStore, CommittedLog) {
    let mut store = KvStore::with_records(200);
    for k in 0..50u64 {
        store.put(k, k * 7 + 1);
    }
    (store, CommittedLog::from_ids((1..30).map(BlockId::test)))
}

fn honest_server(tag: &str) -> (TempDir, SnapshotServer) {
    let tmp = TempDir::new(tag);
    let (store, log) = cluster_checkpoint();
    Checkpoint::capture(100, View(30), Some(Certificate::genesis()), &store, &log)
        .write(&Disk::default(), tmp.path())
        .expect("write checkpoint");
    let server = SnapshotServer::new(tmp.path()).with_chunk_bytes(CHUNK);
    (tmp, server)
}

/// Drive `client` against honest servers whose responses pass through a
/// per-peer adversary mutator (as a node shell relays its snapshot replies).
/// The virtual clock advances between pump rounds so the full-agreement
/// grace window can expire when an adversary keeps it from forming.
fn run_sync(
    client: &mut SyncClient,
    servers: &mut HashMap<ReplicaId, SnapshotServer>,
    adversaries: &mut HashMap<ReplicaId, AdversaryMutator>,
) {
    for round in 0..4u64 {
        let now = SimTime::ZERO + SimDuration::from_secs(round);
        let mut outbox: Vec<(ReplicaId, Message)> = Vec::new();
        client.poll(now, &mut outbox);
        let mut queue: std::collections::VecDeque<(ReplicaId, Message)> =
            outbox.drain(..).collect();
        for _ in 0..10_000 {
            let Some((to, msg)) = queue.pop_front() else { break };
            let Some(server) = servers.get_mut(&to) else { continue };
            let Some(reply) = server.handle(&msg) else { continue };
            let delivered: Vec<Message> = match adversaries.get_mut(&to) {
                Some(adv) => adv.mutate(ReplicaId(99), reply).into_iter().map(|(_, m)| m).collect(),
                None => vec![reply],
            };
            for m in delivered {
                client.on_message(to, &m, now, &mut outbox);
                queue.extend(outbox.drain(..));
            }
        }
        if !matches!(client.phase(), SyncPhase::Collecting) {
            break;
        }
    }
}

fn corrupt_mutator(me: ReplicaId) -> AdversaryMutator {
    AdversaryMutator::new(
        AdversaryStrategy::CorruptSnapshot,
        SystemConfig::new(4),
        ProtocolKind::HotStuff1,
        me,
        5,
    )
}

#[test]
fn joiner_bans_and_rotates_off_a_chunk_corrupting_adversary() {
    // Peer 0 (the one the joiner downloads from first) serves an honest
    // manifest but corrupts every chunk through the adversary layer: the
    // CRC index must reject chunk 0, ban the peer, and the download must
    // complete from the next agreement-group member.
    let mut servers = HashMap::new();
    let mut keep = Vec::new();
    for i in 0..3u32 {
        let (dir, server) = honest_server("adversary-joiner");
        servers.insert(ReplicaId(i), server);
        keep.push(dir);
    }
    let mut adversaries = HashMap::new();
    adversaries.insert(ReplicaId(0), corrupt_mutator(ReplicaId(0)));

    let cfg = SyncConfig { gap_threshold: 8, ..SyncConfig::new(SystemConfig::new(4)) };
    let mut client = SyncClient::new(cfg, vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)], 1);
    run_sync(&mut client, &mut servers, &mut adversaries);

    assert_eq!(client.phase(), SyncPhase::Done, "sync completed despite the adversary");
    assert_eq!(client.stats.crc_rejections, 1, "first chunk from peer 0 rejected by CRC");
    assert_eq!(client.stats.rotations, 1, "rotated to the next agreement-group peer");
    assert_eq!(client.banned_peers(), 1, "exactly the adversary was banned");
    let synced = client.take_synced().expect("verified image");
    let (store, _) = cluster_checkpoint();
    assert_eq!(synced.image.restore_store().state_root(), store.state_root());
}

#[test]
fn lying_manifests_are_excluded_from_agreement() {
    // With manifest corruption enabled, the adversary's state identity
    // diverges from the honest pair's: it can never join (or dilute) the
    // f+1 agreement group, so the joiner downloads exclusively from
    // honest peers and sees no CRC rejection at all.
    let mut servers = HashMap::new();
    let mut keep = Vec::new();
    for i in 0..3u32 {
        let (dir, server) = honest_server("adversary-manifest");
        servers.insert(ReplicaId(i), server);
        keep.push(dir);
    }
    let mut mutator = corrupt_mutator(ReplicaId(0));
    mutator.set_corrupt_manifests(true);
    let mut adversaries = HashMap::new();
    adversaries.insert(ReplicaId(0), mutator);

    let cfg = SyncConfig { gap_threshold: 8, ..SyncConfig::new(SystemConfig::new(4)) };
    let mut client = SyncClient::new(cfg, vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)], 1);
    run_sync(&mut client, &mut servers, &mut adversaries);

    assert_eq!(client.phase(), SyncPhase::Done);
    assert_eq!(client.stats.crc_rejections, 0, "never downloaded from the liar");
    assert_eq!(client.stats.agreement_peers, 2, "agreement formed from the honest pair");
    let synced = client.take_synced().expect("verified image");
    let (store, _) = cluster_checkpoint();
    assert_eq!(synced.image.restore_store().state_root(), store.state_root());
}
