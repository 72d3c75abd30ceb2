//! The node shell against a scripted engine and in-process snapshot
//! servers: what it defers, what it answers, when the engine starts, and
//! how a mutator rewrites what it sends.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hs1_adversary::{AdversaryMutator, AdversaryStrategy};
use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::replica::{Action, Replica, Timer};
use hs1_core::{build_replica, Fault};
use hs1_crypto::{Digest, PublicKeyRegistry, Signature};
use hs1_ledger::{ExecConfig, KvStore};
use hs1_statesync::{NodeShell, SnapshotServer, SyncConfig, SYNC_TICK, SYNC_TIMER};
use hs1_storage::crc32;
use hs1_storage::testutil::TempDir;
use hs1_storage::{Checkpoint, Disk, LedgerImage, StorageConfig};
use hs1_types::cert::{domains, CertKind};
use hs1_types::message::{SnapshotChunkReqMsg, SnapshotReqMsg, VoteInfo, VoteMsg};
use hs1_types::{
    Block, BlockId, Certificate, CommittedLog, Message, ProtocolKind, ReplicaId, SimTime, Slot,
    SystemConfig, Transaction, View,
};

const ME: ReplicaId = ReplicaId(3);

type Seen = Arc<Mutex<Vec<String>>>;

/// A scripted engine: logs every step it is given, answers every message
/// with `emit`, and adopts the log of whatever it is restored from.
struct Script {
    log: CommittedLog,
    seen: Seen,
    emit: Vec<Action>,
}

impl Replica for Script {
    fn id(&self) -> ReplicaId {
        ME
    }
    fn on_init(&mut self, _now: SimTime, _out: &mut Vec<Action>) {
        self.seen.lock().unwrap().push("init".into());
    }
    fn on_message(&mut self, from: ReplicaId, msg: Message, _now: SimTime, out: &mut Vec<Action>) {
        self.seen.lock().unwrap().push(format!("{} {}", from.0, msg.kind_name()));
        out.extend(self.emit.iter().cloned());
    }
    fn on_timer(&mut self, timer: Timer, _now: SimTime, _out: &mut Vec<Action>) {
        self.seen.lock().unwrap().push(format!("{timer:?}"));
    }
    fn enqueue_txs(&mut self, _txs: &[Transaction]) {}
    fn current_view(&self) -> View {
        View(0)
    }
    fn committed_head(&self) -> BlockId {
        self.log.head()
    }
    fn committed_chain(&self) -> Vec<BlockId> {
        self.log.ids().collect()
    }
    fn committed_log(&self) -> CommittedLog {
        self.log.clone()
    }
    fn set_persistence(&mut self, _persist: Box<dyn Persistence>) {}
    fn restore(&mut self, state: RecoveredState) {
        self.log = state.committed_log;
    }
    fn state_root(&self) -> Digest {
        Digest([0; 32])
    }
}

/// What every peer has checkpointed: 30 committed blocks.
fn cluster_log() -> CommittedLog {
    CommittedLog::from_ids((1..30).map(BlockId::test))
}

fn checkpointed_dir(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let mut store = KvStore::with_records(200);
    for k in 0..50u64 {
        store.put(k, k * 7 + 1);
    }
    let image = LedgerImage::capture(&store, &cluster_log());
    let high_cert = Some(Certificate::genesis());
    let ckpt = Checkpoint { journal_seq: 100, view: View(30), high_cert, image };
    ckpt.write(&Disk::default(), dir.path()).expect("write checkpoint");
    dir
}

/// Peers 0..3, each serving the cluster checkpoint from a directory of
/// its own.
fn peers(tag: &str) -> (Vec<TempDir>, HashMap<ReplicaId, SnapshotServer>) {
    let dirs: Vec<TempDir> = (0..3).map(|_| checkpointed_dir(tag)).collect();
    let servers = dirs
        .iter()
        .enumerate()
        .map(|(i, d)| (ReplicaId(i as u32), SnapshotServer::new(d.path()).with_chunk_bytes(64)))
        .collect();
    (dirs, servers)
}

fn sync_cfg(gap_threshold: u64) -> SyncConfig {
    SyncConfig { gap_threshold, ..SyncConfig::new(SystemConfig::new(4)) }
}

fn open(dir: &TempDir, sync: SyncConfig) -> (NodeShell, Seen) {
    let seen = Seen::default();
    let engine = Script { log: CommittedLog::new(), seen: seen.clone(), emit: Vec::new() };
    let shell = NodeShell::open(
        Box::new(engine),
        &Disk::default(),
        dir.path(),
        StorageConfig::default(),
        Some(sync),
    )
    .expect("open storage");
    (shell, seen)
}

/// Deliver the shell's sends to the peers and their answers back to the
/// shell, at `now`, until nothing is left in flight. Returns every other
/// action the shell took.
fn exchange(
    shell: &mut NodeShell,
    servers: &mut HashMap<ReplicaId, SnapshotServer>,
    out: Vec<Action>,
    now: SimTime,
) -> Vec<Action> {
    let mut queue: VecDeque<Action> = out.into();
    let mut rest = Vec::new();
    while let Some(action) = queue.pop_front() {
        match action {
            Action::Send { to, msg } if servers.contains_key(&to) => {
                let Some(reply) = servers.get_mut(&to).unwrap().handle(&msg) else { continue };
                let mut next = Vec::new();
                shell.on_message(to, reply, now, &mut next);
                queue.extend(next);
            }
            other => rest.push(other),
        }
    }
    rest
}

fn seen(log: &Seen) -> Vec<String> {
    log.lock().unwrap().clone()
}

#[test]
fn traffic_deferred_during_a_sync_is_stepped_in_arrival_order_after_on_init() {
    let (_keep, mut servers) = peers("shell-defer-peer");
    let dir = TempDir::new("shell-defer");
    let (mut shell, log) = open(&dir, sync_cfg(8));
    let now = SimTime::ZERO;
    let mut out = Vec::new();
    shell.on_init(now, &mut out);
    // A client request and two peers' traffic land mid-sync.
    let mut deferred = Vec::new();
    let request = |seq| Message::Request(Transaction::kv_write(1, seq, 2, 3));
    shell.on_message(ME, request(1), now, &mut deferred);
    shell.on_message(
        ReplicaId(2),
        Message::FetchBlock { id: BlockId::test(9) },
        now,
        &mut deferred,
    );
    shell.on_message(ReplicaId(0), request(2), now, &mut deferred);
    assert!(deferred.is_empty() && seen(&log).is_empty(), "nothing reaches the engine");
    assert!(!shell.is_live());

    exchange(&mut shell, &mut servers, out, now);
    assert_eq!(seen(&log), ["init", "3 Request", "2 FetchBlock", "0 Request"]);
    assert!(shell.is_live());
    let (installed, stats) = shell.take_joined().expect("the sync ended");
    assert!(installed, "the agreed snapshot was installed");
    assert!(stats.chunks_received > 1);
    assert_eq!(shell.engine().committed_log(), cluster_log());
    assert!(shell.take_joined().is_none(), "reported once");
}

#[test]
fn snapshot_requests_are_answered_while_syncing_live_and_through_the_mutator() {
    let (_keep, mut servers) = peers("shell-serve-peer");
    let dir = checkpointed_dir("shell-serve");
    let (mut shell, _) = open(&dir, sync_cfg(8));
    let manifest_req = Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 });
    let manifest = |shell: &mut NodeShell| {
        let mut out = Vec::new();
        shell.on_message(ReplicaId(1), manifest_req.clone(), SimTime::ZERO, &mut out);
        match out.as_slice() {
            [Action::Send { to: ReplicaId(1), msg: Message::SnapshotManifest(m) }] => m.clone(),
            other => panic!("expected one manifest for peer 1, got {other:?}"),
        }
    };

    let mut out = Vec::new();
    shell.on_init(SimTime::ZERO, &mut out);
    assert!(!shell.is_live());
    assert_eq!(manifest(&mut shell).chain_len, 30, "served while syncing");
    exchange(&mut shell, &mut servers, out, SimTime::ZERO);
    assert!(shell.is_live());
    let m = manifest(&mut shell);
    assert_eq!(m.chain_len, 30, "served while live");

    shell.set_adversary(mutator(AdversaryStrategy::CorruptSnapshot, ME));
    let chunk_req =
        Message::SnapshotChunkReq(SnapshotChunkReqMsg { state_root: m.state_root, index: 0 });
    let mut out = Vec::new();
    shell.on_message(ReplicaId(1), chunk_req, SimTime::ZERO, &mut out);
    let [Action::Send { to: ReplicaId(1), msg: Message::SnapshotChunk(c) }] = out.as_slice() else {
        panic!("expected one chunk for peer 1, got {out:?}");
    };
    assert_ne!(crc32(&c.data), m.chunk_crcs[0], "the mutator corrupted the chunk");
}

#[test]
fn a_late_manifest_or_chunk_after_go_live_is_dropped() {
    let (_keep, mut servers) = peers("shell-late-peer");
    let dir = TempDir::new("shell-late");
    let (mut shell, log) = open(&dir, sync_cfg(8));
    let mut out = Vec::new();
    shell.on_init(SimTime::ZERO, &mut out);
    exchange(&mut shell, &mut servers, out, SimTime::ZERO);
    assert!(shell.is_live());
    let before = seen(&log);

    let server = servers.get_mut(&ReplicaId(0)).unwrap();
    let Some(Message::SnapshotManifest(m)) =
        server.handle(&Message::SnapshotReq(SnapshotReqMsg { have_chain_len: 1 }))
    else {
        panic!("the peer serves a manifest");
    };
    let req = Message::SnapshotChunkReq(SnapshotChunkReqMsg { state_root: m.state_root, index: 0 });
    let chunk = server.handle(&req).expect("the peer serves a chunk");
    let mut out = Vec::new();
    shell.on_message(ReplicaId(0), Message::SnapshotManifest(m), SimTime::ZERO, &mut out);
    shell.on_message(ReplicaId(0), chunk, SimTime::ZERO, &mut out);
    assert!(out.is_empty(), "no answer: {out:?}");
    assert_eq!(seen(&log), before, "the engine never sees them");
    assert!(shell.take_joined().is_some_and(|(installed, _)| installed));
}

#[test]
fn an_expired_budget_starts_the_engine_without_a_snapshot() {
    let dir = TempDir::new("shell-budget");
    let cfg = SyncConfig { overall_timeout: Duration::from_secs(1), ..sync_cfg(8) };
    let (mut shell, log) = open(&dir, cfg);
    let mut out = Vec::new();
    shell.on_init(SimTime::ZERO, &mut out);
    let armed = |out: &[Action]| {
        out.iter()
            .filter_map(|a| match a {
                Action::SetTimer { timer: SYNC_TIMER, at } => Some(*at),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(armed(&out), [SimTime::ZERO + SYNC_TICK], "the tick is armed");

    // No peer answers.
    let mut out = Vec::new();
    shell.on_timer(SYNC_TIMER, SimTime(999_000_000), &mut out);
    assert!(seen(&log).is_empty() && !shell.is_live(), "still inside the budget");
    assert_eq!(armed(&out).len(), 1, "re-armed");

    let mut out = Vec::new();
    shell.on_timer(SYNC_TIMER, SimTime(1_000_000_000), &mut out);
    assert_eq!(seen(&log), ["init"]);
    assert!(shell.is_live());
    assert!(armed(&out).is_empty(), "no tick once live");
    assert!(matches!(shell.take_joined(), Some((false, _))));
}

#[test]
fn a_declined_sync_starts_the_engine_at_once() {
    let (_keep, mut servers) = peers("shell-declined-peer");
    // The replica's own disk is as far along as the peers' snapshot.
    let dir = checkpointed_dir("shell-declined");
    let (mut shell, log) = open(&dir, sync_cfg(8));
    assert_eq!(shell.engine().committed_len(), 30, "recovered from its own checkpoint");
    let mut out = Vec::new();
    shell.on_init(SimTime::ZERO, &mut out);
    exchange(&mut shell, &mut servers, out, SimTime::ZERO);
    assert_eq!(seen(&log), ["init"]);
    assert!(shell.is_live());
    let (installed, stats) = shell.take_joined().expect("the sync ended");
    assert!(!installed);
    assert_eq!(stats.chunks_received, 0, "declined before any download");
    // The tick armed before the answers came is stale and ignored.
    let mut out = Vec::new();
    shell.on_timer(SYNC_TIMER, SimTime::ZERO + SYNC_TICK, &mut out);
    assert!(out.is_empty());
    assert_eq!(seen(&log), ["init"]);
}

fn mutator(strategy: AdversaryStrategy, me: ReplicaId) -> AdversaryMutator {
    AdversaryMutator::new(strategy, SystemConfig::new(4), ProtocolKind::HotStuff1, me, 3)
}

/// What a live shell lying through a `strategy` mutator sends when its
/// scripted engine answers one message with `emit`.
fn lie(strategy: AdversaryStrategy, emit: Vec<Action>) -> Vec<(ReplicaId, Message)> {
    let engine = Script { log: CommittedLog::new(), seen: Seen::default(), emit };
    let mut shell = NodeShell::new(Box::new(engine));
    shell.set_adversary(mutator(strategy, ME));
    let mut out = Vec::new();
    let request = Message::Request(Transaction::kv_write(1, 1, 2, 3));
    shell.on_message(ReplicaId(0), request, SimTime::ZERO, &mut out);
    out.into_iter()
        .map(|a| match a {
            Action::Send { to, msg } => (to, msg),
            other => panic!("only sends leave a lying shell here, got {other:?}"),
        })
        .collect()
}

#[test]
fn a_lying_shell_fans_a_broadcast_out_to_one_send_per_replica() {
    let msg = Message::FetchBlock { id: BlockId::test(5) };
    let sent = lie(AdversaryStrategy::WithholdVotes, vec![Action::Broadcast { msg }]);
    let to: Vec<u32> = sent.iter().map(|(to, _)| to.0).collect();
    assert_eq!(to, [0, 1, 2, 3], "one send per replica, in id order");
    assert!(sent.iter().all(|(_, m)| matches!(m, Message::FetchBlock { .. })));
}

#[test]
fn a_send_to_itself_is_never_mutated() {
    // A CorruptFetch adversary answering its *own* fetch keeps the body
    // intact: the in-flight check on its engine would drop a tampered
    // self-delivery and wedge its own catch-up. A peer gets the tampered
    // body.
    let block = Arc::new(Block::new(
        ReplicaId(0),
        View(1),
        Slot::FIRST,
        Certificate::genesis(),
        vec![Transaction::kv_write(1, 1, 2, 3)],
    ));
    let resp = Message::FetchResp { block: block.clone() };
    let emit = vec![
        Action::Send { to: ME, msg: resp.clone() },
        Action::Send { to: ReplicaId(0), msg: resp },
    ];
    let sent = lie(AdversaryStrategy::CorruptFetch, emit);
    let [(ME, Message::FetchResp { block: own }), (ReplicaId(0), Message::FetchResp { block: peer })] =
        sent.as_slice()
    else {
        panic!("expected one answer to itself and one to peer 0, got {sent:?}");
    };
    assert_eq!(own.id(), block.id(), "the copy to itself is untouched");
    assert_ne!(peer.id(), block.id(), "the peer's copy is tampered");
}

#[test]
fn an_equivocating_shell_turns_one_vote_into_two_conflicting_votes() {
    let vote = VoteInfo {
        view: View(3),
        slot: Slot::FIRST,
        block: BlockId::test(1),
        share: Signature::ZERO,
    };
    let emit = vec![Action::Send { to: ReplicaId(0), msg: Message::Vote(VoteMsg { vote }) }];
    let sent = lie(AdversaryStrategy::Equivocate, emit);
    let votes: Vec<VoteInfo> = sent
        .iter()
        .map(|(to, msg)| match msg {
            Message::Vote(m) if *to == ReplicaId(0) => m.vote,
            other => panic!("expected votes for peer 0, got {other:?} to {to:?}"),
        })
        .collect();
    assert_eq!(votes.len(), 2, "the engine's vote and a conflicting one");
    assert!(votes.contains(&vote), "the engine's vote goes out as it was");
    let forged = votes.into_iter().find(|v| *v != vote).expect("a second vote");
    assert_eq!((forged.view, forged.slot), (vote.view, vote.slot), "for the same view and slot");
    assert_ne!(forged.block, vote.block, "for a conflicting block");
    let bytes =
        Certificate::signing_bytes(CertKind::Quorum, forged.view, forged.slot, forged.block);
    let reg = PublicKeyRegistry::derive(0, 4);
    assert!(reg.verify(ME.0, domains::PROPOSE_VOTE, &bytes, &forged.share), "validly signed");
}

#[test]
#[should_panic(expected = "mutator identity")]
fn a_mutator_for_another_replica_is_rejected() {
    let engine = Script { log: CommittedLog::new(), seen: Seen::default(), emit: Vec::new() };
    let mut shell = NodeShell::new(Box::new(engine));
    shell.set_adversary(mutator(AdversaryStrategy::Equivocate, ReplicaId(2)));
}

#[test]
fn a_lying_shell_answers_introspection_from_its_engine() {
    let me = ReplicaId(1);
    let cfg = SystemConfig::new(4);
    let kind = ProtocolKind::HotStuff1;
    let mut shell =
        NodeShell::new(build_replica(kind, cfg, me, Fault::Honest, ExecConfig::default()));
    shell.set_adversary(mutator(AdversaryStrategy::WithholdVotes, me));
    assert_eq!(shell.engine().id(), me);
    assert_eq!(shell.engine().committed_chain().len(), 1, "genesis only");
    assert_eq!(shell.engine().current_view(), View::GENESIS);
}

/// The engine armed each timer kind for views 1 to 1,000, then its view
/// timer for view 1,001 twice. It sees only the latest of each kind fire,
/// and view 1,001's twice; `is_superseded` names the rest in advance. (The
/// state sync's poll is no engine timer: see the declined-sync test.)
#[test]
fn a_timer_for_a_later_view_drops_the_earlier_ones_of_its_kind() {
    let kinds = |v| [Timer::ViewTimeout(v), Timer::LeaderWait(v), Timer::ProposeAt(v)];
    let mut timers: Vec<Timer> = (1..=1_000).map(View).flat_map(kinds).collect();
    timers.extend([Timer::ViewTimeout(View(1_001)); 2]);
    let now = SimTime::ZERO;
    let emit = timers.iter().map(|&timer| Action::SetTimer { timer, at: now }).collect();
    let log = Seen::default();
    let engine = Script { log: CommittedLog::new(), seen: log.clone(), emit };
    let mut shell = NodeShell::new(Box::new(engine));
    let mut out = Vec::new();
    shell.on_message(ReplicaId(0), Message::FetchBlock { id: BlockId::test(1) }, now, &mut out);
    assert_eq!(out.len(), 3_002, "the shell passes every timer on to be armed");
    let live = timers.iter().filter(|&&t| !shell.is_superseded(t)).count();
    assert_eq!(live, 4, "a runtime may drop all but the latest of each kind at once");

    log.lock().unwrap().clear();
    let mut out = Vec::new();
    for timer in timers {
        shell.on_timer(timer, now, &mut out);
    }
    assert!(out.is_empty(), "{out:?}");
    let latest =
        ["LeaderWait(v1000)", "ProposeAt(v1000)", "ViewTimeout(v1001)", "ViewTimeout(v1001)"];
    assert_eq!(seen(&log), latest);
}
