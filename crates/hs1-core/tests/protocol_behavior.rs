//! Protocol-level behavior tests driven through the in-crate test harness:
//! liveness, commit-rule depth, speculation timing, fault handling.

use hs1_core::testkit::{Obs, TestNet};
use hs1_core::Fault;
use hs1_core::{build_replica, Replica};
use hs1_ledger::ExecConfig;
use hs1_types::{
    CommittedLog, ProtocolKind, ReplicaId, ReplyKind, SimDuration, SystemConfig, Transaction,
};

fn cfg(n: usize) -> SystemConfig {
    let mut c = SystemConfig::new(n);
    c.view_timer = SimDuration::from_millis(10);
    c.delta = SimDuration::from_millis(1);
    c.batch_size = 4;
    c
}

fn net_for(kind: ProtocolKind, n: usize, faults: Vec<(usize, Fault)>) -> TestNet {
    let c = cfg(n);
    let engines: Vec<Box<dyn Replica>> = (0..n)
        .map(|i| {
            let fault = faults
                .iter()
                .find(|(r, _)| *r == i)
                .map(|(_, f)| f.clone())
                .unwrap_or(Fault::Honest);
            build_replica(kind, c.clone(), ReplicaId(i as u32), fault, ExecConfig::default())
        })
        .collect();
    let mut net = TestNet::new(engines, SimDuration::from_micros(200));
    net.inject(&txs(64));
    net.init();
    net
}

fn txs(n: u64) -> Vec<Transaction> {
    (0..n).map(|i| Transaction::kv_write(1, i, i * 13, i)).collect()
}

fn committed_counts(net: &TestNet, n: usize) -> Vec<usize> {
    (0..n).map(|r| net.committed_at(r).len()).collect()
}

/// Run four wrapped HotStuff-1 engines through more commits than a
/// replica's window holds, then hold each wrapper's `committed_len` and
/// `committed_log` to the harness's record of its commits. A wrapper that
/// left them to the trait's defaults would report its window instead.
fn assert_wrappers_report_the_whole_chain(engines: Vec<Box<dyn Replica>>) {
    let mut net = TestNet::new(engines, SimDuration::from_micros(200));
    net.inject(&txs(4 * (CommittedLog::WINDOW as u64 + 200)));
    net.init();
    net.run_for(SimDuration::from_millis(1_200));
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
    for (r, e) in net.engines.iter().enumerate() {
        let record = net.committed_log(r);
        assert!(
            record.len() > CommittedLog::WINDOW + 64,
            "replica {r} committed {} blocks",
            record.len()
        );
        assert!(e.committed_chain().len() <= CommittedLog::WINDOW, "replica {r} holds its window");
        assert_eq!(e.committed_len(), record.len(), "replica {r}");
        let log = e.committed_log();
        assert_eq!(
            (log.len(), log.hash(), log.head()),
            (record.len(), record.hash(), record.head())
        );
    }
}

// -- liveness for every protocol ------------------------------------------------

#[test]
fn hotstuff_commits_and_agrees() {
    let mut net = net_for(ProtocolKind::HotStuff, 4, vec![]);
    net.run_for(SimDuration::from_millis(200));
    let counts = committed_counts(&net, 4);
    assert!(counts.iter().all(|&c| c >= 5), "all replicas commit: {counts:?}");
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn hotstuff2_commits_and_agrees() {
    let mut net = net_for(ProtocolKind::HotStuff2, 4, vec![]);
    net.run_for(SimDuration::from_millis(200));
    let counts = committed_counts(&net, 4);
    assert!(counts.iter().all(|&c| c >= 5), "{counts:?}");
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn hotstuff1_commits_and_agrees() {
    let mut net = net_for(ProtocolKind::HotStuff1, 4, vec![]);
    net.run_for(SimDuration::from_millis(200));
    let counts = committed_counts(&net, 4);
    assert!(counts.iter().all(|&c| c >= 5), "{counts:?}");
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn basic_hotstuff1_commits_and_agrees() {
    let mut net = net_for(ProtocolKind::HotStuff1Basic, 4, vec![]);
    net.run_for(SimDuration::from_millis(200));
    let counts = committed_counts(&net, 4);
    assert!(counts.iter().all(|&c| c >= 3), "{counts:?}");
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn slotted_commits_and_agrees() {
    let mut net = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![]);
    net.run_for(SimDuration::from_millis(200));
    let counts = committed_counts(&net, 4);
    assert!(counts.iter().all(|&c| c >= 5), "{counts:?}");
    net.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn larger_cluster_commits() {
    for kind in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted] {
        let mut net = net_for(kind, 7, vec![]);
        net.run_for(SimDuration::from_millis(150));
        let counts = committed_counts(&net, 7);
        assert!(counts.iter().all(|&c| c >= 3), "{kind:?}: {counts:?}");
        net.assert_prefix_agreement(&[0, 1, 2, 3, 4, 5, 6]);
    }
}

// -- speculation semantics --------------------------------------------------------

#[test]
fn hotstuff1_speculates_before_commit() {
    let mut net = net_for(ProtocolKind::HotStuff1, 4, vec![]);
    net.run_for(SimDuration::from_millis(100));
    // Every replica produced speculative executions.
    for r in 0..4 {
        assert!(net.speculations_at(r) > 0, "replica {r} speculated");
    }
    // For each block, a replica's speculative execution precedes its
    // commit (by log order): once a replica has committed a block it must
    // never speculate it, and the speculate-then-commit path must actually
    // occur.
    let mut spec_seen = std::collections::HashSet::new();
    let mut committed_seen = std::collections::HashSet::new();
    let mut spec_then_commit = 0u64;
    for obs in &net.log {
        match obs {
            Obs::Executed { at, block, kind: ReplyKind::Speculative } => {
                assert!(
                    !committed_seen.contains(&(at.0, block.id())),
                    "replica {} speculated block {:?} after committing it",
                    at.0,
                    block.id()
                );
                spec_seen.insert((at.0, block.id()));
            }
            Obs::Committed { at, block } => {
                committed_seen.insert((at.0, block.id()));
                if spec_seen.contains(&(at.0, block.id())) {
                    spec_then_commit += 1;
                }
            }
            _ => {}
        }
    }
    assert!(spec_then_commit > 0, "no block took the speculate-then-commit path");
}

#[test]
fn baselines_never_speculate() {
    for kind in [ProtocolKind::HotStuff, ProtocolKind::HotStuff2] {
        let mut net = net_for(kind, 4, vec![]);
        net.run_for(SimDuration::from_millis(100));
        for r in 0..4 {
            assert_eq!(net.speculations_at(r), 0, "{kind:?} replica {r}");
        }
    }
}

#[test]
fn no_rollbacks_in_fault_free_runs() {
    for kind in
        [ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1Slotted]
    {
        let mut net = net_for(kind, 4, vec![]);
        net.run_for(SimDuration::from_millis(100));
        for r in 0..4 {
            assert_eq!(net.rollbacks_at(r), 0, "{kind:?} replica {r}");
        }
    }
}

// -- commit-rule latency ordering -------------------------------------------------

#[test]
fn hs1_commits_no_later_than_hs2_than_hs() {
    // Same hop latency, same duration: deeper commit rules commit fewer
    // blocks of the injected prefix. Compare first-commit times.
    let mut first_commit = Vec::new();
    for kind in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2, ProtocolKind::HotStuff] {
        let mut net = net_for(kind, 4, vec![]);
        net.run_for(SimDuration::from_millis(100));
        // Find index in log of first Committed observation.
        let idx =
            net.log.iter().position(|o| matches!(o, Obs::Committed { .. })).expect("some commit");
        // Count EnteredView events before it as a proxy for phases.
        let views_before =
            net.log[..idx].iter().filter(|o| matches!(o, Obs::EnteredView { .. })).count();
        first_commit.push(views_before);
    }
    assert!(
        first_commit[0] <= first_commit[1] && first_commit[1] <= first_commit[2],
        "commit phase ordering HS1 <= HS2 <= HS: {first_commit:?}"
    );
}

// -- fault handling -----------------------------------------------------------------

#[test]
fn crash_fault_tolerated() {
    // One crash (n = 4, f = 1): progress continues for correct replicas.
    let mut net = net_for(ProtocolKind::HotStuff1, 4, vec![(2, Fault::Crash { after_view: 3 })]);
    net.run_for(SimDuration::from_millis(400));
    let counts: Vec<usize> = [0, 1, 3].iter().map(|&r| net.committed_at(r).len()).collect();
    assert!(counts.iter().all(|&c| c >= 4), "correct replicas progress: {counts:?}");
    net.assert_prefix_agreement(&[0, 1, 3]);
}

#[test]
fn silent_replica_tolerated_by_two_chain_protocols() {
    for kind in [ProtocolKind::HotStuff2, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Slotted] {
        let mut net = net_for(kind, 4, vec![(1, Fault::Silent)]);
        net.run_for(SimDuration::from_millis(400));
        let counts: Vec<usize> = [0, 2, 3].iter().map(|&r| net.committed_at(r).len()).collect();
        assert!(counts.iter().all(|&c| c >= 2), "{kind:?}: {counts:?}");
        net.assert_prefix_agreement(&[0, 2, 3]);
    }
}

/// A streamlined protocol orphans the block proposed just before a dead
/// leader's view: its votes went to that leader (Example 6.2). Every
/// replica that stored the block suppresses its transactions, so unless
/// the engine returns them to its pool no leader proposes them again and
/// a closed-loop client waits forever.
#[test]
fn silent_replica_loses_no_transaction() {
    use ProtocolKind::*;
    let cases =
        [(HotStuff2, 4), (HotStuff1, 4), (HotStuff1Basic, 4), (HotStuff1Slotted, 4), (HotStuff, 7)];
    for (kind, n) in cases {
        let mut net = net_for(kind, n, vec![(3, Fault::Silent)]);
        net.run_for(SimDuration::from_millis(3_000));
        for r in (0..n).filter(|r| *r != 3) {
            let mut seqs: Vec<u64> = net
                .log
                .iter()
                .filter_map(|o| match o {
                    Obs::Committed { at, block } if at.0 as usize == r => Some(&block.txs),
                    _ => None,
                })
                .flat_map(|txs| txs.iter().map(|t| t.id.seq))
                .collect();
            seqs.sort_unstable();
            let all: Vec<u64> = (0..64).collect();
            assert_eq!(seqs, all, "{kind:?}: replica {r} commits every id exactly once");
        }
    }
}

#[test]
fn silent_replica_and_three_chain_hotstuff() {
    // With n = 4 and one silent replica in round-robin rotation there are
    // never four consecutive honest leaders, so 3-chain HotStuff cannot
    // commit — the structural weakness §6/BeeGees discusses. At n = 7 the
    // honest runs are long enough and commits resume.
    let mut small = net_for(ProtocolKind::HotStuff, 4, vec![(1, Fault::Silent)]);
    small.run_for(SimDuration::from_millis(400));
    assert_eq!(small.committed_at(0).len(), 0, "n=4 livelocks under rotation");

    let mut big = net_for(ProtocolKind::HotStuff, 7, vec![(1, Fault::Silent)]);
    big.run_for(SimDuration::from_millis(400));
    let counts: Vec<usize> =
        [0, 2, 3, 4, 5, 6].iter().map(|&r| big.committed_at(r).len()).collect();
    assert!(counts.iter().all(|&c| c >= 2), "n=7 commits: {counts:?}");
    big.assert_prefix_agreement(&[0, 2, 3, 4, 5, 6]);
}

#[test]
fn slow_leader_degrades_chained_but_preserves_safety() {
    let mut slow = net_for(ProtocolKind::HotStuff1, 4, vec![(1, Fault::SlowLeader)]);
    slow.run_for(SimDuration::from_millis(300));
    let mut fast = net_for(ProtocolKind::HotStuff1, 4, vec![]);
    fast.run_for(SimDuration::from_millis(300));
    let slow_c = slow.committed_at(0).len();
    let fast_c = fast.committed_at(0).len();
    assert!(slow_c < fast_c, "slow leader reduces commits: {slow_c} vs {fast_c}");
    assert!(slow_c > 0, "liveness preserved");
    slow.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn tail_forking_orphans_blocks_in_chained() {
    let mut net = net_for(ProtocolKind::HotStuff1, 4, vec![(1, Fault::TailFork)]);
    net.run_for(SimDuration::from_millis(300));
    net.assert_prefix_agreement(&[0, 2, 3]);
    let honest = net_for(ProtocolKind::HotStuff1, 4, vec![]);
    drop(honest);
    // Liveness despite the attack.
    assert!(net.committed_at(0).len() >= 3);
}

#[test]
fn rollback_attack_forces_rollbacks_then_recovers() {
    // Byzantine leader 1 equivocates with replica 0 as victim (n=4, f=1).
    let mut net = net_for(
        ProtocolKind::HotStuff1,
        4,
        vec![(1, Fault::RollbackAttack { victims: vec![ReplicaId(0)] })],
    );
    net.run_for(SimDuration::from_millis(500));
    // Safety holds across all correct replicas.
    net.assert_prefix_agreement(&[0, 2, 3]);
    // And the system kept committing.
    assert!(net.committed_at(0).len() >= 2, "{}", net.committed_at(0).len());
}

// -- slotted specifics ------------------------------------------------------------

#[test]
fn slotted_proposes_multiple_slots_per_view() {
    let mut net = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![]);
    net.inject(&txs(512));
    net.run_for(SimDuration::from_millis(100));
    // ~10 views in 100ms at τ=10ms; hop 200µs ⇒ each view fits many slots.
    let blocks_committed = net.committed_at(0).len();
    let views_entered =
        net.log.iter().filter(|o| matches!(o, Obs::EnteredView { at, .. } if at.0 == 0)).count();
    assert!(
        blocks_committed > views_entered,
        "more blocks ({blocks_committed}) than views ({views_entered})"
    );
}

#[test]
fn slotted_slow_leader_impact_is_limited() {
    let mut slow = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![(1, Fault::SlowLeader)]);
    slow.run_for(SimDuration::from_millis(300));
    let mut fast = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![]);
    fast.run_for(SimDuration::from_millis(300));
    let slow_c = slow.committed_at(0).len() as f64;
    let fast_c = fast.committed_at(0).len() as f64;
    // A slow leader owns 1/4 of views; slotting bounds the damage well
    // below the chained case (which loses nearly the whole view budget).
    assert!(slow_c / fast_c > 0.5, "slotted retains throughput: {slow_c}/{fast_c}");
    slow.assert_prefix_agreement(&[0, 1, 2, 3]);
}

#[test]
fn slotted_tail_fork_wastes_only_attackers_view() {
    let mut forked = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![(1, Fault::TailFork)]);
    forked.run_for(SimDuration::from_millis(300));
    let mut honest = net_for(ProtocolKind::HotStuff1Slotted, 4, vec![]);
    honest.run_for(SimDuration::from_millis(300));
    let f = forked.committed_at(0).len() as f64;
    let h = honest.committed_at(0).len() as f64;
    assert!(f / h > 0.5, "slotted resists tail-forking: {f}/{h}");
    forked.assert_prefix_agreement(&[0, 2, 3]);
}

/// A view's last slot `B_u` can reach nobody: lost, or withheld by a
/// faulty leader. The next leaders then extend the certificate below it
/// without the carry SafeSlot asks for. A replica that holds `B_u` must
/// refuse that (f + 1 correct refusals protect a `B_u` that could have
/// been certified); one that knows no successor must vote, or — with no
/// quorum of equal NewView votes to fall back on — no view ever certifies
/// a block again.
#[test]
fn slotted_votes_for_a_carryless_first_slot_unless_it_holds_the_successor() {
    use hs1_core::replica::Action;
    use hs1_crypto::KeyPair;
    use hs1_types::cert::{domains, CertKind};
    use hs1_types::message::ProposeMsg;
    use hs1_types::{Block, Certificate, Message, SimTime, Slot, View};
    use std::sync::Arc;

    let c = cfg(4);
    let (l1, l2) = (c.leader_of(View(1)), c.leader_of(View(2)));
    let b1 = Arc::new(Block::new(l1, View(1), Slot::FIRST, Certificate::genesis(), txs(2)));
    let bytes = Certificate::signing_bytes(CertKind::NewSlot, View(1), Slot::FIRST, b1.id());
    let sign =
        |r| (ReplicaId(r), KeyPair::derive(c.deployment_seed, r).sign(domains::NEW_SLOT, &bytes));
    let p11 = Certificate {
        kind: CertKind::NewSlot,
        view: View(1),
        slot: Slot::FIRST,
        block: b1.id(),
        sigs: (1..4).map(sign).collect(),
    };
    let successor = Arc::new(Block::new(l1, View(1), Slot(2), p11.clone(), txs(1)));
    let carryless = Arc::new(Block::new(l2, View(2), Slot::FIRST, p11, vec![]));

    for holds_successor in [false, true] {
        let kind = ProtocolKind::HotStuff1Slotted;
        let mut e =
            build_replica(kind, c.clone(), ReplicaId(0), Fault::Honest, ExecConfig::default());
        let mut out = Vec::new();
        let mut deliver = |from, block: &Arc<Block>, out: &mut Vec<Action>| {
            let msg = Message::Propose(ProposeMsg { block: block.clone(), commit_cert: None });
            e.on_message(from, msg, SimTime::ZERO, out);
        };
        deliver(l1, &b1, &mut out);
        if holds_successor {
            deliver(l1, &successor, &mut out);
        }
        out.clear();
        deliver(l2, &carryless, &mut out);
        let answer = |pick: fn(&Message) -> bool| {
            out.iter().any(|a| matches!(a, Action::Send { to, msg } if *to == l2 && pick(msg)))
        };
        let voted = answer(|m| matches!(m, Message::NewSlot(v) if v.view == View(2)));
        let refused = answer(|m| matches!(m, Message::Reject(_)));
        assert_eq!((voted, refused), (!holds_successor, holds_successor), "{holds_successor}");
    }
}

// -- fetch-path hardening ---------------------------------------------------------

/// A Byzantine peer must not be able to push unrequested block bodies
/// into a replica's store through the `FetchResp` path. Observable via
/// the serving side: a replica re-serves any block it holds, so a block
/// absorbed from an unsolicited response would answer a later
/// `FetchBlock` for it.
#[test]
fn unsolicited_fetch_resp_is_dropped() {
    use hs1_types::{Certificate, Message, SimTime, Slot, View};
    use std::sync::Arc;

    let kinds =
        [ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1Slotted];
    for kind in kinds {
        let mut engine =
            build_replica(kind, cfg(4), ReplicaId(0), Fault::Honest, ExecConfig::default());
        let mut out = Vec::new();
        engine.on_init(SimTime::ZERO, &mut out);
        out.clear();

        // A structurally valid block (genesis justify verifies trivially)
        // the engine never asked for.
        let forged = Arc::new(hs1_types::Block::new(
            ReplicaId(2),
            View(1),
            Slot(1),
            Certificate::genesis(),
            vec![Transaction::kv_write(9, 1, 2, 3)],
        ));
        let id = forged.id();
        engine.on_message(
            ReplicaId(2),
            Message::FetchResp { block: forged },
            SimTime::ZERO,
            &mut out,
        );
        out.clear();

        engine.on_message(ReplicaId(1), Message::FetchBlock { id }, SimTime::ZERO, &mut out);
        assert!(
            !out.iter().any(|a| matches!(
                a,
                hs1_core::replica::Action::Send { msg: Message::FetchResp { .. }, .. }
            )),
            "{kind:?}: unsolicited FetchResp must not be absorbed into the store"
        );
    }
}

/// A committed block deep in a replica's window is served as it was
/// committed: bodies below the committed head are held as their bytes and
/// decoded to answer a `FetchBlock`.
#[test]
fn a_block_a_thousand_commits_deep_is_served_as_committed() {
    use hs1_core::replica::Action;
    use hs1_types::codec::Encode;
    use hs1_types::{Message, SimTime};

    let c = cfg(4);
    let engines = (0..4)
        .map(|i| {
            let (id, exec) = (ReplicaId(i), ExecConfig::default());
            build_replica(ProtocolKind::HotStuff1, c.clone(), id, Fault::Honest, exec)
        })
        .collect();
    let mut net = TestNet::new(engines, SimDuration::from_micros(200));
    net.inject(&txs(4 * 1_200));
    net.init();
    net.run_for(SimDuration::from_millis(600));
    let committed: Vec<_> = net
        .log
        .iter()
        .filter_map(|o| match o {
            Obs::Committed { at: ReplicaId(0), block } => Some(block.clone()),
            _ => None,
        })
        .collect();
    assert!(committed.len() > 1_100, "{} blocks committed", committed.len());
    let deep = &committed[committed.len() - 1_000];
    let mut out = Vec::new();
    let ask = Message::FetchBlock { id: deep.id() };
    net.engines[0].on_message(ReplicaId(1), ask, SimTime::ZERO, &mut out);
    let [Action::Send { to: ReplicaId(1), msg: Message::FetchResp { block } }] = out.as_slice()
    else {
        panic!("no FetchResp for a block 1,000 commits deep: {out:?}");
    };
    assert_eq!(**block, **deep);
    assert_eq!(block.encoded(), deep.encoded());
}

/// A synced image whose log parts from the replica's below its head is
/// refused whole: the engine keeps its store and log, and takes neither
/// the image's view nor its certificate.
#[test]
fn a_refused_image_moves_neither_the_view_nor_the_state() {
    use hs1_core::persist::RecoveredState;
    use hs1_ledger::KvStore;
    use hs1_types::{BlockId, View};

    let image = |log: CommittedLog, records: u64, view: u64| RecoveredState {
        view: View(view),
        committed_store: Some(KvStore::with_records(records)),
        committed_log: log,
        ..Default::default()
    };
    let mut engine = build_replica(
        ProtocolKind::HotStuff1,
        cfg(4),
        ReplicaId(0),
        Fault::Honest,
        ExecConfig::default(),
    );
    let own = CommittedLog::from_ids((1..6).map(BlockId::test));
    engine.restore(image(own.clone(), 10, 5));
    assert_eq!(engine.current_view(), View(5));
    let root = engine.state_root();

    let mut forked = CommittedLog::from_ids((1..3).map(BlockId::test));
    for t in 100..110 {
        forked.push(BlockId::test(t));
    }
    engine.restore(image(forked, 20, 50));
    assert_eq!(engine.current_view(), View(5), "the refused image's view");
    assert_eq!((engine.committed_log(), engine.state_root()), (own, root));
}

// -- share verification ---------------------------------------------------------

/// One Byzantine backup (within the ≤ f model) sends a garbage vote share
/// that lands among the first n − f a leader tallies. The leader must not
/// count it: a certificate holding it fails `verify` at every correct
/// backup, which drops the proposal and voids the honest leader's view.
/// Every certificate the leader hands out must verify, and one must form
/// once n − f *valid* shares are in.
#[test]
fn garbage_vote_share_never_reaches_a_certificate() {
    use hs1_core::replica::Action;
    use hs1_crypto::{KeyPair, PublicKeyRegistry, Signature};
    use hs1_types::cert::{domains, CertKind};
    use hs1_types::message::{NewViewMsg, ProposeMsg, VoteInfo, VoteMsg};
    use hs1_types::{Block, Certificate, Message, SimTime, Slot, View};
    use std::sync::Arc;

    /// A leader under test: messages it sends itself are looped back in;
    /// the blocks it proposes and certificates it hands out are kept.
    struct Probe {
        leader: Box<dyn Replica>,
        me: ReplicaId,
        proposed: Vec<Arc<Block>>,
        certs: Vec<Certificate>,
    }
    impl Probe {
        fn deliver(&mut self, from: ReplicaId, msg: Message) {
            let mut queue = vec![(from, msg)];
            while let Some((from, msg)) = queue.pop() {
                let mut out = Vec::new();
                self.leader.on_message(from, msg, SimTime::ZERO, &mut out);
                for a in out {
                    let msg = match a {
                        Action::Send { to, msg } if to == self.me => msg,
                        Action::Broadcast { msg } => msg,
                        _ => continue,
                    };
                    match &msg {
                        Message::Propose(p) => {
                            self.proposed.push(p.block.clone());
                            self.certs.push(p.block.justify.clone());
                        }
                        Message::Prepare(p) => self.certs.push(p.cert.clone()),
                        _ => {}
                    }
                    queue.push((self.me, msg));
                }
            }
        }
    }

    // (protocol, the view whose leader tallies shares for B₁): chained
    // tallies the votes NewViews carry into view 2; basic tallies the
    // Votes for its own view-1 proposal.
    for (kind, view) in [(ProtocolKind::HotStuff1, 2), (ProtocolKind::HotStuff1Basic, 1)] {
        let c = cfg(7);
        let registry = PublicKeyRegistry::derive(c.deployment_seed, 7);
        let me = c.leader_of(View(view));
        let leader = build_replica(kind, c.clone(), me, Fault::Honest, ExecConfig::default());
        let mut probe = Probe { leader, me, proposed: Vec::new(), certs: Vec::new() };
        probe.leader.on_init(SimTime::ZERO, &mut Vec::new());
        let newview = |dest: u64, vote| {
            let high_cert = Certificate::genesis();
            Message::NewView(NewViewMsg { dest_view: View(dest), high_cert, vote })
        };

        // The leader comes to hold B₁ and casts its own (valid) share.
        let b1 = if view == 2 {
            let l1 = c.leader_of(View(1));
            let b1 = Block::new(l1, View(1), Slot::FIRST, Certificate::genesis(), txs(2));
            let block = Arc::new(b1);
            let id = block.id();
            probe.deliver(l1, Message::Propose(ProposeMsg { block, commit_cert: None }));
            id
        } else {
            (0..7).for_each(|r| probe.deliver(ReplicaId(r), newview(1, None)));
            probe.proposed.first().expect("view-1 leader proposed B₁ on n NewViews").id()
        };
        probe.certs.clear(); // B₁'s own justify is genesis

        let share_from = |r: ReplicaId, valid: bool| {
            let bytes = Certificate::signing_bytes(CertKind::Quorum, View(1), Slot::FIRST, b1);
            let share = match valid {
                true => KeyPair::derive(c.deployment_seed, r.0).sign(domains::PROPOSE_VOTE, &bytes),
                false => Signature([0xAB; 32]),
            };
            let vote = VoteInfo { view: View(1), slot: Slot::FIRST, block: b1, share };
            if view == 2 {
                newview(2, Some(vote))
            } else {
                Message::Vote(VoteMsg { vote })
            }
        };
        let others: Vec<ReplicaId> = (0..7).map(ReplicaId).filter(|r| *r != me).collect();
        // Five shares with the leader's own, one of them garbage: four
        // valid, no quorum.
        for (i, &r) in others[..4].iter().enumerate() {
            probe.deliver(r, share_from(r, i != 1));
        }
        assert!(probe.certs.is_empty(), "{kind:?}: P(1) on 4 valid shares: {:?}", probe.certs);
        // The fifth valid share completes n − f.
        probe.deliver(others[4], share_from(others[4], true));
        let p1 = probe.certs.first().unwrap_or_else(|| panic!("{kind:?}: no P(1) on n − f shares"));
        assert_eq!((p1.view, p1.block), (View(1), b1), "{kind:?}");
        for cert in &probe.certs {
            assert!(cert.verify(&registry, c.quorum()), "{kind:?}: leader emitted {cert:?}");
        }
    }
}

// -- each certificate verified once per replica ---------------------------------

/// A certificate costs n − f HMACs to verify. A replica meets the same one
/// more than once — its tally forms it and its own proposal carries it
/// back; a proposal carries it and a NewView again — and verifies it once.
/// Counted by the metrics-only `certs_verified`.
mod verify_once {
    use super::*;
    use hs1_core::persist::{Persistence, RecoveredState};
    use hs1_core::replica::{Action, Timer};
    use hs1_obs::{Clock, Observer, TraceEvent};
    use hs1_types::{BlockId, CommittedLog, Message, SimTime, View};
    use std::sync::{Arc, Mutex};

    const N: usize = 4;

    /// `certs_verified` per replica: an observer that keeps that counter.
    #[derive(Clone, Default)]
    struct Verified(Arc<Mutex<[u64; N]>>);

    impl Verified {
        fn at(&self, r: ReplicaId) -> u64 {
            self.0.lock().unwrap()[r.0 as usize]
        }

        fn handle(&self) -> hs1_obs::Obs {
            hs1_obs::Obs::new(Arc::new(Mutex::new(self.clone())), Clock::manual())
        }
    }

    impl Observer for Verified {
        fn on_event(&mut self, _ev: TraceEvent) {}
        fn add_counter(&mut self, actor: u32, name: &'static str, _idx: u32, delta: u64) {
            if name == "certs_verified" {
                self.0.lock().unwrap()[actor as usize] += delta;
            }
        }
        fn set_gauge(&mut self, _actor: u32, _name: &'static str, _idx: u32, _value: u64) {}
        fn observe(&mut self, _actor: u32, _name: &'static str, _nanos: u64) {}
        fn flush(&mut self) {}
    }

    /// One message step: who took it, on what from whom, in which view,
    /// and how many certificates it verified.
    struct Step {
        at: ReplicaId,
        kind: &'static str,
        from: ReplicaId,
        view: View,
        verified: u64,
    }

    /// An engine whose message steps are written down.
    struct Counted {
        inner: Box<dyn Replica>,
        verified: Verified,
        steps: Arc<Mutex<Vec<Step>>>,
    }

    impl Replica for Counted {
        fn id(&self) -> ReplicaId {
            self.inner.id()
        }
        fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
            self.inner.on_init(now, out);
        }
        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: Message,
            now: SimTime,
            out: &mut Vec<Action>,
        ) {
            let (at, kind, view) = (self.id(), msg.kind_name(), self.inner.current_view());
            let before = self.verified.at(at);
            self.inner.on_message(from, msg, now, out);
            let verified = self.verified.at(at) - before;
            self.steps.lock().unwrap().push(Step { at, kind, from, view, verified });
        }
        fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
            self.inner.on_timer(timer, now, out);
        }
        fn enqueue_txs(&mut self, txs: &[Transaction]) {
            self.inner.enqueue_txs(txs);
        }
        fn current_view(&self) -> View {
            self.inner.current_view()
        }
        fn committed_head(&self) -> BlockId {
            self.inner.committed_head()
        }
        fn committed_chain(&self) -> Vec<BlockId> {
            self.inner.committed_chain()
        }
        fn committed_log(&self) -> CommittedLog {
            self.inner.committed_log()
        }
        fn committed_len(&self) -> usize {
            self.inner.committed_len()
        }
        fn set_persistence(&mut self, persist: Box<dyn Persistence>) {
            self.inner.set_persistence(persist);
        }
        fn restore(&mut self, state: RecoveredState) {
            self.inner.restore(state);
        }
        fn state_root(&self) -> hs1_crypto::Digest {
            self.inner.state_root()
        }
    }

    /// Counted HotStuff-1 engines at n = 4.
    fn counted(verified: &Verified, steps: &Arc<Mutex<Vec<Step>>>) -> Vec<Box<dyn Replica>> {
        (0..N)
            .map(|i| {
                let me = ReplicaId(i as u32);
                let kind = ProtocolKind::HotStuff1;
                let mut inner =
                    build_replica(kind, cfg(N), me, Fault::Honest, ExecConfig::default());
                inner.set_observer(verified.handle());
                let steps = steps.clone();
                Box::new(Counted { inner, verified: verified.clone(), steps }) as Box<dyn Replica>
            })
            .collect()
    }

    #[test]
    fn counted_engines_report_the_whole_committed_chain() {
        let steps = Arc::new(Mutex::new(Vec::new()));
        assert_wrappers_report_the_whole_chain(counted(&Verified::default(), &steps));
    }

    /// Fault-free HotStuff-1 at n = 4: a backup verifies the justify of
    /// each view's proposal, once; a leader verifies nothing for the
    /// certificate its tally formed, neither when forming it nor when its
    /// own proposal brings it back; NewViews, which carry certificates
    /// already seen, cost nothing.
    #[test]
    fn hotstuff1_verifies_each_certificate_once_per_replica() {
        let verified = Verified::default();
        let steps = Arc::new(Mutex::new(Vec::new()));
        let mut net = TestNet::new(counted(&verified, &steps), SimDuration::from_micros(200));
        net.inject(&txs(256));
        net.init();
        net.run_for(SimDuration::from_millis(40));
        net.assert_prefix_agreement(&[0, 1, 2, 3]);

        let steps = steps.lock().unwrap();
        let views = steps.iter().map(|s| s.view.0).max().unwrap_or(0);
        assert!(views >= 32, "only {views} views");
        for s in steps.iter() {
            let (at, from, v, kind) = (s.at, s.from, s.view.0, s.kind);
            let most = match kind {
                "Propose" if from != at => 1,
                _ => 0,
            };
            assert!(
                s.verified <= most,
                "replica {at:?} verified {} certificates on a {kind} from {from:?} in view {v}",
                s.verified
            );
        }
        for r in (0..N as u32).map(ReplicaId) {
            let foreign_views: std::collections::BTreeSet<u64> = steps
                .iter()
                .filter(|s| s.at == r && s.kind == "Propose" && s.from != r)
                .map(|s| s.view.0)
                .collect();
            assert!(verified.at(r) <= foreign_views.len() as u64, "{r:?}: {}", verified.at(r));
        }
    }
}

// -- a certificate or a proposal a replica cannot use yet -----------------------

/// The driver's one rule each for a certificate whose body is missing, a
/// proposal for a view already left, and a message parked on a body.
mod not_yet_usable {
    use super::{cfg, txs, ExecConfig, Fault, ProtocolKind, Replica, ReplicaId, Transaction};
    use hs1_core::build_replica;
    use hs1_core::replica::{Action, Timer};
    use hs1_types::message::ProposeMsg;
    use hs1_types::{Block, BlockId, Certificate, Message, SimTime, Slot, View};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// `(from, to, message)`.
    type Msg = (ReplicaId, ReplicaId, Message);

    /// Real engines wired by hand: no clock and no timers, one delivery at
    /// a time in send order. What `hold` picks is set aside instead of
    /// delivered, so a test decides when its replica sees it.
    struct Wire {
        engines: Vec<Box<dyn Replica>>,
        queue: VecDeque<Msg>,
        held: Vec<Msg>,
    }

    impl Wire {
        fn new(kind: ProtocolKind, n: usize) -> Wire {
            let engines = (0..n as u32)
                .map(|i| {
                    build_replica(kind, cfg(n), ReplicaId(i), Fault::Honest, ExecConfig::default())
                })
                .collect();
            let mut w = Wire { engines, queue: VecDeque::new(), held: Vec::new() };
            for i in 0..n {
                let mut out = Vec::new();
                w.engines[i].on_init(SimTime::ZERO, &mut out);
                w.sent(ReplicaId(i as u32), &out);
            }
            w
        }

        fn sent(&mut self, from: ReplicaId, out: &[Action]) {
            for a in out {
                match a {
                    Action::Send { to, msg } => self.queue.push_back((from, *to, msg.clone())),
                    Action::Broadcast { msg } => {
                        for to in (0..self.engines.len() as u32).map(ReplicaId) {
                            self.queue.push_back((from, to, msg.clone()));
                        }
                    }
                    _ => {}
                }
            }
        }

        /// Deliver one message at `now`; what the receiver does is
        /// returned, and what it sends is queued.
        fn deliver(&mut self, (from, to, msg): Msg, now: SimTime) -> Vec<Action> {
            let mut out = Vec::new();
            self.engines[to.0 as usize].on_message(from, msg, now, &mut out);
            self.sent(to, &out);
            out
        }

        /// Every replica `to` picks gets `txs` as client requests.
        fn load(&mut self, to: impl Fn(ReplicaId) -> bool, txs: &[Transaction]) {
            for r in (0..self.engines.len() as u32).map(ReplicaId).filter(|r| to(*r)) {
                for tx in txs {
                    self.deliver((r, r, Message::Request(*tx)), SimTime::ZERO);
                }
            }
        }

        /// Deliver in send order until only what `hold` set aside is left.
        fn run(&mut self, hold: impl Fn(&Msg) -> bool) {
            while let Some(m) = self.queue.pop_front() {
                if hold(&m) {
                    self.held.push(m);
                } else {
                    self.deliver(m, SimTime::ZERO);
                }
            }
        }

        /// Take the held messages `pick` selects, in the order they were sent.
        fn release(&mut self, pick: impl Fn(&Msg) -> bool) -> Vec<Msg> {
            let (picked, rest) = std::mem::take(&mut self.held).into_iter().partition(pick);
            self.held = rest;
            picked
        }
    }

    fn proposal_of(m: &Message) -> Option<&Arc<Block>> {
        match m {
            Message::Propose(p) => Some(&p.block),
            _ => None,
        }
    }

    fn fetches(out: &[Action]) -> Vec<(ReplicaId, BlockId)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { to, msg: Message::FetchBlock { id } } => Some((*to, *id)),
                _ => None,
            })
            .collect()
    }

    /// The votes `out` carries, in order: `(destination view of the
    /// NewView carrying it — 0 for a basic ProposeVote —, voted view)`.
    fn votes(out: &[Action]) -> Vec<(u64, u64)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { msg: Message::NewView(nv), .. } => {
                    nv.vote.map(|v| (nv.dest_view.0, v.view.0))
                }
                Action::Send { msg: Message::Vote(v), .. } => Some((0, v.vote.view.0)),
                _ => None,
            })
            .collect()
    }

    /// The QC a streamlined leader used to drop: the leader of view 3
    /// timed out of view 2 without `B₂`, and the n − f NewViews carrying
    /// votes for `B₂` reach it before the body does. It proposes on P(2)
    /// in the step that completes the quorum and asks a voter for `B₂`
    /// (it used to sit out `ShareTimer`, 3Δ, and orphan a block or two);
    /// when the body arrives it votes on its own parked proposal. `late`:
    /// its own proposal comes back a view timer after the first request,
    /// so the body is asked for again — of a peer, never of itself.
    /// Loaded: the wire fires no timers, and a streamlined leader with an
    /// empty pool and nothing to answer waits for `ProposeAt`, so views 1
    /// and 2 would never propose.
    #[test]
    fn leader_proposes_on_a_certificate_it_formed_before_the_body_arrived() {
        let view_timer = cfg(4).view_timer;
        for kind in [ProtocolKind::HotStuff2, ProtocolKind::HotStuff1] {
            for late in [false, true] {
                let ctx = format!("{kind:?}, late {late}");
                let leader = ReplicaId(3);
                let mut w = Wire::new(kind, 4);
                w.load(|_| true, &txs(64));
                w.run(|(_, to, m)| {
                    *to == leader
                        && match m {
                            Message::Propose(p) => p.block.view == View(2),
                            Message::NewView(nv) => nv.dest_view == View(3),
                            _ => false,
                        }
                });
                let b2 = w.release(|(_, _, m)| proposal_of(m).is_some());
                let b2 = proposal_of(&b2[0].2).expect("B₂, held back").id();
                let newviews = w.release(|_| true);
                assert_eq!(newviews.len(), 3, "{ctx}: every other replica voted for B₂");
                let voters: Vec<ReplicaId> = newviews.iter().map(|m| m.0).collect();

                let l = &mut w.engines[leader.0 as usize];
                l.on_timer(Timer::ViewTimeout(View(2)), SimTime::ZERO, &mut Vec::new());
                assert_eq!(l.current_view(), View(3), "{ctx}");
                let mut out = Vec::new();
                for m in newviews {
                    assert!(out.is_empty(), "{ctx}: nothing to do short of a quorum: {out:?}");
                    out = w.deliver(m, SimTime::ZERO);
                }
                let b3 = out
                    .iter()
                    .find_map(|a| match a {
                        Action::Broadcast { msg } => proposal_of(msg).cloned(),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("{ctx}: no proposal on the quorum: {out:?}"));
                assert_eq!((b3.view, b3.justify.view, b3.justify.block), (View(3), View(2), b2));
                let asked = fetches(&out);
                assert_eq!(asked.len(), 1, "{ctx}: {asked:?}");
                assert!(asked[0].1 == b2 && voters.contains(&asked[0].0), "{ctx}: {asked:?}");
                let waits =
                    |a: &Action| matches!(a, Action::SetTimer { timer: Timer::LeaderWait(_), .. });
                assert!(!out.iter().any(waits), "{ctx}: armed LeaderWait: {out:?}");

                // Its own proposal comes back before the body: parked.
                let own = Message::Propose(ProposeMsg { block: b3.clone(), commit_cert: None });
                let now = if late { SimTime::ZERO + view_timer } else { SimTime::ZERO };
                let out = w.deliver((leader, leader, own), now);
                assert!(votes(&out).is_empty(), "{ctx}: voted without B₂: {out:?}");
                let again = fetches(&out);
                assert_eq!(again.len(), usize::from(late), "{ctx}: {again:?}");
                assert!(
                    again.iter().all(|(to, id)| *to != leader && *id == b2),
                    "{ctx}: {again:?}"
                );

                // The voter answers; the parked proposal is voted on.
                let out = w.deliver((leader, asked[0].0, Message::FetchBlock { id: b2 }), now);
                let Some(Action::Send { msg: resp @ Message::FetchResp { .. }, .. }) = out.first()
                else {
                    panic!("{ctx}: the voter holds B₂: {out:?}");
                };
                let out = w.deliver((asked[0].0, leader, resp.clone()), now);
                assert_eq!(votes(&out), [(4, 3)], "{ctx}: {out:?}");
            }
        }
    }

    /// Basic HotStuff-1 used to ignore a NewView's higher certificate
    /// until the certified body was there, and never asked for the body.
    #[test]
    fn basic_adopts_a_newviews_certificate_without_the_body_and_fetches_it() {
        let x = ReplicaId(2);
        let mut w = Wire::new(ProtocolKind::HotStuff1Basic, 4);
        w.run(|(_, to, m)| {
            *to == x && matches!(m, Message::Propose(_) | Message::Prepare(_) | Message::NewView(_))
        });
        let newview = w.release(|(_, _, m)| matches!(m, Message::NewView(nv) if nv.vote.is_some()));
        let (from, _, Message::NewView(nv)) = newview[0].clone() else { unreachable!() };
        let p1 = nv.high_cert;
        assert_eq!(p1.view, View(1), "the others prepared B₁ without replica 2");

        let out = w.deliver(newview[0].clone(), SimTime::ZERO);
        assert_eq!(fetches(&out), [(from, p1.block)], "{out:?}");
        // What it adopted is what its own NewView reports.
        let mut out = Vec::new();
        w.engines[x.0 as usize].on_timer(Timer::ViewTimeout(View(1)), SimTime::ZERO, &mut out);
        let reported = out.iter().find_map(|a| match a {
            Action::Send { msg: Message::NewView(nv), .. } => Some(nv.high_cert.clone()),
            _ => None,
        });
        assert_eq!(reported, Some(p1));
    }

    /// Replica 3 misses `B₁`; the Prepare for it and the view-2 proposal
    /// that extends it park on that one body. When it arrives they are
    /// re-delivered in the order they came: Prepare first, the replica
    /// commit-votes view 1 and then votes in view 2; proposal first, it
    /// jumps to view 2 and the Prepare is stale. (Proposals used to go
    /// first whatever the order.)
    #[test]
    fn messages_parked_on_one_body_are_redelivered_in_arrival_order() {
        for prepare_first in [true, false] {
            let x = ReplicaId(3);
            let mut w = Wire::new(ProtocolKind::HotStuff1Basic, 4);
            w.run(|(_, to, m)| {
                let parkable = matches!(m, Message::Propose(_) | Message::Prepare(_));
                *to == x && (parkable || matches!(m, Message::NewView(_)))
            });
            let prepare =
                w.release(|(_, _, m)| matches!(m, Message::Prepare(p) if p.cert.view == View(1)));
            let propose = w.release(|(_, _, m)| proposal_of(m).is_some_and(|b| b.view == View(2)));
            let b1 = proposal_of(&propose[0].2).expect("B₂").justify.block;
            let mut arrivals = [prepare[0].clone(), propose[0].clone()];
            if !prepare_first {
                arrivals.reverse();
            }
            let holder = arrivals[0].0;
            let [first, second] = arrivals.map(|m| w.deliver(m, SimTime::ZERO));
            assert_eq!(fetches(&first), [(holder, b1)], "asked once, of the first sender");
            assert!(fetches(&second).is_empty() && votes(&second).is_empty(), "{second:?}");

            let out = w.deliver((x, holder, Message::FetchBlock { id: b1 }), SimTime::ZERO);
            let Some(Action::Send { msg: resp @ Message::FetchResp { .. }, .. }) = out.first()
            else {
                panic!("replica {holder:?} holds B₁: {out:?}");
            };
            let out = w.deliver((holder, x, resp.clone()), SimTime::ZERO);
            let expected: &[(u64, u64)] = if prepare_first { &[(2, 1), (0, 2)] } else { &[(0, 2)] };
            assert_eq!(votes(&out), expected, "prepare first: {prepare_first}: {out:?}");
        }
    }

    /// A proposal for a view the replica has left is stored and not acted
    /// on, under every protocol: its transactions are suppressed while it
    /// could still commit and come back once the chain has passed it.
    /// (Basic used to drop it, body and all.) Loaded, except replica `x`
    /// whose pool is watched: the wire fires no timers, and a streamlined
    /// leader with an empty pool and nothing to answer waits for
    /// `ProposeAt`, so views 1 to 5 would not all propose.
    #[test]
    fn stale_proposals_transactions_return_to_the_pool_under_basic_as_under_chained() {
        for kind in [ProtocolKind::HotStuff1Basic, ProtocolKind::HotStuff1] {
            let (x, l1) = (ReplicaId(0), ReplicaId(1));
            let mut w = Wire::new(kind, 7);
            w.load(|r| r != x, &txs(64));
            let from_view =
                |v: u64| move |(_, _, m): &Msg| proposal_of(m).is_some_and(|b| b.view >= View(v));
            w.run(from_view(3));
            assert_eq!(w.engines[0].current_view(), View(3), "{kind:?}");

            // The other half of an equivocation in view 1, arriving late.
            let tx = Transaction::kv_write(9, 1, 2, 3);
            w.load(|r| r == x, &[tx]);
            let stale = Block::new(l1, View(1), Slot::FIRST, Certificate::genesis(), vec![tx]);
            let stale = Message::Propose(ProposeMsg { block: Arc::new(stale), commit_cert: None });
            let out = w.deliver((l1, x, stale), SimTime::ZERO);
            assert!(out.is_empty(), "{kind:?}: acted on a stale proposal: {out:?}");
            assert_eq!(w.engines[0].pool_stats().depth, 0, "{kind:?}: stored, so suppressed");

            // Views 3 to 5 commit past view 1.
            let held = w.release(|_| true);
            w.queue.extend(held);
            w.run(from_view(6));
            assert!(w.engines[0].committed_len() > 2, "{kind:?}");
            assert_eq!(w.engines[0].pool_stats().depth, 1, "{kind:?}: returned");
        }
    }
}

// -- the epoch boundary: crossed on a vote, synchronized after a timeout ----------

mod epoch_boundary {
    use super::*;
    use hs1_types::{Message, SimTime, View};

    /// The protocols whose views end on a vote. Slotted HotStuff-1 ends
    /// every view on its timer (§6).
    const VOTE_EXIT: [ProtocolKind; 4] = [
        ProtocolKind::HotStuff,
        ProtocolKind::HotStuff2,
        ProtocolKind::HotStuff1,
        ProtocolKind::HotStuff1Basic,
    ];
    const TAU: SimDuration = SimDuration::from_millis(10);

    fn sent(net: &TestNet, kind: &str) -> u64 {
        net.sent.get(kind).copied().unwrap_or(0)
    }

    fn views(net: &TestNet) -> Vec<u64> {
        net.engines.iter().map(|e| e.current_view().0).collect()
    }

    /// Run until every listed replica has committed more than it had;
    /// fail if `deadline` comes first.
    fn all_commit_by(net: &mut TestNet, replicas: &[usize], deadline: SimTime, what: &str) {
        let before: Vec<usize> = replicas.iter().map(|&r| net.committed_at(r).len()).collect();
        while net.now < deadline {
            net.run_for(SimDuration::from_micros(100));
            if replicas.iter().zip(&before).all(|(&r, &b)| net.committed_at(r).len() > b) {
                return;
            }
        }
        panic!(
            "{what}: no commit at every replica of {replicas:?} by {deadline:?}: views {:?}",
            views(net)
        );
    }

    /// Loaded for the whole window: a streamlined leader with an empty pool
    /// and nothing to answer waits for `ProposeAt` (one view per view
    /// timer), so the default 64 transactions would not carry the views
    /// past eight epochs in 60 ms. `idle_leader` checks the same at zero
    /// load.
    #[test]
    fn fault_free_vote_exit_protocols_never_synchronize() {
        for n in [4, 7] {
            let boundaries = 8 * cfg(n).epoch_len();
            for kind in VOTE_EXIT {
                let mut net = net_for(kind, n, vec![]);
                net.inject(&txs(512));
                net.run_for(SimDuration::from_millis(60));
                let what = format!("{kind:?} n={n}: views {:?}, sent {:?}", views(&net), net.sent);
                assert!(views(&net).iter().all(|&v| v > boundaries), "{what}");
                assert_eq!((sent(&net, "Wish"), sent(&net, "Tc")), (0, 0), "{what}");
                assert!(committed_counts(&net, n).iter().all(|&c| c > 8), "{what}");
            }
            // Slotted views end on the timer: Fig. 3's round, every boundary.
            let mut net = net_for(ProtocolKind::HotStuff1Slotted, n, vec![]);
            net.run_for(TAU * (boundaries + 2));
            let what = format!("slotted n={n}: views {:?}, sent {:?}", views(&net), net.sent);
            assert!(views(&net).iter().all(|&v| v > boundaries), "{what}");
            let rounds = sent(&net, "Wish") / (n as u64 * cfg(n).epoch_len());
            assert!(rounds >= 8 && sent(&net, "Tc") >= 8 * n as u64, "{what}");
        }
    }

    /// Liveness point (ii). Replica `r`, the first leader of the epoch it
    /// fails to reach, is cut off from the proposal of the previous epoch's
    /// last view onward. It times out there, Wishes alone and parks; the
    /// others crossed on their votes and never Wish, so no TC can form.
    /// If only a TC released a park, `r` would sit at the boundary for
    /// good (its view would read `boundary` at the end) and every view it
    /// leads would time out.
    #[test]
    fn replica_that_missed_the_last_proposal_parks_and_is_released_by_the_next_one() {
        for n in [4, 7] {
            let c = cfg(n);
            let boundary = View(2 * c.epoch_len());
            let r = c.leader_of(boundary);
            let mut net = net_for(ProtocolKind::HotStuff1, n, vec![]);
            net.drop = Box::new(move |_, to, m| {
                let before = match m {
                    Message::Propose(p) => p.block.view.next() < boundary,
                    Message::NewView(nv) => nv.dest_view < boundary,
                    _ => false,
                };
                to == r && !before
            });
            // `r` stays in the last view until its epoch's schedule runs out.
            net.run_until(SimTime::ZERO + TAU * c.epoch_len() + c.delta * 2);
            let leaders = c.epoch_len();
            assert_eq!(net.engines[r.0 as usize].current_view(), boundary, "n={n}");
            assert_eq!((sent(&net, "Wish"), sent(&net, "Tc")), (leaders, 0), "n={n}: parked alone");
            let entered = |net: &TestNet| {
                net.log.iter().any(
                    |o| matches!(o, Obs::EnteredView { at, view } if *at == r && *view >= boundary),
                )
            };
            assert!(!entered(&net), "n={n}: parked, not entered");

            net.drop = Box::new(|_, _, _| false);
            net.run_for(TAU);
            let vs = views(&net);
            assert!(entered(&net) && vs.iter().all(|&v| v == vs[0]), "n={n}: views {vs:?}");
            assert_eq!((sent(&net, "Wish"), sent(&net, "Tc")), (leaders, 0), "n={n}: no round ran");
            let (all, deadline) = ((0..n).collect::<Vec<_>>(), net.now + TAU);
            all_commit_by(&mut net, &all, deadline, "after the release");
        }
    }

    /// Liveness point (iii). A silent replica that leads an epoch's first
    /// view costs that view only: the next one succeeds, so the boundary
    /// after it is crossed on votes again and no round runs. One that leads
    /// an epoch's *last* view makes every replica reach the boundary on a
    /// timeout, and that boundary runs the full round. At n = 4 a replica's
    /// place in the epoch is fixed (4 = 2 epochs of 2); at n = 7 replica 3
    /// leads views 3 (first), 10 (middle), 17 (last), so both happen.
    /// If a timed-out boundary were scheduled from the local clock too, no
    /// Wish would be sent in the second and third case; if a voted boundary
    /// still ran the round, the first case would show Wishes.
    #[test]
    fn silent_leader_costs_a_round_only_where_it_ends_the_epoch() {
        for (n, silent, rounds) in [(4, 2, false), (4, 3, true), (7, 3, true)] {
            for kind in
                [ProtocolKind::HotStuff2, ProtocolKind::HotStuff1, ProtocolKind::HotStuff1Basic]
            {
                let mut net = net_for(kind, n, vec![(silent, Fault::Silent)]);
                net.run_for(SimDuration::from_millis(400));
                let correct: Vec<usize> = (0..n).filter(|r| *r != silent).collect();
                let what = format!("{kind:?} n={n} silent={silent}: sent {:?}", net.sent);
                assert!(correct.iter().all(|&r| net.committed_at(r).len() >= 20), "{what}");
                net.assert_prefix_agreement(&correct);
                assert_eq!(sent(&net, "Tc") > 0, rounds, "{what}");
                assert_eq!(sent(&net, "Wish") > 0, rounds, "{what}");
            }
        }
    }

    /// Mixed crossing. The proposal of an epoch's last view reaches f + 1
    /// correct replicas, who vote and cross at once; the other n − f − 1
    /// time out of that view an epoch's schedule later, Wish and park. The
    /// crossers' own views fail meanwhile (no quorum), so they reach the
    /// next boundary on timeouts and Wish there (iii); the parked replicas'
    /// second re-wish escalates to that boundary, and its TC re-aligns
    /// everyone. Bound: every replica commits again within (f + 5) view
    /// timers of the drop: f + 1 for the laggards to leave their epoch, 2
    /// for the ladder to reach the next boundary, 1 for the first view
    /// after the TC (the released replicas sent it no NewView), 1 of
    /// slack. Fig. 3 as written takes f + 2. If a vote-crosser that timed
    /// out did not Wish at the next boundary, or the ladder did not
    /// escalate, no TC would form and the two groups would stay apart.
    #[test]
    fn mixed_crossing_realigns_at_the_next_boundary() {
        for n in [4usize, 7] {
            let c = cfg(n);
            let (f, all) = (c.f() as u64, (0..n).collect::<Vec<_>>());
            let last = View(2 * c.epoch_len() - 1);
            // The laggards include the next epoch's leaders: the worst case.
            let laggards: Vec<u32> =
                (0..(n as u64 - f - 1)).map(|k| c.leader_of(View(last.0 + 1 + k)).0).collect();
            for kind in VOTE_EXIT {
                let mut net = net_for(kind, n, vec![]);
                let (lag, basic) = (laggards.clone(), kind == ProtocolKind::HotStuff1Basic);
                // What a replica votes and leaves the view on.
                net.drop = Box::new(move |_, to, m| {
                    lag.contains(&to.0)
                        && match m {
                            Message::Prepare(p) => p.cert.view == last,
                            Message::Propose(p) => !basic && p.block.view == last,
                            _ => false,
                        }
                });
                net.run_for(TAU);
                let vs = views(&net);
                let split = vs.contains(&last.0) && vs.iter().any(|&v| v > last.0);
                assert!(split, "{kind:?} n={n}: views {vs:?}");
                let deadline = SimTime::ZERO + TAU * (f + 5);
                all_commit_by(&mut net, &all, deadline, &format!("{kind:?} n={n}"));
                assert!(sent(&net, "Tc") > 0, "{kind:?} n={n}: re-aligned by a TC");
                net.assert_prefix_agreement(&all);
            }
        }
    }
}

// -- a streamlined leader with nothing to answer holds its proposal ----------------

mod idle_leader {
    use super::*;
    use hs1_core::persist::{Persistence, RecoveredState};
    use hs1_core::replica::{Action, Timer};
    use hs1_types::{BlockId, CommittedLog, Message, SimTime, View};
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    const CHAINED: [ProtocolKind; 3] =
        [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2, ProtocolKind::HotStuff];
    const N: usize = 4;

    /// What an engine step took in.
    #[derive(Clone, Copy, Debug)]
    enum Input {
        Init,
        Msg(&'static str),
        Timer(Timer),
    }

    /// Every step of every engine, in order: who, on what, and its actions.
    type Steps = Arc<Mutex<Vec<(ReplicaId, Input, Vec<Action>)>>>;

    /// An engine that writes down each of its steps.
    struct Spy {
        inner: Box<dyn Replica>,
        steps: Steps,
    }

    impl Spy {
        fn step(
            &mut self,
            input: Input,
            out: &mut Vec<Action>,
            f: impl FnOnce(&mut dyn Replica, &mut Vec<Action>),
        ) {
            let before = out.len();
            f(self.inner.as_mut(), out);
            let me = self.inner.id();
            self.steps.lock().unwrap().push((me, input, out[before..].to_vec()));
        }
    }

    impl Replica for Spy {
        fn id(&self) -> ReplicaId {
            self.inner.id()
        }
        fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
            self.step(Input::Init, out, |e, out| e.on_init(now, out));
        }
        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: Message,
            now: SimTime,
            out: &mut Vec<Action>,
        ) {
            self.step(Input::Msg(msg.kind_name()), out, |e, out| e.on_message(from, msg, now, out));
        }
        fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
            self.step(Input::Timer(timer), out, |e, out| e.on_timer(timer, now, out));
        }
        fn enqueue_txs(&mut self, txs: &[Transaction]) {
            self.inner.enqueue_txs(txs);
        }
        fn current_view(&self) -> View {
            self.inner.current_view()
        }
        fn committed_head(&self) -> BlockId {
            self.inner.committed_head()
        }
        fn committed_chain(&self) -> Vec<BlockId> {
            self.inner.committed_chain()
        }
        fn committed_log(&self) -> CommittedLog {
            self.inner.committed_log()
        }
        fn committed_len(&self) -> usize {
            self.inner.committed_len()
        }
        fn set_persistence(&mut self, persist: Box<dyn Persistence>) {
            self.inner.set_persistence(persist);
        }
        fn restore(&mut self, state: RecoveredState) {
            self.inner.restore(state);
        }
        fn state_root(&self) -> hs1_crypto::Digest {
            self.inner.state_root()
        }
    }

    /// Spied engines of `kind` at n = 4, with `faults`.
    fn spies(
        kind: ProtocolKind,
        faults: &[(usize, Fault)],
        steps: &Steps,
    ) -> Vec<Box<dyn Replica>> {
        (0..N)
            .map(|i| {
                let fault =
                    faults.iter().find(|(r, _)| *r == i).map_or(Fault::Honest, |(_, f)| f.clone());
                let inner =
                    build_replica(kind, cfg(N), ReplicaId(i as u32), fault, ExecConfig::default());
                Box::new(Spy { inner, steps: steps.clone() }) as Box<dyn Replica>
            })
            .collect()
    }

    /// An unloaded, initialized cluster of spied engines.
    fn spied(kind: ProtocolKind, faults: &[(usize, Fault)]) -> (TestNet, Steps) {
        let steps = Steps::default();
        let mut net = TestNet::new(spies(kind, faults, &steps), SimDuration::from_micros(200));
        net.init();
        (net, steps)
    }

    #[test]
    fn spied_engines_report_the_whole_committed_chain() {
        let steps = Steps::default();
        assert_wrappers_report_the_whole_chain(spies(ProtocolKind::HotStuff1, &[], &steps));
    }

    fn views(net: &TestNet) -> Vec<u64> {
        net.engines.iter().map(|e| e.current_view().0).collect()
    }

    fn proposals(out: &[Action]) -> Vec<Arc<hs1_types::Block>> {
        out.iter()
            .filter_map(|a| match a {
                Action::Broadcast { msg: Message::Propose(p) } => Some(p.block.clone()),
                _ => None,
            })
            .collect()
    }

    /// Views a replica left on its own timer: a `ViewTimeout` step that did
    /// something (a stale one does nothing).
    fn timed_out(steps: &Steps, replicas: &[usize]) -> BTreeSet<u64> {
        steps
            .lock()
            .unwrap()
            .iter()
            .filter(|(r, _, out)| replicas.contains(&(r.0 as usize)) && !out.is_empty())
            .filter_map(|(_, input, _)| match input {
                Input::Timer(Timer::ViewTimeout(v)) => Some(v.0),
                _ => None,
            })
            .collect()
    }

    /// One request at a time. Each takes the view that proposes its block
    /// and the views whose proposals carry that block to its answer: one
    /// more under HotStuff-1 (speculation), two under HotStuff-2 and three
    /// under HotStuff (commit). Then the next leader holds: the one step
    /// that does anything arms `ProposeAt`, and the network goes quiet.
    #[test]
    fn each_request_takes_the_views_its_answer_needs_then_the_leader_holds() {
        let c = cfg(N);
        for (kind, per_request) in CHAINED.into_iter().zip([2, 3, 4]) {
            let answer = if kind == ProtocolKind::HotStuff1 {
                ReplyKind::Speculative
            } else {
                ReplyKind::Committed
            };
            let (mut net, steps) = spied(kind, &[]);
            net.run_for(SimDuration::from_millis(1));
            for seq in 0..8 {
                let ctx = format!("{kind:?}, request {seq}");
                let before = views(&net);
                assert!(before.iter().all(|&v| v == before[0]), "{ctx}: views {before:?}");
                steps.lock().unwrap().clear();
                let tx = Transaction::kv_write(1, seq, seq, seq);
                net.inject(&[tx]);
                net.run_for(SimDuration::from_millis(3));

                let answered = (0..N).all(|r| {
                    net.log.iter().any(|o| {
                        matches!(o, Obs::Executed { at, block, kind }
                        if at.0 as usize == r && *kind == answer && block.txs.contains(&tx))
                    })
                });
                assert!(answered, "{ctx}: not answered at every replica");
                let after = views(&net);
                assert!(
                    after.iter().all(|&v| v == before[0] + per_request),
                    "{ctx}: {before:?} → {after:?}"
                );

                let steps = steps.lock().unwrap();
                let (who, input, out) =
                    steps.iter().rev().find(|(_, _, out)| !out.is_empty()).expect("steps");
                let held = View(after[0]);
                assert_eq!(
                    *who,
                    c.leader_of(held),
                    "{ctx}: the last step that acted: {input:?} {out:?}"
                );
                assert!(
                    matches!(out.as_slice(), [Action::SetTimer { timer: Timer::ProposeAt(v), .. }] if *v == held),
                    "{ctx}: the held leader did {out:?}"
                );
            }
        }
    }

    /// The step that delivers a request to a held leader proposes it.
    #[test]
    fn a_request_to_a_held_leader_is_proposed_in_that_step() {
        let c = cfg(N);
        for kind in CHAINED {
            let (mut net, steps) = spied(kind, &[]);
            net.run_for(SimDuration::from_millis(1));
            assert_eq!(views(&net), [1; N], "{kind:?}");
            steps.lock().unwrap().clear();
            let tx = Transaction::kv_write(1, 0, 0, 0);
            net.inject(&[tx]);
            let steps = steps.lock().unwrap();
            let leader = c.leader_of(View(1));
            let (_, input, out) =
                steps.iter().find(|(r, _, _)| *r == leader).expect("the leader was stepped");
            assert!(matches!(input, Input::Msg("Request")), "{kind:?}: {input:?}");
            let proposed = proposals(out);
            assert!(
                proposed.len() == 1 && proposed[0].view == View(1) && proposed[0].txs == [tx],
                "{kind:?}: {out:?}"
            );
        }
    }

    /// With no load, every view is proposed on its leader's `ProposeAt`, 3Δ
    /// before the deadline: eight epochs pass with no view timeout, no
    /// Wish, and the replicas in step.
    #[test]
    fn zero_load_views_advance_only_on_propose_at() {
        let c = cfg(N);
        let boundaries = 8 * c.epoch_len();
        for kind in CHAINED {
            let (mut net, steps) = spied(kind, &[]);
            net.run_for(c.view_timer * (boundaries + 2));
            let what = format!("{kind:?}: views {:?}, sent {:?}", views(&net), net.sent);
            assert!(views(&net).iter().all(|&v| v > boundaries), "{what}");
            assert_eq!(net.sent.get("Wish"), None, "{what}");
            assert_eq!(timed_out(&steps, &[0, 1, 2, 3]), BTreeSet::new(), "{what}");
            let steps = steps.lock().unwrap();
            let proposers: Vec<Input> = steps
                .iter()
                .filter(|(_, _, out)| !proposals(out).is_empty())
                .map(|(_, input, _)| *input)
                .collect();
            assert!(proposers.len() as u64 > boundaries, "{what}");
            for input in proposers {
                assert!(matches!(input, Input::Timer(Timer::ProposeAt(_))), "{what}: {input:?}");
            }
            drop(steps);
            // Once a proposal's votes are in, every replica is in one view.
            for _ in 0..10 {
                let vs = views(&net);
                if vs.iter().all(|&v| v == vs[0]) {
                    break;
                }
                net.run_for(SimDuration::from_micros(200));
            }
            let vs = views(&net);
            assert!(vs.iter().all(|&v| v == vs[0]), "{kind:?}: views {vs:?}");
        }
    }

    /// A silent replica never gets to hold: the views it leads time out as
    /// they did before the hold, and only those.
    #[test]
    fn a_silent_leader_still_times_out() {
        let c = cfg(N);
        let silent = 3;
        let correct = [0, 1, 2];
        for kind in CHAINED {
            let (mut net, steps) = spied(kind, &[(silent, Fault::Silent)]);
            net.run_for(SimDuration::from_millis(200));
            let reached = correct.iter().map(|&r| net.engines[r].current_view().0).min().unwrap();
            let led: BTreeSet<u64> =
                (1..reached).filter(|&v| c.leader_of(View(v)).0 as usize == silent).collect();
            let what = format!("{kind:?}: views {:?}", views(&net));
            assert!(led.len() >= 3, "{what}");
            let timed_out = timed_out(&steps, &correct);
            let below: BTreeSet<u64> = timed_out.iter().copied().filter(|&v| v < reached).collect();
            assert_eq!(below, led, "{what}");
        }
    }
}
