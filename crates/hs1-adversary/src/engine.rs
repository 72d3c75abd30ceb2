//! The [`Replica`] wrapper: any engine, adversarial on the wire.
//!
//! [`AdversaryEngine`] delegates every input to the wrapped engine and
//! routes every outbound `Send`/`Broadcast` through the
//! [`AdversaryMutator`]. The inner engine's state is never touched — it
//! processes inbound traffic honestly, commits honestly, and answers
//! introspection (`committed_log`, `state_root`, …) honestly — which is
//! what lets the chaos oracles keep checking the adversary's *local*
//! ledger against the honest cluster while its *external* behavior lies.
//!
//! Two asymmetries:
//!
//! * Loopback sends are never mutated (a process cannot corrupt a message
//!   to itself), and broadcasts are expanded into per-destination sends so
//!   each peer can receive a differently mutated copy.
//! * For the beyond-model [`crate::AdversaryStrategy::ForgeQuorum`]
//!   canary, the wrapper answers `FetchBlock` requests for fabricated
//!   fork blocks itself — the inner honest engine has never seen them.

use hs1_core::persist::{Persistence, RecoveredState};
use hs1_core::replica::{Action, Replica, Timer};
use hs1_types::{BlockId, CommittedLog, Message, ReplicaId, SimTime, View};

use crate::mutator::AdversaryMutator;

/// A consensus engine whose outbound traffic is adversarial. See the
/// module docs.
pub struct AdversaryEngine {
    inner: Box<dyn Replica>,
    mutator: AdversaryMutator,
}

impl AdversaryEngine {
    /// Wrap `inner` with `mutator`. The mutator's replica id must match
    /// the engine's (the wrapper signs equivocal votes as that replica).
    pub fn new(inner: Box<dyn Replica>, mutator: AdversaryMutator) -> AdversaryEngine {
        assert_eq!(inner.id(), mutator.id(), "mutator identity must match the wrapped engine");
        AdversaryEngine { inner, mutator }
    }

    /// Route the inner engine's actions through the mutator: loopback
    /// passes clean, broadcasts fan out per destination, everything else
    /// is untouched. Afterwards, give the ForgeQuorum canary its chance
    /// to inject (it triggers on the inner engine's view progress).
    fn relay(&mut self, actions: Vec<Action>, out: &mut Vec<Action>) {
        let me = self.inner.id();
        for a in actions {
            match a {
                Action::Send { to, msg } if to != me => {
                    for (t, m) in self.mutator.mutate(to, msg) {
                        out.push(Action::Send { to: t, msg: m });
                    }
                }
                Action::Broadcast { msg } => {
                    for r in 0..self.mutator.n() as u32 {
                        let to = ReplicaId(r);
                        if to == me {
                            out.push(Action::Send { to, msg: msg.clone() });
                        } else {
                            for (t, m) in self.mutator.mutate(to, msg.clone()) {
                                out.push(Action::Send { to: t, msg: m });
                            }
                        }
                    }
                }
                other => out.push(other),
            }
        }
        if let Some(msgs) = self.mutator.maybe_forge(self.inner.current_view()) {
            for (to, msg) in msgs {
                out.push(Action::Send { to, msg });
            }
        }
    }
}

impl Replica for AdversaryEngine {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_init(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let mut tmp = Vec::new();
        self.inner.on_init(now, &mut tmp);
        self.relay(tmp, out);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Message, now: SimTime, out: &mut Vec<Action>) {
        // Serve fabricated fork blocks directly (ForgeQuorum only).
        if let Message::FetchBlock { id } = &msg {
            if let Some(block) = self.mutator.forged_block(*id) {
                out.push(Action::Send { to: from, msg: Message::FetchResp { block } });
                return;
            }
        }
        let mut tmp = Vec::new();
        self.inner.on_message(from, msg, now, &mut tmp);
        self.relay(tmp, out);
    }

    fn on_timer(&mut self, timer: Timer, now: SimTime, out: &mut Vec<Action>) {
        let mut tmp = Vec::new();
        self.inner.on_timer(timer, now, &mut tmp);
        self.relay(tmp, out);
    }

    fn enqueue_txs(&mut self, txs: &[hs1_types::Transaction]) {
        self.inner.enqueue_txs(txs);
    }

    fn pool_stats(&self) -> hs1_core::PoolStats {
        self.inner.pool_stats()
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

    fn set_observer(&mut self, obs: hs1_obs::Obs) {
        self.inner.set_observer(obs);
    }

    fn set_persistence(&mut self, persist: Box<dyn Persistence>) {
        self.inner.set_persistence(persist);
    }

    fn restore(&mut self, rs: RecoveredState) {
        self.inner.restore(rs);
    }

    fn state_root(&self) -> hs1_crypto::Digest {
        self.inner.state_root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversaryStrategy;
    use hs1_core::testkit::TestNet;
    use hs1_core::{build_replica, Fault};
    use hs1_ledger::ExecConfig;
    use hs1_types::{ProtocolKind, SystemConfig};

    fn wrapped(strategy: AdversaryStrategy) -> AdversaryEngine {
        let cfg = SystemConfig::new(4);
        let inner = build_replica(
            ProtocolKind::HotStuff1,
            cfg.clone(),
            ReplicaId(1),
            Fault::Honest,
            ExecConfig::default(),
        );
        let mutator =
            AdversaryMutator::new(strategy, cfg, ProtocolKind::HotStuff1, ReplicaId(1), 3);
        AdversaryEngine::new(inner, mutator)
    }

    #[test]
    fn delegates_identity_and_introspection() {
        let e = wrapped(AdversaryStrategy::WithholdVotes);
        assert_eq!(e.id(), ReplicaId(1));
        assert_eq!(e.committed_chain().len(), 1, "genesis only");
        assert_eq!(e.current_view(), View::GENESIS);
    }

    /// Past a replica's window the wrapper still reports the whole chain:
    /// its length and running hash, as the harness recorded every commit.
    #[test]
    fn reports_the_whole_committed_chain_past_the_window() {
        let mut cfg = SystemConfig::new(4);
        cfg.view_timer = hs1_types::SimDuration::from_millis(10);
        cfg.delta = hs1_types::SimDuration::from_millis(1);
        cfg.batch_size = 4;
        let engines = (0..4u32)
            .map(|i| {
                let kind = ProtocolKind::HotStuff1;
                let me = ReplicaId(i);
                let inner =
                    build_replica(kind, cfg.clone(), me, Fault::Honest, ExecConfig::default());
                if i != 1 {
                    return inner;
                }
                // Lies about snapshots only: consensus runs at full speed.
                let strategy = AdversaryStrategy::CorruptSnapshot;
                let mutator = AdversaryMutator::new(strategy, cfg.clone(), kind, me, 3);
                Box::new(AdversaryEngine::new(inner, mutator)) as Box<dyn Replica>
            })
            .collect();
        let mut net = TestNet::new(engines, hs1_types::SimDuration::from_micros(200));
        let txs: Vec<_> = (0..4 * (CommittedLog::WINDOW as u64 + 200))
            .map(|i| hs1_types::Transaction::kv_write(1, i, i * 13, i))
            .collect();
        net.inject(&txs);
        net.init();
        net.run_for(hs1_types::SimDuration::from_millis(1_200));
        net.assert_prefix_agreement(&[0, 1, 2, 3]);
        let (wrapped, record) = (&net.engines[1], net.committed_log(1));
        assert!(record.len() > CommittedLog::WINDOW + 64, "{} blocks committed", record.len());
        assert!(
            wrapped.committed_chain().len() <= CommittedLog::WINDOW,
            "the engine holds its window"
        );
        assert_eq!(wrapped.committed_len(), record.len());
        assert_eq!(wrapped.committed_log().hash(), record.hash());
    }

    #[test]
    fn broadcasts_expand_to_per_destination_sends() {
        let mut e = wrapped(AdversaryStrategy::WithholdVotes);
        let mut out = Vec::new();
        e.on_init(SimTime::ZERO, &mut out);
        // Everything the wrapper emits is a Send or a non-network action;
        // no Broadcast survives the relay.
        assert!(!out.iter().any(|a| matches!(a, Action::Broadcast { .. })));
        assert!(out.iter().any(|a| matches!(a, Action::Send { .. })), "init announces itself");
    }

    #[test]
    fn loopback_is_never_mutated() {
        // A CorruptFetch adversary answering its *own* fetch keeps the
        // body intact: the in-flight check on the inner engine would drop
        // a tampered self-delivery and wedge its own catch-up.
        let mut e = wrapped(AdversaryStrategy::CorruptFetch);
        let actions = vec![Action::Send {
            to: ReplicaId(1),
            msg: Message::FetchBlock { id: BlockId::test(1) },
        }];
        let mut out = Vec::new();
        e.relay(actions, &mut out);
        assert_eq!(out.len(), 1);
        let Action::Send { to, .. } = &out[0] else { panic!() };
        assert_eq!(*to, ReplicaId(1));
    }

    #[test]
    #[should_panic(expected = "mutator identity")]
    fn identity_mismatch_is_rejected() {
        let cfg = SystemConfig::new(4);
        let inner = build_replica(
            ProtocolKind::HotStuff1,
            cfg.clone(),
            ReplicaId(1),
            Fault::Honest,
            ExecConfig::default(),
        );
        let mutator = AdversaryMutator::new(
            AdversaryStrategy::Equivocate,
            cfg,
            ProtocolKind::HotStuff1,
            ReplicaId(2),
            3,
        );
        let _ = AdversaryEngine::new(inner, mutator);
    }
}
