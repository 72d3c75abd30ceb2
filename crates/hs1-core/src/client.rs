//! Client-side finality determination (§3 "Sending early finality
//! confirmations", §4.1 "Client Response").
//!
//! A HotStuff-1 client accepts a transaction as final when it holds
//! `n − f` *matching* responses — same transaction, same block, same
//! execution result. Responses for different blocks are never combined
//! (the prefix speculation dilemma, §3): `f + 1` speculative responses
//! only prove one correct replica prepared the transaction.
//!
//! Committed-kind responses are individually stronger: `f + 1` matching
//! committed responses prove at least one correct replica committed, so a
//! mixed tally finalizes at `n − f` total matching responses *or* `f + 1`
//! matching committed responses, whichever happens first. Baseline
//! (HotStuff / HotStuff-2) clients only ever receive committed responses
//! and use the `f + 1` rule.
//!
//! What a replica answers is [`responses`], whose results are a function
//! of the block's execution digest: a tally by `(block, digest)` is this
//! rule at block grain.

use std::collections::HashMap;

use hs1_crypto::{Digest, Sha256};
use hs1_types::message::ResponseMsg;
use hs1_types::{Block, BlockId, ProtocolKind, ReplicaId, ReplyKind, TxId};

use crate::runset::TxRunSet;

/// What a replica that executed `block` to `digest` answers: one response
/// per transaction, for the client that issued it (`tx.client`), whose
/// result is H(digest ‖ client ‖ seq).
pub fn responses(
    block: &Block,
    digest: Digest,
    kind: ReplyKind,
) -> impl Iterator<Item = ResponseMsg> + '_ {
    let id = block.id();
    block.txs.iter().map(move |tx| {
        let mut h = Sha256::new();
        h.update(&digest.0);
        h.update_u64(tx.id.client.0 as u64);
        h.update_u64(tx.id.seq);
        ResponseMsg { tx: tx.id, block: id, result: h.finalize(), kind, view: block.view }
    })
}

/// A finality quorum of matching responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quorum {
    /// `n − f` matching responses of any kind (HotStuff-1 variants only;
    /// baselines never see a speculative response).
    Matching,
    /// `f + 1` matching committed responses.
    Committed,
}

/// Which finality quorum, if any, a tally of `responses` matching
/// responses, `committed` of them committed-kind, reaches for a client of
/// `protocol` among `n` replicas tolerating `f`: the module's rule, stated
/// once. The `n − f` quorum wins when both are reached.
pub fn quorum_reached(
    n: usize,
    f: usize,
    protocol: ProtocolKind,
    responses: usize,
    committed: usize,
) -> Option<Quorum> {
    if protocol.client_needs_nf_quorum() && responses >= n - f {
        Some(Quorum::Matching)
    } else if committed > f {
        Some(Quorum::Committed)
    } else {
        None
    }
}

/// Tally for one undecided transaction: responses keyed by (block,
/// result digest) → (responders, committed-kind responders).
type TxTally = HashMap<(BlockId, Digest), (Vec<ReplicaId>, usize)>;

/// Client-side response matcher.
pub struct FinalityTracker {
    n: usize,
    f: usize,
    protocol: ProtocolKind,
    /// Undecided transactions only: a tally is dropped on decision.
    pending: HashMap<TxId, TxTally>,
    /// Decided ids, kept compactly and for good, so that a reply arriving
    /// after the decision can never start a second tally. One run per
    /// client that grows at its end, plus a few short ones while
    /// decisions arrive out of order; they merge as the gaps close.
    decided: TxRunSet,
}

impl FinalityTracker {
    pub fn new(n: usize, f: usize, protocol: ProtocolKind) -> FinalityTracker {
        FinalityTracker { n, f, protocol, pending: HashMap::new(), decided: TxRunSet::default() }
    }

    /// Feed one response; returns `Some((tx, block))` when this response
    /// completes a finality quorum — at most once per transaction,
    /// whatever arrives afterwards.
    pub fn on_response(&mut self, from: ReplicaId, r: &ResponseMsg) -> Option<(TxId, BlockId)> {
        if self.is_final(r.tx) {
            return None;
        }
        let tally = self.pending.entry(r.tx).or_default();
        let entry = tally.entry((r.block, r.result)).or_default();
        if entry.0.contains(&from) {
            return None;
        }
        entry.0.push(from);
        if r.kind == ReplyKind::Committed {
            entry.1 += 1;
        }
        quorum_reached(self.n, self.f, self.protocol, entry.0.len(), entry.1)?;
        self.pending.remove(&r.tx);
        self.decided.insert(r.tx);
        Some((r.tx, r.block))
    }

    pub(crate) fn is_final(&self, tx: TxId) -> bool {
        self.decided.contains(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_types::{Certificate, ClientId, Slot, Transaction, View};

    fn resp(tx_seq: u64, block: u64, result: u8, kind: ReplyKind) -> ResponseMsg {
        ResponseMsg {
            tx: TxId::new(ClientId(1), tx_seq),
            block: BlockId::test(block),
            result: Digest([result; 32]),
            kind,
            view: View(1),
        }
    }

    #[test]
    fn hs1_client_needs_nf_speculative() {
        // n = 4, f = 1: n − f = 3 speculative responses required.
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let r = resp(0, 1, 7, ReplyKind::Speculative);
        assert!(t.on_response(ReplicaId(0), &r).is_none());
        assert!(t.on_response(ReplicaId(1), &r).is_none());
        assert!(!t.is_final(r.tx));
        assert!(t.on_response(ReplicaId(2), &r).is_some());
        assert!(t.is_final(r.tx));
    }

    #[test]
    fn f_plus_one_speculative_is_not_final() {
        // The prefix speculation dilemma: f + 1 = 2 speculative responses
        // must NOT finalize (only proves one correct replica prepared).
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let r = resp(0, 1, 7, ReplyKind::Speculative);
        t.on_response(ReplicaId(0), &r);
        t.on_response(ReplicaId(1), &r);
        assert!(!t.is_final(r.tx));
    }

    #[test]
    fn committed_responses_finalize_at_f_plus_one() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let r = resp(0, 1, 7, ReplyKind::Committed);
        assert!(t.on_response(ReplicaId(0), &r).is_none());
        assert!(t.on_response(ReplicaId(1), &r).is_some());
    }

    #[test]
    fn mixed_tally_counts_toward_nf() {
        // 2 speculative + 1 committed (n=4): total 3 = n − f finalizes.
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let s = resp(0, 1, 7, ReplyKind::Speculative);
        let c = resp(0, 1, 7, ReplyKind::Committed);
        t.on_response(ReplicaId(0), &s);
        t.on_response(ReplicaId(1), &s);
        assert!(t.on_response(ReplicaId(2), &c).is_some());
    }

    #[test]
    fn responses_for_different_blocks_never_combine() {
        // The core of the prefix speculation dilemma: same tx, same
        // result, different block → separate groups.
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let a = resp(0, 1, 7, ReplyKind::Speculative);
        let b = resp(0, 2, 7, ReplyKind::Speculative);
        t.on_response(ReplicaId(0), &a);
        t.on_response(ReplicaId(1), &b);
        t.on_response(ReplicaId(2), &b);
        assert!(!t.is_final(a.tx), "2+1 split across blocks is not a quorum");
        assert!(t.on_response(ReplicaId(3), &b).is_some(), "3 matching on block b");
    }

    #[test]
    fn differing_results_never_combine() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let a = resp(0, 1, 7, ReplyKind::Speculative);
        let b = resp(0, 1, 8, ReplyKind::Speculative);
        t.on_response(ReplicaId(0), &a);
        t.on_response(ReplicaId(1), &b);
        t.on_response(ReplicaId(2), &a);
        assert!(!t.is_final(a.tx));
    }

    #[test]
    fn duplicate_responders_ignored() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        let r = resp(0, 1, 7, ReplyKind::Speculative);
        t.on_response(ReplicaId(0), &r);
        t.on_response(ReplicaId(0), &r);
        t.on_response(ReplicaId(0), &r);
        assert!(!t.is_final(r.tx));
    }

    #[test]
    fn baseline_clients_use_f_plus_one_committed() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff2);
        let c = resp(0, 1, 7, ReplyKind::Committed);
        assert!(t.on_response(ReplicaId(0), &c).is_none());
        assert!(t.on_response(ReplicaId(1), &c).is_some());
        // Speculative responses alone never finalize a baseline client —
        // and 3 matching spec responses don't either (no nf rule).
        let mut t2 = FinalityTracker::new(4, 1, ProtocolKind::HotStuff);
        let s = resp(1, 1, 7, ReplyKind::Speculative);
        for i in 0..4 {
            t2.on_response(ReplicaId(i), &s);
        }
        assert!(!t2.is_final(s.tx));
    }

    /// HotStuff-2, four committed replies: the second decides, and the
    /// third and fourth neither decide it again nor start a new tally.
    #[test]
    fn late_replies_never_finalize_twice() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff2);
        let r = resp(0, 1, 7, ReplyKind::Committed);
        assert!(t.on_response(ReplicaId(0), &r).is_none());
        assert_eq!(t.on_response(ReplicaId(1), &r), Some((r.tx, r.block)));
        assert!(t.is_final(r.tx));
        assert!(t.on_response(ReplicaId(2), &r).is_none());
        assert!(t.on_response(ReplicaId(3), &r).is_none());
        assert!(t.pending.is_empty(), "a late reply starts no tally");
    }

    /// What replicas answer is what the tracker matches: n − f replicas
    /// that executed a block to one digest finalize each of its
    /// transactions, at the (n − f)-th response. A replica that executed it
    /// to a second digest answers with other results, which never join
    /// that quorum.
    #[test]
    fn responses_to_one_digest_finalize_every_transaction() {
        let txs = (0..8u64).map(|i| Transaction::kv_write(i as u32 % 3, i, i, i)).collect();
        let block = Block::new(ReplicaId(0), View(1), Slot::FIRST, Certificate::genesis(), txs);
        let (good, bad) = (Digest([1; 32]), Digest([2; 32]));
        let answer = |digest| responses(&block, digest, ReplyKind::Speculative).collect::<Vec<_>>();
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff1);
        for (from, digest) in [(0, good), (1, good), (3, bad)] {
            for r in answer(digest) {
                assert_eq!((r.block, r.view), (block.id(), block.view));
                assert!(t.on_response(ReplicaId(from), &r).is_none(), "two of one result");
            }
        }
        let finals: Vec<_> =
            answer(good).iter().filter_map(|r| t.on_response(ReplicaId(2), r)).collect();
        let issued: Vec<_> = block.txs.iter().map(|tx| (tx.id, block.id())).collect();
        assert_eq!(finals, issued, "the third matching response finalizes each");
    }

    /// Tallies are dropped as they decide, and the decided ids are kept as
    /// runs of consecutive sequence numbers, so nothing grows with the
    /// number of decided transactions.
    #[test]
    fn decided_ids_merge_into_one_run() {
        let mut t = FinalityTracker::new(4, 1, ProtocolKind::HotStuff2);
        // Decide 10k transactions, every other pair out of order.
        for pair in 0..5_000u64 {
            let (a, b) = (2 * pair, 2 * pair + 1);
            for seq in if pair % 2 == 0 { [a, b] } else { [b, a] } {
                let r = resp(seq, seq, 7, ReplyKind::Committed);
                t.on_response(ReplicaId(0), &r);
                assert!(t.on_response(ReplicaId(1), &r).is_some());
            }
        }
        assert!(t.pending.is_empty());
        assert_eq!(t.decided.runs(), [(ClientId(1), 0, 9_999)], "the gaps closed into one run");
        assert!(t.is_final(TxId::new(ClientId(1), 9_999)));
        assert!(!t.is_final(TxId::new(ClientId(1), 10_000)));
    }
}
