//! The client oracle: turns replica-side execution events into client
//! finality times without simulating per-transaction response messages.
//!
//! For every block, the oracle records when each replica's response (of
//! either kind) *arrives at the client* — execution completion plus the
//! replica's response NIC time plus the replica→client link delay — and
//! applies the paper's quorum rule, as [`hs1_core::client::quorum_reached`]
//! states it for clients:
//!
//! * HotStuff-1 family: finality at the `(n−f)`-th matching response, or
//!   at the `(f+1)`-th committed-kind response, whichever is earlier (§3).
//! * Baselines: finality at the `(f+1)`-th committed response.
//!
//! Responses are grouped by block id and execution digest. A replica's
//! per-transaction result ([`hs1_core::client::responses`]) is a function
//! of that digest, so this grouping is the paper's "matching responses"
//! rule, as `FinalityTracker` applies it per transaction, at block grain.

use std::collections::{HashMap, HashSet};

use hs1_core::client::{quorum_reached, Quorum};
use hs1_crypto::Digest;
use hs1_types::{BlockId, ProtocolKind, ReplicaId, ReplyKind, SimTime, TxId};

/// Log-bucketed latency histogram (1 µs … ~100 s).
#[derive(Clone, Debug)]
pub(crate) struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
}

const BUCKETS_PER_DECADE: usize = 20;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: vec![0; 8 * BUCKETS_PER_DECADE], count: 0, sum_ns: 0 }
    }
}

impl LatencyHist {
    fn bucket_of(ns: u64) -> usize {
        if ns < 1_000 {
            return 0;
        }
        let log = (ns as f64 / 1_000.0).log10();
        ((log * BUCKETS_PER_DECADE as f64) as usize).min(8 * BUCKETS_PER_DECADE - 1)
    }

    pub(crate) fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    pub(crate) fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64 / 1e6
    }

    pub(crate) fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket midpoint in ms.
                let lo = 1_000.0 * 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64);
                let hi = 1_000.0 * 10f64.powf((i + 1) as f64 / BUCKETS_PER_DECADE as f64);
                return (lo + hi) / 2.0 / 1e6;
            }
        }
        0.0
    }
}

#[derive(Default)]
struct BlockTally {
    /// Response arrival times at the client, any kind.
    arrivals: Vec<SimTime>,
    /// Committed-kind arrivals.
    committed_arrivals: Vec<SimTime>,
    responders: Vec<ReplicaId>,
}

/// Aggregate client model.
pub(crate) struct ClientOracle {
    n: usize,
    f: usize,
    protocol: ProtocolKind,
    /// Blocks not final yet, by the digest they were executed to; a tally
    /// is dropped when it decides.
    tallies: HashMap<(BlockId, Digest), BlockTally>,
    /// Blocks that reached finality, so that trailing responses can never
    /// start a second tally.
    finalized_set: HashSet<BlockId>,
    /// Pending transactions: submit time by id.
    submit_times: HashMap<TxId, SimTime>,
}

impl ClientOracle {
    pub(crate) fn new(n: usize, f: usize, protocol: ProtocolKind) -> ClientOracle {
        ClientOracle {
            n,
            f,
            protocol,
            tallies: HashMap::new(),
            finalized_set: HashSet::new(),
            submit_times: HashMap::new(),
        }
    }

    pub(crate) fn note_submit(&mut self, tx: TxId, at: SimTime) {
        self.submit_times.entry(tx).or_insert(at);
    }

    pub(crate) fn submit_time(&self, tx: TxId) -> Option<SimTime> {
        self.submit_times.get(&tx).copied()
    }

    pub(crate) fn take_submit(&mut self, tx: TxId) -> Option<SimTime> {
        self.submit_times.remove(&tx)
    }

    /// Transactions submitted but not yet finalized (the in-flight gauge).
    pub(crate) fn pending(&self) -> usize {
        self.submit_times.len()
    }

    /// A replica's response for `block`, executed to `digest`, arrives at
    /// the client at `arrival`. Returns the finality time if this response
    /// completes a quorum of matching ones.
    pub(crate) fn on_response(
        &mut self,
        from: ReplicaId,
        block: BlockId,
        digest: Digest,
        kind: ReplyKind,
        arrival: SimTime,
    ) -> Option<SimTime> {
        if self.finalized_set.contains(&block) {
            return None;
        }
        let t = self.tallies.entry((block, digest)).or_default();
        if t.responders.contains(&from) {
            return None;
        }
        t.responders.push(from);
        t.arrivals.push(arrival);
        if kind == ReplyKind::Committed {
            t.committed_arrivals.push(arrival);
        }
        let reached = quorum_reached(
            self.n,
            self.f,
            self.protocol,
            t.arrivals.len(),
            t.committed_arrivals.len(),
        )?;
        // Finality is reached at the arrival completing the quorum — the
        // max over the quorum's arrival times (arrivals may be recorded
        // out of order across replicas).
        let t = self.tallies.remove(&(block, digest)).expect("tallied above");
        let (mut quorum, k) = match reached {
            Quorum::Matching => (t.arrivals, self.n - self.f),
            Quorum::Committed => (t.committed_arrivals, self.f + 1),
        };
        quorum.sort_unstable();
        self.finalized_set.insert(block);
        Some(quorum[k - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest every honest replica executes a test block to.
    const D: Digest = Digest([7; 32]);

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn hist_mean_and_quantiles() {
        let mut h = LatencyHist::default();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            h.record(ms * 1_000_000);
        }
        assert_eq!(h.count, 10);
        assert!((h.mean_ms() - 14.5).abs() < 0.01);
        let p50 = h.quantile_ms(0.5);
        assert!(p50 > 3.0 && p50 < 8.0, "p50 {p50}");
        let p99 = h.quantile_ms(0.99);
        assert!(p99 > 80.0 && p99 < 130.0, "p99 {p99}");
    }

    #[test]
    fn nf_quorum_for_hotstuff1() {
        // n=4, f=1: three matching speculative responses finalize.
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        let b = BlockId::test(1);
        assert!(o.on_response(ReplicaId(0), b, D, ReplyKind::Speculative, t(1)).is_none());
        assert!(o.on_response(ReplicaId(1), b, D, ReplyKind::Speculative, t(2)).is_none());
        let fin = o.on_response(ReplicaId(2), b, D, ReplyKind::Speculative, t(3));
        assert_eq!(fin, Some(t(3)));
        let late = o.on_response(ReplicaId(3), b, D, ReplyKind::Committed, t(4));
        assert!(late.is_none(), "a block is final once");
    }

    #[test]
    fn quorum_time_is_kth_smallest() {
        // Out-of-order arrivals: finality = 3rd smallest arrival.
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        let b = BlockId::test(1);
        o.on_response(ReplicaId(0), b, D, ReplyKind::Speculative, t(9));
        o.on_response(ReplicaId(1), b, D, ReplyKind::Speculative, t(1));
        let fin = o.on_response(ReplicaId(2), b, D, ReplyKind::Speculative, t(2));
        assert_eq!(fin, Some(t(9)));
    }

    #[test]
    fn committed_fast_path() {
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        let b = BlockId::test(2);
        o.on_response(ReplicaId(0), b, D, ReplyKind::Committed, t(1));
        let fin = o.on_response(ReplicaId(1), b, D, ReplyKind::Committed, t(4));
        assert_eq!(fin, Some(t(4)), "f+1 committed responses finalize");
    }

    #[test]
    fn baseline_needs_committed() {
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff2);
        let b = BlockId::test(3);
        for i in 0..4 {
            assert!(o
                .on_response(ReplicaId(i), b, D, ReplyKind::Speculative, t(i as u64))
                .is_none());
        }
        // Speculative responses never finalize baselines (and they never
        // occur in practice).
    }

    #[test]
    fn duplicate_responders_ignored() {
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        let b = BlockId::test(4);
        for ms in 1..=3 {
            assert!(o.on_response(ReplicaId(0), b, D, ReplyKind::Speculative, t(ms)).is_none());
        }
    }

    #[test]
    fn submit_times_tracked() {
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        let tx = TxId::new(hs1_types::ClientId(1), 5);
        o.note_submit(tx, t(7));
        assert_eq!(o.submit_time(tx), Some(t(7)));
        assert_eq!(o.take_submit(tx), Some(t(7)));
        assert_eq!(o.take_submit(tx), None);
    }

    /// n − f responses for one block, executed to different digests, are
    /// no quorum, and neither are f + 1 committed ones: a client takes
    /// only matching results as final. The n − f-th matching response
    /// decides.
    #[test]
    fn mismatched_digests_never_combine() {
        let (b, other) = (BlockId::test(5), Digest([8; 32]));
        let mut o = ClientOracle::new(4, 1, ProtocolKind::HotStuff1);
        assert!(o.on_response(ReplicaId(0), b, D, ReplyKind::Speculative, t(1)).is_none());
        assert!(o.on_response(ReplicaId(1), b, D, ReplyKind::Speculative, t(2)).is_none());
        let split = o.on_response(ReplicaId(2), b, other, ReplyKind::Speculative, t(3));
        assert!(split.is_none(), "2 + 1 split across digests is not a quorum");
        let fin = o.on_response(ReplicaId(3), b, D, ReplyKind::Speculative, t(4));
        assert_eq!(fin, Some(t(4)), "three matching on one digest");

        let mut c = ClientOracle::new(4, 1, ProtocolKind::HotStuff2);
        assert!(c.on_response(ReplicaId(0), b, D, ReplyKind::Committed, t(1)).is_none());
        let split = c.on_response(ReplicaId(1), b, other, ReplyKind::Committed, t(2));
        assert!(split.is_none(), "1 + 1 committed split across digests is not f + 1");
    }
}
