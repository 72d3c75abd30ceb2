//! System configuration shared by engines, simulator and TCP runtime.

use crate::ids::{ReplicaId, View};
use crate::time::SimDuration;

/// Which consensus protocol a deployment runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Chained HotStuff (3-chain commit): 7 half-phases to consensus.
    HotStuff,
    /// Streamlined HotStuff-2 (2-chain / prefix commit): 5 half-phases.
    HotStuff2,
    /// Basic (non-streamlined) HotStuff-1 (paper Fig. 2).
    HotStuff1Basic,
    /// Streamlined HotStuff-1 (paper Fig. 4): 3 half-phases to the
    /// speculative client response.
    HotStuff1,
    /// Streamlined HotStuff-1 with adaptive slotting (paper Figs. 6–7).
    HotStuff1Slotted,
}

impl ProtocolKind {
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::HotStuff,
        ProtocolKind::HotStuff2,
        ProtocolKind::HotStuff1Basic,
        ProtocolKind::HotStuff1,
        ProtocolKind::HotStuff1Slotted,
    ];

    /// The four protocols compared in the paper's evaluation (§7).
    pub const EVALUATED: [ProtocolKind; 4] = [
        ProtocolKind::HotStuff,
        ProtocolKind::HotStuff2,
        ProtocolKind::HotStuff1,
        ProtocolKind::HotStuff1Slotted,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::HotStuff => "HotStuff",
            ProtocolKind::HotStuff2 => "HotStuff-2",
            ProtocolKind::HotStuff1Basic => "HotStuff-1(basic)",
            ProtocolKind::HotStuff1 => "HotStuff-1",
            ProtocolKind::HotStuff1Slotted => "HotStuff-1(slotting)",
        }
    }

    /// The command-line token for this protocol, as every binary and
    /// chaos replay spec spells it: `hs`, `hs2`, `hs1`, `basic`, `slotted`.
    pub fn token(&self) -> &'static str {
        match self {
            ProtocolKind::HotStuff => "hs",
            ProtocolKind::HotStuff2 => "hs2",
            ProtocolKind::HotStuff1 => "hs1",
            ProtocolKind::HotStuff1Basic => "basic",
            ProtocolKind::HotStuff1Slotted => "slotted",
        }
    }

    /// The protocol a [`token`](Self::token) names; `None` for any other
    /// string.
    pub fn from_token(s: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|p| p.token() == s)
    }

    /// HotStuff-1 clients collect `n − f` speculative responses; the
    /// baselines collect `f + 1` committed responses (§3, §7 "Metrics").
    pub fn client_needs_nf_quorum(&self) -> bool {
        matches!(
            self,
            ProtocolKind::HotStuff1Basic | ProtocolKind::HotStuff1 | ProtocolKind::HotStuff1Slotted
        )
    }

    /// Consensus half-phases from proposal to the client-facing response
    /// being sent (excludes the request/response client hops): the latency
    /// ladder of §7 "Baselines".
    pub fn half_phases(&self) -> u32 {
        match self {
            ProtocolKind::HotStuff => 7,
            ProtocolKind::HotStuff2 => 5,
            ProtocolKind::HotStuff1Basic => 3,
            ProtocolKind::HotStuff1 => 3,
            ProtocolKind::HotStuff1Slotted => 3,
        }
    }
}

/// Deployment-wide constants.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of replicas; `n >= 3f + 1`.
    pub n: usize,
    /// Max transactions per block.
    pub batch_size: usize,
    /// View timer length τ (pacemaker Fig. 3; also the per-view window of
    /// slotted HotStuff-1).
    pub view_timer: SimDuration,
    /// Assumed transmission delay bound Δ (`ShareTimer(v) = StartTime[v] + 3Δ`).
    pub delta: SimDuration,
    /// Seed from which every replica keypair is derived.
    pub deployment_seed: u64,
    /// Mempool admission bound: a replica refuses a client request while
    /// it holds this many transactions it could still propose
    /// (backpressure). `0` = unbounded.
    pub mempool_cap: usize,
}

impl SystemConfig {
    pub fn new(n: usize) -> SystemConfig {
        assert!(n >= 4, "need n >= 4 (f >= 1)");
        SystemConfig {
            n,
            batch_size: 100,
            view_timer: SimDuration::from_millis(10),
            delta: SimDuration::from_millis(1),
            deployment_seed: 0,
            mempool_cap: 0,
        }
    }

    /// Maximum tolerated faults: `f = ⌊(n−1)/3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Certificate quorum `n − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f()
    }

    /// Round-robin leader of a view: `v mod n`.
    pub fn leader_of(&self, view: View) -> ReplicaId {
        ReplicaId((view.0 % self.n as u64) as u32)
    }

    /// Pacemaker epoch length `f + 1` (§4.2.1).
    pub fn epoch_len(&self) -> u64 {
        self.f() as u64 + 1
    }

    /// `true` if `view` begins a pacemaker epoch (`v mod (f+1) = 0`).
    pub fn is_epoch_start(&self, view: View) -> bool {
        view.0.is_multiple_of(self.epoch_len())
    }

    /// First view of the epoch containing `view`.
    pub fn epoch_start(&self, view: View) -> View {
        View(view.0 - view.0 % self.epoch_len())
    }

    /// The `f + 1` leaders of the epoch starting at `epoch_start`
    /// (Wish recipients, Fig. 3 line 10).
    pub fn epoch_leaders(&self, epoch_start: View) -> Vec<ReplicaId> {
        (0..self.epoch_len()).map(|k| self.leader_of(View(epoch_start.0 + k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic() {
        let c4 = SystemConfig::new(4);
        assert_eq!(c4.f(), 1);
        assert_eq!(c4.quorum(), 3);
        let c31 = SystemConfig::new(31);
        assert_eq!(c31.f(), 10);
        assert_eq!(c31.quorum(), 21);
        let c32 = SystemConfig::new(32);
        assert_eq!(c32.f(), 10);
        assert_eq!(c32.quorum(), 22);
        let c64 = SystemConfig::new(64);
        assert_eq!(c64.f(), 21);
        assert_eq!(c64.quorum(), 43);
    }

    #[test]
    fn leader_rotation() {
        let c = SystemConfig::new(4);
        assert_eq!(c.leader_of(View(0)), ReplicaId(0));
        assert_eq!(c.leader_of(View(5)), ReplicaId(1));
        assert_eq!(c.leader_of(View(7)), ReplicaId(3));
    }

    #[test]
    fn epochs() {
        let c = SystemConfig::new(4); // f = 1, epoch_len = 2
        assert_eq!(c.epoch_len(), 2);
        assert!(c.is_epoch_start(View(0)));
        assert!(!c.is_epoch_start(View(1)));
        assert!(c.is_epoch_start(View(2)));
        assert_eq!(c.epoch_start(View(5)), View(4));
        assert_eq!(c.epoch_leaders(View(4)), vec![ReplicaId(0), ReplicaId(1)]);
    }

    #[test]
    fn protocol_metadata() {
        assert!(ProtocolKind::HotStuff1.client_needs_nf_quorum());
        assert!(!ProtocolKind::HotStuff.client_needs_nf_quorum());
        assert!(ProtocolKind::HotStuff.half_phases() > ProtocolKind::HotStuff2.half_phases());
        assert!(ProtocolKind::HotStuff2.half_phases() > ProtocolKind::HotStuff1.half_phases());
        assert_eq!(ProtocolKind::EVALUATED.len(), 4);
        for p in ProtocolKind::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn protocol_tokens_roundtrip() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_token(p.token()), Some(p));
        }
    }

    #[test]
    fn unknown_protocol_token_is_rejected() {
        for s in ["", "nope", "hs3", "hs1-basic", "hs1-slotted", "HS1", "hs1 "] {
            assert_eq!(ProtocolKind::from_token(s), None, "{s:?}");
        }
    }
}
