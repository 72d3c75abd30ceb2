//! Network model: per-pair latency (from region placement), per-replica
//! injected delays, deterministic jitter — and, when a chaos plan is
//! installed, seeded per-link loss/duplication/reordering plus
//! partitions (see [`crate::chaos`]).

use crate::chaos::{ChaosPlan, LinkFault};
use crate::regions::{one_way, Region};
use hs1_types::{ReplicaId, SimDuration, SplitMix64};

/// What the network does with one replica→replica message: deliver
/// `copies` copies (0 = lost), each with an extra chaos-induced delay on
/// top of the modeled latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LinkDelivery {
    pub copies: u8,
    pub extra: [SimDuration; 2],
}

impl LinkDelivery {
    const CLEAN: LinkDelivery = LinkDelivery { copies: 1, extra: [SimDuration::ZERO; 2] };
    const DROPPED: LinkDelivery = LinkDelivery { copies: 0, extra: [SimDuration::ZERO; 2] };
}

/// Latency and delay-injection model for a deployment.
#[derive(Clone, Debug)]
pub(crate) struct NetModel {
    /// One-way base latency between replicas i and j.
    latency: Vec<Vec<SimDuration>>,
    /// One-way latency replica ↔ client population.
    client_latency: Vec<SimDuration>,
    /// Extra delay injected on messages to *and* from each replica
    /// (Fig. 9 delay-injection experiments).
    injected: Vec<SimDuration>,
    jitter_frac: f64,
    /// Per-link fault probabilities (installed by a chaos plan; `None`
    /// keeps the rng stream of fault-free runs untouched).
    link_faults: Option<Vec<Vec<LinkFault>>>,
    /// Max extra delay a reordered copy picks up.
    reorder_delay: SimDuration,
    /// Active partition: membership of the isolated side, if any.
    partition_side: Option<Vec<bool>>,
}

impl NetModel {
    /// Build from a region placement; clients live in `client_region`.
    pub(crate) fn from_regions(placement: &[Region], client_region: Region) -> NetModel {
        let n = placement.len();
        let mut latency = vec![vec![SimDuration::ZERO; n]; n];
        for i in 0..n {
            for j in 0..n {
                latency[i][j] = one_way(placement[i], placement[j]);
            }
        }
        let client_latency = placement.iter().map(|&r| one_way(r, client_region)).collect();
        NetModel {
            latency,
            client_latency,
            injected: vec![SimDuration::ZERO; n],
            jitter_frac: 0.05,
            link_faults: None,
            reorder_delay: SimDuration::ZERO,
            partition_side: None,
        }
    }

    /// Inject `delay` on replica `r`'s links (both directions).
    pub(crate) fn inject(&mut self, r: ReplicaId, delay: SimDuration) {
        self.injected[r.0 as usize] = delay;
    }

    /// One-way delay for a replica→replica message, with deterministic
    /// jitter drawn from `rng`.
    pub(crate) fn replica_delay(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        rng: &mut SplitMix64,
    ) -> SimDuration {
        let base = self.latency[from.0 as usize][to.0 as usize];
        let extra = self.injected[from.0 as usize] + self.injected[to.0 as usize];
        self.jittered(base, rng) + extra
    }

    /// One-way delay replica → client (responses) or client → replica
    /// (requests); injected delay on the replica side applies.
    pub(crate) fn client_delay(&self, replica: ReplicaId, rng: &mut SplitMix64) -> SimDuration {
        let base = self.client_latency[replica.0 as usize];
        self.jittered(base, rng) + self.injected[replica.0 as usize]
    }

    /// Install a chaos plan's per-link fault matrix.
    pub(crate) fn install_chaos(&mut self, plan: &ChaosPlan) {
        assert_eq!(plan.n, self.n(), "chaos plan derived for a different deployment size");
        self.link_faults = Some(plan.links.clone());
        self.reorder_delay = plan.reorder_delay;
    }

    /// Cut every link between `side` and its complement.
    pub(crate) fn set_partition(&mut self, side: &[u32]) {
        let mut members = vec![false; self.n()];
        for &r in side {
            if let Some(m) = members.get_mut(r as usize) {
                *m = true;
            }
        }
        self.partition_side = Some(members);
    }

    /// Remove the active partition.
    pub(crate) fn heal_partition(&mut self) {
        self.partition_side = None;
    }

    /// Chaos verdict for one replica→replica message. Draws from `rng`
    /// only when link faults are installed, so fault-free runs keep their
    /// historical rng stream (and their calibrated figures) bit-for-bit.
    /// Partition checks are deterministic (no draw); loopback is never
    /// faulted.
    pub(crate) fn link_delivery(
        &self,
        from: ReplicaId,
        to: ReplicaId,
        rng: &mut SplitMix64,
    ) -> LinkDelivery {
        if from == to {
            return LinkDelivery::CLEAN;
        }
        if let Some(side) = &self.partition_side {
            if side[from.0 as usize] != side[to.0 as usize] {
                return LinkDelivery::DROPPED;
            }
        }
        let Some(faults) = &self.link_faults else {
            return LinkDelivery::CLEAN;
        };
        let l = faults[from.0 as usize][to.0 as usize];
        // Fixed draw order (drop, dup, then reorder per copy) keeps the
        // stream replayable: the same plan always consumes the same draws.
        if l.drop > 0.0 && rng.chance(l.drop) {
            return LinkDelivery::DROPPED;
        }
        let mut out = LinkDelivery::CLEAN;
        if l.dup > 0.0 && rng.chance(l.dup) {
            out.copies = 2;
        }
        if l.reorder > 0.0 && self.reorder_delay > SimDuration::ZERO {
            for i in 0..out.copies as usize {
                if rng.chance(l.reorder) {
                    out.extra[i] = SimDuration::from_nanos(rng.next_range(self.reorder_delay.0));
                }
            }
        }
        out
    }

    fn jittered(&self, base: SimDuration, rng: &mut SplitMix64) -> SimDuration {
        if base == SimDuration::ZERO {
            return base;
        }
        let f = 1.0 + self.jitter_frac * (2.0 * rng.next_f64() - 1.0);
        SimDuration::from_secs_f64(base.as_secs_f64() * f)
    }

    pub(crate) fn n(&self) -> usize {
        self.latency.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::spread;

    /// Four replicas and their clients in one region.
    fn single_region() -> NetModel {
        NetModel::from_regions(&[Region::NorthVirginia; 4], Region::NorthVirginia)
    }

    #[test]
    fn injection_applies_both_directions() {
        let mut m = single_region();
        m.inject(ReplicaId(1), SimDuration::from_millis(50));
        let mut rng = SplitMix64::new(1);
        let to_injected = m.replica_delay(ReplicaId(0), ReplicaId(1), &mut rng);
        let from_injected = m.replica_delay(ReplicaId(1), ReplicaId(0), &mut rng);
        let clean = m.replica_delay(ReplicaId(0), ReplicaId(2), &mut rng);
        assert!(to_injected > SimDuration::from_millis(49));
        assert!(from_injected > SimDuration::from_millis(49));
        assert!(clean < SimDuration::from_millis(1));
    }

    #[test]
    fn geo_placement_separates_regions() {
        let placement = spread(4, 2); // alternating Virginia / HongKong
        let m = NetModel::from_regions(&placement, Region::NorthVirginia);
        let mut rng = SplitMix64::new(2);
        let same = m.replica_delay(ReplicaId(0), ReplicaId(2), &mut rng);
        let cross = m.replica_delay(ReplicaId(0), ReplicaId(1), &mut rng);
        assert!(cross > same * 10);
        // Clients in Virginia: responses from HK replicas are slow.
        assert!(
            m.client_delay(ReplicaId(1), &mut rng) > m.client_delay(ReplicaId(0), &mut rng) * 10
        );
    }

    #[test]
    fn partition_cuts_cross_links_only() {
        let mut m = single_region();
        let mut rng = SplitMix64::new(3);
        m.set_partition(&[0, 2]);
        let cross = m.link_delivery(ReplicaId(0), ReplicaId(1), &mut rng);
        assert_eq!(cross.copies, 0, "cross-partition messages are lost");
        let same_side = m.link_delivery(ReplicaId(0), ReplicaId(2), &mut rng);
        assert_eq!(same_side.copies, 1);
        let other_side = m.link_delivery(ReplicaId(1), ReplicaId(3), &mut rng);
        assert_eq!(other_side.copies, 1);
        m.heal_partition();
        let healed = m.link_delivery(ReplicaId(0), ReplicaId(1), &mut rng);
        assert_eq!(healed.copies, 1);
    }

    #[test]
    fn link_faults_drop_dup_and_reorder() {
        use crate::chaos::{ChaosConfig, ChaosPlan};
        let mut m = single_region();
        let cfg = ChaosConfig { drop_p: 0.5, dup_p: 0.5, reorder_p: 0.5, ..ChaosConfig::default() };
        let plan = ChaosPlan::generate(9, &cfg, 4, hs1_types::SimTime(1_000_000_000));
        m.install_chaos(&plan);
        let mut rng = SplitMix64::new(5);
        let (mut drops, mut dups, mut reorders) = (0, 0, 0);
        for _ in 0..4000 {
            let d = m.link_delivery(ReplicaId(0), ReplicaId(1), &mut rng);
            match d.copies {
                0 => drops += 1,
                2 => dups += 1,
                _ => {}
            }
            if d.extra.iter().take(d.copies as usize).any(|&e| e > SimDuration::ZERO) {
                reorders += 1;
                assert!(d.extra.iter().all(|&e| e < plan.reorder_delay));
            }
        }
        assert!(drops > 0, "drops occur");
        assert!(dups > 0, "duplicates occur");
        assert!(reorders > 0, "reordering occurs");
        // Loopback is never faulted.
        for _ in 0..100 {
            assert_eq!(m.link_delivery(ReplicaId(2), ReplicaId(2), &mut rng).copies, 1);
        }
    }

    #[test]
    fn no_chaos_consumes_no_draws() {
        let m = single_region();
        let mut rng = SplitMix64::new(6);
        let before = rng.clone().next_u64();
        let d = m.link_delivery(ReplicaId(0), ReplicaId(1), &mut rng);
        assert_eq!(d.copies, 1);
        assert_eq!(rng.next_u64(), before, "fault-free delivery leaves the rng stream alone");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = single_region();
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            let da = m.replica_delay(ReplicaId(0), ReplicaId(1), &mut a);
            let db = m.replica_delay(ReplicaId(0), ReplicaId(1), &mut b);
            assert_eq!(da, db);
            let base = SimDuration::from_micros(250).as_secs_f64();
            assert!(da.as_secs_f64() > base * 0.94 && da.as_secs_f64() < base * 1.06);
        }
    }
}
