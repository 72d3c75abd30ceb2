//! Deterministic chaos: seed-derived fault schedules for the simulator.
//!
//! A [`ChaosPlan`] is a complete, replayable description of every fault a
//! run injects — per-link loss/duplication/reordering probabilities, a
//! partition/heal schedule between replica sets, and mid-run
//! crash-restart windows whose recovery goes through the real
//! `hs1-storage` journal/checkpoint path. The whole plan derives from one
//! `SplitMix64` seed via [`ChaosPlan::generate`], so a failing run
//! reproduces byte-for-byte from its seed; a *shrunk* plan (fault events
//! removed while the failure persists) is no longer seed-derivable, so
//! plans also round-trip through a compact text spec
//! ([`ChaosPlan::to_spec`] / [`ChaosPlan::from_spec`]) that the sweep
//! runner prints for one-command local replay.
//!
//! The design follows the FoundationDB simulation playbook: faults are
//! data, not code paths, and the schedule is explored by sweeping seeds
//! ([`crate::sweep`]), not by hand-picking scenarios.

use hs1_adversary::AdversaryStrategy;
use hs1_types::{SimDuration, SimTime, SplitMix64};

/// Per-ordered-link fault probabilities (replica → replica messages; the
/// client path is modeled in aggregate and stays clean).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct LinkFault {
    /// Probability a message is lost in flight.
    pub drop: f64,
    /// Probability a message is delivered twice (network-level
    /// retransmission; independent delays per copy).
    pub dup: f64,
    /// Probability a copy is delayed by an extra uniform amount in
    /// `[0, reorder_delay)`, overtaking later traffic.
    pub reorder: f64,
}

/// One scheduled fault transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// Cut every link between `side` and its complement (bidirectional).
    PartitionStart { side: Vec<u32> },
    /// Remove the active partition.
    PartitionHeal,
    /// Kill replica `r`: its process state is lost, messages to and from
    /// it are dropped, only its on-disk journal/checkpoints survive.
    Crash { replica: u32 },
    /// Flip `flips` seeded bits across replica `r`'s journal segments and
    /// checkpoints while it is down (storage bit rot). The strengthened
    /// recovery oracle: the subsequent restart must either fail-stop or
    /// restore a clean prefix of the pre-crash chain — never silently
    /// diverge.
    BitRot { replica: u32, flips: u32 },
    /// Restart replica `r` through `hs1-storage` recovery.
    Restart { replica: u32 },
}

impl ChaosEventKind {
    fn spec_token(&self) -> String {
        match self {
            ChaosEventKind::PartitionStart { side } => {
                let ids: Vec<String> = side.iter().map(|r| r.to_string()).collect();
                format!("p{}", ids.join("+"))
            }
            ChaosEventKind::PartitionHeal => "h".to_string(),
            ChaosEventKind::Crash { replica } => format!("c{replica}"),
            ChaosEventKind::BitRot { replica, flips } => format!("b{replica}x{flips}"),
            ChaosEventKind::Restart { replica } => format!("r{replica}"),
        }
    }
}

/// A fault transition at a point in simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    pub at: SimTime,
    pub kind: ChaosEventKind,
}

/// Knobs for [`ChaosPlan::generate`]: *caps* from which the seed derives
/// concrete per-link probabilities and event placements.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Max per-link drop probability (each link draws in `[0, cap]`).
    pub drop_p: f64,
    /// Max per-link duplication probability.
    pub dup_p: f64,
    /// Max per-link reorder probability.
    pub reorder_p: f64,
    /// Max extra delay a reordered copy picks up.
    pub reorder_delay: SimDuration,
    /// Partition/heal cycles to schedule.
    pub partitions: usize,
    /// Length of each partition window.
    pub partition_len: SimDuration,
    /// Crash-restart cycles to schedule.
    pub crashes: usize,
    /// Downtime of each crash window.
    pub downtime: SimDuration,
    /// Faults start no earlier than this (let the run warm up).
    pub start: SimDuration,
    /// Max adversarial backups; the seed draws `0..=min(this, f)` of
    /// them, with a seed-chosen in-model strategy each (see
    /// `hs1-adversary`). Combined with crash windows, the *union* of
    /// adversarial and crashing replicas stays ≤ f: when adversaries are
    /// active, crash windows target an adversary — chaos explores
    /// schedules within the fault model, it does not exceed it.
    pub adversaries: usize,
    /// Bits flipped in the crashing replica's journal/checkpoint files
    /// mid-window (0 disables the bit-rot axis).
    pub bitrot_flips: u32,
    /// Max per-replica timer-rate deviation (0.03 = clocks run up to
    /// ±3% fast/slow). The pacemaker's epoch synchronization must keep
    /// post-GST liveness despite replicas drifting apart.
    pub skew_max: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_p: 0.05,
            dup_p: 0.03,
            reorder_p: 0.05,
            reorder_delay: SimDuration::from_millis(5),
            partitions: 1,
            partition_len: SimDuration::from_millis(120),
            crashes: 1,
            downtime: SimDuration::from_millis(150),
            start: SimDuration::from_millis(100),
            adversaries: 1,
            bitrot_flips: 4,
            skew_max: 0.03,
        }
    }
}

impl ChaosConfig {
    /// Lossy links only — no partitions, no crashes.
    pub fn lossy_only() -> ChaosConfig {
        ChaosConfig { partitions: 0, crashes: 0, ..ChaosConfig::default() }
    }

    /// Clean links — only scheduled partition/crash events.
    pub fn events_only() -> ChaosConfig {
        ChaosConfig { drop_p: 0.0, dup_p: 0.0, reorder_p: 0.0, ..ChaosConfig::default() }
    }

    /// Disable the adversary, bit-rot, and clock-skew axes (tests that
    /// isolate one legacy axis).
    pub fn without_new_axes(self) -> ChaosConfig {
        ChaosConfig { adversaries: 0, bitrot_flips: 0, skew_max: 0.0, ..self }
    }
}

/// A fully materialized fault schedule. Everything the simulator needs to
/// replay a chaotic run is here (plus the scenario seed, which the plan
/// records for convenience).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Scenario seed this plan was generated for (also seeds the link
    /// probability derivation).
    pub seed: u64,
    /// Replica count the link matrix was derived for.
    pub n: usize,
    /// Per-ordered-pair fault probabilities (`links[from][to]`; diagonal
    /// unused — loopback is never faulted).
    pub(crate) links: Vec<Vec<LinkFault>>,
    /// Max extra delay for reordered copies.
    pub reorder_delay: SimDuration,
    /// Scheduled transitions, sorted by time.
    pub events: Vec<ChaosEvent>,
    /// Per-replica timer-rate factors (clock skew; 1.0 everywhere means
    /// no skew and changes nothing).
    pub skew: Vec<f64>,
    /// Adversarial backups active for the whole run: `(replica,
    /// strategy)`, at most `f` of them, each a mutator the scenario sets
    /// on the replica's shell (see `hs1-adversary`).
    pub adversaries: Vec<(u32, AdversaryStrategy)>,
}

impl ChaosPlan {
    /// A no-fault plan (useful as a shrinking terminal state).
    pub fn empty(seed: u64, n: usize) -> ChaosPlan {
        ChaosPlan {
            seed,
            n,
            links: vec![vec![LinkFault::default(); n]; n],
            reorder_delay: SimDuration::ZERO,
            events: Vec::new(),
            skew: vec![1.0; n],
            adversaries: Vec::new(),
        }
    }

    /// Derive a full schedule from `seed`. Events land in
    /// `[cfg.start, horizon)`; callers leave a fault-free tail after
    /// `horizon` so the post-GST liveness invariant has room to bite.
    /// Partition sides have 1..=f replicas (the majority side keeps
    /// quorum) and crash windows never overlap partitions, so at most `f`
    /// replicas are impaired at once — chaos explores schedules *within*
    /// the fault model, it does not exceed it.
    pub fn generate(seed: u64, cfg: &ChaosConfig, n: usize, horizon: SimTime) -> ChaosPlan {
        let mut plan = ChaosPlan::empty(seed, n);
        plan.reorder_delay = cfg.reorder_delay;

        let base = SplitMix64::new(seed ^ 0xc4a0_5c4a);
        let mut link_rng = base.fork(1);
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                plan.links[from][to] = LinkFault {
                    drop: cfg.drop_p * link_rng.next_f64(),
                    dup: cfg.dup_p * link_rng.next_f64(),
                    reorder: cfg.reorder_p * link_rng.next_f64(),
                };
            }
        }

        let f = (n - 1) / 3;

        // Adversarial backups: 0..=min(cap, f) replicas, each playing a
        // seed-chosen in-model strategy for the whole run. Drawn from an
        // own fork so the link/event derivations above/below are
        // unperturbed by this axis.
        let mut adv_rng = base.fork(3);
        let adv_cap = cfg.adversaries.min(f);
        if adv_cap > 0 {
            let k = adv_rng.next_range(adv_cap as u64 + 1) as usize;
            let strategies = AdversaryStrategy::IN_MODEL;
            plan.adversaries = adv_rng
                .sample_indices(n, k)
                .into_iter()
                .map(|r| {
                    let s = strategies[adv_rng.next_range(strategies.len() as u64) as usize];
                    (r as u32, s)
                })
                .collect();
        }

        // Clock skew: per-replica timer-rate factors in [1−max, 1+max].
        let mut skew_rng = base.fork(4);
        if cfg.skew_max > 0.0 {
            for rate in plan.skew.iter_mut() {
                *rate = 1.0 + cfg.skew_max * (2.0 * skew_rng.next_f64() - 1.0);
            }
        }

        // Slot partition and crash windows sequentially into the active
        // span with seed-chosen gaps, so windows never overlap each other.
        let mut ev_rng = base.fork(2);
        let mut cursor = SimTime::ZERO + cfg.start;
        let mut windows: Vec<(SimDuration, bool)> = Vec::new();
        for _ in 0..cfg.partitions {
            windows.push((cfg.partition_len, true));
        }
        for _ in 0..cfg.crashes {
            windows.push((cfg.downtime, false));
        }
        ev_rng.shuffle(&mut windows);
        for (len, is_partition) in windows {
            let gap = SimDuration::from_nanos(ev_rng.next_range(cfg.partition_len.0.max(1)));
            let at = cursor + gap;
            let end = at + len;
            if end >= horizon {
                break;
            }
            if is_partition && f >= 1 {
                let side_len = 1 + ev_rng.next_range(f as u64) as usize;
                let side: Vec<u32> =
                    ev_rng.sample_indices(n, side_len).into_iter().map(|i| i as u32).collect();
                plan.events.push(ChaosEvent { at, kind: ChaosEventKind::PartitionStart { side } });
                plan.events.push(ChaosEvent { at: end, kind: ChaosEventKind::PartitionHeal });
            } else if !is_partition {
                // With adversaries active, crash windows target an
                // adversary: the union of Byzantine and crashing replicas
                // must stay ≤ f, or a vote-damaging adversary plus a
                // fail-stopped honest disk would exceed the fault model.
                let replica = if plan.adversaries.is_empty() {
                    ev_rng.next_range(n as u64) as u32
                } else {
                    let pick = ev_rng.next_range(plan.adversaries.len() as u64) as usize;
                    plan.adversaries[pick].0
                };
                plan.events.push(ChaosEvent { at, kind: ChaosEventKind::Crash { replica } });
                // Roughly half the crash windows also rot the downed
                // replica's disk, so the sweep covers clean recovery and
                // corrupted recovery in the same seed range.
                if cfg.bitrot_flips > 0 && ev_rng.chance(0.5) {
                    plan.events.push(ChaosEvent {
                        at: at + SimDuration(len.0 / 2),
                        kind: ChaosEventKind::BitRot { replica, flips: cfg.bitrot_flips },
                    });
                }
                plan.events.push(ChaosEvent { at: end, kind: ChaosEventKind::Restart { replica } });
            }
            cursor = end;
        }
        plan.events.sort_by_key(|e| e.at.0);
        plan
    }

    /// Does any link carry a nonzero fault probability? (Tests ask; the
    /// runner reads the links themselves.)
    #[cfg(test)]
    pub(crate) fn has_link_faults(&self) -> bool {
        self.links.iter().flatten().any(|l| l.drop > 0.0 || l.dup > 0.0 || l.reorder > 0.0)
    }

    /// Does the schedule crash (and restart) any replica?
    pub(crate) fn has_crashes(&self) -> bool {
        self.events.iter().any(|e| matches!(e.kind, ChaosEventKind::Crash { .. }))
    }

    /// Does the schedule rot any replica's storage?
    pub fn has_bitrot(&self) -> bool {
        self.events.iter().any(|e| matches!(e.kind, ChaosEventKind::BitRot { .. }))
    }

    /// Does any replica's clock run fast or slow?
    pub(crate) fn skew_active(&self) -> bool {
        self.skew.iter().any(|&r| r != 1.0)
    }

    /// The plan with every clock back at nominal rate (shrinking).
    pub(crate) fn without_skew(&self) -> ChaosPlan {
        let mut plan = self.clone();
        plan.skew = vec![1.0; self.n];
        plan
    }

    /// The plan minus adversary `idx` (shrinking: adversaries drop one at
    /// a time toward a minimal failing plan).
    pub(crate) fn without_adversary(&self, idx: usize) -> ChaosPlan {
        let mut plan = self.clone();
        if idx < plan.adversaries.len() {
            plan.adversaries.remove(idx);
        }
        plan
    }

    /// Indices of `events` grouped into removable units: a
    /// `Crash`/`Restart` or `PartitionStart`/`PartitionHeal` pair is one
    /// unit (removing a crash without its restart would change the fault
    /// model, not shrink the schedule).
    pub(crate) fn removable_units(&self) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut open_partition: Option<usize> = None;
        let mut open_crash: Vec<(u32, usize)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            match &ev.kind {
                ChaosEventKind::PartitionStart { .. } => open_partition = Some(units.len()),
                ChaosEventKind::BitRot { replica, .. } => {
                    // Bit rot belongs to the crash window it falls inside:
                    // removing a crash without its rot (or vice versa)
                    // would change the fault, not shrink the schedule.
                    if let Some(&(_, u)) = open_crash.iter().find(|(r, _)| r == replica) {
                        if let Some(unit) = units.get_mut(u) {
                            unit.push(i);
                            continue;
                        }
                    }
                    units.push(vec![i]);
                    continue;
                }
                ChaosEventKind::PartitionHeal => {
                    if let Some(u) = open_partition.take() {
                        if let Some(unit) = units.get_mut(u) {
                            unit.push(i);
                            continue;
                        }
                    }
                    units.push(vec![i]);
                    continue;
                }
                ChaosEventKind::Crash { replica } => open_crash.push((*replica, units.len())),
                ChaosEventKind::Restart { replica } => {
                    if let Some(pos) = open_crash.iter().position(|(r, _)| r == replica) {
                        let (_, u) = open_crash.remove(pos);
                        if let Some(unit) = units.get_mut(u) {
                            unit.push(i);
                            continue;
                        }
                    }
                    units.push(vec![i]);
                    continue;
                }
            }
            units.push(vec![i]);
        }
        units
    }

    /// The plan minus the events at `indices` (a unit from
    /// [`ChaosPlan::removable_units`]).
    pub(crate) fn without_events(&self, indices: &[usize]) -> ChaosPlan {
        let mut plan = self.clone();
        plan.events = self
            .events
            .iter()
            .enumerate()
            .filter(|(i, _)| !indices.contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        plan
    }

    /// The plan with one link-fault axis zeroed everywhere.
    pub(crate) fn without_axis(&self, axis: LinkAxis) -> ChaosPlan {
        let mut plan = self.clone();
        for row in plan.links.iter_mut() {
            for l in row.iter_mut() {
                match axis {
                    LinkAxis::Drop => l.drop = 0.0,
                    LinkAxis::Dup => l.dup = 0.0,
                    LinkAxis::Reorder => l.reorder = 0.0,
                }
            }
        }
        plan
    }

    /// The one-step smaller plans a shrinker tries, in order: each
    /// removable event unit (last first: later faults are more often
    /// incidental), each adversary (last first), each active link axis
    /// (dup, reorder, drop), then flat clocks.
    pub(crate) fn shrink_candidates(&self) -> impl Iterator<Item = ChaosPlan> + '_ {
        let units = self.removable_units().into_iter().rev().map(|u| self.without_events(&u));
        let adversaries = (0..self.adversaries.len()).rev().map(|k| self.without_adversary(k));
        let axes = [LinkAxis::Dup, LinkAxis::Reorder, LinkAxis::Drop]
            .into_iter()
            .filter(|&axis| self.axis_active(axis))
            .map(|axis| self.without_axis(axis));
        let skew = self.skew_active().then(|| self.without_skew());
        units.chain(adversaries).chain(axes).chain(skew)
    }

    /// Total fault mass: events plus active link axes, adversaries, and
    /// the skew axis (shrinking progress metric).
    pub fn weight(&self) -> usize {
        let axes = [LinkAxis::Drop, LinkAxis::Dup, LinkAxis::Reorder]
            .iter()
            .filter(|a| self.axis_active(**a))
            .count();
        self.events.len() + axes + self.adversaries.len() + usize::from(self.skew_active())
    }

    /// Is `axis` nonzero on any link?
    pub(crate) fn axis_active(&self, axis: LinkAxis) -> bool {
        self.links.iter().flatten().any(|l| match axis {
            LinkAxis::Drop => l.drop > 0.0,
            LinkAxis::Dup => l.dup > 0.0,
            LinkAxis::Reorder => l.reorder > 0.0,
        })
    }

    /// Compact replayable text form. Link probabilities are encoded as
    /// exact f64 bit patterns so a replayed run is byte-identical (a
    /// decimal round-trip would perturb the Bernoulli draws).
    pub fn to_spec(&self) -> String {
        let mut s = format!("v1;seed={};n={};rd={}", self.seed, self.n, self.reorder_delay.0);
        let mut link_parts: Vec<String> = Vec::new();
        for (from, row) in self.links.iter().enumerate() {
            for (to, l) in row.iter().enumerate() {
                if *l == LinkFault::default() {
                    continue;
                }
                link_parts.push(format!(
                    "{from}>{to}>{:x}>{:x}>{:x}",
                    l.drop.to_bits(),
                    l.dup.to_bits(),
                    l.reorder.to_bits()
                ));
            }
        }
        if !link_parts.is_empty() {
            s.push_str(";links=");
            s.push_str(&link_parts.join(","));
        }
        if self.skew_active() {
            // Exact f64 bit patterns, like the link probabilities: a
            // replayed run must scale timers bit-identically.
            let rates: Vec<String> =
                self.skew.iter().map(|r| format!("{:x}", r.to_bits())).collect();
            s.push_str(";skew=");
            s.push_str(&rates.join("+"));
        }
        if !self.adversaries.is_empty() {
            let advs: Vec<String> = self
                .adversaries
                .iter()
                .map(|(r, strat)| format!("{r}:{}", strat.token()))
                .collect();
            s.push_str(";adv=");
            s.push_str(&advs.join(","));
        }
        if !self.events.is_empty() {
            let evs: Vec<String> =
                self.events.iter().map(|e| format!("{}@{}", e.kind.spec_token(), e.at.0)).collect();
            s.push_str(";ev=");
            s.push_str(&evs.join(","));
        }
        s
    }

    /// Parse [`ChaosPlan::to_spec`] output.
    pub fn from_spec(spec: &str) -> Result<ChaosPlan, String> {
        let mut seed = None;
        let mut n = None;
        let mut rd = 0u64;
        let mut link_str: Option<&str> = None;
        let mut ev_str: Option<&str> = None;
        let mut skew_str: Option<&str> = None;
        let mut adv_str: Option<&str> = None;
        for (i, part) in spec.trim().split(';').enumerate() {
            if i == 0 {
                if part != "v1" {
                    return Err(format!("unknown spec version {part:?}"));
                }
                continue;
            }
            let (key, val) = part.split_once('=').ok_or_else(|| format!("bad field {part:?}"))?;
            match key {
                "seed" => seed = Some(val.parse::<u64>().map_err(|e| e.to_string())?),
                "n" => n = Some(val.parse::<usize>().map_err(|e| e.to_string())?),
                "rd" => rd = val.parse::<u64>().map_err(|e| e.to_string())?,
                "links" => link_str = Some(val),
                "skew" => skew_str = Some(val),
                "adv" => adv_str = Some(val),
                "ev" => ev_str = Some(val),
                _ => return Err(format!("unknown field {key:?}")),
            }
        }
        let seed = seed.ok_or("missing seed")?;
        let n = n.ok_or("missing n")?;
        if n == 0 || n > 1024 {
            return Err(format!("implausible n={n}"));
        }
        let mut plan = ChaosPlan::empty(seed, n);
        plan.reorder_delay = SimDuration::from_nanos(rd);
        if let Some(ls) = link_str {
            for entry in ls.split(',') {
                let fields: Vec<&str> = entry.split('>').collect();
                if fields.len() != 5 {
                    return Err(format!("bad link entry {entry:?}"));
                }
                let from: usize = fields[0].parse().map_err(|_| "bad link from")?;
                let to: usize = fields[1].parse().map_err(|_| "bad link to")?;
                if from >= n || to >= n {
                    return Err(format!("link {from}->{to} out of range"));
                }
                let bits = |s: &str| u64::from_str_radix(s, 16).map_err(|_| "bad f64 bits");
                plan.links[from][to] = LinkFault {
                    drop: f64::from_bits(bits(fields[2])?),
                    dup: f64::from_bits(bits(fields[3])?),
                    reorder: f64::from_bits(bits(fields[4])?),
                };
            }
        }
        if let Some(ss) = skew_str {
            let rates: Vec<&str> = ss.split('+').collect();
            if rates.len() != n {
                return Err(format!("skew has {} rates, n={n}", rates.len()));
            }
            for (i, r) in rates.iter().enumerate() {
                let bits = u64::from_str_radix(r, 16).map_err(|_| "bad skew bits")?;
                let rate = f64::from_bits(bits);
                if !(0.5..=2.0).contains(&rate) {
                    return Err(format!("implausible skew rate {rate} for replica {i}"));
                }
                plan.skew[i] = rate;
            }
        }
        if let Some(advs) = adv_str {
            for entry in advs.split(',') {
                let (r, tok) =
                    entry.split_once(':').ok_or_else(|| format!("bad adversary {entry:?}"))?;
                let replica: u32 = r.parse().map_err(|_| "bad adversary replica")?;
                if replica as usize >= n {
                    return Err(format!("adversary replica {replica} out of range (n={n})"));
                }
                let strategy = AdversaryStrategy::parse(tok)
                    .ok_or_else(|| format!("unknown adversary strategy {tok:?}"))?;
                plan.adversaries.push((replica, strategy));
            }
        }
        if let Some(es) = ev_str {
            for entry in es.split(',') {
                let (tok, at) =
                    entry.split_once('@').ok_or_else(|| format!("bad event {entry:?}"))?;
                let at = SimTime(at.parse::<u64>().map_err(|e| e.to_string())?);
                // Validate replica indices like the links branch does: an
                // out-of-range event would replay as a silent no-op and a
                // hand-edited/truncated spec would "pass" a weaker
                // schedule than it claims.
                let checked = |r: u32| {
                    if (r as usize) < n {
                        Ok(r)
                    } else {
                        Err(format!("event replica {r} out of range (n={n})"))
                    }
                };
                let kind = match tok.split_at(1) {
                    ("p", rest) => {
                        let side: Result<Vec<u32>, String> = rest
                            .split('+')
                            .map(|r| checked(r.parse::<u32>().map_err(|_| "bad partition side")?))
                            .collect();
                        ChaosEventKind::PartitionStart { side: side? }
                    }
                    ("h", "") => ChaosEventKind::PartitionHeal,
                    ("c", rest) => ChaosEventKind::Crash {
                        replica: checked(rest.parse().map_err(|_| "bad crash replica")?)?,
                    },
                    ("b", rest) => {
                        let (r, flips) =
                            rest.split_once('x').ok_or_else(|| format!("bad bitrot {tok:?}"))?;
                        ChaosEventKind::BitRot {
                            replica: checked(r.parse().map_err(|_| "bad bitrot replica")?)?,
                            flips: flips.parse().map_err(|_| "bad bitrot flips")?,
                        }
                    }
                    ("r", rest) => ChaosEventKind::Restart {
                        replica: checked(rest.parse().map_err(|_| "bad restart replica")?)?,
                    },
                    _ => return Err(format!("unknown event token {tok:?}")),
                };
                plan.events.push(ChaosEvent { at, kind });
            }
        }
        Ok(plan)
    }
}

/// One of the three link-fault axes (shrinking granularity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkAxis {
    Drop,
    Dup,
    Reorder,
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let active: usize = self
            .links
            .iter()
            .flatten()
            .filter(|l| l.drop > 0.0 || l.dup > 0.0 || l.reorder > 0.0)
            .count();
        write!(f, "chaos(seed={}, n={}, faulty-links={}", self.seed, self.n, active)?;
        if self.skew_active() {
            let worst = self.skew.iter().map(|r| (r - 1.0).abs()).fold(0.0f64, f64::max);
            write!(f, ", skew=±{:.1}%", worst * 100.0)?;
        }
        if !self.adversaries.is_empty() {
            write!(f, ", adversaries=[")?;
            for (i, (r, s)) in self.adversaries.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{r}:{}", s.name())?;
            }
            write!(f, "]")?;
        }
        write!(f, ", events=[")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}@{:.3}s", e.kind.spec_token(), e.at.as_secs_f64())?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(1)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = ChaosPlan::generate(7, &cfg, 4, horizon());
        let b = ChaosPlan::generate(7, &cfg, 4, horizon());
        assert_eq!(a, b);
        let c = ChaosPlan::generate(8, &cfg, 4, horizon());
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn events_paired_and_in_window() {
        let cfg = ChaosConfig::default();
        for seed in 0..32 {
            let plan = ChaosPlan::generate(seed, &cfg, 4, horizon());
            let starts = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::PartitionStart { .. }))
                .count();
            let heals = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::PartitionHeal))
                .count();
            assert_eq!(starts, heals);
            let crashes = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::Crash { .. }))
                .count();
            let restarts = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::Restart { .. }))
                .count();
            assert_eq!(crashes, restarts);
            for ev in &plan.events {
                assert!(ev.at >= SimTime::ZERO + cfg.start);
                assert!(ev.at < horizon());
            }
            for w in plan.events.windows(2) {
                assert!(w[0].at <= w[1].at, "events sorted");
            }
        }
    }

    #[test]
    fn partition_sides_respect_f() {
        let cfg = ChaosConfig { partitions: 3, ..ChaosConfig::default() };
        for seed in 0..16 {
            let plan =
                ChaosPlan::generate(seed, &cfg, 7, SimTime::ZERO + SimDuration::from_secs(4));
            for ev in &plan.events {
                if let ChaosEventKind::PartitionStart { side } = &ev.kind {
                    assert!(!side.is_empty() && side.len() <= 2, "side within f for n=7");
                }
            }
        }
    }

    #[test]
    fn link_probabilities_capped() {
        let cfg = ChaosConfig::default();
        let plan = ChaosPlan::generate(3, &cfg, 5, horizon());
        for (i, row) in plan.links.iter().enumerate() {
            for (j, l) in row.iter().enumerate() {
                if i == j {
                    assert_eq!(*l, LinkFault::default(), "loopback unfaulted");
                    continue;
                }
                assert!(l.drop >= 0.0 && l.drop <= cfg.drop_p);
                assert!(l.dup >= 0.0 && l.dup <= cfg.dup_p);
                assert!(l.reorder >= 0.0 && l.reorder <= cfg.reorder_p);
            }
        }
        assert!(plan.has_link_faults());
    }

    #[test]
    fn spec_roundtrip_is_exact() {
        let cfg = ChaosConfig::default();
        for seed in [0, 1, 42, 0xdead_beef] {
            let plan = ChaosPlan::generate(seed, &cfg, 4, horizon());
            let spec = plan.to_spec();
            let back = ChaosPlan::from_spec(&spec).expect("spec parses");
            assert_eq!(plan, back, "byte-exact roundtrip for seed {seed}");
        }
    }

    #[test]
    fn spec_roundtrip_after_shrink() {
        let cfg = ChaosConfig::default();
        let plan = ChaosPlan::generate(11, &cfg, 4, horizon());
        let shrunk = plan.without_axis(LinkAxis::Dup);
        let back = ChaosPlan::from_spec(&shrunk.to_spec()).unwrap();
        assert_eq!(shrunk, back);
        assert!(!back.axis_active(LinkAxis::Dup));
        assert!(back.axis_active(LinkAxis::Drop));
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ChaosPlan::from_spec("v2;seed=1;n=4").is_err());
        assert!(ChaosPlan::from_spec("v1;n=4").is_err(), "missing seed");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;links=9>0>0>0>0").is_err(), "link range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=x3@5").is_err(), "unknown event");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=c7@5").is_err(), "crash replica range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=r9@5").is_err(), "restart replica range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=p0+8@5").is_err(), "partition side range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=c3@5").is_ok(), "in-range events parse");
    }

    #[test]
    fn removable_units_pair_windows() {
        let cfg = ChaosConfig { partitions: 1, crashes: 1, ..ChaosConfig::default() };
        let plan = ChaosPlan::generate(5, &cfg, 4, horizon());
        let units = plan.removable_units();
        // Every unit removes a *balanced* slice of the schedule.
        for unit in &units {
            let removed = plan.without_events(unit);
            let crashes = removed
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::Crash { .. }))
                .count();
            let restarts = removed
                .events
                .iter()
                .filter(|e| matches!(e.kind, ChaosEventKind::Restart { .. }))
                .count();
            assert_eq!(crashes, restarts, "crash windows stay paired after removal");
        }
        let total: usize = units.iter().map(|u| u.len()).sum();
        assert_eq!(total, plan.events.len(), "units cover the schedule");
    }

    #[test]
    fn empty_plan_has_zero_weight() {
        let plan = ChaosPlan::empty(1, 4);
        assert_eq!(plan.weight(), 0);
        assert!(!plan.has_link_faults());
        assert!(!plan.has_crashes());
        assert!(!plan.has_bitrot());
        assert!(!plan.skew_active());
        assert!(plan.adversaries.is_empty());
        assert!(plan.events.is_empty());
    }

    #[test]
    fn adversaries_stay_within_f_and_crashes_target_them() {
        let cfg = ChaosConfig { crashes: 2, ..ChaosConfig::default() };
        let mut saw_adversary = false;
        for seed in 0..48 {
            let plan =
                ChaosPlan::generate(seed, &cfg, 4, SimTime::ZERO + SimDuration::from_secs(4));
            assert!(plan.adversaries.len() <= 1, "≤ f adversaries for n=4");
            if plan.adversaries.is_empty() {
                continue;
            }
            saw_adversary = true;
            let adv: Vec<u32> = plan.adversaries.iter().map(|(r, _)| *r).collect();
            for ev in &plan.events {
                if let ChaosEventKind::Crash { replica } | ChaosEventKind::BitRot { replica, .. } =
                    &ev.kind
                {
                    assert!(
                        adv.contains(replica),
                        "seed {seed}: crash/rot of {replica} outside the adversary set {adv:?}"
                    );
                }
            }
        }
        assert!(saw_adversary, "some seeds draw an adversary");
    }

    #[test]
    fn bitrot_rides_inside_crash_windows() {
        let cfg = ChaosConfig { partitions: 0, crashes: 3, ..ChaosConfig::events_only() };
        let mut saw_rot = false;
        for seed in 0..16 {
            let plan =
                ChaosPlan::generate(seed, &cfg, 4, SimTime::ZERO + SimDuration::from_secs(4));
            let mut down: Option<u32> = None;
            for ev in &plan.events {
                match &ev.kind {
                    ChaosEventKind::Crash { replica } => down = Some(*replica),
                    ChaosEventKind::Restart { .. } => down = None,
                    ChaosEventKind::BitRot { replica, flips } => {
                        saw_rot = true;
                        assert_eq!(down, Some(*replica), "rot only while the replica is down");
                        assert_eq!(*flips, cfg.bitrot_flips);
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_rot, "bit rot scheduled in some windows");
    }

    #[test]
    fn skew_rates_bounded_by_config() {
        let cfg = ChaosConfig { skew_max: 0.05, ..ChaosConfig::default() };
        let plan = ChaosPlan::generate(9, &cfg, 4, horizon());
        assert!(plan.skew_active());
        for r in &plan.skew {
            assert!((*r - 1.0).abs() <= 0.05 + 1e-12, "rate {r} within ±5%");
        }
        let none = ChaosConfig { skew_max: 0.0, ..ChaosConfig::default() };
        let flat = ChaosPlan::generate(9, &none, 4, horizon());
        assert!(!flat.skew_active(), "skew_max 0 leaves every clock at 1.0 exactly");
    }

    #[test]
    fn new_axes_roundtrip_through_spec() {
        let cfg = ChaosConfig { crashes: 2, ..ChaosConfig::default() };
        let mut covered = false;
        for seed in 0..24 {
            let plan =
                ChaosPlan::generate(seed, &cfg, 4, SimTime::ZERO + SimDuration::from_secs(3));
            let back = ChaosPlan::from_spec(&plan.to_spec()).expect("spec parses");
            assert_eq!(plan, back, "seed {seed} roundtrips bit-exactly");
            covered |= !plan.adversaries.is_empty() && plan.has_bitrot();
        }
        assert!(covered, "some seed exercised adversaries + bitrot in the roundtrip");
    }

    #[test]
    fn spec_rejects_bad_new_fields() {
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;adv=9:eq").is_err(), "adversary range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;adv=1:zz").is_err(), "unknown strategy");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=b9x2@5").is_err(), "bitrot range");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;ev=b1@5").is_err(), "malformed bitrot");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;skew=0+0+0+0").is_err(), "implausible rate");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;skew=3ff0000000000000").is_err(), "arity");
        assert!(ChaosPlan::from_spec("v1;seed=1;n=4;adv=1:cs;ev=b1x3@5").is_ok());
    }

    #[test]
    fn shrink_helpers_drop_adversaries_and_skew() {
        let cfg = ChaosConfig { adversaries: 1, ..ChaosConfig::default() };
        let mut plan = ChaosPlan::generate(2, &cfg, 4, horizon());
        plan.adversaries = vec![(1, AdversaryStrategy::Equivocate)];
        let w = plan.weight();
        let no_adv = plan.without_adversary(0);
        assert!(no_adv.adversaries.is_empty());
        assert_eq!(no_adv.weight(), w - 1);
        if plan.skew_active() {
            let no_skew = no_adv.without_skew();
            assert!(!no_skew.skew_active());
            assert_eq!(no_skew.weight(), no_adv.weight() - 1);
        }
    }

    #[test]
    fn removable_units_keep_bitrot_with_its_crash() {
        let cfg =
            ChaosConfig { partitions: 1, crashes: 2, bitrot_flips: 3, ..ChaosConfig::default() };
        for seed in 0..16 {
            let plan =
                ChaosPlan::generate(seed, &cfg, 4, SimTime::ZERO + SimDuration::from_secs(4));
            if !plan.has_bitrot() {
                continue;
            }
            for unit in plan.removable_units() {
                let removed = plan.without_events(&unit);
                // No unit removal may strand a BitRot outside a window.
                let mut down: Option<u32> = None;
                for ev in &removed.events {
                    match &ev.kind {
                        ChaosEventKind::Crash { replica } => down = Some(*replica),
                        ChaosEventKind::Restart { .. } => down = None,
                        ChaosEventKind::BitRot { replica, .. } => {
                            assert_eq!(down, Some(*replica), "seed {seed}: stranded bitrot");
                        }
                        _ => {}
                    }
                }
            }
            let total: usize = plan.removable_units().iter().map(|u| u.len()).sum();
            assert_eq!(total, plan.events.len());
        }
    }
}
