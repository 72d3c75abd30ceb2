//! Deterministic discrete-event cluster simulator.
//!
//! This crate replaces the paper's AWS c3.4xlarge testbed (DESIGN.md
//! substitution #1). The three resources that shape the paper's numbers
//! are modeled explicitly:
//!
//! * **link latency** — a per-pair one-way latency matrix derived from the
//!   replicas' region placement ([`regions`]), plus per-replica injected
//!   delays (Fig. 9 experiments);
//! * **NIC bandwidth** — every outbound message serializes through the
//!   sender's NIC at a configured rate, so a leader broadcasting a batch
//!   to `n − 1` peers pays O(n) transmission time (the O(n) throughput
//!   decay of Fig. 8a);
//! * **CPU** — signature verification, per-transaction hashing and
//!   execution occupy the receiving replica's CPU in FIFO order (the
//!   batch-size saturation of Fig. 8c).
//!
//! Clients are modeled in aggregate by `oracle::ClientOracle`: replica
//! execution events (speculative or committed) are turned into response
//! arrival times at the clients, and finality is determined exactly per
//! the paper's quorum rules (`n − f` matching speculative responses for
//! HotStuff-1, `f + 1` committed responses for the baselines).
//!
//! The [`chaos`] module layers seeded fault schedules on top — per-link
//! message loss/duplication/reordering, partitions, and crash-restart
//! through the `hs1-statesync` node shell a TCP node runs (journal
//! recovery, then state sync) — with every run replayable byte-for-byte
//! from its seed. The [`sweep`] module runs those schedules as the chaos
//! gate, shrinks a failing one and prints its replay command; the
//! `chaos_sweep` bin is its CLI (README "Chaos harness").
//!
//! The paper's evaluation is [`figures::FIGURES`]: every figure, its
//! checks and its CSV, run by the one `figures` bench target.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod chaos;
mod cost;
pub mod figures;
mod net;
mod openloop;
mod oracle;
pub mod regions;
mod runner;
mod scenario;
pub mod sweep;

pub use chaos::{ChaosConfig, ChaosEvent, ChaosEventKind, ChaosPlan};
pub use cost::DiskModel;
pub use hs1_adversary::AdversaryStrategy;
pub use hs1_types::ProtocolKind;
pub use openloop::{ArrivalKind, OpenLoop};
pub use scenario::{Report, Scenario, WorkloadKind};

// The sweep's argument parsing, replay spec and shrinker, checked against
// synthetic predicates rather than simulated runs.
#[cfg(test)]
mod tests {
    use hs1_types::SimTime;

    use crate::chaos::{ChaosConfig, ChaosEvent, ChaosEventKind, ChaosPlan, LinkAxis};
    use crate::sweep::{
        parse_replay, parse_sim_seconds, replay_command, shrink, ChaosCase, Inject,
    };
    use crate::ProtocolKind;

    #[test]
    fn sim_seconds_must_be_finite_and_positive() {
        assert_eq!(parse_sim_seconds("1.0"), Some(1.0));
        assert_eq!(parse_sim_seconds("0.4"), Some(0.4));
        for bad in ["0", "-0", "-1", "NaN", "inf", "-inf", "", "one"] {
            assert_eq!(parse_sim_seconds(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn replay_spec_roundtrips_through_parse() {
        let cfg = ChaosConfig::default();
        let plan = ChaosPlan::generate(3, &cfg, 4, SimTime(900_000_000));
        let case = ChaosCase {
            protocol: ProtocolKind::HotStuff1,
            plan: plan.clone(),
            sim_seconds: 1.0,
            inject: Inject::Halt,
        };
        let cmd = replay_command(&case);
        assert!(cmd.contains("--replay 'hs1:"));
        assert!(cmd.contains("--inject halt"));
        let spec = format!("hs1:{}", plan.to_spec());
        let (proto, parsed) = parse_replay(&spec).unwrap();
        assert_eq!(proto, ProtocolKind::HotStuff1);
        assert_eq!(parsed, plan);
    }

    /// Shrinking against a synthetic predicate: failure depends only on
    /// the crash window plus the drop axis, so everything else must go.
    #[test]
    fn shrink_reaches_minimal_plan() {
        let cfg = ChaosConfig { partitions: 2, crashes: 1, ..ChaosConfig::default() };
        let plan = ChaosPlan::generate(17, &cfg, 4, SimTime(3_000_000_000));
        assert!(plan.has_crashes(), "seed 17 schedules a crash");
        assert!(plan.events.len() > 2, "more than just the crash window");
        let (min, runs) = shrink(plan, |p| p.has_crashes() && p.axis_active(LinkAxis::Drop));
        assert!(runs > 0);
        // Only the crash window survives: crash + restart, plus the
        // bit-rot rider scheduled inside it (one removable unit).
        let crash_unit: usize = min
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ChaosEventKind::Crash { .. }
                        | ChaosEventKind::Restart { .. }
                        | ChaosEventKind::BitRot { .. }
                )
            })
            .count();
        assert_eq!(min.events.len(), crash_unit, "only the crash window survives");
        assert!(min.adversaries.is_empty(), "irrelevant adversary removed");
        assert!(!min.skew_active(), "irrelevant skew removed");
        assert!(min.has_crashes());
        assert!(min.axis_active(LinkAxis::Drop));
        assert!(!min.axis_active(LinkAxis::Dup), "irrelevant axis removed");
        assert!(!min.axis_active(LinkAxis::Reorder), "irrelevant axis removed");
    }

    #[test]
    fn shrink_terminates_on_unshrinkable_failure() {
        // Predicate fails for every plan: shrinking must reach the empty
        // schedule, not loop.
        let cfg = ChaosConfig::default();
        let plan = ChaosPlan::generate(5, &cfg, 4, SimTime(900_000_000));
        let (min, _) = shrink(plan, |_| true);
        assert!(min.events.is_empty());
        assert!(!min.has_link_faults());
        assert_eq!(min.weight(), 0);
    }

    #[test]
    fn shrink_keeps_failing_plan_when_nothing_removable() {
        let mut plan = ChaosPlan::empty(1, 4);
        plan.events.push(ChaosEvent {
            at: SimTime(500_000_000),
            kind: ChaosEventKind::Crash { replica: 2 },
        });
        plan.events.push(ChaosEvent {
            at: SimTime(600_000_000),
            kind: ChaosEventKind::Restart { replica: 2 },
        });
        let before = plan.clone();
        let (min, _) = shrink(plan, |p| p.has_crashes());
        assert_eq!(min, before, "already minimal");
    }
}
