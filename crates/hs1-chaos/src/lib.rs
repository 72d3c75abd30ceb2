//! The chaos sweep: run seeded fault schedules against every engine,
//! gate on the strengthened safety/liveness invariants, and — when a
//! schedule fails — *shrink* it to the minimal failing plan for
//! one-command local replay.
//!
//! The pieces:
//!
//! * [`ChaosCase`] — one (protocol, plan, scenario-shape) cell of the
//!   sweep; [`ChaosCase::run`] executes it deterministically.
//! * [`sweep`] — N seeds × the chosen protocols, first failure wins.
//! * [`shrink`] — greedy fixed-point minimization: drop fault-event
//!   windows and zero link-fault axes while the failure persists.
//! * [`replay_command`] — the exact `cargo run` line that reproduces a
//!   failure byte-for-byte (fingerprint-checked).
//!
//! See `src/bin/chaos_sweep.rs` for the CLI CI invokes.

#![forbid(unsafe_code)]

use hs1_adversary::AdversaryStrategy;
use hs1_core::Fault;
use hs1_sim::chaos::{ChaosConfig, ChaosPlan, LinkAxis};
use hs1_sim::{ProtocolKind, Report, Scenario};
use hs1_types::ReplicaId;

/// Fault injection used to *test the gate itself*: replica faults beyond
/// the `f` the protocol tolerates, so an invariant is expected to trip,
/// reproduce byte-identically from its printed seed+plan, and shrink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Two fail-silent replicas (2 > f for n = 4): the cluster can never
    /// form a quorum, so the post-heal liveness invariant must fire on
    /// any plan that contains a heal or rejoin. Deterministic across all
    /// seeds — the canary CI uses to prove the gate is wired up.
    Halt,
    /// Two colluding equivocating leaders (also beyond the fault model):
    /// adversarial *pressure* on the speculation path; trips the safety
    /// invariants only when the schedule lines up.
    Rollback,
    /// One `hs1-adversary` backup playing `ForgeQuorum`: it forges a
    /// quorum-certificate chain over a fabricated fork (possible only
    /// because of the HMAC signature substitution) and proposes it,
    /// making honest replicas *commit* conflicting state. A safety oracle
    /// of `hs1_core::invariants` — per-height commit agreement or orphaned
    /// finality — must fire; this is the canary proving the
    /// gate catches genuine safety violations, not just liveness halts.
    Forge,
}

impl Inject {
    pub fn parse(s: &str) -> Option<Inject> {
        match s {
            "none" => Some(Inject::None),
            "halt" => Some(Inject::Halt),
            "rollback" => Some(Inject::Rollback),
            "forge" => Some(Inject::Forge),
            _ => None,
        }
    }

    pub fn token(&self) -> &'static str {
        match self {
            Inject::None => "none",
            Inject::Halt => "halt",
            Inject::Rollback => "rollback",
            Inject::Forge => "forge",
        }
    }
}

/// One cell of the sweep: everything needed to reproduce a run.
#[derive(Clone)]
pub struct ChaosCase {
    pub protocol: ProtocolKind,
    pub plan: ChaosPlan,
    pub sim_seconds: f64,
    pub inject: Inject,
}

impl ChaosCase {
    /// The standard sweep deployment: 4 replicas, batch 32, 64 clients
    /// (the quickstart shape — see ROADMAP "Quickstart config
    /// sensitivity" for why batch ≥ clients/3 matters).
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::new(self.protocol)
            .replicas(self.plan.n)
            .batch_size(32)
            .clients(64)
            .warmup_seconds(0.25)
            .sim_seconds(self.sim_seconds)
            .seed(self.plan.seed)
            .chaos(self.plan.clone());
        match self.inject {
            Inject::None => {}
            Inject::Halt => {
                s = s.with_fault(1, Fault::Silent).with_fault(2, Fault::Silent);
            }
            Inject::Rollback => {
                s = s
                    .with_fault(1, Fault::RollbackAttack { victims: vec![ReplicaId(0)] })
                    .with_fault(2, Fault::RollbackAttack { victims: vec![ReplicaId(3)] });
            }
            Inject::Forge => {
                s = s.with_adversary(1, AdversaryStrategy::ForgeQuorum);
            }
        }
        s
    }

    pub fn run(&self) -> Report {
        self.scenario().run()
    }

    /// Derive the case for `seed` with the same shape.
    pub fn with_plan(&self, plan: ChaosPlan) -> ChaosCase {
        ChaosCase { plan, ..self.clone() }
    }
}

/// Parse `--sim-seconds`: a finite number of simulated seconds above
/// zero. Zero, negative or NaN windows run nothing and would pass the
/// gate vacuously; an infinite one never returns.
pub fn parse_sim_seconds(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0)
}

/// The exact command that replays `case` byte-for-byte.
pub fn replay_command(case: &ChaosCase) -> String {
    let mut cmd = format!(
        "cargo run --release -p hs1-chaos --bin chaos_sweep -- --replay '{}:{}' --sim-seconds {}",
        case.protocol.token(),
        case.plan.to_spec(),
        case.sim_seconds,
    );
    if case.inject != Inject::None {
        cmd.push_str(&format!(" --inject {}", case.inject.token()));
    }
    cmd
}

/// Parse the `--replay` argument (`<protocol-token>:<plan-spec>`).
pub fn parse_replay(spec: &str) -> Result<(ProtocolKind, ChaosPlan), String> {
    let (proto, plan_spec) =
        spec.split_once(':').ok_or("replay spec must be <protocol>:<plan-spec>")?;
    let protocol = ProtocolKind::from_token(proto)
        .ok_or_else(|| format!("unknown protocol token {proto:?}"))?;
    let plan = ChaosPlan::from_spec(plan_spec)?;
    Ok((protocol, plan))
}

/// Outcome of one failing cell, with its minimized schedule.
pub struct Failure {
    pub case: ChaosCase,
    pub report: Report,
    pub minimized: ChaosCase,
    pub shrink_runs: u32,
}

/// Greedy fixed-point shrinking: repeatedly try removing one fault-event
/// unit (a crash/restart(+bitrot) or partition/heal pair), dropping one
/// adversary, zeroing one link axis, or flattening the clock-skew axis —
/// keeping any reduction under which `fails` still answers true.
/// Returns the minimal plan plus the number of candidate runs spent.
pub fn shrink(mut plan: ChaosPlan, mut fails: impl FnMut(&ChaosPlan) -> bool) -> (ChaosPlan, u32) {
    let mut runs = 0;
    loop {
        let mut progressed = false;
        // Event units, last first (later faults are more often incidental).
        let mut unit_idx = plan.removable_units();
        unit_idx.reverse();
        for unit in unit_idx {
            let candidate = plan.without_events(&unit);
            runs += 1;
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
                break; // indices shifted; recompute units
            }
        }
        if progressed {
            continue;
        }
        // Adversaries, last first.
        for k in (0..plan.adversaries.len()).rev() {
            let candidate = plan.without_adversary(k);
            runs += 1;
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
                break;
            }
        }
        if progressed {
            continue;
        }
        for axis in [LinkAxis::Dup, LinkAxis::Reorder, LinkAxis::Drop] {
            if !plan.axis_active(axis) {
                continue;
            }
            let candidate = plan.without_axis(axis);
            runs += 1;
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed && plan.skew_active() {
            let candidate = plan.without_skew();
            runs += 1;
            if fails(&candidate) {
                plan = candidate;
                progressed = true;
            }
        }
        if !progressed {
            return (plan, runs);
        }
    }
}

/// Run `seeds` schedules (starting at `start_seed`) for every protocol in
/// `protocols`. Stops at the first failing cell and returns it minimized;
/// `Ok` carries the number of passing runs.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    protocols: &[ProtocolKind],
    start_seed: u64,
    seeds: u64,
    cfg: &ChaosConfig,
    n: usize,
    sim_seconds: f64,
    inject: Inject,
    mut progress: impl FnMut(&ChaosCase, &Report),
) -> Result<u64, Box<Failure>> {
    let mut passed = 0;
    for seed in start_seed..start_seed + seeds {
        for &protocol in protocols {
            let probe = Scenario::new(protocol).sim_seconds(sim_seconds).warmup_seconds(0.25);
            let plan = ChaosPlan::generate(seed, cfg, n, probe.chaos_horizon());
            let case = ChaosCase { protocol, plan, sim_seconds, inject };
            let report = case.run();
            progress(&case, &report);
            if !report.invariants_ok() {
                let (min_plan, shrink_runs) =
                    shrink(case.plan.clone(), |p| !case.with_plan(p.clone()).run().invariants_ok());
                let minimized = case.with_plan(min_plan);
                return Err(Box::new(Failure { case, report, minimized, shrink_runs }));
            }
            passed += 1;
        }
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs1_sim::chaos::{ChaosEvent, ChaosEventKind};
    use hs1_types::SimTime;

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
