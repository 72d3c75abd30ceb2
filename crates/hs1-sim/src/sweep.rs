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
//! * `shrink` — greedy fixed-point minimization over the smaller plans
//!   `ChaosPlan::shrink_candidates` lists, while the failure persists.
//! * [`replay_command`] — the exact `cargo run` line that reproduces a
//!   failure byte-for-byte (fingerprint-checked).
//!
//! See `src/bin/chaos_sweep.rs` for the CLI CI invokes.

use hs1_adversary::AdversaryStrategy;
use hs1_core::Fault;
use hs1_types::ReplicaId;

use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::{ProtocolKind, Report, Scenario};

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

    pub(crate) fn token(&self) -> &'static str {
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
    pub(crate) fn with_plan(&self, plan: ChaosPlan) -> ChaosCase {
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
        "cargo run --release -p hs1-sim --bin chaos_sweep -- --replay '{}:{}' --sim-seconds {}",
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

/// Greedy fixed-point shrinking: keep the first of
/// [`ChaosPlan::shrink_candidates`] under which `fails` still answers
/// true, and start over from it until no candidate fails. Returns the
/// minimal plan plus the number of candidate runs spent.
pub(crate) fn shrink(
    mut plan: ChaosPlan,
    mut fails: impl FnMut(&ChaosPlan) -> bool,
) -> (ChaosPlan, u32) {
    let mut runs = 0;
    loop {
        let smaller = plan.shrink_candidates().find(|candidate| {
            runs += 1;
            fails(candidate)
        });
        match smaller {
            Some(smaller) => plan = smaller,
            None => return (plan, runs),
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
