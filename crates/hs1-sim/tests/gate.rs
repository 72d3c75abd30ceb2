//! End-to-end acceptance test for the chaos gate: an injected invariant
//! violation must (a) be caught by the sweep, (b) reproduce
//! byte-identically from its seed+plan, and (c) shrink to a smaller
//! failing schedule that still reproduces.

use hs1_sim::chaos::ChaosConfig;
use hs1_sim::sweep::{parse_replay, replay_command, sweep, ChaosCase, Inject};
use hs1_sim::ProtocolKind;

/// A bit-rot fail-stop takes a replica away for good. 3-chain HotStuff
/// commits behind four consecutive live leaders, which round-robin over
/// n = 4 with one replica gone never has: the cluster is safe and cannot
/// commit, and the post-quiescence liveness oracle must not call that a
/// violation. (It did: the sweep's seed 61 passed only while the bits its
/// plan flipped happened to be recoverable.)
#[test]
fn failstop_under_three_chain_hotstuff_is_not_a_liveness_violation() {
    let spec = "v1;seed=61;n=4;rd=5000000;ev=c1@445603953,b1x4@520603953,r1@595603953";
    let case = |protocol: &str| {
        let (protocol, plan) = parse_replay(&format!("{protocol}:{spec}")).expect("spec parses");
        ChaosCase { protocol, plan, sim_seconds: 1.0, inject: Inject::None }
    };
    let hs = case("hs").run();
    assert_eq!(hs.chaos.bitrot_failstops, 1, "the replay reaches the fail-stop");
    assert!(hs.invariants_ok(), "{:?}", hs.invariant_violations);
    // Under a 2-chain rule the survivors of the same schedule commit, and
    // there the oracle keeps demanding it.
    let hs2 = case("hs2").run();
    assert!(hs2.invariants_ok(), "{:?}", hs2.invariant_violations);
    assert!(hs2.committed_blocks > hs.committed_blocks, "HotStuff-2 kept committing");
}

#[test]
fn forged_quorum_violation_is_caught_and_replays_byte_identically() {
    // The safety-side canary: a ForgeQuorum adversary (beyond the fault
    // model — it forges other replicas' HMAC shares) makes honest
    // replicas commit a fabricated fork. The sweep must catch it as a
    // *safety* violation, the printed spec must reproduce the identical
    // run, and the shrunk plan must still fail.
    let failure = sweep(
        &[ProtocolKind::HotStuff1],
        0,
        1,
        &ChaosConfig::default(),
        4,
        0.6,
        Inject::Forge,
        |_, _| {},
    )
    .expect_err("forge injection must fail the sweep");

    // One line per disagreeing replica, not one per height, and nothing
    // the per-height rule already implies.
    let violations = &failure.report.invariant_violations;
    let heights = violations.iter().filter(|v| v.contains("conflicting commits at height")).count();
    assert!((1..=failure.report.n).contains(&heights), "1..=n height lines: {violations:?}");
    assert!(!violations.iter().any(|v| v.contains("diverges from")), "{violations:?}");

    // The minimized plan and the candidate runs the shrinker spent on it:
    // a shrinker change that reaches another minimum, or the same one by
    // another path, moves them.
    assert_eq!(format!("hs1:{}", failure.minimized.plan.to_spec()), "hs1:v1;seed=0;n=4;rd=5000000");
    assert_eq!(failure.shrink_runs, 6);

    let cmd = replay_command(&failure.minimized);
    assert!(cmd.contains("--inject forge"), "replay carries the injection flag: {cmd}");
    let spec_start = cmd.find("--replay '").expect("replay spec printed") + "--replay '".len();
    let spec = &cmd[spec_start..cmd[spec_start..].find('\'').unwrap() + spec_start];
    let (protocol, plan) = parse_replay(spec).expect("printed spec parses");
    assert_eq!(protocol, ProtocolKind::HotStuff1);
    let replayed = ChaosCase { plan, ..failure.minimized.clone() }.run();
    let rerun = failure.minimized.run();
    assert_eq!(
        replayed.fingerprint, rerun.fingerprint,
        "shrunk plan replays byte-identically from its printed spec"
    );
    assert!(!replayed.invariants_ok(), "and still violates");
}

#[test]
fn injected_violation_is_caught_reproduced_and_shrunk() {
    // Two fail-silent replicas exceed f for n = 4: the post-fault
    // liveness invariant must fire on every seed whose plan heals or
    // rejoins something (the default config always schedules both).
    let failure = sweep(
        &[ProtocolKind::HotStuff1],
        0,
        1,
        &ChaosConfig::default(),
        4,
        0.6,
        Inject::Halt,
        |_, _| {},
    )
    .expect_err("halt injection must fail the sweep");

    // (a) caught: a liveness violation, not a panic.
    assert!(
        failure.report.invariant_violations.iter().any(|v| v.contains("no commits")),
        "expected the liveness invariant: {:?}",
        failure.report.invariant_violations
    );

    // (b) byte-identical reproduction from the printed seed+plan: parse
    // the replay command's own spec back and re-run it.
    let cmd = replay_command(&failure.case);
    let spec_start = cmd.find("--replay '").expect("replay spec printed") + "--replay '".len();
    let spec = &cmd[spec_start..cmd[spec_start..].find('\'').unwrap() + spec_start];
    let (protocol, plan) = parse_replay(spec).expect("printed spec parses");
    assert_eq!(protocol, failure.case.protocol);
    let replayed = ChaosCase { plan, ..failure.case.clone() }.run();
    assert_eq!(
        replayed.fingerprint, failure.report.fingerprint,
        "replay from the printed spec is byte-identical"
    );
    assert!(!replayed.invariants_ok(), "and still violates");

    // (c) shrunk: strictly less fault mass, still failing, and the
    // minimized replay command round-trips too.
    assert!(
        failure.minimized.plan.weight() < failure.case.plan.weight(),
        "minimized {} < original {}",
        failure.minimized.plan.weight(),
        failure.case.plan.weight()
    );
    // Pinned like the forge canary's.
    assert_eq!(
        format!("hs1:{}", failure.minimized.plan.to_spec()),
        "hs1:v1;seed=0;n=4;rd=5000000;ev=p1@198262241,h@318262241"
    );
    assert_eq!(failure.shrink_runs, 10);
    let min_report = failure.minimized.run();
    assert!(!min_report.invariants_ok(), "minimized schedule still fails");
    let min_cmd = replay_command(&failure.minimized);
    assert!(min_cmd.contains(failure.minimized.protocol.token()));
    assert!(min_cmd.contains("--inject halt"), "replay carries the injection flag");
}
