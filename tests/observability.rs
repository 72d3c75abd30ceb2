//! Observer-determinism properties: attaching the tracing + metrics layer
//! must never perturb a run, and what it records must itself be a pure
//! function of the seed.
//!
//! Two guarantees, pinned for all five protocol kinds:
//!
//! * **Byte-identical traces** — the same seed under a recording observer
//!   produces the same JSONL, byte for byte, across independent runs.
//! * **Pure observation** — `Report::fingerprint` with an observer
//!   attached equals the fingerprint of the same seed with no observer:
//!   the layer draws no randomness and feeds nothing back.

use hotstuff1::obs::{Alignment, Clock, ClusterTrace, Obs, Stage};
use hotstuff1::sim::{ProtocolKind, Report, Scenario};

const SEED: u64 = 17;

fn scenario(p: ProtocolKind) -> Scenario {
    Scenario::new(p)
        .replicas(4)
        .batch_size(32)
        .clients(64)
        .warmup_seconds(0.1)
        .sim_seconds(0.4)
        .seed(SEED)
}

/// One observed run: the report plus the trace JSONL and the
/// *deterministic* metrics rows. Histogram rows hold wall-measured
/// durations (fsync/exec timing) and are excluded by contract — only
/// counters and gauges are seed-reproducible.
fn observed(s: Scenario) -> (Report, String, String) {
    let (obs, rec) = Obs::recording(Clock::manual());
    let report = s.with_observer(obs).run();
    let rec = rec.lock().expect("recorder");
    let det_rows = rec
        .snapshot()
        .to_csv()
        .lines()
        .filter(|l| !l.contains(",hist,"))
        .collect::<Vec<_>>()
        .join("\n");
    (report, rec.jsonl_string(), det_rows)
}

#[test]
fn traces_are_byte_identical_across_runs_all_protocols() {
    for p in ProtocolKind::ALL {
        let (ra, trace_a, csv_a) = observed(scenario(p));
        let (rb, trace_b, csv_b) = observed(scenario(p));
        assert!(!trace_a.is_empty(), "{p:?}: recorded a non-empty trace");
        assert_eq!(trace_a, trace_b, "{p:?}: same seed, same JSONL bytes");
        assert_eq!(csv_a, csv_b, "{p:?}: same seed, same counter/gauge rows");
        assert_eq!(ra.fingerprint, rb.fingerprint, "{p:?}: same seed, same run");
    }
}

#[test]
fn observer_does_not_perturb_the_run_all_protocols() {
    for p in ProtocolKind::ALL {
        let bare = scenario(p).run();
        let (watched, _, _) = observed(scenario(p));
        assert_eq!(
            bare.fingerprint, watched.fingerprint,
            "{p:?}: attaching an observer changed the run"
        );
        assert_eq!(bare.committed_txs, watched.committed_txs, "{p:?}");
        assert_eq!(bare.replica_views, watched.replica_views, "{p:?}");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Cross-commit golden pins. Every other assertion in this file compares
/// two runs of the *same* binary; these literals compare this binary
/// with the one that generated them, so "the refactor kept outputs
/// byte-identical" is checked, not claimed. Each row is
/// `(Report::fingerprint, FNV-1a-64 of the trace JSONL)`; the trace
/// carries every stage event and counter in emission order, so it moves
/// if an engine reorders its `Obs` emissions or its `Action`s within a
/// step.
///
/// Provenance: generated at commit c4ba4aa (PR 12), before the three
/// engines were collapsed onto one view driver — except
/// `rollback/slotted`, which was not reproducible run to run there
/// (`stale_cert` broke ties between two certificates for one block by
/// `HashMap` order) and is pinned from the commit that fixed it, and the
/// four rows PR 18 moved: `slow/slotted`, `fork/slotted`, `rollback/hs1`
/// and `rollback/slotted`. There an orphan carries transactions that the
/// simulator's harness used to put back into one shared queue from global
/// knowledge; each replica now returns what *it* stored to its own pool
/// (the other five rows with such orphans kept their values). PR 20 moved
/// two again when the driver took over certificates and proposals a
/// replica cannot use yet: `rollback/hs1` (a NewView's higher
/// certificate is adopted on receipt and its missing body fetched, where
/// the chained policy parked the certificate until the body had arrived)
/// and `slow/slotted` (a slow slotted leader re-entering `propose_first`
/// keeps waiting for `ProposeAt`, as a chained one does). PR 22 moved the
/// nineteen rows of the protocols whose views end on a vote, all at once
/// and for one cause: an epoch boundary reached on a vote is crossed from
/// the local clock and the Wish/TC round runs after a timeout only, so
/// every such run has different views, timers and message counts. The
/// seven `*/slotted` rows did not move: slotted views end on the timer,
/// and their holding is the witness that the timeout path is the parent's.
/// `stale-cert/hs1` also got a schedule that times a boundary out (see
/// `partitioned` below); with the old one it read exactly as `clean/hs1`.
/// PR 26 moved `open-loop/hs1` alone: a streamlined leader with an empty
/// pool and nothing to answer holds its proposal until a request or its
/// `ProposeAt`. No closed-loop row moved: 64 clients never leave a leader
/// with an empty pool and an answered branch.
/// A change that moves a row is a behaviour change: say so in CHANGES.md
/// and paste the values the failure message prints.
#[test]
fn outputs_match_the_cross_commit_pins() {
    use hotstuff1::adversary::AdversaryStrategy::{Equivocate, StaleCert};
    use hotstuff1::consensus::Fault;
    use hotstuff1::sim::chaos::{ChaosConfig, ChaosPlan};
    use hotstuff1::sim::OpenLoop;
    use hotstuff1::types::ReplicaId;
    use ProtocolKind::*;

    let faulty = |p, fault| scenario(p).with_fault(1, fault);
    let slow = |p| faulty(p, Fault::SlowLeader);
    let fork = |p| faulty(p, Fault::TailFork);
    let rb = |p| faulty(p, Fault::RollbackAttack { victims: vec![ReplicaId(0)] });
    let crash = |p| faulty(p, Fault::Crash { after_view: 20 });
    let silent = |p| faulty(p, Fault::Silent);
    // One crash-restart through the journal: reaches `Replica::restore`.
    let reboot = |p| {
        let cfg = ChaosConfig { partitions: 0, crashes: 1, ..ChaosConfig::events_only() };
        let s = scenario(p);
        let plan = ChaosPlan::generate(SEED, &cfg, 4, s.chaos_horizon());
        s.chaos(plan)
    };
    let adv = |p, strategy| scenario(p).with_adversary(1, strategy);
    // A `StaleCert` backup shows in the Wish/TC round only, and a fault-free
    // schedule no longer runs one. Partition the backup itself (f = 1 is
    // not exceeded): it leads the last view of every other epoch, so the
    // three correct replicas reach those boundaries on a timeout and
    // synchronize, and after the heal its Wish for a *previous* boundary
    // is answered with that boundary's stored TC. Six view timers: the
    // default 120 ms window ends in a batch final twice (ROADMAP item 3).
    let partitioned = |s: Scenario| {
        let plan = "v1;seed=17;n=4;rd=0;ev=p1@200000000,h@260000000";
        s.chaos(ChaosPlan::from_spec(plan).expect("partition of replica 1"))
    };
    let bursty = |p| scenario(p).open_loop(OpenLoop::bursty(10_000.0));
    let table: Vec<(&str, Scenario, u64, u64)> = vec![
        ("clean/hs", scenario(HotStuff), 0x2142_a28f_15bd_cbc2, 0xb27b_bd75_84a9_8bea),
        ("clean/hs2", scenario(HotStuff2), 0x858f_be27_6355_d752, 0x4ed5_7781_e6f2_e9a6),
        ("clean/hs1", scenario(HotStuff1), 0xc745_faf8_4359_886b, 0x649d_a4c9_d1e5_5948),
        ("clean/basic", scenario(HotStuff1Basic), 0xf231_1c63_608f_7a9a, 0xabe3_a064_34d1_3257),
        ("clean/slotted", scenario(HotStuff1Slotted), 0x9f06_cba0_0479_fb69, 0xc0f1_6665_4789_2673),
        ("slow/hs2", slow(HotStuff2), 0x75fc_e22f_8661_d4d0, 0x6ae6_4e74_d0e2_34e8),
        ("slow/hs1", slow(HotStuff1), 0x3b24_d193_afae_0dcb, 0x0130_2fb5_bd58_83ac),
        ("slow/slotted", slow(HotStuff1Slotted), 0x45ea_7a0d_5351_bd2c, 0x1aad_0881_aaad_682d),
        ("fork/hs", fork(HotStuff), 0x7d87_7251_eb47_d38a, 0x0dda_6e5b_a721_b142),
        ("fork/hs1", fork(HotStuff1), 0x22d9_0b4a_d8b0_f847, 0xb3ef_1a2b_f279_049b),
        ("fork/slotted", fork(HotStuff1Slotted), 0x46ae_4831_93b9_6715, 0x337f_60b6_a786_3ef3),
        ("rollback/hs1", rb(HotStuff1), 0x8184_8fb5_b73a_432b, 0x6f4b_7042_932c_fac6),
        ("rollback/slotted", rb(HotStuff1Slotted), 0xa10a_df3e_7b1e_df6a, 0x07e2_6ba7_63c3_1846),
        ("crash/hs1", crash(HotStuff1), 0x9fa6_8df4_160f_23e9, 0x497a_17ae_bf28_69b8),
        ("crash/basic", crash(HotStuff1Basic), 0x3477_0dc3_e7ee_0dd4, 0xbfdb_b008_be43_d949),
        ("crash/slotted", crash(HotStuff1Slotted), 0x4bf3_c4f5_d20b_4d1a, 0x9ee2_5655_3b75_9488),
        ("silent/hs2", silent(HotStuff2), 0x98e1_2117_7260_e5f0, 0x2b93_e951_c983_335d),
        ("silent/hs1", silent(HotStuff1), 0x7db8_43be_39f1_b9c7, 0xfc79_0bd8_3929_6928),
        ("silent/basic", silent(HotStuff1Basic), 0x6c42_c31d_cfdc_216f, 0x0f07_af09_d7f3_96e0),
        ("silent/slotted", silent(HotStuff1Slotted), 0x2f0e_b603_15cc_d482, 0x2e1b_976c_97eb_c176),
        ("reboot/hs1", reboot(HotStuff1), 0xee97_29c8_f1ea_1356, 0xf268_2262_60fd_0408),
        ("reboot/basic", reboot(HotStuff1Basic), 0x121b_da8b_c575_120d, 0xe7e9_5797_ff9a_f21e),
        ("reboot/slotted", reboot(HotStuff1Slotted), 0x82ef_fb3c_ba25_e0da, 0x4d42_a8f5_f486_b66d),
        (
            "stale-cert/hs1",
            partitioned(adv(HotStuff1, StaleCert)),
            0xe45d_10c9_77ca_12cd,
            0xd2ea_57f2_0353_5446,
        ),
        (
            "equiv/basic",
            adv(HotStuff1Basic, Equivocate),
            0xd9e5_c377_a477_7cd4,
            0xbbc6_d8c3_5ed9_1068,
        ),
        ("open-loop/hs1", bursty(HotStuff1), 0xb5c5_4d53_4232_7e1d, 0x9d8f_4209_f1ef_0e49),
    ];
    let mut moved = Vec::new();
    let mut clean_hs1 = None;
    for (label, s, fingerprint, trace) in table {
        let (report, jsonl, counters) = observed(s);
        assert!(report.committed_txs > 0, "{label}: the pinned run made progress");
        assert!(report.invariants_ok(), "{label}: {:?}", report.invariant_violations);
        assert!(!counters.contains(",duplicate_finals,"), "{label}: a batch was final twice");
        let got = (report.fingerprint, fnv1a(jsonl.as_bytes()));
        match label {
            "clean/hs1" => clean_hs1 = Some(got),
            "stale-cert/hs1" => {
                assert!(counters.contains(",epoch_syncs,"), "{label}: no boundary timed out");
                let clean = clean_hs1.expect("clean/hs1 comes first in the table");
                assert_ne!(got, clean, "{label}: pins nothing clean/hs1 does not");
            }
            _ => {}
        }
        if got != (fingerprint, trace) {
            moved.push(format!("{label}: {:#018x}, {:#018x}", got.0, got.1));
        }
    }
    assert!(moved.is_empty(), "outputs moved; actual (fingerprint, trace):\n{}", moved.join("\n"));
}

/// Why a replica entered an epoch, per reason: a fault-free run of a
/// protocol whose views end on a vote crosses every boundary on one and
/// never synchronizes; a silent leader of an epoch's last view, and
/// slotted HotStuff-1 by design, reach boundaries on the timer, Wish, and
/// enter on the TC.
#[test]
fn epoch_counters_say_why_a_boundary_was_crossed() {
    use hotstuff1::consensus::Fault;
    use ProtocolKind::*;
    let has = |rows: &str, name: &str| rows.contains(&format!(",{name},"));
    let (_, _, clean) = observed(scenario(HotStuff1));
    assert!(has(&clean, "epoch_entered_vote"));
    assert!(!has(&clean, "epoch_syncs") && !has(&clean, "epoch_entered_tc"), "{clean}");
    for s in [scenario(HotStuff1).with_fault(1, Fault::Silent), scenario(HotStuff1Slotted)] {
        let (_, _, rows) = observed(s);
        assert!(has(&rows, "epoch_syncs") && has(&rows, "epoch_entered_tc"), "{rows}");
    }
}

/// Why a view waited: a streamlined leader with an empty pool and nothing
/// to answer holds its proposal, and an open loop's requests release the
/// holds; slotted HotStuff-1 never holds (its views end on the timer).
#[test]
fn hold_counters_say_why_a_view_waited() {
    use hotstuff1::sim::OpenLoop;
    let has = |rows: &str, name: &str| rows.contains(&format!(",{name},"));
    let open = scenario(ProtocolKind::HotStuff1).open_loop(OpenLoop::bursty(10_000.0));
    let (_, _, rows) = observed(open);
    assert!(has(&rows, "proposals_held") && has(&rows, "hold_released_request"), "{rows}");
    let (_, _, rows) = observed(scenario(ProtocolKind::HotStuff1Slotted));
    for name in ["proposals_held", "hold_released_request", "hold_released_timer"] {
        assert!(!has(&rows, name), "{name}: {rows}");
    }
}

#[test]
fn trace_covers_the_full_block_lifecycle() {
    // One HS1 run must exhibit every lifecycle stage (speculation
    // included) plus the harness's finality/submit points, and the
    // metrics snapshot must account for the committed blocks.
    let (obs, rec) = Obs::recording(Clock::manual());
    let report = scenario(ProtocolKind::HotStuff1).with_observer(obs).run();
    let rec = rec.lock().expect("recorder");

    let has_stage = |s: Stage| {
        rec.trace().iter().any(
            |ev| matches!(ev.kind, hotstuff1::obs::EventKind::Stage { stage, .. } if stage == s),
        )
    };
    for s in [
        Stage::Received,
        Stage::Proposed,
        Stage::Voted,
        Stage::Speculated,
        Stage::Committed,
        Stage::Responded,
    ] {
        assert!(has_stage(s), "trace contains a {} stage", s.name());
    }
    let has_point = |n: &str| {
        rec.trace()
            .iter()
            .any(|ev| matches!(ev.kind, hotstuff1::obs::EventKind::Point { name, .. } if name == n))
    };
    assert!(has_point("finality"), "harness emitted finality points");
    assert!(has_point("submit_mean"), "harness emitted submit-time points");

    let snap = rec.snapshot();
    assert!(snap.counter_total("blocks_committed") > 0, "commit counter advanced");
    assert!(snap.counter_total("blocks_proposed") > 0, "propose counter advanced");
    assert!(snap.counter_total("blocks_speculated") > 0, "speculation counter advanced");
    assert!(snap.counter_total("votes_sent") > 0, "vote counter advanced");
    assert!(report.committed_txs > 0);
}

/// One recorded run, its recording split into per-replica lanes and
/// merged back into the cluster timeline.
fn cluster_run(p: ProtocolKind) -> (Report, ClusterTrace) {
    let (obs, rec) = Obs::recording(Clock::manual());
    let report = scenario(p).with_observer(obs).run();
    let lanes = hotstuff1::obs::lanes(rec.lock().expect("recorder").trace(), report.n);
    (report, ClusterTrace::merge(lanes, Alignment::SharedClock))
}

/// One cluster-recorded run: the report, the merged cluster timeline's
/// JSONL, and the per-block critical paths.
fn cluster_observed(
    p: ProtocolKind,
) -> (Report, String, Vec<hotstuff1::obs::critical_path::BlockPath>) {
    let (report, merged) = cluster_run(p);
    let paths = hotstuff1::obs::critical_path::analyze(&merged.events, 3);
    (report, merged.to_jsonl(), paths)
}

#[test]
fn merged_cluster_trace_is_byte_identical_and_pure() {
    // The tentpole determinism guarantee: fanning the trace out into
    // per-replica lanes and causally joining them back must be as
    // reproducible as the flat recorder — and just as invisible to the
    // run (`Report::fingerprint` unchanged with merge + export attached).
    for p in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2] {
        let bare = scenario(p).run();
        let (ra, jsonl_a, _) = cluster_observed(p);
        let (rb, jsonl_b, _) = cluster_observed(p);
        assert!(!jsonl_a.is_empty(), "{p:?}: merged trace is non-empty");
        assert_eq!(jsonl_a, jsonl_b, "{p:?}: same seed, same merged cluster JSONL");
        assert_eq!(bare.fingerprint, ra.fingerprint, "{p:?}: cluster recording is pure");
        assert_eq!(ra.fingerprint, rb.fingerprint, "{p:?}: same seed, same run");
    }
}

#[test]
fn critical_path_attributes_every_finalized_block() {
    use hotstuff1::obs::critical_path::{finalized_blocks, HARNESS_ACTOR};

    for p in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2] {
        let (_, merged) = cluster_run(p);
        let paths = hotstuff1::obs::critical_path::analyze(&merged.events, 3);
        let finalized = finalized_blocks(&merged.events);
        assert!(finalized > 0, "{p:?}: run finalized blocks");
        assert_eq!(paths.len(), finalized, "{p:?}: one attributed path per finalized block");
        for path in &paths {
            let hop_sum: u64 = (0..5).map(|i| path.hop_ns(i)).sum();
            assert_eq!(hop_sum, path.e2e_ns(), "{p:?}: hops telescope exactly");
            for (i, &actor) in path.actors.iter().enumerate() {
                assert!(
                    actor < 4 || actor == HARNESS_ACTOR,
                    "{p:?}: hop {i} attributed to a real actor, got {actor}"
                );
            }
            assert_eq!(path.actors[4], HARNESS_ACTOR, "{p:?}: finality hop is the client's");
        }
    }
}

#[test]
fn perfetto_export_is_well_formed() {
    let export = || {
        let (_, merged) = cluster_run(ProtocolKind::HotStuff1);
        hotstuff1::obs::perfetto::chrome_trace_json(&merged.events)
    };
    let json = export();
    assert!(json.starts_with("{\"traceEvents\":["), "chrome trace envelope");
    assert!(json.trim_end().ends_with("]}"), "closed envelope");
    assert!(json.contains("\"process_name\""), "process metadata present");
    assert!(json.contains("\"replica 0\""), "per-replica track names present");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""), "view spans present");
    assert!(json.contains("\"ph\":\"i\""), "stage instants present");
    // Deterministic like everything else downstream of the manual clock.
    assert_eq!(json, export());
}

#[test]
fn observer_is_pure_under_chaos_too() {
    // The guarantee the chaos gate's `--trace` replay flag leans on:
    // recording a faulty run (drops, partition/heal, crash-restart,
    // restarts re-attach the observer) still replays byte-identically
    // and leaves the fingerprint untouched.
    use hotstuff1::sim::chaos::{ChaosConfig, ChaosPlan};

    // One guaranteed crash so the durable-journal path (and its observer
    // re-attachment on restart) is exercised.
    let cfg = ChaosConfig { partitions: 0, crashes: 1, ..ChaosConfig::events_only() };
    let plan = |s: &Scenario| ChaosPlan::generate(SEED, &cfg, 4, s.chaos_horizon());
    let s = scenario(ProtocolKind::HotStuff1);
    let bare = scenario(ProtocolKind::HotStuff1).chaos(plan(&s)).run();
    assert_eq!(bare.chaos.crashes, 1);

    let run_traced = || {
        let (obs, rec) = Obs::recording(Clock::manual());
        let s = scenario(ProtocolKind::HotStuff1);
        let chaos = plan(&s);
        let report = s.with_observer(obs).chaos(chaos).run();
        let rec = rec.lock().expect("recorder");
        (report, rec.jsonl_string(), rec.snapshot().counter_total("fsyncs"))
    };
    let (ra, trace_a, fsyncs) = run_traced();
    let (rb, trace_b, _) = run_traced();
    assert_eq!(bare.fingerprint, ra.fingerprint, "observer is pure under chaos");
    assert_eq!(ra.fingerprint, rb.fingerprint);
    assert_eq!(trace_a, trace_b, "chaotic runs trace byte-identically too");
    assert!(!trace_a.is_empty());
    assert!(fsyncs > 0, "durable journals reported fsyncs through the observer");
}
