//! Commit critical-path attribution: for every committed block, which
//! replica bounded each hop of the submit → finality chain, HotStuff-1
//! vs HotStuff-2, at the quickstart configuration (n=4, batch 32,
//! 64 clients)?
//!
//! The figure runs each protocol once under a recording observer and
//! feeds the deterministic trace through
//! [`hs1_obs::critical_path::analyze`]: a telescoped per-block
//! decomposition (submit → propose → receive → certify → respond →
//! final) with per-hop actor attribution. Two invariants are asserted on
//! every run:
//!
//! - **Exact telescoping.** Per block, the five hop durations sum to the
//!   end-to-end latency *as u64s* — not within a tolerance. The cohort
//!   totals therefore telescope too, so the hop columns add up to the
//!   e2e column.
//! - **The one-phase advantage lands in the certify hop.** HotStuff-1
//!   responds at the (n−f)-th speculation vote; HotStuff-2 only after
//!   commit. The HS1 mean `receive_to_certify` hop must be strictly
//!   smaller than HS2's.
//!
//! `mean` rows average all fully-observed blocks; `p99` rows average the
//! slowest 1% cohort by e2e. `slowest_hop`/`slowest_actor` name the hop
//! with the largest cohort mean and the replica that most often closed
//! it — the cluster-wide answer to "who is the commit bottleneck?".

use std::collections::BTreeMap;

use hs1_obs::critical_path::{self, BlockPath, HARNESS_ACTOR};
use hs1_obs::{Clock, Obs, HOP_NAMES};

use super::{standard, FigureSink};
use crate::{ProtocolKind, Scenario};

/// n = 4, f = 1: engines and clients both act on 3-of-4 quorums.
const QUORUM: usize = 3;

/// Run one protocol under a recording observer and return the critical
/// path of every fully-observed block (one with a client submission
/// point).
fn observed_paths(protocol: ProtocolKind) -> Vec<BlockPath> {
    let (obs, rec) = Obs::recording(Clock::manual());
    let scenario =
        standard(Scenario::new(protocol).replicas(4).batch_size(32).clients(64).with_observer(obs));
    let report = scenario.run();
    report.ensure_invariants(&format!("fig_critical_path [{}]", protocol.name()));
    let rec = rec.lock().expect("recorder");
    let paths = critical_path::analyze(rec.trace(), QUORUM);
    for p in &paths {
        let hop_sum: u64 = (0..5).map(|i| p.hop_ns(i)).sum();
        assert_eq!(
            hop_sum,
            p.e2e_ns(),
            "{}: block {:#018x} hops do not telescope exactly",
            protocol.name(),
            p.block,
        );
    }
    paths.into_iter().filter(|p| p.has_submit).collect()
}

/// Cohort hop means in ms (`out[0..5]`) plus the e2e mean (`out[5]`).
fn hop_means(cohort: &[BlockPath]) -> [f64; 6] {
    let n = cohort.len() as f64;
    let mut out = [0.0; 6];
    for p in cohort {
        for (i, slot) in out.iter_mut().take(5).enumerate() {
            *slot += p.hop_ns(i) as f64 / 1e6 / n;
        }
        out[5] += p.e2e_ns() as f64 / 1e6 / n;
    }
    out
}

/// The hop with the largest cohort mean, and the actor that most often
/// closed it (ties break toward the smaller actor id).
fn bottleneck(cohort: &[BlockPath], means: &[f64; 6]) -> (usize, u32) {
    let hop = (0..5).max_by(|&a, &b| means[a].total_cmp(&means[b]).then(b.cmp(&a))).unwrap_or(0);
    let mut by_actor: BTreeMap<u32, usize> = BTreeMap::new();
    for p in cohort {
        *by_actor.entry(p.actors[hop]).or_default() += 1;
    }
    let actor = by_actor
        .into_iter()
        .max_by(|(aa, ac), (ba, bc)| ac.cmp(bc).then(ba.cmp(aa)))
        .map(|(a, _)| a)
        .unwrap_or(HARNESS_ACTOR);
    (hop, actor)
}

fn actor_label(actor: u32) -> String {
    if actor == HARNESS_ACTOR {
        "harness".into()
    } else {
        format!("replica{actor}")
    }
}

fn emit(
    sink: &mut FigureSink,
    protocol: ProtocolKind,
    stat: &str,
    cohort: &[BlockPath],
) -> [f64; 6] {
    // Cohort totals telescope exactly in integer arithmetic; pin that
    // before any float rounding enters the picture.
    let hop_total: u64 = cohort.iter().map(|p| (0..5).map(|i| p.hop_ns(i)).sum::<u64>()).sum();
    let e2e_total: u64 = cohort.iter().map(|p| p.e2e_ns()).sum();
    assert_eq!(
        hop_total,
        e2e_total,
        "{} {stat}: cohort hop total does not telescope to e2e total",
        protocol.name(),
    );
    let m = hop_means(cohort);
    let (hop, actor) = bottleneck(cohort, &m);
    sink.record(format!(
        "{},{stat},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{}",
        protocol.name(),
        cohort.len(),
        m[0],
        m[1],
        m[2],
        m[3],
        m[4],
        m[5],
        HOP_NAMES[hop],
        actor_label(actor),
    ));
    m
}

pub(super) fn run(sink: &mut FigureSink) {
    sink.header(
        "protocol,stat,blocks,submit_to_propose_ms,propose_to_receive_ms,\
         receive_to_certify_ms,certify_to_respond_ms,respond_to_final_ms,e2e_ms,\
         slowest_hop,slowest_actor",
    );
    let mut certify_mean = Vec::new();
    for protocol in [ProtocolKind::HotStuff1, ProtocolKind::HotStuff2] {
        let mut all = observed_paths(protocol);
        assert!(!all.is_empty(), "{}: no fully-observed blocks in trace", protocol.name());
        let m = emit(sink, protocol, "mean", &all);
        certify_mean.push(m[2]);
        // Tail cohort: the slowest 1% of blocks by e2e (at least one).
        all.sort_by_key(|p| p.e2e_ns());
        let tail = (all.len() / 100).max(1);
        emit(sink, protocol, "p99", &all[all.len() - tail..]);
    }
    // The one-phase speculation advantage must be visible in the
    // (n−f)-th-vote hop: HS1 certifies at the speculation quorum, HS2
    // only at commit.
    assert!(
        certify_mean[0] < certify_mean[1],
        "HS1 receive_to_certify mean {:.3}ms not below HS2's {:.3}ms",
        certify_mean[0],
        certify_mean[1],
    );
}
