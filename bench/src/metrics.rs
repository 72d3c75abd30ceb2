//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with their source. `BENCHMARK.json`
//! at the repository root lists the same names; a test holds the two
//! together.

use hs1_types::ProtocolKind;

use crate::loadgen::Load;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub protocol: ProtocolKind,
    pub load: Load,
    /// Journal through `hs1-storage` (fresh directory under `bench/out/`).
    pub durable: bool,
    /// Replica 3 is built with `Fault::Silent`.
    pub silent_replica: bool,
    /// Listed in `BENCHMARK.json`, so a driver gates changes on it. Only
    /// the two workloads that leave the host headroom are: on the others
    /// same-code medians moved by 12–28 % between sets a quarter of an
    /// hour apart (`results/README.md`), more than the contract lets any
    /// bound absorb. `run.sh` runs and `--compare` judges all five.
    #[cfg_attr(not(test), allow(dead_code))]
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "open-hs1",
        why: "open loop at 4,000 tx/s on HotStuff-1: early-finality latency of independent clients at a quarter of the knee; per-view fixed cost dominates",
        protocol: ProtocolKind::HotStuff1,
        load: Load::Open { rate: 4000 },
        durable: false,
        gated: true,
        silent_replica: false,
    },
    Workload {
        name: "open-hs2",
        why: "the same stream on HotStuff-2, the paper's baseline: the same engine replying on commit, so a speculative-path gain that costs the commit path shows here",
        protocol: ProtocolKind::HotStuff2,
        load: Load::Open { rate: 4000 },
        durable: false,
        gated: true,
        silent_replica: false,
    },
    Workload {
        name: "sat-hs1",
        why: "closed loop with 256 outstanding on HotStuff-1: capacity; per-transaction frame handling and syscalls dominate",
        protocol: ProtocolKind::HotStuff1,
        load: Load::Closed { outstanding: 256 },
        durable: false,
        gated: false,
        silent_replica: false,
    },
    Workload {
        name: "sat-hs1-durable",
        why: "sat-hs1 with the hs1-storage journal on the vote path: the only workload a storage change should move",
        protocol: ProtocolKind::HotStuff1,
        load: Load::Closed { outstanding: 256 },
        durable: true,
        gated: false,
        silent_replica: false,
    },
    Workload {
        name: "fault-hs1",
        why: "open loop at 200 tx/s with replica 3 silent: every fourth leader is dead, latency is pacemaker-bound and every CPU layer is idle",
        protocol: ProtocolKind::HotStuff1,
        load: Load::Open { rate: 200 },
        durable: false,
        gated: false,
        silent_replica: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Listed under `end_to_end` in `BENCHMARK.json`, so a driver gates on
    /// it. Latency is not: its same-code spread across host phases (24 %
    /// and 36 % on the open loops) is more than the contract lets a bound
    /// be. It is listed under `per_layer` there, and judged by `--compare`.
    pub gated: bool,
    /// The share of the parent's median by which the metric may worsen
    /// before `--compare` calls it a regression, per workload in
    /// [`WORKLOADS`] order. 0.25 is the most the contract allows.
    bounds: [f64; 5],
    /// The widest quartile spread (share of the median) seen over the
    /// same-code sets in `results/`, per workload. Where it exceeds the
    /// bound, `--compare` says "unresolved", never "unchanged".
    observed_spread: [f64; 5],
}

impl EndToEnd {
    fn at(values: &[f64; 5], workload: &str) -> f64 {
        WORKLOADS.iter().position(|w| w.name == workload).map_or(0.0, |i| values[i])
    }

    pub fn bound_on(&self, workload: &str) -> f64 {
        Self::at(&self.bounds, workload)
    }

    pub fn spread_on(&self, workload: &str) -> f64 {
        Self::at(&self.observed_spread, workload)
    }

    /// The widest bound a gated workload needs: `BENCHMARK.json` has room
    /// for one bound per metric.
    #[cfg(test)]
    fn widest_gated_bound(&self) -> f64 {
        WORKLOADS.iter().filter(|w| w.gated).map(|w| self.bound_on(w.name)).fold(0.0, f64::max)
    }
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    gated: bool,
    bounds: [f64; 5],
    observed_spread: [f64; 5],
) -> EndToEnd {
    EndToEnd { name, unit, better, gated, bounds, observed_spread }
}

// Columns: open-hs1, open-hs2, sat-hs1, sat-hs1-durable, fault-hs1.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("goodput_tps", "tx/s", Better::Higher, true,
        [0.05, 0.05, 0.25, 0.25, 0.05], [0.001, 0.001, 0.280, 0.249, 0.002]),
    end_to_end("cpu_us_per_tx", "us", Better::Lower, true,
        [0.10, 0.10, 0.25, 0.25, 0.25], [0.018, 0.024, 0.228, 0.254, 0.177]),
    end_to_end("lat_p50_ms", "ms", Better::Lower, false,
        [0.25, 0.25, 0.25, 0.25, 0.10], [0.245, 0.365, 0.252, 0.293, 0.017]),
    end_to_end("finalized_frac", "ratio", Better::Higher, true,
        [0.005, 0.005, 0.005, 0.005, 0.005], [0.001, 0.001, 0.001, 0.001, 0.002]),
    end_to_end("rss_mb", "MiB", Better::Lower, true,
        [0.25, 0.25, 0.25, 0.25, 0.10], [0.103, 0.092, 0.280, 0.195, 0.028]),
    end_to_end("setup_s", "s", Better::Lower, true,
        [0.25, 0.25, 0.25, 0.25, 0.25], [0.012, 0.006, 0.006, 0.008, 0.005]),
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Spans and events the shims recorded while tracing was on.
    Trace,
    /// `/proc` thread CPU while tracing was off.
    Proc,
    /// `NodeRunner::net_stats()` whole-run totals.
    Net,
    /// Direct timed calls into a layer's public functions.
    Lab,
    /// The load generator's own observations.
    Client,
}

impl Source {
    /// The one-letter tag printed beside the metric (`bench/README.md`).
    pub fn tag(self) -> char {
        match self {
            Source::Trace => 'T',
            Source::Proc => 'P',
            Source::Net => 'N',
            Source::Lab => 'L',
            Source::Client => 'C',
        }
    }
}

/// A metric of a single layer. Which end-to-end metric each one should
/// move, and on which workload, is written down in `bench/README.md`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Listed in `BENCHMARK.json`; per-layer metrics carry no bound.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer { name, unit, better, source }
}

use Better::{Higher, Lower};
use Source::{Client, Lab, Net, Proc, Trace};

pub const PER_LAYER: [PerLayer; 61] = [
    layer("client.lat_p99_ms", "ms", Lower, Client),
    layer("client.lat_p999_ms", "ms", Lower, Client),
    layer("client.first_reply_us_p50", "us", Lower, Client),
    layer("client.quorum_wait_us_p50", "us", Lower, Client),
    layer("client.sched_late_us_p99", "us", Lower, Client),
    layer("client.cpu_us_per_tx", "us", Lower, Proc),
    layer("client.dup_final", "count", Lower, Client),
    layer("client.resubmitted", "count", Lower, Client),
    layer("core.engine_cpu_us_per_tx", "us", Lower, Proc),
    layer("core.engine_sys_frac", "ratio", Lower, Proc),
    layer("core.step_us_per_tx", "us", Lower, Trace),
    layer("core.self_us_per_tx", "us", Lower, Trace),
    layer("core.steps_per_tx", "count", Lower, Trace),
    layer("core.propose_step_us_p50", "us", Lower, Trace),
    layer("core.vote_step_us_p50", "us", Lower, Trace),
    layer("core.newview_step_us_p50", "us", Lower, Trace),
    layer("core.request_step_us_p50", "us", Lower, Trace),
    layer("core.timer_step_us_p50", "us", Lower, Trace),
    layer("core.actions_per_step", "count", Lower, Trace),
    layer("core.views_per_s", "1/s", Higher, Trace),
    layer("core.blocks_per_s", "1/s", Higher, Trace),
    layer("core.txs_per_block", "count", Higher, Trace),
    layer("core.empty_block_frac", "ratio", Lower, Trace),
    layer("core.view_timeouts", "count", Lower, Trace),
    layer("core.rollbacks", "count", Lower, Trace),
    layer("net.reactor_cpu_us_per_tx", "us", Lower, Proc),
    layer("net.reactor_sys_frac", "ratio", Lower, Proc),
    layer("net.frames_per_tx", "count", Lower, Net),
    layer("net.bytes_per_tx", "B", Lower, Net),
    layer("net.write_calls_per_tx", "count", Lower, Net),
    layer("net.read_calls_per_tx", "count", Lower, Net),
    layer("net.frames_per_writev", "count", Higher, Net),
    layer("net.frames_shed", "count", Lower, Net),
    layer("net.reconnects", "count", Lower, Net),
    layer("net.hop_us_p50", "us", Lower, Lab),
    layer("net.encode_frame_ns", "ns", Lower, Lab),
    layer("net.frame_reader_ns_per_frame", "ns", Lower, Lab),
    layer("storage.persist_us_per_tx", "us", Lower, Trace),
    layer("storage.sync_us_p50", "us", Lower, Trace),
    layer("storage.syncs_per_block", "count", Lower, Trace),
    layer("storage.on_commit_us_p50", "us", Lower, Trace),
    layer("storage.journal_bytes_per_tx", "B", Lower, Trace),
    layer("storage.append_ns", "ns", Lower, Lab),
    layer("storage.fsync_us_p50", "us", Lower, Lab),
    layer("crypto.sign_ns", "ns", Lower, Lab),
    layer("crypto.verify_ns", "ns", Lower, Lab),
    layer("crypto.hmac_64b_ns", "ns", Lower, Lab),
    layer("crypto.sha256_ns_per_byte", "ns", Lower, Lab),
    layer("types.encode_propose_ns_per_tx", "ns", Lower, Lab),
    layer("types.decode_propose_ns_per_tx", "ns", Lower, Lab),
    layer("types.encode_vote_ns", "ns", Lower, Lab),
    layer("types.decode_vote_ns", "ns", Lower, Lab),
    layer("types.request_roundtrip_ns", "ns", Lower, Lab),
    layer("types.block_new_ns_per_tx", "ns", Lower, Lab),
    layer("ledger.exec_spec_ns_per_tx", "ns", Lower, Lab),
    layer("ledger.exec_commit_ns_per_tx", "ns", Lower, Lab),
    layer("ledger.rollback_us_per_block", "us", Lower, Lab),
    layer("ledger.state_root_ms", "ms", Lower, Lab),
    layer("budget.unattributed_frac", "ratio", Lower, Lab),
    layer("bench.trace_overhead_frac", "ratio", Lower, Trace),
    layer("host.steal_frac", "ratio", Lower, Proc),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn better(b: Better) -> Json {
        Json::Str(if b == Better::Lower { "lower" } else { "higher" }.into())
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the benchmark reports. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = Json::Arr(
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| {
                    Json::obj([
                        ("name", Json::Str(w.name.into())),
                        ("why", Json::Str(w.why.into())),
                    ])
                })
                .collect(),
        );
        assert_eq!(doc.get("workloads"), Some(&workloads));
        let end_to_end = Json::Arr(
            END_TO_END
                .iter()
                .filter(|m| m.gated)
                .map(|m| {
                    Json::obj([
                        ("name", Json::Str(m.name.into())),
                        ("unit", Json::Str(m.unit.into())),
                        ("better", better(m.better)),
                        ("bound", Json::Num(m.widest_gated_bound())),
                    ])
                })
                .collect(),
        );
        assert_eq!(doc.get("end_to_end"), Some(&end_to_end));
        // Ungated end-to-end metrics are listed first among the per-layer
        // ones: reported on every traced run, bounded by nothing.
        let row = |name: &str, unit: &str, b: Better| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("unit", Json::Str(unit.into())),
                ("better", better(b)),
            ])
        };
        let per_layer = Json::Arr(
            END_TO_END
                .iter()
                .filter(|m| !m.gated)
                .map(|m| row(m.name, m.unit, m.better))
                .chain(PER_LAYER.iter().map(|m| row(m.name, m.unit, m.better)))
                .collect(),
        );
        assert_eq!(doc.get("per_layer"), Some(&per_layer));
        let seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(crate::suite::UNTRACED_S as f64));
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(ok(name, "_.-", 64) && name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn bounds_cover_the_observed_spread_and_stay_within_the_contract() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        for m in &END_TO_END {
            for w in &WORKLOADS {
                let (bound, spread) = (m.bound_on(w.name), m.spread_on(w.name));
                // The contract caps bounds at a quarter and wants set-up
                // time to have the largest.
                assert!(bound > 0.0 && bound <= setup.bound_on(w.name).min(0.25), "{}", m.name);
                // A bound may not sit below the spread that was seen,
                // unless the cap forces it to.
                assert!(bound >= spread.min(0.25), "{} on {}", m.name, w.name);
                // What a driver gates on must be steady. (`rss_mb` on the
                // open loops is ~40.5 or ~45 MiB, so a tenth is the most
                // its spread can be; everything else is under a third.)
                if m.gated && w.gated {
                    assert!(spread <= bound / 2.0, "{} on {}", m.name, w.name);
                }
            }
        }
    }
}
