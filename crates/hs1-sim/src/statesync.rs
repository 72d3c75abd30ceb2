//! Cost-modeled catch-up comparison: per-block replay vs snapshot state
//! transfer (the `hs1-statesync` subsystem), priced with the same
//! [`CostModel`] terms the simulator charges live traffic with.
//!
//! The model answers the design question behind the node runner's
//! gap-threshold heuristic: *at what lag does snapshot transfer beat
//! replay?* Replay pays one fetch round trip, one block transmission and
//! one batch re-execution **per missing block** — O(gap). Snapshot
//! transfer pays manifest agreement, the image transmission (bounded by
//! state size, not history), one pass of per-entry install work, and a
//! short residual replay — O(state). The crossover is where the
//! gap-proportional term overtakes the state-proportional one;
//! `fig_recovery` plots both columns (measured + modeled) as CSV.

use crate::cost::CostModel;
use hs1_types::SimDuration;

/// One catch-up scenario: a replica `gap` blocks behind a live cluster.
#[derive(Clone, Debug)]
pub struct CatchupModel {
    pub cost: CostModel,
    /// One request/response round trip to a serving peer.
    pub rtt: SimDuration,
    /// Transactions per fetched block (drives replay re-execution).
    pub txs_per_block: u64,
    /// Wire size of one `FetchResp` (block body).
    pub block_bytes: usize,
    /// Materialized KV entries in the snapshot image.
    pub state_entries: u64,
    /// Committed chain length, priced at 32 bytes per id in the image.
    /// A real image ships only a window of the log, at most 64 ids past
    /// `PRUNE_KEEP` at 64 bytes each, so this over-prices long chains; it
    /// is kept because the pinned chaos runs decide snapshot against
    /// replay with it.
    pub chain_len: u64,
    /// Snapshot chunk size (each chunk costs one sequential round trip).
    pub chunk_bytes: u64,
    /// Manifest-collection round trips before the download starts
    /// (request fan-out + the f+1 agreement wait).
    pub manifest_rounds: u64,
    /// Blocks committed by the cluster while the snapshot transferred —
    /// replayed through the ordinary fetch path after install.
    pub residual_blocks: u64,
}

impl CatchupModel {
    /// Defaults matching the quickstart deployment: LAN RTT, 32-tx
    /// blocks, and a 256 KiB chunk size.
    pub fn lan(state_entries: u64, chain_len: u64) -> CatchupModel {
        CatchupModel {
            cost: CostModel::default(),
            rtt: SimDuration::from_micros(500),
            txs_per_block: 32,
            block_bytes: 96 + 64 + 32 * 8,
            state_entries,
            chain_len,
            chunk_bytes: 256 * 1024,
            manifest_rounds: 2,
            residual_blocks: 4,
        }
    }

    /// Encoded image size: record count + 16 bytes per materialized
    /// entry + 32 bytes per chain id (plus the two sequence headers).
    pub fn image_bytes(&self) -> u64 {
        24 + self.state_entries * 16 + self.chain_len * 32
    }

    /// Catch-up time for per-block replay of `gap` blocks: the fetch
    /// path walks the chain one body per round trip, and every body is
    /// re-executed into the ledger.
    pub fn replay_time(&self, gap: u64) -> SimDuration {
        let per_block = self.rtt
            + self.cost.tx_time(self.block_bytes)
            + self.cost.per_msg
            + self.cost.per_tx_exec * self.txs_per_block;
        per_block * gap
    }

    /// Catch-up time for snapshot transfer: manifest agreement, the
    /// sequential chunk pulls, per-entry install (hash + apply), and the
    /// residual suffix replayed through the fetch path. Independent of
    /// `gap` — that is the whole point.
    pub fn snapshot_time(&self) -> SimDuration {
        let bytes = self.image_bytes();
        let chunks = bytes.div_ceil(self.chunk_bytes).max(1);
        let transfer = (self.rtt + self.cost.per_msg) * (chunks + self.manifest_rounds)
            + self.cost.tx_time(bytes as usize);
        let install =
            (self.cost.per_tx_hash + self.cost.per_tx_exec) * (self.state_entries + self.chain_len);
        transfer + install + self.replay_time(self.residual_blocks)
    }

    /// Smallest gap (in blocks) at which snapshot transfer becomes
    /// cheaper than replay. Replay is linear in the gap with a nonzero
    /// per-block cost, so the crossover always exists.
    pub fn crossover_blocks(&self) -> u64 {
        let snapshot = self.snapshot_time().0 as u128;
        let per_block = self.replay_time(1).0.max(1) as u128;
        (snapshot / per_block + 1) as u64
    }

    /// CSV row fragment `(gap, replay_ms, snapshot_ms)` for figures.
    pub fn csv_row(&self, gap: u64) -> String {
        format!(
            "{gap},{:.3},{:.3}",
            self.replay_time(gap).as_millis_f64(),
            self.snapshot_time().as_millis_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_scales_linearly_with_gap() {
        let m = CatchupModel::lan(10_000, 1_000);
        let one = m.replay_time(1).0;
        assert!(one > 0);
        assert_eq!(m.replay_time(100).0, one * 100);
        assert_eq!(m.replay_time(0), SimDuration::ZERO);
    }

    #[test]
    fn snapshot_time_is_gap_independent_but_state_dependent() {
        let small = CatchupModel::lan(1_000, 100);
        let large = CatchupModel::lan(1_000_000, 100);
        // Same model, any gap: snapshot cost is a constant.
        assert_eq!(small.snapshot_time(), small.snapshot_time());
        // More state ⇒ more bytes ⇒ slower snapshot.
        assert!(large.snapshot_time() > small.snapshot_time());
        assert!(large.image_bytes() > small.image_bytes());
    }

    #[test]
    fn crossover_exists_and_snapshot_wins_past_it() {
        let m = CatchupModel::lan(50_000, 5_000);
        let x = m.crossover_blocks();
        assert!(x > 0);
        assert!(
            m.replay_time(x) > m.snapshot_time(),
            "replay must lose at the crossover gap ({x} blocks)"
        );
        if x > 1 {
            assert!(
                m.replay_time(x - 1) <= m.snapshot_time(),
                "crossover must be the smallest winning gap"
            );
        }
    }

    #[test]
    fn bigger_state_pushes_the_crossover_out() {
        let small = CatchupModel::lan(1_000, 500);
        let large = CatchupModel::lan(2_000_000, 500);
        assert!(large.crossover_blocks() > small.crossover_blocks());
    }

    #[test]
    fn csv_row_shape() {
        let m = CatchupModel::lan(1_000, 100);
        let row = m.csv_row(64);
        assert_eq!(row.split(',').count(), 3);
        assert!(row.starts_with("64,"));
    }
}
