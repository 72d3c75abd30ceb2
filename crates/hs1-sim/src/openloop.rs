//! Open-loop load generation: seed-deterministic arrival processes with
//! an offered load in tx/s, decoupled from finality.
//!
//! The closed-loop clients [`crate::runner::SimRunner::spawn_clients`]
//! models reissue on finalize, so the offered load always equals the
//! service rate and the system can never be pushed *past* saturation —
//! latency under overload, queue growth, and admission backpressure are
//! all invisible. Open-loop arrivals fix that: transactions arrive on a
//! schedule that does not care whether earlier ones finished, which is
//! how "heavy traffic from millions of users" actually behaves.
//!
//! Two arrival processes, both pure functions of the seed:
//!
//! * **Poisson** — exponential inter-arrival gaps at the offered rate,
//!   the standard memoryless model.
//! * **Bursty** — an on/off modulated Poisson: each `period` opens with an
//!   on-window covering `duty` of it, during which arrivals run at
//!   `offered / duty` (so the *average* rate still matches the offered
//!   load), followed by silence. Models synchronized client cohorts and
//!   retry storms.

use hs1_types::{SimDuration, SimTime, SplitMix64};

/// How open-loop arrivals are spaced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals at the offered rate.
    Poisson,
    /// On/off bursts: active for `duty` of each `period` at a peak rate
    /// of `offered / duty`, silent otherwise. `duty` is clamped to
    /// (0, 1]; `duty = 1` degenerates to [`ArrivalKind::Poisson`].
    Bursty { period: SimDuration, duty: f64 },
}

/// A complete open-loop client description, installed on a
/// [`crate::Scenario`] via [`crate::Scenario::open_loop`].
#[derive(Clone, Debug)]
pub struct OpenLoop {
    /// Offered load in transactions per second (averaged over bursts).
    pub offered_tps: f64,
    /// Arrival process shape.
    pub arrivals: ArrivalKind,
    /// Virtual client pool the arrivals round-robin over (distinct
    /// `TxId.client` values; affects key-space attribution only).
    pub clients: usize,
    /// Adversarial duplicate-submitting client: every `k`-th arrival
    /// resubmits the previous transaction (same `TxId`) instead of a
    /// fresh one. `0` = none. Every mempool's admission dedup must drop
    /// these, counted under `requests_deduped`.
    pub duplicate_every: u64,
}

impl OpenLoop {
    /// Poisson arrivals at `offered_tps` over a 256-client pool.
    pub fn poisson(offered_tps: f64) -> OpenLoop {
        OpenLoop { offered_tps, arrivals: ArrivalKind::Poisson, clients: 256, duplicate_every: 0 }
    }

    /// Bursty arrivals averaging `offered_tps`: 20 ms periods, 25% duty
    /// (4x peak rate inside each burst).
    pub fn bursty(offered_tps: f64) -> OpenLoop {
        OpenLoop {
            arrivals: ArrivalKind::Bursty { period: SimDuration::from_millis(20), duty: 0.25 },
            ..OpenLoop::poisson(offered_tps)
        }
    }

    pub fn duplicate_every(mut self, k: u64) -> OpenLoop {
        self.duplicate_every = k;
        self
    }
}

/// The deterministic arrival-time stream for one [`OpenLoop`] config.
///
/// Gaps are sampled in *active time* (time during on-windows) and mapped
/// to wall time afterwards, so the bursty mapping needs no rejection
/// loop: cumulative active time `a` lands at wall time
/// `floor(a / on) * period + (a mod on)`.
pub(crate) struct ArrivalGen {
    /// Peak rate (arrivals per active second).
    rate: f64,
    /// On-window length per period in seconds (0 = continuous Poisson).
    on_s: f64,
    period_s: f64,
    /// Cumulative active time of the last arrival, seconds.
    active_s: f64,
    rng: SplitMix64,
}

impl ArrivalGen {
    pub(crate) fn new(cfg: &OpenLoop, rng: SplitMix64) -> ArrivalGen {
        assert!(cfg.offered_tps > 0.0, "open-loop offered load must be positive");
        let (rate, on_s, period_s) = match cfg.arrivals {
            ArrivalKind::Poisson => (cfg.offered_tps, 0.0, 0.0),
            ArrivalKind::Bursty { period, duty } => {
                let duty = duty.clamp(1e-6, 1.0);
                if duty >= 1.0 {
                    (cfg.offered_tps, 0.0, 0.0)
                } else {
                    let period_s = period.as_secs_f64().max(1e-9);
                    (cfg.offered_tps / duty, period_s * duty, period_s)
                }
            }
        };
        ArrivalGen { rate, on_s, period_s, active_s: 0.0, rng }
    }

    /// The next arrival's wall time. Strictly monotone non-decreasing.
    pub(crate) fn next_arrival(&mut self) -> SimTime {
        // `1 - u` keeps the argument in (0, 1]: ln(0) never happens.
        let u = self.rng.next_f64();
        self.active_s += -(1.0 - u).ln() / self.rate;
        let wall_s = if self.on_s == 0.0 {
            self.active_s
        } else {
            let epoch = (self.active_s / self.on_s).floor();
            epoch * self.period_s + (self.active_s - epoch * self.on_s)
        };
        SimTime::ZERO + SimDuration::from_secs_f64(wall_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(cfg: &OpenLoop, seed: u64, n: usize) -> Vec<SimTime> {
        let mut g = ArrivalGen::new(cfg, SplitMix64::new(seed));
        (0..n).map(|_| g.next_arrival()).collect()
    }

    #[test]
    fn poisson_hits_the_offered_rate() {
        let cfg = OpenLoop::poisson(10_000.0);
        let ts = times(&cfg, 7, 20_000);
        let span = ts.last().unwrap().as_secs_f64();
        let rate = 20_000.0 / span;
        assert!((rate - 10_000.0).abs() < 500.0, "measured {rate} tx/s");
    }

    #[test]
    fn arrivals_are_monotone_and_deterministic() {
        let cfg = OpenLoop::bursty(5_000.0);
        let a = times(&cfg, 11, 5_000);
        let b = times(&cfg, 11, 5_000);
        assert_eq!(a, b, "same seed, same arrival stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "monotone arrival times");
        assert_ne!(a, times(&cfg, 12, 5_000), "different seed, different stream");
    }

    #[test]
    fn bursty_matches_average_rate_but_concentrates_arrivals() {
        let cfg = OpenLoop::bursty(10_000.0); // 20 ms period, 25% duty
        let ts = times(&cfg, 3, 40_000);
        let span = ts.last().unwrap().as_secs_f64();
        let rate = 40_000.0 / span;
        assert!((rate - 10_000.0).abs() < 600.0, "average rate holds: {rate} tx/s");
        // Every arrival falls inside an on-window ([k*20ms, k*20ms+5ms)).
        for t in &ts {
            let in_period = t.as_secs_f64() % 0.020;
            assert!(in_period < 0.005 + 1e-9, "arrival at {in_period}s offset is inside a burst");
        }
    }

    #[test]
    fn duty_one_is_plain_poisson() {
        let bursty = OpenLoop {
            arrivals: ArrivalKind::Bursty { period: SimDuration::from_millis(20), duty: 1.0 },
            ..OpenLoop::poisson(8_000.0)
        };
        assert_eq!(times(&bursty, 5, 1_000), times(&OpenLoop::poisson(8_000.0), 5, 1_000));
    }
}
