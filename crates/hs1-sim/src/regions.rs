//! Geographic regions and the one-way latency matrix used by the
//! geo-scale experiments (Fig. 8e–h, Fig. 9e/j).

use hs1_types::SimDuration;

/// The five AWS regions of the paper's geo-scale experiment (§7.1), in
//  the order the paper lists them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Region {
    NorthVirginia,
    HongKong,
    London,
    SaoPaulo,
    Zurich,
}

impl Region {
    pub(crate) const ALL: [Region; 5] =
        [Region::NorthVirginia, Region::HongKong, Region::London, Region::SaoPaulo, Region::Zurich];
}

/// One-way latency between two regions (approximate public RTT ÷ 2;
/// intra-region ≈ 250 µs).
pub(crate) fn one_way(a: Region, b: Region) -> SimDuration {
    use Region::*;
    if a == b {
        return SimDuration::from_micros(250);
    }
    let ms = match (a.min_key(), b.min_key(), a, b) {
        _ if pair(a, b, NorthVirginia, HongKong) => 100,
        _ if pair(a, b, NorthVirginia, London) => 38,
        _ if pair(a, b, NorthVirginia, SaoPaulo) => 60,
        _ if pair(a, b, NorthVirginia, Zurich) => 45,
        _ if pair(a, b, HongKong, London) => 90,
        _ if pair(a, b, HongKong, SaoPaulo) => 150,
        _ if pair(a, b, HongKong, Zurich) => 95,
        _ if pair(a, b, London, SaoPaulo) => 95,
        _ if pair(a, b, London, Zurich) => 8,
        _ if pair(a, b, SaoPaulo, Zurich) => 100,
        _ => 80,
    };
    SimDuration::from_millis(ms)
}

fn pair(a: Region, b: Region, x: Region, y: Region) -> bool {
    (a == x && b == y) || (a == y && b == x)
}

impl Region {
    fn min_key(&self) -> u8 {
        *self as u8
    }
}

/// Assign `n` replicas round-robin across the first `regions` regions
/// (the paper distributes replicas uniformly across regions).
pub(crate) fn spread(n: usize, regions: usize) -> Vec<Region> {
    assert!((1..=5).contains(&regions));
    (0..n).map(|i| Region::ALL[i % regions]).collect()
}

/// Place the first `k` replicas in `a` and the rest in `b` (the Fig. 9
/// two-region deployment; `k` = number of London replicas when `a` is
/// London).
pub fn split(n: usize, k: usize, a: Region, b: Region) -> Vec<Region> {
    (0..n).map(|i| if i < k { a } else { b }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_region_is_fast() {
        for r in Region::ALL {
            assert_eq!(one_way(r, r), SimDuration::from_micros(250));
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(one_way(a, b), one_way(b, a));
            }
        }
    }

    #[test]
    fn cross_region_is_slower() {
        assert!(one_way(Region::NorthVirginia, Region::London) > SimDuration::from_millis(10));
        assert!(
            one_way(Region::HongKong, Region::SaoPaulo)
                > one_way(Region::NorthVirginia, Region::London)
        );
    }

    #[test]
    fn spread_is_uniform() {
        let placement = spread(32, 4);
        for r in 0..4 {
            let count = placement.iter().filter(|&&p| p == Region::ALL[r]).count();
            assert_eq!(count, 8);
        }
    }

    #[test]
    fn split_counts() {
        let placement = split(31, 10, Region::London, Region::NorthVirginia);
        assert_eq!(placement.iter().filter(|&&p| p == Region::London).count(), 10);
        assert_eq!(placement.iter().filter(|&&p| p == Region::NorthVirginia).count(), 21);
    }
}
