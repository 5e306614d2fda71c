//! Order statistics, the seeded generator behind every workload's
//! inputs, and the machine-speed reference.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = (u64::from(pct) * sorted.len() as u64).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

/// The highest whole percentile (at most 99) that leaves at least ten
/// samples beyond it: p99 from 1000 samples up, p98 from 500, and so
/// on. Returns the percentile and how many samples lie beyond it; below
/// twenty samples this is the median.
pub fn tail_percentile(samples: usize) -> (u32, usize) {
    let pct: u32 = (50..=99)
        .rev()
        .find(|&p| samples as u64 * u64::from(100 - p) >= 1000)
        .unwrap_or(50);
    let beyond = samples - (u64::from(pct) * samples as u64).div_ceil(100) as usize;
    (pct, beyond)
}

/// SplitMix64: a tiny, fixed, well-mixed generator, so a workload's
/// inputs depend on its seed and on nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted by `stream` so that independent
    /// consumers of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is far below
    /// anything these workloads could show).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// `rounds` concatenated copies of `deck`, each shuffled
    /// (Fisher-Yates). Every seed sees the same multiset of values, so
    /// seeds differ in order and interleaving, not in total work.
    pub fn shuffled_rounds<T: Copy>(&mut self, deck: &[T], rounds: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(deck.len() * rounds);
        for _ in 0..rounds {
            let mut round = deck.to_vec();
            for i in (1..round.len()).rev() {
                round.swap(i, self.below(i as u64 + 1) as usize);
            }
            out.extend(round);
        }
        out
    }
}

/// Host seconds [`reference_s`] takes on the machine the bounds in
/// `BENCHMARK.json` were measured on (2 vCPUs of an Intel Xeon at
/// 2.0 GHz): the unit of the machine-speed factor.
pub const REFERENCE_NOMINAL_S: f64 = 0.017;

/// Times one run of a fixed, allocation-heavy, pointer-chasing loop that
/// uses only the standard library, so that no change to the repository
/// can change it. Its time tracks how fast the shared machine runs at
/// the moment: host-time metrics are scaled by it, which cancels the
/// drift in machine speed between runs.
pub fn reference_s() -> f64 {
    const KEYS: u64 = 16_384;
    const INSERTS: u64 = 32_768;
    const LOOKUPS: u64 = 65_536;
    let t0 = std::time::Instant::now();
    let mut g = SplitMix::new(0, 0);
    let mut map: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    for i in 0..INSERTS {
        map.entry(g.below(KEYS)).or_default().push(i);
    }
    let mut found = 0usize;
    for _ in 0..LOOKUPS {
        found += map.get(&g.below(KEYS)).map_or(0, Vec::len);
    }
    std::hint::black_box(found);
    drop(map);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), (99, 10));
        assert_eq!(tail_percentile(512), (98, 10));
        assert_eq!(tail_percentile(64), (84, 10));
        assert_eq!(tail_percentile(10).0, 50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn shuffled_rounds_keep_the_multiset() {
        let mut g = SplitMix::new(3, 0);
        let mut v = g.shuffled_rounds(&[1, 2, 3, 4], 2);
        v.sort_unstable();
        assert_eq!(v, vec![1, 1, 2, 2, 3, 3, 4, 4]);
    }
}
