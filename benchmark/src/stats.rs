//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! span self time and metric-name validation. Kept free of any program
//! type so the self-tests below pin the rules alone.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// Samples that must lie above a percentile before it is reported.
pub const MIN_ABOVE: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Timing over consecutive blocks of episodes. A block's rates are its
/// summed work over its summed episode time, wall-clock or CPU, and its
/// set-up time is the mean CPU time of the set-ups made during it. Results are medians over complete blocks: a block spans
/// several of the machine's speed phases and several seeds, and the
/// median drops the blocks that an interruption hit.
#[derive(Debug)]
pub struct Blocks {
    per_block: usize,
    current: Block,
    done: Vec<Block>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Block {
    episodes: usize,
    wall_s: f64,
    cpu_s: f64,
    ticks: f64,
    requests: f64,
    setup_cpu_s: f64,
    setups: usize,
}

impl Blocks {
    /// Blocks of `per_block` episodes each.
    pub fn new(per_block: usize) -> Self {
        Blocks {
            per_block,
            current: Block::default(),
            done: Vec::new(),
        }
    }

    /// Records one set-up made during the current block.
    pub fn setup(&mut self, cpu_s: f64) {
        self.current.setup_cpu_s += cpu_s;
        self.current.setups += 1;
    }

    /// Records one episode of the current block; the block completes
    /// after `per_block` of them.
    pub fn episode(&mut self, wall_s: f64, cpu_s: f64, ticks: f64, requests: f64) {
        let c = &mut self.current;
        c.episodes += 1;
        c.wall_s += wall_s;
        c.cpu_s += cpu_s;
        c.ticks += ticks;
        c.requests += requests;
        if c.episodes == self.per_block {
            self.done.push(std::mem::take(c));
        }
    }

    /// Complete blocks.
    pub fn count(&self) -> usize {
        self.done.len()
    }

    fn median_of(&self, f: impl Fn(&Block) -> f64) -> Option<f64> {
        median(&self.done.iter().map(f).collect::<Vec<_>>())
    }

    /// Ticks per CPU second of every complete block, in run order.
    pub fn cpu_tick_rates(&self) -> Vec<f64> {
        self.done.iter().map(|b| b.ticks / b.cpu_s).collect()
    }

    /// Median over blocks of ticks per wall-clock second.
    pub fn ticks_per_s(&self) -> Option<f64> {
        self.median_of(|b| b.ticks / b.wall_s)
    }

    /// Median over blocks of ticks per CPU second.
    pub fn ticks_per_cpu_s(&self) -> Option<f64> {
        self.median_of(|b| b.ticks / b.cpu_s)
    }

    /// Median over blocks of requests per wall-clock second.
    pub fn requests_per_s(&self) -> Option<f64> {
        self.median_of(|b| b.requests / b.wall_s)
    }

    /// Median over blocks of the mean set-up CPU time.
    pub fn setup_s(&self) -> Option<f64> {
        self.median_of(|b| b.setup_cpu_s / b.setups as f64)
    }
}

/// Nearest-rank index of percentile `p` in a sorted sample of size `n`
/// (`n > 0`): the 0-based index of the value at rank `⌈p/100 · n⌉`.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps exact ranks (99 % of 1000 = 990) from rounding
    // up through floating-point noise in `p`.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of an ascending `sorted` sample; `None`
/// when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank_index(sorted.len(), p)])
}

/// Samples ranked above percentile `p` in a sample of size `n`.
pub fn samples_above(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// The reported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: u64,
    /// Samples ranked above it (at least [`MIN_ABOVE`]).
    pub above: usize,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_ABOVE`] samples above it; `None` when even the lowest rung has
/// too few.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| samples_above(n, p) >= MIN_ABOVE)
        .map(|&p| Tail {
            percentile: p,
            value: sorted[rank_index(n, p)],
            above: samples_above(n, p),
            samples: n,
        })
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers. Intervals are `[start,
/// end)` in nanoseconds; children may overlap each other or spill past
/// the parent, and only the covered part inside the parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    p1.saturating_sub(p0) - covered
}

/// Wall time not covered by any wrapped call. Wrapped calls run one
/// after another inside the wall interval, so the remainder is never
/// negative; `None` flags a broken measurement.
pub fn unattributed(wall_ns: u64, wrapped_ns: u64) -> Option<u64> {
    wall_ns.checked_sub(wrapped_ns)
}

/// True when `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn blocks_report_medians_of_complete_blocks() {
        let mut b = Blocks::new(2);
        assert_eq!(b.ticks_per_s(), None);
        // Block 1: 200 ticks in 2 s wall, 1 s CPU; set-ups 1 and 7.
        b.setup(1.0);
        b.setup(7.0);
        b.episode(1.0, 0.5, 100.0, 10.0);
        b.episode(1.0, 0.5, 100.0, 10.0);
        // Block 2 was slowed down: 200 ticks in 20 s wall, 10 s CPU.
        b.setup(4.0);
        b.episode(10.0, 5.0, 100.0, 10.0);
        b.episode(10.0, 5.0, 100.0, 10.0);
        // Block 3: 200 ticks in 4 s wall, 2 s CPU.
        b.setup(6.0);
        b.episode(2.0, 1.0, 100.0, 10.0);
        b.episode(2.0, 1.0, 100.0, 10.0);
        // An incomplete block counts for nothing.
        b.setup(1e9);
        b.episode(1e9, 1e9, 100.0, 10.0);
        assert_eq!(b.count(), 3);
        assert_eq!(b.ticks_per_s(), Some(50.0));
        assert_eq!(b.ticks_per_cpu_s(), Some(100.0));
        assert_eq!(b.requests_per_s(), Some(5.0));
        assert_eq!(b.setup_s(), Some(4.0));
        assert_eq!(b.cpu_tick_rates(), vec![200.0, 20.0, 100.0]);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_above() {
        // 1000 samples: p99 leaves exactly 10 above, p99.9 only 1.
        let sorted: Vec<u64> = (1..=1000).collect();
        let t = tail(&sorted).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990);
        assert_eq!(t.above, 10);
        assert_eq!(t.samples, 1000);
        // 999 samples: p99 leaves 9 above, so the rule drops to p95.
        let sorted: Vec<u64> = (1..=999).collect();
        let t = tail(&sorted).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(t.above >= MIN_ABOVE);
        // 10 000 samples reach p99.9; 100 000 reach p99.99.
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&sorted).unwrap().percentile, 99.9);
        let sorted: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&sorted).unwrap().percentile, 99.99);
        // Too few samples for any rung.
        let sorted: Vec<u64> = (1..=50).collect();
        assert_eq!(tail(&sorted), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_above() {
        for n in 1..3000 {
            let sorted: Vec<u64> = (0..n as u64).collect();
            if let Some(t) = tail(&sorted) {
                let above = sorted.iter().filter(|&&v| v > t.value).count();
                assert!(above >= MIN_ABOVE, "n={n}: {above} above p{}", t.percentile);
                assert_eq!(above, t.above);
            }
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 70)]), 40);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children spilling past the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Full coverage leaves nothing.
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
        // Unsorted input.
        assert_eq!(self_time((0, 100), &[(60, 80), (0, 10)]), 70);
    }

    #[test]
    fn self_time_matches_a_per_nanosecond_count() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..500 {
            let p0 = next(50);
            let p1 = p0 + next(80);
            let children: Vec<(u64, u64)> = (0..next(5))
                .map(|_| {
                    let s = next(150);
                    (s, s + next(40))
                })
                .collect();
            let uncovered = (p0..p1)
                .filter(|&t| !children.iter().any(|&(s, e)| s <= t && t < e))
                .count() as u64;
            assert_eq!(self_time((p0, p1), &children), uncovered);
        }
    }

    #[test]
    fn unattributed_is_never_negative() {
        assert_eq!(unattributed(100, 40), Some(60));
        assert_eq!(unattributed(100, 100), Some(0));
        assert_eq!(unattributed(100, 101), None);
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        assert!(valid_name("ticks_per_s"));
        assert!(valid_name("telemetry.source_step_p99_us"));
        assert!(valid_name("fleet.cluster_wall_1w_s"));
        assert!(valid_name("a-b.c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
