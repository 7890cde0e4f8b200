//! Order statistics over timing samples.

/// The percentiles `op_tail_ms` may report, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Percentile `p` of `values` (non-empty), interpolated linearly between
/// the order statistics (numpy's default definition).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p / 100.0;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median of `values` (non-empty); the mean of the two middle values for an
/// even count.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Each slot's lowest value over whole rotations of `values`, where op `i`
/// belongs to slot `i % slots`.  Interference from other tenants of the
/// host only ever adds time, and it comes in phases seconds long, so the
/// lowest of a slot's samples is the one it disturbed least.
pub fn slot_minima(values: &[f64], slots: usize) -> Vec<f64> {
    (0..slots)
        .map(|slot| values.iter().skip(slot).step_by(slots).copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Ops of `ops` beyond percentile `p`.
fn beyond(ops: usize, p: f64) -> usize {
    ops - ((p / 100.0 * ops as f64).ceil() as usize).min(ops)
}

/// The tail of a latency distribution, as a slowdown.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value: an op's latency over its usual latency.
    pub slowdown: f64,
    /// Ops of the run whose slowdown exceeds it.
    pub beyond: usize,
}

/// How much slower than usual the slowest ops of whole rotations of
/// `values` ran, where op `i` belongs to slot `i % slots`.
///
/// An op's slowdown is its latency over its slot's median, divided by the
/// median of those ratios in its own rotation.  The slot median makes ops
/// of different kernels comparable.  The rotation median takes out the
/// host's interference phases: they last seconds, longer than a rotation,
/// and slow every op of a rotation alike, whereas an op the program itself
/// made slow (a flush, a lock wait) leaves its rotation's median where it
/// was.  The percentile is the highest on the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] of `guaranteed_ops` beyond it.  `guaranteed_ops` is
/// the op count every run of the workload reaches, so the percentile is the
/// same on every run however fast the host is.  It is taken over each
/// round's slowdowns (`round_ends`, where each round's ops end, at rotation
/// boundaries), and the tail is the median over rounds: a burst of host
/// interference shorter than a rotation then moves one round, while a
/// slowdown the program causes shows in every round.
pub fn tail(values: &[f64], round_ends: &[usize], slots: usize, guaranteed_ops: usize) -> Tail {
    let slot_medians: Vec<f64> = (0..slots)
        .map(|slot| median(&values.iter().skip(slot).step_by(slots).copied().collect::<Vec<_>>()))
        .collect();
    let slowdowns: Vec<f64> = values
        .chunks_exact(slots)
        .flat_map(|rotation| {
            let ratios: Vec<f64> = rotation.iter().zip(&slot_medians).map(|(v, m)| v / m).collect();
            let usual = median(&ratios);
            ratios.into_iter().map(move |r| r / usual)
        })
        .collect();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(guaranteed_ops, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    let starts = std::iter::once(0).chain(round_ends.iter().copied());
    let per_round: Vec<f64> =
        starts.zip(round_ends).map(|(start, &end)| percentile(&slowdowns[start..end], p)).collect();
    let slowdown = median(&per_round);
    Tail { percentile: p, slowdown, beyond: slowdowns.iter().filter(|&&s| s > slowdown).count() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let values = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&values, 0.0), 0.0);
        assert_eq!(percentile(&values, 90.0), 36.0);
        assert_eq!(percentile(&values, 100.0), 40.0);
    }

    #[test]
    fn slot_minima_take_each_slots_lowest_sample() {
        // Two slots, three rotations; slot 1 has one disturbed sample.
        let values = [1.0, 10.0, 2.0, 50.0, 3.0, 11.0];
        assert_eq!(slot_minima(&values, 2), vec![1.0, 10.0]);
    }

    #[test]
    fn tail_leaves_ten_guaranteed_ops_beyond() {
        let slots: Vec<f64> = (1..=8).map(f64::from).collect();
        let rotations: Vec<f64> = slots.iter().cycle().take(8 * 20).copied().collect();
        // 8 slots x 13 rotations: p90 leaves 10 ops beyond, p95 only 5.
        let t = tail(&rotations, &[160], 8, 104);
        assert_eq!(t.percentile, 90.0);
        // Every op runs at its slot's usual latency.
        assert_eq!(t.slowdown, 1.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(tail(&slots, &[8], 8, 12).percentile, 50.0);
    }

    #[test]
    fn tail_sees_an_op_that_is_only_sometimes_slow_but_not_the_host() {
        // Four slots, 25 rotations; every fifth op is three times slower.
        // Slot minima and medians both hide it; the tail does not.
        let usual = [1.0, 2.0, 3.0, 4.0];
        let slow = |i: usize| if i.is_multiple_of(5) { 3.0 } else { 1.0 };
        let values: Vec<f64> = (0..100).map(|i| usual[i % 4] * slow(i)).collect();
        assert_eq!(slot_minima(&values, 4), usual.to_vec());
        let t = tail(&values, &[100], 4, 100);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.slowdown, 3.0);
        // A host twice as slow for the second half slows whole rotations
        // alike, which leaves the slowdowns as they were.
        let host: Vec<f64> =
            values.iter().enumerate().map(|(i, v)| if i < 48 { *v } else { v * 2.0 }).collect();
        assert_eq!(tail(&host, &[100], 4, 100).slowdown, 3.0);
        // A burst in one of three rounds moves only that round: one op in
        // each of the first twelve rotations ten times slower.
        let mut burst: Vec<f64> = (0..100).map(|i| usual[i % 4]).collect();
        for k in 0..12 {
            burst[4 * k + k % 4] *= 10.0;
        }
        assert_eq!(tail(&burst, &[100], 4, 100).slowdown, 10.0);
        assert_eq!(tail(&burst, &[60, 80, 100], 4, 100).slowdown, 1.0);
    }
}
