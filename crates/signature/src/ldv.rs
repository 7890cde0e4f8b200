use crate::config::LdvWeighting;
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

/// Number of power-of-two buckets in an LDV.
///
/// Bucket `n` counts accesses with stack distance in `[2^n, 2^(n+1))`
/// (bucket 0 additionally holds distance 0); 48 buckets cover any distance
/// representable in a `u64` address space.
pub const LDV_BUCKETS: usize = 48;

/// An LRU stack distance vector: a power-of-two histogram of the reuse
/// distances observed in one thread's execution of one inter-barrier region.
///
/// Cold (first-touch) accesses have no finite reuse distance; they are
/// counted separately in the last position of the assembled vector so that
/// regions touching a lot of new data are distinguishable from regions
/// re-walking a large working set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ldv {
    buckets: Vec<u64>,
    cold: u64,
}

impl Default for Ldv {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldv {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: vec![0; LDV_BUCKETS], cold: 0 }
    }

    /// Bucket index of a finite stack distance.
    fn bucket_of(distance: u64) -> usize {
        if distance == 0 {
            0
        } else {
            (63 - distance.leading_zeros()) as usize
        }
    }

    /// Records one access with the given stack distance (`None` = cold).
    pub fn record(&mut self, distance: Option<u64>) {
        match distance {
            Some(d) => {
                let bucket = Self::bucket_of(d).min(LDV_BUCKETS - 1);
                self.buckets[bucket] += 1;
            }
            None => self.cold += 1,
        }
    }

    /// Total accesses recorded (including cold accesses).
    pub fn total_accesses(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.cold
    }

    /// Number of cold (first-touch) accesses.
    pub fn cold_accesses(&self) -> u64 {
        self.cold
    }

    /// Forgets every recorded access.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(0);
        self.cold = 0;
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The histogram as a weighted, L1-normalized vector of
    /// `LDV_BUCKETS + 1` elements (the final element is the cold-access
    /// fraction).
    ///
    /// Section III-A3 of the paper weights the counter of distances in
    /// `[2^n, 2^(n+1))` so that longer distances — which correspond to
    /// accesses that hit further away in the memory hierarchy — contribute
    /// more to the signature.  [`LdvWeighting::Unweighted`] reproduces the
    /// paper's default (`1/v = 1`); [`LdvWeighting::InverseExponent`] applies
    /// a weight of `2^(n/v)`.
    pub fn normalized(&self, weighting: LdvWeighting) -> Vec<f64> {
        let mut values: Vec<f64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(n, &count)| count as f64 * weighting.weight(n))
            .collect();
        values.push(self.cold as f64 * weighting.weight(LDV_BUCKETS));
        let total: f64 = values.iter().sum();
        if total > 0.0 {
            for v in &mut values {
                *v /= total;
            }
        }
        values
    }
}

// Hand-written serialization: a region's reuse distances populate only a few
// of the 48 distance scales, so the dense form would store mostly zeros
// (npb-sp's profile entry at 8 threads, scale 0.15: 14.8 MB dense, 5.0 MB
// as prefixes).  The encoding is the populated prefix — the bucket
// count up to the highest nonzero bucket, those buckets — then the cold
// count; decoding pads the prefix back to the dense in-memory form.
impl Serialize for Ldv {
    fn serialize(&self, out: &mut Serializer) {
        let populated = self.buckets.iter().rposition(|&count| count != 0).map_or(0, |i| i + 1);
        out.write_len(populated);
        for &count in &self.buckets[..populated] {
            out.write_u64(count);
        }
        out.write_u64(self.cold);
    }
}

impl Deserialize for Ldv {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let populated = de.read_len()?;
        if populated > LDV_BUCKETS {
            return Err(Error::custom(format!(
                "LDV with {populated} buckets, at most {LDV_BUCKETS}"
            )));
        }
        let mut ldv = Self::new();
        for count in &mut ldv.buckets[..populated] {
            *count = de.read_u64()?;
        }
        ldv.cold = de.read_u64()?;
        Ok(ldv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucketing_is_power_of_two() {
        assert_eq!(Ldv::bucket_of(0), 0);
        assert_eq!(Ldv::bucket_of(1), 0);
        assert_eq!(Ldv::bucket_of(2), 1);
        assert_eq!(Ldv::bucket_of(3), 1);
        assert_eq!(Ldv::bucket_of(4), 2);
        assert_eq!(Ldv::bucket_of(1023), 9);
        assert_eq!(Ldv::bucket_of(1024), 10);
    }

    #[test]
    fn record_and_totals() {
        let mut ldv = Ldv::new();
        ldv.record(Some(0));
        ldv.record(Some(3));
        ldv.record(Some(1000));
        ldv.record(None);
        assert_eq!(ldv.total_accesses(), 4);
        assert_eq!(ldv.cold_accesses(), 1);
        assert_eq!(ldv.buckets()[0], 1);
        assert_eq!(ldv.buckets()[1], 1);
        assert_eq!(ldv.buckets()[9], 1);
    }

    #[test]
    fn normalization_sums_to_one() {
        let mut ldv = Ldv::new();
        for d in [1u64, 5, 5, 70, 900, 16_000] {
            ldv.record(Some(d));
        }
        ldv.record(None);
        let n = ldv.normalized(LdvWeighting::Unweighted);
        assert_eq!(n.len(), LDV_BUCKETS + 1);
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_emphasizes_long_distances() {
        let mut ldv = Ldv::new();
        ldv.record(Some(1)); // bucket 0
        ldv.record(Some(1 << 20)); // bucket 20
        let unweighted = ldv.normalized(LdvWeighting::Unweighted);
        let weighted = ldv.normalized(LdvWeighting::InverseExponent(2));
        // Same count in both buckets, so unweighted shares are equal...
        assert!((unweighted[0] - unweighted[20]).abs() < 1e-12);
        // ... but weighting shifts mass towards the long-distance bucket.
        assert!(weighted[20] > weighted[0]);
        assert!(weighted[20] > unweighted[20]);
    }

    #[test]
    fn empty_ldv_normalizes_to_zeros() {
        let ldv = Ldv::new();
        let n = ldv.normalized(LdvWeighting::Unweighted);
        assert!(n.iter().all(|&v| v == 0.0));
    }

    /// Cold, zero, small, huge (≥ 2^47, clamped into the last bucket) and
    /// arbitrary distances.
    fn distance() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![
            Just(None),
            Just(Some(0)),
            (1u64..1 << 20).prop_map(Some),
            ((1u64 << 47)..=u64::MAX).prop_map(Some),
            any::<u64>().prop_map(Some),
        ]
    }

    proptest! {
        #[test]
        fn codec_round_trips_any_histogram(
            distances in proptest::collection::vec(distance(), 0..200),
        ) {
            let mut ldv = Ldv::new();
            for d in distances {
                ldv.record(d);
            }
            let back: Ldv = serde::from_slice(&serde::to_vec(&ldv)).unwrap();
            prop_assert_eq!(back.buckets().len(), LDV_BUCKETS);
            prop_assert_eq!(back, ldv);
        }
    }

    #[test]
    fn codec_writes_only_the_populated_prefix() {
        let empty = serde::to_vec(&Ldv::new());
        assert_eq!(empty.len(), 16, "bucket count 0, then the cold count");
        assert_eq!(serde::from_slice::<Ldv>(&empty).unwrap(), Ldv::new());

        let mut ldv = Ldv::new();
        ldv.record(Some(5)); // bucket 2
        ldv.record(None);
        assert_eq!(serde::to_vec(&ldv).len(), 8 * (1 + 3 + 1));

        let mut last = Ldv::new();
        last.record(Some(u64::MAX));
        assert_eq!(last.buckets()[LDV_BUCKETS - 1], 1);
        assert_eq!(serde::to_vec(&last).len(), 8 * (1 + LDV_BUCKETS + 1));
        assert_eq!(serde::from_slice::<Ldv>(&serde::to_vec(&last)).unwrap(), last);
    }

    #[test]
    fn codec_rejects_too_many_buckets_and_truncation() {
        let mut too_many = serde::Serializer::new();
        too_many.write_len(LDV_BUCKETS + 1);
        (0..=LDV_BUCKETS + 1).for_each(|_| too_many.write_u64(1));
        assert!(serde::from_slice::<Ldv>(&too_many.into_bytes()).is_err());

        let mut ldv = Ldv::new();
        ldv.record(Some(1 << 10));
        ldv.record(None);
        let bytes = serde::to_vec(&ldv);
        for len in 0..bytes.len() {
            assert!(serde::from_slice::<Ldv>(&bytes[..len]).is_err(), "truncated to {len}");
        }
    }
}
