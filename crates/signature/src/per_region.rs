//! Per-region values stored once per distinct value.

use crate::vector::SignatureVector;
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One value per inter-barrier region, each distinct value stored once.
///
/// Iterative kernels repeat the same region thousands of times: at the
/// repository benchmark's shape npb-sp's 3,601 regions hold 18 distinct
/// signatures.  A `PerRegion` keeps the distinct values in order of first
/// occurrence plus, for every region, the position of its value among them.
/// Values are interned by exact equality, so reading region `r` through
/// [`get`](Self::get) returns exactly the value a region-by-region build
/// would hold, and two `PerRegion`s built by interning are equal exactly
/// when their per-region sequences are.
///
/// The encoding is the distinct values, then the per-region index (a length,
/// then one little-endian `u32` per region); decoding
/// rejects an index that points past the distinct values or is not in
/// first-occurrence order, so a damaged cache entry reads as a miss.
#[derive(Debug, Clone, PartialEq)]
pub struct PerRegion<T> {
    pub(crate) distinct: Vec<T>,
    pub(crate) index: Vec<u32>,
}

impl<T> PerRegion<T> {
    /// Number of regions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether there are no regions.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The value of region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region >= self.len()`.
    pub fn get(&self, region: usize) -> &T {
        &self.distinct[self.index[region] as usize]
    }

    /// Every region's value, in region order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> + '_ {
        self.index.iter().map(|&id| &self.distinct[id as usize])
    }

    /// The distinct values, in order of first occurrence.
    pub fn distinct(&self) -> &[T] {
        &self.distinct
    }

    /// For every region, the position of its value in
    /// [`distinct`](Self::distinct).
    pub fn index(&self) -> &[u32] {
        &self.index
    }

    /// Maps each distinct value once, keeping the per-region index.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> PerRegion<U> {
        PerRegion { distinct: self.distinct.iter().map(f).collect(), index: self.index.clone() }
    }
}

/// Equal to a slice holding the same value for every region.
impl<T: PartialEq> PartialEq<[T]> for PerRegion<T> {
    fn eq(&self, regions: &[T]) -> bool {
        self.len() == regions.len() && self.iter().eq(regions)
    }
}

impl<T: Serialize> Serialize for PerRegion<T> {
    fn serialize(&self, out: &mut Serializer) {
        self.distinct.serialize(out);
        out.write_len(self.index.len());
        self.index.iter().for_each(|&id| out.write_u32(id));
    }
}

impl<T: Deserialize> Deserialize for PerRegion<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let distinct = Vec::<T>::deserialize(de)?;
        let regions = de.read_len()?;
        let mut index = Vec::with_capacity(regions.min(1 << 20));
        for _ in 0..regions {
            index.push(de.read_u32()?);
        }
        // First-occurrence order: each region names a value already seen
        // or the next new one, and every value is named.
        let mut seen = 0usize;
        for (region, &id) in index.iter().enumerate() {
            let id = id as usize;
            if id >= distinct.len() {
                return Err(Error::custom(format!(
                    "region {region} names value {id} of {}",
                    distinct.len()
                )));
            }
            if id > seen {
                return Err(Error::custom(format!(
                    "region {region} names value {id} before value {seen}"
                )));
            }
            seen += usize::from(id == seen);
        }
        if seen != distinct.len() {
            return Err(Error::custom(format!(
                "{} values, {seen} of them named by a region",
                distinct.len()
            )));
        }
        Ok(Self { distinct, index })
    }
}

/// Folds the words of `parts` into one hash: four lanes each rotate and xor
/// in every fourth word of a part (a step that does not wait on a
/// multiply), then the lanes, rotated apart, and the word count are
/// combined and mixed by one multiply.  Equal words give equal hashes; a
/// collision costs the interner one more exact comparison.
pub(crate) fn fold(parts: &[&[u64]]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut len = 0;
    for words in parts {
        let mut chunks = words.chunks_exact(4);
        for chunk in &mut chunks {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane = lane.rotate_left(5) ^ x;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
            *lane = lane.rotate_left(5) ^ x;
        }
        len += words.len();
    }
    let combined = lanes
        .iter()
        .zip([0, 16, 32, 48])
        .fold(len as u64, |h, (&lane, by)| h ^ lane.rotate_left(by));
    let h = combined.wrapping_mul(0x517c_c1b7_2722_0a95);
    // The multiply mixes upwards only; the table indexes by the low bits.
    h ^ (h >> 29)
}

/// The hasher of a key that is already a folded hash: the key itself.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.0 = self.0.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Builds a [`PerRegion`] one region at a time.  Each distinct value is
/// found by a hash the caller folds plus an exact comparison, so only a
/// region with a new value is ever copied.
#[derive(Debug)]
pub(crate) struct Interner<T> {
    table: PerRegion<T>,
    /// The first distinct value with each hash; `next` chains the others.
    first: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    next: Vec<Option<u32>>,
}

impl<T> Interner<T> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self {
            table: PerRegion { distinct: Vec::new(), index: Vec::new() },
            first: HashMap::default(),
            next: Vec::new(),
        }
    }

    /// Continues interning into `table`, whose distinct values `hash` folds.
    pub(crate) fn resume(table: PerRegion<T>, hash: impl Fn(&T) -> u64) -> Self {
        let mut interner = Self::new();
        for value in table.distinct {
            interner.intern(hash(&value), |_| false, || value);
        }
        interner.table.index = table.index;
        interner
    }

    /// The id of the distinct value with hash `hash` that `is` accepts,
    /// adding `make()` as a new one when there is none.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct values.
    pub(crate) fn intern(
        &mut self,
        hash: u64,
        is: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> u32 {
        let mut cursor = self.first.get(&hash).copied();
        let mut tail = None;
        while let Some(id) = cursor {
            if is(&self.table.distinct[id as usize]) {
                return id;
            }
            tail = Some(id);
            cursor = self.next[id as usize];
        }
        let id = u32::try_from(self.table.distinct.len())
            .unwrap_or_else(|_| panic!("more than {} distinct region values", u32::MAX));
        self.table.distinct.push(make());
        self.next.push(None);
        match tail {
            Some(tail) => self.next[tail as usize] = Some(id),
            None => {
                self.first.insert(hash, id);
            }
        }
        id
    }

    /// Appends a region whose value is distinct value `id`.
    pub(crate) fn push(&mut self, id: u32) {
        self.table.index.push(id);
    }

    /// The finished table.
    pub(crate) fn finish(self) -> PerRegion<T> {
        self.table
    }
}

/// The signature vectors of an application's regions, each distinct vector
/// stored once: the input of barrierpoint selection.
///
/// A view borrows either an interned [`PerRegion`] (what
/// `ApplicationProfile::assemble_vectors` returns) or a plain slice with
/// one vector per region.  Reading region `r` gives the same vector either
/// way; the interned form lets a selection backend normalize, project or
/// hash each distinct vector once.
#[derive(Debug, Clone, Copy)]
pub struct RegionVectors<'a> {
    distinct: &'a [SignatureVector],
    /// Per region, the position of its vector in `distinct`; `None` when
    /// each region has its own, in region order.
    index: Option<&'a [u32]>,
}

impl<'a> RegionVectors<'a> {
    /// Number of regions.
    pub fn len(&self) -> usize {
        self.index.map_or(self.distinct.len(), <[u32]>::len)
    }

    /// Whether there are no regions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Position of region `region`'s vector in [`distinct`](Self::distinct).
    ///
    /// # Panics
    ///
    /// Panics if `region >= self.len()`.
    pub fn distinct_of(&self, region: usize) -> usize {
        match self.index {
            Some(index) => index[region] as usize,
            None => {
                assert!(region < self.distinct.len(), "region {region} out of range");
                region
            }
        }
    }

    /// The vector of region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region >= self.len()`.
    pub fn get(&self, region: usize) -> &'a SignatureVector {
        &self.distinct[self.distinct_of(region)]
    }

    /// Every region's vector, in region order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a SignatureVector> + 'a {
        let (distinct, index) = (self.distinct, self.index);
        (0..self.len()).map(move |r| &distinct[index.map_or(r, |index| index[r] as usize)])
    }

    /// The stored vectors (distinct ones, for an interned view).
    pub fn distinct(&self) -> &'a [SignatureVector] {
        self.distinct
    }
}

impl<'a> From<&'a PerRegion<SignatureVector>> for RegionVectors<'a> {
    fn from(vectors: &'a PerRegion<SignatureVector>) -> Self {
        Self { distinct: &vectors.distinct, index: Some(&vectors.index) }
    }
}

impl<'a> From<&'a [SignatureVector]> for RegionVectors<'a> {
    fn from(vectors: &'a [SignatureVector]) -> Self {
        Self { distinct: vectors, index: None }
    }
}

impl<'a> From<&'a Vec<SignatureVector>> for RegionVectors<'a> {
    fn from(vectors: &'a Vec<SignatureVector>) -> Self {
        vectors.as_slice().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `values` with their own value as hash, one region each.
    fn interned(values: &[u64]) -> PerRegion<u64> {
        let mut interner = Interner::new();
        for &value in values {
            let id = interner.intern(value % 3, |&v| v == value, || value);
            interner.push(id);
        }
        interner.finish()
    }

    #[test]
    fn interning_keeps_first_occurrence_order_and_region_values() {
        let values = [7, 4, 7, 1, 4, 10, 7];
        let table = interned(&values);
        // All four values hash to 1 (mod 3): the chain tells them apart.
        assert_eq!(table.distinct(), &[7, 4, 1, 10]);
        assert_eq!(table.index(), &[0, 1, 0, 2, 1, 3, 0]);
        assert!(table.iter().copied().eq(values));
        assert!(table == values[..] && table != values[1..]);
        assert_eq!((table.len(), *table.get(5)), (7, 10));
        assert_eq!(
            table.map(|v| v * 2).iter().copied().collect::<Vec<_>>(),
            [14, 8, 14, 2, 8, 20, 14]
        );
    }

    #[test]
    fn resumed_interning_matches_one_pass() {
        let values = [3, 5, 3, 8, 5, 9, 3, 11];
        let mut interner = Interner::resume(interned(&values[..3]), |v| v % 3);
        for &value in &values[3..] {
            let id = interner.intern(value % 3, |&v| v == value, || value);
            interner.push(id);
        }
        assert_eq!(interner.finish(), interned(&values));
    }

    #[test]
    fn codec_round_trips_and_rejects_bad_indices() {
        let table = interned(&[2, 2, 5, 2, 6]);
        let bytes = serde::to_vec(&table);
        assert_eq!(serde::from_slice::<PerRegion<u64>>(&bytes).unwrap(), table);
        for len in 0..bytes.len() {
            assert!(serde::from_slice::<PerRegion<u64>>(&bytes[..len]).is_err(), "{len}");
        }
        let encode =
            |distinct: Vec<u64>, index: Vec<u32>| serde::to_vec(&PerRegion { distinct, index });
        for (distinct, index) in [
            (vec![1, 2], vec![0, 2]),    // past the table
            (vec![1, 2], vec![1, 0]),    // not first-occurrence order
            (vec![1, 2, 3], vec![0, 1]), // a value no region names
            (vec![], vec![0]),
        ] {
            let bytes = encode(distinct.clone(), index.clone());
            assert!(serde::from_slice::<PerRegion<u64>>(&bytes).is_err(), "{distinct:?} {index:?}");
        }
        assert!(serde::from_slice::<PerRegion<u64>>(&encode(vec![], vec![])).unwrap().is_empty());
    }

    #[test]
    fn views_of_a_slice_and_of_an_interned_table_read_alike() {
        let a = SignatureVector::new(vec![1.0, 0.0], 10);
        let b = SignatureVector::new(vec![0.0, 1.0], 20);
        let dense = vec![a.clone(), b.clone(), a.clone()];
        let table = PerRegion { distinct: vec![a, b], index: vec![0, 1, 0] };
        let (plain, interned) = (RegionVectors::from(&dense), RegionVectors::from(&table));
        assert_eq!((plain.len(), interned.len()), (3, 3));
        assert!(plain.iter().eq(interned.iter()));
        assert_eq!((plain.distinct_of(2), interned.distinct_of(2)), (2, 0));
        assert_eq!(interned.get(1), &dense[1]);
        assert_eq!(interned.distinct().len(), 2);
    }
}
