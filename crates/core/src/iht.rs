//! The Internal Hash Table (`IHTbb`).
//!
//! A small, fully associative table of `(Addst, Addend, Hash)` tuples —
//! in hardware a CAM searched by the `(Addst, Addend)` pair with the hash
//! compared by `COMP` (paper, Section 4.2). The table keeps
//! hardware-maintained recency state: the paper's OS-managed scheme
//! relies on "specific hardwares … to implement the replacement policy
//! and select appropriate entries to overwrite when the IHT is full"
//! (Section 3.3). The OS reads that state through [`Iht::lru_order`] and
//! writes entries through [`Iht::replace_at`] / [`Iht::insert_lru`].

use cimon_isa::codec::{CodecError, Dec, Enc};

use crate::block::{BlockKey, BlockRecord};

/// Result of an associative lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Entry present and hash equal: the block is intact.
    Hit,
    /// Entry present but hash differs: the code was altered. Carries the
    /// expected hash for diagnosis.
    Mismatch {
        /// The hash stored in the table.
        expected: u32,
    },
    /// No entry with this `(start, end)` key.
    Miss,
}

/// Cumulative lookup statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IhtStats {
    /// Total lookups performed.
    pub lookups: u64,
    /// Lookups that hit with a matching hash.
    pub hits: u64,
    /// Lookups that found the key but not the hash.
    pub mismatches: u64,
    /// Lookups that found no entry.
    pub misses: u64,
}

impl IhtStats {
    /// Miss rate in percent (the paper's Figure 6 metric). Zero when no
    /// lookups have been performed.
    pub fn miss_rate_percent(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.lookups as f64
        }
    }
}

/// `(start << 32) | end`: a block key as one comparable word. Keys
/// are word-aligned, so no valid key packs to [`INVALID`].
#[inline]
fn pack(key: BlockKey) -> u64 {
    (u64::from(key.start) << 32) | u64::from(key.end)
}

/// The packed key of an empty way.
const INVALID: u64 = u64::MAX;

/// One way of the table.
#[derive(Clone, Copy, Debug)]
struct Way {
    /// Packed `(start, end)` key, [`INVALID`] when the way is empty.
    key: u64,
    /// Monotonic recency stamp; larger = more recently used
    /// (meaningless when the way is empty).
    stamp: u64,
    /// The stored hash (meaningless when the way is empty).
    hash: u32,
}

impl Way {
    const EMPTY: Way = Way {
        key: INVALID,
        stamp: 0,
        hash: 0,
    };
}

/// The internal hash table.
///
/// The CAM search is a scan of the ways' packed keys, one `u64`
/// compare per way. The matched way's hash and stamp sit beside its
/// key, in the cache line the scan just read (separate key, hash and
/// stamp arrays measured slower).
#[derive(Clone, Debug)]
pub struct Iht {
    ways: Vec<Way>,
    clock: u64,
    stats: IhtStats,
    /// Way of the last key match — probed first on the next lookup.
    /// Hot loops re-check the block they just checked, so this turns
    /// the common-case scan into a single compare. Pure search-order
    /// state: the modelled CAM searches all ways in parallel, and keys
    /// are unique in the table, so which way is examined first is
    /// unobservable in outcomes, statistics, and recency.
    mru: usize,
}

impl Iht {
    /// A table with `entries` slots, all invalid.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize) -> Iht {
        assert!(entries > 0, "IHT must have at least one entry");
        Iht {
            ways: vec![Way::EMPTY; entries],
            clock: 0,
            stats: IhtStats::default(),
            mru: 0,
        }
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.ways.len()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.ways.iter().filter(|w| w.key != INVALID).count()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> IhtStats {
        self.stats
    }

    /// Reset statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = IhtStats::default();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The record held by valid way `i`.
    fn record(&self, i: usize) -> BlockRecord {
        let w = self.ways[i];
        BlockRecord {
            key: BlockKey {
                start: (w.key >> 32) as u32,
                end: w.key as u32,
            },
            hash: w.hash,
        }
    }

    /// The way whose packed key is `packed`, if any.
    #[inline]
    fn find(&self, packed: u64) -> Option<usize> {
        self.ways.iter().position(|w| w.key == packed)
    }

    /// The associative lookup performed by the ID-stage micro-op
    /// `<found,match> = IHTbb.lookup(<start,end,hashv>)`.
    ///
    /// A hit refreshes the entry's recency. A mismatch also counts as a
    /// lookup but does not refresh (the program is about to be killed).
    pub fn lookup(&mut self, key: BlockKey, hash: u32) -> LookupOutcome {
        self.stats.lookups += 1;
        let stamp = self.tick();
        let packed = pack(key);
        // Probe the most-recently-matched way first (see `mru`).
        let i = if self.ways.get(self.mru).map(|w| w.key) == Some(packed) {
            self.mru
        } else {
            match self.find(packed) {
                Some(i) => {
                    self.mru = i;
                    i
                }
                None => {
                    self.stats.misses += 1;
                    return LookupOutcome::Miss;
                }
            }
        };
        let way = &mut self.ways[i];
        if way.hash == hash {
            way.stamp = stamp;
            self.stats.hits += 1;
            LookupOutcome::Hit
        } else {
            self.stats.mismatches += 1;
            LookupOutcome::Mismatch { expected: way.hash }
        }
    }

    /// Probe without touching recency or statistics (used by tests and
    /// the OS to inspect the table).
    pub fn probe(&self, key: BlockKey) -> Option<BlockRecord> {
        self.find(pack(key)).map(|i| self.record(i))
    }

    /// Slot indices ordered least-recently-used first. Invalid slots come
    /// before all valid ones (they are the cheapest victims).
    pub fn lru_order(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.lru_order_into(&mut idx);
        idx
    }

    /// [`Iht::lru_order`] into a caller-owned buffer (cleared first) —
    /// the refill path runs on every IHT miss, so victim selection must
    /// not allocate once the buffer has warmed.
    pub fn lru_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.ways.len());
        out.sort_unstable_by_key(|&i| match self.ways[i] {
            Way { key: INVALID, .. } => (0u8, 0u64, i),
            Way { stamp, .. } => (1, stamp, i),
        });
    }

    /// Fill way `index` with `record`, marking it most recent.
    fn set(&mut self, index: usize, record: BlockRecord, stamp: u64) {
        self.ways[index] = Way {
            key: pack(record.key),
            stamp,
            hash: record.hash,
        };
    }

    /// Overwrite slot `index` with `record`, marking it most recent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_at(&mut self, index: usize, record: BlockRecord) {
        let stamp = self.tick();
        self.set(index, record, stamp);
    }

    /// Insert `record`, evicting the LRU slot if the table is full.
    /// Returns the evicted record, if any. If the key is already present
    /// the entry is updated in place.
    pub fn insert_lru(&mut self, record: BlockRecord) -> Option<BlockRecord> {
        let stamp = self.tick();
        if let Some(i) = self.find(pack(record.key)) {
            self.set(i, record, stamp);
            return None;
        }
        let victim = self.lru_order()[0];
        let evicted = (self.ways[victim].key != INVALID).then(|| self.record(victim));
        self.set(victim, record, stamp);
        evicted
    }

    /// Invalidate every entry (e.g. on context switch).
    pub fn flush(&mut self) {
        self.ways.fill(Way::EMPTY);
    }

    /// Iterate over the valid records, in slot order.
    pub fn records(&self) -> impl Iterator<Item = BlockRecord> + '_ {
        (0..self.ways.len())
            .filter(|&i| self.ways[i].key != INVALID)
            .map(|i| self.record(i))
    }

    /// Serialize the table — entries, recency stamps, statistics, and
    /// search-order state — for checkpoint spill.
    pub fn encode_into(&self, e: &mut Enc) {
        e.usize(self.ways.len());
        e.u64(self.clock);
        e.u64(self.stats.lookups);
        e.u64(self.stats.hits);
        e.u64(self.stats.mismatches);
        e.u64(self.stats.misses);
        e.usize(self.mru);
        for (i, way) in self.ways.iter().enumerate() {
            if way.key == INVALID {
                e.bool(false);
            } else {
                let r = self.record(i);
                e.bool(true);
                e.u32(r.key.start);
                e.u32(r.key.end);
                e.u32(r.hash);
                e.u64(way.stamp);
            }
        }
    }

    /// Rebuild a table serialized by [`Iht::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, a zero capacity, or an
    /// out-of-range MRU index.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Iht, CodecError> {
        let capacity = d.usize()?;
        if capacity == 0 {
            return Err(CodecError::Invalid {
                what: "IHT capacity",
            });
        }
        let clock = d.u64()?;
        let stats = IhtStats {
            lookups: d.u64()?,
            hits: d.u64()?,
            mismatches: d.u64()?,
            misses: d.u64()?,
        };
        let mru = d.usize()?;
        if mru >= capacity {
            return Err(CodecError::Invalid {
                what: "IHT MRU index",
            });
        }
        // Cap the pre-allocation: a corrupt capacity fails on the first
        // truncated slot read instead of aborting in the allocator.
        let mut ways = Vec::with_capacity(capacity.min(1 << 16));
        for _ in 0..capacity {
            ways.push(if d.bool()? {
                let start = d.u32()?;
                let end = d.u32()?;
                let hash = d.u32()?;
                let stamp = d.u64()?;
                // Validate before packing: a malformed key must become a
                // typed error, never a way the lookup could match.
                if start % 4 != 0 || end % 4 != 0 || end < start {
                    return Err(CodecError::Invalid {
                        what: "IHT block key",
                    });
                }
                Way {
                    key: pack(BlockKey::new(start, end)),
                    stamp,
                    hash,
                }
            } else {
                Way::EMPTY
            });
        }
        Ok(Iht {
            ways,
            clock,
            stats,
            mru,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 8),
            hash,
        }
    }

    #[test]
    fn lookup_hit_mismatch_miss() {
        let mut iht = Iht::new(4);
        iht.replace_at(0, rec(0x1000, 0xaa));
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 0xaa),
            LookupOutcome::Hit
        );
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 0xbb),
            LookupOutcome::Mismatch { expected: 0xaa }
        );
        assert_eq!(
            iht.lookup(BlockKey::new(0x2000, 0x2008), 0xaa),
            LookupOutcome::Miss
        );
        let s = iht.stats();
        assert_eq!((s.lookups, s.hits, s.mismatches, s.misses), (3, 1, 1, 1));
        assert!((s.miss_rate_percent() - 33.333).abs() < 0.01);
    }

    #[test]
    fn key_includes_both_ends() {
        // Same start, different end must miss: the CAM matches the pair.
        let mut iht = Iht::new(2);
        iht.replace_at(0, rec(0x1000, 0xaa));
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x100c), 0xaa),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn lru_order_prefers_invalid_then_stalest() {
        let mut iht = Iht::new(3);
        iht.replace_at(0, rec(0x1000, 1));
        iht.replace_at(1, rec(0x2000, 2));
        // slot 2 invalid → first victim; then slot 0 (older), slot 1.
        assert_eq!(iht.lru_order(), vec![2, 0, 1]);
        // Touch slot 0 via hit → slot 1 becomes stalest valid.
        iht.lookup(BlockKey::new(0x1000, 0x1008), 1);
        assert_eq!(iht.lru_order(), vec![2, 1, 0]);
    }

    #[test]
    fn insert_lru_fills_then_evicts() {
        let mut iht = Iht::new(2);
        assert_eq!(iht.insert_lru(rec(0x1000, 1)), None);
        assert_eq!(iht.insert_lru(rec(0x2000, 2)), None);
        assert_eq!(iht.len(), 2);
        // 0x1000 is LRU → evicted.
        let evicted = iht.insert_lru(rec(0x3000, 3)).unwrap();
        assert_eq!(evicted.key.start, 0x1000);
        assert!(iht.probe(BlockKey::new(0x3000, 0x3008)).is_some());
        assert!(iht.probe(BlockKey::new(0x1000, 0x1008)).is_none());
    }

    #[test]
    fn insert_existing_key_updates_in_place() {
        let mut iht = Iht::new(2);
        iht.insert_lru(rec(0x1000, 1));
        iht.insert_lru(rec(0x2000, 2));
        assert_eq!(iht.insert_lru(rec(0x1000, 9)), None);
        assert_eq!(iht.len(), 2);
        assert_eq!(iht.probe(BlockKey::new(0x1000, 0x1008)).unwrap().hash, 9);
    }

    #[test]
    fn mismatch_does_not_refresh_recency() {
        let mut iht = Iht::new(2);
        iht.replace_at(0, rec(0x1000, 1));
        iht.replace_at(1, rec(0x2000, 2));
        // Mismatching lookup on 0x1000 must not make it MRU.
        iht.lookup(BlockKey::new(0x1000, 0x1008), 99);
        assert_eq!(iht.lru_order()[0], 0);
    }

    #[test]
    fn flush_invalidates() {
        let mut iht = Iht::new(2);
        iht.insert_lru(rec(0x1000, 1));
        iht.flush();
        assert!(iht.is_empty());
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 1),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn capacity_one_behaves() {
        let mut iht = Iht::new(1);
        iht.insert_lru(rec(0x1000, 1));
        assert_eq!(iht.insert_lru(rec(0x2000, 2)).unwrap().key.start, 0x1000);
        assert_eq!(iht.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        Iht::new(0);
    }

    #[test]
    fn records_iterates_valid_only() {
        let mut iht = Iht::new(4);
        iht.replace_at(1, rec(0x1000, 1));
        iht.replace_at(3, rec(0x2000, 2));
        let recs: Vec<_> = iht.records().collect();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn encode_decode_round_trips_entries_recency_and_stats() {
        let mut iht = Iht::new(4);
        iht.insert_lru(rec(0x1000, 1));
        iht.insert_lru(rec(0x2000, 2));
        iht.lookup(BlockKey::new(0x1000, 0x1008), 1);
        iht.lookup(BlockKey::new(0x3000, 0x3008), 3);
        let mut e = Enc::new();
        iht.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = Iht::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.capacity(), iht.capacity());
        assert_eq!(back.stats(), iht.stats());
        assert_eq!(back.lru_order(), iht.lru_order());
        let a: Vec<_> = back.records().collect();
        let b: Vec<_> = iht.records().collect();
        assert_eq!(a, b);
        // Future behaviour must match too: same eviction decisions.
        assert_eq!(
            back.insert_lru(rec(0x4000, 4)),
            iht.insert_lru(rec(0x4000, 4))
        );
        assert_eq!(back.lru_order(), iht.lru_order());
        // Truncation and a zero capacity are typed errors.
        assert!(Iht::decode_from(&mut Dec::new(&bytes[..bytes.len() - 2])).is_err());
        let mut z = Enc::new();
        z.usize(0);
        assert!(Iht::decode_from(&mut Dec::new(&z.into_bytes())).is_err());
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut iht = Iht::new(1);
        iht.lookup(BlockKey::new(0, 0), 0);
        iht.reset_stats();
        assert_eq!(iht.stats(), IhtStats::default());
    }
}
