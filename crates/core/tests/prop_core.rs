//! Property tests for the checker hardware: the IHT behaves like an
//! abstract LRU-tagged map, and the hash units obey their detection
//! algebra.

use cimon_core::iht::IhtStats;
use cimon_core::{hash, BlockKey, BlockRecord, HashAlgoKind, Iht, LookupOutcome};
use cimon_isa::codec::{Dec, Enc};
use proptest::prelude::*;

/// Abstract operations on the table.
#[derive(Clone, Debug)]
enum Op {
    Lookup { start: u8, hash: u8 },
    Insert { start: u8, hash: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, any::<u8>()).prop_map(|(start, hash)| Op::Lookup { start, hash }),
        (0u8..12, any::<u8>()).prop_map(|(start, hash)| Op::Insert { start, hash }),
    ]
}

fn key(start: u8) -> BlockKey {
    let s = 0x1000 + (start as u32) * 0x40;
    BlockKey::new(s, s + 12)
}

/// Reference model: vector of (key, hash) with LRU order maintained by
/// moving touched entries to the back.
#[derive(Default)]
struct Model {
    entries: Vec<(BlockKey, u32)>,
    cap: usize,
}

impl Model {
    fn lookup(&mut self, k: BlockKey, h: u32) -> LookupOutcome {
        if let Some(pos) = self.entries.iter().position(|(ek, _)| *ek == k) {
            let (ek, eh) = self.entries[pos];
            if eh == h {
                // refresh recency
                self.entries.remove(pos);
                self.entries.push((ek, eh));
                LookupOutcome::Hit
            } else {
                LookupOutcome::Mismatch { expected: eh }
            }
        } else {
            LookupOutcome::Miss
        }
    }

    fn insert(&mut self, k: BlockKey, h: u32) {
        if let Some(pos) = self.entries.iter().position(|(ek, _)| *ek == k) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push((k, h));
    }
}

/// Operations on the table for the way-level reference below: every
/// public mutator, plus a checkpoint round trip through the codec.
#[derive(Clone, Debug)]
enum WayOp {
    Lookup { start: u8, hash: u8 },
    Insert { start: u8, hash: u8 },
    ReplaceAt { way: u8, start: u8, hash: u8 },
    Flush,
    RoundTrip,
}

fn arb_way_op() -> impl Strategy<Value = WayOp> {
    prop_oneof![
        (0u8..12, 0u8..4).prop_map(|(start, hash)| WayOp::Lookup { start, hash }),
        (0u8..12, 0u8..4).prop_map(|(start, hash)| WayOp::Lookup { start, hash }),
        (0u8..12, 0u8..4).prop_map(|(start, hash)| WayOp::Insert { start, hash }),
        (any::<u8>(), 0u8..12, 0u8..4).prop_map(|(way, start, hash)| WayOp::ReplaceAt {
            way,
            start,
            hash
        }),
        (0u8..30).prop_map(|_| WayOp::Flush),
        (0u8..4).prop_map(|_| WayOp::RoundTrip),
    ]
}

/// A deliberately naive table: one optional `(record, stamp)` per way,
/// searched by a linear scan over full keys — the CAM as the paper
/// describes it, with none of the packing or probe-order tricks.
#[derive(Clone, Debug)]
struct NaiveIht {
    ways: Vec<Option<(BlockRecord, u64)>>,
    clock: u64,
    stats: IhtStats,
}

impl NaiveIht {
    fn new(cap: usize) -> NaiveIht {
        NaiveIht {
            ways: vec![None; cap],
            clock: 0,
            stats: IhtStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn lookup(&mut self, key: BlockKey, hash: u32) -> LookupOutcome {
        self.stats.lookups += 1;
        let stamp = self.tick();
        for way in self.ways.iter_mut().flatten() {
            if way.0.key == key {
                if way.0.hash == hash {
                    way.1 = stamp;
                    self.stats.hits += 1;
                    return LookupOutcome::Hit;
                }
                self.stats.mismatches += 1;
                return LookupOutcome::Mismatch {
                    expected: way.0.hash,
                };
            }
        }
        self.stats.misses += 1;
        LookupOutcome::Miss
    }

    fn lru_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.ways.len()).collect();
        idx.sort_by_key(|&i| match self.ways[i] {
            None => (0u8, 0u64, i),
            Some((_, stamp)) => (1, stamp, i),
        });
        idx
    }

    fn replace_at(&mut self, way: usize, record: BlockRecord) {
        let stamp = self.tick();
        self.ways[way] = Some((record, stamp));
    }

    fn insert_lru(&mut self, record: BlockRecord) -> Option<BlockRecord> {
        let stamp = self.tick();
        for way in self.ways.iter_mut().flatten() {
            if way.0.key == record.key {
                *way = (record, stamp);
                return None;
            }
        }
        let victim = self.lru_order()[0];
        let evicted = self.ways[victim].map(|(r, _)| r);
        self.ways[victim] = Some((record, stamp));
        evicted
    }

    fn records(&self) -> Vec<BlockRecord> {
        self.ways.iter().flatten().map(|(r, _)| *r).collect()
    }
}

proptest! {
    /// The packed-key table matches the naive way-by-way scan on every
    /// outcome, eviction, statistic and recency order, for any operation
    /// sequence, any capacity (1 and 8 included), and across checkpoint
    /// round trips through `encode_into`/`decode_from`.
    #[test]
    fn packed_key_iht_matches_naive_scan(
        cap in 1usize..10,
        ops in prop::collection::vec(arb_way_op(), 1..160),
    ) {
        let mut iht = Iht::new(cap);
        let mut naive = NaiveIht::new(cap);
        for op in ops {
            match op {
                WayOp::Lookup { start, hash } => {
                    let got = iht.lookup(key(start), hash as u32);
                    prop_assert_eq!(got, naive.lookup(key(start), hash as u32));
                }
                WayOp::Insert { start, hash } => {
                    let r = BlockRecord { key: key(start), hash: hash as u32 };
                    prop_assert_eq!(iht.insert_lru(r), naive.insert_lru(r));
                }
                WayOp::ReplaceAt { way, start, hash } => {
                    // Keys stay unique, as the OS refill keeps them.
                    if iht.probe(key(start)).is_none() {
                        let r = BlockRecord { key: key(start), hash: hash as u32 };
                        let way = way as usize % cap;
                        iht.replace_at(way, r);
                        naive.replace_at(way, r);
                    }
                }
                WayOp::Flush => {
                    iht.flush();
                    naive.ways.fill(None);
                }
                WayOp::RoundTrip => {
                    let mut e = Enc::new();
                    iht.encode_into(&mut e);
                    let bytes = e.into_bytes();
                    let mut d = Dec::new(&bytes);
                    iht = Iht::decode_from(&mut d).unwrap();
                    d.finish().unwrap();
                }
            }
            prop_assert_eq!(iht.stats(), naive.stats);
            prop_assert_eq!(iht.lru_order(), naive.lru_order());
            prop_assert_eq!(iht.records().collect::<Vec<_>>(), naive.records());
            prop_assert_eq!(iht.len(), naive.records().len());
            for start in 0..12 {
                let want = naive.records().into_iter().find(|r| r.key == key(start));
                prop_assert_eq!(iht.probe(key(start)), want);
            }
        }
    }

    /// The hardware IHT agrees with the abstract LRU map on every
    /// lookup outcome, for any operation sequence and any capacity.
    #[test]
    fn iht_matches_reference_model(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut iht = Iht::new(cap);
        let mut model = Model { entries: Vec::new(), cap };
        for op in ops {
            match op {
                Op::Lookup { start, hash } => {
                    let got = iht.lookup(key(start), hash as u32);
                    let want = model.lookup(key(start), hash as u32);
                    prop_assert_eq!(got, want);
                }
                Op::Insert { start, hash } => {
                    iht.insert_lru(BlockRecord { key: key(start), hash: hash as u32 });
                    model.insert(key(start), hash as u32);
                }
            }
            prop_assert!(iht.len() <= cap);
            prop_assert_eq!(iht.len(), model.entries.len());
        }
    }

    /// LRU replacement never evicts the most-recently-hit entry: after
    /// any operation history, a successful hit refreshes an entry's
    /// recency, so a subsequent capacity eviction must pick a victim
    /// other than the hit entry (for any table with at least 2 slots).
    #[test]
    fn lru_never_evicts_most_recently_hit(
        cap in 2usize..9,
        ops in prop::collection::vec(arb_op(), 0..120),
        probe in 0u8..12,
    ) {
        let mut iht = Iht::new(cap);
        for op in ops {
            match op {
                Op::Lookup { start, hash } => {
                    iht.lookup(key(start), hash as u32);
                }
                Op::Insert { start, hash } => {
                    iht.insert_lru(BlockRecord { key: key(start), hash: hash as u32 });
                }
            }
        }
        // Make `probe` resident, then *hit* it (the recency refresh).
        iht.insert_lru(BlockRecord { key: key(probe), hash: 0x77 });
        prop_assert_eq!(iht.lookup(key(probe), 0x77), LookupOutcome::Hit);
        // A fresh key outside the op universe forces a replacement
        // decision; the most-recently-hit entry must survive it.
        let fresh = BlockKey::new(0x9000_0000, 0x9000_000c);
        if let Some(evicted) = iht.insert_lru(BlockRecord { key: fresh, hash: 1 }) {
            prop_assert_ne!(evicted.key, key(probe));
        }
        prop_assert!(iht.probe(key(probe)).is_some());
    }

    /// Any odd number of bit flips anywhere in a block is detected by
    /// the XOR checksum (column parity argument, paper Section 6.3).
    #[test]
    fn xor_detects_odd_flip_counts(
        words in prop::collection::vec(any::<u32>(), 1..24),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u32..32), 1..8),
    ) {
        let clean = hash::hash_words(HashAlgoKind::Xor, 0, words.iter().copied());
        let mut corrupted = words.clone();
        // Apply an odd number of flips (truncate to odd length).
        let n = if flips.len() % 2 == 0 { flips.len() - 1 } else { flips.len() };
        let n = n.max(1);
        for (idx, bit) in flips.into_iter().take(n) {
            let i = idx.index(corrupted.len());
            corrupted[i] ^= 1 << bit;
        }
        // Flips can coincide and cancel pairwise; count the *effective*
        // flipped bits to decide the expectation.
        let effective: u32 = words
            .iter()
            .zip(&corrupted)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let dirty = hash::hash_words(HashAlgoKind::Xor, 0, corrupted.iter().copied());
        if effective % 2 == 1 {
            prop_assert_ne!(clean, dirty);
        }
    }

    /// Single-bit flips are detected by every implemented algorithm.
    #[test]
    fn all_algorithms_detect_single_flips(
        words in prop::collection::vec(any::<u32>(), 1..16),
        idx in any::<prop::sample::Index>(),
        bit in 0u32..32,
    ) {
        for kind in HashAlgoKind::ALL {
            let clean = hash::hash_words(kind, 0x5eed, words.iter().copied());
            let mut corrupted = words.clone();
            let i = idx.index(corrupted.len());
            corrupted[i] ^= 1 << bit;
            let dirty = hash::hash_words(kind, 0x5eed, corrupted.iter().copied());
            prop_assert_ne!(clean, dirty, "{} missed a single-bit flip", kind);
        }
    }

    /// Hash units are deterministic: same words, same digest.
    #[test]
    fn hashing_is_deterministic(words in prop::collection::vec(any::<u32>(), 0..32)) {
        for kind in HashAlgoKind::ALL {
            let a = hash::hash_words(kind, 42, words.iter().copied());
            let b = hash::hash_words(kind, 42, words.iter().copied());
            prop_assert_eq!(a, b);
        }
    }

    /// Reset after an arbitrary stream restores block-start behaviour:
    /// hashing a block is independent of what preceded the reset.
    #[test]
    fn reset_isolates_blocks(
        prefix in prop::collection::vec(any::<u32>(), 0..16),
        block in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        for kind in HashAlgoKind::ALL {
            let mut unit = hash::hasher_for(kind, 7);
            for w in &prefix {
                unit.update(*w);
            }
            unit.reset();
            for w in &block {
                unit.update(*w);
            }
            let streamed = unit.digest();
            let fresh = hash::hash_words(kind, 7, block.iter().copied());
            prop_assert_eq!(streamed, fresh, "{} reset leaks state", kind);
        }
    }
}
