//! # cimon-mem — memory subsystem
//!
//! Sparse byte-addressable memory, loadable program images, and the fetch
//! bus the processor reads instructions over.
//!
//! The fetch bus matters to the paper's threat model: Section 3.2 places
//! the integrity monitor *inside the pipeline* precisely so that code
//! alterations happening **after** any in-memory check — e.g. bit flips on
//! the bus while an instruction travels into the processor — are still
//! caught. [`FetchBus`] therefore exposes a tap point ([`BusTap`]) where
//! the fault-injection framework can corrupt words in flight.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod image;
pub mod memory;

pub use image::{ProgramImage, Segment};
pub use memory::{MemError, Memory};

use cimon_isa::word_align;

/// Observer/corruptor of instruction-fetch traffic.
///
/// Implementations may return a different word than the one read from
/// memory, modelling transient faults on the instruction bus. See
/// `cimon-faults` for the campaign-driven implementations.
pub trait BusTap {
    /// Called on every instruction fetch with the address and the word
    /// read from memory; the returned word is what the processor sees.
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32;
}

/// The identity tap: the processor sees exactly what memory holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanBus;

impl BusTap for CleanBus {
    fn on_fetch(&mut self, _addr: u32, word: u32) -> u32 {
        word
    }
}

/// The instruction-fetch path: memory plus an optional fault tap.
///
/// ```
/// use cimon_mem::{FetchBus, Memory};
/// let mut mem = Memory::new();
/// mem.write_u32(0x1000, 0x0109_5020)?;
/// let mut bus = FetchBus::new();
/// assert_eq!(bus.fetch(&mem, 0x1000)?, 0x0109_5020);
/// # Ok::<(), cimon_mem::MemError>(())
/// ```
#[derive(Default)]
pub struct FetchBus {
    tap: Option<Box<dyn BusTap>>,
    fetches: u64,
}

impl std::fmt::Debug for FetchBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchBus")
            .field("tapped", &self.tap.is_some())
            .field("fetches", &self.fetches)
            .finish()
    }
}

impl FetchBus {
    /// A clean bus with no fault tap installed.
    pub fn new() -> FetchBus {
        FetchBus::default()
    }

    /// Install a fault tap, replacing any previous one.
    pub fn set_tap(&mut self, tap: Box<dyn BusTap>) {
        self.tap = Some(tap);
    }

    /// Remove the fault tap, restoring clean fetches.
    pub fn clear_tap(&mut self) {
        self.tap = None;
    }

    /// Whether a fault tap is installed. Block-granular dispatch checks
    /// this to decide between bulk word validation (clean bus) and
    /// per-word fetches that keep stateful taps firing in fetch order.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Account `n` instruction fetches served in bulk. The block
    /// dispatcher validates a whole basic block against memory with one
    /// comparison instead of `n` [`FetchBus::fetch`] calls; this keeps
    /// [`FetchBus::fetch_count`] consistent with per-word fetching.
    pub fn note_fetches(&mut self, n: u64) {
        self.fetches += n;
    }

    /// Fetch the instruction word at `addr` (which is word-aligned first,
    /// as hardware fetch paths do), passing it through the tap if one is
    /// installed.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the underlying memory read.
    #[inline]
    pub fn fetch(&mut self, mem: &Memory, addr: u32) -> Result<u32, MemError> {
        let word = mem.read_u32(word_align(addr))?;
        self.fetches += 1;
        Ok(match &mut self.tap {
            Some(tap) => tap.on_fetch(addr, word),
            None => word,
        })
    }

    /// Number of fetches performed over this bus.
    pub fn fetch_count(&self) -> u64 {
        self.fetches
    }

    /// Reinstate the fetch counter from a snapshot, so a restored run
    /// counts on from the checkpoint. Taps are not part of a snapshot —
    /// a restored run installs its own.
    pub fn set_fetch_count(&mut self, n: u64) {
        self.fetches = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlipBit31;
    impl BusTap for FlipBit31 {
        fn on_fetch(&mut self, _addr: u32, word: u32) -> u32 {
            word ^ 0x8000_0000
        }
    }

    #[test]
    fn clean_bus_is_identity() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0xdead_beef).unwrap();
        let mut bus = FetchBus::new();
        assert_eq!(bus.fetch(&mem, 0x100).unwrap(), 0xdead_beef);
        assert_eq!(bus.fetch_count(), 1);
    }

    #[test]
    fn tap_corrupts_in_flight() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x0000_0001).unwrap();
        let mut bus = FetchBus::new();
        bus.set_tap(Box::new(FlipBit31));
        assert_eq!(bus.fetch(&mem, 0x100).unwrap(), 0x8000_0001);
        // Memory itself is untouched: the fault is transient, in flight.
        assert_eq!(mem.read_u32(0x100).unwrap(), 0x0000_0001);
        bus.clear_tap();
        assert_eq!(bus.fetch(&mem, 0x100).unwrap(), 0x0000_0001);
    }

    #[test]
    fn fetch_word_aligns() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x1234_5678).unwrap();
        let mut bus = FetchBus::new();
        assert_eq!(bus.fetch(&mem, 0x102).unwrap(), 0x1234_5678);
    }

    #[test]
    fn tap_presence_is_observable() {
        let mut bus = FetchBus::new();
        assert!(!bus.has_tap());
        bus.set_tap(Box::new(FlipBit31));
        assert!(bus.has_tap());
        bus.clear_tap();
        assert!(!bus.has_tap());
    }

    #[test]
    fn bulk_fetch_accounting_matches_per_word() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 1).unwrap();
        let mut per_word = FetchBus::new();
        for i in 0..5u32 {
            per_word.fetch(&mem, 0x100 + 4 * i).unwrap();
        }
        let mut bulk = FetchBus::new();
        bulk.note_fetches(5);
        assert_eq!(bulk.fetch_count(), per_word.fetch_count());
    }
}
