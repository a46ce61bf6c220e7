//! # cimon-core — the Code Integrity Checker (CIC)
//!
//! This crate is the paper's primary contribution: the hardware monitor
//! that watches a processor's execution trace of basic blocks at run time
//! and signals when the instruction stream deviates from the expected
//! program behaviour.
//!
//! ## Architecture (paper, Figure 2)
//!
//! ```text
//!              ┌──────────── Code Integrity Checker ───────────┐
//!   IF ──────▶ │ HASHFU ──▶ RHASH          IHTbb (n entries)   │
//!   (each      │   ▲          │         (Addst, Addend, Hash)  │
//!    fetch)    │   └── STA    └──▶ COMP ◀───────┘              │
//!   ID ──────▶ │        lookup <STA, PPC, RHASH>  ──▶ exc0/exc1│
//!   (block     └───────────────────────────────────────────────┘
//!    end)
//! ```
//!
//! * [`hash`] — the `HASHFU` algorithms: the paper's XOR checksum, the
//!   seeded variant it proposes in Section 6.3, and stronger functions
//!   (Fletcher-32, CRC-32, SHA-1) for its future-work axis.
//! * [`iht`] — the internal hash table: a small CAM keyed by
//!   `(Addst, Addend)` with hardware-maintained LRU recency.
//! * [`checker`] — the [`checker::Cic`] unit tying them together,
//!   exposing exactly the operations the monitoring micro-ops invoke.
//! * [`block`] — the `(start, end, hash)` vocabulary shared with the OS
//!   (full hash table) and the static hash generator.
//!
//! The checker is micro-architecture-agnostic: `cimon-pipeline` drives it
//! through the micro-op environment, and unit tests drive it directly.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod checker;
pub mod error;
pub mod hash;
pub mod iht;

pub use block::{BlockKey, BlockRecord};
pub use checker::{Cic, CicConfig, CicStats};
pub use error::SimError;
pub use hash::{hasher_for, BlockHasher, HashAlgo};
pub use iht::{Iht, LookupOutcome};

pub use cimon_microop::HashAlgoKind;

/// SplitMix64 — the stateless 64-bit mixer the vendored `rand` shim
/// builds `StdRng` on. Seeded decisions that must be a pure function of
/// their inputs (chaos injection sites, retry jitter) draw from it
/// directly, with no RNG state to thread through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first output of the reference SplitMix64 seeded with 0.
        assert_eq!(super::splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }
}
