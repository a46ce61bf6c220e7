//! # Self-chaos harness
//!
//! The paper's methodology is fault injection: corrupt the monitored
//! program at seeded random points and check the monitor contains the
//! damage. This module turns that methodology inward on the simulator
//! itself — with `CIMON_CHAOS=1` in the environment, the engine layers
//! inject their own faults at deterministic, seeded points:
//!
//! * **worker panics** in sweep and campaign pools
//!   ([`maybe_panic`]) — exercising `catch_unwind` isolation and
//!   poisoned-row degradation;
//! * **request corruption** at the serve layer's ingest
//!   ([`maybe_corrupt_request`]) — exercising typed `Protocol`
//!   rejection of garbage instead of a wedged or panicking parser;
//! * **journal bit-flips** as the serve layer persists a result
//!   ([`maybe_flip_journal_bit`]) — exercising per-record CRC
//!   verification and recompute-on-replay after a restart;
//! * **checkpoint-frame bit-flips and torn tails** as a fault campaign
//!   spills its reference snapshots to disk ([`maybe_flip_segment_bit`],
//!   [`maybe_torn_segment_tail`]) — exercising the segment scanner's
//!   frame quarantine and the campaign's from-scratch fallback;
//! * **mid-stream connection cuts** while the serve layer streams
//!   sweep rows ([`cuts_stream_at`]) — exercising client reconnect and
//!   row-grain resume.
//!
//! Everything is keyed off `(site, index)` with a SplitMix64 mix of the
//! seed (`CIMON_CHAOS_SEED`, default `0xC1A05`), so a chaos run is
//! reproducible: the same seed injects the same faults at the same grid
//! points, and the differential suites can assert that every row *not*
//! hit by an injection is byte-identical to a clean run.
//!
//! With the variable unset the module is a handful of dead branches —
//! one `OnceLock` read per call site — and injects nothing.

use std::sync::OnceLock;

use cimon_core::splitmix64;

/// Injection configuration, resolved from the environment once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// One in this many sweep/campaign items panics (0 disables).
    pub panic_one_in: u64,
    /// One in this many serve-layer requests is corrupted at ingest
    /// (0 disables).
    pub request_corrupt_one_in: u64,
    /// One in this many serve-layer journal records has a bit flipped
    /// before it is written (0 disables).
    pub journal_flip_one_in: u64,
    /// One in this many spilled checkpoint frames has a bit flipped on
    /// its way to disk (0 disables).
    pub segment_flip_one_in: u64,
    /// One in this many checkpoint segments loses part of its final
    /// frame at close — a simulated torn write (0 disables).
    pub segment_tear_one_in: u64,
    /// One in this many streamed response rows has its connection cut
    /// mid-stream (0 disables).
    pub stream_cut_one_in: u64,
}

impl ChaosConfig {
    /// The default injection rates: aggressive enough that a grid of a
    /// few dozen points sees several of each fault class.
    pub fn with_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_one_in: 5,
            request_corrupt_one_in: 6,
            journal_flip_one_in: 4,
            segment_flip_one_in: 5,
            segment_tear_one_in: 7,
            stream_cut_one_in: 5,
        }
    }

    /// Read `CIMON_CHAOS` / `CIMON_CHAOS_SEED`: `None` unless chaos is
    /// switched on.
    fn from_env() -> Option<ChaosConfig> {
        match std::env::var("CIMON_CHAOS").as_deref() {
            Ok("1") | Ok("on") | Ok("true") => {}
            _ => return None,
        }
        let seed = std::env::var("CIMON_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC1A05);
        Some(ChaosConfig::with_seed(seed))
    }
}

/// The process-wide chaos configuration (`None` = chaos off).
pub fn config() -> Option<&'static ChaosConfig> {
    static CONFIG: OnceLock<Option<ChaosConfig>> = OnceLock::new();
    CONFIG.get_or_init(ChaosConfig::from_env).as_ref()
}

/// Whether chaos injection is active in this process.
pub fn enabled() -> bool {
    config().is_some()
}

/// Deterministic decision value for one `(site, index, salt)` point.
fn roll(cfg: &ChaosConfig, site: &str, index: usize, salt: u64) -> u64 {
    let mut h = cfg.seed ^ salt;
    for &b in site.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ index as u64)
}

/// Whether chaos injects a panic at this `(site, index)` point —
/// exposed so differential tests can predict exactly which rows a
/// chaos sweep will poison.
pub fn panics_at(site: &str, index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.panic_one_in != 0 && roll(cfg, site, index, 0x70) % cfg.panic_one_in == 0
    })
}

/// Panic here if chaos selected this `(site, index)` point. Call from
/// inside a `catch_unwind`-isolated worker item only.
pub fn maybe_panic(site: &'static str, index: usize) {
    if panics_at(site, index) {
        panic!("chaos: injected panic at {site}[{index}]");
    }
}

/// Whether chaos corrupts the serve request at ingest index `index` —
/// exposed so differential tests can predict exactly which requests a
/// chaos server will reject with a typed `Protocol` error.
pub fn corrupts_request_at(index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.request_corrupt_one_in != 0
            && roll(cfg, "serve-request", index, 0x4E) % cfg.request_corrupt_one_in == 0
    })
}

/// Corrupt a received request line in place if chaos selected this
/// ingest index: the first byte is overwritten with a control
/// character, so the line can no longer parse as a request object and
/// the server's typed `Protocol` rejection path runs. Returns `true`
/// when the corruption was injected.
pub fn maybe_corrupt_request(index: usize, line: &mut [u8]) -> bool {
    if !corrupts_request_at(index) || line.is_empty() {
        return false;
    }
    line[0] = 0x01;
    true
}

/// Whether chaos flips a bit of the serve journal record at append
/// index `index`.
pub fn flips_journal_bit_at(index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.journal_flip_one_in != 0
            && roll(cfg, "serve-journal", index, 0x10) % cfg.journal_flip_one_in == 0
    })
}

/// Flip one seeded bit of an encoded journal payload if chaos selected
/// this append index, leaving its recorded CRC stale. Returns `true`
/// when a flip was injected — replay is then guaranteed to drop the
/// record (CRC mismatch or unparseable line) and the server recomputes
/// that result instead of trusting damaged storage.
pub fn maybe_flip_journal_bit(index: usize, payload: &mut [u8]) -> bool {
    let Some(cfg) = config() else { return false };
    if payload.is_empty() || !flips_journal_bit_at(index) {
        return false;
    }
    let pos = (roll(cfg, "serve-journal", index, 0x11) as usize) % payload.len();
    let bit = roll(cfg, "serve-journal", index, 0x12) % 8;
    payload[pos] ^= 1 << bit;
    true
}

/// Whether chaos flips a bit of the spilled checkpoint frame at append
/// index `index` — exposed so differential tests can predict exactly
/// which frames a chaos spill will quarantine on scan.
pub fn flips_segment_at(index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.segment_flip_one_in != 0
            && roll(cfg, "ckpt-segment", index, 0x5E) % cfg.segment_flip_one_in == 0
    })
}

/// Flip one seeded bit of an encoded checkpoint frame (header or
/// payload) if chaos selected this append index, leaving its recorded
/// CRCs stale. Returns `true` when a flip was injected — the segment
/// scan is then guaranteed to quarantine the frame (payload hit) or
/// everything from it onward (header hit), and the consumer degrades
/// to recomputing instead of trusting damaged storage.
pub fn maybe_flip_segment_bit(index: usize, frame: &mut [u8]) -> bool {
    let Some(cfg) = config() else { return false };
    if frame.is_empty() || !flips_segment_at(index) {
        return false;
    }
    let pos = (roll(cfg, "ckpt-segment", index, 0x5F) as usize) % frame.len();
    let bit = roll(cfg, "ckpt-segment", index, 0x60) % 8;
    frame[pos] ^= 1 << bit;
    true
}

/// Whether chaos tears the tail off a checkpoint segment closed with
/// `index` frames — exposed for differential prediction.
pub fn tears_segment_at(index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.segment_tear_one_in != 0
            && roll(cfg, "ckpt-segment", index, 0x61) % cfg.segment_tear_one_in == 0
    })
}

/// How many tail bytes chaos shears off a finished checkpoint segment
/// whose final frame is `last_frame_len` bytes long — `None` when this
/// close was not selected. The cut always lands strictly inside the
/// final frame, so the scanner sees a torn tail (never a clean,
/// silently shorter segment).
pub fn maybe_torn_segment_tail(index: usize, last_frame_len: u64) -> Option<u64> {
    let cfg = config()?;
    if last_frame_len < 2 || !tears_segment_at(index) {
        return None;
    }
    Some(1 + roll(cfg, "ckpt-segment", index, 0x62) % (last_frame_len - 1))
}

/// Whether chaos cuts the client connection after streaming the
/// response row at stream index `index` — exposed so resume tests can
/// predict exactly where a chaos stream will drop.
pub fn cuts_stream_at(index: usize) -> bool {
    config().is_some_and(|cfg| {
        cfg.stream_cut_one_in != 0
            && roll(cfg, "serve-stream", index, 0x57) % cfg.stream_cut_one_in == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let cfg = ChaosConfig::with_seed(42);
        assert_eq!(roll(&cfg, "sweep", 7, 0x70), roll(&cfg, "sweep", 7, 0x70));
        assert_ne!(roll(&cfg, "sweep", 7, 0x70), roll(&cfg, "sweep", 8, 0x70));
        assert_ne!(
            roll(&cfg, "sweep", 7, 0x70),
            roll(&cfg, "campaign", 7, 0x70)
        );
    }

    #[test]
    fn default_rates_fire_somewhere() {
        let cfg = ChaosConfig::with_seed(0xC1A05);
        let fired = (0..64)
            .filter(|&i| {
                cfg.panic_one_in != 0 && roll(&cfg, "sweep", i, 0x70) % cfg.panic_one_in == 0
            })
            .count();
        assert!(fired > 0, "64 points must see at least one injection");
        assert!(fired < 64, "injection must not hit every point");
    }

    /// The seeded `(site, index)` keying contract is load-bearing: the
    /// differential suites predict injections from it, and the serve
    /// layer's retry path assumes the same key re-rolls the same way.
    /// These golden vectors pin the default seed's decisions — any
    /// change to the mixer, the salts, or the default rates shows up
    /// here before it silently desynchronises a differential test.
    #[test]
    fn default_seed_injection_grid_is_golden() {
        let cfg = ChaosConfig::with_seed(0xC1A05);
        let hits = |site: &str, salt: u64, one_in: u64| -> Vec<usize> {
            (0..24)
                .filter(|&i| one_in != 0 && roll(&cfg, site, i, salt) % one_in == 0)
                .collect()
        };
        assert_eq!(
            hits("sweep", 0x70, cfg.panic_one_in),
            vec![5, 7, 16, 17, 20, 23]
        );
        assert_eq!(hits("serve", 0x70, cfg.panic_one_in), vec![13, 15, 17, 22]);
        assert_eq!(
            hits("serve-request", 0x4E, cfg.request_corrupt_one_in),
            vec![2, 3, 8, 14, 20, 22]
        );
        assert_eq!(
            hits("serve-journal", 0x10, cfg.journal_flip_one_in),
            vec![0, 1, 5, 8, 10, 12, 20, 23]
        );
        assert_eq!(
            hits("ckpt-segment", 0x5E, cfg.segment_flip_one_in),
            vec![12, 15, 16, 17, 20, 23]
        );
        assert_eq!(
            hits("ckpt-segment", 0x61, cfg.segment_tear_one_in),
            vec![7, 16, 22]
        );
        assert_eq!(
            hits("serve-stream", 0x57, cfg.stream_cut_one_in),
            vec![2, 5, 10, 23]
        );
    }

    #[test]
    fn serve_injections_mutate_exactly_when_predicted() {
        // Without CIMON_CHAOS in the environment every decision
        // function is constant-false and the mutators are no-ops.
        if enabled() {
            return;
        }
        let mut line = b"{\"id\":1}".to_vec();
        assert!(!corrupts_request_at(0));
        assert!(!maybe_corrupt_request(0, &mut line));
        assert_eq!(line, b"{\"id\":1}");
        let mut payload = *b"payload";
        assert!(!flips_journal_bit_at(0));
        assert!(!maybe_flip_journal_bit(0, &mut payload));
        assert_eq!(&payload, b"payload");
    }
}
