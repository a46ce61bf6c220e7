//! The monitor plane: pluggable integrity monitors for the pipeline.
//!
//! The paper hard-wires one monitor — the Code Integrity Checker plus
//! the OS exception handler — into the fetch and decode stages. This
//! module decouples that checking plane from the pipeline behind the
//! [`Monitor`] trait (the separation FireGuard-style scaled-out checking
//! and co-processor behaviour monitors argue for): the processor calls
//! fetch-observe / block-check / verdict hooks and never names the CIC.
//!
//! Three implementations ship:
//!
//! * [`CicMonitor`] — the paper's checker: `HASHFU` + `IHTbb` + OS
//!   refill/termination protocol.
//! * [`NullMonitor`] — no monitoring at all; the pipeline runs the
//!   baseline micro-op spec. A processor with a `NullMonitor` is
//!   bit-identical to `ProcessorConfig::baseline()`.
//! * Yours — implement [`Monitor`] and hand it to
//!   [`Processor::with_monitor`](crate::Processor::with_monitor). The
//!   pipeline needs no changes; return `Some(MonitorParams)` from
//!   [`Monitor::params`] to have the monitoring micro-ops embedded in
//!   the generated spec (so the observe/check hooks fire).

use cimon_core::{BlockKey, Cic, CicStats};
use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_microop::{ExceptionKind, MonitorParams};
use cimon_os::{MissResolution, OsKernel, OsKernelState, OsStats, TerminationCause};

use crate::processor::MonitorConfig;

/// What the monitor plane tells the pipeline after an exception it
/// raised has been serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Execution continues; the pipeline freezes for `stall_cycles`
    /// (the OS exception-handling cost, 100 cycles in the paper).
    Continue {
        /// Cycles the pipeline stalls while the handler runs.
        stall_cycles: u64,
    },
    /// The program is killed.
    Kill(TerminationCause),
}

/// Captured run state of a monitor plane, for snapshot/restore.
///
/// A checkpoint of a monitored run must carry the monitoring hardware's
/// state alongside the architectural state, or a restored run would
/// diverge from the uninterrupted one in digests, table residency and
/// statistics. Monitors that carry no state between hook calls use
/// [`MonitorState::Stateless`].
#[derive(Clone, Debug)]
pub enum MonitorState {
    /// The monitor carries no run state.
    Stateless,
    /// A [`CicMonitor`]'s complete state (boxed: it holds the whole
    /// IHT image and the OS-side policy state).
    Cic(Box<CicMonitorState>),
}

/// [`CicMonitor`]'s captured state: the checker hardware — running
/// digest, IHT contents and LRU order, statistics — plus the OS kernel's
/// counters and refill-policy cursor. The FHT stays shared behind its
/// `Arc` and is not copied.
#[derive(Clone, Debug)]
pub struct CicMonitorState {
    cic: Cic,
    os: OsKernelState,
}

impl MonitorState {
    /// Serialize the captured monitor state for checkpoint spill: a
    /// variant tag, then (for the CIC plane) the checker hardware and
    /// the OS kernel state. The FHT is configuration, not run state,
    /// and is not written — a decoded state is reinstated into a
    /// monitor that already owns the table.
    pub fn encode_into(&self, e: &mut Enc) {
        match self {
            MonitorState::Stateless => e.u8(0),
            MonitorState::Cic(s) => {
                e.u8(1);
                s.cic.encode_into(e);
                s.os.encode_into(e);
            }
        }
    }

    /// Rebuild a state serialized by [`MonitorState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown variant tag, or a
    /// malformed checker payload.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<MonitorState, CodecError> {
        match d.u8()? {
            0 => Ok(MonitorState::Stateless),
            1 => {
                let cic = Cic::decode_from(d)?;
                let os = OsKernelState::decode_from(d)?;
                Ok(MonitorState::Cic(Box::new(CicMonitorState { cic, os })))
            }
            _ => Err(CodecError::Invalid {
                what: "monitor state tag",
            }),
        }
    }
}

/// A pluggable integrity-checking plane.
///
/// The pipeline drives a monitor through exactly four events:
///
/// 1. [`observe_fetch`](Monitor::observe_fetch) — one instruction word
///    left the fetch bus (the `HASHFU.ope` step); returns the running
///    digest (the new `RHASH` value).
/// 2. [`hash_reset`](Monitor::hash_reset) — a block boundary committed;
///    restart the digest.
/// 3. [`check_block`](Monitor::check_block) — a control-flow instruction
///    reached ID; returns the `(found, match)` pair the check micro-ops
///    branch on. Returning anything but `(true, true)` makes the spec's
///    check program raise an exception.
/// 4. [`resolve`](Monitor::resolve) — an exception the check program
///    raised must be serviced; the [`Verdict`] either stalls or kills.
///
/// The block dispatcher also drives fused forms of these events —
/// [`observe_block`](Monitor::observe_block),
/// [`observe_check_reset`](Monitor::observe_check_reset) and
/// [`check_memoized`](Monitor::check_memoized) — each of which must be
/// exactly equivalent to the composition its default performs.
///
/// Everything else ([`params`](Monitor::params), the stats accessors) is
/// configuration and reporting.
pub trait Monitor {
    /// Micro-op parameters to embed in the processor spec, or `None` to
    /// run the baseline spec (no observe/check hooks will fire).
    fn params(&self) -> Option<MonitorParams>;

    /// The digest value `RHASH` holds after a reset (zero for plain
    /// XOR, the seed-derived value for seeded algorithms).
    fn hash_reset_value(&self) -> u32 {
        0
    }

    /// Absorb one fetched instruction word; returns the updated digest.
    fn observe_fetch(&mut self, word: u32) -> u32;

    /// Absorb a run of fetched words in one call; returns the digest
    /// after the last. Must be exactly equivalent to calling
    /// [`observe_fetch`](Monitor::observe_fetch) once per word in order
    /// (the default does just that) — the block dispatcher batches a
    /// bulk-validated straight-line body through this hook, so any
    /// divergence would be architecture-visible.
    fn observe_block(&mut self, words: &[u32]) -> u32 {
        let mut digest = 0;
        for &w in words {
            digest = self.observe_fetch(w);
        }
        digest
    }

    /// Restart the digest for a new basic block.
    fn hash_reset(&mut self);

    /// Block-end check: `(found, match)` for `(key, hash)`.
    fn check_block(&mut self, key: BlockKey, hash: u32) -> (bool, bool);

    /// One whole bulk-validated block as a single monitor transaction:
    /// absorb `words`, check the digest for `key`, restart the digest —
    /// returning `(digest, found, match)`. Must be exactly equivalent
    /// to the composition the default performs; monitors with real
    /// hardware behind the hooks override it to save the per-call
    /// dispatch on the block fast path.
    fn observe_check_reset(&mut self, words: &[u32], key: BlockKey) -> (u32, bool, bool) {
        let digest = self.observe_block(words);
        let (found, matched) = self.check_block(key, digest);
        self.hash_reset();
        (digest, found, matched)
    }

    /// [`observe_check_reset`](Monitor::observe_check_reset) for a
    /// block whose digest the caller already knows.
    ///
    /// The dispatcher calls this only when the block starts fresh (the
    /// digest in its reset state) and `words` are the block's cached,
    /// bulk-validated words, and only with the `digest` an earlier
    /// [`observe_check_reset`](Monitor::observe_check_reset) call
    /// returned for the same words from the same fresh start. A hash
    /// unit is a pure function of the words it absorbs from its reset
    /// state, so hashing `words` again would yield `digest` again.
    ///
    /// Contract: the result and every side effect must be exactly
    /// those of `observe_check_reset(words, key)` — the default simply
    /// calls it, ignoring `digest`, so a monitor that does not override
    /// this hook behaves as if no memo existed. An override may skip
    /// the hashing, but must still account for it (the CIC adds
    /// `words.len()` to its `words_hashed` counter) and must leave the
    /// hash unit in its reset state, where it already is.
    fn check_memoized(&mut self, words: &[u32], key: BlockKey, digest: u32) -> (u32, bool, bool) {
        let _ = digest;
        self.observe_check_reset(words, key)
    }

    /// Service an exception raised by the check program.
    fn resolve(&mut self, kind: ExceptionKind, key: BlockKey, hash: u32) -> Verdict;

    /// Capture the monitor's complete run state for a checkpoint. The
    /// default declares the monitor stateless, which is correct when
    /// every hook's result depends only on its arguments. A monitor
    /// that accumulates state (digests, tables, counters) must override
    /// this **and** [`restore_state`](Monitor::restore_state), or a run
    /// resumed from a snapshot will diverge from the uninterrupted one.
    fn snapshot_state(&self) -> MonitorState {
        MonitorState::Stateless
    }

    /// Reinstate run state previously captured by
    /// [`snapshot_state`](Monitor::snapshot_state). The default ignores
    /// the state, matching the stateless default above.
    fn restore_state(&mut self, _state: &MonitorState) {}

    /// The checker hardware, when this monitor has one.
    fn cic(&self) -> Option<&Cic> {
        None
    }

    /// The OS kernel, when this monitor has one.
    fn os(&self) -> Option<&OsKernel> {
        None
    }

    /// Checker statistics for run reports.
    fn cic_stats(&self) -> Option<CicStats> {
        self.cic().map(|c| c.stats())
    }

    /// OS statistics for run reports.
    fn os_stats(&self) -> Option<OsStats> {
        self.os().map(|o| o.stats())
    }
}

/// The absent monitor: baseline spec, no hooks, no stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    fn params(&self) -> Option<MonitorParams> {
        None
    }

    fn observe_fetch(&mut self, _word: u32) -> u32 {
        0
    }

    fn hash_reset(&mut self) {}

    fn check_block(&mut self, _key: BlockKey, _hash: u32) -> (bool, bool) {
        (false, false)
    }

    fn resolve(&mut self, _kind: ExceptionKind, _key: BlockKey, _hash: u32) -> Verdict {
        Verdict::Continue { stall_cycles: 0 }
    }
}

/// The paper's monitor: CIC hardware checked against the OS-managed FHT.
pub struct CicMonitor {
    cic: Cic,
    os: OsKernel,
    stall_cycles: u64,
    params: MonitorParams,
}

impl std::fmt::Debug for CicMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CicMonitor")
            .field("cic", &self.cic)
            .field("os", &self.os)
            .finish()
    }
}

impl CicMonitor {
    /// Assemble the checker and the OS side from a [`MonitorConfig`].
    pub fn new(config: MonitorConfig) -> CicMonitor {
        let params = MonitorParams {
            iht_entries: config.cic.iht_entries,
            hash_algo: config.cic.hash_algo,
        };
        let cic = Cic::new(config.cic);
        let mut os = OsKernel::with_policy(config.fht, config.policy.build());
        os.set_exception_cost(config.exception_cost);
        CicMonitor {
            cic,
            os,
            stall_cycles: config.exception_cost.cycles,
            params,
        }
    }
}

impl Monitor for CicMonitor {
    fn params(&self) -> Option<MonitorParams> {
        Some(self.params)
    }

    fn hash_reset_value(&self) -> u32 {
        self.cic.hash_reset_value()
    }

    fn observe_fetch(&mut self, word: u32) -> u32 {
        self.cic.hash_step(word)
    }

    fn observe_block(&mut self, words: &[u32]) -> u32 {
        self.cic.hash_block_step(words)
    }

    fn hash_reset(&mut self) {
        self.cic.hash_reset();
    }

    fn check_block(&mut self, key: BlockKey, hash: u32) -> (bool, bool) {
        self.cic.check_block(key, hash)
    }

    fn observe_check_reset(&mut self, words: &[u32], key: BlockKey) -> (u32, bool, bool) {
        let digest = self.cic.hash_block_step(words);
        let (found, matched) = self.cic.check_block(key, digest);
        self.cic.hash_reset();
        (digest, found, matched)
    }

    fn check_memoized(&mut self, words: &[u32], key: BlockKey, digest: u32) -> (u32, bool, bool) {
        debug_assert!(
            self.cic.hasher_is_reset(),
            "a memoized digest stands in only for hashing from the reset state"
        );
        debug_assert_eq!(digest, {
            let cfg = self.cic.config();
            cimon_core::hash::hash_block(cfg.hash_algo, cfg.hash_seed, words)
        });
        self.cic.note_words_hashed(words.len() as u64);
        let (found, matched) = self.cic.check_block(key, digest);
        (digest, found, matched)
    }

    fn resolve(&mut self, kind: ExceptionKind, key: BlockKey, hash: u32) -> Verdict {
        match kind {
            ExceptionKind::HashMiss => match self.os.handle_miss(&mut self.cic, key, hash) {
                MissResolution::Refilled { .. } => Verdict::Continue {
                    stall_cycles: self.stall_cycles,
                },
                MissResolution::Terminate(cause) => Verdict::Kill(cause),
            },
            ExceptionKind::HashMismatch => {
                let expected = self
                    .cic
                    .iht()
                    .probe(key)
                    .map(|r| r.hash)
                    .unwrap_or_default();
                Verdict::Kill(self.os.handle_mismatch(key, expected, hash))
            }
        }
    }

    fn snapshot_state(&self) -> MonitorState {
        MonitorState::Cic(Box::new(CicMonitorState {
            cic: self.cic.clone(),
            os: self.os.snapshot_state(),
        }))
    }

    fn restore_state(&mut self, state: &MonitorState) {
        if let MonitorState::Cic(s) = state {
            self.cic = s.cic.clone();
            self.os.restore_state(&s.os);
        }
    }

    fn cic(&self) -> Option<&Cic> {
        Some(&self.cic)
    }

    fn os(&self) -> Option<&OsKernel> {
        Some(&self.os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_core::{BlockRecord, CicConfig};
    use cimon_os::FullHashTable;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 8),
            hash,
        }
    }

    #[test]
    fn null_monitor_is_inert() {
        let mut m = NullMonitor;
        assert!(m.params().is_none());
        assert_eq!(m.observe_fetch(0xdead_beef), 0);
        assert_eq!(m.check_block(BlockKey::new(0, 8), 1), (false, false));
        assert_eq!(
            m.resolve(ExceptionKind::HashMiss, BlockKey::new(0, 8), 1),
            Verdict::Continue { stall_cycles: 0 }
        );
        assert!(m.cic_stats().is_none());
        assert!(m.os_stats().is_none());
    }

    #[test]
    fn cic_monitor_miss_refills_then_hits() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        assert!(m.params().is_some());
        let key = BlockKey::new(0x1000, 0x1008);
        // Cold table: miss, then the OS refill verdict stalls 100 cycles.
        assert_eq!(m.check_block(key, 7), (false, false));
        assert_eq!(
            m.resolve(ExceptionKind::HashMiss, key, 7),
            Verdict::Continue { stall_cycles: 100 }
        );
        assert_eq!(m.check_block(key, 7), (true, true));
        assert_eq!(m.cic_stats().unwrap().checks, 2);
        assert_eq!(m.os_stats().unwrap().miss_exceptions, 1);
    }

    #[test]
    fn cic_monitor_mismatch_kills() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.resolve(ExceptionKind::HashMiss, key, 7); // load the entry
        assert_eq!(m.check_block(key, 9), (true, false));
        match m.resolve(ExceptionKind::HashMismatch, key, 9) {
            Verdict::Kill(TerminationCause::HashMismatch {
                expected, actual, ..
            }) => {
                assert_eq!((expected, actual), (7, 9));
            }
            other => panic!("expected kill, got {other:?}"),
        }
    }

    #[test]
    fn default_snapshot_hooks_are_stateless() {
        let mut m = NullMonitor;
        let state = m.snapshot_state();
        assert!(matches!(state, MonitorState::Stateless));
        m.restore_state(&state); // no-op, must not panic
    }

    #[test]
    fn cic_monitor_state_round_trips() {
        let fht: FullHashTable = [rec(0x1000, 7), rec(0x2000, 9)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.observe_fetch(3);
        m.check_block(key, 3);
        m.resolve(ExceptionKind::HashMiss, key, 7); // refill
        m.observe_fetch(5); // digest mid-block at snapshot time

        let snap = m.snapshot_state();
        let digest = m.cic().unwrap().hash_value();
        let stats = m.cic_stats().unwrap();
        let os_stats = m.os_stats().unwrap();

        // Diverge.
        m.observe_fetch(0xffff);
        m.hash_reset();
        m.check_block(BlockKey::new(0x2000, 0x2008), 0);
        m.resolve(ExceptionKind::HashMiss, BlockKey::new(0x2000, 0x2008), 9);
        assert_ne!(m.cic_stats().unwrap(), stats);

        m.restore_state(&snap);
        assert_eq!(m.cic().unwrap().hash_value(), digest);
        assert_eq!(m.cic_stats().unwrap(), stats);
        assert_eq!(m.os_stats().unwrap(), os_stats);
        // Table residency restored: the refilled block hits again.
        assert_eq!(m.check_block(key, 7), (true, true));
    }

    #[test]
    fn monitor_state_encode_decode_round_trips() {
        let fht: FullHashTable = [rec(0x1000, 7), rec(0x2000, 9)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x1000, 0x1008);
        m.resolve(ExceptionKind::HashMiss, key, 7);
        m.observe_fetch(5); // mid-block digest at capture time

        let snap = m.snapshot_state();
        let mut e = Enc::new();
        snap.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = MonitorState::decode_from(&mut d).unwrap();
        d.finish().unwrap();

        let digest = m.cic().unwrap().hash_value();
        let stats = m.cic_stats().unwrap();
        m.observe_fetch(0xffff); // diverge
        m.restore_state(&back);
        assert_eq!(m.cic().unwrap().hash_value(), digest);
        assert_eq!(m.cic_stats().unwrap(), stats);
        assert_eq!(m.check_block(key, 7), (true, true));

        // Stateless round-trips through its one-byte form.
        let mut e = Enc::new();
        MonitorState::Stateless.encode_into(&mut e);
        let b = e.into_bytes();
        assert_eq!(b.len(), 1);
        assert!(matches!(
            MonitorState::decode_from(&mut Dec::new(&b)).unwrap(),
            MonitorState::Stateless
        ));
        assert!(MonitorState::decode_from(&mut Dec::new(&[7u8])).is_err());
        assert!(MonitorState::decode_from(&mut Dec::new(&bytes[..bytes.len() - 4])).is_err());
    }

    #[test]
    fn cic_monitor_unknown_block_kills() {
        let fht: FullHashTable = [rec(0x1000, 7)].into_iter().collect();
        let mut m = CicMonitor::new(MonitorConfig::new(CicConfig::with_entries(4), fht));
        let key = BlockKey::new(0x9000, 0x9008);
        assert_eq!(
            m.resolve(ExceptionKind::HashMiss, key, 3),
            Verdict::Kill(TerminationCause::UnknownBlock { block: key })
        );
    }
}
