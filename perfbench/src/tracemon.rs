//! A delegating monitor that counts every hook call exactly and clocks
//! a sample of them.
//!
//! Clocking every hook is not an option: one `observe_fetch` fires per
//! fetched word on the per-word path, and two clock reads cost more
//! than the hook itself. So each hook is clocked on one call in
//! [`SAMPLE_EVERY`], and its total is estimated as the sampled mean
//! (clock cost removed) times the exact call count.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use cimon_core::{BlockKey, Cic};
use cimon_microop::{ExceptionKind, MonitorParams};
use cimon_os::OsKernel;
use cimon_pipeline::{Monitor, MonitorState, Verdict};

/// One clocked call per this many calls of each hook.
pub const SAMPLE_EVERY: u64 = 64;

/// Exact call count and sampled time of one hook.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookStat {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: f64,
}

impl HookStat {
    /// Mean nanoseconds per call with the cost of an empty sample
    /// ([`empty_sample_ns`]) removed.
    pub fn mean_ns(&self, empty_ns: f64) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            (self.sampled_ns / self.sampled as f64 - empty_ns).max(0.0)
        }
    }

    /// Estimated seconds spent in this hook over all calls.
    pub fn total_s(&self, empty_ns: f64) -> f64 {
        self.mean_ns(empty_ns) * self.calls as f64 * 1e-9
    }

    pub fn merge(&mut self, other: &HookStat) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Clock reads spent sampling this hook.
    pub fn clock_reads(&self) -> u64 {
        2 * self.sampled
    }
}

/// Hook statistics of one monitored run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookStats {
    /// `observe_fetch` and `observe_block`.
    pub observe: HookStat,
    /// `observe_check_reset`: one bulk-validated block as a transaction.
    pub txn: HookStat,
    pub check: HookStat,
    /// `resolve`: the OS servicing a miss (or a mismatch).
    pub resolve: HookStat,
}

impl HookStats {
    pub fn merge(&mut self, other: &HookStats) {
        self.observe.merge(&other.observe);
        self.txn.merge(&other.txn);
        self.check.merge(&other.check);
        self.resolve.merge(&other.resolve);
    }

    /// Estimated seconds in every hook.
    pub fn total_s(&self, empty_ns: f64) -> f64 {
        self.observe.total_s(empty_ns)
            + self.txn.total_s(empty_ns)
            + self.check.total_s(empty_ns)
            + self.resolve.total_s(empty_ns)
    }

    pub fn clock_reads(&self) -> u64 {
        self.observe.clock_reads()
            + self.txn.clock_reads()
            + self.check.clock_reads()
            + self.resolve.clock_reads()
    }
}

/// Wraps a monitor; the processor drives it through `with_monitor`.
/// The processor owns the monitor, so the statistics reach the caller
/// through `sink` when the processor drops it.
pub struct SamplingMonitor<M> {
    inner: M,
    stats: HookStats,
    sink: Rc<Cell<HookStats>>,
}

impl<M: Monitor> SamplingMonitor<M> {
    pub fn new(inner: M, sink: Rc<Cell<HookStats>>) -> SamplingMonitor<M> {
        SamplingMonitor {
            inner,
            stats: HookStats::default(),
            sink,
        }
    }
}

impl<M> Drop for SamplingMonitor<M> {
    fn drop(&mut self) {
        self.sink.set(self.stats);
    }
}

/// What a sample of a hook that does nothing reads, in nanoseconds:
/// the clock's own share of every sample, removed from the hook means.
/// The median over 21 batches of 4096 sampled empty calls.
pub fn empty_sample_ns() -> f64 {
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let mut stat = HookStat::default();
            for _ in 0..4096 * SAMPLE_EVERY {
                sampled(&mut stat, || std::hint::black_box(0u32));
            }
            stat.sampled_ns / stat.sampled as f64
        })
        .collect();
    crate::util::median(&batches)
}

/// Count one call of a hook and clock it when its turn comes.
#[inline(always)]
fn sampled<T>(stat: &mut HookStat, f: impl FnOnce() -> T) -> T {
    stat.calls += 1;
    if !stat.calls.is_multiple_of(SAMPLE_EVERY) {
        return f();
    }
    let t = Instant::now();
    let out = f();
    stat.sampled_ns += t.elapsed().as_nanos() as f64;
    stat.sampled += 1;
    out
}

impl<M: Monitor> Monitor for SamplingMonitor<M> {
    fn params(&self) -> Option<MonitorParams> {
        self.inner.params()
    }

    fn hash_reset_value(&self) -> u32 {
        self.inner.hash_reset_value()
    }

    fn observe_fetch(&mut self, word: u32) -> u32 {
        let inner = &mut self.inner;
        sampled(&mut self.stats.observe, || inner.observe_fetch(word))
    }

    fn observe_block(&mut self, words: &[u32]) -> u32 {
        let inner = &mut self.inner;
        sampled(&mut self.stats.observe, || inner.observe_block(words))
    }

    fn hash_reset(&mut self) {
        self.inner.hash_reset();
    }

    fn check_block(&mut self, key: BlockKey, hash: u32) -> (bool, bool) {
        let inner = &mut self.inner;
        sampled(&mut self.stats.check, || inner.check_block(key, hash))
    }

    fn observe_check_reset(&mut self, words: &[u32], key: BlockKey) -> (u32, bool, bool) {
        let inner = &mut self.inner;
        sampled(&mut self.stats.txn, || {
            inner.observe_check_reset(words, key)
        })
    }

    fn resolve(&mut self, kind: ExceptionKind, key: BlockKey, hash: u32) -> Verdict {
        let inner = &mut self.inner;
        sampled(&mut self.stats.resolve, || inner.resolve(kind, key, hash))
    }

    fn snapshot_state(&self) -> MonitorState {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &MonitorState) {
        self.inner.restore_state(state);
    }

    fn cic(&self) -> Option<&Cic> {
        self.inner.cic()
    }

    fn os(&self) -> Option<&OsKernel> {
        self.inner.os()
    }
}
