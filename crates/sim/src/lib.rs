//! # cimon-sim — one-call simulation facade
//!
//! Ties the whole system together the way the paper's experimental
//! setup does: assemble (or take) a program image, generate its Full
//! Hash Table with the static analyser, configure the checker and the
//! OS, run, and report the metrics the evaluation section uses (miss
//! rate, cycle counts, overheads).
//!
//! ```
//! use cimon_sim::{run_baseline, run_monitored, SimConfig};
//!
//! let prog = cimon_asm::assemble("
//!     .text
//! main:
//!     li $t0, 9
//! loop:
//!     addiu $t0, $t0, -1
//!     bnez $t0, loop
//!     li $a0, 0
//!     li $v0, 10
//!     syscall
//! ").unwrap();
//!
//! let base = run_baseline(&prog.image);
//! let mon = run_monitored(&prog.image, &SimConfig::default(), None).unwrap();
//! assert_eq!(base.outcome, mon.outcome);
//! assert!(mon.stats.cycles >= base.stats.cycles);
//! ```
//!
//! For grids of runs (the paper's whole evaluation), use the parallel
//! experiment engine in [`engine`] instead of looping over these
//! one-call helpers.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;
use std::time::Duration;

use cimon_core::CicConfig;
use cimon_hashgen::{static_fht, HashGenError};
use cimon_mem::ProgramImage;
use cimon_os::{ExceptionCost, FullHashTable, RefillPolicyKind};
use cimon_pipeline::{
    BlockCache, BlockExec, MonitorConfig, Predecode, PredecodedImage, Processor, ProcessorConfig,
    RunOutcome, RunStats,
};

pub mod chaos;
pub mod ckpt;
pub mod engine;

pub use cimon_core::{HashAlgoKind, SimError};
pub use cimon_pipeline::RunOutcome as Outcome;
pub use ckpt::SpillMode;
pub use engine::{Artifact, Experiment, ResultRow, RowStatus, Sweep};

/// Experiment-level configuration (the knobs the paper sweeps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// IHT entries (the paper sweeps 1, 8, 16, 32).
    pub iht_entries: usize,
    /// Hash algorithm in `HASHFU`.
    pub hash_algo: HashAlgoKind,
    /// Seed for the seeded-XOR variant.
    pub hash_seed: u32,
    /// OS refill policy.
    pub policy: RefillPolicyKind,
    /// OS exception handling cost in cycles (paper: 100).
    pub exception_cycles: u64,
    /// Safety cycle budget.
    pub max_cycles: u64,
    /// Wall-clock watchdog for the run (`None` disables it). Rows whose
    /// run is stopped by the watchdog come back with
    /// [`engine::RowStatus::TimedOut`] instead of hanging the sweep.
    pub max_wall: Option<Duration>,
}

impl Default for SimConfig {
    /// The paper's headline configuration (CIC8).
    fn default() -> Self {
        SimConfig {
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
            hash_seed: 0,
            policy: RefillPolicyKind::ReplaceHalfLru,
            exception_cycles: 100,
            max_cycles: 400_000_000,
            max_wall: None,
        }
    }
}

impl SimConfig {
    /// The paper's configuration at a given table size.
    pub fn with_entries(iht_entries: usize) -> SimConfig {
        SimConfig {
            iht_entries,
            ..SimConfig::default()
        }
    }
}

/// The result of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Full statistics.
    pub stats: RunStats,
    /// FHT entries generated for the program (0 on baseline runs).
    pub fht_entries: usize,
    /// IHT miss rate in percent (0 on baseline runs) — Figure 6's
    /// metric.
    pub miss_rate_percent: f64,
}

/// Run a program on the baseline (unmonitored) processor with the
/// default safety cycle budget.
pub fn run_baseline(image: &ProgramImage) -> RunReport {
    run_baseline_with_max(image, ProcessorConfig::baseline().max_cycles)
}

/// Run a program on the baseline processor with an explicit safety
/// cycle budget (so sweeps give baseline and monitored rows the same
/// cap).
pub fn run_baseline_with_max(image: &ProgramImage, max_cycles: u64) -> RunReport {
    run_baseline_configured(image, max_cycles, None, Predecode::Auto, BlockExec::Auto)
}

/// [`run_baseline_with_max`] with a shared predecoded image and block
/// cache, so repeated runs (sweeps) skip the per-run decode and
/// block-grouping passes. `max_wall`, when set, arms the wall-clock
/// watchdog so baseline rows share the sweep's timeout semantics.
pub fn run_baseline_prepared(
    image: &ProgramImage,
    max_cycles: u64,
    max_wall: Option<Duration>,
    predecoded: Arc<PredecodedImage>,
    blocks: Arc<BlockCache>,
) -> RunReport {
    run_baseline_configured(
        image,
        max_cycles,
        max_wall,
        Predecode::Shared(predecoded),
        BlockExec::Shared(blocks),
    )
}

fn run_baseline_configured(
    image: &ProgramImage,
    max_cycles: u64,
    max_wall: Option<Duration>,
    predecode: Predecode,
    block_exec: BlockExec,
) -> RunReport {
    let mut cpu = Processor::new(
        image,
        ProcessorConfig {
            max_cycles,
            max_wall,
            predecode,
            block_exec,
            ..ProcessorConfig::baseline()
        },
    );
    let outcome = cpu.run();
    let stats = cpu.stats();
    RunReport {
        outcome,
        stats,
        fht_entries: 0,
        miss_rate_percent: 0.0,
    }
}

/// Build the FHT for an image under a config (static analysis).
///
/// # Errors
///
/// Propagates [`HashGenError`] for malformed text segments.
pub fn build_fht(image: &ProgramImage, config: &SimConfig) -> Result<FullHashTable, HashGenError> {
    let (fht, _) = static_fht(image, &[], config.hash_algo, config.hash_seed)?;
    Ok(fht)
}

/// Run a program on the monitored processor.
///
/// `fht` supplies a precomputed Full Hash Table; pass `None` to have
/// one generated here with the static analyser. Sweeps and repeated
/// runs should pass the shared table so the analysis happens once.
///
/// # Errors
///
/// Propagates [`HashGenError`] from FHT generation (only possible when
/// `fht` is `None`).
pub fn run_monitored(
    image: &ProgramImage,
    config: &SimConfig,
    fht: Option<Arc<FullHashTable>>,
) -> Result<RunReport, HashGenError> {
    let fht = match fht {
        Some(fht) => fht,
        None => Arc::new(build_fht(image, config)?),
    };
    Ok(run_monitored_with_fht(image, fht, config))
}

/// Run with a pre-built FHT (lets sweeps reuse the static analysis).
pub fn run_monitored_with_fht(
    image: &ProgramImage,
    fht: impl Into<Arc<FullHashTable>>,
    config: &SimConfig,
) -> RunReport {
    run_monitored_configured(image, fht.into(), config, Predecode::Auto, BlockExec::Auto)
}

/// [`run_monitored_with_fht`] with a shared predecoded image and block
/// cache, so repeated runs (sweeps) skip the per-run decode and
/// block-grouping passes.
pub fn run_monitored_prepared(
    image: &ProgramImage,
    fht: impl Into<Arc<FullHashTable>>,
    config: &SimConfig,
    predecoded: Arc<PredecodedImage>,
    blocks: Arc<BlockCache>,
) -> RunReport {
    run_monitored_configured(
        image,
        fht.into(),
        config,
        Predecode::Shared(predecoded),
        BlockExec::Shared(blocks),
    )
}

fn run_monitored_configured(
    image: &ProgramImage,
    fht: Arc<FullHashTable>,
    config: &SimConfig,
    predecode: Predecode,
    block_exec: BlockExec,
) -> RunReport {
    let fht_entries = fht.len();
    let cic = CicConfig {
        iht_entries: config.iht_entries,
        hash_algo: config.hash_algo,
        hash_seed: config.hash_seed,
    };
    let monitor = MonitorConfig {
        cic,
        fht,
        policy: config.policy,
        exception_cost: ExceptionCost {
            cycles: config.exception_cycles,
        },
    };
    let mut cpu = Processor::new(
        image,
        ProcessorConfig {
            monitor: Some(monitor),
            max_cycles: config.max_cycles,
            max_wall: config.max_wall,
            predecode,
            block_exec,
            ..ProcessorConfig::baseline()
        },
    );
    let outcome = cpu.run();
    let stats = cpu.stats();
    let miss_rate_percent = stats.cic.map(|c| c.miss_rate_percent()).unwrap_or(0.0);
    RunReport {
        outcome,
        stats,
        fht_entries,
        miss_rate_percent,
    }
}

/// Cycle overhead of a monitored run versus baseline, in percent —
/// Table 1's metric.
pub fn overhead_percent(baseline_cycles: u64, monitored_cycles: u64) -> f64 {
    if baseline_cycles == 0 {
        0.0
    } else {
        100.0 * (monitored_cycles as f64 - baseline_cycles as f64) / baseline_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_asm::assemble;

    fn program() -> cimon_asm::Program {
        assemble(
            "
            .text
        main:
            li   $t0, 25
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            move $a0, $t1
            li   $v0, 10
            syscall
        ",
        )
        .unwrap()
    }

    #[test]
    fn baseline_and_monitored_agree() {
        let prog = program();
        let base = run_baseline(&prog.image);
        let mon = run_monitored(&prog.image, &SimConfig::default(), None).unwrap();
        assert_eq!(base.outcome, RunOutcome::Exited { code: 325 });
        assert_eq!(mon.outcome, base.outcome);
        assert_eq!(mon.stats.instructions, base.stats.instructions);
        assert!(mon.fht_entries >= 3);
        assert!(mon.stats.cycles >= base.stats.cycles);
    }

    #[test]
    fn overhead_definition() {
        assert_eq!(overhead_percent(100, 150), 50.0);
        assert_eq!(overhead_percent(0, 10), 0.0);
        assert_eq!(overhead_percent(200, 200), 0.0);
    }

    #[test]
    fn bigger_tables_do_not_miss_more() {
        let prog = program();
        let m1 = run_monitored(&prog.image, &SimConfig::with_entries(1), None).unwrap();
        let m8 = run_monitored(&prog.image, &SimConfig::with_entries(8), None).unwrap();
        assert!(m8.miss_rate_percent <= m1.miss_rate_percent);
    }

    #[test]
    fn policies_are_selectable() {
        let prog = program();
        for policy in RefillPolicyKind::all(7) {
            let cfg = SimConfig {
                policy,
                ..SimConfig::default()
            };
            let rep = run_monitored(&prog.image, &cfg, None).unwrap();
            assert_eq!(rep.outcome, RunOutcome::Exited { code: 325 });
        }
    }

    #[test]
    fn stronger_hash_algorithms_also_run_clean() {
        let prog = program();
        for algo in [
            HashAlgoKind::SeededXor,
            HashAlgoKind::Crc32,
            HashAlgoKind::Sha1,
        ] {
            let cfg = SimConfig {
                hash_algo: algo,
                hash_seed: 0xfeed,
                ..SimConfig::default()
            };
            let rep = run_monitored(&prog.image, &cfg, None).unwrap();
            assert_eq!(rep.outcome, RunOutcome::Exited { code: 325 }, "{algo}");
            let cic = rep.stats.cic.unwrap();
            assert_eq!(cic.mismatches, 0, "{algo}");
        }
    }
}
