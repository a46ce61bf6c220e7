//! `corpus-long`: corpus programs of several million dynamic
//! instructions, each run single-threaded in three modes. The benchmark
//! seed picks the program order and the mode rotation. The mode
//! deltas split host time by ablation: `cic-ideal` minus `baseline` is
//! hash observe plus the IHT hit check, `cic8` minus `cic-ideal` is the
//! OS miss refill.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use cimon_core::{CicConfig, HashAlgoKind};
use cimon_pipeline::{
    BlockExec, BlockExecStats, CicMonitor, MonitorConfig, Predecode, Processor, ProcessorConfig,
    RunOutcome, RunStats,
};
use cimon_sim::engine::Artifact;

use crate::tracemon::{HookStats, SamplingMonitor};
use crate::util::{secs, Tally};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    Baseline,
    Cic8,
    /// IHT entries equal to the FHT's: no capacity misses, only the
    /// cold ones.
    CicIdeal,
}

pub const MODES: [Mode; 3] = [Mode::Baseline, Mode::Cic8, Mode::CicIdeal];

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Cic8 => "cic8",
            Mode::CicIdeal => "cic-ideal",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

fn config(a: &Artifact, mode: Mode) -> ProcessorConfig {
    let monitor = match mode {
        Mode::Baseline => None,
        Mode::Cic8 | Mode::CicIdeal => {
            let fht = a
                .fht(HashAlgoKind::Xor, 0)
                .expect("corpus programs analyse");
            let iht_entries = if mode == Mode::Cic8 {
                8
            } else {
                fht.len().max(1)
            };
            let cic = CicConfig {
                iht_entries,
                hash_algo: HashAlgoKind::Xor,
                hash_seed: 0,
            };
            Some(MonitorConfig::new(cic, fht))
        }
    };
    ProcessorConfig {
        monitor,
        predecode: Predecode::Shared(a.predecoded()),
        block_exec: BlockExec::Shared(a.block_cache()),
        ..ProcessorConfig::baseline()
    }
}

#[derive(Debug, Default)]
pub struct CorpusOut {
    /// Program runs per mode (every iteration runs one program in all
    /// three modes).
    pub iterations: usize,
    pub wall: f64,
    /// Host seconds per mode in total, and per (program, mode) the
    /// instruction count and every run's time.
    pub seconds: [f64; 3],
    pub samples: Vec<(u64, Vec<f64>)>,
    /// Traced pass only: hook statistics over the monitored runs and
    /// block dispatch counters over the `cic8` runs.
    pub hooks: [HookStats; 3],
    pub blocks: BlockExecStats,
    pub clock_reads: u64,
}

impl CorpusOut {
    /// Mean host seconds per program run in `mode`.
    pub fn run_s(&self, mode: Mode) -> f64 {
        self.seconds[mode.index()] / self.iterations.max(1) as f64
    }

    /// Simulated instructions per host second in `mode` over one run of
    /// every program, each at its mean time, so the figure does not
    /// depend on how many runs each program got.
    pub fn mips(&self, mode: Mode) -> f64 {
        let (instructions, secs) = self
            .samples
            .iter()
            .skip(mode.index())
            .step_by(MODES.len())
            .filter(|(_, times)| !times.is_empty())
            .fold((0, 0.0), |(n, t), (i, times)| {
                (n + i, t + times.iter().sum::<f64>() / times.len() as f64)
            });
        instructions as f64 / secs / 1e6
    }
}

fn run_one(
    a: &Artifact,
    mode: Mode,
    traced: bool,
) -> (RunOutcome, RunStats, HookStats, BlockExecStats) {
    let cfg = config(a, mode);
    let sink = Rc::new(Cell::new(HookStats::default()));
    let mut cpu = match (&cfg.monitor, traced) {
        (Some(mon), true) => {
            let monitor = SamplingMonitor::new(CicMonitor::new(mon.clone()), sink.clone());
            Processor::with_monitor(a.image(), cfg, Box::new(monitor))
        }
        _ => Processor::new(a.image(), cfg),
    };
    let outcome = cpu.run();
    let stats = cpu.stats();
    let blocks = cpu.block_stats();
    drop(cpu);
    (outcome, stats, sink.get(), blocks)
}

/// The corpus programs and the running output of each pass. Each
/// [`step`] runs one program in all three modes.
///
/// [`step`]: CorpusPhase::step
pub struct CorpusPhase {
    programs: Vec<Arc<Artifact>>,
    seed: u64,
    /// Every (program, mode) run's outcome and statistics as first
    /// observed: later runs, traced ones included, must repeat them.
    expected: HashMap<(usize, Mode), (RunOutcome, RunStats)>,
    /// Untraced and traced output.
    out: [CorpusOut; 2],
}

impl CorpusPhase {
    pub fn new(programs: Vec<Arc<Artifact>>, seed: u64) -> CorpusPhase {
        let mut phase = CorpusPhase {
            programs,
            seed,
            expected: HashMap::new(),
            out: Default::default(),
        };
        phase.take(false);
        phase.take(true);
        phase
    }

    /// The pass's output so far; its next step starts a new one.
    pub fn take(&mut self, traced: bool) -> CorpusOut {
        let fresh = CorpusOut {
            samples: vec![(0, Vec::new()); self.programs.len() * MODES.len()],
            ..CorpusOut::default()
        };
        std::mem::replace(&mut self.out[usize::from(traced)], fresh)
    }

    pub fn step(&mut self, traced: bool, tally: &mut Tally) {
        let start = Instant::now();
        let out = &mut self.out[usize::from(traced)];
        let n = self.programs.len();
        // The seed picks where the program order starts and how the
        // mode order rotates, so no mode always runs on a cold cache.
        let turn = out.iterations + self.seed as usize % n;
        let p = turn % n;
        let a = &self.programs[p];
        let mut exits = Vec::with_capacity(MODES.len());
        for k in 0..MODES.len() {
            let mode = MODES[(turn + k + (self.seed / 4) as usize) % MODES.len()];
            let t = Instant::now();
            let (outcome, stats, hooks, blocks) = run_one(a, mode, traced);
            let s = secs(t);
            let i = mode.index();
            out.seconds[i] += s;
            let sample = &mut out.samples[p * MODES.len() + i];
            sample.0 = stats.instructions;
            sample.1.push(s);
            if traced {
                out.hooks[i].merge(&hooks);
                out.clock_reads += hooks.clock_reads();
                if mode == Mode::Cic8 {
                    out.blocks.dispatches += blocks.dispatches;
                    out.blocks.bailouts += blocks.bailouts;
                    out.blocks.instructions += blocks.instructions;
                    out.blocks.max_block = out.blocks.max_block.max(blocks.max_block);
                    out.blocks.chain_hits += blocks.chain_hits;
                    out.blocks.chain_misses += blocks.chain_misses;
                }
            }
            let want = self
                .expected
                .entry((p, mode))
                .or_insert_with(|| (outcome, stats.clone()));
            tally.check(
                *want == (outcome, stats.clone()) && matches!(outcome, RunOutcome::Exited { .. }),
                || {
                    format!(
                        "{} {} run did not repeat its statistics",
                        a.name(),
                        mode.name()
                    )
                },
            );
            exits.push((outcome, stats.instructions));
        }
        tally.check(exits.windows(2).all(|w| w[0] == w[1]), || {
            format!("{}: modes disagree on exit or instruction count", a.name())
        });
        out.iterations += 1;
        out.wall += secs(start);
    }
}
