//! # cimon-bench — experiment drivers
//!
//! The functions here regenerate every table and figure of the paper's
//! evaluation (Section 6) plus the ablations DESIGN.md commits to. Each
//! `benches/*.rs` target is a thin printer over one driver, so the logic
//! is unit-testable and the bench output is reproducible:
//!
//! | target | artifact |
//! |--------|----------|
//! | `fig6_miss_rate` | Figure 6 — IHT miss rate vs table size |
//! | `table1_cycle_overhead` | Table 1 — cycle overhead CIC8/CIC16 |
//! | `table2_area` | Table 2 — cycle time and cell area |
//! | `fault_analysis` | Section 6.3 — detection coverage |
//! | `block_census` | Section 6.1 — executed-block counts |
//! | `ablation_replacement` | refill-policy ablation (paper future work) |
//! | `ablation_hash` | hash-algorithm ablation (paper future work) |
//! | `ablation_managed` | OS-managed vs application-managed scheme |
//! | `micro_perf` | Criterion micro-benchmarks |
//!
//! Every driver runs through the parallel experiment engine
//! ([`cimon_sim::engine`]): the workload suite is assembled once (the
//! [`suite`] artifacts wrap the `cimon_workloads::registry()`), each FHT
//! is generated once per hash algorithm, and grids execute on a worker
//! pool with deterministic result ordering. [`report`] serialises the
//! engine's [`ResultRow`]s as CSV/JSON for the bench artifacts.

#![warn(clippy::unwrap_used)]
// Allow-listed exception: the bench drivers' `.expect(...)` calls are
// documented setup assertions (every public driver carries a
// `# Panics` section) — a broken corpus or registry must abort the
// measurement loudly rather than report numbers for the wrong thing.
#![allow(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::sync::{Arc, OnceLock};

use cimon_area::{AreaModel, AreaRow, TimingRow};
use cimon_core::{CicConfig, HashAlgoKind};
use cimon_faults::{Campaign, CampaignConfig, CampaignResult, FaultModel, FaultSite};
use cimon_hashgen::trace_fht;
use cimon_os::RefillPolicyKind;
use cimon_sim::engine::{default_workers, parallel_map, Artifact, ResultRow, Sweep};
use cimon_sim::{overhead_percent, SimConfig};

pub mod json;
pub mod report;

/// Figure 6's table sizes.
pub const FIG6_SIZES: [usize; 4] = [1, 8, 16, 32];

/// The two hash algorithms the full paper grid sweeps.
pub const GRID_ALGOS: [HashAlgoKind; 2] = [HashAlgoKind::Xor, HashAlgoKind::Crc32];

static SUITE: OnceLock<Vec<Arc<Artifact>>> = OnceLock::new();

/// Engine artifacts over the whole workload registry, in the paper's
/// Figure-6 order. Cached process-wide: every driver shares one
/// assembly per workload and one FHT cache per (workload, hash algo).
pub fn suite() -> &'static [Arc<Artifact>] {
    SUITE.get_or_init(|| {
        cimon_workloads::registry()
            .iter()
            .map(|w| Artifact::new(w.name, w.image.clone(), Some(w.expected_exit)))
            .collect()
    })
}

/// One suite artifact by name.
///
/// # Panics
///
/// Panics if the workload does not exist — driver inputs are fixed at
/// build time, so that is a bug in the caller.
pub fn artifact(name: &str) -> Arc<Artifact> {
    suite()
        .iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("workload `{name}` exists"))
        .clone()
}

/// The paper's full evaluation grid as one sweep: 9 workloads ×
/// IHT {1, 8, 16, 32} × [`GRID_ALGOS`], workload-major.
pub fn paper_grid() -> Sweep {
    let mut sweep = Sweep::new();
    sweep.grid(suite(), &FIG6_SIZES, &GRID_ALGOS, SimConfig::default());
    sweep
}

/// Run a sweep and assert every row ran clean (expected exit code, no
/// mismatches) — the drivers' shared sanity gate.
fn run_clean(sweep: &Sweep) -> Vec<ResultRow> {
    let rows = sweep.run().expect("workload analyses");
    for r in &rows {
        assert!(
            r.is_clean(),
            "{} did not run clean: {:?}",
            r.workload,
            r.outcome
        );
    }
    rows
}

/// One Figure-6 series: a workload's miss rate per table size.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: String,
    /// Miss rate (%) for each entry of [`FIG6_SIZES`].
    pub miss_rate: [f64; 4],
}

/// Figure 6 plus the raw engine rows behind it.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// One series per workload.
    pub rows: Vec<Fig6Row>,
    /// The underlying grid results (for the CSV artifact).
    pub raw: Vec<ResultRow>,
}

/// Reproduce Figure 6 over the full workload suite (one sweep).
pub fn fig6() -> Fig6 {
    let mut sweep = Sweep::new();
    sweep.grid(
        suite(),
        &FIG6_SIZES,
        &[HashAlgoKind::Xor],
        SimConfig::default(),
    );
    let raw = run_clean(&sweep);
    let rows = raw
        .chunks(FIG6_SIZES.len())
        .map(|chunk| Fig6Row {
            workload: chunk[0].workload.clone(),
            miss_rate: [
                chunk[0].miss_rate_percent,
                chunk[1].miss_rate_percent,
                chunk[2].miss_rate_percent,
                chunk[3].miss_rate_percent,
            ],
        })
        .collect();
    Fig6 { rows, raw }
}

/// One Table-1 row: cycle counts and overheads.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Workload name.
    pub workload: String,
    /// Baseline cycles (no CIC).
    pub base_cycles: u64,
    /// Cycles with an 8-entry checker.
    pub cic8_cycles: u64,
    /// Cycles with a 16-entry checker.
    pub cic16_cycles: u64,
    /// Overhead (%) with 8 entries.
    pub overhead8: f64,
    /// Overhead (%) with 16 entries.
    pub overhead16: f64,
}

/// Table 1 plus the averages the paper quotes and the raw engine rows.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// One row per workload.
    pub rows: Vec<Table1Row>,
    /// Average overhead (%) at 8 entries.
    pub avg8: f64,
    /// Average overhead (%) at 16 entries.
    pub avg16: f64,
    /// The underlying results (for the JSON artifact).
    pub raw: Vec<ResultRow>,
}

/// Reproduce Table 1 (baseline + CIC8 + CIC16 per workload, one sweep).
pub fn table1() -> Table1 {
    let mut sweep = Sweep::new();
    for a in suite() {
        sweep.baseline(a.clone());
        sweep.monitored(a.clone(), SimConfig::with_entries(8));
        sweep.monitored(a.clone(), SimConfig::with_entries(16));
    }
    let raw = run_clean(&sweep);
    let rows: Vec<Table1Row> = raw
        .chunks(3)
        .map(|c| Table1Row {
            workload: c[0].workload.clone(),
            base_cycles: c[0].cycles,
            cic8_cycles: c[1].cycles,
            cic16_cycles: c[2].cycles,
            overhead8: overhead_percent(c[0].cycles, c[1].cycles),
            overhead16: overhead_percent(c[0].cycles, c[2].cycles),
        })
        .collect();
    let avg8 = rows.iter().map(|r| r.overhead8).sum::<f64>() / rows.len() as f64;
    let avg16 = rows.iter().map(|r| r.overhead16).sum::<f64>() / rows.len() as f64;
    Table1 {
        rows,
        avg8,
        avg16,
        raw,
    }
}

/// Reproduce Table 2: (area rows, timing rows) for baseline + 1/8/16
/// entries (and 32 as an extension point the paper mentions).
pub fn table2() -> (Vec<AreaRow>, Vec<TimingRow>) {
    let model = AreaModel::calibrated();
    let sizes = [0usize, 1, 8, 16, 32];
    let areas = sizes
        .iter()
        .map(|&n| model.area_row(n, HashAlgoKind::Xor))
        .collect();
    let timings = sizes
        .iter()
        .map(|&n| model.timing_row(n, HashAlgoKind::Xor))
        .collect();
    (areas, timings)
}

/// One fault-analysis row.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Hash algorithm under test.
    pub algo: HashAlgoKind,
    /// Fault model description.
    pub model: &'static str,
    /// Campaign counts.
    pub result: CampaignResult,
}

/// Reproduce the Section 6.3 fault analysis on a workload. Campaigns
/// execute on the engine's worker pool.
pub fn fault_analysis(workload: &str, runs: usize) -> Vec<FaultRow> {
    let a = artifact(workload);
    let (lo, hi) = a.image().text_range();
    let targets: Vec<u32> = (lo..hi).step_by(4).collect();
    let mut rows = Vec::new();
    for algo in [
        HashAlgoKind::Xor,
        HashAlgoKind::SeededXor,
        HashAlgoKind::Fletcher32,
        HashAlgoKind::Crc32,
    ] {
        let fht = a.fht(algo, 0x5eed).expect("analyses");
        let cic = CicConfig {
            iht_entries: 16,
            hash_algo: algo,
            hash_seed: 0x5eed,
        };
        let campaign = Campaign::new(a.image().clone(), cic, fht);
        for (name, model) in [
            ("single-bit", FaultModel::SingleBit),
            ("3-bit", FaultModel::MultiBit { n: 3 }),
            ("column-pair", FaultModel::SameColumnPair),
        ] {
            let result = campaign
                .run(&CampaignConfig {
                    runs,
                    seed: 0xdecaf,
                    model,
                    site: FaultSite::StoredImage,
                    targets: targets.clone(),
                    max_cycles: 5_000_000,
                    max_wall: None,
                })
                .expect("fault campaign");
            rows.push(FaultRow {
                algo,
                model: name,
                result,
            });
        }
    }
    rows
}

/// One block-census row (Section 6.1's "stringsearch has 25 executed
/// basic blocks, susan 93" observation), extended with the simulator's
/// block-dispatch histogram.
#[derive(Clone, Debug)]
pub struct CensusRow {
    /// Workload name.
    pub workload: String,
    /// Static text size in instructions.
    pub text_instructions: usize,
    /// Blocks enumerated by the static analyser.
    pub static_blocks: usize,
    /// Distinct dynamic blocks actually executed.
    pub executed_blocks: usize,
    /// Total block executions (checks performed).
    pub block_executions: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Mean instructions per dispatched superblock (block-exec run).
    pub block_mean: f64,
    /// Largest dispatched superblock in instructions.
    pub block_max: u64,
    /// Dispatches entered through a cached superblock chain edge.
    pub chain_hits: u64,
    /// Edge consultations that fell back to the cache lookup.
    pub chain_misses: u64,
}

/// Reproduce the block census across the suite. Baselines run through
/// one sweep; the block traces and the block-dispatch histograms run on
/// the same worker pool.
pub fn block_census() -> Vec<CensusRow> {
    use cimon_pipeline::{BlockExec, Predecode, Processor, ProcessorConfig};

    let mut sweep = Sweep::new();
    for a in suite() {
        sweep.baseline(a.clone());
    }
    let base = run_clean(&sweep);
    let traces = parallel_map(suite(), default_workers(), |_, a| {
        let (t, _, executions) = trace_fht(a.image(), HashAlgoKind::Xor, 0, 400_000_000);
        (t.len(), executions)
    });
    let dispatch = parallel_map(suite(), default_workers(), |_, a| {
        let mut cpu = Processor::new(
            a.image(),
            ProcessorConfig {
                predecode: Predecode::Shared(a.predecoded()),
                block_exec: BlockExec::Shared(a.block_cache()),
                ..ProcessorConfig::baseline()
            },
        );
        cpu.run();
        cpu.block_stats()
    });
    suite()
        .iter()
        .zip(base)
        .zip(traces.into_iter().zip(dispatch))
        .map(|((a, b), ((executed_blocks, block_executions), block))| {
            let reg = cimon_workloads::get(a.name()).expect("registered");
            CensusRow {
                workload: b.workload,
                text_instructions: reg.program.instr_count(),
                static_blocks: a.fht(HashAlgoKind::Xor, 0).expect("analyses").len(),
                executed_blocks,
                block_executions,
                instructions: b.instructions,
                block_mean: block.mean_block(),
                block_max: block.max_block,
                chain_hits: block.chain_hits,
                chain_misses: block.chain_misses,
            }
        })
        .collect()
}

/// One replacement-ablation cell: misses for (policy, size).
#[derive(Clone, Debug)]
pub struct ReplacementRow {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: &'static str,
    /// Misses per table size in [`FIG6_SIZES`].
    pub misses: [u64; 4],
}

/// Ablation A1: refill policies × table sizes over three representative
/// workloads, one sweep.
pub fn ablation_replacement() -> Vec<ReplacementRow> {
    let mut sweep = Sweep::new();
    for name in ["dijkstra", "rijndael", "stringsearch"] {
        let a = artifact(name);
        for policy in RefillPolicyKind::all(17) {
            for &iht_entries in &FIG6_SIZES {
                sweep.monitored(
                    a.clone(),
                    SimConfig {
                        iht_entries,
                        policy,
                        ..SimConfig::default()
                    },
                );
            }
        }
    }
    run_clean(&sweep)
        .chunks(FIG6_SIZES.len())
        .map(|c| ReplacementRow {
            workload: c[0].workload.clone(),
            policy: c[0].policy,
            misses: [c[0].misses, c[1].misses, c[2].misses, c[3].misses],
        })
        .collect()
}

/// One hash-ablation row: cost and coverage per algorithm.
#[derive(Clone, Debug)]
pub struct HashRow {
    /// Algorithm.
    pub algo: HashAlgoKind,
    /// `HASHFU` area in cell units.
    pub hashfu_area: f64,
    /// Minimum period with this unit at 16 entries (ns).
    pub period_ns: f64,
    /// Silent corruptions under the adversarial column-pair model.
    pub silent_column_pairs: usize,
    /// Campaign size.
    pub runs: usize,
}

/// Ablation A2: hash strength vs hardware cost.
pub fn ablation_hash(runs: usize) -> Vec<HashRow> {
    let a = artifact("sha");
    let (lo, hi) = a.image().text_range();
    let targets: Vec<u32> = (lo..hi).step_by(4).collect();
    let model = AreaModel::calibrated();
    HashAlgoKind::ALL
        .into_iter()
        .map(|algo| {
            let fht = a.fht(algo, 0x5eed).expect("analyses");
            let cic = CicConfig {
                iht_entries: 16,
                hash_algo: algo,
                hash_seed: 0x5eed,
            };
            let campaign = Campaign::new(a.image().clone(), cic, fht);
            let result = campaign
                .run(&CampaignConfig {
                    runs,
                    seed: 0xbeef,
                    model: FaultModel::SameColumnPair,
                    site: FaultSite::StoredImage,
                    targets: targets.clone(),
                    max_cycles: 5_000_000,
                    max_wall: None,
                })
                .expect("hash-strength campaign");
            HashRow {
                algo,
                hashfu_area: cimon_area::hashfu_area(model.library(), algo),
                period_ns: model.timing_row(16, algo).period_ns,
                silent_column_pairs: result.silent,
                runs,
            }
        })
        .collect()
}

/// One managed-scheme comparison row (ablation A3).
#[derive(Clone, Debug)]
pub struct ManagedRow {
    /// Workload name.
    pub workload: String,
    /// Text size in bytes (original).
    pub text_bytes: u64,
    /// OS-managed: extra cycles (miss exceptions, CIC8).
    pub os_managed_cycles: u64,
    /// OS-managed: code growth (always zero — the point of the scheme).
    pub os_code_growth_bytes: u64,
    /// App-managed: extra cycles (hash loads on every block execution).
    pub app_managed_cycles: u64,
    /// App-managed: code growth in bytes.
    pub app_code_growth_bytes: u64,
    /// App-managed: code growth percent.
    pub app_code_growth_percent: f64,
}

/// Ablation A3: the paper's Section 3.3 argument, quantified.
pub fn ablation_managed() -> Vec<ManagedRow> {
    let mut sweep = Sweep::new();
    for a in suite() {
        sweep.baseline(a.clone());
        sweep.monitored(a.clone(), SimConfig::with_entries(8));
    }
    let raw = run_clean(&sweep);
    let executions = parallel_map(suite(), default_workers(), |_, a| {
        trace_fht(a.image(), HashAlgoKind::Xor, 0, 400_000_000).2
    });
    suite()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let base = &raw[2 * i];
            let m8 = &raw[2 * i + 1];
            let text_bytes = a.image().text.bytes.len() as u64;
            let app = cimon_os::appmanaged::price(m8.fht_entries as u64, text_bytes, executions[i]);
            ManagedRow {
                workload: base.workload.clone(),
                text_bytes,
                os_managed_cycles: m8.cycles - base.cycles,
                os_code_growth_bytes: 0,
                app_managed_cycles: app.extra_cycles,
                app_code_growth_bytes: app.code_growth_bytes,
                app_code_growth_percent: app.code_growth_percent,
            }
        })
        .collect()
}

/// One simulator-throughput measurement: how fast the simulator itself
/// retires instructions for a workload, in one execution mode.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputRow {
    /// Workload name.
    pub workload: String,
    /// `"baseline"` / `"cic8"` (block dispatch, the default
    /// configuration), `"baseline-instr"` / `"cic8-instr"`
    /// (per-instruction stepping), or
    /// `"baseline-nochain"` / `"cic8-nochain"` (block dispatch with
    /// superblock chaining disabled).
    pub mode: &'static str,
    /// Instructions committed per run.
    pub instructions: u64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// Best wall-clock seconds over the measured repetitions.
    pub best_seconds: f64,
    /// Millions of simulated instructions per wall-clock second.
    pub mips: f64,
    /// Mean instructions per dispatched block (0 for `-instr` modes).
    pub block_mean: f64,
    /// Largest dispatched block in instructions (0 for `-instr` modes).
    pub block_max: u64,
}

/// The simulator-throughput sweep: wall-clock speed of the cycle loop
/// itself, which bounds every experiment grid in this repo.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Six rows per workload (baseline, baseline-instr,
    /// baseline-nochain, cic8, cic8-instr, cic8-nochain), registry
    /// order.
    pub rows: Vec<ThroughputRow>,
    /// Aggregate baseline MIPS with block dispatch (total instructions
    /// / total best time).
    pub baseline_mips: f64,
    /// Aggregate monitored MIPS with block dispatch.
    pub monitored_mips: f64,
    /// Aggregate baseline MIPS with per-instruction stepping.
    pub baseline_instr_mips: f64,
    /// Aggregate monitored MIPS with per-instruction stepping.
    pub monitored_instr_mips: f64,
    /// Aggregate baseline MIPS with block dispatch but chaining off.
    pub baseline_nochain_mips: f64,
    /// Aggregate monitored MIPS with block dispatch but chaining off.
    pub monitored_nochain_mips: f64,
}

/// Measure simulator throughput across the workload registry: each
/// workload runs `reps` times per mode — baseline and CIC8, each with
/// block dispatch on (the default), off, and on-but-unchained — and the
/// best wall time of each counts (assembly, FHT generation,
/// predecoding, and block grouping are outside the timed region — this
/// measures the cycle loop, nothing else). The mode triples sit side by
/// side in the rows so the block-dispatch and superblock-chaining
/// speedups are visible in the artifact without re-running the bench
/// under `CIMON_BLOCK_CHAIN=off`.
pub fn sim_throughput(reps: usize) -> Throughput {
    use cimon_pipeline::{BlockExec, Predecode, Processor, ProcessorConfig};
    use std::time::Instant;

    let reps = reps.max(1);
    let mut rows = Vec::with_capacity(suite().len() * 6);
    for a in suite() {
        let fht = a.fht(HashAlgoKind::Xor, 0).expect("analyses");
        let predecoded = a.predecoded();
        let blocks = a.block_cache();
        for mode in [
            "baseline",
            "baseline-instr",
            "baseline-nochain",
            "cic8",
            "cic8-instr",
            "cic8-nochain",
        ] {
            let config = || {
                let mut c = if mode.starts_with("baseline") {
                    ProcessorConfig::baseline()
                } else {
                    ProcessorConfig::monitored(CicConfig::with_entries(8), fht.clone())
                };
                c.predecode = Predecode::Shared(predecoded.clone());
                c.block_exec = if mode.ends_with("-instr") {
                    BlockExec::Off
                } else {
                    BlockExec::Shared(blocks.clone())
                };
                c.block_chain = !mode.ends_with("-nochain");
                c
            };
            let mut best = f64::INFINITY;
            let mut instructions = 0;
            let mut cycles = 0;
            let mut block_mean = 0.0;
            let mut block_max = 0;
            for _ in 0..reps {
                let mut cpu = Processor::new(a.image(), config());
                let t0 = Instant::now();
                let outcome = cpu.run();
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(
                    outcome,
                    cimon_pipeline::RunOutcome::Exited {
                        code: a.expected_exit().expect("registry workload")
                    },
                    "{} {mode}",
                    a.name()
                );
                let stats = cpu.stats();
                instructions = stats.instructions;
                cycles = stats.cycles;
                let block = cpu.block_stats();
                block_mean = block.mean_block();
                block_max = block.max_block;
                if dt < best {
                    best = dt;
                }
            }
            rows.push(ThroughputRow {
                workload: a.name().to_string(),
                mode,
                instructions,
                cycles,
                best_seconds: best,
                mips: instructions as f64 / best / 1e6,
                block_mean,
                block_max,
            });
        }
    }
    let agg = |mode: &str| {
        let (i, t) = rows
            .iter()
            .filter(|r| r.mode == mode)
            .fold((0u64, 0.0), |(i, t), r| {
                (i + r.instructions, t + r.best_seconds)
            });
        i as f64 / t / 1e6
    };
    Throughput {
        baseline_mips: agg("baseline"),
        monitored_mips: agg("cic8"),
        baseline_instr_mips: agg("baseline-instr"),
        monitored_instr_mips: agg("cic8-instr"),
        baseline_nochain_mips: agg("baseline-nochain"),
        monitored_nochain_mips: agg("cic8-nochain"),
        rows,
    }
}

/// One row of the throughput regression gate's before/after table.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Workload name.
    pub workload: String,
    /// Execution mode.
    pub mode: String,
    /// MIPS in the committed reference.
    pub reference_mips: f64,
    /// MIPS in the current measurement (`None` when the row vanished).
    pub current_mips: Option<f64>,
    /// `current / reference` (0 when the row vanished).
    pub ratio: f64,
    /// Whether this row violates the tolerance.
    pub violation: bool,
}

/// The throughput regression gate's verdict.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// One row per reference row, reference order.
    pub rows: Vec<GateRow>,
    /// The tolerance applied (fractional slowdown, e.g. 0.25).
    pub tolerance: f64,
    /// The machine-speed scale the rows were normalised by: the median
    /// `current / reference` ratio, capped at 1. On hardware comparable
    /// to where the reference was measured this is ~1 (pure absolute
    /// comparison); on a uniformly slower machine it rescales every
    /// row, so only rows that regressed *relative to the rest* fail.
    pub machine_scale: f64,
    /// Rows that slowed down beyond the tolerance or vanished.
    pub violations: usize,
}

impl GateReport {
    /// Whether the gate passes. An empty reference is a failure: a
    /// gate with nothing to compare against guards nothing.
    pub fn passed(&self) -> bool {
        self.violations == 0 && !self.rows.is_empty()
    }
}

/// Compare a current throughput measurement against the committed
/// reference: every reference row must still exist and must not be
/// slower than `(1 - tolerance) ×` its reference MIPS after dividing
/// out the machine-speed scale (the median ratio, capped at 1 — so a
/// uniformly slower CI machine does not trip every row, while a mode
/// or workload that regressed relative to the others still fails, and
/// on comparable hardware the comparison is absolute). Speedups and
/// newly added rows never fail the gate; an empty reference fails it.
pub fn throughput_gate(
    reference: &[ThroughputRow],
    current: &[ThroughputRow],
    tolerance: f64,
) -> GateReport {
    let find = |r: &ThroughputRow| {
        current
            .iter()
            .find(|c| c.workload == r.workload && c.mode == r.mode)
    };
    let mut ratios: Vec<f64> = reference
        .iter()
        .filter_map(|r| find(r).map(|c| if r.mips > 0.0 { c.mips / r.mips } else { 1.0 }))
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    // A non-positive median means at least half the measurement is
    // broken (0 MIPS rows): fall back to the absolute comparison so
    // those rows fail instead of dividing the gate by zero.
    let machine_scale = match ratios.get(ratios.len() / 2) {
        Some(&m) if m > 0.0 => m.min(1.0),
        _ => 1.0,
    };

    let mut rows = Vec::with_capacity(reference.len());
    let mut violations = 0;
    for r in reference {
        let cur = find(r);
        let current_mips = cur.map(|c| c.mips);
        let ratio = current_mips.map_or(0.0, |m| if r.mips > 0.0 { m / r.mips } else { 1.0 });
        let violation = cur.is_none() || ratio / machine_scale < 1.0 - tolerance;
        if violation {
            violations += 1;
        }
        rows.push(GateRow {
            workload: r.workload.clone(),
            mode: r.mode.to_string(),
            reference_mips: r.mips,
            current_mips,
            ratio,
            violation,
        });
    }
    GateReport {
        rows,
        tolerance,
        machine_scale,
        violations,
    }
}

/// Markdown-ish fixed-width table printer shared by the bench targets.
pub fn print_rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The drivers run the full suite; keep test-scale smoke checks only.

    #[test]
    fn table2_shapes() {
        let (areas, timings) = table2();
        assert_eq!(areas.len(), 5);
        assert_eq!(areas[0].overhead_percent, 0.0);
        assert!(areas[2].overhead_percent > areas[1].overhead_percent);
        assert!(timings.iter().all(|t| t.overhead_percent == 0.0));
    }

    #[test]
    fn fault_analysis_smoke() {
        let rows = fault_analysis("bitcount", 6);
        assert_eq!(rows.len(), 4 * 3);
        for r in &rows {
            assert_eq!(r.result.total(), 6, "{:?}", r);
            if r.model == "single-bit" {
                assert_eq!(r.result.silent, 0, "{:?}", r);
            }
        }
    }

    #[test]
    fn ablation_hash_smoke() {
        let rows = ablation_hash(4);
        assert_eq!(rows.len(), HashAlgoKind::ALL.len());
        // XOR is the cheapest unit; SHA-1 the largest.
        assert!(rows[0].hashfu_area < rows.last().unwrap().hashfu_area);
    }

    fn gate_row(workload: &str, mode: &'static str, mips: f64) -> ThroughputRow {
        ThroughputRow {
            workload: workload.to_string(),
            mode,
            instructions: 1,
            cycles: 1,
            best_seconds: 1.0,
            mips,
            block_mean: 0.0,
            block_max: 0,
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_on_speedups() {
        let reference = vec![
            gate_row("sha", "baseline", 60.0),
            gate_row("sha", "cic8", 40.0),
        ];
        let current = vec![
            gate_row("sha", "baseline", 50.0), // −17%: inside ±25%
            gate_row("sha", "cic8", 80.0),     // speedup: always fine
            gate_row("new", "baseline", 1.0),  // extra rows never fail
        ];
        let report = throughput_gate(&reference, &current, 0.25);
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.rows.len(), 2);
        assert!((report.rows[0].ratio - 50.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn gate_fails_on_slowdown_beyond_tolerance_and_missing_rows() {
        let reference = vec![
            gate_row("sha", "baseline", 60.0),
            gate_row("sha", "cic8", 40.0),
            gate_row("susan", "baseline", 30.0),
        ];
        let current = vec![
            gate_row("sha", "baseline", 40.0), // −33%: violation
            gate_row("sha", "cic8", 39.0),     // −2.5%: fine
        ];
        let report = throughput_gate(&reference, &current, 0.25);
        assert!(!report.passed());
        assert_eq!(report.violations, 2); // the slowdown + the vanished row
        assert!(report.rows[0].violation);
        assert!(!report.rows[1].violation);
        assert!(report.rows[2].violation);
        assert_eq!(report.rows[2].current_mips, None);
    }

    #[test]
    fn gate_normalises_out_a_uniformly_slower_machine() {
        // Everything at 50% of reference (a slower CI runner): median
        // rescales, no violations. One row additionally 3x worse than
        // the rest: still caught.
        let reference = vec![
            gate_row("sha", "baseline", 60.0),
            gate_row("sha", "cic8", 40.0),
            gate_row("susan", "baseline", 30.0),
        ];
        let uniform = vec![
            gate_row("sha", "baseline", 30.0),
            gate_row("sha", "cic8", 20.0),
            gate_row("susan", "baseline", 15.0),
        ];
        let report = throughput_gate(&reference, &uniform, 0.25);
        assert!(report.passed(), "{report:?}");
        assert!((report.machine_scale - 0.5).abs() < 1e-9);

        let skewed = vec![
            gate_row("sha", "baseline", 30.0),
            gate_row("sha", "cic8", 20.0),
            gate_row("susan", "baseline", 5.0), // 3x below the fleet
        ];
        let report = throughput_gate(&reference, &skewed, 0.25);
        assert!(!report.passed());
        assert!(report.rows[2].violation);
        assert!(!report.rows[0].violation);
    }

    #[test]
    fn gate_fails_on_an_empty_reference() {
        let current = vec![gate_row("sha", "baseline", 60.0)];
        let report = throughput_gate(&[], &current, 0.25);
        assert!(!report.passed(), "an empty reference guards nothing");
        assert_eq!(report.violations, 0);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn gate_fails_when_the_measurement_collapses_to_zero() {
        // A broken sim_throughput recording 0 MIPS must never be
        // normalised into a pass (a zero median would otherwise make
        // every normalised ratio NaN/inf).
        let reference = vec![
            gate_row("sha", "baseline", 60.0),
            gate_row("sha", "cic8", 40.0),
        ];
        let broken = vec![
            gate_row("sha", "baseline", 0.0),
            gate_row("sha", "cic8", 0.0),
        ];
        let report = throughput_gate(&reference, &broken, 0.25);
        assert!(!report.passed(), "{report:?}");
        assert_eq!(report.violations, 2);
        assert_eq!(report.machine_scale, 1.0);
    }

    #[test]
    fn paper_grid_shape() {
        let grid = paper_grid();
        assert_eq!(grid.len(), 9 * FIG6_SIZES.len() * GRID_ALGOS.len());
        // Workload-major, then algo, then size — the figure order.
        let exps = grid.experiments();
        assert!(exps.iter().all(|e| e.monitored));
        assert_eq!(exps[0].config.iht_entries, FIG6_SIZES[0]);
        assert_eq!(exps[1].config.iht_entries, FIG6_SIZES[1]);
        assert_eq!(exps[0].artifact.name(), exps[7].artifact.name());
        assert_ne!(exps[0].artifact.name(), exps[8].artifact.name());
    }
}
