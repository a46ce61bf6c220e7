//! Monte-Carlo fault campaigns with detection classification.
//!
//! Campaigns execute on the experiment engine's worker pool
//! ([`cimon_sim::engine::parallel_map_isolated`]): fault plans are
//! drawn serially from one seeded RNG stream — so a campaign's plan
//! sequence is identical to the historical serial loop — and the
//! (independent) faulted runs then execute in parallel with
//! deterministic result ordering. Each run is panic-isolated: a worker
//! that dies takes only its own plan with it, counted in
//! [`CampaignResult::quarantined`]. Runs stopped by the wall-clock
//! watchdog ([`CampaignConfig::max_wall`]) are retried once from their
//! checkpoint and quarantined if they time out again.
//!
//! # Checkpoint-restart
//!
//! Every faulted run shares the same clean prefix: until the first
//! cycle that *touches* a flipped word (fetches it, or hashes it as
//! part of an executed block), the faulted execution is byte-identical
//! to the clean reference. [`Campaign::new`] therefore snapshots the
//! reference run at instruction-count intervals and records, per
//! window, the text ranges the clean run touched. A faulted run then
//! restores the last snapshot *before* its flips can first take effect
//! and replays only the tail — and a flip in code the clean run never
//! touches is classified without simulating at all. The cycles not
//! re-simulated accumulate in [`CampaignResult::saved_cycles`].
//!
//! Soundness relies on text being accessed only through instruction
//! fetch (and the monitor's block hashes): a program that *writes* its
//! own text is detected via the memory generation counter and disables
//! the fast path, while reading text as data is assumed not to happen
//! (true for every workload in the registry — campaign targets are
//! executable code, which the paper's threat model also confines
//! itself to).
//!
//! # Disk-spilled reference snapshots
//!
//! [`Campaign::new_with_spill`] with [`SpillMode::Disk`] streams the
//! reference snapshots into a CRC-framed scratch segment
//! ([`cimon_sim::ckpt`]) instead of holding them in RAM, so long
//! reference runs checkpoint in bounded memory. Every restore
//! re-verifies the frame CRC; a quarantined or rotten frame degrades
//! that one faulted run to a from-scratch execution — classifications
//! never change, only `saved_cycles` shrinks. A store-level I/O
//! failure during construction drops checkpointing entirely (every
//! run from scratch), exactly like a non-exiting reference.

use std::sync::Arc;
use std::time::Duration;

use cimon_core::{CicConfig, SimError};
use cimon_mem::{Memory, ProgramImage};
use cimon_os::FullHashTable;
use cimon_pipeline::{
    BlockCache, BlockExec, ConsoleEvent, Predecode, PredecodedImage, Processor, ProcessorConfig,
    ProcessorSnapshot, RunOutcome,
};
use cimon_sim::engine::{default_workers, parallel_map_isolated};
use cimon_sim::{chaos, ckpt, SpillMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{BitFlip, FaultPlan, FaultSite, PlannedBusTap};
use crate::rehash::rehash_after;

/// Random fault model: how many bits flip, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// One bit in one word — the paper's baseline assumption
    /// ("a single bit flip in a basic block", Section 3.4).
    SingleBit,
    /// `n` independent uniform flips (may touch different words).
    MultiBit {
        /// Number of flips.
        n: usize,
    },
    /// Two flips in the *same bit column* of two different words — the
    /// adversarial worst case for the XOR checksum, which it provably
    /// cannot see.
    SameColumnPair,
}

impl FaultModel {
    /// Generate a set of flips over the `targets` address pool.
    fn generate(&self, rng: &mut StdRng, targets: &[u32]) -> Vec<BitFlip> {
        let pick_addr = |rng: &mut StdRng| targets[rng.gen_range(0..targets.len())];
        match self {
            FaultModel::SingleBit => {
                vec![BitFlip::new(pick_addr(rng), rng.gen_range(0..32))]
            }
            FaultModel::MultiBit { n } => {
                let mut flips = Vec::with_capacity(*n);
                while flips.len() < *n {
                    let f = BitFlip::new(pick_addr(rng), rng.gen_range(0..32));
                    if !flips.contains(&f) {
                        flips.push(f);
                    }
                }
                flips
            }
            FaultModel::SameColumnPair => {
                let bit = rng.gen_range(0..32);
                let a = pick_addr(rng);
                let mut b = pick_addr(rng);
                let mut guard = 0;
                while b == a && guard < 1000 {
                    b = pick_addr(rng);
                    guard += 1;
                }
                vec![BitFlip::new(a, bit), BitFlip::new(b, bit)]
            }
        }
    }
}

/// How one faulted run ended, relative to the clean reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The integrity monitor raised a fatal exception (hash mismatch or
    /// unknown block).
    DetectedByMonitor,
    /// The baseline micro-architecture caught it first (illegal opcode,
    /// alignment fault, bad syscall — Section 6.3's "some errors can be
    /// detected by baseline microarchitecture itself").
    DetectedByBaseline,
    /// The program finished with a result identical to the clean run —
    /// the fault was architecturally masked (e.g. flipped a don't-care
    /// field, or the corrupted path never executed).
    Masked,
    /// The program finished but produced a different result: an
    /// undetected integrity violation. For the plain XOR checksum this
    /// is exactly the cancellation case.
    SilentCorruption,
    /// The program neither finished nor tripped a check within the cycle
    /// budget.
    Hung,
    /// The run could not be classified: its worker panicked, or the
    /// wall-clock watchdog stopped it twice in a row. Quarantined runs
    /// are counted but never contribute to coverage — the campaign
    /// degrades instead of hanging or crashing.
    Quarantined,
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of faulted runs.
    pub runs: usize,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
    /// Fault model.
    pub model: FaultModel,
    /// Injection site.
    pub site: FaultSite,
    /// Word addresses eligible for flips (e.g. the executed text
    /// region; the paper notes only executed code is checkable).
    pub targets: Vec<u32>,
    /// Cycle budget per faulted run.
    pub max_cycles: u64,
    /// Wall-clock watchdog per faulted run (`None` disables it). A run
    /// the watchdog stops is retried once from its checkpoint, then
    /// quarantined ([`CampaignResult::quarantined`]) — one pathological
    /// plan can no longer stall a whole campaign.
    pub max_wall: Option<Duration>,
}

/// Aggregated campaign counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Runs ending in monitor detection.
    pub detected_monitor: usize,
    /// Runs ending in baseline-fault detection.
    pub detected_baseline: usize,
    /// Architecturally masked runs.
    pub masked: usize,
    /// Undetected corruptions.
    pub silent: usize,
    /// Hung runs.
    pub hung: usize,
    /// Runs that could not be classified: worker panic, or stopped by
    /// the wall-clock watchdog twice (once from scratch, once on the
    /// checkpoint retry).
    pub quarantined: usize,
    /// Cycles the checkpoint-restart path did not have to re-simulate:
    /// clean prefixes reused from the reference run's snapshots, plus
    /// whole runs classified from the reference alone (flips in code
    /// the clean run never touches). Zero when checkpointing is
    /// unavailable (non-exiting reference, or self-modifying text).
    pub saved_cycles: u64,
}

impl CampaignResult {
    /// Total runs (quarantined ones included).
    pub fn total(&self) -> usize {
        self.detected_monitor
            + self.detected_baseline
            + self.masked
            + self.silent
            + self.hung
            + self.quarantined
    }

    /// Detection coverage over *effective* faults: detected / (total −
    /// masked − quarantined). Masked faults changed nothing observable,
    /// so no monitor could or should flag them; quarantined runs were
    /// never classified, so they can neither prove nor disprove
    /// coverage.
    pub fn coverage_percent(&self) -> f64 {
        let effective = self.total() - self.masked - self.quarantined;
        if effective == 0 {
            100.0
        } else {
            100.0 * (self.detected_monitor + self.detected_baseline) as f64 / effective as f64
        }
    }

    /// Silent-corruption rate over all runs.
    pub fn silent_percent(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.silent as f64 / self.total() as f64
        }
    }

    /// Fold another result's counts into this one. Merging the results
    /// of [`Campaign::run_range`] over a partition of `0..runs` yields
    /// exactly the full [`Campaign::run`] result — the serve layer
    /// leans on this to journal long campaigns chunk by chunk and
    /// resume after a crash without re-running finished chunks.
    pub fn merge(&mut self, other: &CampaignResult) {
        self.detected_monitor += other.detected_monitor;
        self.detected_baseline += other.detected_baseline;
        self.masked += other.masked;
        self.silent += other.silent;
        self.hung += other.hung;
        self.quarantined += other.quarantined;
        self.saved_cycles += other.saved_cycles;
    }

    /// Tally one classified outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::DetectedByMonitor => self.detected_monitor += 1,
            Outcome::DetectedByBaseline => self.detected_baseline += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::SilentCorruption => self.silent += 1,
            Outcome::Hung => self.hung += 1,
            Outcome::Quarantined => self.quarantined += 1,
        }
    }
}

/// Reference-run checkpoints for campaign fast-forwarding: snapshots
/// at instruction-count intervals, plus the text ranges the clean run
/// touched within each inter-snapshot window (fetched *or* hashed —
/// block events cover every word of an executed block, which is
/// exactly the set the monitor reads).
struct Checkpoints {
    store: SnapStore,
    /// Clean-run cycle count at each snapshot.
    snap_cycles: Vec<u64>,
    /// Per window (`snaps.len() + 1` of them), sorted disjoint
    /// `[lo, hi]` inclusive word ranges touched in that window. A block
    /// in flight at a snapshot is attributed to the window *before* the
    /// cut (its first words were fetched there), so a flip's window is
    /// conservative: restart at or before the true first touch.
    touched: Vec<Vec<(u32, u32)>>,
    /// Total cycles of the clean reference run.
    reference_cycles: u64,
}

/// Where the reference snapshots live.
enum SnapStore {
    /// In-RAM snapshots (the historical store).
    Ram(Vec<ProcessorSnapshot>),
    /// Snapshots spilled to a CRC-framed scratch segment; per snapshot
    /// position, its good frame — `None` when the scan quarantined it.
    Disk {
        seg: ckpt::ScratchSegment,
        frames: Vec<Option<ckpt::FrameInfo>>,
    },
}

impl SnapStore {
    /// Restore snapshot `i` into `cpu`. `false` means the snapshot is
    /// unavailable (quarantined frame, segment rot, or a restore
    /// failure) and the caller must degrade to a from-scratch run.
    fn restore(&self, cpu: &mut Processor, i: usize) -> bool {
        match self {
            SnapStore::Ram(snaps) => cpu.restore(&snaps[i]).is_ok(),
            SnapStore::Disk { seg, frames } => {
                let Some(Some(frame)) = frames.get(i) else {
                    return false;
                };
                let Ok(mut reader) = ckpt::SegmentReader::open(seg.path()) else {
                    return false;
                };
                let Ok(Some(bytes)) = reader.read_frame(frame) else {
                    return false;
                };
                let Ok(snap) = ProcessorSnapshot::from_bytes(&bytes) else {
                    return false;
                };
                cpu.restore(&snap).is_ok()
            }
        }
    }

    /// (spilled, quarantined) frame counts — `(0, 0)` for the RAM store.
    fn spill_stats(&self) -> (usize, usize) {
        match self {
            SnapStore::Ram(_) => (0, 0),
            SnapStore::Disk { frames, .. } => {
                (frames.len(), frames.iter().filter(|f| f.is_none()).count())
            }
        }
    }
}

impl Checkpoints {
    /// Earliest window whose touched set contains `addr`.
    fn window_of(&self, addr: u32) -> Option<usize> {
        self.touched.iter().position(|ranges| {
            ranges
                .binary_search_by(|&(lo, hi)| {
                    if hi < addr {
                        std::cmp::Ordering::Less
                    } else if lo > addr {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok()
        })
    }

    /// Earliest window in which any of the plan's flips can first take
    /// effect; `None` when the clean run never touches any flipped word.
    fn plan_window(&self, plan: &FaultPlan) -> Option<usize> {
        plan.flips
            .iter()
            .filter_map(|f| self.window_of(f.addr))
            .min()
    }
}

/// Merge raw block ranges into sorted disjoint inclusive intervals.
fn merge_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(4) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// A configured fault campaign over one program.
///
/// The image is predecoded and block-grouped once at construction;
/// every faulted run shares those caches, so a campaign's thousands of
/// short runs skip the per-run decode and grouping passes (tampered
/// words are word-validated at dispatch time, so sharing can never mask
/// an injected fault). Construction also snapshots the clean reference
/// run so [`Campaign::run`] can restart faulted runs just before their
/// flips first take effect (see the module docs).
pub struct Campaign {
    image: Arc<ProgramImage>,
    cic: CicConfig,
    fht: Arc<FullHashTable>,
    predecoded: Arc<PredecodedImage>,
    blocks: Arc<BlockCache>,
    /// The clean loaded image, shared by every authorised-patch run
    /// (`rehash_after` applies flip masks on the fly, so no per-run
    /// patched copy is ever materialised).
    clean_mem: Memory,
    reference: (RunOutcome, Vec<ConsoleEvent>),
    /// Where reference snapshots are kept (RAM or a scratch segment).
    spill: SpillMode,
    /// Clean-run snapshots and touch map; `None` when the reference did
    /// not exit cleanly, the program writes its own text, or a disk
    /// spill hit a store-level I/O failure.
    checkpoints: Option<Checkpoints>,
}

impl Campaign {
    /// Prepare a campaign: runs the program once cleanly (monitored) to
    /// capture the reference result. Reference snapshots stay in RAM;
    /// use [`Campaign::new_with_spill`] to stream them to disk.
    pub fn new(
        image: impl Into<Arc<ProgramImage>>,
        cic: CicConfig,
        fht: impl Into<Arc<FullHashTable>>,
    ) -> Campaign {
        Campaign::new_with_spill(image, cic, fht, SpillMode::Ram)
    }

    /// [`Campaign::new`] with an explicit checkpoint store. With
    /// [`SpillMode::Disk`] the reference snapshots are streamed into a
    /// CRC-framed scratch segment (module docs) so campaign RAM stays
    /// bounded regardless of reference-run length.
    pub fn new_with_spill(
        image: impl Into<Arc<ProgramImage>>,
        cic: CicConfig,
        fht: impl Into<Arc<FullHashTable>>,
        spill: SpillMode,
    ) -> Campaign {
        let image = image.into();
        let fht = fht.into();
        let predecoded = Arc::new(PredecodedImage::new(&image));
        let blocks = Arc::new(BlockCache::new(predecoded.clone()));
        let clean_mem = image.to_memory();
        let mut campaign = Campaign {
            image,
            cic,
            fht,
            predecoded,
            blocks,
            clean_mem,
            reference: (RunOutcome::MaxCycles, Vec::new()),
            spill,
            checkpoints: None,
        };
        let mut cpu = campaign.processor(&campaign.fht, ProcessorConfig::baseline().max_cycles);
        let outcome = cpu.run();
        let stats = cpu.stats();
        campaign.reference = (outcome, stats.console);
        if matches!(outcome, RunOutcome::Exited { .. }) {
            campaign.checkpoints = campaign.build_checkpoints(stats.instructions);
        }
        campaign
    }

    /// A monitored processor over the campaign's shared caches.
    fn processor(&self, fht: &Arc<FullHashTable>, max_cycles: u64) -> Processor {
        self.processor_with(fht, max_cycles, None, false)
    }

    fn processor_with(
        &self,
        fht: &Arc<FullHashTable>,
        max_cycles: u64,
        max_wall: Option<Duration>,
        record_blocks: bool,
    ) -> Processor {
        Processor::new(
            &self.image,
            ProcessorConfig {
                max_cycles,
                max_wall,
                record_blocks,
                predecode: Predecode::Shared(self.predecoded.clone()),
                block_exec: BlockExec::Shared(self.blocks.clone()),
                ..ProcessorConfig::monitored(self.cic, fht.clone())
            },
        )
    }

    /// Re-run the clean reference with block recording, snapshotting
    /// every `instructions / 8` retired instructions, and derive the
    /// per-window touch map. Returns `None` when the program writes its
    /// own text (a pre-applied flip could be overwritten before its
    /// first fetch, so prefix reuse would be unsound), or when a disk
    /// spill hits a store-level I/O failure (scratch runs are always
    /// sound).
    fn build_checkpoints(&self, instructions: u64) -> Option<Checkpoints> {
        const WINDOWS: u64 = 8;
        let interval = (instructions / WINDOWS).max(1);
        let mut cpu = self.processor_with(
            &self.fht,
            ProcessorConfig::baseline().max_cycles,
            None,
            true,
        );
        let text_stores = cpu.mem().dense_stores();
        let disk = self.spill == SpillMode::Disk;
        let mut seg = None;
        let mut writer = None;
        if disk {
            let scratch = ckpt::ScratchSegment::new("campaign");
            writer = Some(ckpt::SegmentWriter::create(scratch.path()).ok()?);
            seg = Some(scratch);
        }
        let mut count = 0usize;
        let mut snaps = Vec::new();
        let mut snap_cycles = Vec::new();
        let mut block_cuts = Vec::new();
        loop {
            let target = (count as u64 + 1) * interval;
            match cpu.run_to_instret(target) {
                Some(_) => break,
                None => {
                    let s = cpu.snapshot();
                    snap_cycles.push(cpu.stats().cycles);
                    block_cuts.push(s.blocks().len());
                    count += 1;
                    if let Some(w) = writer.as_mut() {
                        // Spill and drop: disk mode never holds more
                        // than one snapshot in RAM.
                        w.append(&s.to_bytes()).ok()?;
                    } else {
                        snaps.push(s);
                    }
                }
            }
        }
        if cpu.mem().dense_stores() != text_stores {
            return None;
        }
        let reference_cycles = cpu.stats().cycles;
        let events = cpu.blocks();
        let mut cuts = block_cuts;
        cuts.push(events.len());
        let mut touched = Vec::with_capacity(cuts.len());
        let mut prev = 0;
        for &end in &cuts {
            let mut ranges: Vec<(u32, u32)> = events[prev..end]
                .iter()
                .map(|e| (e.key.start, e.key.end))
                .collect();
            // The block in flight at the cut completes (and is logged)
            // in the next window, but its first words were already
            // fetched in this one: attribute it here as well.
            if let Some(e) = events.get(end) {
                ranges.push((e.key.start, e.key.end));
            }
            touched.push(merge_ranges(ranges));
            prev = end;
        }
        let store = if disk {
            // The writer applied any chaos frame damage on the way in;
            // the scan screens it out here, and per-frame CRCs are
            // re-verified again at every restore.
            writer?.finish().ok()?;
            let seg = seg?;
            let index = ckpt::scan(seg.path()).ok()?;
            let mut frames = vec![None; count];
            for f in &index.frames {
                if f.is_good() {
                    if let Some(slot) = frames.get_mut(f.seq as usize) {
                        *slot = Some(*f);
                    }
                }
            }
            SnapStore::Disk { seg, frames }
        } else {
            SnapStore::Ram(snaps)
        };
        Some(Checkpoints {
            store,
            snap_cycles,
            touched,
            reference_cycles,
        })
    }

    /// (spilled, quarantined) reference-snapshot frames in the disk
    /// store — `(0, 0)` for the RAM store or when checkpointing is off.
    pub fn spill_stats(&self) -> (usize, usize) {
        self.checkpoints
            .as_ref()
            .map(|cp| cp.store.spill_stats())
            .unwrap_or((0, 0))
    }

    /// Test hook: quarantine every spilled frame, as if the whole
    /// segment had rotted on disk after the scan.
    #[cfg(test)]
    fn poison_all_spilled_frames(&mut self) {
        if let Some(Checkpoints {
            store: SnapStore::Disk { frames, .. },
            ..
        }) = &mut self.checkpoints
        {
            frames.iter_mut().for_each(|f| *f = None);
        }
    }

    /// The clean reference outcome.
    pub fn reference_outcome(&self) -> RunOutcome {
        self.reference.0
    }

    /// Run one faulted execution and classify it.
    pub fn run_one(&self, plan: &FaultPlan, max_cycles: u64) -> Outcome {
        self.run_one_walled(plan, max_cycles, None)
    }

    /// [`Campaign::run_one`] with the wall-clock watchdog armed; a run
    /// it stops classifies as [`Outcome::Quarantined`].
    fn run_one_walled(
        &self,
        plan: &FaultPlan,
        max_cycles: u64,
        max_wall: Option<Duration>,
    ) -> Outcome {
        let mut cpu = self.processor_with(&self.fht, max_cycles, max_wall, false);
        match plan.site {
            FaultSite::StoredImage => {
                for f in &plan.flips {
                    f.apply_to_memory(cpu.mem_mut());
                }
            }
            FaultSite::FetchBus(mode) => {
                cpu.set_bus_tap(Box::new(PlannedBusTap::new(plan.flips.clone(), mode)));
            }
        }
        let outcome = cpu.run();
        self.classify(outcome, &cpu.stats().console)
    }

    /// [`Campaign::run_one`] through the checkpoint-restart fast path:
    /// restore the last clean snapshot taken before the plan's flips
    /// can first take effect and replay only the tail. Returns the
    /// classification plus the clean-prefix cycles *not* re-simulated.
    ///
    /// The replayed tail is exact, not approximate: the snapshot
    /// carries the complete run state (timing included), so budget
    /// interrupts, console output, and detection all land on the same
    /// cycle as a from-scratch faulted run.
    fn run_one_restarted(
        &self,
        plan: &FaultPlan,
        max_cycles: u64,
        max_wall: Option<Duration>,
    ) -> (Outcome, u64) {
        let Some(cp) = &self.checkpoints else {
            return (self.run_one_walled(plan, max_cycles, max_wall), 0);
        };
        match cp.plan_window(plan) {
            // The clean run never fetches or hashes any flipped word,
            // so the faulted run is the clean run (module docs): it
            // exits identically within the budget, or hangs on it.
            None if cp.reference_cycles <= max_cycles => (Outcome::Masked, cp.reference_cycles),
            None => (Outcome::Hung, max_cycles),
            Some(0) => (self.run_one_walled(plan, max_cycles, max_wall), 0),
            Some(w) => {
                let saved = cp.snap_cycles[w - 1];
                if saved > max_cycles {
                    // The budget expires inside the clean prefix,
                    // before the flips can activate.
                    return (Outcome::Hung, max_cycles);
                }
                let mut cpu = self.processor_with(&self.fht, max_cycles, max_wall, true);
                if !cp.store.restore(&mut cpu, w - 1) {
                    // A corrupted, quarantined, or rotten checkpoint
                    // must never change the classification: degrade to
                    // a from-scratch run.
                    return (self.run_one_walled(plan, max_cycles, max_wall), 0);
                }
                match plan.site {
                    FaultSite::StoredImage => {
                        for f in &plan.flips {
                            f.apply_to_memory(cpu.mem_mut());
                        }
                    }
                    FaultSite::FetchBus(mode) => {
                        // The tap is fresh, exactly as in a scratch
                        // run: no flip address was fetched before the
                        // restore point, so no one-shot state is lost.
                        cpu.set_bus_tap(Box::new(PlannedBusTap::new(plan.flips.clone(), mode)));
                    }
                }
                let outcome = cpu.run();
                (self.classify(outcome, &cpu.stats().console), saved)
            }
        }
    }

    /// Run one *authorised-patch* execution: apply a stored-image plan,
    /// incrementally re-hash only the touched FHT blocks (the paper's
    /// OS recomputing hashes after a legitimate binary update), and run
    /// against the patched table. The monitor must accept the modified
    /// code — the interesting classifications are what the patch *did*
    /// (masked, different output, hung, baseline fault), not an
    /// integrity kill for blocks whose table entry was updated.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the plan targets the fetch bus —
    /// in-flight transients are not code updates and have no table to
    /// re-hash.
    pub fn run_one_rehashed(&self, plan: &FaultPlan, max_cycles: u64) -> Result<Outcome, SimError> {
        if plan.site != FaultSite::StoredImage {
            return Err(SimError::InvalidConfig {
                message: "re-hash campaigns model stored-image patches".into(),
            });
        }
        Ok(self.rehashed_outcome(plan, max_cycles, None))
    }

    /// [`Campaign::run_one_rehashed`] after site validation.
    fn rehashed_outcome(
        &self,
        plan: &FaultPlan,
        max_cycles: u64,
        max_wall: Option<Duration>,
    ) -> Outcome {
        let (patched_fht, _) = rehash_after(
            &self.fht,
            &self.clean_mem,
            &plan.flips,
            self.cic.hash_algo,
            self.cic.hash_seed,
        );
        let mut cpu = self.processor_with(&Arc::new(patched_fht), max_cycles, max_wall, false);
        for f in &plan.flips {
            f.apply_to_memory(cpu.mem_mut());
        }
        let outcome = cpu.run();
        self.classify(outcome, &cpu.stats().console)
    }

    fn classify(&self, outcome: RunOutcome, console: &[ConsoleEvent]) -> Outcome {
        match outcome {
            RunOutcome::Detected { .. } => Outcome::DetectedByMonitor,
            RunOutcome::Fault(_) => Outcome::DetectedByBaseline,
            RunOutcome::MaxCycles => Outcome::Hung,
            RunOutcome::Watchdog => Outcome::Quarantined,
            RunOutcome::Exited { .. } => {
                if outcome == self.reference.0 && console == self.reference.1 {
                    Outcome::Masked
                } else {
                    Outcome::SilentCorruption
                }
            }
        }
    }

    /// The fault plans a campaign config expands to, drawn serially
    /// from the seeded RNG stream (deterministic given the seed).
    pub fn plans(&self, config: &CampaignConfig) -> Vec<FaultPlan> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        (0..config.runs)
            .map(|_| FaultPlan {
                site: config.site,
                flips: config.model.generate(&mut rng, &config.targets),
            })
            .collect()
    }

    /// Run a full campaign on the engine's worker pool.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty.
    pub fn run(&self, config: &CampaignConfig) -> Result<CampaignResult, SimError> {
        self.run_with_workers(config, default_workers())
    }

    /// Run a full campaign with an explicit worker count (1 = serial).
    /// The result is identical for any worker count: plans are
    /// pre-generated serially and each faulted run is independent.
    ///
    /// Each run goes through checkpoint-restart (module docs): only the
    /// tail from the last clean snapshot before the plan's flips can
    /// activate is re-simulated, and the skipped prefix cycles are
    /// reported in [`CampaignResult::saved_cycles`]. Classifications
    /// are identical to from-scratch runs ([`Campaign::run_one`]).
    ///
    /// Workers are panic-isolated: a plan whose run panics is counted
    /// in [`CampaignResult::quarantined`] and every other plan is
    /// classified normally. Runs the wall-clock watchdog stops are
    /// retried once from their checkpoint before being quarantined.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty.
    pub fn run_with_workers(
        &self,
        config: &CampaignConfig,
        workers: usize,
    ) -> Result<CampaignResult, SimError> {
        self.run_range_with_workers(config, 0..config.runs, workers)
    }

    /// Run a contiguous subrange of the campaign's plans on the worker
    /// pool. Plans are always drawn for the *full* config first (the
    /// RNG stream is positional), so `run_range(cfg, a..b)` classifies
    /// exactly the plans `run(cfg)` would classify at indices `a..b` —
    /// and chaos injections key on the absolute plan index, so merging
    /// the results of a partition of `0..runs` reproduces the full
    /// campaign result byte for byte even under `CIMON_CHAOS=1`. This
    /// is the serve layer's unit of journaling: each chunk is durable
    /// once written, and a restarted server re-runs only the missing
    /// ranges.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty or
    /// the range reaches past `config.runs`.
    pub fn run_range(
        &self,
        config: &CampaignConfig,
        range: std::ops::Range<usize>,
    ) -> Result<CampaignResult, SimError> {
        self.run_range_with_workers(config, range, default_workers())
    }

    /// [`Campaign::run_range`] with an explicit worker count.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty or
    /// the range reaches past `config.runs`.
    pub fn run_range_with_workers(
        &self,
        config: &CampaignConfig,
        range: std::ops::Range<usize>,
        workers: usize,
    ) -> Result<CampaignResult, SimError> {
        if config.targets.is_empty() {
            return Err(SimError::InvalidConfig {
                message: "campaign needs target addresses".into(),
            });
        }
        if range.end > config.runs {
            return Err(SimError::InvalidConfig {
                message: format!(
                    "plan range {}..{} exceeds the campaign's {} runs",
                    range.start, range.end, config.runs
                ),
            });
        }
        let plans = self.plans(config);
        let offset = range.start;
        let outcomes = parallel_map_isolated(&plans[range], workers, "campaign", |i, plan| {
            chaos::maybe_panic("campaign", offset + i);
            let first = self.run_one_restarted(plan, config.max_cycles, config.max_wall);
            if first.0 != Outcome::Quarantined {
                return first;
            }
            // The watchdog fired — maybe a transient stall (scheduler,
            // page cache). Retry once from the checkpoint; quarantine
            // only if the run times out again.
            let retry = self.run_one_restarted(plan, config.max_cycles, config.max_wall);
            if retry.0 != Outcome::Quarantined {
                retry
            } else {
                first
            }
        });
        let mut result = CampaignResult::default();
        for outcome in outcomes {
            match outcome {
                Ok((outcome, saved)) => {
                    result.record(outcome);
                    result.saved_cycles += saved;
                }
                // The worker panicked: the plan is lost but the
                // campaign is not.
                Err(_) => result.quarantined += 1,
            }
        }
        Ok(result)
    }

    /// Run a full *authorised-patch* campaign on the worker pool: the
    /// same seeded plans as [`Campaign::run`], but each run's FHT is
    /// incrementally re-hashed for its flips first (see
    /// [`Campaign::run_one_rehashed`]). Stored-image sites only.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `config.targets` is empty or
    /// the site is not [`FaultSite::StoredImage`].
    pub fn run_rehashed(&self, config: &CampaignConfig) -> Result<CampaignResult, SimError> {
        if config.targets.is_empty() {
            return Err(SimError::InvalidConfig {
                message: "campaign needs target addresses".into(),
            });
        }
        if config.site != FaultSite::StoredImage {
            return Err(SimError::InvalidConfig {
                message: "re-hash campaigns model stored-image patches".into(),
            });
        }
        let plans = self.plans(config);
        let outcomes = parallel_map_isolated(&plans, default_workers(), "campaign-rehash", {
            |i, plan| {
                chaos::maybe_panic("campaign-rehash", i);
                self.rehashed_outcome(plan, config.max_cycles, config.max_wall)
            }
        });
        let mut result = CampaignResult::default();
        for outcome in outcomes {
            match outcome {
                Ok(outcome) => result.record(outcome),
                Err(_) => result.quarantined += 1,
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::BusFaultMode;
    use cimon_asm::assemble;
    use cimon_core::HashAlgoKind;
    use cimon_hashgen::static_fht;

    const PROGRAM: &str = "
        .text
    main:
        li   $t0, 20
        li   $t1, 0
    loop:
        addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bnez $t0, loop
        move $a0, $t1
        li   $v0, 10
        syscall
    ";

    fn setup(algo: HashAlgoKind) -> (Campaign, Vec<u32>) {
        let prog = assemble(PROGRAM).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], algo, 0).unwrap();
        let cic = CicConfig {
            iht_entries: 8,
            hash_algo: algo,
            hash_seed: 0,
        };
        let (lo, hi) = prog.image.text_range();
        let targets: Vec<u32> = (lo..hi).step_by(4).collect();
        (Campaign::new(prog.image, cic, fht), targets)
    }

    #[test]
    fn reference_is_clean() {
        let (c, _) = setup(HashAlgoKind::Xor);
        assert_eq!(c.reference_outcome(), RunOutcome::Exited { code: 210 });
    }

    #[test]
    fn single_bit_faults_are_always_caught_or_masked() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let result = c
            .run(&CampaignConfig {
                runs: 120,
                seed: 42,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        assert_eq!(result.total(), 120);
        // XOR detects every single-bit flip in executed code; flips can
        // still hang the run (corrupted branch targets) but can never be
        // silent.
        assert_eq!(result.silent, 0, "{result:?}");
        assert!(result.detected_monitor > 0);
    }

    #[test]
    fn same_column_pairs_defeat_xor_but_not_crc() {
        let (cx, tx) = setup(HashAlgoKind::Xor);
        let xor = cx
            .run(&CampaignConfig {
                runs: 80,
                seed: 7,
                model: FaultModel::SameColumnPair,
                site: FaultSite::StoredImage,
                targets: tx,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        let (cc, tc) = setup(HashAlgoKind::Crc32);
        let crc = cc
            .run(&CampaignConfig {
                runs: 80,
                seed: 7,
                model: FaultModel::SameColumnPair,
                site: FaultSite::StoredImage,
                targets: tc,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        // CRC-32 never lets a same-column pair through silently.
        assert_eq!(crc.silent, 0, "{crc:?}");
        // XOR coverage cannot exceed CRC coverage on this model.
        assert!(xor.coverage_percent() <= crc.coverage_percent() + 1e-9);
    }

    #[test]
    fn bus_transients_are_detected() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let result = c
            .run(&CampaignConfig {
                runs: 100,
                seed: 3,
                model: FaultModel::SingleBit,
                site: FaultSite::FetchBus(BusFaultMode::OneShot),
                targets,
                max_cycles: 60_000,
                max_wall: None,
            })
            .unwrap();
        assert_eq!(result.silent, 0, "{result:?}");
        assert!(result.detected_monitor + result.detected_baseline > 0);
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 50,
            seed: 99,
            model: FaultModel::MultiBit { n: 3 },
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        assert_eq!(c.run(&cfg).unwrap(), c.run(&cfg).unwrap());
    }

    /// From-scratch oracle: every plan through [`Campaign::run_one`].
    fn scratch_result(c: &Campaign, cfg: &CampaignConfig) -> CampaignResult {
        let mut r = CampaignResult::default();
        for plan in c.plans(cfg) {
            r.record(c.run_one(&plan, cfg.max_cycles));
        }
        r
    }

    #[track_caller]
    fn assert_matches_scratch(c: &Campaign, cfg: &CampaignConfig) -> CampaignResult {
        let restarted = c.run_with_workers(cfg, 2).unwrap();
        let scratch = scratch_result(c, cfg);
        assert_eq!(
            CampaignResult {
                saved_cycles: 0,
                ..restarted
            },
            scratch
        );
        restarted
    }

    #[test]
    fn checkpoint_restart_classifies_exactly_like_scratch_runs() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let mut total_saved = 0;
        for site in [
            FaultSite::StoredImage,
            FaultSite::FetchBus(BusFaultMode::OneShot),
            FaultSite::FetchBus(BusFaultMode::StuckAt),
        ] {
            let r = assert_matches_scratch(
                &c,
                &CampaignConfig {
                    runs: 60,
                    seed: 23,
                    model: FaultModel::SingleBit,
                    site,
                    targets: targets.clone(),
                    max_cycles: 60_000,
                    max_wall: None,
                },
            );
            total_saved += r.saved_cycles;
        }
        // Flips in the exit sequence only activate in the last window,
        // so some plans must have reused a clean prefix.
        assert!(total_saved > 0);
    }

    #[test]
    fn disk_spilled_checkpoints_classify_exactly_like_scratch_runs() {
        let prog = assemble(PROGRAM).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let cic = CicConfig {
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
            hash_seed: 0,
        };
        let (lo, hi) = prog.image.text_range();
        let targets: Vec<u32> = (lo..hi).step_by(4).collect();
        let c = Campaign::new_with_spill(prog.image, cic, fht, SpillMode::Disk);
        let (spilled, quarantined) = c.spill_stats();
        assert!(spilled > 0, "reference snapshots must have spilled");
        if !chaos::enabled() {
            assert_eq!(quarantined, 0);
        }
        let mut total_saved = 0;
        for site in [
            FaultSite::StoredImage,
            FaultSite::FetchBus(BusFaultMode::OneShot),
        ] {
            let r = assert_matches_scratch(
                &c,
                &CampaignConfig {
                    runs: 60,
                    seed: 23,
                    model: FaultModel::SingleBit,
                    site,
                    targets: targets.clone(),
                    max_cycles: 60_000,
                    max_wall: None,
                },
            );
            total_saved += r.saved_cycles;
        }
        assert!(total_saved > 0, "some plans must reuse a spilled prefix");
    }

    #[test]
    fn quarantined_frames_degrade_to_scratch_classifications() {
        // Target only the exit sequence, so every plan lands in the
        // last window and wants a late spilled checkpoint.
        let entry = assemble(PROGRAM).unwrap().image.entry;
        let prog = assemble(PROGRAM).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let cic = CicConfig {
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
            hash_seed: 0,
        };
        let mut c = Campaign::new_with_spill(prog.image, cic, fht, SpillMode::Disk);
        let cfg = CampaignConfig {
            runs: 30,
            seed: 77,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![entry + 20, entry + 24, entry + 28],
            max_cycles: 60_000,
            max_wall: None,
        };
        let clean = c.run_with_workers(&cfg, 2).unwrap();
        // Rot the whole segment: every restore now fails its frame
        // lookup and the run recomputes from scratch — same counts,
        // nothing saved.
        c.poison_all_spilled_frames();
        assert_eq!(c.spill_stats().1, c.spill_stats().0);
        let poisoned = c.run_with_workers(&cfg, 2).unwrap();
        assert_eq!(
            CampaignResult {
                saved_cycles: poisoned.saved_cycles,
                ..clean
            },
            poisoned,
            "quarantine must not change classifications"
        );
        assert_eq!(poisoned.saved_cycles, 0, "{poisoned:?}");
        if !chaos::enabled() {
            assert!(clean.saved_cycles as usize >= cfg.runs, "{clean:?}");
        }
    }

    #[test]
    fn budgets_shorter_than_the_prefix_hang_identically() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        assert_matches_scratch(
            &c,
            &CampaignConfig {
                runs: 40,
                seed: 31,
                model: FaultModel::MultiBit { n: 2 },
                site: FaultSite::StoredImage,
                targets,
                max_cycles: 10,
                max_wall: None,
            },
        );
    }

    #[test]
    fn late_faults_replay_only_the_tail() {
        let (c, _) = setup(HashAlgoKind::Xor);
        // The exit sequence (move / li / syscall) runs once, after the
        // whole loop: its words are first touched in the final window.
        let entry = assemble(PROGRAM).unwrap().image.entry;
        let cfg = CampaignConfig {
            runs: 30,
            seed: 77,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![entry + 20, entry + 24, entry + 28],
            max_cycles: 60_000,
            max_wall: None,
        };
        let r = assert_matches_scratch(&c, &cfg);
        // Every plan lands in the last window, so every run skipped a
        // prefix.
        assert!(
            r.saved_cycles as usize >= cfg.runs,
            "saved {} over {} runs",
            r.saved_cycles,
            cfg.runs
        );
    }

    #[test]
    fn untouched_code_is_classified_without_simulating() {
        let src = "
            .text
        main:
            li $a0, 5
            li $v0, 10
            syscall
        dead:
            addu $t0, $t1, $t2
            xor  $t3, $t4, $t5
            jr $ra
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let dead = prog.symbols.get("dead").unwrap();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        let cfg = CampaignConfig {
            runs: 25,
            seed: 5,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![dead, dead + 4, dead + 8],
            max_cycles: 60_000,
            max_wall: None,
        };
        let r = assert_matches_scratch(&c, &cfg);
        assert_eq!(r.masked, 25, "{r:?}");
        assert!(r.saved_cycles > 0);
    }

    #[test]
    fn self_modifying_text_disables_checkpointing() {
        // The store rewrites identical bytes, so the monitored run stays
        // clean — but any text write means a pre-applied flip could be
        // overwritten before its first fetch, so the campaign must fall
        // back to from-scratch runs.
        let src = "
            .text
        main:
            la   $t8, touch
            lw   $t9, 0($t8)
            sw   $t9, 0($t8)
        touch:
            li   $a0, 5
            li   $v0, 10
            syscall
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let (lo, hi) = prog.image.text_range();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        assert_eq!(c.reference_outcome(), RunOutcome::Exited { code: 5 });
        assert!(c.checkpoints.is_none());
        let r = assert_matches_scratch(
            &c,
            &CampaignConfig {
                runs: 30,
                seed: 13,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets: (lo..hi).step_by(4).collect(),
                max_cycles: 60_000,
                max_wall: None,
            },
        );
        assert_eq!(r.saved_cycles, 0);
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 40,
            seed: 5,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        let serial = c.run_with_workers(&cfg, 1).unwrap();
        let parallel = c.run_with_workers(&cfg, 8).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.total(), 40);
    }

    #[test]
    fn chunked_ranges_merge_to_the_full_campaign() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 40,
            seed: 17,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        let full = c.run_with_workers(&cfg, 2).unwrap();
        // Uneven chunks, including a singleton and an empty range.
        let mut merged = CampaignResult::default();
        for bounds in [0..7, 7..8, 8..8, 8..25, 25..40] {
            merged.merge(&c.run_range_with_workers(&cfg, bounds, 2).unwrap());
        }
        assert_eq!(merged, full);
        assert_eq!(merged.total(), cfg.runs);
        // A range is the same plans the full campaign ran at those
        // indices — not a fresh RNG stream.
        let head = c.run_range_with_workers(&cfg, 0..cfg.runs, 2).unwrap();
        assert_eq!(head, full);
    }

    #[test]
    fn out_of_range_chunks_are_rejected() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 10,
            seed: 1,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 1000,
            max_wall: None,
        };
        let err = c.run_range(&cfg, 5..11).unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = CampaignResult {
            detected_monitor: 1,
            detected_baseline: 2,
            masked: 3,
            silent: 4,
            hung: 5,
            quarantined: 6,
            saved_cycles: 7,
        };
        let mut acc = a;
        acc.merge(&a);
        assert_eq!(
            acc,
            CampaignResult {
                detected_monitor: 2,
                detected_baseline: 4,
                masked: 6,
                silent: 8,
                hung: 10,
                quarantined: 12,
                saved_cycles: 14,
            }
        );
        let mut id = a;
        id.merge(&CampaignResult::default());
        assert_eq!(id, a);
    }

    #[test]
    fn faults_in_dead_code_are_masked() {
        // Program with an unexecuted function; flips there change nothing.
        let src = "
            .text
        main:
            li $a0, 5
            li $v0, 10
            syscall
        dead:
            addu $t0, $t1, $t2
            jr $ra
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let c = Campaign::new(prog.image.clone(), CicConfig::default(), fht);
        let dead_addr = prog.symbols.get("dead").unwrap();
        let out = c.run_one(&FaultPlan::stored(dead_addr, 3), 1_000_000);
        assert_eq!(out, Outcome::Masked);
    }

    #[test]
    fn rehashed_single_bit_patches_are_never_killed_by_the_monitor() {
        // The paper's legitimate-update story: after the OS re-hashes
        // the touched block, a single-bit "patch" must not trip an
        // integrity kill. (It may still change behaviour — silent
        // output changes, hangs, baseline faults — or turn control flow
        // into shapes the static table never enumerated; only flips
        // that keep the instruction a non-control-flow one are
        // guaranteed monitor-clean, so this test targets an ALU
        // immediate field.)
        let (c, _) = setup(HashAlgoKind::Crc32);
        // addu at entry+8: flip a register-field bit (bit 20, inside
        // rt) — still a valid non-control-flow ALU instruction, so
        // only the hash can tell it changed.
        let addr = {
            let prog = assemble(PROGRAM).unwrap();
            prog.image.entry + 8
        };
        let plan = FaultPlan::stored(addr, 20);
        // Unpatched: the monitor detects the tamper.
        assert_eq!(c.run_one(&plan, 60_000), Outcome::DetectedByMonitor);
        // Patched (table re-hashed): no monitor detection.
        let out = c.run_one_rehashed(&plan, 60_000).unwrap();
        assert_ne!(out, Outcome::DetectedByMonitor, "{out:?}");
    }

    #[test]
    fn rehashed_campaign_accepts_more_runs_than_it_kills() {
        let (c, targets) = setup(HashAlgoKind::Xor);
        let cfg = CampaignConfig {
            runs: 60,
            seed: 11,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets,
            max_cycles: 60_000,
            max_wall: None,
        };
        let tampered = c.run(&cfg).unwrap();
        let patched = c.run_rehashed(&cfg).unwrap();
        assert_eq!(patched.total(), 60);
        // Re-hashing can only reduce monitor kills: every flip whose
        // dynamic blocks exist in the static table now matches it.
        assert!(
            patched.detected_monitor < tampered.detected_monitor,
            "patched {patched:?} vs tampered {tampered:?}"
        );
        // And runs that merely change data flow surface as masked or
        // silent instead.
        assert!(patched.masked + patched.silent > tampered.masked + tampered.silent);
    }

    #[test]
    fn rehashed_bus_plans_are_rejected() {
        let (c, _) = setup(HashAlgoKind::Xor);
        let plan = FaultPlan::bus_transient(0x0040_0000, 1);
        let err = c.run_one_rehashed(&plan, 1000).unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("stored-image patches"), "{err}");
    }

    #[test]
    fn empty_targets_are_rejected() {
        let (c, _) = setup(HashAlgoKind::Xor);
        let err = c
            .run(&CampaignConfig {
                runs: 1,
                seed: 0,
                model: FaultModel::SingleBit,
                site: FaultSite::StoredImage,
                targets: vec![],
                max_cycles: 1000,
                max_wall: None,
            })
            .unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("target addresses"), "{err}");
    }

    #[test]
    fn zero_wall_budget_quarantines_instead_of_hanging() {
        // A loop long enough to cross the watchdog poll stride
        // (65 536 retired instructions), targeting only the exit
        // sequence so every plan restores a late checkpoint and trips
        // the (already expired) deadline on its first poll.
        let src = "
            .text
        main:
            li   $t0, 40000
        loop:
            addiu $t0, $t0, -1
            bnez $t0, loop
        exit:
            li   $a0, 1
            li   $v0, 10
            syscall
        ";
        let prog = assemble(src).unwrap();
        let (fht, _) = static_fht(&prog.image, &[], HashAlgoKind::Xor, 0).unwrap();
        let exit = prog.symbols.get("exit").unwrap();
        let c = Campaign::new(prog.image, CicConfig::default(), fht);
        assert!(matches!(c.reference_outcome(), RunOutcome::Exited { .. }));
        let cfg = CampaignConfig {
            runs: 6,
            seed: 9,
            model: FaultModel::SingleBit,
            site: FaultSite::StoredImage,
            targets: vec![exit, exit + 4, exit + 8],
            max_cycles: 60_000_000,
            max_wall: Some(Duration::ZERO),
        };
        let r = c.run_with_workers(&cfg, 2).unwrap();
        assert_eq!(r.total(), cfg.runs);
        assert_eq!(r.quarantined, cfg.runs, "{r:?}");
        // The same campaign without the watchdog classifies every run.
        let unwalled = c
            .run_with_workers(
                &CampaignConfig {
                    max_wall: None,
                    ..cfg
                },
                2,
            )
            .unwrap();
        assert_eq!(unwalled.quarantined, 0, "{unwalled:?}");
        assert_eq!(unwalled.total(), 6);
    }
}
