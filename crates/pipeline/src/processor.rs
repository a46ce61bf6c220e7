//! The processor: functional execution, monitoring integration, and
//! cycle accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cimon_core::hash::{BlockHasher, HashAlgo};
use cimon_core::{BlockKey, Cic, CicConfig, CicStats, HashAlgoKind, SimError};
use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_isa::{semantics, Funct, IOpcode, Instr, Reg, Syscall, INSTR_BYTES};
use cimon_mem::{FetchBus, Memory, ProgramImage};
use cimon_microop::{
    baseline_spec, embed_monitor, execute_threaded, CompiledProgram, DReg, Datapath, ExceptionKind,
    MicroEnv, MicroProgram, ProcessorSpec, ThreadedProgram,
};
#[cfg(feature = "interp-check")]
use cimon_microop::{execute, execute_compiled, WireEnv};
use cimon_os::{
    ExceptionCost, FullHashTable, OsKernel, OsStats, RefillPolicyKind, TerminationCause,
};

use crate::blockexec::BlockCache;
use crate::monitor::{CicMonitor, Monitor, MonitorState, NullMonitor, Verdict};
use crate::predecode::{PredecodedEntry, PredecodedImage};
use crate::regfile::RegFile;
use crate::timing::{Timing, TimingConfig};

/// How the processor obtains its predecoded view of the program image.
#[derive(Clone, Debug, Default)]
pub enum Predecode {
    /// Decode the image once at processor construction (the default).
    #[default]
    Auto,
    /// Reuse a shared [`PredecodedImage`] — sweeps cache one per
    /// workload on the `cimon_sim::Artifact` so grid points skip even
    /// the one-time decode pass.
    Shared(Arc<PredecodedImage>),
    /// Disable the fast path and live-decode every fetched word — the
    /// reference the differential tests compare against.
    Off,
}

/// Whether the processor executes whole predecoded basic blocks per
/// dispatch ([`Processor::step_block`]) or steps instruction by
/// instruction.
///
/// Block dispatch requires a predecoded image: with
/// [`Predecode::Off`], every variant behaves like [`BlockExec::Off`]
/// (except [`BlockExec::Shared`], which carries its own predecoded
/// view). Under the `interp-check` feature, `Auto` and `Shared` also
/// resolve to off so every cycle of the regular test suite flows
/// through the cross-checked stage micro-programs; an explicit
/// [`BlockExec::On`] keeps block dispatch even there.
#[derive(Clone, Debug, Default)]
pub enum BlockExec {
    /// Use block dispatch whenever a predecoded image is available
    /// (the default).
    #[default]
    Auto,
    /// Reuse a shared [`BlockCache`] — sweeps cache one per workload on
    /// the `cimon_sim::Artifact` beside the FHTs and the predecoded
    /// image.
    Shared(Arc<BlockCache>),
    /// Force block dispatch (even under `interp-check`). Still requires
    /// a predecoded image to build the cache from.
    On,
    /// Per-instruction stepping only — the reference the differential
    /// tests compare against.
    Off,
}

/// Counters of the block-dispatch fast path. Deliberately *not* part of
/// [`RunStats`]: they describe the simulator's own dispatch behaviour,
/// which the optimisation contract requires to be architecturally
/// invisible (the differential tests compare `RunStats` across
/// block-exec on/off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockExecStats {
    /// Blocks dispatched through [`Processor::step_block`]'s fast path.
    pub dispatches: u64,
    /// Mid-block surprises (delivered word differing from its
    /// predecoded form) that bailed out to the per-instruction path.
    pub bailouts: u64,
    /// Bulk dispatches that ended right after a store before the
    /// block's last instruction, because the store changed the program
    /// text (bumped the memory's text epoch); the next dispatch
    /// revalidates the rest of the block. Separate from `bailouts`,
    /// which counts word divergence.
    pub splits: u64,
    /// Instructions retired inside dispatched blocks.
    pub instructions: u64,
    /// Largest number of instructions retired by one dispatch.
    pub max_block: u64,
    /// Dispatches that entered through a cached superblock edge
    /// (taken or fall-through successor of the previous block) without
    /// a `BlockCache` lookup.
    pub chain_hits: u64,
    /// Dispatches that had a cached edge to consult but found it empty
    /// or pointing at a different PC, and fell back to the lookup.
    pub chain_misses: u64,
}

impl BlockExecStats {
    /// Mean instructions retired per dispatched block.
    pub fn mean_block(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.instructions as f64 / self.dispatches as f64
        }
    }
}

/// Monitoring configuration: checker hardware plus the OS side.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Checker hardware (IHT size, hash algorithm, seed).
    pub cic: CicConfig,
    /// The full hash table the OS loaded for this program. Shared, so a
    /// sweep can run many configurations off one generated table.
    pub fht: Arc<FullHashTable>,
    /// IHT refill policy.
    pub policy: RefillPolicyKind,
    /// Exception handling cost (the paper charges 100 cycles).
    pub exception_cost: ExceptionCost,
}

impl MonitorConfig {
    /// The paper's default configuration around a given FHT.
    pub fn new(cic: CicConfig, fht: impl Into<Arc<FullHashTable>>) -> MonitorConfig {
        MonitorConfig {
            cic,
            fht: fht.into(),
            policy: RefillPolicyKind::ReplaceHalfLru,
            exception_cost: ExceptionCost::default(),
        }
    }
}

/// Processor construction parameters.
#[derive(Clone, Debug)]
pub struct ProcessorConfig {
    /// Monitoring, or `None` for the baseline processor.
    pub monitor: Option<MonitorConfig>,
    /// Execution-unit latencies.
    pub timing: TimingConfig,
    /// Safety limit: the run aborts with [`RunOutcome::MaxCycles`]
    /// beyond this many cycles (runaway protection for fault campaigns).
    pub max_cycles: u64,
    /// Wall-clock watchdog: the run aborts with
    /// [`RunOutcome::Watchdog`] once this much real time has elapsed
    /// since construction. `None` — the default — disables the
    /// watchdog and costs nothing on the hot path: the deadline is only
    /// polled every 2^[`ProcessorConfig::watchdog_poll_bits`] retired
    /// instructions, and not at all when unarmed.
    pub max_wall: Option<Duration>,
    /// Log2 of the retired-instruction stride between wall-clock polls
    /// of an armed watchdog (default 16, i.e. one `Instant::now` per
    /// 65 536 retirements). Smaller values detect a deadline sooner at
    /// the cost of more clock samples — serving layers with tight
    /// per-request deadlines dial this down; batch sweeps keep the
    /// default. Clamped to at most 32.
    pub watchdog_poll_bits: u32,
    /// Record executed basic-block boundaries (used by the trace-based
    /// hash generator; costs memory on long runs).
    pub record_blocks: bool,
    /// Where the predecoded instruction table comes from.
    pub predecode: Predecode,
    /// Whether whole predecoded basic blocks execute per dispatch.
    pub block_exec: BlockExec,
    /// Whether block dispatch chains resolved successor edges
    /// (superblock chaining). Purely a dispatch optimisation — block
    /// validation still runs per dispatch — and defaulted from the
    /// `CIMON_BLOCK_CHAIN` environment variable (`off`/`0`/`false`
    /// disable it) so CI can gate the unchained fallback path.
    pub block_chain: bool,
}

/// The chaining default: on, unless `CIMON_BLOCK_CHAIN` says
/// otherwise. Read per call (configs are built once per run, not per
/// dispatch), so tests and harnesses that set the variable mid-process
/// see the change.
fn block_chain_default() -> bool {
    !matches!(
        std::env::var("CIMON_BLOCK_CHAIN").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

impl ProcessorConfig {
    /// Baseline processor: no monitoring.
    pub fn baseline() -> ProcessorConfig {
        ProcessorConfig {
            monitor: None,
            timing: TimingConfig::default(),
            max_cycles: 200_000_000,
            max_wall: None,
            watchdog_poll_bits: DEFAULT_WATCHDOG_POLL_BITS,
            record_blocks: false,
            predecode: Predecode::Auto,
            block_exec: BlockExec::Auto,
            block_chain: block_chain_default(),
        }
    }

    /// Monitored processor around a checker config and FHT.
    pub fn monitored(cic: CicConfig, fht: impl Into<Arc<FullHashTable>>) -> ProcessorConfig {
        ProcessorConfig {
            monitor: Some(MonitorConfig::new(cic, fht)),
            ..Self::baseline()
        }
    }
}

/// A console side effect produced by a syscall.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsoleEvent {
    /// `print_int`.
    Int(i32),
    /// `print_char`.
    Char(char),
}

/// A dynamic basic block observed during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEvent {
    /// The block's address range.
    pub key: BlockKey,
}

/// Baseline-detectable faults (paper, Section 6.3: invalid opcodes and
/// similar malformations are caught by the micro-architecture itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The fetched word decodes to no architected instruction.
    IllegalInstruction {
        /// PC of the bad word.
        pc: u32,
        /// The word itself.
        word: u32,
    },
    /// A data access was misaligned.
    MemFault {
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// An indirect jump targeted a non-word-aligned address.
    AddressError {
        /// PC of the jump.
        pc: u32,
        /// The bad target.
        target: u32,
    },
    /// `break` executed.
    BreakTrap {
        /// PC of the `break`.
        pc: u32,
    },
    /// `syscall` with an unassigned service number.
    BadSyscall {
        /// PC of the `syscall`.
        pc: u32,
        /// The unknown number.
        number: u32,
    },
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program called `exit`.
    Exited {
        /// Exit code from `$a0`.
        code: u32,
    },
    /// The integrity monitor (or the OS on its behalf) killed the
    /// program.
    Detected {
        /// Why.
        cause: TerminationCause,
        /// PC of the control-flow instruction whose check failed.
        pc: u32,
    },
    /// A baseline-detectable fault occurred.
    Fault(FaultKind),
    /// The safety cycle limit was reached.
    MaxCycles,
    /// The wall-clock watchdog ([`ProcessorConfig::max_wall`]) fired:
    /// the run took too much real time, independent of simulated
    /// cycles. Campaigns and sweeps classify this as a timed-out row
    /// rather than an architectural result.
    Watchdog,
}

/// Aggregate statistics of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Instructions committed.
    pub instructions: u64,
    /// Total cycles (timing model).
    pub cycles: u64,
    /// Cycles spent stalled in monitoring exceptions.
    pub monitor_stall_cycles: u64,
    /// Checker statistics, when monitored.
    pub cic: Option<CicStats>,
    /// OS statistics, when monitored.
    pub os: Option<OsStats>,
    /// Console output.
    pub console: Vec<ConsoleEvent>,
}

/// One ID-stage block check: (block key, computed hash, IHT hit, hash
/// matched). Carried from the check program to exception resolution.
type BlockCheck = (BlockKey, u32, bool, bool);

/// Micro-op environment wiring the spec's programs to the hardware.
///
/// Owned by the [`Processor`] as one struct — rather than reborrowed
/// field by field each cycle — so the threaded executor's op functions
/// monomorphise over it and the memory fast path inlines into `fetch`.
/// The exception and last-check buffers are reused across cycles, so
/// stepping allocates nothing.
struct EnvState {
    mem: Memory,
    bus: FetchBus,
    monitor: Box<dyn Monitor>,
    exceptions: Vec<ExceptionKind>,
    last_check: Option<BlockCheck>,
    /// Captures unit answers while the `interp-check` feature replays
    /// each stage through every executor tier.
    #[cfg(feature = "interp-check")]
    recording: Option<crosscheck::Recording>,
}

impl MicroEnv for EnvState {
    fn fetch(&mut self, addr: u32) -> u32 {
        // Instruction memory is backed by the unified memory; unmapped
        // reads yield zero, and alignment is enforced by the bus.
        let w = self.bus.fetch(&self.mem, addr).unwrap_or(0);
        #[cfg(feature = "interp-check")]
        if let Some(rec) = &mut self.recording {
            rec.fetches.push(w);
        }
        w
    }

    fn hash_step(&mut self, _old: u32, instr: u32) -> u32 {
        let h = self.monitor.observe_fetch(instr);
        #[cfg(feature = "interp-check")]
        if let Some(rec) = &mut self.recording {
            rec.hashes.push(h);
        }
        h
    }

    fn hash_reset(&mut self) {
        self.monitor.hash_reset();
        #[cfg(feature = "interp-check")]
        if let Some(rec) = &mut self.recording {
            rec.resets += 1;
        }
    }

    fn iht_lookup(&mut self, start: u32, end: u32, hash: u32) -> (bool, bool) {
        let key = BlockKey::new(start, end);
        let (found, matched) = self.monitor.check_block(key, hash);
        self.last_check = Some((key, hash, found, matched));
        #[cfg(feature = "interp-check")]
        if let Some(rec) = &mut self.recording {
            rec.lookups.push((found, matched));
        }
        (found, matched)
    }

    fn raise(&mut self, kind: ExceptionKind) {
        self.exceptions.push(kind);
        #[cfg(feature = "interp-check")]
        if let Some(rec) = &mut self.recording {
            rec.raised.push(kind);
        }
    }
}

/// One stage micro-program in both lowered tiers: the indexed-wire
/// [`CompiledProgram`] (kept for `interp-check` replay and slot
/// bookkeeping) and the pre-bound [`ThreadedProgram`] the per-cycle
/// path executes.
struct Stage {
    compiled: CompiledProgram,
    threaded: ThreadedProgram<EnvState>,
}

impl Stage {
    fn lower(program: &MicroProgram) -> Stage {
        let compiled = CompiledProgram::compile(program);
        let threaded = ThreadedProgram::bind(&compiled);
        Stage { compiled, threaded }
    }

    fn slot_count(&self) -> usize {
        self.compiled.slot_count()
    }
}

/// Execute one stage micro-program against the real functional units.
///
/// Normally this is a single [`execute_threaded`] pass. Under the
/// `interp-check` feature the same stage is executed through all three
/// tiers: the threaded pass runs against the real units while the
/// environment records every unit answer, then the indexed-wire
/// executor and the interpreter replay those recorded answers against
/// copies of the entry datapath, and the three final datapaths plus the
/// raised exception sequences are asserted identical. Real side effects
/// (fetch counts, hash state, IHT traffic) happen exactly once.
fn run_stage(
    stage: &Stage,
    spec: &ProcessorSpec,
    pick_if: bool,
    dp: &mut Datapath,
    env: &mut EnvState,
    slots: &mut [u32],
) {
    #[cfg(not(feature = "interp-check"))]
    {
        let _ = (spec, pick_if);
        execute_threaded(&stage.threaded, dp, env, slots);
    }
    #[cfg(feature = "interp-check")]
    {
        let program: &MicroProgram = if pick_if {
            &spec.if_program
        } else {
            spec.id_check_program
                .as_ref()
                .unwrap_or_else(|| unreachable!("check stage implies a check program"))
        };
        env.recording = Some(crosscheck::Recording::default());
        let mut dp_threaded = dp.clone();
        execute_threaded(&stage.threaded, &mut dp_threaded, env, slots);
        let recording = env
            .recording
            .take()
            .unwrap_or_else(|| unreachable!("recording installed above"));

        // Tier 2: the indexed-wire executor replays the recorded
        // answers over a copy of the entry datapath.
        let mut dp_compiled = dp.clone();
        let mut replay = recording.replayer();
        execute_compiled(&stage.compiled, &mut dp_compiled, &mut replay, slots);
        replay.verify(stage.compiled.name());
        assert_eq!(
            dp_threaded,
            dp_compiled,
            "threaded/compiled datapath divergence in `{}`",
            stage.compiled.name()
        );

        // Tier 3: the interpreter replays into the caller's datapath.
        let mut replay = recording.replayer();
        execute(program, dp, &mut replay, WireEnv::new());
        replay.verify(stage.compiled.name());
        assert_eq!(
            *dp,
            dp_threaded,
            "interpreted/threaded datapath divergence in `{}`",
            stage.compiled.name()
        );
    }
}

/// Record/replay support backing the `interp-check` feature.
// Allow-listed exception: this module *is* assertion machinery — a
// replayed tier consuming more answers than the threaded pass recorded
// is exactly the divergence the feature exists to catch, and the
// `expect` messages are its diagnostics.
#[allow(clippy::expect_used)]
#[cfg(feature = "interp-check")]
mod crosscheck {
    use super::ExceptionKind;
    use cimon_microop::MicroEnv;

    /// Unit answers captured from the threaded pass — the only tier
    /// that touches the real functional units.
    #[derive(Default)]
    pub struct Recording {
        pub fetches: Vec<u32>,
        pub hashes: Vec<u32>,
        pub lookups: Vec<(bool, bool)>,
        pub resets: u32,
        pub raised: Vec<ExceptionKind>,
    }

    impl Recording {
        /// A fresh replay cursor over the recorded answers (each tier
        /// replays the same recording independently).
        pub fn replayer(&self) -> Replayer<'_> {
            Replayer {
                rec: self,
                fetch: 0,
                hash: 0,
                lookup: 0,
                resets: 0,
                raised: Vec::new(),
            }
        }
    }

    /// Serves the recorded answers to a replayed tier and checks it
    /// asked the same questions in the same order.
    pub struct Replayer<'a> {
        rec: &'a Recording,
        fetch: usize,
        hash: usize,
        lookup: usize,
        resets: u32,
        raised: Vec<ExceptionKind>,
    }

    impl Replayer<'_> {
        /// Assert the replayed tier consumed exactly what the threaded
        /// pass produced.
        pub fn verify(self, stage: &str) {
            assert_eq!(
                self.rec.raised, self.raised,
                "exception divergence in `{stage}`"
            );
            assert_eq!(
                self.rec.resets, self.resets,
                "hash-reset divergence in `{stage}`"
            );
            assert_eq!(
                self.fetch,
                self.rec.fetches.len(),
                "fetch-count divergence in `{stage}`"
            );
            assert_eq!(
                self.hash,
                self.rec.hashes.len(),
                "hash-count divergence in `{stage}`"
            );
            assert_eq!(
                self.lookup,
                self.rec.lookups.len(),
                "lookup-count divergence in `{stage}`"
            );
        }
    }

    impl MicroEnv for Replayer<'_> {
        fn fetch(&mut self, _addr: u32) -> u32 {
            let w = *self
                .rec
                .fetches
                .get(self.fetch)
                .expect("replayed tier fetched more words");
            self.fetch += 1;
            w
        }

        fn hash_step(&mut self, _old: u32, _instr: u32) -> u32 {
            let h = *self
                .rec
                .hashes
                .get(self.hash)
                .expect("replayed tier hashed more words");
            self.hash += 1;
            h
        }

        fn hash_reset(&mut self) {
            self.resets += 1;
        }

        fn iht_lookup(&mut self, _start: u32, _end: u32, _hash: u32) -> (bool, bool) {
            let r = *self
                .rec
                .lookups
                .get(self.lookup)
                .expect("replayed tier looked up more keys");
            self.lookup += 1;
            r
        }

        fn raise(&mut self, kind: ExceptionKind) {
            self.raised.push(kind);
        }
    }
}

/// Planned dispatches after which a slot's provably-dead live-in checks
/// are dropped from the `plan_fits` hot path.
const LIVE_IN_SKIP_AFTER: u8 = 16;

/// A complete checkpoint of a run in flight: architectural state (PC,
/// registers, HI/LO, pipeline latches), memory (copy-on-write — the
/// clone shares pages until either side writes), the scheduler, the
/// monitor plane's captured state, and the dispatch-plane bookkeeping
/// (superblock chain edges, validation epochs, statistics, console and
/// block-event logs), so a restored run continues **byte-identical** —
/// counters included.
///
/// A snapshot is tied to the configuration of the processor that took
/// it: restore only into a processor built from the same image and
/// [`ProcessorConfig`]. The fetch-bus *tap* is not captured — a
/// restored run installs its own (a fault campaign installs a fresh
/// planned tap after restoring a clean checkpoint).
#[derive(Clone)]
pub struct ProcessorSnapshot {
    dp: Datapath,
    regs: RegFile,
    hi: u32,
    lo: u32,
    mem: Memory,
    fetch_count: u64,
    monitor: MonitorState,
    timing: Timing,
    pc: u32,
    done: Option<RunOutcome>,
    instret: u64,
    console: Vec<ConsoleEvent>,
    blocks: Vec<BlockEvent>,
    shadow_block_start: Option<u32>,
    block_stats: BlockExecStats,
    chain: Vec<ChainEdges>,
    validated: Vec<u64>,
    live_in_skip: Vec<u8>,
    chain_from: Option<(u32, bool)>,
    /// CRC-32 over the architectural core of the checkpoint (registers,
    /// HI/LO, PC, counters, and every resident memory word), recorded
    /// at capture time and re-verified by [`Processor::restore`].
    checksum: u32,
}

impl ProcessorSnapshot {
    /// Instructions retired at the checkpoint.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// The integrity checksum recorded when the snapshot was taken.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// Recompute the integrity checksum over the snapshot's current
    /// contents. Equal to [`ProcessorSnapshot::checksum`] unless the
    /// snapshot was corrupted after capture.
    pub fn compute_checksum(&self) -> u32 {
        let mut hasher = HashAlgo::new(HashAlgoKind::Crc32, 0);
        hasher.update_block(&self.regs.snapshot());
        hasher.update(self.hi);
        hasher.update(self.lo);
        hasher.update(self.pc);
        hasher.update(self.instret as u32);
        hasher.update((self.instret >> 32) as u32);
        hasher.update(self.fetch_count as u32);
        hasher.update((self.fetch_count >> 32) as u32);
        self.mem.visit_resident_words(|word| hasher.update(word));
        hasher.digest()
    }

    /// Flip one bit of the snapshot's captured memory, leaving the
    /// recorded checksum stale — the fault model of a checkpoint
    /// corrupted at rest. Restore is guaranteed to notice; the
    /// integrity tests are built on this.
    pub fn corrupt_bit(&mut self, addr: u32, bit: u8) {
        self.mem.flip_bit(addr, bit);
    }

    /// Fetch-bus word count at the checkpoint — the key positional bus
    /// taps replay against.
    pub fn fetch_count(&self) -> u64 {
        self.fetch_count
    }

    /// PC at the checkpoint.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Block events recorded up to the checkpoint (empty unless the
    /// run had [`ProcessorConfig::record_blocks`] set).
    pub fn blocks(&self) -> &[BlockEvent] {
        &self.blocks
    }

    /// Serialize the complete checkpoint to bytes for spill to disk.
    /// Inverse of [`ProcessorSnapshot::from_bytes`]; every field —
    /// architectural core, memory, scheduler, monitor state, and the
    /// dispatch-plane bookkeeping — is written, so a snapshot decoded
    /// on the far side restores byte-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(4096);
        self.dp.encode_into(&mut e);
        for v in self.regs.snapshot() {
            e.u32(v);
        }
        e.u32(self.hi);
        e.u32(self.lo);
        self.mem.encode_into(&mut e);
        e.u64(self.fetch_count);
        self.monitor.encode_into(&mut e);
        self.timing.encode_into(&mut e);
        e.u32(self.pc);
        match &self.done {
            None => e.bool(false),
            Some(outcome) => {
                e.bool(true);
                encode_outcome(outcome, &mut e);
            }
        }
        e.u64(self.instret);
        e.usize(self.console.len());
        for ev in &self.console {
            match ev {
                ConsoleEvent::Int(v) => {
                    e.u8(0);
                    e.u32(*v as u32);
                }
                ConsoleEvent::Char(c) => {
                    e.u8(1);
                    e.u32(*c as u32);
                }
            }
        }
        e.usize(self.blocks.len());
        for b in &self.blocks {
            e.u32(b.key.start);
            e.u32(b.key.end);
        }
        match self.shadow_block_start {
            None => e.bool(false),
            Some(pc) => {
                e.bool(true);
                e.u32(pc);
            }
        }
        e.u64(self.block_stats.dispatches);
        e.u64(self.block_stats.bailouts);
        e.u64(self.block_stats.splits);
        e.u64(self.block_stats.instructions);
        e.u64(self.block_stats.max_block);
        e.u64(self.block_stats.chain_hits);
        e.u64(self.block_stats.chain_misses);
        e.usize(self.chain.len());
        for c in &self.chain {
            e.u32(c.taken.pc);
            e.u32(c.taken.slot);
            e.u32(c.fall.pc);
            e.u32(c.fall.slot);
        }
        e.usize(self.validated.len());
        for &v in &self.validated {
            e.u64(v);
        }
        e.bytes(&self.live_in_skip);
        match self.chain_from {
            None => e.bool(false),
            Some((slot, taken)) => {
                e.bool(true);
                e.u32(slot);
                e.bool(taken);
            }
        }
        e.u32(self.checksum);
        e.into_bytes()
    }

    /// Rebuild a checkpoint serialized by [`ProcessorSnapshot::to_bytes`].
    ///
    /// The architectural integrity checksum is recomputed over the
    /// decoded contents and compared against the recorded one, so a
    /// spilled segment whose payload was corrupted in a way its frame
    /// CRC missed still cannot smuggle a wrong architectural state back
    /// in ([`Processor::restore`] re-verifies a second time).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, trailing bytes, a malformed field,
    /// or an integrity-checksum mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<ProcessorSnapshot, CodecError> {
        let mut d = Dec::new(bytes);
        let snapshot = Self::decode_from(&mut d)?;
        d.finish()?;
        Ok(snapshot)
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<ProcessorSnapshot, CodecError> {
        let dp = Datapath::decode_from(d)?;
        let mut regs = [0u32; 32];
        for v in &mut regs {
            *v = d.u32()?;
        }
        let regs = RegFile::from_snapshot(regs);
        let hi = d.u32()?;
        let lo = d.u32()?;
        let mem = Memory::decode_from(d)?;
        let fetch_count = d.u64()?;
        let monitor = MonitorState::decode_from(d)?;
        let timing = Timing::decode_from(d)?;
        let pc = d.u32()?;
        let done = if d.bool()? {
            Some(decode_outcome(d)?)
        } else {
            None
        };
        let instret = d.u64()?;
        let n_console = d.usize()?;
        let mut console = Vec::with_capacity(n_console.min(1 << 16));
        for _ in 0..n_console {
            console.push(match d.u8()? {
                0 => ConsoleEvent::Int(d.u32()? as i32),
                1 => ConsoleEvent::Char(char::from_u32(d.u32()?).ok_or(CodecError::Invalid {
                    what: "console char",
                })?),
                _ => {
                    return Err(CodecError::Invalid {
                        what: "console event tag",
                    })
                }
            });
        }
        let n_blocks = d.usize()?;
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 16));
        for _ in 0..n_blocks {
            blocks.push(BlockEvent {
                key: decode_block_key(d)?,
            });
        }
        let shadow_block_start = if d.bool()? { Some(d.u32()?) } else { None };
        let block_stats = BlockExecStats {
            dispatches: d.u64()?,
            bailouts: d.u64()?,
            splits: d.u64()?,
            instructions: d.u64()?,
            max_block: d.u64()?,
            chain_hits: d.u64()?,
            chain_misses: d.u64()?,
        };
        let n_chain = d.usize()?;
        let mut chain = Vec::with_capacity(n_chain.min(1 << 16));
        for _ in 0..n_chain {
            chain.push(ChainEdges {
                taken: ChainEdge {
                    pc: d.u32()?,
                    slot: d.u32()?,
                },
                fall: ChainEdge {
                    pc: d.u32()?,
                    slot: d.u32()?,
                },
            });
        }
        let n_validated = d.usize()?;
        let mut validated = Vec::with_capacity(n_validated.min(1 << 16));
        for _ in 0..n_validated {
            validated.push(d.u64()?);
        }
        let live_in_skip = d.bytes()?.to_vec();
        let chain_from = if d.bool()? {
            let slot = d.u32()?;
            let taken = d.bool()?;
            Some((slot, taken))
        } else {
            None
        };
        let checksum = d.u32()?;
        let snapshot = ProcessorSnapshot {
            dp,
            regs,
            hi,
            lo,
            mem,
            fetch_count,
            monitor,
            timing,
            pc,
            done,
            instret,
            console,
            blocks,
            shadow_block_start,
            block_stats,
            chain,
            validated,
            live_in_skip,
            chain_from,
            checksum,
        };
        if snapshot.compute_checksum() != checksum {
            return Err(CodecError::Invalid {
                what: "snapshot integrity checksum",
            });
        }
        Ok(snapshot)
    }
}

/// Decode a `(start, end)` pair into a [`BlockKey`], converting the
/// constructor's well-formedness panics (alignment, ordering) into
/// typed errors — spilled bytes may be corrupt.
fn decode_block_key(d: &mut Dec<'_>) -> Result<BlockKey, CodecError> {
    let start = d.u32()?;
    let end = d.u32()?;
    if start % 4 != 0 || end % 4 != 0 || end < start {
        return Err(CodecError::Invalid { what: "block key" });
    }
    Ok(BlockKey::new(start, end))
}

/// Byte tagging for [`RunOutcome`] in spilled checkpoints.
fn encode_outcome(outcome: &RunOutcome, e: &mut Enc) {
    match outcome {
        RunOutcome::Exited { code } => {
            e.u8(0);
            e.u32(*code);
        }
        RunOutcome::Detected { cause, pc } => {
            e.u8(1);
            match cause {
                TerminationCause::HashMismatch {
                    block,
                    expected,
                    actual,
                } => {
                    e.u8(0);
                    e.u32(block.start);
                    e.u32(block.end);
                    e.u32(*expected);
                    e.u32(*actual);
                }
                TerminationCause::UnknownBlock { block } => {
                    e.u8(1);
                    e.u32(block.start);
                    e.u32(block.end);
                }
            }
            e.u32(*pc);
        }
        RunOutcome::Fault(kind) => {
            e.u8(2);
            match kind {
                FaultKind::IllegalInstruction { pc, word } => {
                    e.u8(0);
                    e.u32(*pc);
                    e.u32(*word);
                }
                FaultKind::MemFault { pc } => {
                    e.u8(1);
                    e.u32(*pc);
                }
                FaultKind::AddressError { pc, target } => {
                    e.u8(2);
                    e.u32(*pc);
                    e.u32(*target);
                }
                FaultKind::BreakTrap { pc } => {
                    e.u8(3);
                    e.u32(*pc);
                }
                FaultKind::BadSyscall { pc, number } => {
                    e.u8(4);
                    e.u32(*pc);
                    e.u32(*number);
                }
            }
        }
        RunOutcome::MaxCycles => e.u8(3),
        RunOutcome::Watchdog => e.u8(4),
    }
}

/// Inverse of [`encode_outcome`].
fn decode_outcome(d: &mut Dec<'_>) -> Result<RunOutcome, CodecError> {
    Ok(match d.u8()? {
        0 => RunOutcome::Exited { code: d.u32()? },
        1 => {
            let cause = match d.u8()? {
                0 => TerminationCause::HashMismatch {
                    block: decode_block_key(d)?,
                    expected: d.u32()?,
                    actual: d.u32()?,
                },
                1 => TerminationCause::UnknownBlock {
                    block: decode_block_key(d)?,
                },
                _ => {
                    return Err(CodecError::Invalid {
                        what: "termination cause tag",
                    })
                }
            };
            RunOutcome::Detected {
                cause,
                pc: d.u32()?,
            }
        }
        2 => RunOutcome::Fault(match d.u8()? {
            0 => FaultKind::IllegalInstruction {
                pc: d.u32()?,
                word: d.u32()?,
            },
            1 => FaultKind::MemFault { pc: d.u32()? },
            2 => FaultKind::AddressError {
                pc: d.u32()?,
                target: d.u32()?,
            },
            3 => FaultKind::BreakTrap { pc: d.u32()? },
            4 => FaultKind::BadSyscall {
                pc: d.u32()?,
                number: d.u32()?,
            },
            _ => {
                return Err(CodecError::Invalid {
                    what: "fault kind tag",
                })
            }
        }),
        3 => RunOutcome::MaxCycles,
        4 => RunOutcome::Watchdog,
        _ => {
            return Err(CodecError::Invalid {
                what: "run outcome tag",
            })
        }
    })
}

impl std::fmt::Debug for ProcessorSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessorSnapshot")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("instret", &self.instret)
            .field("fetch_count", &self.fetch_count)
            .field("done", &self.done)
            .finish()
    }
}

/// The single-issue 6-stage processor.
pub struct Processor {
    spec: ProcessorSpec,
    /// The stage programs lowered to indexed + threaded form at
    /// construction.
    stage_if: Stage,
    stage_check: Option<Stage>,
    /// Wire-slot scratch shared by both stage programs, reused every
    /// cycle.
    slots: Vec<u32>,
    /// The image decoded once; `None` disables the decode fast path.
    predecoded: Option<Arc<PredecodedImage>>,
    /// The predecoded image grouped into basic blocks; `None` disables
    /// block dispatch.
    block_cache: Option<Arc<BlockCache>>,
    block_stats: BlockExecStats,
    /// Whether the cache's precomputed block timing plans were built
    /// under this processor's [`TimingConfig`] (a shared cache built
    /// for different latencies falls back to per-instruction issue).
    plans_ok: bool,
    /// Superblock chain: per block slot, the taken and fall-through
    /// successor slots observed on earlier dispatches. Empty when
    /// chaining is off or block dispatch is disabled.
    chain: Vec<ChainEdges>,
    /// Per block slot: the text epoch the block was last
    /// bulk-validated at, and its memoized digest.
    memo: Vec<SlotMemo>,
    /// The slot the previous dispatch ran, and whether it exited
    /// through its taken edge — the link the next dispatch resolves or
    /// records. Cleared by bail-outs, non-bulk dispatches, and run
    /// ends, so chains only ever form across clean bulk-validated
    /// block boundaries.
    chain_from: Option<(u32, bool)>,
    /// Per-slot planned-dispatch streaks for the live-in skip bit:
    /// counts dispatches on which the plan's provably-dead live-in
    /// checks were evaluated without firing; once a slot reaches
    /// [`LIVE_IN_SKIP_AFTER`], the dead tail is dropped from the
    /// `plan_fits` hot path (see [`BlockPlan::binding_live_in_checks`]).
    live_in_skip: Vec<u8>,
    dp: Datapath,
    regs: RegFile,
    hi: u32,
    lo: u32,
    /// Memory, fetch bus, monitor plane, and the per-cycle scratch
    /// buffers, as one owned micro-op environment.
    env: EnvState,
    timing: Timing,
    pc: u32,
    done: Option<RunOutcome>,
    instret: u64,
    console: Vec<ConsoleEvent>,
    record_blocks: bool,
    blocks: Vec<BlockEvent>,
    shadow_block_start: Option<u32>,
    max_cycles: u64,
    /// Wall-clock deadline, armed from [`ProcessorConfig::max_wall`].
    deadline: Option<Instant>,
    /// Next retired-instruction count at which the deadline is polled —
    /// `Instant::now` is too expensive to call per dispatch, so the
    /// watchdog samples the clock every `watchdog_stride` retirements.
    next_watchdog: u64,
    /// Retired instructions between wall-clock polls, derived from
    /// [`ProcessorConfig::watchdog_poll_bits`] at construction.
    watchdog_stride: u64,
}

/// Default [`ProcessorConfig::watchdog_poll_bits`]: a 2^16-retirement
/// stride. At simulator throughputs of tens of MIPS this bounds the
/// overshoot past the deadline to a few milliseconds.
pub const DEFAULT_WATCHDOG_POLL_BITS: u32 = 16;

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("spec", &self.spec.name)
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("instret", &self.instret)
            .field("cycles", &self.timing.cycles())
            .field("done", &self.done)
            .finish()
    }
}

impl Processor {
    /// Build a processor, load the image, and point the PC at its entry.
    ///
    /// # Panics
    ///
    /// Panics if the monitored spec fails validation — impossible for
    /// specs produced by [`embed_monitor`], and a programming error
    /// otherwise.
    pub fn new(image: &ProgramImage, config: ProcessorConfig) -> Processor {
        let monitor: Box<dyn Monitor> = match config.monitor.clone() {
            None => Box::new(NullMonitor),
            Some(mon) => Box::new(CicMonitor::new(mon)),
        };
        Processor::with_monitor(image, config, monitor)
    }

    /// Build a processor around an explicit monitor plane.
    ///
    /// `config.monitor` is ignored — the given `monitor` is installed
    /// instead, so any [`Monitor`] implementation (the CIC, a null
    /// monitor, or a custom one) can drive the same pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the spec embedded for [`Monitor::params`] fails
    /// validation — impossible for specs produced by [`embed_monitor`],
    /// and a programming error otherwise.
    pub fn with_monitor(
        image: &ProgramImage,
        config: ProcessorConfig,
        monitor: Box<dyn Monitor>,
    ) -> Processor {
        let spec = match monitor.params() {
            None => baseline_spec(),
            Some(params) => {
                let spec = embed_monitor(&baseline_spec(), &params);
                spec.validate()
                    .unwrap_or_else(|e| unreachable!("embedded monitor spec must validate: {e}"));
                spec
            }
        };
        let mut dp = Datapath::new();
        dp.rhash_seed = monitor.hash_reset_value();
        dp.reset(DReg::Rhash);
        let mut regs = RegFile::new();
        regs.write(Reg::SP, cimon_mem::image::STACK_TOP);
        regs.write(Reg::GP, image.data.base);
        let stage_if = Stage::lower(&spec.if_program);
        let stage_check = spec.id_check_program.as_ref().map(Stage::lower);
        let slot_count = stage_if
            .slot_count()
            .max(stage_check.as_ref().map_or(0, Stage::slot_count));
        let predecoded = match &config.predecode {
            Predecode::Auto => Some(Arc::new(PredecodedImage::new(image))),
            Predecode::Shared(p) => Some(p.clone()),
            Predecode::Off => None,
        };
        let block_cache = match &config.block_exec {
            BlockExec::Off => None,
            BlockExec::Shared(cache) => Some(cache.clone()),
            BlockExec::Auto | BlockExec::On => predecoded
                .as_ref()
                .map(|p| Arc::new(BlockCache::new(p.clone()))),
        };
        // Under `interp-check`, only an explicit `On` keeps block
        // dispatch: every other cycle must flow through the stage
        // programs so all three executor tiers stay cross-checked.
        #[cfg(feature = "interp-check")]
        let block_cache = if matches!(config.block_exec, BlockExec::On) {
            block_cache
        } else {
            None
        };
        let plans_ok = block_cache
            .as_ref()
            .is_some_and(|c| c.timing_config() == config.timing);
        let chain = match &block_cache {
            Some(cache) if config.block_chain => {
                vec![ChainEdges::EMPTY; cache.len()]
            }
            _ => Vec::new(),
        };
        let memo = match &block_cache {
            Some(cache) => vec![SlotMemo::EMPTY; cache.len()],
            None => Vec::new(),
        };
        let live_in_skip = match &block_cache {
            Some(cache) => vec![0; cache.len()],
            None => Vec::new(),
        };
        Processor {
            spec,
            stage_if,
            stage_check,
            slots: vec![0; slot_count],
            predecoded,
            block_cache,
            block_stats: BlockExecStats::default(),
            plans_ok,
            chain,
            memo,
            chain_from: None,
            live_in_skip,
            dp,
            regs,
            hi: 0,
            lo: 0,
            env: EnvState {
                mem: image.to_memory(),
                bus: FetchBus::new(),
                monitor,
                exceptions: Vec::with_capacity(2),
                last_check: None,
                #[cfg(feature = "interp-check")]
                recording: None,
            },
            timing: Timing::new(config.timing),
            pc: image.entry,
            done: None,
            instret: 0,
            console: Vec::new(),
            record_blocks: config.record_blocks,
            blocks: Vec::new(),
            shadow_block_start: None,
            max_cycles: config.max_cycles,
            deadline: config.max_wall.map(|wall| Instant::now() + wall),
            next_watchdog: 1u64 << config.watchdog_poll_bits.min(32),
            watchdog_stride: 1u64 << config.watchdog_poll_bits.min(32),
        }
    }

    /// Install a fault tap on the fetch bus (transient in-flight faults).
    pub fn set_bus_tap(&mut self, tap: Box<dyn cimon_mem::BusTap>) {
        self.env.bus.set_tap(tap);
    }

    /// Mutable access to memory — used by fault injectors to corrupt the
    /// stored image, and by tests to pre-place inputs.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.env.mem
    }

    /// Read-only memory access for result checking.
    pub fn mem(&self) -> &Memory {
        &self.env.mem
    }

    /// Current architectural register values.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// The checker, when the installed monitor has one.
    pub fn cic(&self) -> Option<&Cic> {
        self.env.monitor.cic()
    }

    /// The OS kernel, when the installed monitor has one.
    pub fn os(&self) -> Option<&OsKernel> {
        self.env.monitor.os()
    }

    /// The installed monitor plane.
    pub fn monitor(&self) -> &dyn Monitor {
        &*self.env.monitor
    }

    /// Counters of the block-dispatch fast path (all zero when block
    /// execution is off or never engaged).
    pub fn block_stats(&self) -> BlockExecStats {
        self.block_stats
    }

    /// The generated processor specification in use.
    pub fn spec(&self) -> &ProcessorSpec {
        &self.spec
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.timing.cycles()
    }

    /// Current PC.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Executed block events (only populated with
    /// [`ProcessorConfig::record_blocks`]).
    pub fn blocks(&self) -> &[BlockEvent] {
        &self.blocks
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.instret,
            cycles: self.timing.cycles(),
            monitor_stall_cycles: self.timing.stall_cycles(),
            cic: self.env.monitor.cic_stats(),
            os: self.env.monitor.os_stats(),
            console: self.console.clone(),
        }
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Poll the wall-clock watchdog. Unarmed: one branch. Armed: one
    /// compare per call, with `Instant::now` sampled only every
    /// `watchdog_stride` ([`ProcessorConfig::watchdog_poll_bits`])
    /// retired instructions.
    #[inline]
    fn watchdog_fired(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.instret < self.next_watchdog {
            return false;
        }
        self.next_watchdog = self.instret + self.watchdog_stride;
        Instant::now() >= deadline
    }

    /// Capture a complete checkpoint of the run in flight. Cheap in the
    /// common case: memory clones copy-on-write, and the dispatch-plane
    /// vectors are proportional to the block count, not the run length
    /// (the block-event log is cloned too, but it is empty unless
    /// [`ProcessorConfig::record_blocks`] is set).
    pub fn snapshot(&self) -> ProcessorSnapshot {
        let mut snapshot = ProcessorSnapshot {
            dp: self.dp.clone(),
            regs: self.regs.clone(),
            hi: self.hi,
            lo: self.lo,
            mem: self.env.mem.clone(),
            fetch_count: self.env.bus.fetch_count(),
            monitor: self.env.monitor.snapshot_state(),
            timing: self.timing.clone(),
            pc: self.pc,
            done: self.done,
            instret: self.instret,
            console: self.console.clone(),
            blocks: self.blocks.clone(),
            shadow_block_start: self.shadow_block_start,
            block_stats: self.block_stats,
            chain: self.chain.clone(),
            validated: self.memo.iter().map(|m| m.epoch).collect(),
            live_in_skip: self.live_in_skip.clone(),
            chain_from: self.chain_from,
            checksum: 0,
        };
        snapshot.checksum = snapshot.compute_checksum();
        snapshot
    }

    /// Reinstate a checkpoint taken by [`Processor::snapshot`]. The
    /// processor must have been built from the same image and
    /// [`ProcessorConfig`] as the one that took the snapshot;
    /// configuration (specs, caches, budget) and any installed bus tap
    /// are left untouched.
    ///
    /// # Errors
    ///
    /// The snapshot's integrity checksum is re-verified before any
    /// processor state is touched; a snapshot corrupted after capture
    /// returns [`SimError::SnapshotCorrupt`] and leaves the processor
    /// exactly as it was.
    pub fn restore(&mut self, snapshot: &ProcessorSnapshot) -> Result<(), SimError> {
        let found = snapshot.compute_checksum();
        if found != snapshot.checksum {
            return Err(SimError::SnapshotCorrupt {
                expected: snapshot.checksum,
                found,
            });
        }
        debug_assert_eq!(self.chain.len(), snapshot.chain.len());
        debug_assert_eq!(self.memo.len(), snapshot.validated.len());
        self.dp = snapshot.dp.clone();
        self.regs = snapshot.regs.clone();
        self.hi = snapshot.hi;
        self.lo = snapshot.lo;
        self.env.mem = snapshot.mem.clone();
        self.env.bus.set_fetch_count(snapshot.fetch_count);
        self.env.monitor.restore_state(&snapshot.monitor);
        self.env.exceptions.clear();
        self.env.last_check = None;
        self.timing = snapshot.timing.clone();
        self.pc = snapshot.pc;
        self.done = snapshot.done;
        self.instret = snapshot.instret;
        self.console = snapshot.console.clone();
        self.blocks = snapshot.blocks.clone();
        self.shadow_block_start = snapshot.shadow_block_start;
        self.block_stats = snapshot.block_stats;
        self.chain = snapshot.chain.clone();
        // The digest memo is not part of the checkpoint: the restored
        // monitor state may carry a different hash configuration.
        for (memo, &epoch) in self.memo.iter_mut().zip(&snapshot.validated) {
            *memo = SlotMemo {
                epoch,
                digest: None,
            };
        }
        self.live_in_skip = snapshot.live_in_skip.clone();
        self.chain_from = snapshot.chain_from;
        Ok(())
    }

    /// Run (with full timing and monitoring) until at least `target`
    /// retired instructions, or until the run ends. Execution stops on
    /// the first dispatch boundary at or past `target`; dispatch
    /// boundaries are architectural, so a run restored from a
    /// [`ProcessorSnapshot`] taken there stops on the same boundary as
    /// the uninterrupted run.
    pub fn run_to_instret(&mut self, target: u64) -> Option<RunOutcome> {
        if let Some(done) = self.done {
            return Some(done);
        }
        if let Some(cache) = self.block_cache.clone() {
            while self.instret < target {
                if let Some(outcome) = self.step_block_in(&cache) {
                    return Some(outcome);
                }
            }
        } else {
            while self.instret < target {
                if let Some(outcome) = self.step() {
                    return Some(outcome);
                }
            }
        }
        None
    }

    /// Run until the program ends (one way or another).
    pub fn run(&mut self) -> RunOutcome {
        if let Some(cache) = self.block_cache.clone() {
            // One shared handle for the whole run: the per-dispatch
            // refcount traffic of cloning inside `step_block` is
            // measurable on two-instruction loop blocks.
            loop {
                if let Some(outcome) = self.step_block_in(&cache) {
                    return outcome;
                }
            }
        }
        loop {
            if let Some(outcome) = self.step() {
                return outcome;
            }
        }
    }

    /// Execute one instruction. Returns `Some` when the run has ended.
    ///
    /// The per-cycle loop is allocation-free: the threaded stage
    /// programs run over a reusable slot array, exceptions land in a
    /// reusable buffer, and decode is served from the predecoded image
    /// whenever the fetch bus delivered exactly the word that was
    /// predecoded (any divergence — tampering, bus faults, jumps
    /// outside the image — falls back to live decode).
    pub fn step(&mut self) -> Option<RunOutcome> {
        if let Some(done) = self.done {
            return Some(done);
        }
        if self.timing.cycles() > self.max_cycles {
            return self.finish(RunOutcome::MaxCycles);
        }
        if self.watchdog_fired() {
            return self.finish(RunOutcome::Watchdog);
        }

        let pc = self.pc;
        self.dp.write(DReg::Cpc, pc);
        self.env.exceptions.clear();
        self.env.last_check = None;

        // ---- IF: run the spec's micro-program (fetch, latch, hash). ----
        run_stage(
            &self.stage_if,
            &self.spec,
            true,
            &mut self.dp,
            &mut self.env,
            &mut self.slots,
        );
        let word = self.dp.read(DReg::IReg);
        self.step_after_fetch(pc, word)
    }

    /// Everything one instruction does after its word left the fetch
    /// stage: decode, block-end check, functional execute, timing, and
    /// exception resolution. Shared verbatim between [`Processor::step`]
    /// and the mid-block bail-out of [`Processor::step_block`], so a
    /// bailed instruction completes bit-identically to per-instruction
    /// stepping.
    fn step_after_fetch(&mut self, pc: u32, word: u32) -> Option<RunOutcome> {
        // ---- ID: decode (predecode fast path, live fallback). ----
        let entry = match self.predecoded.as_ref().and_then(|p| p.lookup(pc, word)) {
            Some(e) => *e,
            None => match Instr::decode(word) {
                Ok(i) => PredecodedEntry::new(pc, word, i),
                Err(_) => {
                    return self.finish(RunOutcome::Fault(FaultKind::IllegalInstruction {
                        pc,
                        word,
                    }));
                }
            },
        };

        // Shadow block tracking (monitor-independent trace).
        if self.record_blocks && self.shadow_block_start.is_none() {
            self.shadow_block_start = Some(pc);
        }

        // ---- ID: block-end check for control-flow instructions. ----
        // The exception (if any) is raised at the end of this ID cycle;
        // OS handling is charged *after* the instruction issues, so the
        // 100-cycle freeze cannot absorb the instruction's own operand
        // interlocks (see resolve_pending below).
        let mut pending = false;
        if entry.is_control_flow {
            if let Some(stage) = &self.stage_check {
                run_stage(
                    stage,
                    &self.spec,
                    false,
                    &mut self.dp,
                    &mut self.env,
                    &mut self.slots,
                );
                pending = !self.env.exceptions.is_empty();
            }
            if self.record_blocks {
                if let Some(start) = self.shadow_block_start.take() {
                    self.blocks.push(BlockEvent {
                        key: BlockKey::new(start, pc),
                    });
                }
            }
        }

        // ---- Execute functionally (pre-bound executor function). ----
        let exec = match (entry.exec)(self, pc, &entry) {
            Ok(e) => e,
            Err(fault) => return self.finish(RunOutcome::Fault(fault)),
        };

        // ---- Timing (the slice-based path: the oracle the mask and
        // block fast paths are differentially tested against). ----
        self.timing.issue(
            entry.klass,
            entry.sources.as_slice(),
            entry.reads_hi,
            entry.reads_lo,
            entry.dest,
            entry.writes_hilo,
            exec.taken,
        );
        self.instret += 1;

        // ---- Monitoring exception resolution (after issue). ----
        if pending {
            if let Some(outcome) = self.resolve_pending(pc) {
                return self.finish(outcome);
            }
        }

        if let Some(code) = exec.exit {
            return self.finish(RunOutcome::Exited { code });
        }
        self.pc = exec.next_pc;
        None
    }

    /// Execute one whole cached basic block per dispatch — the fast
    /// path. Returns `Some` when the run has ended.
    ///
    /// Architectural state (registers, memory, timing, monitor state,
    /// every statistic) advances per instruction exactly as
    /// [`Processor::step`] would, but the per-instruction machinery —
    /// stage micro-programs, datapath register traffic, predecode
    /// lookups, scratch-buffer resets — is hoisted to block boundaries,
    /// mirroring how the paper's CIC checks integrity only at a block's
    /// terminating control-flow instruction.
    ///
    /// The bail-out contract: any mid-block surprise returns to the
    /// per-instruction path with bit-identical state. A delivered word
    /// differing from its predecoded form (stored-image tampering, an
    /// in-flight bus-tap fault) finishes *that* instruction — with the
    /// word the bus actually delivered, never a refetch — through the
    /// same [`step_after_fetch`](Processor::step) tail `step` uses; the
    /// cycle budget is polled before every instruction so `MaxCycles`
    /// lands on exactly the instruction it would under per-instruction
    /// stepping; hash-miss stalls and kill verdicts resolve at the
    /// block-terminating instruction, where the per-instruction path
    /// resolves them too. When no block is cached for the current PC
    /// (live-decode territory) this defers to [`Processor::step`].
    pub fn step_block(&mut self) -> Option<RunOutcome> {
        let cache = match &self.block_cache {
            Some(c) => c.clone(),
            None => {
                if let Some(done) = self.done {
                    return Some(done);
                }
                return self.step();
            }
        };
        self.step_block_in(&cache)
    }

    /// [`Processor::step_block`] against a caller-held handle to this
    /// processor's own block cache (hot loops avoid re-cloning the
    /// `Arc` per dispatch).
    fn step_block_in(&mut self, cache: &BlockCache) -> Option<RunOutcome> {
        if let Some(done) = self.done {
            return Some(done);
        }
        if self.watchdog_fired() {
            return self.finish(RunOutcome::Watchdog);
        }
        let pc = self.pc;

        // ---- Superblock chaining: resolve the dispatch slot through
        // the previous block's cached successor edge when possible,
        // falling back to (and refreshing the edge from) the cache
        // lookup. The edge caches only the PC→slot mapping — block
        // validation below still runs on every dispatch, so a chained
        // entry can never skip a tamper check.
        let slot = match self.chain_from.take() {
            Some((from, taken)) => {
                let edges = &self.chain[from as usize];
                let edge = if taken { edges.taken } else { edges.fall };
                if edge.slot != u32::MAX && edge.pc == pc {
                    self.block_stats.chain_hits += 1;
                    Some(edge.slot)
                } else {
                    self.block_stats.chain_misses += 1;
                    let found = cache.slot_at(pc);
                    if let Some(s) = found {
                        let edges = &mut self.chain[from as usize];
                        let edge = if taken {
                            &mut edges.taken
                        } else {
                            &mut edges.fall
                        };
                        *edge = ChainEdge { pc, slot: s };
                    }
                    found
                }
            }
            None => cache.slot_at(pc),
        };
        let slot = match slot {
            Some(s) => s,
            None => return self.step(),
        };
        let block = cache.block_at_slot(slot);

        // Bulk validation: with a clean bus, one comparison against the
        // dense text region proves every word the per-word path would
        // fetch. Ineligibility (tap installed, block outside the dense
        // region) or failure (tampering) selects per-word fetching,
        // which is exact in all cases and bails out at the diverging
        // word. A comparison that passed stays proven while the
        // memory's dense-region epoch is unchanged (no write has changed
        // the text), so hot re-dispatches skip the bytes entirely.
        // The bulk loops re-read the epoch after every store that is not
        // the block's last instruction, and split the dispatch when one
        // changed the text.
        let epoch = self.env.mem.dense_epoch();
        let bulk = !self.env.bus.has_tap() && {
            self.memo[slot as usize].epoch == epoch || {
                let ok = match self.env.mem.dense_region() {
                    Some((base, bytes)) => {
                        let off = pc.wrapping_sub(base) as usize;
                        bytes.get(off..off.wrapping_add(block.bytes.len())) == Some(block.bytes)
                    }
                    None => false,
                };
                if ok {
                    self.memo[slot as usize].epoch = epoch;
                }
                ok
            }
        };
        let monitored = self.stage_check.is_some();
        // Baseline specs never touch STA/RHASH: skip the datapath
        // round-trips (the bail path still writes the carried values,
        // which are the registers' resting state, zero).
        let (mut sta, mut rhash) = if monitored {
            (self.dp.read(DReg::Sta), self.dp.read(DReg::Rhash))
        } else {
            (0, 0)
        };
        self.block_stats.dispatches += 1;
        let dispatch_start = self.instret;

        let mut reached = 0u64;
        let exit = if bulk {
            // Fused block-static timing: when the precomputed schedule
            // replays (no binding live-in interlock, budget cannot
            // interrupt the body), the whole straight-line body issues
            // in one `Timing::issue_block` call; otherwise every
            // instruction issues through the mask fast path.
            let plan = cache.plan_at(slot);
            let s = slot as usize;
            let skip = self.live_in_skip[s] >= LIVE_IN_SKIP_AFTER;
            let checks = if skip {
                plan.binding_live_in_checks()
            } else {
                plan.live_in_checks()
            };
            let planned =
                self.plans_ok && self.timing.plan_fits_prefix(plan, self.max_cycles, checks);
            // The provably-dead tail was evaluated and (by construction)
            // did not fire: advance the slot's skip streak toward
            // dropping it.
            if !skip && self.plans_ok && plan.provably_dead_checks() > 0 {
                self.live_in_skip[s] += 1;
            }
            if planned {
                self.block_loop_planned(
                    s,
                    block.entries,
                    block.words,
                    plan,
                    epoch,
                    monitored,
                    &mut sta,
                    &mut rhash,
                    &mut reached,
                )
            } else {
                self.block_loop::<true>(
                    block.entries,
                    epoch,
                    monitored,
                    &mut sta,
                    &mut rhash,
                    &mut reached,
                )
            }
        } else {
            self.block_loop::<false>(
                block.entries,
                epoch,
                monitored,
                &mut sta,
                &mut rhash,
                &mut reached,
            )
        };
        if bulk {
            // Bulk validation stood in for the per-word fetches of
            // exactly the instructions the loop reached (an early
            // `MaxCycles` never fetches the instruction it stops on, so
            // the count matches per-instruction stepping).
            self.env.bus.note_fetches(reached);
        }
        if let BlockLoopExit::Bail { pc, word } = exit {
            // Mid-block surprise: hand exactly this instruction — with
            // the word the bus actually delivered — to the
            // per-instruction path, the datapath synced to what the IF
            // micro-program would have produced. The tampered block's
            // cached successor edges are dropped with it.
            self.block_stats.bailouts += 1;
            if let Some(edges) = self.chain.get_mut(slot as usize) {
                *edges = ChainEdges::EMPTY;
            }
            self.account_dispatch(dispatch_start);
            self.dp.write(DReg::Cpc, pc.wrapping_add(INSTR_BYTES));
            self.dp.write(DReg::IReg, word);
            self.dp.write(DReg::Ppc, pc);
            self.dp.write(DReg::Sta, sta);
            self.dp.write(DReg::Rhash, rhash);
            self.env.exceptions.clear();
            self.env.last_check = None;
            return self.step_after_fetch(pc, word);
        }

        // Re-sync the datapath registers the per-instruction path
        // consumes (STA as the block-start guard, RHASH as the check
        // program's hash input); CPC/PPC/IReg are rewritten by the IF
        // micro-program before any read.
        if monitored {
            self.dp.write(DReg::Sta, sta);
            self.dp.write(DReg::Rhash, rhash);
        }
        self.account_dispatch(dispatch_start);
        match exit {
            BlockLoopExit::Finished(outcome) => self.finish(outcome),
            BlockLoopExit::Done { taken } => {
                // A clean bulk-validated dispatch links its resolved
                // control transfer for the next dispatch; per-word
                // dispatches (taps or tampering possible) never form
                // chains.
                if bulk && !self.chain.is_empty() {
                    self.chain_from = Some((slot, taken));
                }
                None
            }
            BlockLoopExit::Split => {
                // A store wrote the text: the next dispatch starts at
                // the instruction after it, unchained, and revalidates
                // against the new memory.
                self.block_stats.splits += 1;
                None
            }
            BlockLoopExit::Bail { .. } => unreachable!("handled above"),
        }
    }

    /// The per-instruction body of one block dispatch, specialised on
    /// the validation mode: with `BULK` the block's words were already
    /// proven identical to memory at text epoch `epoch`, so the loop
    /// carries no fetch calls, word comparisons, or bail-out arm — only
    /// an epoch re-read after each store before the last entry, which
    /// exits with [`BlockLoopExit::Split`] once a store wrote the text
    /// (a final store leaves none of the block to revalidate); without
    /// it every word goes through the real fetch bus (taps fire in
    /// order, self-modification is fetched as written) and any
    /// divergence exits with [`BlockLoopExit::Bail`].
    fn block_loop<const BULK: bool>(
        &mut self,
        entries: &[PredecodedEntry],
        epoch: u64,
        monitored: bool,
        sta: &mut u32,
        rhash: &mut u32,
        reached: &mut u64,
    ) -> BlockLoopExit {
        let mut taken = false;
        let last = entries.len() - 1;
        for (i, entry) in entries.iter().enumerate() {
            let pc = self.pc;
            if self.timing.cycles() > self.max_cycles {
                return BlockLoopExit::Finished(RunOutcome::MaxCycles);
            }
            let word = if BULK {
                *reached += 1;
                entry.word
            } else {
                self.env.bus.fetch(&self.env.mem, pc).unwrap_or(0)
            };
            if monitored {
                *rhash = self.env.monitor.observe_fetch(word);
                if *sta == 0 {
                    *sta = pc;
                }
            }
            if !BULK && word != entry.word {
                return BlockLoopExit::Bail { pc, word };
            }
            if self.record_blocks && self.shadow_block_start.is_none() {
                self.shadow_block_start = Some(pc);
            }

            // ---- Block-end check (ID of the control-flow instruction,
            // which by construction is the block's last entry). ----
            let mut pending = None;
            if entry.is_control_flow {
                if monitored {
                    let key = BlockKey::new(*sta, pc);
                    let (found, matched) = self.env.monitor.check_block(key, *rhash);
                    if !found {
                        pending = Some((ExceptionKind::HashMiss, key, *rhash));
                    } else if !matched {
                        pending = Some((ExceptionKind::HashMismatch, key, *rhash));
                    }
                    *sta = 0;
                    *rhash = self.dp.rhash_seed;
                    self.env.monitor.hash_reset();
                }
                if self.record_blocks {
                    if let Some(start) = self.shadow_block_start.take() {
                        self.blocks.push(BlockEvent {
                            key: BlockKey::new(start, pc),
                        });
                    }
                }
            }

            // ---- Execute + timing, identical to the slow path (the
            // pre-bound executor function and the mask-based issue are
            // differentially tested against the slice path). ----
            let exec = match (entry.exec)(self, pc, entry) {
                Ok(e) => e,
                Err(fault) => return BlockLoopExit::Finished(RunOutcome::Fault(fault)),
            };
            self.timing
                .issue_masks(entry.klass, entry.src_mask, entry.dest_mask, exec.taken);
            self.instret += 1;
            taken = exec.taken;

            // ---- Exception resolution (after issue). ----
            if let Some((kind, key, hash)) = pending {
                match self.env.monitor.resolve(kind, key, hash) {
                    Verdict::Continue { stall_cycles } => self.timing.stall(stall_cycles),
                    Verdict::Kill(cause) => {
                        return BlockLoopExit::Finished(RunOutcome::Detected { cause, pc });
                    }
                }
            }
            if let Some(code) = exec.exit {
                return BlockLoopExit::Finished(RunOutcome::Exited { code });
            }
            self.pc = exec.next_pc;
            if BULK && entry.is_store && i < last && self.env.mem.dense_epoch() != epoch {
                return BlockLoopExit::Split;
            }
        }
        BlockLoopExit::Done { taken }
    }

    /// The fused-timing variant of one bulk-validated block dispatch:
    /// the straight-line body (every entry but the terminator) executes
    /// without per-instruction scheduler calls — its precomputed
    /// [`BlockPlan`](crate::timing::BlockPlan) replays in a single
    /// [`Timing::issue_block`] once the body completes — and only the
    /// terminating instruction, whose redirect and monitor verdict are
    /// dynamic, issues individually.
    ///
    /// Callers must have established [`Timing::plan_fits`]: no live-in
    /// interlock binds and the cycle budget cannot expire before the
    /// terminator's poll, so skipping the per-body-entry polls and
    /// issues is exact. The body contains no control flow by
    /// construction, so it cannot exit, redirect, or resolve monitor
    /// verdicts, and executing it never touches the monitor. A body
    /// store that leaves the text epoch at `epoch` left every word the
    /// block has yet to execute as validated — which is what lets the
    /// hash observes of the executed words batch into one
    /// [`Monitor::observe_block`] call after the body completes (same
    /// words, same order, same `words_hashed` count as observing each
    /// before its execute). There are two early exits, each observing
    /// and issuing exactly the prefix sequential stepping would have:
    /// an execution fault, and a store that wrote the text
    /// ([`BlockLoopExit::Split`], right after the store).
    ///
    /// A block that starts fresh (`STA` = 0, the hash unit in its reset
    /// state) and reaches its terminator here hashes exactly the slot's
    /// cached `words` from the reset state, so its digest depends on
    /// nothing else: the first such dispatch memoizes it in the slot's
    /// [`SlotMemo`], and later ones hand it to
    /// [`Monitor::check_memoized`] instead of hashing again. Text writes
    /// cannot stale the memo (the cached words never change; a dispatch
    /// whose memory differs from them is not bulk-validated), and bus
    /// taps force the per-word path, which never reads it.
    #[allow(clippy::too_many_arguments)]
    fn block_loop_planned(
        &mut self,
        slot: usize,
        entries: &[PredecodedEntry],
        words: &[u32],
        plan: &crate::timing::BlockPlan,
        epoch: u64,
        monitored: bool,
        sta: &mut u32,
        rhash: &mut u32,
        reached: &mut u64,
    ) -> BlockLoopExit {
        let x = self.timing.block_entry_id();
        let (body, term) = entries.split_at(entries.len() - 1);
        debug_assert_eq!(body.len(), plan.body_len());
        let start_pc = self.pc;
        if self.record_blocks && self.shadow_block_start.is_none() {
            self.shadow_block_start = Some(start_pc);
        }
        let mut early = None;
        let mut executed = 0usize;
        for entry in body {
            debug_assert!(!entry.is_control_flow, "body entries are straight-line");
            let pc = self.pc;
            match (entry.exec)(self, pc, entry) {
                Ok(exec) => {
                    debug_assert!(!exec.taken && exec.exit.is_none());
                    self.pc = exec.next_pc;
                    executed += 1;
                    if entry.is_store && self.env.mem.dense_epoch() != epoch {
                        early = Some(BlockLoopExit::Split);
                        break;
                    }
                }
                Err(f) => {
                    early = Some(BlockLoopExit::Finished(RunOutcome::Fault(f)));
                    break;
                }
            }
        }
        if let Some(exit) = early {
            // Sequential stepping observes an instruction's word before
            // executing it, so the last instruction reached (the store
            // that wrote the text, or the faulting one) is observed too
            // — but nothing past it. Commit the prefix that issued, one
            // instruction at a time, exactly as sequential stepping
            // would have left the schedule; a faulting instruction
            // never issues.
            let observed = match exit {
                BlockLoopExit::Split => executed,
                _ => executed + 1,
            };
            *reached += observed as u64;
            if monitored {
                *rhash = self.env.monitor.observe_block(&words[..observed]);
                if *sta == 0 {
                    *sta = start_pc;
                }
            }
            for e in &body[..executed] {
                self.timing
                    .issue_masks(e.klass, e.src_mask, e.dest_mask, false);
            }
            self.instret += executed as u64;
            return exit;
        }

        // The body completed, and `plan_fits` already proved the cycle
        // budget cannot interrupt before the terminator's poll — so the
        // terminator's word is certain to be observed as well, and the
        // whole block batches into a single monitor transaction.
        *reached += entries.len() as u64;
        if !body.is_empty() {
            self.timing.issue_block(plan, x);
            self.instret += body.len() as u64;
        }

        // ---- The terminator, inline: block-end check, execute,
        // dynamic issue (its redirect and verdict are dynamic),
        // exception resolution — the same sequence `block_loop` runs
        // per entry, minus the budget poll `plan_fits` subsumed, with
        // the block's observe/check/reset fused into one monitor call.
        let entry = &term[0];
        let pc = self.pc;
        let mut pending = None;
        if monitored {
            if entry.is_control_flow {
                let fresh = *sta == 0;
                let start = if fresh { start_pc } else { *sta };
                let key = BlockKey::new(start, pc);
                let (digest, found, matched) = match self.memo[slot].digest {
                    Some(digest) if fresh => self.env.monitor.check_memoized(words, key, digest),
                    _ => {
                        let txn = self.env.monitor.observe_check_reset(words, key);
                        if fresh {
                            self.memo[slot].digest = Some(txn.0);
                        }
                        txn
                    }
                };
                if !found {
                    pending = Some((ExceptionKind::HashMiss, key, digest));
                } else if !matched {
                    pending = Some((ExceptionKind::HashMismatch, key, digest));
                }
                *sta = 0;
                *rhash = self.dp.rhash_seed;
            } else {
                *rhash = self.env.monitor.observe_block(words);
                if *sta == 0 {
                    *sta = start_pc;
                }
            }
        }
        if entry.is_control_flow && self.record_blocks {
            if let Some(start) = self.shadow_block_start.take() {
                self.blocks.push(BlockEvent {
                    key: BlockKey::new(start, pc),
                });
            }
        }
        let exec = match (entry.exec)(self, pc, entry) {
            Ok(e) => e,
            Err(f) => return BlockLoopExit::Finished(RunOutcome::Fault(f)),
        };
        self.timing
            .issue_masks(entry.klass, entry.src_mask, entry.dest_mask, exec.taken);
        self.instret += 1;
        if let Some((kind, key, hash)) = pending {
            match self.env.monitor.resolve(kind, key, hash) {
                Verdict::Continue { stall_cycles } => self.timing.stall(stall_cycles),
                Verdict::Kill(cause) => {
                    return BlockLoopExit::Finished(RunOutcome::Detected { cause, pc });
                }
            }
        }
        if let Some(code) = exec.exit {
            return BlockLoopExit::Finished(RunOutcome::Exited { code });
        }
        self.pc = exec.next_pc;
        BlockLoopExit::Done { taken: exec.taken }
    }

    /// Fold one finished dispatch into the block-exec counters.
    fn account_dispatch(&mut self, dispatch_start: u64) {
        let n = self.instret - dispatch_start;
        self.block_stats.instructions += n;
        if n > self.block_stats.max_block {
            self.block_stats.max_block = n;
        }
    }

    fn finish(&mut self, outcome: RunOutcome) -> Option<RunOutcome> {
        self.done = Some(outcome);
        Some(outcome)
    }

    /// Sort out monitoring exceptions raised by the ID check program
    /// (waiting in the environment's exception buffer) by asking the
    /// monitor plane for a verdict on each.
    fn resolve_pending(&mut self, pc: u32) -> Option<RunOutcome> {
        let (key, hash, _found, _matched) = self
            .env
            .last_check
            .unwrap_or_else(|| unreachable!("exception implies a lookup happened"));
        for i in 0..self.env.exceptions.len() {
            let kind = self.env.exceptions[i];
            match self.env.monitor.resolve(kind, key, hash) {
                Verdict::Continue { stall_cycles } => self.timing.stall(stall_cycles),
                Verdict::Kill(cause) => return Some(RunOutcome::Detected { cause, pc }),
            }
        }
        None
    }

    fn access_memory(&mut self, pc: u32, op: IOpcode, rt: Reg, addr: u32) -> Result<(), FaultKind> {
        let fault = |_| FaultKind::MemFault { pc };
        match op {
            IOpcode::Lb => {
                let v = self.env.mem.read_u8(addr) as i8 as i32 as u32;
                self.regs.write(rt, v);
            }
            IOpcode::Lbu => {
                let v = self.env.mem.read_u8(addr) as u32;
                self.regs.write(rt, v);
            }
            IOpcode::Lh => {
                let v = self.env.mem.read_u16(addr).map_err(fault)? as i16 as i32 as u32;
                self.regs.write(rt, v);
            }
            IOpcode::Lhu => {
                let v = self.env.mem.read_u16(addr).map_err(fault)? as u32;
                self.regs.write(rt, v);
            }
            IOpcode::Lw => {
                let v = self.env.mem.read_u32(addr).map_err(fault)?;
                self.regs.write(rt, v);
            }
            IOpcode::Sb => self.env.mem.write_u8(addr, self.regs.read(rt) as u8),
            IOpcode::Sh => {
                self.env
                    .mem
                    .write_u16(addr, self.regs.read(rt) as u16)
                    .map_err(fault)?;
            }
            IOpcode::Sw => {
                self.env
                    .mem
                    .write_u32(addr, self.regs.read(rt))
                    .map_err(fault)?;
            }
            _ => unreachable!("not a memory opcode"),
        }
        Ok(())
    }
}

/// The control-flow effect of one executed instruction.
pub(crate) struct Exec {
    next_pc: u32,
    taken: bool,
    exit: Option<u32>,
}

impl Exec {
    /// The common case: fall through to the next sequential PC.
    #[inline]
    fn fall_through(pc: u32) -> Exec {
        Exec {
            next_pc: pc.wrapping_add(INSTR_BYTES),
            taken: false,
            exit: None,
        }
    }
}

/// One cached successor edge of a dispatched block: the PC control
/// transferred to and the block slot serving it. `slot == u32::MAX`
/// marks an unresolved edge.
#[derive(Clone, Copy, Debug)]
struct ChainEdge {
    pc: u32,
    slot: u32,
}

/// What a processor remembers about one block slot between dispatches.
#[derive(Clone, Copy, Debug)]
struct SlotMemo {
    /// The memory dense-region epoch the block was last bulk-validated
    /// at (`u64::MAX` = never): while no write lands in the text
    /// region, re-dispatching the block skips the byte comparison
    /// entirely.
    epoch: u64,
    /// The block's digest from the hash unit's reset state, once a
    /// planned dispatch has computed it (see
    /// [`Processor::block_loop_planned`]). Cleared by
    /// [`Processor::restore`].
    digest: Option<u32>,
}

impl SlotMemo {
    const EMPTY: SlotMemo = SlotMemo {
        epoch: u64::MAX,
        digest: None,
    };
}

/// The taken and fall-through successor edges of one block slot.
#[derive(Clone, Copy, Debug)]
struct ChainEdges {
    taken: ChainEdge,
    fall: ChainEdge,
}

impl ChainEdges {
    const EMPTY: ChainEdges = ChainEdges {
        taken: ChainEdge {
            pc: 0,
            slot: u32::MAX,
        },
        fall: ChainEdge {
            pc: 0,
            slot: u32::MAX,
        },
    };
}

/// A pre-bound executor for one predecoded instruction: the
/// [`ThreadedProgram`] trick applied to instruction execution. Each
/// function is monomorphic over one instruction shape, so block replay
/// is a loop over `(fn pointer, predecoded operands)` pairs instead of
/// a three-level enum match per executed instruction.
pub(crate) type ExecFn = fn(&mut Processor, u32, &PredecodedEntry) -> Result<Exec, FaultKind>;

/// Select the executor function for a decoded instruction — the bind
/// step [`PredecodedEntry::new`] runs once per decode.
pub(crate) fn bind_exec(instr: &Instr) -> ExecFn {
    match instr {
        Instr::R(r) => match r.funct {
            Funct::Jr => exec_jr,
            Funct::Jalr => exec_jalr,
            Funct::Syscall => exec_syscall,
            Funct::Break => exec_break,
            Funct::Mfhi => exec_mfhi,
            Funct::Mflo => exec_mflo,
            Funct::Mthi => exec_mthi,
            Funct::Mtlo => exec_mtlo,
            _ => exec_alu_r,
        },
        Instr::I(i) => {
            if i.opcode.is_branch() {
                exec_branch
            } else if i.opcode.is_load() || i.opcode.is_store() {
                exec_mem
            } else {
                exec_alu_i
            }
        }
        Instr::J(j) => match j.opcode {
            cimon_isa::JOpcode::J => exec_j,
            cimon_isa::JOpcode::Jal => exec_jal,
        },
    }
}

/// Unwrap the R-type payload an R-bound executor was paired with.
macro_rules! r_type {
    ($e:expr) => {
        match $e.instr {
            Instr::R(r) => r,
            _ => unreachable!("bound to an R-type instruction"),
        }
    };
}

/// Unwrap the I-type payload an I-bound executor was paired with.
macro_rules! i_type {
    ($e:expr) => {
        match $e.instr {
            Instr::I(i) => i,
            _ => unreachable!("bound to an I-type instruction"),
        }
    };
}

fn exec_jr(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    let target = cpu.regs.read(r.rs);
    if target % 4 != 0 {
        return Err(FaultKind::AddressError { pc, target });
    }
    Ok(Exec {
        next_pc: target,
        taken: true,
        exit: None,
    })
}

fn exec_jalr(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    let target = cpu.regs.read(r.rs);
    if target % 4 != 0 {
        return Err(FaultKind::AddressError { pc, target });
    }
    cpu.regs.write(r.rd, pc.wrapping_add(INSTR_BYTES));
    Ok(Exec {
        next_pc: target,
        taken: true,
        exit: None,
    })
}

fn exec_syscall(cpu: &mut Processor, pc: u32, _e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let mut exec = Exec::fall_through(pc);
    exec.taken = true; // trap redirects fetch
    let number = cpu.regs.read(Syscall::NUMBER_REG);
    let a0 = cpu.regs.read(Syscall::ARG0_REG);
    match Syscall::from_number(number) {
        Some(Syscall::Exit) => exec.exit = Some(a0),
        Some(Syscall::PrintInt) => {
            cpu.console.push(ConsoleEvent::Int(a0 as i32));
        }
        Some(Syscall::PrintChar) => {
            cpu.console
                .push(ConsoleEvent::Char((a0 & 0xff) as u8 as char));
        }
        Some(Syscall::ReadCycles) => {
            let c = cpu.timing.cycles() as u32;
            cpu.regs.write(Reg::V0, c);
        }
        None => return Err(FaultKind::BadSyscall { pc, number }),
    }
    Ok(exec)
}

fn exec_break(_cpu: &mut Processor, pc: u32, _e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    Err(FaultKind::BreakTrap { pc })
}

fn exec_mfhi(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    cpu.regs.write(r.rd, cpu.hi);
    Ok(Exec::fall_through(pc))
}

fn exec_mflo(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    cpu.regs.write(r.rd, cpu.lo);
    Ok(Exec::fall_through(pc))
}

fn exec_mthi(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    cpu.hi = cpu.regs.read(r.rs);
    Ok(Exec::fall_through(pc))
}

fn exec_mtlo(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    cpu.lo = cpu.regs.read(r.rs);
    Ok(Exec::fall_through(pc))
}

fn exec_alu_r(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let r = r_type!(e);
    let a = cpu.regs.read(r.rs);
    let b = cpu.regs.read(r.rt);
    match semantics::alu_r(r.funct, a, b, r.shamt) {
        semantics::AluOut::Gpr(v) => cpu.regs.write(r.rd, v),
        semantics::AluOut::HiLo { hi, lo } => {
            cpu.hi = hi;
            cpu.lo = lo;
        }
    }
    Ok(Exec::fall_through(pc))
}

fn exec_branch(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let i = i_type!(e);
    let a = cpu.regs.read(i.rs);
    let b = cpu.regs.read(i.rt);
    let mut exec = Exec::fall_through(pc);
    if semantics::branch_taken(i.opcode, a, b) {
        // The destination was resolved at predecode time (it depends
        // only on the instruction's own PC).
        exec.next_pc = e.target;
        exec.taken = true;
    }
    Ok(exec)
}

fn exec_mem(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let i = i_type!(e);
    let addr = semantics::effective_address(cpu.regs.read(i.rs), i.imm);
    cpu.access_memory(pc, i.opcode, i.rt, addr)?;
    Ok(Exec::fall_through(pc))
}

fn exec_alu_i(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    let i = i_type!(e);
    let v = semantics::alu_i(i.opcode, cpu.regs.read(i.rs), i.imm);
    cpu.regs.write(i.rt, v);
    Ok(Exec::fall_through(pc))
}

fn exec_j(_cpu: &mut Processor, _pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    Ok(Exec {
        next_pc: e.target,
        taken: true,
        exit: None,
    })
}

fn exec_jal(cpu: &mut Processor, pc: u32, e: &PredecodedEntry) -> Result<Exec, FaultKind> {
    cpu.regs.write(Reg::RA, pc.wrapping_add(INSTR_BYTES));
    Ok(Exec {
        next_pc: e.target,
        taken: true,
        exit: None,
    })
}

/// How one block-dispatch loop ended.
enum BlockLoopExit {
    /// Every entry executed; the block completed normally, exiting
    /// through its taken (`true`) or fall-through (`false`) edge.
    Done {
        /// Whether the terminating instruction redirected fetch.
        taken: bool,
    },
    /// The run ended (exit, fault, detection, cycle budget).
    Finished(RunOutcome),
    /// A store before the block's last instruction wrote the program
    /// text: the bulk dispatch ended right after it, and the next one
    /// revalidates.
    Split,
    /// A delivered word diverged from its predecoded form: the current
    /// instruction must complete on the per-instruction path.
    Bail { pc: u32, word: u32 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_asm::assemble;
    use cimon_core::hash::hash_words;
    use cimon_core::BlockRecord;
    use cimon_microop::HashAlgoKind;

    fn run_baseline(src: &str) -> (RunOutcome, Processor) {
        let prog = assemble(src).expect("assembles");
        let mut cpu = Processor::new(&prog.image, ProcessorConfig::baseline());
        let out = cpu.run();
        (out, cpu)
    }

    const SUM_LOOP: &str = "
        .text
    main:
        li   $t0, 10
        li   $t1, 0
    loop:
        addu $t1, $t1, $t0
        addiu $t0, $t0, -1
        bnez $t0, loop
        move $a0, $t1
        li   $v0, 10
        syscall
    ";

    #[test]
    fn sum_loop_exits_with_result() {
        let (out, cpu) = run_baseline(SUM_LOOP);
        assert_eq!(out, RunOutcome::Exited { code: 55 });
        assert_eq!(cpu.stats().instructions, 2 + 10 * 3 + 3);
        assert!(cpu.cycles() > cpu.stats().instructions); // bubbles exist
    }

    #[test]
    fn memory_and_calls_work() {
        let (out, cpu) = run_baseline(
            "
            .data
        arr: .word 3, 1, 4, 1, 5
        out_: .space 4
            .text
        main:
            la   $a0, arr
            li   $a1, 5
            jal  sum
            la   $t0, out_
            sw   $v0, 0($t0)
            move $a0, $v0
            li   $v0, 10
            syscall
        sum:
            li   $v0, 0
            li   $t1, 0
        sloop:
            sll  $t2, $t1, 2
            addu $t2, $a0, $t2
            lw   $t3, 0($t2)
            addu $v0, $v0, $t3
            addiu $t1, $t1, 1
            blt  $t1, $a1, sloop
            jr   $ra
        ",
        );
        assert_eq!(out, RunOutcome::Exited { code: 14 });
        let out_addr = cimon_mem::image::DATA_BASE + 20;
        assert_eq!(cpu.mem().read_u32(out_addr).unwrap(), 14);
    }

    #[test]
    fn console_syscalls_record_events() {
        let (out, cpu) = run_baseline(
            "
            .text
        main:
            li $a0, -7
            li $v0, 1
            syscall
            li $a0, 'X'
            li $v0, 11
            syscall
            li $v0, 10
            li $a0, 0
            syscall
        ",
        );
        assert_eq!(out, RunOutcome::Exited { code: 0 });
        assert_eq!(
            cpu.stats().console,
            vec![ConsoleEvent::Int(-7), ConsoleEvent::Char('X')]
        );
    }

    #[test]
    fn illegal_instruction_faults() {
        let prog = assemble(".text\nmain: nop\nsyscall\n").unwrap();
        let mut cpu = Processor::new(&prog.image, ProcessorConfig::baseline());
        // Overwrite the nop with an unassigned opcode pattern.
        cpu.mem_mut()
            .write_u32(prog.image.entry, 0xffff_ffff)
            .unwrap();
        match cpu.run() {
            RunOutcome::Fault(FaultKind::IllegalInstruction { pc, word }) => {
                assert_eq!(pc, prog.image.entry);
                assert_eq!(word, 0xffff_ffff);
            }
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn bad_syscall_number_faults() {
        let (out, _) = run_baseline(".text\nmain: li $v0, 99\nsyscall\n");
        assert!(matches!(
            out,
            RunOutcome::Fault(FaultKind::BadSyscall { number: 99, .. })
        ));
    }

    #[test]
    fn misaligned_jr_faults() {
        let (out, _) = run_baseline(".text\nmain: li $t0, 3\njr $t0\n");
        assert!(matches!(
            out,
            RunOutcome::Fault(FaultKind::AddressError { target: 3, .. })
        ));
    }

    #[test]
    fn misaligned_load_faults() {
        let (out, _) = run_baseline(".text\nmain: li $t0, 2\nlw $t1, 0($t0)\n");
        assert!(matches!(out, RunOutcome::Fault(FaultKind::MemFault { .. })));
    }

    #[test]
    fn break_faults() {
        let (out, _) = run_baseline(".text\nmain: break\n");
        assert!(matches!(
            out,
            RunOutcome::Fault(FaultKind::BreakTrap { .. })
        ));
    }

    #[test]
    fn max_cycles_stops_runaway() {
        let prog = assemble(".text\nmain: j main\n").unwrap();
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig {
                max_cycles: 10_000,
                ..ProcessorConfig::baseline()
            },
        );
        assert_eq!(cpu.run(), RunOutcome::MaxCycles);
    }

    #[test]
    fn block_recording_captures_dynamic_blocks() {
        let prog = assemble(SUM_LOOP).unwrap();
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig {
                record_blocks: true,
                ..ProcessorConfig::baseline()
            },
        );
        cpu.run();
        let blocks = cpu.blocks();
        // Block 1: main..bnez (first iteration: li,li,addu,addiu,bnez).
        // 9 more loop blocks, then the exit block.
        assert_eq!(blocks.len(), 11);
        let entry = prog.image.entry;
        assert_eq!(blocks[0].key, BlockKey::new(entry, entry + 16));
        assert_eq!(blocks[1].key, BlockKey::new(entry + 8, entry + 16));
        let last = blocks.last().unwrap();
        assert_eq!(last.key.end, entry + 28); // the syscall
    }

    /// Build the exact FHT for a program from its recorded trace.
    fn trace_fht(src: &str) -> (cimon_asm::Program, FullHashTable) {
        let prog = assemble(src).unwrap();
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig {
                record_blocks: true,
                ..ProcessorConfig::baseline()
            },
        );
        cpu.run();
        let mem = prog.image.to_memory();
        let fht = cpu
            .blocks()
            .iter()
            .map(|b| {
                let words = b.key.addresses().map(|a| mem.read_u32(a).unwrap());
                BlockRecord {
                    key: b.key,
                    hash: hash_words(HashAlgoKind::Xor, 0, words),
                }
            })
            .collect();
        (prog, fht)
    }

    #[test]
    fn monitored_clean_run_has_no_mismatches() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        );
        assert_eq!(cpu.run(), RunOutcome::Exited { code: 55 });
        let stats = cpu.stats();
        let cic = stats.cic.unwrap();
        assert_eq!(cic.mismatches, 0);
        assert_eq!(cic.checks, 11);
        // Cold IHT: at least the first block misses.
        assert!(cic.misses >= 1);
        assert_eq!(stats.os.unwrap().miss_exceptions, cic.misses);
        assert_eq!(stats.monitor_stall_cycles, cic.misses * 100);
    }

    #[test]
    fn monitored_run_matches_baseline_functionally() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let mut base = Processor::new(&prog.image, ProcessorConfig::baseline());
        let base_out = base.run();
        let mut mon = Processor::new(
            &prog.image,
            ProcessorConfig::monitored(CicConfig::with_entries(16), fht),
        );
        let mon_out = mon.run();
        assert_eq!(base_out, mon_out);
        assert_eq!(base.regs().snapshot(), mon.regs().snapshot());
        // Monitoring costs cycles (cold misses) but executes the same
        // instruction count.
        assert_eq!(base.stats().instructions, mon.stats().instructions);
        assert!(mon.cycles() >= base.cycles());
    }

    #[test]
    fn stored_image_tampering_is_detected() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        );
        // Flip one bit in the addu inside the loop: turn some bit of the
        // instruction word — the block hash must change.
        let victim = prog.image.entry + 8;
        let old = cpu.mem().read_u32(victim).unwrap();
        cpu.mem_mut().write_u32(victim, old ^ (1 << 20)).unwrap();
        match cpu.run() {
            RunOutcome::Detected { cause, pc } => {
                assert_eq!(pc, prog.image.entry + 16); // the bnez ends the block
                assert!(matches!(cause, TerminationCause::HashMismatch { .. }));
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn bus_fault_is_detected_without_touching_memory() {
        struct OneShot {
            target: u32,
            done: bool,
        }
        impl cimon_mem::BusTap for OneShot {
            fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
                if addr == self.target && !self.done {
                    self.done = true;
                    // Flip a register-field bit: still a valid instruction,
                    // so only the hash can catch it.
                    word ^ (1 << 18)
                } else {
                    word
                }
            }
        }
        let (prog, fht) = trace_fht(SUM_LOOP);
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        );
        cpu.set_bus_tap(Box::new(OneShot {
            target: prog.image.entry + 8,
            done: false,
        }));
        match cpu.run() {
            RunOutcome::Detected { cause, .. } => {
                assert!(matches!(cause, TerminationCause::HashMismatch { .. }));
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn unknown_block_terminates_via_fht() {
        // FHT deliberately missing the loop block: the OS must kill the
        // program on the first miss for it.
        let (prog, fht) = trace_fht(SUM_LOOP);
        let partial: FullHashTable = fht
            .iter()
            .filter(|r| r.key.start == prog.image.entry)
            .collect();
        let mut cpu = Processor::new(
            &prog.image,
            ProcessorConfig::monitored(CicConfig::with_entries(8), partial),
        );
        match cpu.run() {
            RunOutcome::Detected { cause, .. } => {
                assert!(matches!(cause, TerminationCause::UnknownBlock { .. }));
            }
            other => panic!("expected unknown-block detection, got {other:?}"),
        }
    }

    #[test]
    fn bigger_iht_never_misses_more() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let misses = |entries: usize| {
            let mut cpu = Processor::new(
                &prog.image,
                ProcessorConfig::monitored(CicConfig::with_entries(entries), fht.clone()),
            );
            cpu.run();
            cpu.stats().cic.unwrap().misses
        };
        assert!(misses(1) >= misses(8));
        assert!(misses(8) >= misses(32));
    }

    #[test]
    fn snapshot_restore_round_trips_mid_run() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        let mut a = Processor::new(&prog.image, config.clone());
        assert!(a.run_to_instret(17).is_none());
        let snap = a.snapshot();
        let out_a = a.run();
        let mut b = Processor::new(&prog.image, config);
        b.restore(&snap).unwrap();
        let out_b = b.run();
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.regs().snapshot(), b.regs().snapshot());
        assert_eq!(a.block_stats(), b.block_stats());
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn snapshot_to_bytes_round_trips_and_restores_identically() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        let mut a = Processor::new(&prog.image, config.clone());
        assert!(a.run_to_instret(17).is_none());
        let snap = a.snapshot();
        let bytes = snap.to_bytes();
        let decoded = ProcessorSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.checksum(), snap.checksum());
        assert_eq!(decoded.instret(), snap.instret());
        assert_eq!(decoded.fetch_count(), snap.fetch_count());
        assert_eq!(decoded.pc(), snap.pc());
        // Encoding is deterministic: a decoded snapshot re-encodes to
        // the same bytes (segment dedup and the differential suites
        // rely on this).
        assert_eq!(decoded.to_bytes(), bytes);

        // A run resumed from the decoded snapshot is byte-identical to
        // one resumed from the in-RAM original.
        let out_a = a.run();
        let mut b = Processor::new(&prog.image, config);
        b.restore(&decoded).unwrap();
        let out_b = b.run();
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.regs().snapshot(), b.regs().snapshot());
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn snapshot_from_bytes_rejects_corruption_everywhere() {
        let (prog, fht) = trace_fht(SUM_LOOP);
        let config = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
        let mut cpu = Processor::new(&prog.image, config);
        assert!(cpu.run_to_instret(17).is_none());
        let bytes = cpu.snapshot().to_bytes();
        // Truncation at any prefix is an error, never a panic.
        for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ProcessorSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A single flipped bit anywhere must be caught — by a field
        // validator or by the architectural integrity checksum.
        let mut step = 1;
        let mut i = 0;
        while i < bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            match ProcessorSnapshot::from_bytes(&corrupt) {
                Err(_) => {}
                Ok(decoded) => {
                    // Flips outside the checksummed architectural core
                    // (scheduler, chain edges, stats) decode cleanly;
                    // they are covered by the segment frame CRC above
                    // this layer. What must never happen is a clean
                    // decode whose *architectural* state changed.
                    assert_eq!(
                        decoded.compute_checksum(),
                        decoded.checksum(),
                        "flipped byte {i} produced an inconsistent decode"
                    );
                }
            }
            i += step;
            step = (step % 7) + 1; // sample positions, keep the test fast
        }
    }

    #[test]
    fn read_cycles_syscall_reports_progress() {
        let (out, cpu) = run_baseline(
            "
            .text
        main:
            li $v0, 30
            syscall
            move $a0, $v0
            li $v0, 10
            syscall
        ",
        );
        match out {
            RunOutcome::Exited { code } => {
                assert!(code > 0);
                assert!((code as u64) < cpu.cycles());
            }
            other => panic!("{other:?}"),
        }
    }
}
