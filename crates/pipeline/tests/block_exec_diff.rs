//! Differential property tests for basic-block superblock dispatch.
//!
//! Block execution is a pure dispatch optimisation: for random programs
//! — with stores into their own text, in-flight fetch-bus fault taps,
//! stored-image tampering, and mid-block cycle-budget interrupts thrown
//! in — a processor executing whole cached blocks per dispatch must
//! produce byte-identical outcomes, statistics (including every checker
//! and OS counter), cycle counts, and architectural state to one
//! stepping instruction by instruction. The deterministic tests at the
//! bottom additionally prove the mid-block bail-out and split paths
//! actually fire.

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::hash::hash_words;
use cimon_core::{BlockRecord, CicConfig, HashAlgoKind};
use cimon_mem::BusTap;
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockExec, BlockExecStats, Processor, ProcessorConfig, RunOutcome};

/// A one-shot transient fault: flip `bit` of the word fetched from
/// `target`, once.
struct OneShot {
    target: u32,
    bit: u8,
    done: bool,
}

impl BusTap for OneShot {
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
        if addr == self.target && !self.done {
            self.done = true;
            word ^ (1u32 << self.bit)
        } else {
            word
        }
    }
}

/// A generated random program: straight-line ALU/memory traffic with
/// forward branches, stores into its own text, and a clean exit, the
/// whole body run two or three times by an outer counted loop (so
/// blocks are re-dispatched; termination holds by construction).
#[derive(Clone, Debug)]
struct RandomProgram {
    source: String,
}

/// The generator behind [`arb_program`]: `n` body instructions drawn
/// from `seed`.
///
/// Text stores go through registers the prologue loads: `$s0`/`$s1`
/// point at two body words A and B, `$s2` holds A's original word
/// (storing it back rewrites the text without changing it), and
/// `$s3`/`$s4` hold donor words — decodable ALU instructions placed
/// after the exit that never run themselves. Every text store is one
/// instruction, so it lands at the first, a middle or the last body
/// position of its block; A and B may be a later word of the same
/// block or a word of another block. Donors are ALU instructions on
/// `$t` registers, so a patched program still only branches forward
/// inside the body and leaves the loop counter `$s5` alone.
fn random_program(n: usize, seed: u64) -> RandomProgram {
    use std::fmt::Write as _;
    let mut src = String::from("    .data\nbuf: .word ");
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    for i in 0..16 {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(src, "{sep}{}", next());
    }
    src.push_str("\n    .text\nmain:\n");
    for r in 0..8 {
        let _ = writeln!(src, "    li $t{r}, {}", next() as i32 % 1000);
    }
    let target_a = 1 + next() as usize % (n - 1);
    let target_b = next() as usize % n;
    let _ = writeln!(
        src,
        "    la $s0, L{target_a}\n    la $s1, L{target_b}\n    lw $s2, 0($s0)"
    );
    src.push_str("    la $s3, D0\n    lw $s3, 0($s3)\n    la $s4, D1\n    lw $s4, 0($s4)\n");
    let _ = writeln!(src, "    li $s5, {}", 2 + seed % 2);
    let regs = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"];
    for i in 0..n {
        let _ = writeln!(src, "L{i}:");
        let a = regs[(next() % 8) as usize];
        let b = regs[(next() % 8) as usize];
        let c = regs[(next() % 8) as usize];
        // Half the programs patch A from the word right before it: the
        // store's target is the next word of its own block (or, when A
        // is a branch, the block's terminator).
        let op = if i + 1 == target_a && seed % 2 == 0 {
            12 + next() % 2
        } else {
            next() % 15
        };
        let line = match op {
            0 => format!("addu {a}, {b}, {c}"),
            1 => format!("subu {a}, {b}, {c}"),
            2 => format!("xor {a}, {b}, {c}"),
            3 => format!("slt {a}, {b}, {c}"),
            4 => format!("addiu {a}, {b}, {}", next() as i32 % 100),
            5 => format!("sll {a}, {b}, {}", next() % 8),
            6 => format!("lw {a}, {}($gp)", (next() % 16) * 4),
            7 => format!("sw {a}, {}($gp)", (next() % 16) * 4),
            8 => format!("mult {a}, {b}"),
            9 => format!("mflo {a}"),
            // Text stores: A's own word back, a donor over A, a donor
            // over B.
            12 => "sw $s2, 0($s0)".into(),
            13 => "sw $s3, 0($s0)".into(),
            14 => "sw $s4, 0($s1)".into(),
            _ => {
                // Forward branch: termination stays guaranteed.
                let dest = i + 1 + (next() as usize % (n - i));
                let op = if next() % 2 == 0 { "beq" } else { "bne" };
                format!("{op} {a}, {b}, L{dest}")
            }
        };
        let _ = writeln!(src, "    {line}");
    }
    let _ = writeln!(src, "L{n}:");
    src.push_str("    addiu $s5, $s5, -1\n    bnez $s5, L0\n");
    src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");
    let r = next() % 8;
    let _ = writeln!(src, "D0: addiu $t{r}, $t{r}, {}", 1 + next() % 50);
    let _ = writeln!(src, "D1: xor $t{r}, $t{r}, $t{}", next() % 8);
    RandomProgram { source: src }
}

prop_compose! {
    fn arb_program()(
        n in 8usize..40,
        seed in any::<u64>(),
    ) -> RandomProgram {
        random_program(n, seed)
    }
}

fn with_block_exec(mut config: ProcessorConfig, on: bool, max_cycles: u64) -> ProcessorConfig {
    config.block_exec = if on { BlockExec::On } else { BlockExec::Off };
    config.max_cycles = max_cycles;
    config
}

/// Run the same configuration with block dispatch on and off and assert
/// byte-identical results (`RunStats` carries the checker's `CicStats`
/// and the OS's `OsStats`). `prepare` may tamper or install taps; it is
/// invoked identically on both processors. Returns the block-dispatch
/// counters of the fast processor.
fn assert_equivalent(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    max_cycles: u64,
    prepare: impl Fn(&mut Processor),
) -> BlockExecStats {
    let mut fast = Processor::new(image, with_block_exec(config.clone(), true, max_cycles));
    let mut slow = Processor::new(image, with_block_exec(config.clone(), false, max_cycles));
    prepare(&mut fast);
    prepare(&mut slow);
    let out_fast = fast.run();
    let out_slow = slow.run();
    assert_eq!(out_fast, out_slow, "outcome diverged");
    assert_eq!(fast.stats(), slow.stats(), "stats diverged");
    assert_eq!(fast.cycles(), slow.cycles(), "cycles diverged");
    assert_eq!(
        fast.regs().snapshot(),
        slow.regs().snapshot(),
        "registers diverged"
    );
    // The reference processor must never have dispatched blocks; the
    // fast one must have (every program starts on a cached block).
    assert_eq!(slow.block_stats().dispatches, 0);
    assert!(fast.block_stats().dispatches > 0);
    fast.block_stats()
}

/// The cycle count right after each store that wrote the program text,
/// from per-instruction stepping.
fn text_store_cycles(image: &cimon_mem::ProgramImage, config: &ProcessorConfig) -> Vec<u64> {
    let mut cpu = Processor::new(image, with_block_exec(config.clone(), false, 100_000));
    let mut ends = Vec::new();
    loop {
        let epoch = cpu.mem().dense_epoch();
        if cpu.step().is_some() {
            return ends;
        }
        if cpu.mem().dense_epoch() != epoch {
            ends.push(cpu.cycles());
        }
    }
}

/// The exact XOR FHT for a program from its recorded block trace.
fn trace_fht(image: &cimon_mem::ProgramImage) -> FullHashTable {
    trace_fht_with(image, HashAlgoKind::Xor, 0)
}

/// The exact FHT for a program from its recorded block trace, hashed
/// with `algo` (seeded with `seed`).
fn trace_fht_with(image: &cimon_mem::ProgramImage, algo: HashAlgoKind, seed: u32) -> FullHashTable {
    let mut cpu = Processor::new(
        image,
        ProcessorConfig {
            record_blocks: true,
            ..ProcessorConfig::baseline()
        },
    );
    cpu.run();
    let mem = image.to_memory();
    cpu.blocks()
        .iter()
        .map(|b| {
            let words = b.key.addresses().map(|a| mem.read_u32(a).unwrap());
            BlockRecord {
                key: b.key,
                hash: hash_words(algo, seed, words),
            }
        })
        .collect()
}

/// Monitored configurations over every hash unit — SeededXor with a
/// nonzero seed — at IHT sizes 1 (a miss on nearly every check) and 8,
/// each against the exact FHT for its unit. `assert_equivalent`
/// compares the checker's `words_hashed`, checks, hits and misses (all
/// in `RunStats::cic`) along with everything else.
fn monitored_configs(image: &cimon_mem::ProgramImage) -> Vec<ProcessorConfig> {
    let mut out = Vec::new();
    for hash_algo in HashAlgoKind::ALL {
        let hash_seed = match hash_algo {
            HashAlgoKind::SeededXor => 0x5eed_c0de,
            _ => 0,
        };
        let fht = std::sync::Arc::new(trace_fht_with(image, hash_algo, hash_seed));
        for iht_entries in [1, 8] {
            let cic = CicConfig {
                iht_entries,
                hash_algo,
                hash_seed,
            };
            out.push(ProcessorConfig::monitored(cic, fht.clone()));
        }
    }
    out
}

proptest! {
    #[test]
    fn clean_runs_are_identical_with_and_without_block_exec(p in arb_program()) {
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), 100_000, |_| {});
        for config in monitored_configs(&prog.image) {
            assert_equivalent(&prog.image, &config, 100_000, |_| {});
        }
    }

    #[test]
    fn bus_fault_taps_bail_out_identically(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let target = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), 100_000, |cpu| {
            cpu.set_bus_tap(Box::new(OneShot { target, bit, done: false }));
        });
        for config in monitored_configs(&prog.image) {
            assert_equivalent(&prog.image, &config, 100_000, |cpu| {
                cpu.set_bus_tap(Box::new(OneShot { target, bit, done: false }));
            });
        }
    }

    #[test]
    fn stored_image_tampering_bails_out_identically(
        p in arb_program(),
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let victim = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        // Tamper *after* construction: the block cache was built from
        // the clean image, so bulk validation must fail on the touched
        // block and the diverging word must bail to live decode.
        let mut configs = monitored_configs(&prog.image);
        configs.push(ProcessorConfig::baseline());
        for config in configs {
            assert_equivalent(&prog.image, &config, 100_000, |cpu| {
                let old = cpu.mem().read_u32(victim).unwrap();
                cpu.mem_mut().write_u32(victim, old ^ (1 << bit)).unwrap();
            });
        }
    }

    #[test]
    fn cycle_budget_expiring_right_after_a_text_store_interrupts_identically(
        p in arb_program(),
        pick in any::<prop::sample::Index>(),
    ) {
        // Budgets around the cycle a text store retires on: the run
        // stops on the store, on the instruction right after it (the
        // first one of the split-off dispatch), or just past it.
        let prog = assemble(&p.source).expect("generated program assembles");
        let mut configs = monitored_configs(&prog.image);
        configs.push(ProcessorConfig::baseline());
        for config in configs {
            let ends = text_store_cycles(&prog.image, &config);
            if ends.is_empty() {
                continue;
            }
            let end = ends[pick.index(ends.len())];
            for max_cycles in end.saturating_sub(2)..=end + 1 {
                assert_equivalent(&prog.image, &config, max_cycles, |_| {});
            }
        }
    }

    #[test]
    fn mid_block_cycle_budget_interrupts_identically(
        p in arb_program(),
        max_cycles in 1u64..400,
    ) {
        // A budget this small expires mid-run — usually mid-block — and
        // both paths must stop on exactly the same instruction with the
        // same counters.
        let prog = assemble(&p.source).expect("generated program assembles");
        assert_equivalent(&prog.image, &ProcessorConfig::baseline(), max_cycles, |_| {});
        for config in monitored_configs(&prog.image) {
            assert_equivalent(&prog.image, &config, max_cycles, |_| {});
        }
    }
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
fn tampering_detection_fires_through_the_bailout_path() {
    // Deterministic anchor: a bit flipped inside the loop body makes
    // bulk validation fail, the per-word pass bails at the flipped
    // word, and the monitor still detects the mismatch at block end.
    let prog = assemble(SUM_LOOP).unwrap();
    let fht = trace_fht(&prog.image);
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::monitored(CicConfig::with_entries(8), fht)
        },
    );
    let victim = prog.image.entry + 8;
    let old = cpu.mem().read_u32(victim).unwrap();
    cpu.mem_mut().write_u32(victim, old ^ (1 << 20)).unwrap();
    assert!(matches!(cpu.run(), RunOutcome::Detected { .. }));
    let stats = cpu.block_stats();
    assert!(stats.dispatches > 0, "block dispatch engaged: {stats:?}");
    assert!(stats.bailouts > 0, "the bail-out path must fire: {stats:?}");
}

#[test]
fn one_shot_bus_tap_fires_the_bailout_exactly_once() {
    let prog = assemble(SUM_LOOP).unwrap();
    let fht = trace_fht(&prog.image);
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::monitored(CicConfig::with_entries(8), fht)
        },
    );
    cpu.set_bus_tap(Box::new(OneShot {
        target: prog.image.entry + 8,
        bit: 18,
        done: false,
    }));
    assert!(matches!(cpu.run(), RunOutcome::Detected { .. }));
    let stats = cpu.block_stats();
    assert_eq!(
        stats.bailouts, 1,
        "exactly the corrupted fetch bails: {stats:?}"
    );
    assert!(stats.dispatches > 0);
}

#[test]
fn clean_runs_never_bail_and_count_block_lengths() {
    let prog = assemble(SUM_LOOP).unwrap();
    let mut cpu = Processor::new(
        &prog.image,
        ProcessorConfig {
            block_exec: BlockExec::On,
            ..ProcessorConfig::baseline()
        },
    );
    assert_eq!(cpu.run(), RunOutcome::Exited { code: 55 });
    let stats = cpu.block_stats();
    assert_eq!(stats.bailouts, 0);
    // 1 entry block (5 instrs) + 9 loop blocks (3) + exit block (3).
    assert_eq!(stats.dispatches, 11);
    assert_eq!(stats.instructions, cpu.stats().instructions);
    assert_eq!(stats.max_block, 5);
    assert!((stats.mean_block() - 35.0 / 11.0).abs() < 1e-9);
}

#[test]
fn max_cycles_interrupts_a_block_mid_flight() {
    // An infinite loop under a tiny budget: block dispatch must stop on
    // the same cycle count as per-instruction stepping.
    let prog = assemble(".text\nmain: j main\n").unwrap();
    let run = |on: bool| {
        let mut cpu = Processor::new(
            &prog.image,
            with_block_exec(ProcessorConfig::baseline(), on, 10_000),
        );
        let out = cpu.run();
        (out, cpu.stats())
    };
    let (out_on, stats_on) = run(true);
    let (out_off, stats_off) = run(false);
    assert_eq!(out_on, RunOutcome::MaxCycles);
    assert_eq!(out_on, out_off);
    assert_eq!(stats_on, stats_off);
}

#[test]
fn self_modifying_store_is_observed_exactly() {
    // A program that overwrites its own upcoming instruction: the store
    // targets the `addiu $a0, $a0, 1` that runs right after it inside
    // the same basic block, replacing it with `addiu $a0, $a0, 7`.
    // The store bumps the text epoch, so the bulk dispatch splits right
    // after it; the next dispatch fails revalidation, fetches the new
    // word at the architecturally correct instant and bails to live
    // decode — identically with block dispatch on and off.
    let src = "
        .text
    main:
        li   $a0, 0
        la   $t0, donor
        lw   $t1, 0($t0)     # t1 = the encoded `addiu $a0, $a0, 7`
        la   $t2, target
        sw   $t1, 0($t2)     # overwrite the next instruction
    target:
        addiu $a0, $a0, 1
        li   $v0, 10
        syscall
    donor:                   # never executed: donates its encoding
        addiu $a0, $a0, 7
    ";
    let prog = assemble(src).unwrap();
    let run = |on: bool| {
        let mut cpu = Processor::new(
            &prog.image,
            with_block_exec(ProcessorConfig::baseline(), on, 100_000),
        );
        let out = cpu.run();
        (out, cpu.stats(), cpu.block_stats())
    };
    let (out_on, stats_on, block_on) = run(true);
    let (out_off, stats_off, _) = run(false);
    assert_eq!(out_on, RunOutcome::Exited { code: 7 }, "patched path runs");
    assert_eq!(out_on, out_off);
    assert_eq!(stats_on, stats_off);
    assert_eq!(
        block_on.splits, 1,
        "the patching store splits: {block_on:?}"
    );
    assert!(
        block_on.bailouts > 0,
        "patched word must bail: {block_on:?}"
    );
}

#[test]
fn identical_text_rewrites_never_split_but_changing_stores_do() {
    // A loop that stores a word over `patch` on every trip. Storing the
    // word already there keeps the text epoch: no dispatch splits and
    // the loop block stays on the bulk path. Storing a different word
    // splits the dispatch that wrote it (the first trip; later trips
    // rewrite the now-identical word). Both match stepping exactly.
    let src = |setup: &str| {
        format!(
            "
            .text
        main:
            li   $s0, 6
            la   $t0, patch
            lw   $t1, 0($t0)
            {setup}
        loop:
            addiu $t2, $t2, 3
            sw   $t1, 0($t0)
        patch:
            addiu $t3, $t3, 1
            addiu $s0, $s0, -1
            bnez $s0, loop
            addu $a0, $t2, $t3
            li   $v0, 10
            syscall
        "
        )
    };
    let same = assemble(&src("nop")).unwrap();
    let changed = assemble(&src("addiu $t1, $t1, 1")).unwrap();
    for (prog, want_splits, code) in [(&same, 0, 24), (&changed, 1, 30)] {
        let fht = trace_fht(&prog.image);
        for config in [
            ProcessorConfig::baseline(),
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht.clone()),
        ] {
            let monitored = config.monitor.is_some();
            let stats = assert_equivalent(&prog.image, &config, 100_000, |_| {});
            assert_eq!(stats.splits, want_splits, "{stats:?}");
            let mut cpu = Processor::new(&prog.image, with_block_exec(config, true, 100_000));
            let out = cpu.run();
            if monitored && want_splits > 0 {
                // The FHT hashes the original text: the patched block
                // fails its check.
                assert!(matches!(out, RunOutcome::Detected { .. }), "{out:?}");
            } else {
                assert_eq!(out, RunOutcome::Exited { code });
            }
            assert!(
                cpu.mem().dense_stores() > 0,
                "the loop stores into its text"
            );
        }
    }
}

#[test]
fn a_block_entered_mid_digest_never_uses_the_fresh_start_memo() {
    // `mid` is first entered fresh (by the jump), which memoizes its
    // block's digest. Later it is reached by falling out of `top`, a
    // straight-line run of exactly 64 instructions that the cache cuts
    // at its size limit: that dispatch continues `top`'s running
    // digest, so the memo from the fresh start must not stand in for
    // hashing. Every hash unit and both table sizes must match
    // stepping, and the run must exit clean.
    use std::fmt::Write as _;
    let mut src = String::from(".text\nmain:\n    li $s0, 3\n    j mid\ntop:\n");
    for i in 0..64 {
        let _ = writeln!(src, "    addiu $t{}, $t{}, {}", i % 8, i % 8, i + 1);
    }
    src.push_str("mid:\n    addiu $t0, $t0, 5\n    addiu $s0, $s0, -1\n    bnez $s0, top\n");
    src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");
    let prog = assemble(&src).unwrap();
    for config in monitored_configs(&prog.image) {
        assert_equivalent(&prog.image, &config, 100_000, |_| {});
        let mut cpu = Processor::new(&prog.image, with_block_exec(config, true, 100_000));
        assert!(matches!(cpu.run(), RunOutcome::Exited { .. }));
        assert_eq!(cpu.block_stats().max_block, 64, "the size cut splits `top`");
    }
}

#[test]
fn text_stores_split_dispatches_and_match_stepping() {
    // The suite's non-vacuity anchor: over a fixed set of generated
    // programs, text stores must actually split bulk dispatches (with
    // and without the monitor), and every run must still match
    // per-instruction stepping — also with a bus tap installed, which
    // keeps every dispatch on per-word fetches.
    let mut splits = 0;
    for seed in 0..48u64 {
        let prog = assemble(&random_program(8 + seed as usize % 32, seed).source).unwrap();
        let fht = trace_fht(&prog.image);
        for config in [
            ProcessorConfig::baseline(),
            ProcessorConfig::monitored(CicConfig::with_entries(8), fht),
        ] {
            splits += assert_equivalent(&prog.image, &config, 100_000, |_| {}).splits;
            let tapped = assert_equivalent(&prog.image, &config, 100_000, |cpu| {
                cpu.set_bus_tap(Box::new(OneShot {
                    target: 0,
                    bit: 0,
                    done: true,
                }));
            });
            assert_eq!(tapped.splits, 0, "tapped dispatches fetch per word");
        }
    }
    assert!(splits > 0, "no generated text store split a dispatch");
}
