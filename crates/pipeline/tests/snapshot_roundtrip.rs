//! Snapshot/restore round-trip property tests.
//!
//! A [`ProcessorSnapshot`] taken at an arbitrary mid-run point and
//! restored into a **fresh** processor must continue to an end state
//! byte-identical to the donor's — outcome, statistics, cycles,
//! registers, and block-execution counters — for the baseline
//! (`NullMonitor`) and CIC-monitored processors, under block dispatch
//! and per-instruction stepping, in post-tamper states where the cut
//! lands between a bail-out and the detection that follows it, and
//! right after a dispatch that a store into the program text split.

use proptest::prelude::*;

use cimon_asm::assemble;
use cimon_core::hash::hash_words;
use cimon_core::{BlockRecord, CicConfig, HashAlgoKind};
use cimon_os::FullHashTable;
use cimon_pipeline::{BlockExec, Processor, ProcessorConfig};

/// A generated random program: counted backward loops, ALU/memory
/// traffic, and a clean exit (same shape as `chain_mask_diff.rs`).
#[derive(Clone, Debug)]
struct RandomProgram {
    source: String,
}

prop_compose! {
    fn arb_program()(
        loops in 1usize..4,
        body in 1usize..6,
        seed in any::<u64>(),
    ) -> RandomProgram {
        use std::fmt::Write as _;
        let mut src = String::from("    .data\nbuf: .word ");
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for i in 0..16 {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(src, "{sep}{}", next());
        }
        src.push_str("\n    .text\nmain:\n");
        let regs = ["$t0", "$t1", "$t2", "$t3", "$t4", "$t5"];
        for r in regs {
            let _ = writeln!(src, "    li {r}, {}", next() as i32 % 500);
        }
        for l in 0..loops {
            let trips = 2 + next() % 9;
            let _ = writeln!(src, "    li $s0, {trips}");
            let _ = writeln!(src, "L{l}:");
            for _ in 0..body {
                let a = regs[(next() % 6) as usize];
                let b = regs[(next() % 6) as usize];
                let c = regs[(next() % 6) as usize];
                match next() % 8 {
                    0 => { let _ = writeln!(src, "    addu {a}, {b}, {c}"); }
                    1 => { let _ = writeln!(src, "    subu {a}, {b}, {c}"); }
                    2 => { let _ = writeln!(src, "    xor {a}, {b}, {c}"); }
                    3 => { let _ = writeln!(src, "    addiu {a}, {b}, {}", next() as i32 % 100); }
                    4 => { let _ = writeln!(src, "    lw {a}, {}($gp)", (next() % 16) * 4); }
                    5 => { let _ = writeln!(src, "    sw {a}, {}($gp)", (next() % 16) * 4); }
                    6 => { let _ = writeln!(src, "    mult {a}, {b}"); }
                    _ => { let _ = writeln!(src, "    mflo {a}"); }
                }
            }
            let _ = writeln!(src, "    addiu $s0, $s0, -1");
            let _ = writeln!(src, "    bnez $s0, L{l}");
        }
        src.push_str("    move $a0, $t0\n    li $v0, 10\n    syscall\n");
        RandomProgram { source: src }
    }
}

/// The exact FHT for a program from its recorded block trace.
fn trace_fht(image: &cimon_mem::ProgramImage) -> FullHashTable {
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
                hash: hash_words(HashAlgoKind::Xor, 0, words),
            }
        })
        .collect()
}

/// Snapshot `donor` where it stands, restore into a fresh processor,
/// and demand that donor and clone finish with byte-identical end
/// state.
fn finish_round_trip(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    mut donor: Processor,
) {
    let snap = donor.snapshot();
    assert_eq!(snap.instret(), donor.instret());

    let mut clone = Processor::new(image, config.clone());
    clone.restore(&snap).expect("uncorrupted snapshot restores");
    assert_eq!(clone.instret(), donor.instret());
    assert_eq!(clone.pc(), donor.pc());

    let donor_out = donor.run();
    let clone_out = clone.run();
    assert_eq!(donor_out, clone_out, "outcome diverged after restore");
    assert_eq!(donor.stats(), clone.stats(), "stats diverged after restore");
    assert_eq!(
        donor.cycles(),
        clone.cycles(),
        "cycles diverged after restore"
    );
    assert_eq!(
        donor.regs().snapshot(),
        clone.regs().snapshot(),
        "registers diverged after restore"
    );
    assert_eq!(
        donor.block_stats(),
        clone.block_stats(),
        "block-exec counters diverged after restore"
    );
}

/// Cut a run at `cut` retired instructions and round-trip it through a
/// snapshot (see [`finish_round_trip`]).
fn assert_round_trip(
    image: &cimon_mem::ProgramImage,
    config: &ProcessorConfig,
    cut: u64,
    tamper: Option<(u32, u8)>,
) {
    let prepare = |cpu: &mut Processor| {
        if let Some((victim, bit)) = tamper {
            let old = cpu.mem().read_u32(victim).unwrap();
            cpu.mem_mut().write_u32(victim, old ^ (1 << bit)).unwrap();
        }
    };
    let mut donor = Processor::new(image, config.clone());
    prepare(&mut donor);
    if donor.run_to_instret(cut).is_some() {
        // The run ended before the cut (tampering can shorten runs):
        // nothing mid-run to snapshot, and that is fine.
        return;
    }
    // The clone is deliberately *not* prepared: the snapshot must carry
    // the tampered memory itself.
    finish_round_trip(image, config, donor);
}

fn variants(fht: FullHashTable) -> Vec<ProcessorConfig> {
    let monitored = ProcessorConfig::monitored(CicConfig::with_entries(8), fht);
    let mut configs = Vec::new();
    for base in [ProcessorConfig::baseline(), monitored] {
        for block in [BlockExec::On, BlockExec::Off] {
            let mut c = base.clone();
            c.block_exec = block;
            // Tampering can manufacture unbounded loops; bound them so
            // a case stays cheap while still outliving every clean run.
            c.max_cycles = 50_000;
            configs.push(c);
        }
    }
    configs
}

proptest! {
    #[test]
    fn snapshots_round_trip_at_arbitrary_cuts(
        p in arb_program(),
        cut in 1u64..400,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            assert_round_trip(&prog.image, &config, cut, None);
        }
    }

    #[test]
    fn corrupted_snapshots_never_restore_silently(
        p in arb_program(),
        cut in 1u64..400,
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        // A snapshot whose memory is bit-flipped after capture must be
        // rejected by the restore-time integrity checksum — never
        // silently accepted to produce a divergent run.
        let prog = assemble(&p.source).expect("generated program assembles");
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            let mut donor = Processor::new(&prog.image, config.clone());
            if donor.run_to_instret(cut).is_some() {
                continue;
            }
            let mut snap = donor.snapshot();
            let addr = prog.image.text.base
                + byte_idx.index(prog.image.text.bytes.len()) as u32;
            snap.corrupt_bit(addr, bit);
            let mut clone = Processor::new(&prog.image, config.clone());
            let err = clone.restore(&snap).expect_err("corrupt snapshot must be rejected");
            prop_assert_eq!(err.kind(), "snapshot-corrupt");
            // And the rejection happens before any state is adopted:
            // the clone still restores cleanly from an intact snapshot.
            let intact = donor.snapshot();
            clone.restore(&intact).expect("intact snapshot restores");
            prop_assert_eq!(clone.instret(), donor.instret());
        }
    }

    #[test]
    fn post_tamper_snapshots_round_trip(
        p in arb_program(),
        cut in 1u64..400,
        word_idx in any::<prop::sample::Index>(),
        bit in 0u8..32,
    ) {
        let prog = assemble(&p.source).expect("generated program assembles");
        let n_words = prog.image.text.bytes.len() / 4;
        let victim = prog.image.text.base + 4 * word_idx.index(n_words) as u32;
        let fht = trace_fht(&prog.image);
        for config in variants(fht) {
            assert_round_trip(&prog.image, &config, cut, Some((victim, bit)));
        }
    }
}

#[test]
fn snapshot_right_after_a_text_store_split_round_trips() {
    // The first loop trip stores `addiu $t3, $t3, 2` over `patch`'s
    // `addiu $t3, $t3, 1`: the store changes the text, so the bulk
    // dispatch of the loop block splits right after it. The cut lands
    // on that split, mid-block, with the block's start and running
    // hash carried in the datapath. (A store of the word already there
    // would keep the text epoch and never split.)
    let src = "
        .text
    main:
        li   $s0, 5
        la   $t0, patch
        lw   $t1, 0($t0)
        addiu $t1, $t1, 1
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
    ";
    let prog = assemble(src).expect("assembles");
    let fht = trace_fht(&prog.image);
    let mut cut_after_split = 0;
    for config in variants(fht) {
        if !matches!(config.block_exec, BlockExec::On) {
            continue;
        }
        let mut donor = Processor::new(&prog.image, config.clone());
        while donor.block_stats().splits == 0 {
            assert!(donor.step_block().is_none(), "run ended before a split");
        }
        cut_after_split += 1;
        finish_round_trip(&prog.image, &config, donor);
    }
    assert_eq!(cut_after_split, 2, "baseline and monitored both split");
}
