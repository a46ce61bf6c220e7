//! Program-image predecoding: decode once, dispatch forever.
//!
//! The functional simulator used to re-decode every dynamic instruction
//! — millions of [`Instr::decode`] calls for loops the image encodes
//! once. A [`PredecodedImage`] decodes the text segment a single time
//! into a dense table of [`PredecodedEntry`]s (decoded instruction plus
//! every attribute the per-cycle loop consumes: issue class, source and
//! destination registers, HI/LO traffic, control-flow-ness), indexed by
//! `(pc - base) / INSTR_BYTES`.
//!
//! **The cache can never mask an attack.** The fetch path still runs
//! the full micro-program — the bus tap fires, the hash unit absorbs
//! the word the bus actually delivered — and the cache is consulted
//! with that delivered word: [`PredecodedImage::lookup`] returns an
//! entry only when the delivered word is bit-identical to the word that
//! was predecoded. A tampered stored image, a transient bus flip, or an
//! out-of-image jump all miss the cache and fall back to live decode,
//! reproducing the unoptimised behaviour exactly (and the hash check
//! still sees the corrupted word either way).
//!
//! Predecoding one image costs one linear decode pass; sweeps share one
//! table per workload through `cimon_sim::Artifact`.

use cimon_isa::{Funct, Instr, InstrClass, Reg, Sources, INSTR_BYTES};
use cimon_mem::ProgramImage;

use crate::processor::{bind_exec, ExecFn};
use crate::timing::{IssueClass, MASK_HI, MASK_LO};

/// Everything the per-cycle loop needs to know about one instruction,
/// computed once.
#[derive(Clone, Copy, Debug)]
pub struct PredecodedEntry {
    /// The encoded instruction word this entry was decoded from.
    pub word: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Timing class for the scheduler.
    pub klass: IssueClass,
    /// Whether the instruction writes HI/LO.
    pub writes_hilo: bool,
    /// Whether it reads HI (`mfhi`).
    pub reads_hi: bool,
    /// Whether it reads LO (`mflo`).
    pub reads_lo: bool,
    /// Register sources, inline.
    pub sources: Sources,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Whether this instruction ends a basic block.
    pub is_control_flow: bool,
    /// Whether this instruction writes data memory. Block dispatch
    /// re-reads the memory's text epoch after each one, because a store
    /// may rewrite words the block has yet to execute.
    pub is_store: bool,
    /// The registers read, as a bitmask the scheduler's
    /// [`Timing::issue_masks`](crate::timing::Timing::issue_masks) fast
    /// path consumes: bit `i` for GPR `i` (`$zero` never set), bits
    /// 32/33 for HI/LO.
    pub src_mask: u64,
    /// The registers written, same encoding (both HI/LO bits set when
    /// the instruction writes the HI/LO pair).
    pub dest_mask: u64,
    /// Resolved control-transfer target for direct branches and jumps
    /// (these depend only on the instruction's own PC, so they need no
    /// run-time computation); 0 for everything else.
    pub(crate) target: u32,
    /// The instruction's architectural effect, pre-bound to a
    /// monomorphic executor function at decode time — block replay
    /// dispatches through this pointer instead of re-matching the
    /// instruction enum every execution.
    pub(crate) exec: ExecFn,
}

impl PredecodedEntry {
    /// Precompute the per-cycle attributes of one decoded instruction.
    ///
    /// `pc` is the address the instruction will execute at — branch and
    /// jump targets are resolved against it, so an entry must only ever
    /// be dispatched at the PC it was predecoded for (the
    /// [`PredecodedImage::lookup`] contract already guarantees this).
    pub fn new(pc: u32, word: u32, instr: Instr) -> PredecodedEntry {
        let (klass, writes_hilo, reads_hi, reads_lo) = issue_class(&instr);
        let sources = instr.source_set();
        let dest = instr.dest();
        let mut src_mask = 0u64;
        for &r in sources.as_slice() {
            src_mask |= 1 << r.index();
        }
        if reads_hi {
            src_mask |= MASK_HI;
        }
        if reads_lo {
            src_mask |= MASK_LO;
        }
        let mut dest_mask = 0u64;
        if let Some(d) = dest {
            if !d.is_zero() {
                dest_mask |= 1 << d.index();
            }
        }
        if writes_hilo {
            dest_mask |= MASK_HI | MASK_LO;
        }
        let target = instr
            .branch_dest(pc)
            .or_else(|| instr.jump_dest(pc))
            .unwrap_or(0);
        PredecodedEntry {
            word,
            klass,
            writes_hilo,
            reads_hi,
            reads_lo,
            sources,
            dest,
            is_control_flow: instr.is_control_flow(),
            is_store: matches!(&instr, Instr::I(i) if i.opcode.is_store()),
            src_mask,
            dest_mask,
            target,
            exec: bind_exec(&instr),
            instr,
        }
    }
}

/// The text segment decoded once, indexed by PC.
///
/// Words that decode to no architected instruction hold `None` (the
/// live path reports them as illegal-instruction faults; they cannot be
/// cached because [`Instr::decode`]'s error carries the PC-specific
/// context downstream).
pub struct PredecodedImage {
    base: u32,
    entries: Vec<Option<PredecodedEntry>>,
}

impl std::fmt::Debug for PredecodedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredecodedImage")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl PredecodedImage {
    /// Decode every word of the image's text segment.
    pub fn new(image: &ProgramImage) -> PredecodedImage {
        let base = image.text.base;
        let entries = image
            .text
            .bytes
            .chunks_exact(4)
            .enumerate()
            .map(|(i, c)| {
                let word = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                let pc = base + (i as u32) * INSTR_BYTES;
                Instr::decode(word)
                    .ok()
                    .map(|instr| PredecodedEntry::new(pc, word, instr))
            })
            .collect();
        PredecodedImage { base, entries }
    }

    /// Base address of the predecoded range.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of predecoded instruction slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the image had an empty text segment.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw predecoded slots in address order (`None` where the
    /// stored word does not decode) — the block cache groups these into
    /// basic blocks.
    pub(crate) fn slots(&self) -> &[Option<PredecodedEntry>] {
        &self.entries
    }

    /// The cached entry for `pc` — but only if `word`, the instruction
    /// word the fetch bus actually delivered this cycle, is
    /// bit-identical to the word that was predecoded. Any divergence
    /// (stored-image tampering, an in-flight bus fault, a PC outside
    /// the image) returns `None` and the caller live-decodes, so a
    /// stale entry is never served.
    #[inline]
    pub fn lookup(&self, pc: u32, word: u32) -> Option<&PredecodedEntry> {
        let off = pc.wrapping_sub(self.base);
        if off % INSTR_BYTES != 0 {
            return None;
        }
        match self.entries.get((off / INSTR_BYTES) as usize) {
            Some(Some(e)) if e.word == word => Some(e),
            _ => None,
        }
    }
}

/// Map an instruction to its timing attributes:
/// `(class, writes_hilo, reads_hi, reads_lo)`.
pub(crate) fn issue_class(instr: &Instr) -> (IssueClass, bool, bool, bool) {
    match instr.class() {
        InstrClass::Load => (IssueClass::Load, false, false, false),
        InstrClass::Store => (IssueClass::Other, false, false, false),
        InstrClass::Branch | InstrClass::JumpReg | InstrClass::Trap => {
            (IssueClass::IdReader, false, false, false)
        }
        InstrClass::Jump => (IssueClass::Alu, false, false, false),
        InstrClass::MulDiv => match instr {
            Instr::R(r) => match r.funct {
                Funct::Mult | Funct::Multu => {
                    (IssueClass::MulDiv { is_div: false }, true, false, false)
                }
                Funct::Div | Funct::Divu => {
                    (IssueClass::MulDiv { is_div: true }, true, false, false)
                }
                Funct::Mfhi => (IssueClass::Alu, false, true, false),
                Funct::Mflo => (IssueClass::Alu, false, false, true),
                Funct::Mthi | Funct::Mtlo => (IssueClass::Alu, true, false, false),
                _ => (IssueClass::Alu, false, false, false),
            },
            _ => (IssueClass::Alu, false, false, false),
        },
        InstrClass::Alu => (IssueClass::Alu, false, false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_asm::assemble;

    fn image() -> ProgramImage {
        assemble(
            "
            .text
        main:
            li   $t0, 10
        loop:
            addiu $t0, $t0, -1
            bnez $t0, loop
            lw   $t1, 0($gp)
            mult $t0, $t1
            mflo $t2
            li   $v0, 10
            syscall
        ",
        )
        .unwrap()
        .image
    }

    #[test]
    fn every_text_word_is_predecoded() {
        let img = image();
        let pre = PredecodedImage::new(&img);
        assert_eq!(pre.base(), img.text.base);
        assert_eq!(pre.len(), img.text.bytes.len() / 4);
        assert!(!pre.is_empty());
        let words = img.text_words();
        for (i, &word) in words.iter().enumerate() {
            let pc = img.text.base + 4 * i as u32;
            let e = pre.lookup(pc, word).expect("valid word cached");
            assert_eq!(e.word, word);
            assert_eq!(e.instr, Instr::decode(word).unwrap());
            assert_eq!(e.sources.as_slice(), &e.instr.sources()[..]);
            assert_eq!(e.dest, e.instr.dest());
            assert_eq!(e.is_control_flow, e.instr.is_control_flow());
            assert_eq!(
                e.is_store,
                matches!(&e.instr, Instr::I(i) if i.opcode.is_store())
            );
        }
    }

    #[test]
    fn entry_attributes_match_live_computation() {
        let img = image();
        let pre = PredecodedImage::new(&img);
        for (i, &word) in img.text_words().iter().enumerate() {
            let pc = img.text.base + 4 * i as u32;
            let e = pre.lookup(pc, word).unwrap();
            let (klass, wh, rh, rl) = issue_class(&e.instr);
            assert_eq!(
                (e.klass, e.writes_hilo, e.reads_hi, e.reads_lo),
                (klass, wh, rh, rl)
            );
        }
    }

    #[test]
    fn register_masks_mirror_the_slice_attributes() {
        let img = image();
        let pre = PredecodedImage::new(&img);
        for (i, &word) in img.text_words().iter().enumerate() {
            let pc = img.text.base + 4 * i as u32;
            let e = pre.lookup(pc, word).unwrap();
            let mut want_src = 0u64;
            for &r in e.sources.as_slice() {
                want_src |= 1 << r.index();
            }
            if e.reads_hi {
                want_src |= MASK_HI;
            }
            if e.reads_lo {
                want_src |= MASK_LO;
            }
            assert_eq!(e.src_mask, want_src, "{:?}", e.instr);
            let mut want_dest = 0u64;
            if let Some(d) = e.dest {
                if !d.is_zero() {
                    want_dest |= 1 << d.index();
                }
            }
            if e.writes_hilo {
                want_dest |= MASK_HI | MASK_LO;
            }
            assert_eq!(e.dest_mask, want_dest, "{:?}", e.instr);
            // `$zero` must never appear in either mask.
            assert_eq!(e.src_mask & 1, 0);
            assert_eq!(e.dest_mask & 1, 0);
        }
    }

    #[test]
    fn control_transfer_targets_resolve_at_predecode() {
        let img = image();
        let pre = PredecodedImage::new(&img);
        for (i, &word) in img.text_words().iter().enumerate() {
            let pc = img.text.base + 4 * i as u32;
            let e = pre.lookup(pc, word).unwrap();
            let want = e
                .instr
                .branch_dest(pc)
                .or_else(|| e.instr.jump_dest(pc))
                .unwrap_or(0);
            assert_eq!(e.target, want, "{:?} at {pc:#x}", e.instr);
        }
        // The loop's bnez points back at the loop head.
        let bnez_pc = img.text.base + 8;
        let e = pre.lookup(bnez_pc, img.text_words()[2]).unwrap();
        assert_eq!(e.target, img.text.base + 4);
    }

    #[test]
    fn divergent_words_are_never_served() {
        let img = image();
        let pre = PredecodedImage::new(&img);
        let pc = img.text.base + 4;
        let word = img.text_words()[1];
        assert!(pre.lookup(pc, word).is_some());
        // One flipped bit — as a bus tap or tamper would produce.
        assert!(pre.lookup(pc, word ^ (1 << 20)).is_none());
        // Out-of-image and misaligned PCs miss.
        assert!(pre.lookup(img.text.end(), 0).is_none());
        assert!(pre.lookup(pc + 2, word).is_none());
        assert!(pre.lookup(img.text.base.wrapping_sub(4), word).is_none());
    }

    #[test]
    fn undecodable_words_are_not_cached() {
        let mut img = image();
        img.text.bytes[4..8].copy_from_slice(&0xffff_ffff_u32.to_le_bytes());
        let pre = PredecodedImage::new(&img);
        assert!(pre.lookup(img.text.base + 4, 0xffff_ffff).is_none());
        // Neighbours still cached.
        let w0 = u32::from_le_bytes(img.text.bytes[0..4].try_into().unwrap());
        assert!(pre.lookup(img.text.base, w0).is_some());
    }
}
