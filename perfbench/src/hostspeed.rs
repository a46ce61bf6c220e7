//! The host speed index: a fixed calibration kernel sampled before every
//! step of a run, and the scale that puts every end-to-end host-time
//! metric at one reference host speed.
//!
//! The shared hosts this benchmark runs on change speed by ±25% from
//! one minute to the next, and a simulator run moves with them: ten
//! 50-s runs of the same code measured 49 to 82 MIPS, and within one
//! 30-s run the same sweep took anywhere from 0.14 to 0.29 s. A small
//! register-machine interpreter — table dispatch over a random program,
//! loads and stores into a 256 KiB array, sharing no code with the
//! simulator — slows down with the host too. Its median speed over the
//! run divided by [`REFERENCE_MSTEPS`] is the run's time scale: a host time
//! times the scale is the time the same work takes on the host at the
//! reference speed. The scale is a plain ratio, not fitted to any
//! metric; the measured values and the scale are printed beside the
//! scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Interpreted steps per sample (about 3 ms).
const SAMPLE_STEPS: usize = 1_000_000;

/// Kernel speed, in million steps per second, that scaled host-time
/// metrics refer to: about the median of the 2-core host the benchmark
/// was built on.
pub const REFERENCE_MSTEPS: f64 = 300.0;

pub struct HostSpeed {
    code: Vec<u32>,
    mem: Vec<u32>,
    /// Speed of every sample so far, in million steps per second.
    speeds: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut x = 99u64;
        let code = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 32) as u32
            })
            .collect();
        HostSpeed {
            code,
            mem: vec![0; 1 << 16],
            speeds: Vec::new(),
        }
    }

    /// Time one kernel sample; returns its speed over the reference
    /// speed, the time scale of that moment.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(interpret(
            &self.code,
            &mut self.mem,
            black_box(SAMPLE_STEPS),
        ));
        let speed = SAMPLE_STEPS as f64 / t.elapsed().as_secs_f64() / 1e6;
        self.speeds.push(speed);
        speed / REFERENCE_MSTEPS
    }

    /// Median kernel speed over every sample so far, in million steps
    /// per second. A median, not a mean: a sample the hypervisor stalls
    /// for tens of milliseconds would otherwise pull the whole run's
    /// scale with it (one 30-s run read an index of 192 where the
    /// simulator ran at the speed of its neighbours at 280).
    pub fn msteps(&self) -> f64 {
        crate::util::median(&self.speeds)
    }

    /// The run's time scale: its kernel speed over the reference speed.
    /// Times are multiplied by it, rates divided.
    pub fn time_scale(&self) -> f64 {
        self.msteps() / REFERENCE_MSTEPS
    }
}

/// Run `steps` instructions of a 16-operation register machine over
/// `code`; returns a digest of the registers.
fn interpret(code: &[u32], mem: &mut [u32], steps: usize) -> u32 {
    let mut r = [0u32; 16];
    let mut pc = 0usize;
    let mask = mem.len() - 1;
    for _ in 0..steps {
        let w = code[pc];
        let (a, b, c) = (
            ((w >> 24) & 15) as usize,
            ((w >> 20) & 15) as usize,
            ((w >> 16) & 15) as usize,
        );
        let imm = w & 0xffff;
        pc += 1;
        match w >> 28 {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_sub(r[c]),
            2 => r[a] = r[b] ^ r[c],
            3 => r[a] = r[b] & r[c] | imm,
            4 => r[a] = r[b].wrapping_add(imm),
            5 => r[a] = r[b] << (imm & 31),
            6 => r[a] = mem[r[b].wrapping_add(imm) as usize & mask],
            7 => mem[r[b].wrapping_add(imm) as usize & mask] = r[a],
            8 => r[a] = r[b].wrapping_mul(r[c] | 1),
            9 if r[a] != r[b] => pc = imm as usize % code.len(),
            10 if r[a] == 0 => pc = imm as usize % code.len(),
            11 => r[a] = r[b].rotate_left(imm & 31),
            12 => r[a] = u32::from(r[b] < r[c]),
            13 => r[a] = r[b] >> (imm & 31),
            14 => pc = (r[a] as usize ^ imm as usize) % code.len(),
            15 => r[a] = r[b].wrapping_add(r[c]).wrapping_add(imm),
            _ => {}
        }
        if pc >= code.len() {
            pc = 0;
        }
    }
    r.iter().fold(0, |x, y| x ^ y)
}
