//! Host-speed calibration.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! the speed it gets drifts by a quarter or more over minutes: every
//! repetition of a unit slows down together, so no order statistic over
//! one run removes it. The calibration kernel is fixed code of the
//! benchmark's own — sorting a small array in L1 and a dependent hash
//! walk over a table in the core's own L2, branchy integer work like the
//! simulator's — run after each repetition and timed block by block like
//! the unit. Its fastest time per block, summed, measures how fast the
//! host ran during this run; the end-to-end times are scaled by
//! [`REFERENCE_S`] over it, i.e. reported at the reference host speed.
//! The kernel does not change with the program, so a change of the
//! program moves the scaled times exactly as it moves the raw ones.
//!
//! The table stays in L2 on purpose: an 8 MB (L3) walk slowed down up to
//! 2.5 times as much as the 64×64 networks did when other tenants
//! contended for the shared L3, and threw the scaled times off by half.

use std::time::Instant;

/// Blocks in one calibration pass.
const BLOCKS: usize = 40;

/// Sort-and-walk rounds per block (about 1.5 ms on the reference host).
const ROUNDS: usize = 20;

/// Keys sorted per round (16 KB, in L1), and steps of the walk per round.
const KEYS: usize = 4_096;

/// Entries of the walked table (1 MB, in L2).
const TABLE: usize = 1 << 17;

/// The fastest-per-block sum of one calibration pass on the reference
/// host (a 2-core Xeon VM at 2.0 GHz, 2 MB of L2 per core), rounded.
pub const REFERENCE_S: f64 = 0.06;

/// The kernel's fixed inputs.
pub struct Calibration {
    keys: Vec<u32>,
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Calibration {
            keys: (0..KEYS).map(|_| next() as u32).collect(),
            table: (0..TABLE).map(|_| next()).collect(),
        }
    }

    /// One pass: the host seconds of each of its blocks.
    pub fn pass(&self) -> Vec<f64> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(BLOCKS);
        for _ in 0..BLOCKS {
            let t0 = Instant::now();
            for r in 0..ROUNDS {
                let mut v = self.keys.clone();
                v.sort_unstable();
                let mut h = u64::from(v[r]);
                for k in 0..KEYS {
                    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ self.table[(h as usize ^ k) % TABLE];
                    if h & 1 == 0 {
                        acc = acc.wrapping_add(h >> 3);
                    } else {
                        acc ^= h;
                    }
                }
            }
            out.push(t0.elapsed().as_secs_f64());
        }
        std::hint::black_box(acc);
        out
    }
}
