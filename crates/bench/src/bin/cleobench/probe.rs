//! A fixed piece of work of the benchmark's own, timed beside every measured
//! window, so that a slow phase of a shared machine can be told from a slow
//! program.
//!
//! The builder box is a shared 2-vCPU VM that moves between phases lasting
//! minutes: the same binary at the same seed takes 43, 54 or 61–67 µs per
//! job (20 back-to-back runs, quartile spread 12%, range 45%).  Medians over
//! windows remove spikes but not phases, and a phase outlasts a run.  Each
//! CPU-bound timing is therefore multiplied by `reference time / probe time`,
//! the probe read just before and just after the window.
//!
//! What the probe is was chosen by measurement (README, "Speed factor"): the
//! phases slow high-throughput integer code and leave latency-bound code
//! alone (a dependent `ln_1p` chain and a 16 MB pointer chase read the same in
//! every phase), so the probe is SipHash of 64-byte blocks, which is also what
//! the program's hash maps do.  It touches no heap, no table and no code of
//! the program, so the program's cache, TLB or allocator footprint cannot
//! reach it; the smaller of two passes is read, so a stall, or a frequency
//! licence left by the window's last vector instructions, does not count.
//!
//! Schedule-bound timings (open-loop latency at a fixed arrival rate) are not
//! scaled: their clock is the arrival schedule, not the processor.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Hashes per probe pass (≈1.2–2.2 ms on the builder box).
const HASHES: u64 = 60_000;

/// The unit scaled timings are reported in: seconds on a machine that does
/// one probe hash in this many nanoseconds.  It defines the unit and cancels
/// out of every comparison; 20 ns is the builder box in its fast phase, so
/// scaled numbers read like that phase's.
pub const REFERENCE_NS_PER_HASH: f64 = 20.0;

/// One pass of the fixed work; returns its wall time in seconds.
fn pass() -> f64 {
    let start = Instant::now();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..HASHES {
        let mut hasher = DefaultHasher::new();
        [h, i, h ^ i, 7, 8, 9, 10, 11].hash(&mut hasher);
        h = hasher.finish();
    }
    std::hint::black_box(h);
    start.elapsed().as_secs_f64()
}

/// One reading: the smaller of two passes.
fn reading() -> f64 {
    pass().min(pass())
}

/// Brackets measured windows with probe readings and hands out each window's
/// speed factor (multiply a CPU-bound duration by it).
pub struct Speed {
    last_s: f64,
    factors: Vec<f64>,
}

impl Speed {
    /// One reading taken.
    pub fn new() -> Speed {
        Speed {
            last_s: reading(),
            factors: Vec::new(),
        }
    }

    /// Take the closing reading of a window that ran since the last reading,
    /// and return the window's factor: the reference probe time over the mean
    /// of the readings on either side of the window.
    pub fn after_window(&mut self) -> f64 {
        let before = self.last_s;
        self.last_s = reading();
        let reference = REFERENCE_NS_PER_HASH * 1e-9 * HASHES as f64;
        let factor = reference / ((before + self.last_s) / 2.0);
        self.factors.push(factor);
        factor
    }

    /// Take a fresh opening reading (after untimed work between windows).
    pub fn refresh(&mut self) {
        self.last_s = reading();
    }

    /// Median factor over the windows so far (1.0 before the first).
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.factors)
        }
    }
}
