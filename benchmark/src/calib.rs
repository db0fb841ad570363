//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes, so a wall time alone says as much about the
//! neighbours as about the program. Each timed repetition is therefore
//! bracketed by calibration samples: a fixed job of the benchmark's own
//! (no code of the program runs in it), made on the calling thread right
//! before and right after the repetition. A repetition's time is reported
//! as `wall / calibration × REFERENCE_S`: the seconds it would have taken
//! on a host that runs the calibration job in `REFERENCE_S` seconds, the
//! job's median time on the host the benchmark was defined on. Host drift
//! scales both alike and cancels; a change to the program moves only the
//! numerator.

use crate::stats::median;
use std::time::Instant;

/// Seconds one calibration sample takes on the host the benchmark was
/// defined on (its median there), so scaled times read about as wall times
/// did there. Only the scale of the reported times depends on it.
const REFERENCE_S: f64 = 0.0576;

/// Words one job hashes and counts.
const WORDS: usize = 1 << 19;

/// Slots of a job's open-addressing table: four per word, 16 MB, well past
/// the caches, as the pipeline's world and the lint's models are.
const TABLE_SLOTS: usize = WORDS * 4;

/// One calibration sample: hash a fixed stream of pseudo-random words,
/// count the distinct ones in a 16 MB open-addressing table, then sort
/// them. Byte-wise hashing, random memory access past the caches and a
/// sort, like the pipeline's and the lint's own work.
fn job() -> u64 {
    let mut memory = Mapping::new(TABLE_SLOTS + WORDS);
    let (table, keys) = memory.words().split_at_mut(TABLE_SLOTS);
    let mut distinct = 0;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..WORDS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for k in 0..2 + state % 7 {
            let letter = b'a' + ((state >> (8 + 6 * k)) % 26) as u8;
            hash = (hash ^ u64::from(letter)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // 0 marks an empty slot.
        let key = hash | 1;
        let mut slot = (key >> 32) as usize % TABLE_SLOTS;
        loop {
            if table[slot] == 0 {
                table[slot] = key;
                keys[distinct] = key;
                distinct += 1;
                break;
            }
            if table[slot] == key {
                break;
            }
            slot = (slot + 1) % TABLE_SLOTS;
        }
    }
    let keys = &mut keys[..distinct];
    keys.sort_unstable();
    keys.iter().fold(0u64, |h, &key| h.wrapping_mul(31) ^ key)
}

/// Zeroed memory mapped straight from the kernel and unmapped on drop.
/// A job's memory comes from here, not from the heap, so a sample leaves
/// no pages resident (the `peak_rss_mb` of the repetition that follows
/// does not hold them) and leaves the allocator the program uses as it
/// found it.
struct Mapping {
    ptr: *mut u64,
    len: usize,
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

impl Mapping {
    /// `len` zeroed words.
    fn new(len: usize) -> Mapping {
        const PROT_READ_WRITE: i32 = 0x1 | 0x2;
        const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks touches no existing memory.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len * 8,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            !ptr.is_null() && ptr as isize != -1,
            "calibration memory could not be mapped"
        );
        Mapping {
            ptr: ptr.cast(),
            len,
        }
    }

    fn words(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `len` page-aligned, zero-filled, writable
        // words that nothing else refers to while `self` is borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `len` are those of a live mapping made in
        // `Mapping::new`, and no slice of it outlives `self`.
        unsafe {
            munmap(self.ptr.cast(), self.len * 8);
        }
    }
}

/// Wall seconds of one calibration sample.
fn sample() -> f64 {
    let start = Instant::now();
    std::hint::black_box(job());
    start.elapsed().as_secs_f64()
}

/// The times of one run's repetitions, each in a bracket between two
/// calibration samples, and their scaling.
pub struct Calibration {
    /// Calibration samples; bracket `i` lies between samples `i` and
    /// `i + 1`.
    samples: Vec<f64>,
    /// `(bracket, wall seconds)` of every set-up sample.
    setups: Vec<(usize, f64)>,
    /// `(bracket, wall seconds, items done)` of every timed repetition.
    runs: Vec<(usize, f64, f64)>,
}

/// A run's end-to-end times, scaled to the reference host.
pub struct Scaled {
    /// Median scaled wall time of a repetition.
    pub run_s: f64,
    /// Median of items done over scaled wall time.
    pub items_per_s: f64,
    /// Median scaled set-up time.
    pub setup_s: f64,
    /// Scaled wall time of every repetition, in order.
    pub runs: Vec<f64>,
    /// Median calibration sample.
    pub calibration_s: f64,
}

impl Calibration {
    /// Warm up with one untimed sample.
    pub fn new() -> Calibration {
        sample();
        Calibration {
            samples: Vec::new(),
            setups: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Take a calibration sample, which closes the previous bracket and
    /// opens the next; call it ahead of each repetition.
    pub fn open_bracket(&mut self) {
        self.samples.push(sample());
    }

    fn bracket(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Record a set-up sample of `wall` seconds in the open bracket.
    pub fn setup(&mut self, wall: f64) {
        self.setups.push((self.bracket(), wall));
    }

    /// Record a timed repetition of `wall` seconds that did `items` units
    /// of work in the open bracket.
    pub fn run(&mut self, wall: f64, items: f64) {
        self.runs.push((self.bracket(), wall, items));
    }

    /// Close the last bracket and scale every time by the host speed
    /// around it: the mean of the samples on either side. The host's speed
    /// moves within seconds, so the nearest samples follow it best.
    pub fn finish(&mut self) -> Scaled {
        self.open_bracket();
        let samples = &self.samples;
        let scale = |bracket: usize, wall: f64| {
            let around = (samples[bracket] + samples[bracket + 1]) / 2.0;
            wall / around * REFERENCE_S
        };
        let runs: Vec<f64> = self.runs.iter().map(|&(b, w, _)| scale(b, w)).collect();
        let rates: Vec<f64> = self
            .runs
            .iter()
            .map(|&(b, w, items)| items / scale(b, w))
            .collect();
        let setups: Vec<f64> = self.setups.iter().map(|&(b, w)| scale(b, w)).collect();
        Scaled {
            run_s: median(&runs),
            items_per_s: median(&rates),
            setup_s: median(&setups),
            calibration_s: median(samples),
            runs,
        }
    }
}
