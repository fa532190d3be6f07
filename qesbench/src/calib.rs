//! A fixed calibration kernel that prices the host's current speed.
//!
//! On a shared host the same replay runs up to 1.8 times slower while
//! neighbours contend for the core's caches, memory bandwidth or
//! hyperthread sibling, and that contention can last a whole run. The
//! CPU clock does not leave it out: the slowed work still runs. So the
//! untraced run times this kernel before and after every replay, on the
//! replay's lanes, and scales the replay's CPU time to a host on which
//! the kernel takes [`REFERENCE_S`]. The kernel shares no code with the
//! simulator, so a change to the simulator cannot move it; it does the
//! kind of work a replay does (sorting, a binary heap, `exp` and `sqrt`
//! over a few MiB), so contention slows both alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use rayon::prelude::*;

use crate::host;

/// CPU seconds per lane the kernel takes on the reference host, a
/// round figure near its time on a quiet 2-core VM (Xeon, 2 lanes).
pub const REFERENCE_S: f64 = 0.06;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One lane's working memory, allocated once and reused, so the
/// kernel adds a fixed 2 MiB per lane to the process from the first
/// calibration on and never returns memory to the allocator between
/// replays.
struct Lane {
    keys: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    values: Vec<f64>,
}

impl Lane {
    fn new() -> Self {
        Lane {
            keys: vec![0; 1 << 17],
            heap: BinaryHeap::with_capacity(1 << 17),
            values: vec![0.0; 100_000],
        }
    }

    /// One lane's calibration work. Fixed size and input, so every
    /// call does the same work.
    fn kernel(&mut self, seed: u64) -> u64 {
        let mut x = seed | 1;
        let mut acc = 0u64;
        // Integer sorts over 1 MiB, then event-queue style heap traffic.
        self.heap.clear();
        for _ in 0..8 {
            self.keys.iter_mut().for_each(|k| *k = xorshift(&mut x));
            self.keys.sort_unstable();
            for (i, k) in self.keys.iter().step_by(3).enumerate() {
                self.heap.push(Reverse(black_box(*k)));
                if i % 3 != 0 {
                    self.heap.pop();
                }
            }
            acc ^= self.keys[self.keys.len() / 2] ^ self.heap.len() as u64;
        }
        // The floating-point shape of the policy: sort, then the
        // quality function's `exp` over `sqrt`-scaled values.
        for v in self.values.iter_mut() {
            *v = (xorshift(&mut x) % 1000) as f64 / 7.0;
        }
        let mut quality = 0.0;
        for round in 0..24 {
            self.values.sort_by(f64::total_cmp);
            for e in self.values.iter_mut() {
                *e = (*e * 1.0001 + f64::from(round)).sqrt() * 3.0;
                quality += (-*e * 0.003).exp();
            }
        }
        acc ^ quality.to_bits()
    }
}

/// The calibration kernel and its memory, one lane's worth per lane of
/// the thread pool.
pub struct Calibrator {
    lanes: Vec<Lane>,
}

impl Calibrator {
    /// A calibrator for `lanes` lanes; allocates its memory now.
    pub fn new(lanes: usize) -> Self {
        Calibrator {
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
        }
    }

    /// Run the kernel once on every lane at once and return the CPU
    /// seconds it took per lane.
    pub fn run(&mut self) -> f64 {
        let lanes = self.lanes.len();
        let (out, cpu_s) = host::cpu_timed(|| {
            rayon::with_threads(lanes, || {
                (&mut self.lanes)
                    .into_par_iter()
                    .map(|lane| lane.kernel(7))
                    .collect::<Vec<u64>>()
            })
        });
        black_box(out);
        cpu_s / lanes as f64
    }
}

/// How many times slower the host ran than the reference host, from
/// the calibrations just before and just after a timed section.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * REFERENCE_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut lane = Lane::new();
        let first = lane.kernel(3);
        assert_eq!(lane.kernel(3), first);
        assert_ne!(lane.kernel(4), first);
    }

    #[test]
    fn calibration_takes_time() {
        let s = Calibrator::new(host::lanes()).run();
        assert!(s > 0.0 && s.is_finite(), "{s}");
        assert_eq!(slowdown(REFERENCE_S, REFERENCE_S), 1.0);
    }
}
