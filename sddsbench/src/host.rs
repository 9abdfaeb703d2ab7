//! Host-speed reference for the end-to-end timings.
//!
//! On a shared host the same code runs up to ~1.7x faster or slower for
//! stretches of 10–30 s (frequency boost and neighbours' load; CPU steal
//! stays at zero, so it is not visible in the guest's accounting). Over a
//! run of tens of seconds no estimator of raw wall time repeats within a
//! few percent. The benchmark therefore runs a small fixed kernel of its
//! own — independent of the program under test, so no change to the program
//! can move it — every few tens of milliseconds, and rescales each timed
//! sample by `REFERENCE_MS / kernel time around the sample`: the sample as
//! it would read at the host's reference speed. A change that makes the
//! program 15% slower makes every rescaled sample 15% slower. The raw wall
//! times are printed next to the rescaled ones.

use std::time::Instant;

/// Kernel time at the reference speed: the median kernel time on a 2-vCPU
/// x86-64 host (2.1 GHz nominal) outside its boosted phases.
pub const REFERENCE_MS: f64 = 0.42;

/// Gap between kernel timings in workloads of short operations: rare
/// enough that the operation after a timing (which finds its caches
/// cooled by the kernel) stays out of the 90th percentile.
pub const CALIBRATE_EVERY_S: f64 = 0.1;

/// Seconds on each side of a sample whose kernel times give its speed.
const WINDOW_S: f64 = 1.0;

/// The fixed kernel: format, sort and hash a few thousand short strings —
/// allocation, branches and memory traffic, like the program's own work.
fn kernel(n: u64) -> u64 {
    let mut words: Vec<String> = (0..n)
        .map(|i| format!("{}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20))
        .collect();
    words.sort_unstable();
    words
        .iter()
        .flat_map(|w| w.bytes())
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
}

/// Kernel timings over a run, by time since the run's origin.
#[derive(Debug)]
pub struct Host {
    origin: Instant,
    /// Threads the kernel runs on at once: as many as the workload keeps
    /// busy, since a neighbour may slow one core and not the other.
    threads: usize,
    /// (seconds since origin, kernel ms), in time order.
    samples: Vec<(f64, f64)>,
}

impl Host {
    pub fn new(origin: Instant, threads: usize) -> Self {
        Host {
            origin,
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the run's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel once (on every thread at once: the slowest counts).
    pub fn calibrate(&mut self) {
        let run = || {
            let start = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(2000)));
            start.elapsed().as_secs_f64() * 1e3
        };
        let ms = if self.threads == 1 {
            run()
        } else {
            std::thread::scope(|scope| {
                let others: Vec<_> = (1..self.threads).map(|_| scope.spawn(run)).collect();
                let mine = run();
                others
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .fold(mine, f64::max)
            })
        };
        let t = self.now() - ms / 2e3;
        self.samples.push((t, ms));
    }

    /// Times the kernel if the last timing is older than `secs`.
    pub fn calibrate_every(&mut self, secs: f64) {
        if self
            .samples
            .last()
            .is_none_or(|&(t, _)| self.now() - t >= secs)
        {
            self.calibrate();
        }
    }

    /// Median kernel time around `t`: the samples within the window, or the
    /// five nearest when the window holds fewer than three.
    fn kernel_ms_at(&self, t: f64) -> f64 {
        let lo = self.samples.partition_point(|&(s, _)| s < t - WINDOW_S);
        let hi = self.samples.partition_point(|&(s, _)| s <= t + WINDOW_S);
        let mut near: Vec<f64> = if hi - lo >= 3 {
            self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect()
        } else {
            let mut by_distance: Vec<(f64, f64)> = self
                .samples
                .iter()
                .map(|&(s, ms)| ((s - t).abs(), ms))
                .collect();
            by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
            by_distance.iter().take(5).map(|&(_, ms)| ms).collect()
        };
        if near.is_empty() {
            return REFERENCE_MS;
        }
        near.sort_by(f64::total_cmp);
        near[(near.len() - 1) / 2]
    }

    /// `ms`, timed around `t`, as it would read at the reference speed.
    pub fn rescale(&self, t: f64, ms: f64) -> f64 {
        ms * REFERENCE_MS / self.kernel_ms_at(t)
    }

    pub fn rescale_all(&self, samples: &[(f64, f64)]) -> Vec<f64> {
        samples.iter().map(|&(t, ms)| self.rescale(t, ms)).collect()
    }

    /// Median kernel time over the run, in ms.
    pub fn median_kernel_ms(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        crate::stats::median(&all)
    }
}
