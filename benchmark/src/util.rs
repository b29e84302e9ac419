//! Seeded inputs, order statistics, digests and the process's peak RSS.

use std::time::Instant;

/// splitmix64: every input of the benchmark is drawn from one of these,
/// seeded from `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `(-scale, scale)`.
    pub fn signed(&mut self, scale: f32) -> f32 {
        ((2.0 * self.unit() - 1.0) as f32) * scale
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over the bits of everything the benchmark generated or the
/// program produced; printed so two runs of one seed can be diffed.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(v.to_le_bytes());
    }

    pub fn f32s(&mut self, values: &[f32]) {
        self.bytes(values.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }

    pub fn batch(&mut self, batch: &[(String, Vec<f32>)]) {
        for (_, values) in batch {
            self.f32s(values);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the benchmark's spread is judged by.
pub fn quartiles(mut values: Vec<f64>) -> (f64, f64, f64) {
    sort(&mut values);
    let n = values.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Past the clamp this extrapolates, as Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// One unit of work, a training step or a request: how long it took
/// and when it finished, in seconds from the start of the window.
pub struct Unit {
    pub ms: f64,
    pub done_s: f64,
}

/// The window's timing figures; see [`summarize`].
pub struct Summary {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub per_s: f64,
    /// The same three over the whole window in one piece.
    pub window_p50_ms: f64,
    pub window_p99_ms: f64,
    pub window_per_s: f64,
    pub units: usize,
}

/// Consecutive chunks the window is cut into.
const CHUNKS: usize = 10;

/// Cuts the window into ten consecutive chunks of equal unit count,
/// takes p50, p99 and units-per-second on each, and reports the best of
/// the ten: the lowest p50, the lowest p99, the highest rate.
///
/// On a shared host interference only ever slows a chunk down (one
/// 440 ms stall moved serve.steady's whole-window p99 by 50x), so the
/// calmest chunk estimates the program's own speed; a change to the
/// program moves every chunk and therefore moves the best one too. The
/// whole-window figures are reported beside it, ungated.
pub fn summarize(units: &[Unit]) -> Summary {
    assert!(
        units.len() >= 2 * CHUNKS,
        "a window needs at least {} units",
        2 * CHUNKS
    );
    let figures = |units: &[Unit], from_s: f64| {
        let mut ms: Vec<f64> = units.iter().map(|u| u.ms).collect();
        sort(&mut ms);
        let wall = units.last().expect("non-empty chunk").done_s - from_s;
        (
            percentile(&ms, 50.0),
            percentile(&ms, 99.0),
            units.len() as f64 / wall,
        )
    };
    let per_chunk = units.len() / CHUNKS;
    let (mut p50, mut p99, mut per_s) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..CHUNKS {
        let from_s = if i == 0 {
            0.0
        } else {
            units[i * per_chunk - 1].done_s
        };
        let (a, b, c) = figures(&units[i * per_chunk..(i + 1) * per_chunk], from_s);
        p50.push(a);
        p99.push(b);
        per_s.push(c);
    }
    let (window_p50_ms, window_p99_ms, window_per_s) = figures(units, 0.0);
    Summary {
        p50_ms: p50.into_iter().fold(f64::INFINITY, f64::min),
        p99_ms: p99.into_iter().fold(f64::INFINITY, f64::min),
        per_s: per_s.into_iter().fold(0.0, f64::max),
        window_p50_ms,
        window_p99_ms,
        window_per_s,
        units: units.len(),
    }
}

/// The chunk, of the ten, with the lowest median: where the traced
/// run's per-unit decompositions are taken, for the reason `summarize`
/// gives. Inside one calm chunk the parts of a unit are tightly
/// distributed, so their medians add up to the unit's median; across a
/// window with a stall in it they need not.
pub fn calmest_chunk(ms: &[f64]) -> std::ops::Range<usize> {
    assert!(ms.len() >= CHUNKS, "a window needs at least {CHUNKS} units");
    let per_chunk = ms.len() / CHUNKS;
    (0..CHUNKS)
        .map(|i| i * per_chunk..(i + 1) * per_chunk)
        .min_by(|a, b| {
            let (a, b) = (
                median(ms[a.clone()].to_vec()),
                median(ms[b.clone()].to_vec()),
            );
            a.partial_cmp(&b).expect("timings are never NaN")
        })
        .expect("ten chunks")
}

/// Peak resident set of this process, `VmHWM`, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one call, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median milliseconds per call of `f` over `reps` calls after one
/// untimed call.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median((0..reps).map(|_| time_ms(&mut f).1).collect())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread spawned from it
/// afterwards, to one of the CPUs it may run on: the highest-numbered,
/// away from CPU 0's interrupts. Returns that CPU, or `None` when the
/// kernel refuses (the run then goes on unpinned). Linux only, like the
/// `/proc` reads above.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `bytes` bytes into `allowed`,
    // which is exactly that long; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `bytes` bytes from `one`, which is that
    // long and outlives the call; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_pythons() {
        // statistics.quantiles(values, n=4) on the same lists.
        assert_eq!(quartiles(vec![1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(vec![1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        let ten = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(quartiles(ten), (1.75, 3.5, 5.25));
    }

    #[test]
    fn best_chunk_ignores_a_stall() {
        let mut units: Vec<Unit> = (0..200)
            .map(|i| Unit {
                ms: 1.0 + (i % 7) as f64 * 0.01,
                done_s: (i + 1) as f64 * 0.001,
            })
            .collect();
        let calm = summarize(&units);
        for stalled in &mut units[3..6] {
            stalled.ms = 400.0;
        }
        let stalled = summarize(&units);
        assert_eq!(calm.p99_ms, stalled.p99_ms);
        assert!(stalled.window_p99_ms > calm.window_p99_ms);
    }
}
