//! Intra-node heterogeneous scheduling with simulated coprocessors
//! (the paper's Section 6.1 and Figure 17).
//!
//! No Xeon Phi exists in this environment, so the coprocessor is a
//! *device model*: a relative compute speed plus a PCIe-like transfer
//! channel (latency + bandwidth). The scheduler itself — input double
//! buffering, host/accelerator batch chunking, and the one-time linear
//! search for the chunk size that balances accelerator and host time —
//! runs unmodified against the model, which is the mechanism Figure 17
//! evaluates ("each Xeon Phi card adds an additional 50% throughput",
//! limited by transferring gradients back per chunk).

/// A modeled accelerator card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorSpec {
    /// Compute throughput relative to the host (1.0 = same speed).
    pub relative_speed: f64,
    /// Interconnect bandwidth in bytes per second (PCIe-like).
    pub bandwidth: f64,
    /// Per-transfer latency in seconds.
    pub latency: f64,
}

impl AcceleratorSpec {
    /// A Xeon-Phi-like card, calibrated so the tuned steady state
    /// reproduces the paper's observed behaviour ("each Xeon Phi card
    /// adds an additional 50% throughput", limited by returning gradients
    /// per chunk): noticeably below host throughput on this workload,
    /// PCIe-2-era interconnect.
    pub fn phi_like() -> Self {
        AcceleratorSpec {
            relative_speed: 0.55,
            bandwidth: 6e9,
            latency: 20e-6,
        }
    }

    /// Time to move `bytes` across the interconnect.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// Workload description for the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModel {
    /// Host seconds to process one input item (forward + backward).
    pub host_seconds_per_item: f64,
    /// Bytes of input data per item (hidden by double buffering after
    /// the first iteration).
    pub input_bytes_per_item: f64,
    /// Bytes of gradients returned per chunk (model-sized; *not*
    /// overlapped — the paper names this the throughput limiter).
    pub gradient_bytes: f64,
}

/// The host + accelerators chunk scheduler.
#[derive(Debug, Clone)]
pub struct HeterogeneousScheduler {
    workload: WorkloadModel,
    accels: Vec<AcceleratorSpec>,
    chunks: Vec<usize>,
}

/// Initial accelerator chunk size of the linear search (the paper begins
/// at 16).
const INITIAL_CHUNK: usize = 16;

impl HeterogeneousScheduler {
    /// Creates a scheduler; chunk sizes start at the paper's initial
    /// value and are tuned by [`HeterogeneousScheduler::tune`].
    pub fn new(workload: WorkloadModel, accels: Vec<AcceleratorSpec>) -> Self {
        let chunks = vec![INITIAL_CHUNK; accels.len()];
        HeterogeneousScheduler {
            workload,
            accels,
            chunks,
        }
    }

    /// The current per-accelerator chunk sizes.
    pub fn chunks(&self) -> &[usize] {
        &self.chunks
    }

    /// Accelerator time to process a chunk and return its gradients.
    fn accel_time(&self, a: &AcceleratorSpec, chunk: usize) -> f64 {
        chunk as f64 * self.workload.host_seconds_per_item / a.relative_speed
            + a.transfer_time(self.workload.gradient_bytes)
    }

    /// Host time for its share of the batch.
    fn host_time(&self, items: usize) -> f64 {
        items as f64 * self.workload.host_seconds_per_item
    }

    /// Steady-state time for one batch with the current chunk split
    /// (input transfers hidden by double buffering).
    pub fn iteration_time(&self, batch: usize) -> f64 {
        let offloaded: usize = self.chunks.iter().sum();
        let host_items = batch.saturating_sub(offloaded);
        let mut t = self.host_time(host_items);
        for (a, &chunk) in self.accels.iter().zip(&self.chunks) {
            t = t.max(self.accel_time(a, chunk.min(batch)));
        }
        t
    }

    /// The paper's one-time linear search: grow each accelerator's chunk
    /// until its processing time matches the host's share.
    pub fn tune(&mut self, batch: usize) {
        for i in 0..self.accels.len() {
            self.chunks[i] = INITIAL_CHUNK.min(batch);
        }
        loop {
            let offloaded: usize = self.chunks.iter().sum();
            if offloaded >= batch {
                break;
            }
            let host_items = batch - offloaded;
            let host_t = self.host_time(host_items);
            // Grow the accelerator that is furthest below the host time.
            let mut best: Option<(usize, f64)> = None;
            for (i, (a, &chunk)) in self.accels.iter().zip(&self.chunks).enumerate() {
                let t = self.accel_time(a, chunk);
                if t < host_t && best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((i, t));
                }
            }
            match best {
                Some((i, _)) => self.chunks[i] += 1,
                None => break,
            }
        }
    }

    /// Steady-state throughput (items per second) after tuning.
    pub fn throughput(&mut self, batch: usize) -> f64 {
        self.tune(batch);
        batch as f64 / self.iteration_time(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> WorkloadModel {
        WorkloadModel {
            host_seconds_per_item: 1e-3,
            input_bytes_per_item: 224.0 * 224.0 * 3.0 * 4.0,
            gradient_bytes: 60e6 * 4.0 / 100.0, // scaled model
        }
    }

    #[test]
    fn each_card_adds_meaningful_throughput() {
        let batch = 256;
        let t0 = HeterogeneousScheduler::new(workload(), vec![]).throughput(batch);
        let t1 = HeterogeneousScheduler::new(workload(), vec![AcceleratorSpec::phi_like()])
            .throughput(batch);
        let t2 = HeterogeneousScheduler::new(
            workload(),
            vec![AcceleratorSpec::phi_like(), AcceleratorSpec::phi_like()],
        )
        .throughput(batch);
        assert!(t1 > t0 * 1.2, "one card: {t0} -> {t1}");
        assert!(t2 > t1 * 1.1, "two cards: {t1} -> {t2}");
        // Shape of Figure 17: roughly +50% per card (generous bounds).
        let gain1 = t1 / t0;
        assert!((1.2..2.1).contains(&gain1), "gain1 = {gain1}");
    }

    #[test]
    fn tuning_balances_host_and_accelerator() {
        let mut s = HeterogeneousScheduler::new(workload(), vec![AcceleratorSpec::phi_like()]);
        s.tune(256);
        let chunk = s.chunks()[0];
        assert!(chunk > INITIAL_CHUNK, "search grew the chunk: {chunk}");
        let host_items = 256 - chunk;
        let host_t = s.host_time(host_items);
        let accel_t = s.accel_time(&AcceleratorSpec::phi_like(), chunk);
        let imbalance = (host_t - accel_t).abs() / host_t;
        assert!(imbalance < 0.1, "imbalance {imbalance}");
    }

    #[test]
    fn zero_accelerators_is_pure_host() {
        let s = HeterogeneousScheduler::new(workload(), vec![]);
        let t = s.iteration_time(100);
        assert!((t - 0.1).abs() < 1e-9);
    }
}
