//! The analytic cluster model behind Figures 18–19.
//!
//! No MPI cluster exists in this environment, so for the *scaling
//! figures* the machines are modeled while the algorithm's schedule is
//! reproduced: gradient summation over model replicas, with each layer's
//! asynchronous all-reduce (`MPI_Iallreduce`, modeled as a ring)
//! initiated the moment its backward completes and overlapped with the
//! remaining back-propagation — the mechanism the paper credits for its
//! scaling ("as soon as a gradient is computed, Latte initiates
//! asynchronous communication ... and then continues computing more
//! gradients").
//!
//! Per-layer compute times come from *measured* single-node executor
//! profiles (`Executor::backward_timed`) or from operation counts at the
//! paper's model scale; the network is a latency/bandwidth model with a
//! single NIC per node (transfers serialize). The code that actually
//! trains replicas — the real ring over a real transport — lives in
//! `latte_runtime::{ring, dist}`; this module only projects its timing
//! to node counts this host does not have.

/// A network fabric model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Per-node injection bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Cray-Aries-like ("dragonfly") parameters for the Cori evaluation.
    pub fn aries_like() -> Self {
        NetworkModel {
            latency: 1.5e-6,
            bandwidth: 8e9,
        }
    }

    /// FDR-InfiniBand-like parameters for the commodity cluster.
    pub fn infiniband_like() -> Self {
        NetworkModel {
            latency: 3e-6,
            bandwidth: 6e9,
        }
    }

    /// Ring all-reduce time for `bytes` across `nodes`:
    /// `2(N-1)` steps of `bytes/N` plus per-step latency.
    pub fn allreduce_time(&self, bytes: f64, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let n = nodes as f64;
        2.0 * (n - 1.0) * (self.latency + bytes / n / self.bandwidth)
    }
}

/// One layer's contribution to an iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Group name (diagnostic).
    pub name: String,
    /// Forward milliseconds per *item* on one node.
    pub fwd_ms_per_item: f64,
    /// Backward milliseconds per item on one node.
    pub bwd_ms_per_item: f64,
    /// Fixed per-batch overhead milliseconds (copies, kernel setup) —
    /// this is what makes small per-node batches less efficient, the
    /// effect behind the Figure-18 efficiency droop.
    pub fixed_ms: f64,
    /// Gradient bytes this layer contributes to the all-reduce.
    pub grad_bytes: f64,
}

/// The cluster being simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Fabric model.
    pub network: NetworkModel,
}

/// Result of simulating one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationReport {
    /// Total communication milliseconds (all layers' all-reduces).
    pub comm_ms: f64,
    /// End-to-end iteration milliseconds: compute plus the communication
    /// not hidden behind backward.
    pub total_ms: f64,
}

impl IterationReport {
    /// Images per second for a global batch.
    pub fn throughput(&self, global_batch: usize) -> f64 {
        global_batch as f64 / (self.total_ms / 1e3)
    }
}

/// Simulates one data-parallel iteration.
///
/// `layers` are in *forward* order; backward runs them in reverse, and
/// each layer's gradient all-reduce is enqueued on the NIC the moment its
/// backward finishes.
pub fn simulate_iteration(
    spec: &ClusterSpec,
    layers: &[LayerProfile],
    per_node_batch: usize,
) -> IterationReport {
    let items = per_node_batch as f64;
    let fwd_ms: f64 = layers
        .iter()
        .map(|l| l.fixed_ms + l.fwd_ms_per_item * items)
        .sum();
    // Backward with overlapped communication: single NIC, FIFO.
    let mut t = fwd_ms;
    let mut nic_free = fwd_ms;
    let mut comm_ms = 0.0;
    for l in layers.iter().rev() {
        t += l.fixed_ms + l.bwd_ms_per_item * items;
        let ar = spec.network.allreduce_time(l.grad_bytes, spec.nodes) * 1e3;
        comm_ms += ar;
        let start = t.max(nic_free);
        nic_free = start + ar;
    }
    IterationReport {
        comm_ms,
        total_ms: t.max(nic_free),
    }
}

/// A strong-scaling sweep (fixed global batch split across nodes; the
/// Figure-18 Cori experiment). Returns `(nodes, throughput, efficiency)`
/// rows; efficiency is relative to perfect linear scaling of the
/// single-node throughput.
pub fn strong_scaling(
    network: NetworkModel,
    layers: &[LayerProfile],
    global_batch: usize,
    node_counts: &[usize],
) -> Vec<(usize, f64, f64)> {
    let base = simulate_iteration(&ClusterSpec { nodes: 1, network }, layers, global_batch)
        .throughput(global_batch);
    node_counts
        .iter()
        .map(|&n| {
            let per_node = (global_batch / n).max(1);
            let rep = simulate_iteration(&ClusterSpec { nodes: n, network }, layers, per_node);
            let thr = rep.throughput(per_node * n);
            (n, thr, thr / (base * n as f64))
        })
        .collect()
}

/// A weak-scaling sweep (fixed per-node batch; the Figure-19 commodity
/// cluster experiment). Returns `(nodes, throughput, efficiency)` rows.
pub fn weak_scaling(
    network: NetworkModel,
    layers: &[LayerProfile],
    per_node_batch: usize,
    node_counts: &[usize],
) -> Vec<(usize, f64, f64)> {
    let base = simulate_iteration(&ClusterSpec { nodes: 1, network }, layers, per_node_batch)
        .throughput(per_node_batch);
    node_counts
        .iter()
        .map(|&n| {
            let rep =
                simulate_iteration(&ClusterSpec { nodes: n, network }, layers, per_node_batch);
            let thr = rep.throughput(per_node_batch * n);
            (n, thr, thr / (base * n as f64))
        })
        .collect()
}

/// Builds *analytic* layer profiles at the paper's published model scale:
/// per-layer times from floating-point operation counts at an assumed
/// effective node throughput, gradient bytes from exact parameter counts.
/// Used to project cluster behaviour in the regime the paper measured
/// (full-width models, where communication is substantial) without
/// needing hours of single-core measurement.
///
/// Each entry of `layers` is `(name, fwd_flops_per_item, param_count)`.
///
/// `serial_items` models the many-core node's loss of parallel
/// efficiency at small batches (the paper attributes the Figure-18 droop
/// to "a reduction in the amount of available parallelism"): each layer
/// pass carries a fixed cost equivalent to processing `serial_items`
/// additional items, so per-node efficiency is roughly
/// `items / (items + serial_items)`.
pub fn analytic_profiles(
    layers: &[(String, f64, f64)],
    node_gflops: f64,
    serial_items: f64,
) -> Vec<LayerProfile> {
    layers
        .iter()
        .map(|(name, flops, params)| {
            let fwd = flops / (node_gflops * 1e9) * 1e3;
            LayerProfile {
                name: name.clone(),
                fwd_ms_per_item: fwd,
                // Backward is roughly 2x forward (two GEMMs per layer).
                bwd_ms_per_item: 2.0 * fwd,
                // Split across the two phases (simulate adds it twice).
                fixed_ms: serial_items * 1.5 * fwd,
                grad_bytes: params * 4.0,
            }
        })
        .collect()
}

/// Builds layer profiles from measured per-group forward/backward times
/// (see `Executor::forward_timed`), distributing gradient bytes by the
/// ensembles named in each backward group.
pub fn profiles_from_measurements(
    fwd: &[(String, f64)],
    bwd: &[(String, f64)],
    batch: usize,
    grad_bytes_by_group: impl Fn(&str) -> f64,
    fixed_fraction: f64,
) -> Vec<LayerProfile> {
    // Pair forward groups with backward groups by position from the ends
    // (backward runs in reverse order and may have fewer groups — e.g.
    // data layers have no backward).
    let items = batch as f64;
    fwd.iter()
        .enumerate()
        .map(|(i, (name, f_ms))| {
            let b_ms = bwd.iter().rev().nth(i).map(|(_, m)| *m).unwrap_or(0.0);
            LayerProfile {
                name: name.clone(),
                fwd_ms_per_item: f_ms * (1.0 - fixed_fraction) / items,
                bwd_ms_per_item: b_ms * (1.0 - fixed_fraction) / items,
                fixed_ms: (f_ms + b_ms) * fixed_fraction,
                grad_bytes: grad_bytes_by_group(name),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_like_layers() -> Vec<LayerProfile> {
        // Coarse VGG-ish: heavy convs with small gradients, light FCs
        // with huge gradients.
        let mut layers = Vec::new();
        for (i, (fwd, bwd, mb)) in [
            (4.0, 8.0, 0.15),
            (3.0, 6.0, 0.3),
            (2.5, 5.0, 2.3),
            (2.0, 4.0, 9.4),
            (1.0, 2.0, 9.4),
            (0.6, 1.2, 400.0),
            (0.2, 0.4, 64.0),
            (0.1, 0.2, 16.0),
        ]
        .into_iter()
        .enumerate()
        {
            layers.push(LayerProfile {
                name: format!("layer{i}"),
                fwd_ms_per_item: fwd / 10.0,
                bwd_ms_per_item: bwd / 10.0,
                fixed_ms: 0.4,
                grad_bytes: mb * 1e6,
            });
        }
        layers
    }

    #[test]
    fn single_node_has_no_communication() {
        let rep = simulate_iteration(
            &ClusterSpec {
                nodes: 1,
                network: NetworkModel::aries_like(),
            },
            &vgg_like_layers(),
            64,
        );
        assert_eq!(rep.comm_ms, 0.0);
    }

    #[test]
    fn weak_scaling_is_near_linear() {
        // Figure 19's claim: constant communication cost as nodes grow,
        // ~84% efficiency at 32 nodes.
        let rows = weak_scaling(
            NetworkModel::infiniband_like(),
            &vgg_like_layers(),
            64,
            &[1, 2, 4, 8, 16, 32],
        );
        let eff32 = rows.last().unwrap().2;
        assert!(eff32 > 0.7, "weak-scaling efficiency at 32 nodes: {eff32}");
        // Efficiency roughly flat: ring all-reduce cost saturates.
        let eff2 = rows[1].2;
        assert!((eff2 - eff32).abs() < 0.25, "{eff2} vs {eff32}");
    }

    #[test]
    fn strong_scaling_droops_at_small_batches() {
        // Figure 18's claim: efficiency drops as per-node batch shrinks.
        let rows = strong_scaling(
            NetworkModel::aries_like(),
            &vgg_like_layers(),
            512,
            &[1, 2, 4, 8, 16, 32, 64],
        );
        let eff: Vec<f64> = rows.iter().map(|r| r.2).collect();
        assert!(eff[0] > 0.99);
        assert!(
            eff.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "monotone droop: {eff:?}"
        );
        assert!(eff[6] < 0.9, "64-node efficiency must droop: {}", eff[6]);
        assert!(eff[6] > 0.1, "but not collapse entirely: {}", eff[6]);
        // At moderate node counts the droop is mild (the paper's curve
        // stays near-linear through 8 nodes).
        assert!(eff[3] > 0.6, "8-node efficiency: {}", eff[3]);
    }

    #[test]
    fn overlap_hides_most_communication() {
        let on = |nodes| {
            let spec = ClusterSpec {
                nodes,
                network: NetworkModel::infiniband_like(),
            };
            simulate_iteration(&spec, &vgg_like_layers(), 64)
        };
        // One node computes the same per-node batch and communicates
        // nothing, so what sixteen add to its iteration is exposed.
        let rep = on(16);
        let exposed = rep.total_ms - on(1).total_ms;
        assert!(
            exposed < rep.comm_ms * 0.6,
            "exposed {exposed} of {}",
            rep.comm_ms
        );
    }

    #[test]
    fn allreduce_time_scales_with_bytes_and_saturates_with_nodes() {
        let net = NetworkModel::aries_like();
        let t8 = net.allreduce_time(1e6, 8);
        let t16 = net.allreduce_time(1e6, 16);
        assert!(t16 < t8 * 1.5, "ring saturates: {t8} vs {t16}");
        assert!(net.allreduce_time(2e6, 8) > t8);
        assert_eq!(net.allreduce_time(1e6, 1), 0.0);
    }
}
