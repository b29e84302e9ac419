//! The extern-kernel registry.
//!
//! Normalization ensembles lower to `extern <name>` statements; the
//! runtime dispatches them through this registry, so downstream crates can
//! register new array-level operations without touching the compiler —
//! the extensibility story the paper attributes to
//! `NormalizationEnsemble`.
//!
//! Built-in kernels: plain softmax, softmax + cross-entropy loss,
//! Euclidean (L2) loss, local response normalization (AlexNet's LRN), and
//! batch normalization (whole-batch statistics).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::error::RuntimeError;

/// One extern-kernel invocation.
///
/// By default kernels run once per batch item with batched buffers sliced
/// to that item. A kernel registered with [`KernelRegistry::register_whole_batch`]
/// runs once per pass with full storages (`item == None`), for operations
/// that need cross-item statistics.
pub struct ExternInvocation<'a> {
    /// Scalar attributes from the ensemble's normalization spec.
    pub attrs: &'a BTreeMap<String, f64>,
    /// The batch the run covers; a whole-batch call's batched buffers
    /// hold exactly this many items.
    pub batch: usize,
    /// The current item for per-item calls; `None` for whole-batch calls.
    pub item: Option<usize>,
    /// Per-item element count of each buffer.
    pub per_item: &'a [usize],
    /// Whether each buffer is batched.
    pub batched: &'a [bool],
    pub(crate) bufs: Vec<&'a mut [f32]>,
}

impl<'a> ExternInvocation<'a> {
    /// Builds an invocation over caller-provided buffer views.
    ///
    /// The executor constructs invocations internally from its lowered
    /// plan; this constructor is the hook external drivers (notably the
    /// `latte-oracle` reference interpreter) use to run registered kernels
    /// over their own storage. `bufs` must follow the kernel's declared
    /// buffer order, with batched buffers already sliced to `item` for
    /// per-item calls.
    pub fn new(
        attrs: &'a BTreeMap<String, f64>,
        batch: usize,
        item: Option<usize>,
        per_item: &'a [usize],
        batched: &'a [bool],
        bufs: Vec<&'a mut [f32]>,
    ) -> Self {
        ExternInvocation {
            attrs,
            batch,
            item,
            per_item,
            batched,
            bufs,
        }
    }

    /// Read access to buffer `i` (sliced to the current item for per-item
    /// calls).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn buf(&self, i: usize) -> &[f32] {
        self.bufs[i]
    }

    /// Write access to buffer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn buf_mut(&mut self, i: usize) -> &mut [f32] {
        self.bufs[i]
    }

    /// Two disjoint buffers, one mutable — the common read-src/write-dst
    /// kernel shape.
    ///
    /// # Panics
    ///
    /// Panics when indices are equal or out of range.
    pub fn buf_pair_mut(&mut self, read: usize, write: usize) -> (&[f32], &mut [f32]) {
        assert_ne!(read, write, "buffer pair must be disjoint");
        // Split safely around the two indices.
        if read < write {
            let (lo, hi) = self.bufs.split_at_mut(write);
            (&*lo[read], hi[0])
        } else {
            let (lo, hi) = self.bufs.split_at_mut(read);
            (&*hi[0], lo[write])
        }
    }

    /// An attribute with a default.
    pub fn attr_or(&self, key: &str, default: f64) -> f64 {
        self.attrs.get(key).copied().unwrap_or(default)
    }
}

/// Signature of an extern kernel.
pub type ExternFn =
    Arc<dyn Fn(&mut ExternInvocation<'_>) -> Result<(), RuntimeError> + Send + Sync>;

/// Dispatch table from extern-op name to kernel.
#[derive(Clone)]
pub struct KernelRegistry {
    kernels: HashMap<String, (ExternFn, bool /* whole batch */)>,
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.kernels.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("KernelRegistry")
            .field("kernels", &names)
            .finish()
    }
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl KernelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        KernelRegistry {
            kernels: HashMap::new(),
        }
    }

    /// A registry pre-loaded with the standard-library kernels.
    pub fn with_builtins() -> Self {
        let mut r = KernelRegistry::new();
        r.register("softmax_forward", softmax_forward);
        r.register("softmax_backward", softmax_backward);
        r.register("softmax_loss_forward", softmax_loss_forward);
        r.register("softmax_loss_backward", softmax_loss_backward);
        r.register("l2_loss_forward", l2_loss_forward);
        r.register("l2_loss_backward", l2_loss_backward);
        r.register("lrn_forward", lrn_forward);
        r.register("lrn_backward", lrn_backward);
        r.register_whole_batch("batch_norm_forward", batch_norm_forward);
        r.register_whole_batch("batch_norm_backward", batch_norm_backward);
        r.register_dropout();
        r
    }

    /// Registers the dropout kernel pair. Forward draws a fresh Bernoulli
    /// mask per pass (a shared counter advances on each batch's first
    /// item) and records it in the mask state buffer, which backward
    /// replays — so the two passes of one iteration agree while
    /// iterations differ.
    pub fn register_dropout(&mut self) {
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let fwd_counter = counter.clone();
        self.register("dropout_forward", move |inv| {
            let ratio = inv.attr_or("ratio", 0.5) as f32;
            let seed = inv.attr_or("seed", 1.0) as u64;
            let item = inv.item.unwrap_or(0);
            let pass = if item == 0 {
                fwd_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            } else {
                fwd_counter
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .saturating_sub(1)
            };
            let keep_scale = 1.0 / (1.0 - ratio);
            let n = inv.per_item[0];
            for i in 0..n {
                let h = splitmix(
                    seed ^ pass.wrapping_mul(0x9e3779b97f4a7c15) ^ (item as u64) << 32 ^ i as u64,
                );
                let keep = (h >> 11) as f32 / (1u64 << 53) as f32 >= ratio;
                let m = if keep { keep_scale } else { 0.0 };
                inv.buf_mut(2)[i] = m;
                let x = inv.buf(0)[i];
                inv.buf_mut(1)[i] = x * m;
            }
            Ok(())
        });
        self.register("dropout_backward", move |inv| {
            // bufs: [in, out, out_grad, in_grad, mask]
            let n = inv.per_item[0];
            for i in 0..n {
                let g = inv.buf(2)[i] * inv.buf(4)[i];
                inv.buf_mut(3)[i] += g;
            }
            Ok(())
        });
    }

    /// Registers a per-item kernel.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut ExternInvocation<'_>) -> Result<(), RuntimeError> + Send + Sync + 'static,
    ) {
        self.kernels.insert(name.into(), (Arc::new(f), false));
    }

    /// Registers a kernel that runs once per pass with whole-batch
    /// buffers.
    pub fn register_whole_batch(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut ExternInvocation<'_>) -> Result<(), RuntimeError> + Send + Sync + 'static,
    ) {
        self.kernels.insert(name.into(), (Arc::new(f), true));
    }

    /// Looks up a kernel; the flag is `true` for whole-batch kernels.
    pub fn get(&self, name: &str) -> Result<(&ExternFn, bool), RuntimeError> {
        self.kernels
            .get(name)
            .map(|(f, w)| (f, *w))
            .ok_or_else(|| RuntimeError::UnknownExtern {
                op: name.to_string(),
            })
    }
}

// ---------------------------------------------------------------------
// Built-in kernels. Buffer ABIs follow latte-core's synthesis order:
// forward  = [src values...] ++ [own value] ++ [state...]
// backward = [src values...] ++ [own value, own grad] ++ [src grads...]
//            ++ [state...]
// ---------------------------------------------------------------------

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn softmax(input: &[f32], out: &mut [f32]) {
    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &x) in out.iter_mut().zip(input) {
        *o = (x - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// `softmax`: buffers `[in, out]`.
fn softmax_forward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let (input, out) = inv.buf_pair_mut(0, 1);
    softmax(input, out);
    Ok(())
}

/// `softmax` backward: buffers `[in, out, out_grad, in_grad]`.
/// `in_grad += out ⊙ (out_grad - <out_grad, out>)`.
fn softmax_backward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let dot: f32 = inv.buf(1).iter().zip(inv.buf(2)).map(|(o, g)| o * g).sum();
    let out = inv.buf(1).to_vec();
    let gout = inv.buf(2).to_vec();
    let gin = inv.buf_mut(3);
    for ((gi, o), g) in gin.iter_mut().zip(&out).zip(&gout) {
        *gi += o * (g - dot);
    }
    Ok(())
}

/// `softmax_loss`: buffers `[pred, label, loss, prob]`.
fn softmax_loss_forward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let (pred, prob) = inv.buf_pair_mut(0, 3);
    softmax(pred, prob);
    let label = inv.buf(1)[0] as usize;
    let n = inv.per_item[0];
    if label >= n {
        return Err(RuntimeError::Malformed {
            detail: format!("label {label} out of range for {n} classes"),
        });
    }
    let p = inv.buf(3)[label].max(1e-12);
    inv.buf_mut(2)[0] = -p.ln();
    Ok(())
}

/// `softmax_loss` backward: buffers
/// `[pred, label, loss, loss_grad, pred_grad, label_grad, prob]`.
/// `pred_grad += (prob - onehot(label)) / batch`.
fn softmax_loss_backward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let label = inv.buf(1)[0] as usize;
    let scale = 1.0 / inv.batch as f32;
    let (prob, gpred) = inv.buf_pair_mut(6, 4);
    for (i, (g, &p)) in gpred.iter_mut().zip(prob).enumerate() {
        let onehot = if i == label { 1.0 } else { 0.0 };
        *g += (p - onehot) * scale;
    }
    Ok(())
}

/// `l2_loss`: buffers `[pred, target, loss]`; `loss = ½‖pred - target‖²`.
fn l2_loss_forward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let loss: f32 = inv
        .buf(0)
        .iter()
        .zip(inv.buf(1))
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    inv.buf_mut(2)[0] = 0.5 * loss;
    Ok(())
}

/// `l2_loss` backward: buffers
/// `[pred, target, loss, loss_grad, pred_grad, target_grad]`.
fn l2_loss_backward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let scale = 1.0 / inv.batch as f32;
    let pred = inv.buf(0).to_vec();
    let target = inv.buf(1).to_vec();
    let gpred = inv.buf_mut(4);
    for ((g, p), t) in gpred.iter_mut().zip(&pred).zip(&target) {
        *g += (p - t) * scale;
    }
    Ok(())
}

/// Local response normalization across channels (AlexNet §3.3).
///
/// Buffers `[in, out, scale]`; layout `(y, x, c)` with `c` innermost;
/// attrs: `channels`, `size` (window), `alpha`, `beta`, `k`.
fn lrn_forward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let c = inv.attr_or("channels", 1.0) as usize;
    let size = inv.attr_or("size", 5.0) as usize;
    let alpha = inv.attr_or("alpha", 1e-4) as f32;
    let beta = inv.attr_or("beta", 0.75) as f32;
    let k = inv.attr_or("k", 1.0) as f32;
    let n = inv.per_item[0];
    let spatial = n / c;
    let half = size / 2;
    let input = inv.buf(0).to_vec();
    {
        let scale = inv.buf_mut(2);
        for s in 0..spatial {
            for ch in 0..c {
                let lo = ch.saturating_sub(half);
                let hi = (ch + half).min(c - 1);
                let mut acc = 0.0;
                for w in lo..=hi {
                    let v = input[s * c + w];
                    acc += v * v;
                }
                scale[s * c + ch] = k + alpha / size as f32 * acc;
            }
        }
    }
    let scale = inv.buf(2).to_vec();
    let out = inv.buf_mut(1);
    for ((o, &x), &sc) in out.iter_mut().zip(&input).zip(&scale) {
        *o = x * sc.powf(-beta);
    }
    Ok(())
}

/// LRN backward: buffers `[in, out, out_grad, in_grad, scale]`.
fn lrn_backward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let c = inv.attr_or("channels", 1.0) as usize;
    let size = inv.attr_or("size", 5.0) as usize;
    let alpha = inv.attr_or("alpha", 1e-4) as f32;
    let beta = inv.attr_or("beta", 0.75) as f32;
    let n = inv.per_item[0];
    let spatial = n / c;
    let half = size / 2;
    let input = inv.buf(0).to_vec();
    let out = inv.buf(1).to_vec();
    let gout = inv.buf(2).to_vec();
    let scale = inv.buf(4).to_vec();
    let gin = inv.buf_mut(3);
    // d in[j] = gout[j] * scale[j]^-beta
    //   - 2 alpha beta / size * in[j] * Σ_{i: j in window(i)} gout[i]*out[i]/scale[i]
    for s in 0..spatial {
        for ch in 0..c {
            let j = s * c + ch;
            let mut acc = gout[j] * scale[j].powf(-beta);
            let lo = ch.saturating_sub(half);
            let hi = (ch + half).min(c - 1);
            let mut cross = 0.0;
            for w in lo..=hi {
                let i = s * c + w;
                cross += gout[i] * out[i] / scale[i];
            }
            acc -= 2.0 * alpha * beta / size as f32 * input[j] * cross;
            gin[j] += acc;
        }
    }
    Ok(())
}

/// Batch normalization (whole batch): buffers `[in, out, mean, var]` with
/// `mean`/`var` shared state of length `channels`. Layout `(…, c)` with
/// `c` innermost; attrs: `channels`, `eps`.
fn batch_norm_forward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let c = inv.attr_or("channels", 1.0) as usize;
    let eps = inv.attr_or("eps", 1e-5) as f32;
    let n = inv.per_item[0];
    let spatial = n / c;
    let batch = inv.batch;
    let count = (batch * spatial) as f32;
    let input = inv.buf(0).to_vec();
    {
        let mean = inv.buf_mut(2);
        mean.fill(0.0);
        for b in 0..batch {
            for s in 0..spatial {
                for ch in 0..c {
                    mean[ch] += input[b * n + s * c + ch];
                }
            }
        }
        for m in mean.iter_mut() {
            *m /= count;
        }
    }
    let mean = inv.buf(2).to_vec();
    {
        let var = inv.buf_mut(3);
        var.fill(0.0);
        for b in 0..batch {
            for s in 0..spatial {
                for ch in 0..c {
                    let d = input[b * n + s * c + ch] - mean[ch];
                    var[ch] += d * d;
                }
            }
        }
        for v in var.iter_mut() {
            *v /= count;
        }
    }
    let var = inv.buf(3).to_vec();
    let out = inv.buf_mut(1);
    for b in 0..batch {
        for s in 0..spatial {
            for ch in 0..c {
                let i = b * n + s * c + ch;
                out[i] = (input[i] - mean[ch]) / (var[ch] + eps).sqrt();
            }
        }
    }
    Ok(())
}

/// Batch-norm backward (whole batch): buffers
/// `[in, out, out_grad, in_grad, mean, var]`.
fn batch_norm_backward(inv: &mut ExternInvocation<'_>) -> Result<(), RuntimeError> {
    let c = inv.attr_or("channels", 1.0) as usize;
    let eps = inv.attr_or("eps", 1e-5) as f32;
    let n = inv.per_item[0];
    let spatial = n / c;
    let batch = inv.batch;
    let count = (batch * spatial) as f32;
    let xhat = inv.buf(1).to_vec(); // out == normalized input
    let gout = inv.buf(2).to_vec();
    let var = inv.buf(5).to_vec();
    // Standard BN backward in terms of xhat:
    // gin = (gout - mean(gout) - xhat * mean(gout ⊙ xhat)) / sqrt(var+eps)
    let mut mean_g = vec![0.0f32; c];
    let mut mean_gx = vec![0.0f32; c];
    for b in 0..batch {
        for s in 0..spatial {
            for ch in 0..c {
                let i = b * n + s * c + ch;
                mean_g[ch] += gout[i];
                mean_gx[ch] += gout[i] * xhat[i];
            }
        }
    }
    for ch in 0..c {
        mean_g[ch] /= count;
        mean_gx[ch] /= count;
    }
    let gin = inv.buf_mut(3);
    for b in 0..batch {
        for s in 0..spatial {
            for ch in 0..c {
                let i = b * n + s * c + ch;
                gin[i] += (gout[i] - mean_g[ch] - xhat[i] * mean_gx[ch]) / (var[ch] + eps).sqrt();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invoke<'a>(
        attrs: &'a BTreeMap<String, f64>,
        batch: usize,
        bufs: Vec<&'a mut [f32]>,
    ) -> ExternInvocation<'a> {
        // Leaked: a few bytes per test, for borrows as long-lived as `bufs`.
        let per_item = Vec::leak(bufs.iter().map(|b| b.len()).collect());
        let batched = Vec::leak(bufs.iter().map(|_| true).collect());
        ExternInvocation {
            attrs,
            batch,
            item: Some(0),
            per_item,
            batched,
            bufs,
        }
    }

    #[test]
    fn softmax_normalizes() {
        let attrs = BTreeMap::new();
        let mut input = [1.0f32, 2.0, 3.0];
        let mut out = [0.0f32; 3];
        let mut inv = invoke(&attrs, 1, vec![&mut input, &mut out]);
        softmax_forward(&mut inv).unwrap();
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_loss_matches_manual_cross_entropy() {
        let attrs = BTreeMap::new();
        let mut pred = [0.5f32, 1.5, 0.0];
        let mut label = [1.0f32];
        let mut loss = [0.0f32];
        let mut prob = [0.0f32; 3];
        let mut inv = invoke(&attrs, 1, vec![&mut pred, &mut label, &mut loss, &mut prob]);
        softmax_loss_forward(&mut inv).unwrap();
        let expected = -(prob[1].ln());
        assert!((loss[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn softmax_loss_gradient_sums_to_zero() {
        let attrs = BTreeMap::new();
        let mut pred = [0.5f32, 1.5, 0.0];
        let mut label = [2.0f32];
        let mut loss = [0.0f32];
        let mut prob = [0.0f32; 3];
        {
            let mut inv = invoke(&attrs, 1, vec![&mut pred, &mut label, &mut loss, &mut prob]);
            softmax_loss_forward(&mut inv).unwrap();
        }
        let mut gloss = [0.0f32];
        let mut gpred = [0.0f32; 3];
        let mut glabel = [0.0f32];
        let mut inv = invoke(
            &attrs,
            1,
            vec![
                &mut pred,
                &mut label,
                &mut loss,
                &mut gloss,
                &mut gpred,
                &mut glabel,
                &mut prob,
            ],
        );
        softmax_loss_backward(&mut inv).unwrap();
        let sum: f32 = gpred.iter().sum();
        assert!(sum.abs() < 1e-6, "softmax grad rows sum to zero, got {sum}");
        assert!(gpred[2] < 0.0, "true-class grad is negative");
    }

    #[test]
    fn l2_loss_and_gradient() {
        let attrs = BTreeMap::new();
        let mut pred = [1.0f32, 2.0];
        let mut tgt = [0.0f32, 0.0];
        let mut loss = [0.0f32];
        {
            let mut inv = invoke(&attrs, 1, vec![&mut pred, &mut tgt, &mut loss]);
            l2_loss_forward(&mut inv).unwrap();
        }
        assert!((loss[0] - 2.5).abs() < 1e-6);
        let mut gl = [0.0f32];
        let mut gp = [0.0f32; 2];
        let mut gt = [0.0f32; 2];
        let mut inv = invoke(
            &attrs,
            1,
            vec![&mut pred, &mut tgt, &mut loss, &mut gl, &mut gp, &mut gt],
        );
        l2_loss_backward(&mut inv).unwrap();
        assert_eq!(gp, [1.0, 2.0]);
    }

    #[test]
    fn lrn_matches_direct_formula() {
        let mut attrs = BTreeMap::new();
        attrs.insert("channels".to_string(), 4.0);
        attrs.insert("size".to_string(), 3.0);
        attrs.insert("alpha".to_string(), 0.3);
        attrs.insert("beta".to_string(), 0.75);
        attrs.insert("k".to_string(), 1.0);
        let mut input = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        let mut scale = [0.0f32; 4];
        let mut inv = invoke(&attrs, 1, vec![&mut input, &mut out, &mut scale]);
        lrn_forward(&mut inv).unwrap();
        // Channel 0 window = {0, 1}: scale = 1 + 0.1*(1+4).
        let s0 = 1.0 + 0.3 / 3.0 * 5.0;
        assert!((scale[0] - s0).abs() < 1e-5);
        assert!((out[0] - 1.0 * s0.powf(-0.75)).abs() < 1e-5);
    }

    #[test]
    fn batch_norm_zero_mean_unit_var() {
        let mut attrs = BTreeMap::new();
        attrs.insert("channels".to_string(), 1.0);
        let mut input = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        let mut mean = [0.0f32];
        let mut var = [0.0f32];
        let mut inv = ExternInvocation {
            attrs: &attrs,
            batch: 4,
            item: None,
            per_item: &[1, 1, 1, 1],
            batched: &[true, true, false, false],
            bufs: vec![&mut input, &mut out, &mut mean, &mut var],
        };
        batch_norm_forward(&mut inv).unwrap();
        assert!((mean[0] - 2.5).abs() < 1e-5);
        let m: f32 = out.iter().sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-5);
    }

    #[test]
    fn registry_lookup_and_custom_registration() {
        let mut r = KernelRegistry::with_builtins();
        assert!(r.get("softmax_forward").is_ok());
        assert!(matches!(
            r.get("nope"),
            Err(RuntimeError::UnknownExtern { .. })
        ));
        r.register("custom", |inv| {
            inv.buf_mut(0)[0] = 42.0;
            Ok(())
        });
        let (f, whole) = r.get("custom").unwrap();
        assert!(!whole);
        let attrs = BTreeMap::new();
        let mut data = [0.0f32];
        let mut inv = invoke(&attrs, 1, vec![&mut data]);
        f(&mut inv).unwrap();
        assert_eq!(data[0], 42.0);
    }
}
