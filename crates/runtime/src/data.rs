//! Data sources: synthetic datasets (the stand-ins for ImageNet and
//! MNIST, which are not available in this environment) and a
//! double-buffered prefetching loader matching the paper's Section 6.1
//! input pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::RuntimeError;

/// A batch: `(data ensemble name, batch * per_item values)` pairs.
pub type Batch = Vec<(String, Vec<f32>)>;

/// A source of training batches.
pub trait BatchSource {
    /// The next batch, `Ok(None)` at the end of an epoch, or an error
    /// when the source itself failed (I/O, a dead prefetch thread, …) —
    /// infallible in-memory sources simply always return `Ok`.
    fn next_batch(&mut self) -> Result<Option<Batch>, RuntimeError>;

    /// Restarts the epoch.
    fn reset(&mut self);
}

/// An in-memory dataset of `(input, label)` items served in fixed-size
/// batches (the stand-in for the paper's `HDF5DataLayer`).
#[derive(Debug, Clone)]
pub struct MemoryDataSource {
    input_name: String,
    label_name: String,
    items: Vec<(Vec<f32>, f32)>,
    batch: usize,
    cursor: usize,
}

impl MemoryDataSource {
    /// Creates a source over items; partial trailing batches are dropped
    /// (as in Caffe).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `batch` is zero or
    /// there are fewer items than one batch.
    pub fn try_new(
        input_name: impl Into<String>,
        label_name: impl Into<String>,
        items: Vec<(Vec<f32>, f32)>,
        batch: usize,
    ) -> Result<Self, RuntimeError> {
        if batch == 0 {
            return Err(RuntimeError::InvalidConfig {
                detail: "data source batch size must be non-zero".to_string(),
            });
        }
        if items.len() < batch {
            return Err(RuntimeError::InvalidConfig {
                detail: format!(
                    "data source needs at least one full batch ({} items < batch {batch})",
                    items.len()
                ),
            });
        }
        Ok(MemoryDataSource {
            input_name: input_name.into(),
            label_name: label_name.into(),
            items,
            batch,
            cursor: 0,
        })
    }

    /// The items (for accuracy evaluation).
    pub fn items(&self) -> &[(Vec<f32>, f32)] {
        &self.items
    }
}

impl BatchSource for MemoryDataSource {
    fn next_batch(&mut self) -> Result<Option<Batch>, RuntimeError> {
        if self.cursor + self.batch > self.items.len() {
            return Ok(None);
        }
        let slice = &self.items[self.cursor..self.cursor + self.batch];
        self.cursor += self.batch;
        let mut inputs = Vec::with_capacity(slice.len() * slice[0].0.len());
        let mut labels = Vec::with_capacity(slice.len());
        for (x, y) in slice {
            inputs.extend_from_slice(x);
            labels.push(*y);
        }
        Ok(Some(vec![
            (self.input_name.clone(), inputs),
            (self.label_name.clone(), labels),
        ]))
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// A double-buffered prefetching wrapper: while the consumer processes
/// batch `i`, a background thread prepares batch `i+1` into the spare
/// buffer and the buffers swap on [`BatchSource::next_batch`] — the
/// paper's input double buffering, at the host level.
///
/// Batches carry an epoch *generation*; [`BatchSource::reset`] bumps the
/// consumer's generation and the next acknowledgement tells the prefetch
/// thread to reset, so a batch prefetched before the reset is discarded
/// rather than served stale.
///
/// A panicked prefetch thread is *not* contagious: the panic is caught
/// at the thread boundary and surfaces as a [`RuntimeError::Interrupted`]
/// from `next_batch` / [`DoubleBufferedSource::into_inner`] (carrying
/// the panic message), so the supervisor can treat it like any other
/// recoverable crash instead of unwinding the training loop.
#[derive(Debug)]
pub struct DoubleBufferedSource<S: BatchSource + Send + 'static> {
    rx: std::sync::mpsc::Receiver<(u64, Result<Option<Batch>, RuntimeError>)>,
    control: std::sync::mpsc::Sender<Control>,
    handle: Option<std::thread::JoinHandle<S>>,
    gen: u64,
    resets_pending: u64,
    failed: Option<RuntimeError>,
}

#[derive(Debug)]
enum Control {
    Continue,
    Reset,
    Stop,
}

impl<S: BatchSource + Send + 'static> DoubleBufferedSource<S> {
    /// Wraps a source, spawning the prefetch thread.
    pub fn new(mut inner: S) -> Self {
        let (tx, rx) =
            std::sync::mpsc::sync_channel::<(u64, Result<Option<Batch>, RuntimeError>)>(1);
        let (ctl_tx, ctl_rx) = std::sync::mpsc::channel::<Control>();
        let handle = std::thread::spawn(move || {
            let mut generation = 0u64;
            loop {
                let batch = inner.next_batch();
                if tx.send((generation, batch)).is_err() {
                    break;
                }
                match ctl_rx.recv() {
                    Ok(Control::Continue) => {}
                    Ok(Control::Reset) => {
                        generation += 1;
                        inner.reset();
                    }
                    Ok(Control::Stop) | Err(_) => break,
                }
            }
            inner
        });
        DoubleBufferedSource {
            rx,
            control: ctl_tx,
            handle: Some(handle),
            gen: 0,
            resets_pending: 0,
            failed: None,
        }
    }

    /// Stops the prefetcher and returns the inner source.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Interrupted`] when the prefetch thread panicked —
    /// the inner source died with it and cannot be returned.
    pub fn into_inner(mut self) -> Result<S, RuntimeError> {
        let _ = self.control.send(Control::Stop);
        let _ = self.rx.try_recv();
        match self.handle.take() {
            Some(h) => h.join().map_err(|p| RuntimeError::Interrupted {
                detail: format!(
                    "prefetch thread panicked: {}",
                    crate::error::panic_message(p.as_ref())
                ),
            }),
            // next_batch already reaped the dead thread.
            None => Err(self.failed.clone().unwrap_or(RuntimeError::Interrupted {
                detail: "prefetch thread already shut down".into(),
            })),
        }
    }

    /// Diagnoses a closed batch channel: joins the prefetch thread and
    /// converts its panic (the only way the channel closes while `self`
    /// holds the control sender) into a runtime error.
    fn reap_prefetch_thread(&mut self) -> RuntimeError {
        let detail = match self.handle.take() {
            Some(h) => match h.join() {
                Ok(_) => "prefetch thread exited unexpectedly".to_string(),
                Err(p) => format!(
                    "prefetch thread panicked: {}",
                    crate::error::panic_message(p.as_ref())
                ),
            },
            None => "prefetch thread already shut down".to_string(),
        };
        RuntimeError::Interrupted { detail }
    }
}

impl<S: BatchSource + Send + 'static> BatchSource for DoubleBufferedSource<S> {
    fn next_batch(&mut self) -> Result<Option<Batch>, RuntimeError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        loop {
            let (g, batch) = match self.rx.recv() {
                Ok(msg) => msg,
                Err(_) => {
                    let e = self.reap_prefetch_thread();
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            };
            // One control acknowledgement per received buffer. A stale
            // generation gets the pending Reset; current ones Continue.
            if g == self.gen {
                let _ = self.control.send(Control::Continue);
                return batch;
            }
            if self.resets_pending > 0 {
                let _ = self.control.send(Control::Reset);
                self.resets_pending -= 1;
            } else {
                let _ = self.control.send(Control::Continue);
            }
            // Discard the stale buffer and wait for the fresh epoch.
        }
    }

    fn reset(&mut self) {
        self.gen += 1;
        self.resets_pending += 1;
    }
}

impl<S: BatchSource + Send + 'static> Drop for DoubleBufferedSource<S> {
    fn drop(&mut self) {
        let _ = self.control.send(Control::Stop);
        let _ = self.rx.try_recv();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A deterministic MNIST-like dataset: 10 class-conditional 28x28 digit
/// prototypes (coarse stroke patterns) plus per-item Gaussian-ish noise.
/// Fig. 20 compares lossy vs. sequential gradient accumulation *on the
/// same data*, which any separable dataset exhibits.
pub fn synthetic_mnist(n_items: usize, seed: u64) -> Vec<(Vec<f32>, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = 28;
    // Build 10 prototypes: a bright rectangle band whose position and
    // orientation depend on the class.
    let mut prototypes = Vec::with_capacity(10);
    for class in 0..10usize {
        let mut img = vec![0.0f32; side * side];
        let horizontal = class % 2 == 0;
        let band = 3 + (class / 2) * 5; // 3, 3, 8, 8, 13, ...
        for y in 0..side {
            for x in 0..side {
                let on = if horizontal {
                    y >= band && y < band + 4
                } else {
                    x >= band && x < band + 4
                };
                // A class-specific diagonal accent makes all ten
                // prototypes pairwise distinct.
                let accent = (x + y * (1 + class % 3)) % 9 == class % 9;
                img[y * side + x] = if on { 1.0 } else { 0.0 } + if accent { 0.5 } else { 0.0 };
            }
        }
        prototypes.push(img);
    }
    (0..n_items)
        .map(|_| {
            let class = rng.gen_range(0..10usize);
            let img: Vec<f32> = prototypes[class]
                .iter()
                .map(|&p| p + rng.gen_range(-0.2..0.2))
                .collect();
            (img, class as f32)
        })
        .collect()
}

/// A tiny sequence task for the RNN examples: given `steps` input
/// vectors, the label is the index of the step whose sum is largest.
/// Returns per-item `(concatenated inputs, label)`.
pub fn synthetic_sequences(
    steps: usize,
    width: usize,
    n_items: usize,
    seed: u64,
) -> Vec<(Vec<f32>, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_items)
        .map(|_| {
            let hot = rng.gen_range(0..steps);
            let mut xs = Vec::with_capacity(steps * width);
            for t in 0..steps {
                for _ in 0..width {
                    let base: f32 = rng.gen_range(-0.3..0.3);
                    xs.push(if t == hot { base + 1.0 } else { base });
                }
            }
            (xs, hot as f32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<(Vec<f32>, f32)> {
        (0..n)
            .map(|i| (vec![i as f32; 2], (i % 3) as f32))
            .collect()
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let err = MemoryDataSource::try_new("data", "label", items(5), 0).unwrap_err();
        assert!(err.to_string().contains("non-zero"), "{err}");
        let err = MemoryDataSource::try_new("data", "label", items(2), 3).unwrap_err();
        assert!(err.to_string().contains("full batch"), "{err}");
    }

    #[test]
    fn memory_source_batches_and_resets() {
        let mut s = MemoryDataSource::try_new("data", "label", items(7), 3).unwrap();
        let b1 = s.next_batch().unwrap().unwrap();
        assert_eq!(b1[0].1.len(), 6);
        assert_eq!(b1[1].1, vec![0.0, 1.0, 2.0]);
        assert!(s.next_batch().unwrap().is_some());
        assert!(s.next_batch().unwrap().is_none(), "partial batch dropped");
        s.reset();
        assert!(s.next_batch().unwrap().is_some());
    }

    #[test]
    fn double_buffered_source_yields_same_batches() {
        let plain: Vec<Batch> = {
            let mut s = MemoryDataSource::try_new("data", "label", items(9), 3).unwrap();
            std::iter::from_fn(|| s.next_batch().unwrap()).collect()
        };
        let mut db = DoubleBufferedSource::new(
            MemoryDataSource::try_new("data", "label", items(9), 3).unwrap(),
        );
        let buffered: Vec<Batch> = std::iter::from_fn(|| db.next_batch().unwrap()).collect();
        assert_eq!(plain, buffered);
    }

    #[test]
    fn double_buffered_reset_restarts_epoch() {
        let mut db = DoubleBufferedSource::new(
            MemoryDataSource::try_new("data", "label", items(6), 3).unwrap(),
        );
        let first = db.next_batch().unwrap().unwrap();
        let _ = db.next_batch();
        db.reset();
        let again = db.next_batch().unwrap().unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn double_buffered_into_inner_returns_the_source() {
        let mut db = DoubleBufferedSource::new(
            MemoryDataSource::try_new("data", "label", items(6), 3).unwrap(),
        );
        let _ = db.next_batch().unwrap();
        let inner = db.into_inner().expect("healthy prefetcher");
        assert_eq!(inner.items().len(), 6);
    }

    /// A source whose `call`-th `next_batch` panics — stands in for a
    /// decoder hitting corrupt data inside the prefetch thread.
    #[derive(Debug)]
    struct PanickySource {
        calls: usize,
        panic_at: usize,
    }

    impl BatchSource for PanickySource {
        fn next_batch(&mut self) -> Result<Option<Batch>, RuntimeError> {
            self.calls += 1;
            assert!(self.calls < self.panic_at, "synthetic prefetch panic");
            Ok(Some(vec![("data".into(), vec![self.calls as f32])]))
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn prefetch_panic_surfaces_as_error_not_panic() {
        let mut db = DoubleBufferedSource::new(PanickySource {
            calls: 0,
            panic_at: 3,
        });
        // Two good batches arrive; the third call panics the thread.
        assert!(db.next_batch().unwrap().is_some());
        assert!(db.next_batch().unwrap().is_some());
        let err = db.next_batch().unwrap_err();
        assert!(
            matches!(&err, RuntimeError::Interrupted { detail }
                if detail.contains("prefetch thread panicked")),
            "unexpected error: {err}"
        );
        // The failure is sticky, and into_inner reports it too.
        assert_eq!(db.next_batch().unwrap_err(), err);
        let err = db.into_inner().unwrap_err();
        assert!(err.to_string().contains("prefetch"), "{err}");
    }

    #[test]
    fn into_inner_reports_panic_directly() {
        let mut db = DoubleBufferedSource::new(PanickySource {
            calls: 0,
            panic_at: 1,
        });
        // Give the prefetch thread time to panic before asking for the
        // inner source back (recv blocks until the send or the hangup).
        let _ = db.next_batch();
        let err = db.into_inner().unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn inner_source_errors_propagate_through_the_prefetcher() {
        struct FailingSource;
        impl BatchSource for FailingSource {
            fn next_batch(&mut self) -> Result<Option<Batch>, RuntimeError> {
                Err(RuntimeError::Io {
                    detail: "disk gone".into(),
                    source: None,
                })
            }
            fn reset(&mut self) {}
        }
        let mut db = DoubleBufferedSource::new(FailingSource);
        let err = db.next_batch().unwrap_err();
        assert!(matches!(err, RuntimeError::Io { .. }), "{err}");
        // The thread is still alive (an inner error is not a panic), so
        // the source can be recovered.
        assert!(db.into_inner().is_ok());
    }

    #[test]
    fn synthetic_mnist_is_deterministic_and_classful() {
        let a = synthetic_mnist(50, 1);
        let b = synthetic_mnist(50, 1);
        assert_eq!(a, b);
        let classes: std::collections::HashSet<u32> = a.iter().map(|(_, y)| *y as u32).collect();
        assert!(classes.len() >= 5, "classes seen: {classes:?}");
        assert!(a[0].0.len() == 28 * 28);
    }

    #[test]
    fn synthetic_sequences_label_matches_hot_step() {
        for (xs, y) in synthetic_sequences(4, 3, 20, 9) {
            let sums: Vec<f32> = (0..4)
                .map(|t| xs[t * 3..(t + 1) * 3].iter().sum())
                .collect();
            let argmax = sums
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax as f32, y);
        }
    }
}
