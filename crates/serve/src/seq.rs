//! Dynamic-shape serving: route variable-length sequence requests
//! through a power-of-two bucket ladder of compiled models.
//!
//! A fixed-shape [`Model`] is one compiled program, lowered once and
//! run at every micro-batch size. Sequences add a second dynamic axis — the length —
//! and the unroll depth *is* program structure: one program per *exact*
//! length would blow the plan cache open (and compile on every odd
//! length the warmup never saw). A [`SeqModel`] instead calls the
//! factory, and compiles, once per bucket of the [`bucket_ladder`], and admission rounds each request's length up
//! to its [`bucket_len`], zero-padding the step inputs and selecting the
//! true last step with a one-hot mask ([`last_step_mask`]). Each bucket
//! is a structurally distinct net with its own fingerprint, so the
//! shared [`PlanCache`] is effectively keyed by `(bucket, batch)`: after
//! warming the ladder, a request of *any* length `1..=max_len` in a tail
//! batch of *any* size builds nothing.
//!
//! Padding is a routing decision, never a numerics decision: the
//! mask-select readout reproduces the unpadded computation bit for bit
//! (see `latte_nn::varlen` and the oracle's `varlen_props` property
//! test), so a length-5 sample served from the 8-bucket equals the same
//! sample run through a dedicated 5-step unroll.
//!
//! A [`SeqServer`] runs one dynamic-batching [`Server`] per bucket — so
//! only same-shaped (same-bucket) requests coalesce into a micro-batch —
//! over one shared plan cache, and counts **bucket spills**: requests
//! whose length was not already a bucket boundary and therefore paid
//! padding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use latte_core::dsl::Net;
use latte_core::OptLevel;
use latte_nn::varlen::{bucket_ladder, bucket_len, last_step_mask};
use latte_runtime::ExecConfig;

use crate::cache::PlanCache;
use crate::error::ServeError;
use crate::model::Model;
use crate::replica::NoHooks;
use crate::server::{Request, ServeConfig, Server, Ticket};

/// A sequence-model factory: builds the net for a given `(batch,
/// bucket)` pair. Like a [`crate::NetFactory`] it is called once per
/// bucket, at batch 1; across buckets the nets differ only in unroll
/// depth (same seeds, shared parameters).
pub type SeqNetFactory = Arc<dyn Fn(usize, usize) -> Net + Send + Sync>;

/// One variable-length inference request: the per-step inputs (the
/// sequence, in order) plus any non-step inputs (labels, extra
/// features) passed through verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqRequest {
    /// The sequence: one `step_width`-element vector per true step.
    pub steps: Vec<Vec<f32>>,
    /// Non-step inputs, matched by ensemble name (e.g. `"label"`).
    pub extra: Vec<(String, Vec<f32>)>,
}

/// Where admission sent a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Index into [`SeqModel::buckets`].
    pub bucket_index: usize,
    /// The bucket (unroll depth) the request was padded to.
    pub bucket: usize,
    /// The request's true length.
    pub len: usize,
    /// Whether padding happened (`len` was not itself a bucket
    /// boundary).
    pub spilled: bool,
}

/// A ladder of bucket-specialized models over one sequence factory.
pub struct SeqModel {
    name: String,
    step_ensemble: String,
    step_width: usize,
    mask_ensemble: String,
    buckets: Vec<usize>,
    models: Vec<Arc<Model>>,
}

impl std::fmt::Debug for SeqModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqModel")
            .field("name", &self.name)
            .field("buckets", &self.buckets)
            .field("step_ensemble", &self.step_ensemble)
            .field("step_width", &self.step_width)
            .finish_non_exhaustive()
    }
}

impl SeqModel {
    /// Registers a sequence model over the bucket ladder covering
    /// lengths `1..=max_len`. `step_ensemble` names the recurrent input
    /// the factory's net unrolls (step `t` becomes `"{step}@t{t}"`);
    /// `mask_ensemble` names the readout mask admission fills with a
    /// [`last_step_mask`].
    ///
    /// Each bucket's model is registered (compiled once) like any fixed
    /// model; registration additionally checks that every bucket yields a
    /// *distinct*
    /// fingerprint (buckets must not collide in the shared plan cache)
    /// and that the step/mask ensembles exist with consistent widths.
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] when any bucket's compile fails or the
    /// factory's structure does not match the declared ensembles.
    pub fn new(
        name: impl Into<String>,
        factory: SeqNetFactory,
        opt: OptLevel,
        max_len: usize,
        step_ensemble: impl Into<String>,
        mask_ensemble: impl Into<String>,
        outputs: Vec<String>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        let step_ensemble = step_ensemble.into();
        let mask_ensemble = mask_ensemble.into();
        if max_len == 0 {
            return Err(ServeError::Compile {
                detail: format!("{name}: max_len must be at least 1"),
            });
        }
        let buckets = bucket_ladder(max_len);
        let mut models = Vec::with_capacity(buckets.len());
        for &bucket in &buckets {
            let f = Arc::clone(&factory);
            let model = Model::new(
                format!("{name}@l{bucket}"),
                Box::new(move |batch| f(batch, bucket)),
                opt,
                outputs.clone(),
            )?;
            for t in 0..bucket {
                let step = format!("{step_ensemble}@t{t}");
                if !model.inputs().iter().any(|(n, _)| *n == step) {
                    return Err(ServeError::Compile {
                        detail: format!(
                            "{}: step input `{step}` missing from the bucket-{bucket} net",
                            model.name()
                        ),
                    });
                }
            }
            match model.inputs().iter().find(|(n, _)| *n == mask_ensemble) {
                Some((_, len)) if *len == bucket => {}
                Some((_, len)) => {
                    return Err(ServeError::Compile {
                        detail: format!(
                            "{}: mask `{mask_ensemble}` has {len} elements, expected {bucket}",
                            model.name()
                        ),
                    })
                }
                None => {
                    return Err(ServeError::Compile {
                        detail: format!("{}: mask input `{mask_ensemble}` missing", model.name()),
                    })
                }
            }
            models.push(Arc::new(model));
        }
        let first_step = format!("{step_ensemble}@t0");
        let step_width = models[0]
            .inputs()
            .iter()
            .find(|(n, _)| *n == first_step)
            .map(|(_, len)| *len)
            .expect("checked above");
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                if a.fingerprint() == b.fingerprint() {
                    return Err(ServeError::Compile {
                        detail: format!(
                            "{name}: buckets {} and {} share fingerprint {:#x} — the factory \
                             ignores its bucket argument",
                            a.name(),
                            b.name(),
                            a.fingerprint()
                        ),
                    });
                }
            }
        }
        Ok(SeqModel {
            name,
            step_ensemble,
            step_width,
            mask_ensemble,
            buckets,
            models,
        })
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bucket ladder (ascending unroll depths).
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// The longest sequence admission accepts.
    pub fn max_len(&self) -> usize {
        *self.buckets.last().expect("ladder is never empty")
    }

    /// Per-step input width.
    pub fn step_width(&self) -> usize {
        self.step_width
    }

    /// The bucket-specialized model at ladder index `index`.
    pub fn model(&self, index: usize) -> &Arc<Model> {
        &self.models[index]
    }

    /// Which bucket a sequence of `len` true steps routes to.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an empty or over-long sequence.
    pub fn route(&self, len: usize) -> Result<Route, ServeError> {
        if len == 0 {
            return Err(ServeError::BadRequest {
                detail: "sequence has no steps".into(),
            });
        }
        if len > self.max_len() {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "sequence length {len} exceeds the model's maximum {}",
                    self.max_len()
                ),
            });
        }
        let bucket = bucket_len(len);
        let bucket_index = self
            .buckets
            .iter()
            .position(|&b| b == bucket)
            .expect("bucket_len lands on the ladder");
        Ok(Route {
            bucket_index,
            bucket,
            len,
            spilled: bucket != len,
        })
    }

    /// Admits a variable-length request: picks the bucket, zero-pads the
    /// step inputs to it, fills the one-hot last-step mask, zeroes any
    /// `@init` recurrent-state inputs not supplied in `extra`, and
    /// passes the rest of `extra` through. The resulting fixed-shape
    /// [`Request`] validates against the bucket's model.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an empty/over-long sequence, a
    /// step of the wrong width, or an `extra` entry that collides with
    /// a step or mask ensemble.
    pub fn admit(&self, req: &SeqRequest) -> Result<(Route, Request), ServeError> {
        let route = self.route(req.steps.len())?;
        for (t, step) in req.steps.iter().enumerate() {
            if step.len() != self.step_width {
                return Err(ServeError::BadRequest {
                    detail: format!(
                        "step {t} has {} elements, expected {}",
                        step.len(),
                        self.step_width
                    ),
                });
            }
        }
        let step_prefix = format!("{}@t", self.step_ensemble);
        for (n, _) in &req.extra {
            if n.starts_with(&step_prefix) || *n == self.mask_ensemble {
                return Err(ServeError::BadRequest {
                    detail: format!("extra input `{n}` collides with a routed ensemble"),
                });
            }
        }
        let model = &self.models[route.bucket_index];
        let mut inputs = Vec::with_capacity(model.inputs().len());
        for (ensemble, want) in model.inputs() {
            let values = if let Some(t) = ensemble
                .strip_prefix(&step_prefix)
                .and_then(|s| s.parse::<usize>().ok())
            {
                if t < route.len {
                    req.steps[t].clone()
                } else {
                    vec![0.0; *want]
                }
            } else if *ensemble == self.mask_ensemble {
                last_step_mask(route.len, route.bucket)
            } else if let Some((_, v)) = req.extra.iter().find(|(n, _)| n == ensemble) {
                v.clone()
            } else if ensemble.ends_with("@init") {
                // Unsupplied recurrent initial state starts at zero, the
                // unrolling semantics the paper specifies.
                vec![0.0; *want]
            } else {
                continue; // let the model's validate() report it
            };
            inputs.push((ensemble.clone(), values));
        }
        Ok((route, Request { inputs }))
    }
}

/// A [`Ticket`] that also remembers where admission routed the request.
#[derive(Debug)]
pub struct SeqTicket {
    route: Route,
    ticket: Ticket,
}

impl SeqTicket {
    /// The admission route (bucket, true length, spill flag).
    pub fn route(&self) -> Route {
        self.route
    }

    /// Blocks up to `timeout` (see [`Ticket::wait_timeout`]).
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait_timeout`].
    pub fn wait_timeout(
        self,
        timeout: std::time::Duration,
    ) -> Result<crate::server::Response, ServeError> {
        self.ticket.wait_timeout(timeout)
    }
}

/// A dynamic-shape server: one dynamic-batching [`Server`] per bucket
/// over one shared [`PlanCache`], with spill accounting.
pub struct SeqServer {
    model: SeqModel,
    servers: Vec<Server>,
    cache: Arc<PlanCache>,
    spills: AtomicU64,
    routed: Vec<AtomicU64>,
}

impl std::fmt::Debug for SeqServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqServer")
            .field("model", &self.model.name())
            .field("buckets", &self.model.buckets())
            .field("bucket_spills", &self.bucket_spills())
            .finish_non_exhaustive()
    }
}

impl SeqServer {
    /// Starts one server per bucket, all lowering through one private
    /// plan cache — which is what makes the cache effectively
    /// `(bucket, batch)`-keyed.
    pub fn start(model: SeqModel, cfg: ServeConfig) -> SeqServer {
        let cache = Arc::new(PlanCache::new(ExecConfig {
            threads: cfg.threads,
            ..ExecConfig::default()
        }));
        let servers = model
            .models
            .iter()
            .map(|m| Server::start_with(Arc::clone(m), cfg, Arc::clone(&cache), Arc::new(NoHooks)))
            .collect::<Vec<_>>();
        let routed = (0..servers.len()).map(|_| AtomicU64::new(0)).collect();
        SeqServer {
            model,
            servers,
            cache,
            spills: AtomicU64::new(0),
            routed,
        }
    }

    /// Submits one variable-length request; admission pads and masks it,
    /// then it coalesces with other requests of the *same bucket* only.
    ///
    /// # Errors
    ///
    /// Admission errors ([`ServeError::BadRequest`]) plus everything
    /// [`Server::submit`] can return for the routed bucket.
    pub fn submit(&self, req: &SeqRequest) -> Result<SeqTicket, ServeError> {
        let (route, fixed) = self.model.admit(req)?;
        let ticket = self.servers[route.bucket_index].submit(fixed)?;
        // Counters move only after a successful admission, so spills
        // count executed work, not rejected requests.
        self.routed[route.bucket_index].fetch_add(1, Ordering::Relaxed);
        if route.spilled {
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
        Ok(SeqTicket { route, ticket })
    }

    /// Force-flushes every bucket's coalescing batch.
    pub fn flush(&self) {
        for s in &self.servers {
            s.flush();
        }
    }

    /// Requests admitted per bucket (parallel to
    /// [`SeqModel::buckets`]).
    pub fn routed(&self) -> Vec<u64> {
        self.routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Admitted requests whose length was not a bucket boundary — they
    /// paid padding to ride a larger bucket instead of compiling a new
    /// program.
    pub fn bucket_spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// The shared plan cache every bucket lowers through.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The routed sequence model.
    pub fn model(&self) -> &SeqModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use std::time::Duration;

    fn seq_model() -> SeqModel {
        zoo::seq_model(6).expect("zoo seq model registers")
    }

    #[test]
    fn ladder_models_have_distinct_fingerprints() {
        let m = seq_model();
        assert_eq!(m.buckets(), &[1, 2, 4, 8]);
        for i in 0..m.buckets().len() {
            for j in i + 1..m.buckets().len() {
                assert_ne!(m.model(i).fingerprint(), m.model(j).fingerprint());
            }
        }
    }

    #[test]
    fn routing_rounds_up_and_flags_spills() {
        let m = seq_model();
        let r = m.route(3).unwrap();
        assert_eq!((r.bucket, r.spilled), (4, true));
        let r = m.route(4).unwrap();
        assert_eq!((r.bucket, r.spilled), (4, false));
        assert!(m.route(0).is_err());
        assert!(m.route(9).is_err());
    }

    #[test]
    fn admission_pads_and_masks() {
        let m = seq_model();
        let req = zoo::seq_sample(3, 7);
        let (route, fixed) = m.admit(&req).unwrap();
        assert_eq!(route.bucket, 4);
        m.model(route.bucket_index)
            .validate(&fixed.inputs)
            .expect("admitted request validates");
        let get =
            |name: &str| -> &[f32] { &fixed.inputs.iter().find(|(n, _)| n == name).unwrap().1 };
        assert_eq!(get("x@t0"), &req.steps[0][..]);
        assert_eq!(get("x@t2"), &req.steps[2][..]);
        assert!(
            get("x@t3").iter().all(|&v| v == 0.0),
            "padding must be zero"
        );
        assert_eq!(get("lstm_last_mask"), &[0.0, 0.0, 1.0, 0.0]);
        assert!(get("lstm_h@init").iter().all(|&v| v == 0.0));
    }

    #[test]
    fn admission_rejects_bad_widths_and_collisions() {
        let m = seq_model();
        let mut req = zoo::seq_sample(2, 3);
        req.steps[1].push(0.5);
        assert!(matches!(m.admit(&req), Err(ServeError::BadRequest { .. })));
        let mut req = zoo::seq_sample(2, 3);
        req.extra.push(("x@t0".to_string(), vec![0.0; 3]));
        assert!(matches!(m.admit(&req), Err(ServeError::BadRequest { .. })));
    }

    /// The dynamic-shape serving guarantee: any length's served output
    /// is bit-identical to the same admitted inputs run alone through a
    /// plain batch-1 executor of the routed bucket's net, mixed lengths
    /// share bucket plans (cache length == warmed buckets, not lengths),
    /// and odd lengths count as spills.
    #[test]
    fn mixed_lengths_serve_bit_identically_and_share_bucket_plans() {
        use latte_runtime::pool::WorkerPool;

        let model = seq_model();
        let server = SeqServer::start(
            zoo::seq_model(6).unwrap(),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        );
        let pool = Arc::new(WorkerPool::new(1));
        let mut spills = 0u64;
        for len in 1..=6usize {
            let req = zoo::seq_sample(len, 40 + len as u64);
            let (route, fixed) = model.admit(&req).unwrap();
            let ticket = server.submit(&req).unwrap();
            assert_eq!(ticket.route().bucket, route.bucket);
            server.flush();
            let resp = ticket.wait_timeout(Duration::from_secs(60)).unwrap();
            if route.spilled {
                spills += 1;
            }

            // Reference: the routed bucket's program, lowered solo at batch 1.
            let compiled = model.model(route.bucket_index).compiled().clone();
            let program = latte_runtime::CompiledProgram::lower(
                compiled,
                &latte_runtime::registry::KernelRegistry::with_builtins(),
                latte_runtime::ExecConfig::default(),
            )
            .unwrap();
            let mut solo = program.instantiate(Arc::clone(&pool)).unwrap();
            for (name, v) in &fixed.inputs {
                solo.set_input(name, v).unwrap();
            }
            solo.forward();
            let want = solo.read_buffer("head.value").unwrap();
            let got = &resp.outputs[0].1;
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "len {len} output[{i}]: served {a} vs solo {b}"
                );
            }
        }
        assert_eq!(server.bucket_spills(), spills);
        assert_eq!(spills, 3, "lengths 3, 5, and 6 pad up to a larger bucket");
        let routed = server.routed();
        assert_eq!(routed.iter().sum::<u64>(), 6);
        // Six lengths, but only four buckets were ever compiled (each at
        // batch 1): the cache holds one entry per (bucket, batch) pair.
        assert_eq!(server.cache().len(), 4);
        assert_eq!(server.cache().misses(), 4);
    }
}
