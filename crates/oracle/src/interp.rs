//! The tree-walking IR reference interpreter: the semantic oracle.
//!
//! [`Interpreter`] executes a [`CompiledNet`]'s synthesized loop nests
//! ([`latte_ir::Stmt`]) *directly*, with none of the runtime's lowering:
//! no static index compilation, no hoisted whole-batch GEMMs, no
//! element-wise fast paths, no copy programs, no threading. Every loop is
//! walked with an explicit variable environment, every affine index is
//! evaluated per element, and every buffer access is bounds-checked. The
//! result is slow and obviously correct — the reference the differential
//! harness ([`crate::diff`]) compares every optimized configuration
//! against.
//!
//! Semantics mirrored from the executor (`latte-runtime`):
//!
//! * buffers allocate per the compiler's plan: aliases share storage,
//!   batched kinds get `batch * per_item` contiguous floats, item-major;
//! * groups run in order; per-item statements run for each batch item;
//!   whole-batch extern kernels run once over full storages;
//! * `backward` first zeroes activation gradients (`Grad`,
//!   `InputGradStage`) and parameter gradients (`ParamGrad`);
//! * matched GEMMs execute through [`latte_tensor::gemm::gemm_naive`],
//!   the textbook triple loop (`C += op(A) · op(B)`);
//! * copy nests gather with zero padding and scatter-accumulate skipping
//!   out-of-bounds source indices, exactly as documented on
//!   [`latte_ir::CopyStmt`];
//! * the mean loss is the sum over loss storages divided by
//!   `n_loss_buffers * batch`.
//!
//! Extern kernels are dispatched through the same
//! [`latte_runtime::registry::KernelRegistry`] the executor uses (the
//! kernels themselves are scalar reference code, not compiler output, so
//! sharing them does not weaken the oracle). Buffers are copied in and
//! out of each invocation, keeping the interpreter free of aliasing
//! `unsafe`.

use std::collections::HashMap;

use latte_core::{CompiledNet, Group};
use latte_ir::{BufRef, BufferKind, CopyStmt, Expr, ExternOp, GatherStmt, GemmStmt, Stmt};
use latte_runtime::registry::{ExternInvocation, KernelRegistry};
use latte_runtime::RuntimeError;
use latte_tensor::gemm::{gemm_naive, Transpose};

/// Placement of one named buffer in the interpreter's storage.
#[derive(Debug, Clone)]
struct Slot {
    storage: usize,
    per_item: usize,
    batched: bool,
    strides: Vec<usize>,
    rank: usize,
}

/// The reference interpreter: a compiled network executed by walking its
/// statement trees.
pub struct Interpreter {
    net: CompiledNet,
    forward: Vec<Group>,
    backward: Vec<Group>,
    registry: KernelRegistry,
    slots: HashMap<String, Slot>,
    /// Primary declaration kind per storage, for phase zeroing.
    storage_kinds: Vec<BufferKind>,
    storages: Vec<Vec<f32>>,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("batch", &self.net.batch)
            .field("forward_groups", &self.forward.len())
            .field("backward_groups", &self.backward.len())
            .finish_non_exhaustive()
    }
}

impl Interpreter {
    /// Builds an interpreter over a compiled network with the built-in
    /// kernel registry.
    ///
    /// # Errors
    ///
    /// Fails on bad alias targets or parameter-initialization mismatches.
    pub fn new(net: CompiledNet) -> Result<Self, RuntimeError> {
        Self::with_registry(net, &KernelRegistry::with_builtins())
    }

    /// Builds an interpreter dispatching externs through `registry`.
    ///
    /// # Errors
    ///
    /// See [`Interpreter::new`].
    pub fn with_registry(
        mut net: CompiledNet,
        registry: &KernelRegistry,
    ) -> Result<Self, RuntimeError> {
        let batch = net.batch;
        let mut slots: HashMap<String, Slot> = HashMap::new();
        let mut storages: Vec<Vec<f32>> = Vec::new();
        let mut storage_kinds: Vec<BufferKind> = Vec::new();
        for decl in &net.buffers {
            let per_item = decl.shape.len();
            let batched = decl.kind.is_batched();
            let storage = match &decl.alias_of {
                None => {
                    let len = if batched { per_item * batch } else { per_item };
                    storages.push(vec![0.0; len]);
                    storage_kinds.push(decl.kind);
                    storages.len() - 1
                }
                Some(target) => {
                    let t = slots.get(target).ok_or_else(|| RuntimeError::BadAlias {
                        name: decl.name.clone(),
                        target: target.clone(),
                    })?;
                    if t.per_item != per_item || t.batched != batched {
                        return Err(RuntimeError::BadAlias {
                            name: decl.name.clone(),
                            target: target.clone(),
                        });
                    }
                    t.storage
                }
            };
            slots.insert(
                decl.name.clone(),
                Slot {
                    storage,
                    per_item,
                    batched,
                    strides: decl.shape.strides().to_vec(),
                    rank: decl.shape.rank(),
                },
            );
        }
        let forward = std::mem::take(&mut net.forward);
        let backward = std::mem::take(&mut net.backward);
        let mut interp = Interpreter {
            net,
            forward,
            backward,
            registry: registry.clone(),
            slots,
            storage_kinds,
            storages,
        };
        interp.reset_params()?;
        Ok(interp)
    }

    /// Re-initializes every parameter buffer from its declared initial
    /// values.
    ///
    /// # Errors
    ///
    /// Propagates buffer-lookup failures.
    pub fn reset_params(&mut self) -> Result<(), RuntimeError> {
        let inits = std::mem::take(&mut self.net.param_inits);
        for (name, init) in &inits {
            self.write_buffer(name, init)?;
        }
        self.net.param_inits = inits;
        Ok(())
    }

    /// The batch size.
    pub fn batch(&self) -> usize {
        self.net.batch
    }

    /// The compiled network (with `forward`/`backward` moved out).
    pub fn compiled(&self) -> &CompiledNet {
        &self.net
    }

    /// Writes a data ensemble's batch: `data` holds `batch * per_item`
    /// values, item-major.
    ///
    /// # Errors
    ///
    /// Fails for unknown ensembles or wrong lengths.
    pub fn set_input(&mut self, ensemble: &str, data: &[f32]) -> Result<(), RuntimeError> {
        let buffer = self
            .net
            .inputs
            .iter()
            .find(|i| i.ensemble == ensemble)
            .map(|i| i.buffer.clone())
            .ok_or_else(|| RuntimeError::UnknownBuffer {
                name: format!("{ensemble} (data ensemble)"),
            })?;
        self.write_buffer(&buffer, data)
    }

    /// Reads a buffer's full storage.
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers.
    pub fn read_buffer(&self, name: &str) -> Result<Vec<f32>, RuntimeError> {
        let slot = self.slot(name)?;
        Ok(self.storages[slot.storage].clone())
    }

    /// Overwrites a buffer's full storage.
    ///
    /// # Errors
    ///
    /// Fails for unknown buffers or wrong lengths.
    pub fn write_buffer(&mut self, name: &str, data: &[f32]) -> Result<(), RuntimeError> {
        let storage = self.slot(name)?.storage;
        let s = &mut self.storages[storage];
        if s.len() != data.len() {
            return Err(RuntimeError::InputShape {
                buffer: name.to_string(),
                detail: format!("expected {} elements, got {}", s.len(), data.len()),
            });
        }
        s.copy_from_slice(data);
        Ok(())
    }

    /// Number of forward groups (one per synthesized ensemble-phase).
    pub fn forward_groups(&self) -> usize {
        self.forward.len()
    }

    /// Runs a single forward group by index — the stepping primitive of
    /// eager execution (each group is one ensemble's forward compute).
    ///
    /// # Errors
    ///
    /// See [`Interpreter::forward`]; also fails when `index` is out of
    /// range.
    pub fn run_forward_group(&mut self, index: usize) -> Result<(), RuntimeError> {
        if index >= self.forward.len() {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "forward group {index} out of range ({} groups)",
                    self.forward.len()
                ),
            });
        }
        let groups = std::mem::take(&mut self.forward);
        let result = self.run_groups(std::slice::from_ref(&groups[index]));
        self.forward = groups;
        result
    }

    /// Runs forward propagation for the current batch.
    ///
    /// # Errors
    ///
    /// Fails on malformed statements (bad ranks, out-of-bounds indices,
    /// unknown buffers or kernels) and propagated kernel errors.
    pub fn forward(&mut self) -> Result<(), RuntimeError> {
        let groups = std::mem::take(&mut self.forward);
        let result = self.run_groups(&groups);
        self.forward = groups;
        result
    }

    /// Runs backward propagation (zeroing activation and parameter
    /// gradients first).
    ///
    /// # Errors
    ///
    /// See [`Interpreter::forward`].
    pub fn backward(&mut self) -> Result<(), RuntimeError> {
        for (i, kind) in self.storage_kinds.iter().enumerate() {
            if matches!(kind, BufferKind::Grad | BufferKind::InputGradStage) {
                self.storages[i].fill(0.0);
            }
        }
        for (i, kind) in self.storage_kinds.iter().enumerate() {
            if matches!(kind, BufferKind::ParamGrad) {
                self.storages[i].fill(0.0);
            }
        }
        let groups = std::mem::take(&mut self.backward);
        let result = self.run_groups(&groups);
        self.backward = groups;
        result
    }

    /// The mean loss across batch items and loss ensembles after a
    /// forward pass.
    pub fn loss(&self) -> f32 {
        let mut total = 0.0;
        let mut count = 0;
        for name in &self.net.losses {
            if let Ok(values) = self.read_buffer(name) {
                total += values.iter().sum::<f32>();
                count += self.net.batch;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f32
        }
    }

    fn slot(&self, name: &str) -> Result<&Slot, RuntimeError> {
        self.slots.get(name).ok_or_else(|| RuntimeError::UnknownBuffer {
            name: name.to_string(),
        })
    }

    fn run_groups(&mut self, groups: &[Group]) -> Result<(), RuntimeError> {
        for g in groups {
            self.run_group(g)?;
        }
        Ok(())
    }

    fn run_group(&mut self, g: &Group) -> Result<(), RuntimeError> {
        let batch = self.net.batch;
        for stmt in &g.stmts {
            let whole_batch = match stmt {
                Stmt::Extern(e) => self.registry.get(&e.op)?.1,
                _ => false,
            };
            if whole_batch {
                if let Stmt::Extern(e) = stmt {
                    self.run_extern(e, None)?;
                }
            } else {
                let mut env = HashMap::new();
                for item in 0..batch {
                    self.exec_stmt(stmt, &mut env, item)?;
                }
            }
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut HashMap<String, i64>,
        item: usize,
    ) -> Result<(), RuntimeError> {
        match stmt {
            Stmt::For(l) => {
                let shadowed = env.get(&l.var).copied();
                for v in 0..l.extent {
                    env.insert(l.var.clone(), v as i64);
                    for s in &l.body {
                        self.exec_stmt(s, env, item)?;
                    }
                }
                match shadowed {
                    Some(old) => env.insert(l.var.clone(), old),
                    None => env.remove(&l.var),
                };
                Ok(())
            }
            Stmt::Assign(a) => {
                let value = self.eval_expr(&a.value, env, item)?;
                let (storage, at) = self.resolve(&a.dest, env, item)?;
                let dest = &mut self.storages[storage][at];
                *dest = a.op.apply(*dest, value);
                Ok(())
            }
            Stmt::Gemm(g) => self.exec_gemm(g, env, item),
            Stmt::Copy(c) => self.exec_copy(c, env, item),
            Stmt::Gather(g) => self.exec_gather(g, item),
            Stmt::Extern(e) => self.run_extern(e, Some(item)),
        }
    }

    fn eval_expr(
        &self,
        expr: &Expr,
        env: &HashMap<String, i64>,
        item: usize,
    ) -> Result<f32, RuntimeError> {
        Ok(match expr {
            Expr::Const(c) => *c,
            Expr::Load(r) => {
                let (storage, at) = self.resolve(r, env, item)?;
                self.storages[storage][at]
            }
            Expr::Unary(op, x) => op.apply(self.eval_expr(x, env, item)?),
            Expr::Binary(op, a, b) => op.apply(
                self.eval_expr(a, env, item)?,
                self.eval_expr(b, env, item)?,
            ),
        })
    }

    /// Flattens a buffer reference to `(storage index, element index)`,
    /// applying row-major strides and the item base for batched buffers.
    fn resolve(
        &self,
        r: &BufRef,
        env: &HashMap<String, i64>,
        item: usize,
    ) -> Result<(usize, usize), RuntimeError> {
        let slot = self.slot(&r.buffer)?;
        if r.indices.len() != slot.rank {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "reference to `{}` has {} indices but buffer has rank {}",
                    r.buffer,
                    r.indices.len(),
                    slot.rank
                ),
            });
        }
        let mut flat = 0i64;
        for (idx, &stride) in r.indices.iter().zip(&slot.strides) {
            flat += idx.eval(env) * stride as i64;
        }
        self.flat_to_at(&r.buffer, slot, flat, item)
    }

    fn flat_to_at(
        &self,
        name: &str,
        slot: &Slot,
        flat: i64,
        item: usize,
    ) -> Result<(usize, usize), RuntimeError> {
        if flat < 0 || flat as usize >= slot.per_item {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "index {flat} into `{name}` outside its {} per-item elements",
                    slot.per_item
                ),
            });
        }
        let base = if slot.batched { item * slot.per_item } else { 0 };
        Ok((slot.storage, base + flat as usize))
    }

    fn exec_gemm(
        &mut self,
        g: &GemmStmt,
        env: &HashMap<String, i64>,
        item: usize,
    ) -> Result<(), RuntimeError> {
        let (a_need, b_need, c_need) = (g.m * g.k, g.k * g.n, g.m * g.n);
        let a = self.read_range(&g.a, g.a_off.eval(env), a_need, item)?;
        let b = self.read_range(&g.b, g.b_off.eval(env), b_need, item)?;
        let c_slot = self.slot(&g.c)?.clone();
        let (c_storage, c_at) = self.flat_to_at(&g.c, &c_slot, g.c_off.eval(env), item)?;
        let c_end = c_at + c_need;
        let storage = &mut self.storages[c_storage];
        if c_end > storage.len() {
            return Err(RuntimeError::Malformed {
                detail: format!("gemm writes past the end of `{}`", g.c),
            });
        }
        let ta = if g.ta { Transpose::Yes } else { Transpose::No };
        let tb = if g.tb { Transpose::Yes } else { Transpose::No };
        gemm_naive(ta, tb, g.m, g.n, g.k, &a, &b, &mut storage[c_at..c_end]);
        Ok(())
    }

    /// Copies `len` elements of `name` starting at per-item offset
    /// `start` (operand fetch for GEMM).
    fn read_range(
        &self,
        name: &str,
        start: i64,
        len: usize,
        item: usize,
    ) -> Result<Vec<f32>, RuntimeError> {
        let slot = self.slot(name)?;
        let (storage, at) = self.flat_to_at(name, slot, start, item)?;
        let end = at + len;
        let s = &self.storages[storage];
        if end > s.len() {
            return Err(RuntimeError::Malformed {
                detail: format!("read of `{name}` at {start}+{len} past the end"),
            });
        }
        Ok(s[at..end].to_vec())
    }

    fn exec_copy(
        &mut self,
        c: &CopyStmt,
        env: &HashMap<String, i64>,
        item: usize,
    ) -> Result<(), RuntimeError> {
        let dest = self.slot(&c.dest)?.clone();
        let src = self.slot(&c.src)?.clone();
        let dest_strides = row_major_strides(&c.dest_shape);
        let src_strides = row_major_strides(&c.src_shape);
        let offsets: Vec<i64> = c.offsets.iter().map(|o| o.eval(env)).collect();
        let dest_base = if dest.batched { item * dest.per_item } else { 0 };
        let src_base = if src.batched { item * src.per_item } else { 0 };

        let mut ctr = vec![0usize; c.extents.len()];
        let total: usize = c.extents.iter().product();
        let mut dim_env: HashMap<String, i64> = HashMap::new();
        for step in 0..total {
            if step > 0 {
                // Advance the mixed-radix counter over the extents.
                let mut d = c.extents.len();
                loop {
                    d -= 1;
                    ctr[d] += 1;
                    if ctr[d] < c.extents[d] {
                        break;
                    }
                    ctr[d] = 0;
                }
            }
            // Global destination index and its flat position.
            let mut d_flat = 0i64;
            for (d, &cv) in ctr.iter().enumerate() {
                let g = offsets[d] + cv as i64;
                dim_env.insert(CopyStmt::dim_var(d), g);
                d_flat += g * dest_strides[d] as i64;
            }
            if d_flat < 0 || d_flat as usize >= dest.per_item {
                return Err(RuntimeError::Malformed {
                    detail: format!(
                        "copy destination index {d_flat} outside `{}`",
                        c.dest
                    ),
                });
            }
            let d_at = dest_base + d_flat as usize;
            // Affine source index, with per-dimension padding bounds.
            let mut in_bounds = true;
            let mut s_flat = 0i64;
            for (s, m) in c.map.iter().enumerate() {
                let si = m.eval(&dim_env);
                if si < 0 || si >= c.src_shape[s] as i64 {
                    in_bounds = false;
                    break;
                }
                s_flat += si * src_strides[s] as i64;
            }
            if c.scatter {
                if in_bounds {
                    let v = self.storages[dest.storage][d_at];
                    self.storages[src.storage][src_base + s_flat as usize] += v;
                }
            } else {
                let v = if in_bounds {
                    self.storages[src.storage][src_base + s_flat as usize]
                } else {
                    0.0
                };
                self.storages[dest.storage][d_at] = v;
            }
        }
        Ok(())
    }

    fn exec_gather(&mut self, g: &GatherStmt, item: usize) -> Result<(), RuntimeError> {
        let dest = self.slot(&g.dest)?.clone();
        let src = self.slot(&g.src)?.clone();
        let dest_base = if dest.batched { item * dest.per_item } else { 0 };
        let src_base = if src.batched { item * src.per_item } else { 0 };
        for (i, &t) in g.table.iter().enumerate() {
            if g.scatter {
                if t >= 0 {
                    let v = self.storages[dest.storage][dest_base + i];
                    self.storages[src.storage][src_base + t as usize] += v;
                }
            } else {
                let v = if t >= 0 {
                    self.storages[src.storage][src_base + t as usize]
                } else {
                    0.0
                };
                self.storages[dest.storage][dest_base + i] = v;
            }
        }
        Ok(())
    }

    /// Runs an extern kernel for one item (`Some`) or the whole batch
    /// (`None`), with copy-in/copy-out buffer views.
    fn run_extern(&mut self, e: &ExternOp, item: Option<usize>) -> Result<(), RuntimeError> {
        let (f, whole) = {
            let (f, whole) = self.registry.get(&e.op)?;
            (f.clone(), whole)
        };
        if whole != item.is_none() {
            return Err(RuntimeError::Malformed {
                detail: format!(
                    "extern `{}` invoked with the wrong batching mode",
                    e.op
                ),
            });
        }
        let mut per_item = Vec::with_capacity(e.buffers.len());
        let mut batched = Vec::with_capacity(e.buffers.len());
        let mut ranges: Vec<(usize, usize, usize)> = Vec::with_capacity(e.buffers.len());
        for name in &e.buffers {
            let slot = self.slot(name)?;
            per_item.push(slot.per_item);
            batched.push(slot.batched);
            let (start, len) = match item {
                Some(i) if slot.batched => (i * slot.per_item, slot.per_item),
                _ => (0, self.storages[slot.storage].len()),
            };
            if ranges.iter().any(|&(st, _, _)| st == slot.storage) {
                return Err(RuntimeError::Malformed {
                    detail: format!(
                        "extern `{}` is passed aliasing buffers (duplicate storage via `{name}`)",
                        e.op
                    ),
                });
            }
            ranges.push((slot.storage, start, len));
        }
        let mut temps: Vec<Vec<f32>> = ranges
            .iter()
            .map(|&(st, start, len)| self.storages[st][start..start + len].to_vec())
            .collect();
        {
            let views: Vec<&mut [f32]> = temps.iter_mut().map(|t| t.as_mut_slice()).collect();
            let mut inv = ExternInvocation::new(
                &e.attrs,
                self.net.batch,
                item,
                &per_item,
                &batched,
                views,
            );
            f(&mut inv)?;
        }
        for (&(st, start, len), temp) in ranges.iter().zip(&temps) {
            self.storages[st][start..start + len].copy_from_slice(temp);
        }
        Ok(())
    }
}

/// Row-major strides of a shape given as plain dimensions.
fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_strides_match_shape() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert!(row_major_strides(&[]).is_empty());
    }
}
