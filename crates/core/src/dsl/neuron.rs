//! Neuron types and the body-builder API.
//!
//! In the paper a neuron type is a Julia struct plus `@neuron forward` /
//! `@neuron backward` functions whose ASTs the compiler introspects. Rust
//! offers no such introspection, so here the user *writes the AST*: the
//! forward/backward bodies are closures that receive a [`BodyBuilder`] and
//! emit `latte-ir` statements against the neuron's canonical buffers
//! (`value`, `∇`, `inputs[c]`, `∇inputs[c]`, and user fields). The
//! compiler's synthesis phase later instantiates these bodies for a whole
//! ensemble, rewriting the array-of-structs field references to
//! struct-of-arrays buffers (Section 5.3 of the paper).

use std::fmt;
use std::sync::Arc;

use latte_ir::{BufRef, Expr, IndexExpr, Stmt, UnaryOp};

/// Canonical pre-synthesis buffer names used inside neuron bodies.
///
/// Synthesis rewrites these to ensemble-qualified SoA buffers.
pub mod body_buf {
    /// The neuron's output activation.
    pub const VALUE: &str = "$value";
    /// The gradient propagated to this neuron (the paper's `∇`).
    pub const GRAD: &str = "$grad";

    /// The staged inputs of connection `c`.
    pub fn input(c: usize) -> String {
        format!("$in{c}")
    }

    /// The staged input gradients of connection `c` (the paper's
    /// `∇inputs`).
    pub fn grad_input(c: usize) -> String {
        format!("$gin{c}")
    }

    /// The user field `name`.
    pub fn field(name: &str) -> String {
        format!("$f_{name}")
    }

    /// The gradient of user field `name`.
    pub fn grad_field(name: &str) -> String {
        format!("$gf_{name}")
    }
}

/// How long a neuron field's vector is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldLen {
    /// A single scalar per (possibly shared) neuron.
    Scalar,
    /// One element per staged input of connection `c` — e.g. the weight
    /// vector of a [`weighted_neuron`](crate::dsl::stdlib::weighted_neuron).
    InputLen(usize),
}

/// Declaration of a user field on a neuron type.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Field name, unique within the neuron type.
    pub name: String,
    /// Vector length of the field.
    pub len: FieldLen,
    /// Whether a gradient buffer accompanies the field (learnable
    /// parameters set this).
    pub with_grad: bool,
}

type BodyFn = Arc<dyn Fn(&mut BodyBuilder) + Send + Sync>;

/// A user-defined neuron type: fields plus forward/backward bodies.
///
/// Equivalent to the paper's `@neuron type ... end` plus its
/// `@neuron forward` / `@neuron backward` definitions.
///
/// # Examples
///
/// A neuron that simply doubles its single input:
///
/// ```
/// use latte_core::dsl::NeuronType;
///
/// let doubler = NeuronType::builder("Doubler")
///     .forward(|b| {
///         let x = b.input(0, 0);
///         b.assign(b.value(), x.mul(b.lit(2.0)));
///     })
///     .backward(|b| {
///         let g = b.grad_expr();
///         b.accumulate(b.grad_input(0, 0), g.mul(b.lit(2.0)));
///     })
///     .build();
/// assert_eq!(doubler.name(), "Doubler");
/// ```
#[derive(Clone)]
pub struct NeuronType {
    name: String,
    fields: Vec<FieldSpec>,
    forward: BodyFn,
    backward: BodyFn,
}

impl fmt::Debug for NeuronType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NeuronType")
            .field("name", &self.name)
            .field("fields", &self.fields)
            .finish_non_exhaustive()
    }
}

impl NeuronType {
    /// Starts building a neuron type.
    pub fn builder(name: impl Into<String>) -> NeuronTypeBuilder {
        NeuronTypeBuilder {
            name: name.into(),
            fields: Vec::new(),
            forward: None,
            backward: None,
        }
    }

    /// The type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared user fields.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Instantiates the forward body for the given context, returning the
    /// emitted top-level statements.
    pub fn build_forward(&self, ctx: &BodyCtx) -> Vec<Stmt> {
        let mut b = BodyBuilder::new(ctx.clone());
        (self.forward)(&mut b);
        b.stmts
    }

    /// Instantiates the backward body for the given context.
    pub fn build_backward(&self, ctx: &BodyCtx) -> Vec<Stmt> {
        let mut b = BodyBuilder::new(ctx.clone());
        (self.backward)(&mut b);
        b.stmts
    }
}

/// Builder for [`NeuronType`].
pub struct NeuronTypeBuilder {
    name: String,
    fields: Vec<FieldSpec>,
    forward: Option<BodyFn>,
    backward: Option<BodyFn>,
}

impl NeuronTypeBuilder {
    /// Declares a non-learnable field.
    pub fn field(mut self, name: impl Into<String>, len: FieldLen) -> Self {
        self.fields.push(FieldSpec {
            name: name.into(),
            len,
            with_grad: false,
        });
        self
    }

    /// Declares a field with an accompanying gradient buffer (a learnable
    /// parameter, like `weights`/`∇weights` in the paper's Figure 3).
    pub fn field_with_grad(mut self, name: impl Into<String>, len: FieldLen) -> Self {
        self.fields.push(FieldSpec {
            name: name.into(),
            len,
            with_grad: true,
        });
        self
    }

    /// Sets the forward body.
    pub fn forward(mut self, f: impl Fn(&mut BodyBuilder) + Send + Sync + 'static) -> Self {
        self.forward = Some(Arc::new(f));
        self
    }

    /// Sets the backward body.
    pub fn backward(mut self, f: impl Fn(&mut BodyBuilder) + Send + Sync + 'static) -> Self {
        self.backward = Some(Arc::new(f));
        self
    }

    /// Finishes the neuron type.
    ///
    /// # Panics
    ///
    /// Panics if no forward body was given. A missing backward body
    /// defaults to an empty body (a neuron that stops gradient flow).
    pub fn build(self) -> NeuronType {
        NeuronType {
            name: self.name,
            fields: self.fields,
            forward: self
                .forward
                .unwrap_or_else(|| panic!("neuron type requires a forward body")),
            backward: self.backward.unwrap_or_else(|| Arc::new(|_| {})),
        }
    }
}

/// Sizes known at synthesis time, handed to neuron bodies.
///
/// Equivalent to what `length(neuron.inputs[1])` resolves to in the
/// paper's Julia bodies.
#[derive(Debug, Clone, Default)]
pub struct BodyCtx {
    /// Number of staged inputs per connection.
    pub input_lens: Vec<usize>,
}

impl BodyCtx {
    /// Creates a context from connection input lengths.
    pub fn new(input_lens: Vec<usize>) -> Self {
        BodyCtx { input_lens }
    }
}

/// Emits the statements of a neuron body.
///
/// Expressions index the canonical buffers of [`body_buf`]; synthesis later
/// rewrites them to ensemble-level SoA buffers.
#[derive(Debug)]
pub struct BodyBuilder {
    ctx: BodyCtx,
    stmts: Vec<Stmt>,
    fresh: usize,
}

impl BodyBuilder {
    fn new(ctx: BodyCtx) -> Self {
        BodyBuilder {
            ctx,
            stmts: Vec::new(),
            fresh: 0,
        }
    }

    /// The number of staged inputs of connection `c`.
    ///
    /// # Panics
    ///
    /// Panics if the ensemble has no connection `c`.
    pub fn num_inputs(&self, c: usize) -> usize {
        *self
            .ctx
            .input_lens
            .get(c)
            .unwrap_or_else(|| panic!("neuron body references missing connection {c}"))
    }

    /// A literal constant expression.
    pub fn lit(&self, v: f32) -> Expr {
        Expr::Const(v)
    }

    /// The neuron's output value, as a store destination.
    pub fn value(&self) -> BufRef {
        BufRef::new(body_buf::VALUE, vec![])
    }

    /// The neuron's output value, as an expression.
    pub fn value_expr(&self) -> Expr {
        Expr::Load(self.value())
    }

    /// The neuron's incoming gradient `∇`, as an expression.
    pub fn grad_expr(&self) -> Expr {
        Expr::load(body_buf::GRAD, vec![])
    }

    /// Input `idx` of connection `c`, as an expression.
    pub fn input(&self, c: usize, idx: impl Into<IndexExpr>) -> Expr {
        Expr::load(body_buf::input(c), vec![idx.into()])
    }

    /// Input-gradient slot `idx` of connection `c`, as a store destination.
    pub fn grad_input(&self, c: usize, idx: impl Into<IndexExpr>) -> BufRef {
        BufRef::new(body_buf::grad_input(c), vec![idx.into()])
    }

    /// Field element `name[idx]`, as an expression.
    pub fn field(&self, name: &str, idx: impl Into<IndexExpr>) -> Expr {
        Expr::load(body_buf::field(name), vec![idx.into()])
    }

    /// Field-gradient element `∇name[idx]`, as a store destination.
    pub fn grad_field(&self, name: &str, idx: impl Into<IndexExpr>) -> BufRef {
        BufRef::new(body_buf::grad_field(name), vec![idx.into()])
    }

    /// Emits `dest = value`.
    pub fn assign(&mut self, dest: BufRef, value: Expr) {
        self.stmts.push(Stmt::assign(dest, value));
    }

    /// Emits `dest += value`.
    pub fn accumulate(&mut self, dest: BufRef, value: Expr) {
        self.stmts.push(Stmt::accumulate(dest, value));
    }

    /// Emits `dest = max(dest, value)`.
    pub fn max_assign(&mut self, dest: BufRef, value: Expr) {
        self.stmts.push(Stmt::max_assign(dest, value));
    }

    /// Emits a loop over the staged inputs of connection `c`, passing the
    /// loop index to `f`.
    ///
    /// Each call to this method becomes its own top-level loop nest after
    /// synthesis (loop distribution), which keeps the GEMM pattern matcher
    /// simple.
    pub fn for_each_input(&mut self, c: usize, f: impl FnOnce(&mut BodyBuilder, IndexExpr)) {
        let len = self.num_inputs(c);
        self.repeat(len, f);
    }

    /// Emits a counted loop of the given extent with a fresh variable.
    pub fn repeat(&mut self, extent: usize, f: impl FnOnce(&mut BodyBuilder, IndexExpr)) {
        let var = format!("i{}", self.fresh);
        self.fresh += 1;
        let mut inner = BodyBuilder {
            ctx: self.ctx.clone(),
            stmts: Vec::new(),
            fresh: self.fresh,
        };
        f(&mut inner, IndexExpr::var(&var));
        self.fresh = inner.fresh;
        self.stmts.push(Stmt::for_loop(var, extent, inner.stmts));
    }

    /// Convenience: applies a unary function to an expression.
    pub fn apply(&self, op: UnaryOp, e: Expr) -> Expr {
        e.unary(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::stdlib::weighted_neuron;

    #[test]
    fn weighted_neuron_forward_structure() {
        let nt = weighted_neuron();
        let ctx = BodyCtx::new(vec![5]);
        let stmts = nt.build_forward(&ctx);
        // Statement 0: value = bias[0]; statement 1: loop accumulating the
        // dot product.
        assert_eq!(stmts.len(), 2);
        let printed = latte_ir::print_stmts(&stmts);
        assert!(printed.contains("$value = $f_bias[0]"), "{printed}");
        assert!(
            printed.contains("$value += ($in0[i0] * $f_weights[i0])"),
            "{printed}"
        );
    }

    #[test]
    fn weighted_neuron_backward_structure() {
        let nt = weighted_neuron();
        let ctx = BodyCtx::new(vec![3]);
        let stmts = nt.build_backward(&ctx);
        let printed = latte_ir::print_stmts(&stmts);
        assert!(
            printed.contains("$gin0[i0] += ($f_weights[i0] * $grad)"),
            "{printed}"
        );
        assert!(
            printed.contains("$gf_weights[i1] += ($grad * $in0[i1])"),
            "{printed}"
        );
        assert!(printed.contains("$gf_bias[0] += $grad"), "{printed}");
    }

    #[test]
    fn fresh_loop_vars_do_not_collide() {
        let nt = NeuronType::builder("TwoLoops")
            .forward(|b| {
                b.for_each_input(0, |b, i| {
                    b.accumulate(b.value(), b.input(0, i));
                });
                b.for_each_input(0, |b, i| {
                    b.accumulate(b.value(), b.input(0, i));
                });
            })
            .build();
        let ctx = BodyCtx::new(vec![4]);
        let stmts = nt.build_forward(&ctx);
        let printed = latte_ir::print_stmts(&stmts);
        assert!(printed.contains("for i0"), "{printed}");
        assert!(printed.contains("for i1"), "{printed}");
    }

    #[test]
    #[should_panic(expected = "missing connection")]
    fn referencing_missing_connection_panics() {
        let nt = NeuronType::builder("Bad")
            .forward(|b| {
                b.for_each_input(2, |b, i| {
                    b.accumulate(b.value(), b.input(2, i));
                });
            })
            .build();
        nt.build_forward(&BodyCtx::default());
    }

    #[test]
    fn default_backward_is_empty() {
        let nt = NeuronType::builder("FwdOnly")
            .forward(|b| b.assign(b.value(), b.lit(1.0)))
            .build();
        assert!(nt.build_backward(&BodyCtx::default()).is_empty());
    }
}
