//! Loop-nest statements: the IR the Latte compiler synthesizes, optimizes,
//! and hands to the runtime for lowering.
//!
//! The statement language mirrors the paper's synthesized pseudo-code
//! (Figures 9, 10, 12): counted loops with optional *tiling* and
//! *parallel* annotations, scalar assignments, matched library kernels
//! ([`GemmStmt`]), opaque array operations ([`ExternOp`]) for
//! normalization ensembles, and fusion-preventing barriers.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{BinOp, BufRef, Expr, IndexExpr};

/// How an assignment combines with the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `dest = value`.
    Set,
    /// `dest += value`.
    Add,
    /// `dest = max(dest, value)`.
    Max,
}

impl AssignOp {
    /// Combines the previous destination value with the new value.
    #[inline]
    pub fn apply(self, dest: f32, value: f32) -> f32 {
        match self {
            AssignOp::Set => value,
            AssignOp::Add => dest + value,
            AssignOp::Max => dest.max(value),
        }
    }

    /// Combines the previous destination value with a value whose root
    /// operation is `root` over `lhs` and `rhs`: the store of an
    /// [`Assign`] whose value is an [`Expr::Binary`]. A product
    /// accumulation `dest += lhs * rhs` is [`latte_tensor::mac`], one
    /// rounding; anything else is [`AssignOp::apply`] of `root`'s result.
    #[inline]
    pub fn apply_bin(self, dest: f32, root: BinOp, lhs: f32, rhs: f32) -> f32 {
        match (self, root) {
            (AssignOp::Add, BinOp::Mul) => latte_tensor::mac(dest, lhs, rhs),
            _ => self.apply(dest, root.apply(lhs, rhs)),
        }
    }
}

/// A scalar store `dest op= value`.
///
/// One rule fixes its rounding: when `op` is [`AssignOp::Add`] and the
/// value has [`BinOp::Mul`] at its root, the store is
/// `mac(dest, lhs, rhs)` ([`latte_tensor::mac`]), the product never
/// rounded on its own; every other store is [`AssignOp::apply`]
/// ([`AssignOp::apply_bin`] states both). A matched GEMM computes its
/// accumulation nest by the same rule, in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// The destination element.
    pub dest: BufRef,
    /// How the value combines with the destination.
    pub op: AssignOp,
    /// The stored expression.
    pub value: Expr,
}

/// Tiling metadata attached to a loop by the tiling pass.
///
/// Carries the *input dependence distance* along the tiled dimension — the
/// piece of semantic information (derived from the connection structure)
/// that lets the fusion pass scale producer tiles across sub-sampling
/// boundaries instead of running a general dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileInfo {
    /// Iterations of this loop executed per tile.
    pub tile_size: usize,
    /// How many iterations of the *producer's* tiled dimension one
    /// iteration of this loop consumes (1 for elementwise, 2 for 2x2/2
    /// pooling, …).
    pub dep_distance: usize,
}

/// Annotations attached to a loop by the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LoopAnnot {
    /// Tiling metadata, when the tiling pass split this loop.
    pub tiled: Option<TileInfo>,
    /// Whether the parallelization pass marked this loop parallel
    /// (collapsed with any adjacent parallel loop, as with OpenMP
    /// `collapse`).
    pub parallel: bool,
}

/// A counted loop `for var in 0..extent { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// The loop variable, unique within its nest.
    pub var: String,
    /// The trip count (all extents are known at network-compile time).
    pub extent: usize,
    /// Optimizer annotations.
    pub annot: LoopAnnot,
    /// The loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// Creates an unannotated loop.
    pub fn new(var: impl Into<String>, extent: usize, body: Vec<Stmt>) -> Self {
        Loop {
            var: var.into(),
            extent,
            annot: LoopAnnot::default(),
            body,
        }
    }
}

/// Which logical GEMM dimension a tiled loop variable spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmDim {
    /// Output rows.
    M,
    /// Output columns.
    N,
    /// The reduction dimension (tiling it yields partial accumulations).
    K,
}

/// How a matched GEMM can be restricted to a tile of the group's
/// outermost dimension, recorded by the pattern matcher for the tiling
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmTiling {
    /// The GEMM dimension the group's dim-0 variable spans.
    pub dim: GemmDim,
    /// Elements of that dimension per dim-0 step.
    pub per_step: usize,
    /// Extent of the dim-0 variable.
    pub extent: usize,
    /// Flat-offset increment of A per dim-0 step.
    pub a_step: usize,
    /// Flat-offset increment of B per dim-0 step.
    pub b_step: usize,
    /// Flat-offset increment of C per dim-0 step.
    pub c_step: usize,
}

/// A matched library kernel call `C[c0..] += op(A[a0..]) * op(B[b0..])`.
///
/// Produced by the pattern-matching pass from a synthesized
/// multiply-accumulate loop nest; executed by the runtime through the
/// blocked GEMM in `latte-tensor` (the stand-in for MKL `sgemm`, see the
/// paper's Section 5.4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GemmStmt {
    /// Whether A is transposed (stored `k x m` instead of `m x k`).
    pub ta: bool,
    /// Whether B is transposed (stored `n x k` instead of `k x n`).
    pub tb: bool,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction extent.
    pub k: usize,
    /// Name of the A buffer.
    pub a: String,
    /// Flat element offset into A, affine in enclosing loop variables.
    pub a_off: IndexExpr,
    /// Name of the B buffer.
    pub b: String,
    /// Flat element offset into B.
    pub b_off: IndexExpr,
    /// Name of the C (accumulated) buffer.
    pub c: String,
    /// Flat element offset into C.
    pub c_off: IndexExpr,
    /// Tiling metadata over the group's dim-0 variable, when available.
    pub tiling: Option<GemmTiling>,
}

/// A synthesized data-movement nest (the paper's "data copy tasks").
///
/// For every connection whose inputs cannot be aliased directly, Latte
/// synthesizes a loop nest that gathers each sink neuron's inputs into a
/// staging buffer (the generic analogue of im2col), or — in the backward
/// pass — scatters staged input gradients back to the source ensemble.
/// Representing the whole nest as one node keeps its affine structure
/// available to tiling (which restricts the iterated extents) and lets the
/// runtime lower it to tight native loops with padding handled at the
/// boundary.
///
/// Semantics, with `g_d = offsets[d] + local_d` for `local_d` in
/// `0..extents[d]` and `s = map(g)` the affine source index:
///
/// * gather (`scatter == false`): `dest[g] = src[s]`, reading `0` when `s`
///   is out of bounds (zero padding);
/// * scatter (`scatter == true`): `src[s] += dest[g]`, skipping
///   out-of-bounds `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyStmt {
    /// The staging buffer (gather destination / scatter source of values).
    pub dest: String,
    /// Full shape of `dest`; `g` indexes it row-major.
    pub dest_shape: Vec<usize>,
    /// Iterated extent per destination dimension (`<= dest_shape[d]`).
    pub extents: Vec<usize>,
    /// Starting global index per destination dimension, affine in enclosing
    /// loop variables (all-zero when untiled).
    pub offsets: Vec<IndexExpr>,
    /// The connected ensemble's buffer.
    pub src: String,
    /// Full shape of `src`, used for padding bounds checks.
    pub src_shape: Vec<usize>,
    /// One affine index per source dimension in the variables
    /// `"d0".."dN"`, where `dI` is the global destination index `g_I`.
    pub map: Vec<IndexExpr>,
    /// `false` gathers into `dest`; `true` scatter-accumulates into `src`.
    pub scatter: bool,
}

impl CopyStmt {
    /// The canonical variable name of destination dimension `d`.
    pub fn dim_var(d: usize) -> String {
        format!("d{d}")
    }
}

/// A table-driven gather/scatter for irregular connections.
///
/// When shared-variable analysis cannot recover affine structure from a
/// mapping, the adjacency is materialized as a flat table of source
/// offsets: entry `i` is the per-item source offset feeding destination
/// element `i`, or `-1` for padding.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherStmt {
    /// The staging buffer.
    pub dest: String,
    /// Per-item flat length of `dest` (and of the table).
    pub dest_len: usize,
    /// The connected ensemble's buffer.
    pub src: String,
    /// Source offset per destination element; `-1` reads zero / absorbs
    /// nothing.
    pub table: std::sync::Arc<Vec<i64>>,
    /// `false`: `dest[i] = src[table[i]]`; `true`: `src[table[i]] +=
    /// dest[i]`.
    pub scatter: bool,
}

/// An opaque array operation dispatched by name at runtime.
///
/// Normalization ensembles (softmax, LRN, batch-norm, losses) operate on
/// whole value arrays and are explicitly *not* fused by the compiler; they
/// lower to one of these. The runtime keeps a registry from `op` name to
/// kernel, so user crates can add their own.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternOp {
    /// Registered kernel name, e.g. `"softmax_loss_forward"`.
    pub op: String,
    /// Buffer names passed to the kernel, in kernel-defined order.
    pub buffers: Vec<String>,
    /// Scalar attributes (window sizes, epsilons, …).
    pub attrs: BTreeMap<String, f64>,
}

/// A statement of the loop-nest IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A counted loop.
    For(Loop),
    /// A scalar store.
    Assign(Assign),
    /// A matched GEMM kernel.
    Gemm(GemmStmt),
    /// A synthesized data-movement nest.
    Copy(CopyStmt),
    /// A table-driven gather/scatter (irregular connections).
    Gather(GatherStmt),
    /// An opaque array kernel.
    Extern(ExternOp),
}

impl Stmt {
    /// Builds `for var in 0..extent { body }`.
    pub fn for_loop(var: impl Into<String>, extent: usize, body: Vec<Stmt>) -> Stmt {
        Stmt::For(Loop::new(var, extent, body))
    }

    /// Builds `dest = value`.
    pub fn assign(dest: BufRef, value: Expr) -> Stmt {
        Stmt::Assign(Assign {
            dest,
            op: AssignOp::Set,
            value,
        })
    }

    /// Builds `dest += value`.
    pub fn accumulate(dest: BufRef, value: Expr) -> Stmt {
        Stmt::Assign(Assign {
            dest,
            op: AssignOp::Add,
            value,
        })
    }

    /// Builds `dest = max(dest, value)`.
    pub fn max_assign(dest: BufRef, value: Expr) -> Stmt {
        Stmt::Assign(Assign {
            dest,
            op: AssignOp::Max,
            value,
        })
    }

    /// Visits this statement and all nested statements, outside-in.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        if let Stmt::For(l) = self {
            for s in &l.body {
                s.visit(f);
            }
        }
    }

    /// Counts statements of the nest matching a predicate.
    pub fn count_matching(&self, pred: &impl Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }

    /// Rewrites every buffer reference (loads and stores) with `f`.
    pub fn map_bufrefs(&self, f: &mut impl FnMut(&BufRef) -> BufRef) -> Stmt {
        match self {
            Stmt::For(l) => Stmt::For(Loop {
                var: l.var.clone(),
                extent: l.extent,
                annot: l.annot,
                body: l.body.iter().map(|s| s.map_bufrefs(f)).collect(),
            }),
            Stmt::Assign(a) => Stmt::Assign(Assign {
                dest: f(&a.dest),
                op: a.op,
                value: a.value.map_loads(f),
            }),
            other => other.clone(),
        }
    }

    /// Substitutes loop variable `var := replacement` in every index
    /// expression of the nest (used when tiling rewrites `y` as
    /// `y_tile * T + y_in`).
    pub fn subst_var(&self, var: &str, replacement: &IndexExpr) -> Stmt {
        match self {
            Stmt::For(l) => Stmt::For(Loop {
                var: l.var.clone(),
                extent: l.extent,
                annot: l.annot,
                body: l
                    .body
                    .iter()
                    .map(|s| s.subst_var(var, replacement))
                    .collect(),
            }),
            Stmt::Assign(a) => Stmt::Assign(Assign {
                dest: a.dest.map_indices(|i| i.subst(var, replacement)),
                op: a.op,
                value: a
                    .value
                    .map_loads(&mut |r| r.map_indices(|i| i.subst(var, replacement))),
            }),
            Stmt::Gemm(g) => {
                let mut g = g.clone();
                g.a_off = g.a_off.subst(var, replacement);
                g.b_off = g.b_off.subst(var, replacement);
                g.c_off = g.c_off.subst(var, replacement);
                Stmt::Gemm(g)
            }
            Stmt::Copy(c) => {
                let mut c = c.clone();
                // Only the enclosing-loop offsets may mention outer loop
                // variables; the map is in the copy's own `dI` variables.
                for off in &mut c.offsets {
                    *off = off.subst(var, replacement);
                }
                Stmt::Copy(c)
            }
            other => other.clone(),
        }
    }

    /// The buffers written by this nest.
    pub fn written_buffers(&self) -> Vec<String> {
        fn push_unique(out: &mut Vec<String>, name: &str) {
            if !out.iter().any(|b| b == name) {
                out.push(name.to_string());
            }
        }
        let mut out = Vec::new();
        self.visit(&mut |s| match s {
            Stmt::Assign(a) => push_unique(&mut out, &a.dest.buffer),
            Stmt::Gemm(g) => push_unique(&mut out, &g.c),
            Stmt::Copy(c) => push_unique(&mut out, if c.scatter { &c.src } else { &c.dest }),
            Stmt::Gather(g) => push_unique(&mut out, if g.scatter { &g.src } else { &g.dest }),
            Stmt::Extern(e) => {
                // Conservatively treat every extern buffer as written.
                for b in &e.buffers {
                    push_unique(&mut out, b);
                }
            }
            _ => {}
        });
        out
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_stmt(self, f, 0)
    }
}

fn fmt_stmt(stmt: &Stmt, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    match stmt {
        Stmt::For(l) => {
            let mut marks = String::new();
            if l.annot.parallel {
                marks.push_str(" @parallel");
            }
            if let Some(t) = l.annot.tiled {
                marks.push_str(&format!(
                    " @tiled(size={}, dep={})",
                    t.tile_size, t.dep_distance
                ));
            }
            writeln!(f, "{pad}for {} in 0..{}{} {{", l.var, l.extent, marks)?;
            for s in &l.body {
                fmt_stmt(s, f, indent + 1)?;
            }
            writeln!(f, "{pad}}}")
        }
        Stmt::Assign(a) => {
            let op = match a.op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Max => "max=",
            };
            writeln!(f, "{pad}{} {} {}", a.dest, op, a.value)
        }
        Stmt::Gemm(g) => writeln!(
            f,
            "{pad}gemm('{}', '{}', m={}, n={}, k={}, A={}[{}], B={}[{}], C={}[{}])",
            if g.ta { 'T' } else { 'N' },
            if g.tb { 'T' } else { 'N' },
            g.m,
            g.n,
            g.k,
            g.a,
            g.a_off,
            g.b,
            g.b_off,
            g.c,
            g.c_off
        ),
        Stmt::Copy(c) => {
            let exts: Vec<String> = c
                .extents
                .iter()
                .zip(&c.offsets)
                .map(|(e, o)| {
                    if o.is_constant() && o.offset() == 0 {
                        e.to_string()
                    } else {
                        format!("{o}+{e}")
                    }
                })
                .collect();
            let map: Vec<String> = c.map.iter().map(|m| m.to_string()).collect();
            if c.scatter {
                writeln!(
                    f,
                    "{pad}scatter {}[{}] += {}[{}]",
                    c.src,
                    map.join(", "),
                    c.dest,
                    exts.join(", ")
                )
            } else {
                writeln!(
                    f,
                    "{pad}copy {}[{}] = {}[{}]",
                    c.dest,
                    exts.join(", "),
                    c.src,
                    map.join(", ")
                )
            }
        }
        Stmt::Gather(g) => {
            if g.scatter {
                writeln!(f, "{pad}scatter {}[table] += {}[{}]", g.src, g.dest, g.dest_len)
            } else {
                writeln!(f, "{pad}gather {}[{}] = {}[table]", g.dest, g.dest_len, g.src)
            }
        }
        Stmt::Extern(e) => {
            let attrs: Vec<String> = e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                f,
                "{pad}extern {}({}){}",
                e.op,
                e.buffers.join(", "),
                if attrs.is_empty() {
                    String::new()
                } else {
                    format!(" {{{}}}", attrs.join(", "))
                }
            )
        }
    }
}

/// Pretty-prints a sequence of statements as an indented block.
pub fn print_stmts(stmts: &[Stmt]) -> String {
    stmts.iter().map(|s| s.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac_nest() -> Stmt {
        // for n { for i { value[n] += inputs[i] * weights[i, n] } }
        Stmt::for_loop(
            "n",
            4,
            vec![Stmt::for_loop(
                "i",
                3,
                vec![Stmt::accumulate(
                    BufRef::new("value", vec![IndexExpr::var("n")]),
                    Expr::load("inputs", vec![IndexExpr::var("i")]).mul(Expr::load(
                        "weights",
                        vec![IndexExpr::var("i"), IndexExpr::var("n")],
                    )),
                )],
            )],
        )
    }

    #[test]
    fn pretty_print_matches_paper_style() {
        let s = mac_nest().to_string();
        assert!(s.contains("for n in 0..4 {"));
        assert!(s.contains("value[n] += (inputs[i] * weights[i, n])"));
    }

    #[test]
    fn write_set() {
        assert_eq!(mac_nest().written_buffers(), vec!["value".to_string()]);
    }

    #[test]
    fn subst_var_rewrites_indices() {
        let nest = mac_nest();
        let repl = IndexExpr::var("t").scaled(2) + IndexExpr::var("n2");
        let out = nest.subst_var("n", &repl);
        let s = out.to_string();
        assert!(s.contains("value[n2 + 2*t]"), "{s}");
    }

    #[test]
    fn assign_op_semantics() {
        assert_eq!(AssignOp::Set.apply(1.0, 5.0), 5.0);
        assert_eq!(AssignOp::Add.apply(1.0, 5.0), 6.0);
        assert_eq!(AssignOp::Max.apply(1.0, 5.0), 5.0);
        assert_eq!(AssignOp::Max.apply(7.0, 5.0), 7.0);
    }

    /// `dest += x * y` rounds once: `(1 + 2^-12)^2 - (1 + 2^-11)` is
    /// `2^-24` exactly, which the rounded product (a tie, to even) loses.
    #[test]
    fn a_product_accumulation_rounds_once() {
        let (x, dest) = (1.0 + 2f32.powi(-12), -(1.0 + 2f32.powi(-11)));
        assert_eq!(AssignOp::Add.apply(dest, x * x), 0.0);
        assert_eq!(AssignOp::Add.apply_bin(dest, BinOp::Mul, x, x), 2f32.powi(-24));
        assert_eq!(AssignOp::Set.apply_bin(dest, BinOp::Mul, x, x), x * x);
        assert_eq!(AssignOp::Add.apply_bin(1.0, BinOp::Sub, 5.0, 3.0), 3.0);
    }

    #[test]
    fn count_matching_counts_loops() {
        let nest = mac_nest();
        let loops = nest.count_matching(&|s| matches!(s, Stmt::For(_)));
        assert_eq!(loops, 2);
    }

    #[test]
    fn gemm_stmt_prints() {
        let g = Stmt::Gemm(GemmStmt {
            ta: true,
            tb: false,
            m: 8,
            n: 16,
            k: 9,
            a: "conv1input".into(),
            a_off: IndexExpr::zero(),
            b: "conv1weights".into(),
            b_off: IndexExpr::zero(),
            c: "conv1".into(),
            c_off: IndexExpr::var("y_tile").scaled(16),
            tiling: None,
        });
        let s = g.to_string();
        assert!(s.contains("gemm('T', 'N'"), "{s}");
        assert!(s.contains("C=conv1[16*y_tile]"), "{s}");
    }

    #[test]
    fn extern_op_prints_attrs() {
        let e = Stmt::Extern(ExternOp {
            op: "softmax_forward".into(),
            buffers: vec!["ip2value".into(), "probvalue".into()],
            attrs: [("classes".to_string(), 10.0)].into_iter().collect(),
        });
        assert!(e.to_string().contains("extern softmax_forward(ip2value, probvalue) {classes=10}"));
    }
}
