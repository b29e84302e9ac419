//! Library-kernel pattern matching (the paper's Section 5.4.1).
//!
//! Recognizes synthesized multiply-accumulate loop nests of the form
//!
//! ```text
//! for v1 … for vL { C[f(v)] += A[g(v)] * B[h(v)] }
//! ```
//!
//! where every index is affine in the loop variables, and rewrites them to
//! a single [`GemmStmt`] executed by the blocked GEMM kernel (the stand-in
//! for MKL `sgemm`). The classification is exact: the flat affine index of
//! each operand must decompose into canonical row-major flattenings of the
//! `m`, `n`, and `k` variable sets, so a successful match is a proof that
//! the nest *is* a matrix multiplication.

use std::collections::HashMap;

use latte_ir::{
    Assign, AssignOp, BinOp, BufRef, Expr, GemmDim, GemmStmt, GemmTiling, IndexExpr, Stmt,
};
use latte_tensor::Shape;

use crate::program::Group;

/// Rewrites every matchable nest in every group; returns the number of
/// GEMMs produced.
pub(crate) fn pattern_match(groups: &mut [Group], shapes: &HashMap<String, Shape>) -> usize {
    let mut matched = 0;
    for group in groups.iter_mut() {
        for stmt in group.stmts.iter_mut() {
            if let Some(gemm) = match_nest(stmt, shapes) {
                *stmt = Stmt::Gemm(gemm);
                matched += 1;
            }
        }
    }
    matched
}

/// One loop of a perfect nest.
#[derive(Debug, Clone)]
struct NestVar {
    name: String,
    extent: usize,
}

/// Attempts to match one top-level statement as a GEMM.
fn match_nest(stmt: &Stmt, shapes: &HashMap<String, Shape>) -> Option<GemmStmt> {
    // Peel the perfect nest.
    let mut vars: Vec<NestVar> = Vec::new();
    let mut cur = stmt;
    let assign: &Assign = loop {
        match cur {
            Stmt::For(l) if l.body.len() == 1 => {
                vars.push(NestVar {
                    name: l.var.clone(),
                    extent: l.extent,
                });
                cur = &l.body[0];
            }
            Stmt::Assign(a) => break a,
            _ => return None,
        }
    };
    if assign.op != AssignOp::Add {
        return None;
    }
    let (load_a, load_b) = match &assign.value {
        Expr::Binary(BinOp::Mul, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Load(ra), Expr::Load(rb)) => (ra, rb),
            _ => return None,
        },
        _ => return None,
    };

    // Drop unit-extent loops (their variable is identically zero).
    let mut dest = assign.dest.clone();
    let mut ra = load_a.clone();
    let mut rb = load_b.clone();
    let zero = IndexExpr::zero();
    vars.retain(|v| {
        if v.extent == 1 {
            dest = dest.map_indices(|i| i.subst(&v.name, &zero));
            ra = ra.map_indices(|i| i.subst(&v.name, &zero));
            rb = rb.map_indices(|i| i.subst(&v.name, &zero));
            false
        } else {
            true
        }
    });

    let flat_c = flatten(&dest, shapes)?;
    let flat_a = flatten(&ra, shapes)?;
    let flat_b = flatten(&rb, shapes)?;

    // All loop variables must appear somewhere, and indices must not use
    // variables outside the nest.
    let names: Vec<&str> = vars.iter().map(|v| v.name.as_str()).collect();
    for fl in [&flat_c, &flat_a, &flat_b] {
        if fl.terms().any(|(v, _)| !names.contains(&v)) {
            return None;
        }
    }

    try_orientation(&vars, &flat_c, &flat_a, &flat_b, &ra.buffer, &rb.buffer)
        .or_else(|| try_orientation(&vars, &flat_c, &flat_b, &flat_a, &rb.buffer, &ra.buffer))
        .map(|mut g| {
            g.c = dest.buffer.clone();
            g
        })
}

/// Flattens a buffer reference to a single affine expression over loop
/// variables using the buffer's row-major strides.
fn flatten(r: &BufRef, shapes: &HashMap<String, Shape>) -> Option<IndexExpr> {
    let shape = shapes.get(&r.buffer)?;
    if r.indices.len() != shape.rank() {
        return None;
    }
    let mut flat = IndexExpr::zero();
    for (idx, &stride) in r.indices.iter().zip(shape.strides()) {
        flat = flat + idx.clone().scaled(stride as i64);
    }
    Some(flat)
}

/// A variable set with its canonical row-major flattening.
struct Flattening {
    /// Variables, major first.
    order: Vec<usize>,
    /// The flattening as an affine expression.
    expr: IndexExpr,
    /// Product of extents.
    total: usize,
}

/// Builds the canonical flattening of `set` (indices into `vars`) whose
/// per-variable radices are `coef(var) / unit` in `reference`; returns
/// `None` unless the scaled coefficients form an exact row-major chain.
fn chain(vars: &[NestVar], set: &[usize], reference: &IndexExpr, unit: i64) -> Option<Flattening> {
    if unit == 0 {
        return None;
    }
    let mut order: Vec<usize> = set.to_vec();
    let radix = |i: usize| -> Option<i64> {
        let c = reference.coef(&vars[i].name);
        if c % unit != 0 || c / unit <= 0 {
            None
        } else {
            Some(c / unit)
        }
    };
    for &i in &order {
        radix(i)?;
    }
    order.sort_by_key(|&i| std::cmp::Reverse(radix(i).unwrap()));
    // Validate the chain: last radix 1, each radix = next radix * next
    // extent.
    let mut expected = 1i64;
    for &i in order.iter().rev() {
        if radix(i)? != expected {
            return None;
        }
        expected *= vars[i].extent as i64;
    }
    let mut expr = IndexExpr::zero();
    for &i in &order {
        expr = expr + IndexExpr::var(&vars[i].name).scaled(radix(i).unwrap());
    }
    let total: usize = set.iter().map(|&i| vars[i].extent).product();
    Some(Flattening { order, expr, total })
}

/// Tries to interpret the nest as `C[m,n] += A[m,k] * B[k,n]` (with
/// transpositions) for the given operand assignment.
fn try_orientation(
    vars: &[NestVar],
    flat_c: &IndexExpr,
    flat_a: &IndexExpr,
    flat_b: &IndexExpr,
    a_name: &str,
    b_name: &str,
) -> Option<GemmStmt> {
    let uses = |fl: &IndexExpr, i: usize| fl.coef(&vars[i].name) != 0;
    let mut m_set = Vec::new();
    let mut n_set = Vec::new();
    let mut k_set = Vec::new();
    for i in 0..vars.len() {
        match (uses(flat_c, i), uses(flat_a, i), uses(flat_b, i)) {
            (true, true, false) => m_set.push(i),
            (true, false, true) => n_set.push(i),
            (false, true, true) => k_set.push(i),
            // A variable in all three, or in fewer than two, breaks the
            // bilinear form.
            _ => return None,
        }
    }

    // Column flattening from C (unit radix 1).
    let n_flat = chain(vars, &n_set, flat_c, 1)?;
    let ncols = n_flat.total as i64;
    // Row flattening from C, scaled by the column count.
    let m_flat = chain(vars, &m_set, flat_c, ncols)?;
    let m = m_flat.total;
    let n = n_flat.total;

    // Verify C = rowIdx * n + colIdx + const.
    let c_const = flat_c.offset();
    let c_expect = m_flat.expr.clone().scaled(ncols) + n_flat.expr.clone() + c_const;
    if &c_expect != flat_c {
        return None;
    }

    // A: try ta = No (A row-major m x k) then ta = Yes (k x m).
    let try_a = |ta: bool| -> Option<Flattening> {
        let k_flat = if ta {
            chain(vars, &k_set, flat_a, m as i64)?
        } else {
            chain(vars, &k_set, flat_a, 1)?
        };
        let kk = k_flat.total as i64;
        let a_expect = if ta {
            k_flat.expr.clone().scaled(m as i64) + m_flat.expr.clone() + flat_a.offset()
        } else {
            m_flat.expr.clone().scaled(kk) + k_flat.expr.clone() + flat_a.offset()
        };
        if &a_expect == flat_a {
            Some(k_flat)
        } else {
            None
        }
    };
    let (ta, k_flat) = if let Some(kf) = try_a(false) {
        (false, kf)
    } else if let Some(kf) = try_a(true) {
        (true, kf)
    } else {
        return None;
    };
    let k = k_flat.total;

    // B must use the SAME k flattening (operand reduction orders agree).
    let check_b = |tb: bool| -> bool {
        let b_expect = if tb {
            n_flat.expr.clone().scaled(k as i64) + k_flat.expr.clone() + flat_b.offset()
        } else {
            k_flat.expr.clone().scaled(ncols) + n_flat.expr.clone() + flat_b.offset()
        };
        &b_expect == flat_b
    };
    let tb = if check_b(false) {
        false
    } else if check_b(true) {
        true
    } else {
        return None;
    };

    // Tiling metadata over the group's dim-0 variable `n0`.
    let tiling = vars.iter().position(|v| v.name == "n0").and_then(|i| {
        let dim = if m_set.contains(&i) {
            GemmDim::M
        } else if n_set.contains(&i) {
            GemmDim::N
        } else {
            GemmDim::K
        };
        let per_step = match dim {
            GemmDim::M => m_flat.expr.coef("n0"),
            GemmDim::N => n_flat.expr.coef("n0"),
            GemmDim::K => k_flat.expr.coef("n0"),
        };
        // Only outermost-radix variables tile cleanly: the rows (or
        // cols/ks) of one n0 step must be contiguous in the index
        // space, i.e. n0 must be the major variable of its set.
        let is_major = |set: &Flattening| set.order.first() == Some(&i);
        let major = match dim {
            GemmDim::M => is_major(&m_flat),
            GemmDim::N => is_major(&n_flat),
            GemmDim::K => is_major(&k_flat),
        };
        if !major || per_step <= 0 {
            return None;
        }
        Some(GemmTiling {
            dim,
            per_step: per_step as usize,
            extent: vars[i].extent,
            a_step: flat_a.coef("n0") as usize,
            b_step: flat_b.coef("n0") as usize,
            c_step: flat_c.coef("n0") as usize,
        })
    });

    Some(GemmStmt {
        ta,
        tb,
        m,
        n,
        k,
        a: a_name.to_string(),
        a_off: IndexExpr::constant(flat_a.offset()),
        b: b_name.to_string(),
        b_off: IndexExpr::constant(flat_b.offset()),
        c: String::new(), // filled by the caller
        c_off: IndexExpr::constant(c_const),
        tiling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes(list: &[(&str, Vec<usize>)]) -> HashMap<String, Shape> {
        list.iter()
            .map(|(n, d)| (n.to_string(), Shape::new(d.clone())))
            .collect()
    }

    fn mac(
        loops: &[(&str, usize)],
        dest: (&str, Vec<IndexExpr>),
        a: (&str, Vec<IndexExpr>),
        b: (&str, Vec<IndexExpr>),
    ) -> Stmt {
        let mut stmt = Stmt::accumulate(
            BufRef::new(dest.0, dest.1),
            Expr::load(a.0, a.1).mul(Expr::load(b.0, b.1)),
        );
        for &(v, e) in loops.iter().rev() {
            stmt = Stmt::for_loop(v, e, vec![stmt]);
        }
        stmt
    }

    fn v(name: &str) -> IndexExpr {
        IndexExpr::var(name)
    }

    #[test]
    fn fc_forward_matches_row_vector_gemm() {
        // for n0 in N { for i in K { value[n0] += in[i] * w[n0, i] } }
        let shp = shapes(&[("v", vec![6]), ("in", vec![4]), ("w", vec![6, 4])]);
        let nest = mac(
            &[("n0", 6), ("i0", 4)],
            ("v", vec![v("n0")]),
            ("in", vec![v("i0")]),
            ("w", vec![v("n0"), v("i0")]),
        );
        let g = match_nest(&nest, &shp).expect("should match");
        // One row (m=1): C(1xN) += in(1xK) * W(NxK)^T.
        assert_eq!((g.m, g.n, g.k), (1, 6, 4));
        assert_eq!(g.a, "in");
        assert!(!g.ta);
        assert!(g.tb, "weights are stored NxK, so B is transposed");
    }

    #[test]
    fn conv_forward_matches_patch_gemm() {
        // for n0(y) n1(x) n2(c) i(k): val[n0,n1,n2] += patch[n0,n1,i] * w[n2,i]
        let (y, x, c, k) = (8, 8, 16, 27);
        let shp = shapes(&[
            ("val", vec![y, x, c]),
            ("patch", vec![y, x, k]),
            ("w", vec![c, k]),
        ]);
        let nest = mac(
            &[("n0", y), ("n1", x), ("n2", c), ("i0", k)],
            ("val", vec![v("n0"), v("n1"), v("n2")]),
            ("patch", vec![v("n0"), v("n1"), v("i0")]),
            ("w", vec![v("n2"), v("i0")]),
        );
        let g = match_nest(&nest, &shp).expect("should match");
        assert_eq!((g.m, g.n, g.k), (y * x, c, k));
        assert!(!g.ta);
        assert!(g.tb);
        let t = g.tiling.expect("dim-0 tiling metadata");
        assert_eq!(t.dim, GemmDim::M);
        assert_eq!(t.per_step, x);
        assert_eq!(t.a_step, x * k);
        assert_eq!(t.c_step, x * c);
        assert_eq!(t.b_step, 0);
    }

    #[test]
    fn conv_backward_weights_matches_transposed_gemm() {
        // gw[c,i] += patch[y,x,i] * g[y,x,c]  (reduction over y,x)
        let (y, x, c, k) = (4, 4, 8, 18);
        let shp = shapes(&[
            ("gw", vec![c, k]),
            ("patch", vec![y, x, k]),
            ("g", vec![y, x, c]),
        ]);
        let nest = mac(
            &[("n0", y), ("n1", x), ("n2", c), ("i0", k)],
            ("gw", vec![v("n2"), v("i0")]),
            ("patch", vec![v("n0"), v("n1"), v("i0")]),
            ("g", vec![v("n0"), v("n1"), v("n2")]),
        );
        let g = match_nest(&nest, &shp).expect("should match");
        // m=c (from dest∩g), n=k, k=y*x; A = g stored (yx, c) → transposed.
        assert_eq!((g.m, g.n, g.k), (c, k, y * x));
        assert!(g.ta);
        assert!(!g.tb);
        let t = g.tiling.expect("tiling over reduction rows");
        assert_eq!(t.dim, GemmDim::K);
        assert_eq!(t.per_step, x);
    }

    #[test]
    fn conv_backward_inputs_matches() {
        // gpatch[y,x,i] += w[c,i] * g[y,x,c]  (reduction over c)
        let (y, x, c, k) = (4, 4, 8, 18);
        let shp = shapes(&[
            ("gpatch", vec![y, x, k]),
            ("w", vec![c, k]),
            ("g", vec![y, x, c]),
        ]);
        let nest = mac(
            &[("n0", y), ("n1", x), ("n2", c), ("i0", k)],
            ("gpatch", vec![v("n0"), v("n1"), v("i0")]),
            ("w", vec![v("n2"), v("i0")]),
            ("g", vec![v("n0"), v("n1"), v("n2")]),
        );
        let g = match_nest(&nest, &shp).expect("should match");
        assert_eq!((g.m, g.n, g.k), (y * x, k, c));
        assert_eq!(g.a, "g");
        assert!(!g.ta);
        assert!(!g.tb);
        assert_eq!(g.tiling.unwrap().dim, GemmDim::M);
    }

    #[test]
    fn outer_product_matches_rank_one_update() {
        // gw[n, i] += in[i] * g[n]: no reduction variable → k == 1.
        let shp = shapes(&[("gw", vec![6, 4]), ("in", vec![4]), ("g", vec![6])]);
        let nest = mac(
            &[("n0", 6), ("i0", 4)],
            ("gw", vec![v("n0"), v("i0")]),
            ("in", vec![v("i0")]),
            ("g", vec![v("n0")]),
        );
        let g = match_nest(&nest, &shp).expect("should match");
        assert_eq!((g.m, g.n, g.k), (6, 4, 1));
    }

    #[test]
    fn non_affine_usage_rejected() {
        // A variable used by all three operands is not bilinear.
        let shp = shapes(&[("c", vec![4]), ("a", vec![4]), ("b", vec![4])]);
        let nest = mac(
            &[("n0", 4)],
            ("c", vec![v("n0")]),
            ("a", vec![v("n0")]),
            ("b", vec![v("n0")]),
        );
        assert!(match_nest(&nest, &shp).is_none());
    }

    #[test]
    fn set_assignments_do_not_match() {
        let shp = shapes(&[("c", vec![4]), ("a", vec![4]), ("b", vec![4, 4])]);
        let inner = Stmt::assign(
            BufRef::new("c", vec![v("n0")]),
            Expr::load("a", vec![v("i0")]).mul(Expr::load("b", vec![v("n0"), v("i0")])),
        );
        let nest = Stmt::for_loop("n0", 4, vec![Stmt::for_loop("i0", 4, vec![inner])]);
        assert!(match_nest(&nest, &shp).is_none());
    }

    #[test]
    fn strided_non_chain_access_rejected() {
        // Dest indexed with a stride-2 hole: not a contiguous flattening.
        let shp = shapes(&[("c", vec![8]), ("a", vec![4]), ("b", vec![4, 4])]);
        let nest = mac(
            &[("n0", 4), ("i0", 4)],
            ("c", vec![v("n0").scaled(2)]),
            ("a", vec![v("i0")]),
            ("b", vec![v("n0"), v("i0")]),
        );
        assert!(match_nest(&nest, &shp).is_none());
    }

    #[test]
    fn unit_extent_loops_are_ignored() {
        // Bias-style trailing unit dim: w[n0, i, 0] over shape [6,4,1].
        let shp = shapes(&[("v", vec![6]), ("in", vec![4]), ("w", vec![6, 4, 1])]);
        let nest = mac(
            &[("n0", 6), ("i0", 4), ("z", 1)],
            ("v", vec![v("n0")]),
            ("in", vec![v("i0")]),
            ("w", vec![v("n0"), v("i0"), v("z")]),
        );
        assert!(match_nest(&nest, &shp).is_some());
    }
}
