//! Structural IR verification: the contract every compiler pass must
//! preserve.
//!
//! The pass manager in `latte-core` runs [`verify_program`] between
//! passes (always in debug builds and tests, opt-in in release via
//! `LATTE_VERIFY_IR=1`), so a pass that emits a malformed nest is caught
//! at the pass boundary with a precise diagnostic instead of surfacing
//! later as a lowering failure — or worse, as silently wrong numbers.
//!
//! Checks performed:
//!
//! * **loop-bound sanity** — every loop has a non-zero extent, loop
//!   variables are unique within their nest, tile annotations are
//!   internally consistent (`tile_size >= 1`, `dep_distance >= 1`);
//! * **buffer-reference consistency** — every referenced buffer is
//!   declared, reference rank matches the declared rank, every index
//!   variable is bound by an enclosing loop, and the flattened affine
//!   index provably stays inside the buffer for all loop values (the
//!   same static bounds proof lowering performs);
//! * **alias-class well-formedness** — alias targets exist, are declared
//!   before the alias, are not themselves aliases, and agree on per-item
//!   size and batching;
//! * **parallel-marker legality** — only tiled loops may carry the
//!   `parallel` annotation (the paper's collapsed batch x tile schedule
//!   assumes the parallel loop is a tile loop; the runtime runs a marked
//!   group item-parallel, its tile loop serially).

use std::collections::HashMap;
use std::fmt;

use crate::buffer::BufferDecl;
use crate::expr::{BufRef, IndexExpr};
use crate::stmt::{CopyStmt, GatherStmt, GemmStmt, Stmt};

/// A verification failure: where it was found and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Which statement tripped the check, as a human-readable path
    /// (e.g. `"stmt 2 / for t / for n0"`).
    pub location: String,
    /// What is wrong.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Everything the statement checks need about one declared buffer.
struct BufMeta {
    rank: usize,
    strides: Vec<usize>,
    per_item: usize,
}

struct Verifier {
    bufs: HashMap<String, BufMeta>,
    /// Enclosing loop variables with extents, outermost first.
    scope: Vec<(String, usize)>,
    /// Human-readable location path.
    path: Vec<String>,
}

/// Verifies a whole program: the buffer table plus every statement of
/// every group in both phases. `groups` supplies `(group name,
/// statements)` pairs in execution order.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_program<'a>(
    decls: &[BufferDecl],
    groups: impl IntoIterator<Item = (&'a str, &'a [Stmt])>,
) -> Result<(), VerifyError> {
    verify_buffers(decls)?;
    let mut v = Verifier::new(decls);
    for (name, stmts) in groups {
        v.path.clear();
        v.path.push(format!("group `{name}`"));
        for (i, s) in stmts.iter().enumerate() {
            v.path.push(format!("stmt {i}"));
            v.stmt(s)?;
            v.path.pop();
        }
    }
    Ok(())
}

/// Verifies the buffer table alone: unique names and well-formed alias
/// classes.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_buffers(decls: &[BufferDecl]) -> Result<(), VerifyError> {
    let mut seen: HashMap<&str, &BufferDecl> = HashMap::new();
    for decl in decls {
        let here = || VerifyError {
            location: format!("buffer `{}`", decl.name),
            detail: String::new(),
        };
        if seen.contains_key(decl.name.as_str()) {
            return Err(VerifyError {
                detail: "declared twice".into(),
                ..here()
            });
        }
        if let Some(target) = &decl.alias_of {
            let Some(t) = seen.get(target.as_str()) else {
                return Err(VerifyError {
                    detail: format!("aliases `{target}`, which is missing or declared later"),
                    ..here()
                });
            };
            // Alias-of-alias chains are fine (the store resolves them
            // transitively); since targets must be declared earlier the
            // chain can never cycle.
            if t.len() != decl.len() {
                return Err(VerifyError {
                    detail: format!(
                        "aliases `{target}` but sizes differ ({} vs {} elements)",
                        decl.len(),
                        t.len()
                    ),
                    ..here()
                });
            }
            if t.kind.is_batched() != decl.kind.is_batched() {
                return Err(VerifyError {
                    detail: format!("aliases `{target}` across the batched/unbatched boundary"),
                    ..here()
                });
            }
        }
        seen.insert(&decl.name, decl);
    }
    Ok(())
}

impl Verifier {
    fn new(decls: &[BufferDecl]) -> Self {
        let bufs = decls
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    BufMeta {
                        rank: d.shape.rank(),
                        strides: d.shape.strides().to_vec(),
                        per_item: d.len(),
                    },
                )
            })
            .collect();
        Verifier {
            bufs,
            scope: Vec::new(),
            path: Vec::new(),
        }
    }

    fn err(&self, detail: impl Into<String>) -> VerifyError {
        VerifyError {
            location: self.path.join(" / "),
            detail: detail.into(),
        }
    }

    fn meta(&self, name: &str) -> Result<&BufMeta, VerifyError> {
        self.bufs
            .get(name)
            .ok_or_else(|| self.err(format!("references undeclared buffer `{name}`")))
    }

    /// Minimum and maximum of an affine index over the enclosing loop
    /// ranges; errors on unbound variables.
    fn range(&self, e: &IndexExpr) -> Result<(i64, i64), VerifyError> {
        let mut lo = e.offset();
        let mut hi = e.offset();
        for (var, coef) in e.terms() {
            let extent = self
                .scope
                .iter()
                .rev()
                .find(|(v, _)| v == var)
                .map(|&(_, e)| e)
                .ok_or_else(|| self.err(format!("index uses unbound variable `{var}`")))?;
            let max_v = extent as i64 - 1;
            if coef >= 0 {
                hi += coef * max_v;
            } else {
                lo += coef * max_v;
            }
        }
        Ok((lo, hi))
    }

    /// Checks one buffer reference: declared, rank-correct, and with a
    /// flattened index provably inside the per-item extent.
    fn bufref(&self, r: &BufRef) -> Result<(), VerifyError> {
        let meta = self.meta(&r.buffer)?;
        if r.indices.len() != meta.rank {
            return Err(self.err(format!(
                "reference {r} has {} indices but `{}` has rank {}",
                r.indices.len(),
                r.buffer,
                meta.rank
            )));
        }
        let mut flat_lo = 0i64;
        let mut flat_hi = 0i64;
        for (idx, &stride) in r.indices.iter().zip(&meta.strides) {
            let (lo, hi) = self.range(idx)?;
            flat_lo += lo * stride as i64;
            flat_hi += hi * stride as i64;
        }
        if flat_lo < 0 || flat_hi >= meta.per_item as i64 {
            return Err(self.err(format!(
                "reference {r} ranges over [{flat_lo}, {flat_hi}] outside `{}` of {} elements",
                r.buffer, meta.per_item
            )));
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), VerifyError> {
        match s {
            Stmt::For(l) => {
                if l.extent == 0 {
                    self.path.push(format!("for {}", l.var));
                    return Err(self.err("loop has zero extent"));
                }
                if self.scope.iter().any(|(v, _)| *v == l.var) {
                    self.path.push(format!("for {}", l.var));
                    return Err(self.err(format!(
                        "loop variable `{}` shadows an enclosing loop",
                        l.var
                    )));
                }
                if let Some(t) = l.annot.tiled {
                    if t.tile_size == 0 || t.dep_distance == 0 {
                        self.path.push(format!("for {}", l.var));
                        return Err(self.err(format!(
                            "tile annotation is degenerate (size={}, dep={})",
                            t.tile_size, t.dep_distance
                        )));
                    }
                }
                if l.annot.parallel && l.annot.tiled.is_none() {
                    self.path.push(format!("for {}", l.var));
                    return Err(self.err("parallel marker on an untiled loop"));
                }
                self.path.push(format!("for {}", l.var));
                self.scope.push((l.var.clone(), l.extent));
                for b in &l.body {
                    self.stmt(b)?;
                }
                self.scope.pop();
                self.path.pop();
                Ok(())
            }
            Stmt::Assign(a) => {
                self.bufref(&a.dest)?;
                let mut first_err = None;
                a.value.visit_loads(&mut |r| {
                    if first_err.is_none() {
                        if let Err(e) = self.bufref(r) {
                            first_err = Some(e);
                        }
                    }
                });
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
            Stmt::Gemm(g) => self.gemm(g),
            Stmt::Copy(c) => self.copy(c),
            Stmt::Gather(g) => self.gather(g),
            Stmt::Extern(e) => {
                for b in &e.buffers {
                    self.meta(b)?;
                }
                Ok(())
            }
        }
    }

    fn gemm(&self, g: &GemmStmt) -> Result<(), VerifyError> {
        if g.m == 0 || g.n == 0 || g.k == 0 {
            return Err(self.err(format!(
                "gemm has a degenerate dimension (m={}, n={}, k={})",
                g.m, g.n, g.k
            )));
        }
        for (name, off, need, operand) in [
            (&g.a, &g.a_off, g.m * g.k, "A"),
            (&g.b, &g.b_off, g.k * g.n, "B"),
            (&g.c, &g.c_off, g.m * g.n, "C"),
        ] {
            let meta = self.meta(name)?;
            let (lo, hi) = self.range(off)?;
            if lo < 0 || hi + need as i64 > meta.per_item as i64 {
                return Err(self.err(format!(
                    "gemm operand {operand} (`{name}`) spans [{lo}, {}] outside {} elements",
                    hi + need as i64,
                    meta.per_item
                )));
            }
        }
        Ok(())
    }

    fn copy(&self, c: &CopyStmt) -> Result<(), VerifyError> {
        let dmeta = self.meta(&c.dest)?;
        let smeta = self.meta(&c.src)?;
        let dest_total: usize = c.dest_shape.iter().product();
        if dest_total != dmeta.per_item {
            return Err(self.err(format!(
                "copy dest shape {:?} has {} elements but `{}` has {}",
                c.dest_shape, dest_total, c.dest, dmeta.per_item
            )));
        }
        let src_total: usize = c.src_shape.iter().product();
        if src_total != smeta.per_item {
            return Err(self.err(format!(
                "copy src shape {:?} has {} elements but `{}` has {}",
                c.src_shape, src_total, c.src, smeta.per_item
            )));
        }
        let ndd = c.dest_shape.len();
        if c.extents.len() != ndd || c.offsets.len() != ndd {
            return Err(self.err(format!(
                "copy iterates {} extents / {} offsets over a rank-{ndd} destination",
                c.extents.len(),
                c.offsets.len()
            )));
        }
        if c.map.len() != c.src_shape.len() {
            return Err(self.err(format!(
                "copy maps {} source indices over a rank-{} source",
                c.map.len(),
                c.src_shape.len()
            )));
        }
        // The map is written in the copy's own global-dest-index variables
        // d0..d{ndd-1}; anything else is dangling.
        for m in &c.map {
            for (var, _) in m.terms() {
                let ok = var
                    .strip_prefix('d')
                    .and_then(|v| v.parse::<usize>().ok())
                    .is_some_and(|d| d < ndd);
                if !ok {
                    return Err(self.err(format!("copy map uses unexpected variable `{var}`")));
                }
            }
        }
        for (d, (off, &extent)) in c.offsets.iter().zip(&c.extents).enumerate() {
            if extent == 0 {
                return Err(self.err(format!("copy dim {d} has zero extent")));
            }
            let (lo, hi) = self.range(off)?;
            if lo < 0 || hi + extent as i64 > c.dest_shape[d] as i64 {
                return Err(self.err(format!(
                    "copy dim {d} covers [{lo}, {}] outside extent {}",
                    hi + extent as i64,
                    c.dest_shape[d]
                )));
            }
        }
        Ok(())
    }

    fn gather(&self, g: &GatherStmt) -> Result<(), VerifyError> {
        let dmeta = self.meta(&g.dest)?;
        let smeta = self.meta(&g.src)?;
        if g.dest_len != dmeta.per_item {
            return Err(self.err(format!(
                "gather writes {} elements but `{}` has {}",
                g.dest_len, g.dest, dmeta.per_item
            )));
        }
        if g.table.len() != g.dest_len {
            return Err(self.err(format!(
                "gather table has {} entries for {} destination elements",
                g.table.len(),
                g.dest_len
            )));
        }
        for (i, &t) in g.table.iter().enumerate() {
            if t < -1 || t >= smeta.per_item as i64 {
                return Err(self.err(format!(
                    "gather table entry {i} is {t}, outside `{}` of {} elements",
                    g.src, smeta.per_item
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::expr::Expr;

    fn decls() -> Vec<BufferDecl> {
        vec![
            BufferDecl::new("v", vec![4, 8], BufferKind::Value),
            BufferDecl::new("w", vec![8], BufferKind::Param),
        ]
    }

    fn check(stmts: &[Stmt]) -> Result<(), VerifyError> {
        verify_program(&decls(), [("g", stmts)])
    }

    #[test]
    fn well_formed_nest_passes() {
        let s = Stmt::for_loop(
            "i",
            4,
            vec![Stmt::for_loop(
                "j",
                8,
                vec![Stmt::assign(
                    BufRef::new("v", vec![IndexExpr::var("i"), IndexExpr::var("j")]),
                    Expr::load("w", vec![IndexExpr::var("j")]),
                )],
            )],
        );
        check(&[s]).unwrap();
    }

    #[test]
    fn unbound_variable_is_reported() {
        let s = Stmt::for_loop(
            "i",
            4,
            vec![Stmt::assign(
                BufRef::new("v", vec![IndexExpr::var("i"), IndexExpr::var("q")]),
                Expr::lit(0.0),
            )],
        );
        let e = check(&[s]).unwrap_err();
        assert!(e.detail.contains("unbound variable `q`"), "{e}");
        assert!(e.location.contains("for i"), "{e}");
    }

    #[test]
    fn out_of_bounds_reference_is_reported() {
        let s = Stmt::for_loop(
            "i",
            5, // one past the declared extent 4
            vec![Stmt::assign(
                BufRef::new("v", vec![IndexExpr::var("i"), IndexExpr::zero()]),
                Expr::lit(0.0),
            )],
        );
        let e = check(&[s]).unwrap_err();
        assert!(e.detail.contains("outside `v`"), "{e}");
    }

    #[test]
    fn rank_mismatch_is_reported() {
        let s = Stmt::assign(BufRef::new("v", vec![IndexExpr::zero()]), Expr::lit(0.0));
        let e = check(&[s]).unwrap_err();
        assert!(e.detail.contains("rank"), "{e}");
    }

    #[test]
    fn zero_extent_loop_is_reported() {
        let s = Stmt::for_loop("i", 0, vec![]);
        let e = check(&[s]).unwrap_err();
        assert!(e.detail.contains("zero extent"), "{e}");
    }

    #[test]
    fn parallel_marker_requires_tiling() {
        let mut l = crate::stmt::Loop::new("i", 4, vec![]);
        l.annot.parallel = true;
        let e = check(&[Stmt::For(l)]).unwrap_err();
        assert!(e.detail.contains("parallel marker"), "{e}");
    }

    #[test]
    fn dangling_buffer_reference_is_reported() {
        let s = Stmt::assign(
            BufRef::new("ghost", vec![IndexExpr::zero()]),
            Expr::lit(0.0),
        );
        let e = check(&[s]).unwrap_err();
        assert!(e.detail.contains("undeclared buffer `ghost`"), "{e}");
    }

    #[test]
    fn alias_ordering_is_checked() {
        let bad = vec![
            BufferDecl::alias("a", vec![4], BufferKind::Value, "b"),
            BufferDecl::new("b", vec![4], BufferKind::Value),
        ];
        let e = verify_buffers(&bad).unwrap_err();
        assert!(e.detail.contains("declared later"), "{e}");
    }

    #[test]
    fn alias_size_mismatch_is_checked() {
        let bad = vec![
            BufferDecl::new("b", vec![4], BufferKind::Value),
            BufferDecl::alias("a", vec![8], BufferKind::Value, "b"),
        ];
        let e = verify_buffers(&bad).unwrap_err();
        assert!(e.detail.contains("sizes differ"), "{e}");
    }
}
