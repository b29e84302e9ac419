//! Loop tiling, cross-layer fusion, and parallelization (the paper's
//! Sections 5.4.1–5.4.3).
//!
//! Tiling splits each group's outermost spatial loop (`n0`, the `y`
//! dimension) into `for t { for n0 in 0..T }`, annotating the tile loop
//! with the dependence distance derived from the connection structure.
//!
//! Fusion merges adjacent tiled groups of a producer→consumer chain into a
//! single tile loop, *scaling the producer's tile size* by the consumer's
//! consumption stride so both sides present identical trip counts —
//! exactly the paper's Figure 11/12 transformation for
//! convolution+ReLU+pooling. A non-zero halo (overlapping windows) or a
//! barrier (normalization ensembles) prevents fusion.
//!
//! Parallelization marks the tile loop parallel, as the paper does before
//! collapsing it with the batch loop under `schedule(static,1)`. The
//! runtime runs a marked group item-parallel, each item's tile loop
//! serially; ROADMAP's batch×tile item would collapse the two.

use latte_ir::{GemmDim, IndexExpr, Loop, LoopAnnot, Stmt, TileInfo};

use crate::program::{CompileStats, Group};

/// Preferred standalone tile sizes, first divisor wins.
const PREFERRED_TILES: [usize; 4] = [8, 4, 2, 1];

/// The fusion pass: partitions a phase's groups into maximal fusable
/// chains (runs of consecutive groups linked producer→consumer with zero
/// halo) and merges each multi-group chain into a single tiled loop.
/// Chains that cannot be fused — and all singleton chains — are passed
/// through unchanged for [`tile_untiled`] to pick up. Counts what it
/// tiled and fused into `stats`.
pub(crate) fn fuse_chains(
    groups: Vec<Group>,
    tile_size: Option<usize>,
    stats: &mut CompileStats,
) -> Vec<Group> {
    let mut out: Vec<Group> = Vec::new();
    let mut groups = groups.into_iter().peekable();
    while let Some(first) = groups.next() {
        let mut chain = vec![first];
        let mut strides: Vec<usize> = Vec::new(); // link i -> i+1
        while let Some(s) = groups
            .peek()
            .and_then(|next| link_stride(chain.last()?, next))
        {
            strides.push(s);
            chain.extend(groups.next());
        }

        if chain.len() == 1 {
            out.append(&mut chain);
        } else {
            match fuse_chain(chain, &strides, stats, tile_size) {
                Ok(g) => out.push(g),
                // Leave the originals untiled; the tiling pass tiles each
                // independently.
                Err(mut originals) => out.append(&mut originals),
            }
        }
    }
    out
}

/// The tiling pass: tiles the outermost spatial loop of every group that
/// does not already carry one (fused groups emerge from [`fuse_chains`]
/// pre-tiled). Groups with no tileable statement pass through unchanged.
/// Counts what it tiled into `stats`.
pub(crate) fn tile_untiled(
    groups: Vec<Group>,
    tile_size: Option<usize>,
    stats: &mut CompileStats,
) -> Vec<Group> {
    groups
        .into_iter()
        .map(|g| {
            let already = g
                .stmts
                .iter()
                .any(|s| matches!(s, Stmt::For(l) if l.annot.tiled.is_some()));
            if already {
                return g;
            }
            match tile_single(g, stats, tile_size) {
                Ok(t) => t,
                Err(g) => g,
            }
        })
        .collect()
}

/// Marks the outer (tile) loop of each group parallel.
///
/// Every tiled, non-barrier group is marked. The `parallel` annotation
/// fixes the group's gradient-lane accumulation structure, which is the
/// same at every thread count: a one-thread pool runs the lanes in order
/// on the caller, so the annotation never changes bits, only whether
/// more than one worker shares the lanes.
pub(crate) fn parallelize(groups: &mut [Group]) {
    for g in groups.iter_mut() {
        if g.barrier {
            continue;
        }
        for stmt in g.stmts.iter_mut() {
            if let Stmt::For(l) = stmt {
                if l.annot.tiled.is_some() {
                    l.annot.parallel = true;
                }
            }
        }
    }
}

/// Whether `next` can fuse onto the tail of `prev`; returns the
/// consumption stride of the link.
fn link_stride(prev: &Group, next: &Group) -> Option<usize> {
    if prev.barrier || next.barrier || prev.phase != next.phase {
        return None;
    }
    let (pe, ne) = (prev.meta.dim0_extent?, next.meta.dim0_extent?);
    // Forward: the consumer (`next`) names its producer; backward: the
    // *producer of gradients* (`prev`, downstream ensemble) names the
    // ensemble whose gradients it feeds (`next`).
    let (consumer_extent, producer_extent, link) = match next.meta.upstream.as_ref() {
        Some(u) if prev.ensembles.contains(&u.ensemble) => (ne, pe, u),
        _ => match prev.meta.upstream.as_ref() {
            Some(u) if next.ensembles.contains(&u.ensemble) => (pe, ne, u),
            _ => return None,
        },
    };
    if link.halo != 0 {
        return None;
    }
    // In the backward phase the producer's gradient buffer must be fed by
    // this consumer alone before the producer's backward may run per-tile.
    if prev.phase == crate::program::Phase::Backward && !link.sole_consumer {
        return None;
    }
    // Exact sub-sampling: the producer's rows must be consumed fully.
    if consumer_extent * link.stride != producer_extent {
        return None;
    }
    Some(link.stride)
}

/// Tiles a standalone group with a preferred tile size; returns the group
/// unchanged when no statement can be tiled.
#[allow(clippy::result_large_err)] // Err returns the group unchanged, by design
fn tile_single(
    group: Group,
    stats: &mut CompileStats,
    tile_size: Option<usize>,
) -> Result<Group, Group> {
    let extent = match group.meta.dim0_extent {
        Some(e) => e,
        None => return Err(group),
    };
    let tile = match choose_tile(extent, tile_size) {
        Some(t) => t,
        None => return Err(group),
    };
    let dep = group.meta.upstream.as_ref().map(|u| u.stride).unwrap_or(1);
    match tile_stmts(&group.stmts, extent, tile) {
        Some(body) => {
            stats.groups_tiled += 1;
            let count = extent / tile;
            let mut g = group;
            g.stmts = vec![Stmt::For(Loop {
                var: "t".to_string(),
                extent: count,
                annot: LoopAnnot {
                    tiled: Some(TileInfo {
                        tile_size: tile,
                        dep_distance: dep,
                    }),
                    parallel: false,
                },
                body,
            })];
            Ok(g)
        }
        None => Err(group),
    }
}

/// Fuses a chain of tileable groups into one tile loop.
fn fuse_chain(
    chain: Vec<Group>,
    strides: &[usize],
    stats: &mut CompileStats,
    tile_size: Option<usize>,
) -> Result<Group, Vec<Group>> {
    // Tile counts must be identical; choose from the smallest extent.
    let extents: Vec<usize> = chain
        .iter()
        .map(|g| g.meta.dim0_extent.expect("chained groups are tileable"))
        .collect();
    let min_extent = *extents.iter().min().unwrap();
    let base_tile = match choose_tile(min_extent, tile_size) {
        Some(t) => t,
        None => return Err(chain),
    };
    let count = min_extent / base_tile;
    if extents.iter().any(|e| e % count != 0) {
        return Err(chain);
    }

    let mut body: Vec<Stmt> = Vec::new();
    for (g, &extent) in chain.iter().zip(&extents) {
        let tile = extent / count;
        match tile_stmts(&g.stmts, extent, tile) {
            Some(mut stmts) => body.append(&mut stmts),
            None => return Err(chain),
        }
    }
    stats.groups_tiled += chain.len();
    stats.fusions += chain.len() - 1;

    let name = chain
        .iter()
        .map(|g| g.ensembles.join("+"))
        .collect::<Vec<_>>()
        .join("+");
    let dep = strides.iter().copied().max().unwrap_or(1);
    let ensembles: Vec<String> = chain.iter().flat_map(|g| g.ensembles.clone()).collect();
    let phase = chain[0].phase;
    let meta = crate::program::GroupMeta {
        dim0_extent: chain.last().unwrap().meta.dim0_extent,
        upstream: chain[0].meta.upstream.clone(),
    };
    Ok(Group {
        name: format!("{name}.{}", phase_suffix(phase)),
        ensembles,
        phase,
        stmts: vec![Stmt::For(Loop {
            var: "t".to_string(),
            extent: count,
            annot: LoopAnnot {
                tiled: Some(TileInfo {
                    tile_size: base_tile,
                    dep_distance: dep,
                }),
                parallel: false,
            },
            body,
        })],
        barrier: false,
        meta,
    })
}

fn phase_suffix(p: crate::program::Phase) -> &'static str {
    match p {
        crate::program::Phase::Forward => "fwd",
        crate::program::Phase::Backward => "bwd",
    }
}

/// Picks the largest preferred tile that divides `extent` into more than
/// one tile; an explicit override wins when it qualifies.
fn choose_tile(extent: usize, requested: Option<usize>) -> Option<usize> {
    if let Some(t) = requested {
        if t > 0 && extent.is_multiple_of(t) && extent / t > 1 {
            return Some(t);
        }
    }
    PREFERRED_TILES
        .iter()
        .copied()
        .find(|&t| extent.is_multiple_of(t) && extent / t > 1)
}

/// Restricts a group's top-level statements to one tile of `n0`: tile `t`
/// covers `n0 ∈ [t*tile, (t+1)*tile)`. Returns `None` when any statement
/// does not span the full dim-0 extent.
fn tile_stmts(stmts: &[Stmt], extent: usize, tile: usize) -> Option<Vec<Stmt>> {
    let t_var = IndexExpr::var("t");
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::For(l) if l.var == "n0" && l.extent == extent => {
                // n0 := t*tile + n0, with the inner loop now 0..tile.
                let repl = t_var.clone().scaled(tile as i64) + IndexExpr::var("n0");
                let body: Vec<Stmt> = l.body.iter().map(|s| s.subst_var("n0", &repl)).collect();
                Some(Stmt::For(Loop {
                    var: "n0".to_string(),
                    extent: tile,
                    annot: l.annot,
                    body,
                }))
            }
            Stmt::Copy(c) if !c.extents.is_empty() && c.extents[0] == extent => {
                let mut c = c.clone();
                c.extents[0] = tile;
                c.offsets[0] = t_var.clone().scaled(tile as i64);
                Some(Stmt::Copy(c))
            }
            Stmt::Gemm(g) => {
                let t = g.tiling?;
                if t.extent != extent {
                    return None;
                }
                let mut g = g.clone();
                let span = t.per_step * tile;
                match t.dim {
                    GemmDim::M => g.m = span,
                    GemmDim::N => g.n = span,
                    GemmDim::K => g.k = span,
                }
                let step = |s: usize| t_var.clone().scaled((s * tile) as i64);
                g.a_off = g.a_off.clone() + step(t.a_step);
                g.b_off = g.b_off.clone() + step(t.b_step);
                g.c_off = g.c_off.clone() + step(t.c_step);
                g.tiling = None;
                Some(Stmt::Gemm(g))
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{GroupMeta, Phase, Upstream};
    use latte_ir::{BufRef, Expr, GemmStmt, GemmTiling};

    /// Fusion (when asked for) then tiling, as `compile` runs them.
    fn schedule(groups: Vec<Group>, fusion: bool) -> (Vec<Group>, CompileStats) {
        let mut stats = CompileStats::default();
        let groups = if fusion {
            fuse_chains(groups, None, &mut stats)
        } else {
            groups
        };
        (tile_untiled(groups, None, &mut stats), stats)
    }

    fn elementwise_group(name: &str, extent: usize, upstream: Option<Upstream>) -> Group {
        // for n0 { for n1 { v[n0, n1] = max(v[n0, n1], 0) } }
        let dest = BufRef::new(
            format!("{name}.value"),
            vec![IndexExpr::var("n0"), IndexExpr::var("n1")],
        );
        let inner = Stmt::assign(dest.clone(), Expr::Load(dest).max(Expr::lit(0.0)));
        let nest = Stmt::for_loop("n0", extent, vec![Stmt::for_loop("n1", 4, vec![inner])]);
        Group {
            name: format!("{name}.fwd"),
            ensembles: vec![name.to_string()],
            phase: Phase::Forward,
            stmts: vec![nest],
            barrier: false,
            meta: GroupMeta {
                dim0_extent: Some(extent),
                upstream,
            },
        }
    }

    #[test]
    fn standalone_group_gets_tiled() {
        let g = elementwise_group("relu1", 16, None);
        let (out, stats) = schedule(vec![g], false);
        assert_eq!(stats.groups_tiled, 1);
        assert_eq!(out.len(), 1);
        match &out[0].stmts[0] {
            Stmt::For(l) => {
                assert_eq!(l.var, "t");
                assert_eq!(l.extent, 2); // 16 / preferred tile 8
                assert_eq!(l.annot.tiled.unwrap().tile_size, 8);
            }
            other => panic!("expected tile loop, got {other:?}"),
        }
    }

    #[test]
    fn elementwise_consumer_fuses_with_producer() {
        let conv = elementwise_group("conv1", 16, None);
        let relu = elementwise_group(
            "relu1",
            16,
            Some(Upstream {
                ensemble: "conv1".to_string(),
                stride: 1,
                halo: 0,
                sole_consumer: true,
            }),
        );
        let (out, stats) = schedule(vec![conv, relu], true);
        assert_eq!(stats.fusions, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].name.contains("conv1+relu1"), "{}", out[0].name);
    }

    #[test]
    fn subsampling_consumer_doubles_producer_tile() {
        // Producer extent 16, pool extent 8 with stride 2: producer tile
        // must be twice the pool tile (the paper's Figure 11).
        let conv = elementwise_group("conv1", 16, None);
        let pool = elementwise_group(
            "pool1",
            8,
            Some(Upstream {
                ensemble: "conv1".to_string(),
                stride: 2,
                halo: 0,
                sole_consumer: true,
            }),
        );
        let (out, stats) = schedule(vec![conv, pool], true);
        assert_eq!(stats.fusions, 1);
        let tile_loop = match &out[0].stmts[0] {
            Stmt::For(l) => l,
            other => panic!("expected loop, got {other:?}"),
        };
        // Pool extent 8 → preferred tile 8 is the whole extent → falls to
        // count via min extent 8 / 8 = 1... must still fuse with >1 tiles,
        // so the pass picks tile 4 → count 2.
        assert!(tile_loop.extent > 1);
        // Both bodies present: conv rows per tile = 2 * pool rows.
        let body = &tile_loop.body;
        let conv_inner = match &body[0] {
            Stmt::For(l) => l.extent,
            other => panic!("{other:?}"),
        };
        let pool_inner = match &body[1] {
            Stmt::For(l) => l.extent,
            other => panic!("{other:?}"),
        };
        assert_eq!(conv_inner, 2 * pool_inner);
    }

    #[test]
    fn halo_prevents_fusion() {
        let conv1 = elementwise_group("conv1", 16, None);
        let conv2 = elementwise_group(
            "conv2",
            16,
            Some(Upstream {
                ensemble: "conv1".to_string(),
                stride: 1,
                halo: 2, // 3x3 stride-1 window overlaps rows
                sole_consumer: true,
            }),
        );
        let (out, stats) = schedule(vec![conv1, conv2], true);
        assert_eq!(stats.fusions, 0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn barrier_prevents_fusion() {
        let a = elementwise_group("a", 16, None);
        let mut b = elementwise_group(
            "b",
            16,
            Some(Upstream {
                ensemble: "a".to_string(),
                stride: 1,
                halo: 0,
                sole_consumer: true,
            }),
        );
        b.barrier = true;
        let (out, stats) = schedule(vec![a, b], true);
        assert_eq!(stats.fusions, 0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn backward_chain_fuses_in_reverse_order() {
        // Backward order: pool.bwd first, then conv.bwd; pool names conv
        // as its upstream.
        let mut pool = elementwise_group(
            "pool1",
            8,
            Some(Upstream {
                ensemble: "conv1".to_string(),
                stride: 2,
                halo: 0,
                sole_consumer: true,
            }),
        );
        pool.phase = Phase::Backward;
        let mut conv = elementwise_group("conv1", 16, None);
        conv.phase = Phase::Backward;
        let (out, stats) = schedule(vec![pool, conv], true);
        assert_eq!(
            stats.fusions,
            1,
            "{:?}",
            out.iter().map(|g| &g.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gemm_tiling_adjusts_offsets() {
        let gemm = Stmt::Gemm(GemmStmt {
            ta: false,
            tb: true,
            m: 64,
            n: 16,
            k: 27,
            a: "patch".into(),
            a_off: IndexExpr::zero(),
            b: "w".into(),
            b_off: IndexExpr::zero(),
            c: "val".into(),
            c_off: IndexExpr::zero(),
            tiling: Some(GemmTiling {
                dim: GemmDim::M,
                per_step: 8,
                extent: 8,
                a_step: 8 * 27,
                b_step: 0,
                c_step: 8 * 16,
            }),
        });
        let g = Group {
            name: "conv1.fwd".into(),
            ensembles: vec!["conv1".into()],
            phase: Phase::Forward,
            stmts: vec![gemm],
            barrier: false,
            meta: GroupMeta {
                dim0_extent: Some(8),
                ..GroupMeta::default()
            },
        };
        let (out, stats) = schedule(vec![g], false);
        assert_eq!(stats.groups_tiled, 1);
        let tile_loop = match &out[0].stmts[0] {
            Stmt::For(l) => l,
            other => panic!("{other:?}"),
        };
        match &tile_loop.body[0] {
            Stmt::Gemm(g) => {
                assert!(g.m < 64);
                assert!(g.c_off.uses("t"));
                assert!(g.a_off.uses("t"));
                assert!(!g.b_off.uses("t"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parallelize_marks_tile_loops() {
        let g = elementwise_group("relu1", 16, None);
        let (mut out, _) = schedule(vec![g], false);
        parallelize(&mut out);
        match &out[0].stmts[0] {
            Stmt::For(l) => assert!(l.annot.parallel),
            other => panic!("{other:?}"),
        }
    }
}
