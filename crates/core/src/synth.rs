//! Program synthesis (the paper's Section 5.3).
//!
//! For every ensemble, in topological order, synthesis produces one
//! forward [`Group`] and (in reverse order) one backward [`Group`]:
//!
//! * **data-copy tasks** — a [`CopyStmt`] gathering each sink neuron's
//!   inputs into a staging buffer (the generic analogue of im2col), with
//!   dimensions *dropped* wherever shared-variable analysis proved the
//!   inputs uniform; one-to-one and all-to-all connections skip the copy
//!   entirely and alias the source buffer ("Latte does not perform
//!   data-flow synthesis, instead relies on the runtime mapping of the
//!   input pointers");
//! * **compute nests** — each top-level statement of the neuron's
//!   forward/backward body is instantiated once per neuron by wrapping it
//!   in loops over the ensemble grid, with every array-of-structs field
//!   reference rewritten to the struct-of-arrays buffer layout;
//! * **scatter tasks** — the reverse copies accumulating staged input
//!   gradients back into the source ensemble's gradient buffer.

use std::collections::HashMap;

use latte_ir::{
    AssignOp, BufRef, BufferDecl, BufferKind, CopyStmt, ExternOp, GatherStmt, IndexExpr, Stmt,
};
use latte_tensor::Shape;

use crate::analysis::{analyze_connection, ConnAnalysis, MappingClass};
use crate::compile::OptLevel;
use crate::dsl::{body_buf, BodyCtx, Ensemble, EnsembleKind, FieldLen, Net};
use crate::error::CompileError;
use crate::names;
use crate::program::{Group, GroupMeta, InputBinding, ParamBinding, Phase, Upstream};

/// The synthesized (pre-optimization) program.
#[derive(Debug)]
pub struct Synthesized {
    /// All buffer declarations.
    pub buffers: Vec<BufferDecl>,
    /// Forward groups in topological order.
    pub forward: Vec<Group>,
    /// Backward groups in reverse topological order.
    pub backward: Vec<Group>,
    /// Learnable parameters.
    pub params: Vec<ParamBinding>,
    /// Data ensembles.
    pub inputs: Vec<InputBinding>,
    /// Loss buffers.
    pub losses: Vec<String>,
    /// Initial field-buffer contents.
    pub param_inits: Vec<(String, Vec<f32>)>,
    /// Buffers that alias other storage.
    pub aliased_buffers: usize,
    /// Staging dimensions dropped by shared-variable analysis.
    pub dims_dropped: usize,
}

/// How one connection's inputs reach the neuron bodies.
#[derive(Debug, Clone)]
enum Staging {
    /// Sink neuron `(i…)` reads `src.value[i…]` directly.
    AliasOneToOne { src: String },
    /// The staged-input buffer aliases the whole flattened source.
    AliasAllToAll { src: String },
    /// A real staging buffer filled by a synthesized copy.
    Staged {
        src: String,
        /// Indices of sink dims kept (not dropped) in the staging buffer.
        kept: Vec<usize>,
        analysis: ConnAnalysis,
    },
    /// Irregular: staged through an offset table.
    Gathered {
        src: String,
        table: std::sync::Arc<Vec<i64>>,
    },
}

struct EnsCtx<'a> {
    ens: &'a Ensemble,
    stagings: Vec<Staging>,
    analyses: Vec<ConnAnalysis>,
    /// Whether the sink needs to propagate gradients to each connection.
    grad_needed: Vec<bool>,
    /// Shape of each connection's source ensemble.
    src_dims_store: Vec<Vec<usize>>,
    /// Non-recurrent consumer count of each connection's source.
    src_consumers: Vec<usize>,
    inplace: bool,
}

/// Synthesizes the full program for a network. Of `opts`, synthesis
/// reads the two flags that change what code is generated rather than
/// how it is later rewritten: `shared_buffers` (drop staging dimensions
/// along which inputs are shared, alias all-to-all inputs to the source
/// buffer; Section 5.2) and `skip_data_grad` (compute no gradient that
/// only flows into a data ensemble). An activation ensemble always runs
/// in place over its sole source when nothing else reads that source
/// and it is not a data ensemble.
///
/// # Errors
///
/// Propagates analysis errors and reports invalid ensemble configurations
/// (missing fields, recurrent edges that were not unrolled, …).
pub fn synthesize(net: &Net, opts: &OptLevel) -> Result<Synthesized, CompileError> {
    let order = net.topo_order()?;
    let consumer_counts = net.consumer_counts();

    let mut out = Synthesized {
        buffers: Vec::new(),
        forward: Vec::new(),
        backward: Vec::new(),
        params: Vec::new(),
        inputs: Vec::new(),
        losses: Vec::new(),
        param_inits: Vec::new(),
        aliased_buffers: 0,
        dims_dropped: 0,
    };
    let mut backward_rev: Vec<Group> = Vec::new();

    for &id in &order {
        let ens = net.ensemble(id);
        let invalid = |detail: &str| CompileError::Invalid {
            ensemble: ens.name().to_string(),
            detail: detail.to_string(),
        };
        let conns = net.connections(id);
        if conns.iter().any(|c| c.recurrent) {
            return Err(invalid(
                "recurrent connections must be removed with Net::unroll before compiling",
            ));
        }

        match ens.kind() {
            EnsembleKind::Data => {
                if !conns.is_empty() {
                    return Err(invalid("data ensembles cannot have inbound connections"));
                }
                declare_value_grad(&mut out.buffers, ens, None);
                out.inputs.push(InputBinding {
                    ensemble: ens.name().to_string(),
                    buffer: names::value(ens.name()),
                    len: ens.len(),
                });
            }
            EnsembleKind::Normalization(spec) => {
                synth_normalization(net, id, ens, spec, &mut out, &mut backward_rev)?;
            }
            EnsembleKind::Concat => {
                synth_concat(net, id, ens, &mut out, &mut backward_rev)?;
            }
            EnsembleKind::Standard | EnsembleKind::Activation => {
                let neuron = ens.neuron().ok_or_else(|| invalid("missing neuron type"))?;
                // Analyze every connection.
                let mut analyses = Vec::with_capacity(conns.len());
                for (c, conn) in conns.iter().enumerate() {
                    let src = net.ensemble(conn.source);
                    analyses.push(analyze_connection(
                        &conn.mapping,
                        ens.dims(),
                        src.dims(),
                        ens.name(),
                        c,
                    )?);
                }

                // In-place activation decision.
                let is_activation = matches!(ens.kind(), EnsembleKind::Activation);
                if is_activation
                    && (conns.len() != 1 || !matches!(analyses[0].class, MappingClass::OneToOne))
                {
                    return Err(invalid(
                        "activation ensembles require exactly one one-to-one connection",
                    ));
                }
                let inplace = is_activation && {
                    let src_id = conns[0].source;
                    let src = net.ensemble(src_id);
                    consumer_counts[src_id.index()] == 1
                        && !matches!(src.kind(), EnsembleKind::Data)
                };

                // Staging decision per connection.
                let mut stagings = Vec::with_capacity(conns.len());
                let mut grad_needed = Vec::with_capacity(conns.len());
                for (c, conn) in conns.iter().enumerate() {
                    let src = net.ensemble(conn.source);
                    grad_needed
                        .push(!(matches!(src.kind(), EnsembleKind::Data) && opts.skip_data_grad));
                    let a = &analyses[c];
                    let staging = match &a.class {
                        MappingClass::OneToOne => Staging::AliasOneToOne {
                            src: src.name().to_string(),
                        },
                        MappingClass::AllToAll if opts.shared_buffers => Staging::AliasAllToAll {
                            src: src.name().to_string(),
                        },
                        MappingClass::Irregular(regions) => Staging::Gathered {
                            src: src.name().to_string(),
                            table: std::sync::Arc::new(build_gather_table(
                                ens.dims(),
                                src.dims(),
                                regions,
                            )),
                        },
                        _ => {
                            let kept: Vec<usize> = (0..ens.dims().len())
                                .filter(|&j| !(opts.shared_buffers && a.shared_sink_dims[j]))
                                .collect();
                            Staging::Staged {
                                src: src.name().to_string(),
                                kept,
                                analysis: a.clone(),
                            }
                        }
                    };
                    stagings.push(staging);
                }

                let src_dims_store: Vec<Vec<usize>> = conns
                    .iter()
                    .map(|conn| net.ensemble(conn.source).dims().to_vec())
                    .collect();
                let src_consumers: Vec<usize> = conns
                    .iter()
                    .map(|conn| consumer_counts[conn.source.index()])
                    .collect();
                let ctx = EnsCtx {
                    ens,
                    stagings,
                    analyses,
                    grad_needed,
                    src_dims_store,
                    src_consumers,
                    inplace,
                };
                synth_neuron_ensemble(&ctx, neuron, opts, &mut out, &mut backward_rev)?;
            }
        }
    }

    backward_rev.reverse();
    out.backward = backward_rev;
    Ok(out)
}

/// Declares `{ens}.value` / `{ens}.grad`, optionally aliasing a source
/// (in-place activations).
fn declare_value_grad(buffers: &mut Vec<BufferDecl>, ens: &Ensemble, alias_src: Option<&str>) {
    let dims = ens.dims().to_vec();
    match alias_src {
        Some(src) => {
            buffers.push(BufferDecl::alias(
                names::value(ens.name()),
                dims.clone(),
                BufferKind::Value,
                names::value(src),
            ));
            buffers.push(BufferDecl::alias(
                names::grad(ens.name()),
                dims,
                BufferKind::Grad,
                names::grad(src),
            ));
        }
        None => {
            buffers.push(BufferDecl::new(
                names::value(ens.name()),
                dims.clone(),
                BufferKind::Value,
            ));
            buffers.push(BufferDecl::new(
                names::grad(ens.name()),
                dims,
                BufferKind::Grad,
            ));
        }
    }
}

/// Builds the flat gather table for an irregular connection: one source
/// offset (or `-1`) per `(sink neuron, region element)` pair.
fn build_gather_table(
    sink_dims: &[usize],
    src_dims: &[usize],
    regions: &[crate::dsl::SourceRegion],
) -> Vec<i64> {
    let src_shape = Shape::new(src_dims.to_vec());
    let sink_shape = Shape::new(sink_dims.to_vec());
    let region_len: usize = regions[0].len();
    let mut table = Vec::with_capacity(sink_shape.len() * region_len);
    for idx in sink_shape.indices() {
        let region = &regions[sink_shape.offset(&idx)];
        // Row-major walk of the region.
        let extents = region.extents();
        let starts = region.starts();
        let region_shape = Shape::new(extents.clone());
        for k in region_shape.indices() {
            let mut flat: i64 = 0;
            let mut oob = false;
            for (d, (&kd, &st)) in k.iter().zip(&starts).enumerate() {
                let s = st + kd as isize;
                if s < 0 || s as usize >= src_dims[d] {
                    oob = true;
                    break;
                }
                flat += (s as usize * src_shape.strides()[d]) as i64;
            }
            table.push(if oob { -1 } else { flat });
        }
    }
    table
}

/// Synthesizes the forward/backward groups of a neuron ensemble.
fn synth_neuron_ensemble(
    ctx: &EnsCtx<'_>,
    neuron: &crate::dsl::NeuronType,
    opts: &OptLevel,
    out: &mut Synthesized,
    backward_rev: &mut Vec<Group>,
) -> Result<(), CompileError> {
    let ens = ctx.ens;
    let name = ens.name();
    let dims = ens.dims().to_vec();
    let rank = dims.len();

    // --- buffers: value/grad ---
    let inplace_src = if ctx.inplace {
        match &ctx.stagings[0] {
            Staging::AliasOneToOne { src } => Some(src.clone()),
            _ => None,
        }
    } else {
        None
    };
    declare_value_grad(&mut out.buffers, ens, inplace_src.as_deref());
    if inplace_src.is_some() {
        out.aliased_buffers += 2;
    }

    // --- buffers: staging per connection ---
    for (c, staging) in ctx.stagings.iter().enumerate() {
        match staging {
            Staging::AliasOneToOne { .. } => {}
            Staging::AliasAllToAll { src } => {
                let len = ctx.analyses[c].region_len;
                out.buffers.push(BufferDecl::alias(
                    names::input(name, c),
                    vec![len],
                    BufferKind::InputStage,
                    names::value(src),
                ));
                out.aliased_buffers += 1;
                if ctx.grad_needed[c] {
                    out.buffers.push(BufferDecl::alias(
                        names::grad_input(name, c),
                        vec![len],
                        BufferKind::InputGradStage,
                        names::grad(src),
                    ));
                    out.aliased_buffers += 1;
                }
            }
            Staging::Staged { kept, analysis, .. } => {
                let mut shape: Vec<usize> = kept.iter().map(|&j| dims[j]).collect();
                shape.push(analysis.region_len);
                out.dims_dropped += rank - kept.len();
                out.buffers.push(BufferDecl::new(
                    names::input(name, c),
                    shape.clone(),
                    BufferKind::InputStage,
                ));
                if ctx.grad_needed[c] {
                    out.buffers.push(BufferDecl::new(
                        names::grad_input(name, c),
                        shape,
                        BufferKind::InputGradStage,
                    ));
                }
            }
            Staging::Gathered { .. } => {
                let mut shape = dims.clone();
                shape.push(ctx.analyses[c].region_len);
                out.buffers.push(BufferDecl::new(
                    names::input(name, c),
                    shape.clone(),
                    BufferKind::InputStage,
                ));
                if ctx.grad_needed[c] {
                    out.buffers.push(BufferDecl::new(
                        names::grad_input(name, c),
                        shape,
                        BufferKind::InputGradStage,
                    ));
                }
            }
        }
    }

    // --- buffers: fields ---
    let mut field_shared: HashMap<String, Vec<bool>> = HashMap::new();
    for spec in neuron.fields() {
        let storage = ens.field(&spec.name).ok_or_else(|| CompileError::Invalid {
            ensemble: name.to_string(),
            detail: format!("missing storage for neuron field `{}`", spec.name),
        })?;
        let vec_len = match spec.len {
            FieldLen::Scalar => 1,
            FieldLen::InputLen(c) => {
                ctx.analyses
                    .get(c)
                    .ok_or_else(|| CompileError::Invalid {
                        ensemble: name.to_string(),
                        detail: format!("field `{}` sized by missing connection {c}", spec.name),
                    })?
                    .region_len
            }
        };
        let mut expect: Vec<usize> = dims
            .iter()
            .zip(&storage.shared_dims)
            .filter(|(_, &s)| !s)
            .map(|(&d, _)| d)
            .collect();
        expect.push(vec_len);
        if storage.init.shape().dims() != expect.as_slice() {
            return Err(CompileError::FieldShape {
                ensemble: name.to_string(),
                field: spec.name.clone(),
                detail: format!(
                    "init shape {} but SoA layout requires {:?}",
                    storage.init.shape(),
                    expect
                ),
            });
        }
        field_shared.insert(spec.name.clone(), storage.shared_dims.clone());
        match &storage.share_global {
            Some(src_ens) => {
                out.buffers.push(BufferDecl::alias(
                    names::field(name, &spec.name),
                    expect.clone(),
                    BufferKind::Param,
                    names::field(src_ens, &spec.name),
                ));
                out.aliased_buffers += 1;
                if spec.with_grad {
                    out.buffers.push(BufferDecl::alias(
                        names::grad_field(name, &spec.name),
                        expect.clone(),
                        BufferKind::ParamGrad,
                        names::grad_field(src_ens, &spec.name),
                    ));
                    out.aliased_buffers += 1;
                }
            }
            None => {
                out.buffers.push(BufferDecl::new(
                    names::field(name, &spec.name),
                    expect.clone(),
                    BufferKind::Param,
                ));
                out.param_inits.push((
                    names::field(name, &spec.name),
                    storage.init.as_slice().to_vec(),
                ));
                if spec.with_grad {
                    out.buffers.push(BufferDecl::new(
                        names::grad_field(name, &spec.name),
                        expect.clone(),
                        BufferKind::ParamGrad,
                    ));
                }
            }
        }
    }
    for p in ens.params() {
        let spec = neuron
            .fields()
            .iter()
            .find(|f| f.name == p.field)
            .ok_or_else(|| CompileError::Invalid {
                ensemble: name.to_string(),
                detail: format!("param references missing field `{}`", p.field),
            })?;
        if !spec.with_grad {
            return Err(CompileError::Invalid {
                ensemble: name.to_string(),
                detail: format!("param field `{}` lacks a gradient buffer", p.field),
            });
        }
        // Shared (aliased) parameters are updated through their owner.
        if ens
            .field(&p.field)
            .and_then(|f| f.share_global.as_ref())
            .is_none()
        {
            out.params.push(ParamBinding {
                value: names::field(name, &p.field),
                grad: names::grad_field(name, &p.field),
                lr_mult: p.lr_mult,
            });
        }
    }

    // --- body instantiation context ---
    let input_lens: Vec<usize> = ctx.analyses.iter().map(|a| a.region_len).collect();
    let body_ctx = BodyCtx::new(input_lens);

    // --- forward group ---
    let mut fwd_stmts: Vec<Stmt> = Vec::new();
    for (c, staging) in ctx.stagings.iter().enumerate() {
        if let Some(stmt) = copy_stmt_for(ctx, c, staging, false) {
            fwd_stmts.push(stmt);
        }
    }
    for body_stmt in neuron.build_forward(&body_ctx) {
        fwd_stmts.push(instantiate(ctx, &body_stmt, &field_shared));
    }
    let meta = group_meta(ctx);
    out.forward.push(Group {
        name: format!("{name}.fwd"),
        ensembles: vec![name.to_string()],
        phase: Phase::Forward,
        stmts: fwd_stmts,
        barrier: false,
        meta: meta.clone(),
    });

    // --- backward group ---
    let mut bwd_stmts: Vec<Stmt> = Vec::new();
    for body_stmt in neuron.build_backward(&body_ctx) {
        let nest = instantiate(ctx, &body_stmt, &field_shared);
        if opts.skip_data_grad && nest_only_feeds_skipped_grads(ctx, &nest) {
            continue;
        }
        bwd_stmts.push(nest);
    }
    for (c, staging) in ctx.stagings.iter().enumerate() {
        if !ctx.grad_needed[c] {
            continue;
        }
        if let Some(stmt) = copy_stmt_for(ctx, c, staging, true) {
            bwd_stmts.push(stmt);
        }
    }
    if !bwd_stmts.is_empty() {
        backward_rev.push(Group {
            name: format!("{name}.bwd"),
            ensembles: vec![name.to_string()],
            phase: Phase::Backward,
            stmts: bwd_stmts,
            barrier: false,
            meta,
        });
    }
    Ok(())
}

/// Builds the data-copy (or gather) statement for one connection, in the
/// given direction. Returns `None` for aliased connections.
fn copy_stmt_for(ctx: &EnsCtx<'_>, c: usize, staging: &Staging, backward: bool) -> Option<Stmt> {
    let name = ctx.ens.name();
    match staging {
        Staging::AliasOneToOne { .. } | Staging::AliasAllToAll { .. } => None,
        Staging::Staged {
            src,
            kept,
            analysis,
        } => {
            let dims = ctx.ens.dims();
            let affine = match &analysis.class {
                MappingClass::Affine(a) => a,
                // `Staged` is only built for affine (or all-to-all with
                // sharing disabled, which is also affine with zero coefs).
                MappingClass::AllToAll => {
                    // Treat as affine with zero coefficients.
                    return Some(Stmt::Copy(full_copy(ctx, c, src, kept, analysis, backward)));
                }
                _ => unreachable!("staged staging implies affine class"),
            };
            let k = kept.len();
            let src_rank = affine.offsets.len();
            let mut dest_shape: Vec<usize> = kept.iter().map(|&j| dims[j]).collect();
            dest_shape.extend(analysis.extents.iter().copied());
            let mut map = Vec::with_capacity(src_rank);
            for d in 0..src_rank {
                let mut ix = IndexExpr::constant(affine.offsets[d]);
                for (pos, &j) in kept.iter().enumerate() {
                    let coef = affine.coefs[d][j];
                    if coef != 0 {
                        ix = ix + IndexExpr::var(CopyStmt::dim_var(pos)).scaled(coef);
                    }
                }
                ix = ix + IndexExpr::var(CopyStmt::dim_var(k + d));
                map.push(ix);
            }
            let (dest, src_buf) = if backward {
                (names::grad_input(name, c), names::grad(src))
            } else {
                (names::input(name, c), names::value(src))
            };
            Some(Stmt::Copy(CopyStmt {
                dest,
                extents: dest_shape.clone(),
                offsets: vec![IndexExpr::zero(); dest_shape.len()],
                dest_shape,
                src: src_buf,
                src_shape: src_shape_of(ctx, c),
                map,
                scatter: backward,
            }))
        }
        Staging::Gathered { src, table } => {
            let (dest, src_buf) = if backward {
                (names::grad_input(name, c), names::grad(src))
            } else {
                (names::input(name, c), names::value(src))
            };
            Some(Stmt::Gather(GatherStmt {
                dest,
                dest_len: ctx.ens.len() * ctx.analyses[c].region_len,
                src: src_buf,
                table: table.clone(),
                scatter: backward,
            }))
        }
    }
}

/// All-to-all copy with buffer sharing disabled: every sink neuron gets
/// its own copy of the whole source (the naive duplicated staging the
/// shared-variable optimization eliminates).
fn full_copy(
    ctx: &EnsCtx<'_>,
    c: usize,
    src: &str,
    kept: &[usize],
    analysis: &ConnAnalysis,
    backward: bool,
) -> CopyStmt {
    let name = ctx.ens.name();
    let dims = ctx.ens.dims();
    let k = kept.len();
    let src_rank = analysis.extents.len();
    let mut dest_shape: Vec<usize> = kept.iter().map(|&j| dims[j]).collect();
    dest_shape.extend(analysis.extents.iter().copied());
    let map = (0..src_rank)
        .map(|d| IndexExpr::var(CopyStmt::dim_var(k + d)))
        .collect();
    let (dest, src_buf) = if backward {
        (names::grad_input(name, c), names::grad(src))
    } else {
        (names::input(name, c), names::value(src))
    };
    CopyStmt {
        dest,
        extents: dest_shape.clone(),
        offsets: vec![IndexExpr::zero(); dest_shape.len()],
        dest_shape,
        src: src_buf,
        src_shape: src_shape_of(ctx, c),
        map,
        scatter: backward,
    }
}

fn src_shape_of(ctx: &EnsCtx<'_>, c: usize) -> Vec<usize> {
    ctx.src_dims_store[c].clone()
}

/// The group metadata used by tiling and fusion.
fn group_meta(ctx: &EnsCtx<'_>) -> GroupMeta {
    let dims = ctx.ens.dims();
    let rank = dims.len();
    let tileable = rank >= 2
        && ctx.stagings.iter().all(|s| match s {
            Staging::AliasOneToOne { .. } | Staging::AliasAllToAll { .. } => true,
            Staging::Staged { kept, .. } => kept.first() == Some(&0),
            Staging::Gathered { .. } => false,
        });
    let upstream = if ctx.analyses.len() == 1 {
        ctx.analyses[0]
            .dim0_consumption()
            .map(|(stride, halo)| Upstream {
                ensemble: match &ctx.stagings[0] {
                    Staging::AliasOneToOne { src }
                    | Staging::AliasAllToAll { src }
                    | Staging::Staged { src, .. }
                    | Staging::Gathered { src, .. } => src.clone(),
                },
                stride,
                halo,
                sole_consumer: ctx.src_consumers[0] == 1,
            })
    } else {
        None
    };
    GroupMeta {
        dim0_extent: if tileable { Some(dims[0]) } else { None },
        upstream,
    }
}

/// Whether a backward nest writes only gradients that are being skipped.
fn nest_only_feeds_skipped_grads(ctx: &EnsCtx<'_>, nest: &Stmt) -> bool {
    let mut skipped: Vec<String> = Vec::new();
    for (c, &needed) in ctx.grad_needed.iter().enumerate() {
        if !needed {
            skipped.push(names::grad_input(ctx.ens.name(), c));
            if let Staging::AliasOneToOne { src } | Staging::AliasAllToAll { src } =
                &ctx.stagings[c]
            {
                skipped.push(names::grad(src));
            }
        }
    }
    if skipped.is_empty() {
        return false;
    }
    let written = nest.written_buffers();
    !written.is_empty() && written.iter().all(|w| skipped.contains(w))
}

/// Instantiates one top-level body statement for the whole ensemble:
/// wraps it in loops over the neuron grid and rewrites every canonical
/// buffer reference to the SoA layout (the paper's AoS→SoA pass).
fn instantiate(
    ctx: &EnsCtx<'_>,
    body_stmt: &Stmt,
    field_shared: &HashMap<String, Vec<bool>>,
) -> Stmt {
    let dims = ctx.ens.dims();
    let rank = dims.len();
    let nvars: Vec<IndexExpr> = (0..rank).map(|d| IndexExpr::var(format!("n{d}"))).collect();

    let rewritten = rewrite_stmt(ctx, body_stmt, &nvars, field_shared);

    // Wrap innermost-out in the neuron grid loops.
    let mut stmt = rewritten;
    for d in (0..rank).rev() {
        stmt = Stmt::for_loop(format!("n{d}"), dims[d], vec![stmt]);
    }
    stmt
}

/// Recursively rewrites a body statement's buffer references.
fn rewrite_stmt(
    ctx: &EnsCtx<'_>,
    stmt: &Stmt,
    nvars: &[IndexExpr],
    field_shared: &HashMap<String, Vec<bool>>,
) -> Stmt {
    match stmt {
        Stmt::For(l) => Stmt::For(latte_ir::Loop {
            var: l.var.clone(),
            extent: l.extent,
            annot: l.annot,
            body: l
                .body
                .iter()
                .map(|s| rewrite_stmt(ctx, s, nvars, field_shared))
                .collect(),
        }),
        Stmt::Assign(a) => {
            let (dest, force_add) = rewrite_ref(ctx, &a.dest, nvars, field_shared, true);
            let value = a
                .value
                .map_loads(&mut |r| rewrite_ref(ctx, r, nvars, field_shared, false).0);
            let op = if force_add && a.op == AssignOp::Set {
                AssignOp::Add
            } else {
                a.op
            };
            Stmt::Assign(latte_ir::Assign { dest, op, value })
        }
        other => other.clone(),
    }
}

/// Rewrites one canonical buffer reference. Returns the new reference and
/// whether a `Set` store must be converted to `Add` (writes that alias a
/// shared gradient buffer with other potential writers).
fn rewrite_ref(
    ctx: &EnsCtx<'_>,
    r: &BufRef,
    nvars: &[IndexExpr],
    field_shared: &HashMap<String, Vec<bool>>,
    _is_dest: bool,
) -> (BufRef, bool) {
    let ens = ctx.ens.name();
    let b = r.buffer.as_str();
    if b == body_buf::VALUE {
        return (BufRef::new(names::value(ens), nvars.to_vec()), false);
    }
    if b == body_buf::GRAD {
        return (BufRef::new(names::grad(ens), nvars.to_vec()), false);
    }
    if let Some(c) = parse_suffix(b, "$in") {
        let idx = r.indices.first().cloned().unwrap_or_else(IndexExpr::zero);
        return (input_ref(ctx, c, idx, false), false);
    }
    if let Some(c) = parse_suffix(b, "$gin") {
        let idx = r.indices.first().cloned().unwrap_or_else(IndexExpr::zero);
        let force_add = matches!(
            &ctx.stagings[c],
            Staging::AliasOneToOne { .. } | Staging::AliasAllToAll { .. }
        ) && !ctx.inplace;
        return (input_ref(ctx, c, idx, true), force_add);
    }
    if let Some(field) = b.strip_prefix("$f_") {
        return (field_ref(ctx, field, r, nvars, field_shared, false), false);
    }
    if let Some(field) = b.strip_prefix("$gf_") {
        return (field_ref(ctx, field, r, nvars, field_shared, true), false);
    }
    // Unknown names pass through untouched (lets tests inject buffers).
    (r.clone(), false)
}

fn parse_suffix(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// Rewrites `$in{c}[idx]` / `$gin{c}[idx]`.
fn input_ref(ctx: &EnsCtx<'_>, c: usize, idx: IndexExpr, grad: bool) -> BufRef {
    let ens = ctx.ens.name();
    match &ctx.stagings[c] {
        Staging::AliasOneToOne { src } => {
            // Region length 1: the staged input *is* the source element at
            // the neuron's own position.
            let name = if grad {
                if ctx.inplace {
                    names::grad(ens)
                } else {
                    names::grad(src)
                }
            } else if ctx.inplace {
                names::value(ens)
            } else {
                names::value(src)
            };
            let nvars: Vec<IndexExpr> = (0..ctx.ens.dims().len())
                .map(|d| IndexExpr::var(format!("n{d}")))
                .collect();
            BufRef::new(name, nvars)
        }
        Staging::AliasAllToAll { .. } => {
            let name = if grad {
                names::grad_input(ens, c)
            } else {
                names::input(ens, c)
            };
            BufRef::new(name, vec![idx])
        }
        Staging::Staged { kept, .. } => {
            let name = if grad {
                names::grad_input(ens, c)
            } else {
                names::input(ens, c)
            };
            let mut indices: Vec<IndexExpr> = kept
                .iter()
                .map(|&j| IndexExpr::var(format!("n{j}")))
                .collect();
            indices.push(idx);
            BufRef::new(name, indices)
        }
        Staging::Gathered { .. } => {
            let name = if grad {
                names::grad_input(ens, c)
            } else {
                names::input(ens, c)
            };
            let mut indices: Vec<IndexExpr> = (0..ctx.ens.dims().len())
                .map(|d| IndexExpr::var(format!("n{d}")))
                .collect();
            indices.push(idx);
            BufRef::new(name, indices)
        }
    }
}

/// Rewrites `$f_{field}[idx]` / `$gf_{field}[idx]`.
fn field_ref(
    ctx: &EnsCtx<'_>,
    fieldname: &str,
    r: &BufRef,
    _nvars: &[IndexExpr],
    field_shared: &HashMap<String, Vec<bool>>,
    grad: bool,
) -> BufRef {
    let ens = ctx.ens.name();
    let shared = field_shared
        .get(fieldname)
        .unwrap_or_else(|| panic!("body references undeclared field `{fieldname}`"));
    let mut indices: Vec<IndexExpr> = shared
        .iter()
        .enumerate()
        .filter(|(_, &s)| !s)
        .map(|(j, _)| IndexExpr::var(format!("n{j}")))
        .collect();
    indices.push(r.indices.first().cloned().unwrap_or_else(IndexExpr::zero));
    let name = if grad {
        names::grad_field(ens, fieldname)
    } else {
        names::field(ens, fieldname)
    };
    BufRef::new(name, indices)
}

/// Synthesizes a concatenation ensemble: one copy per source into its
/// slice along the innermost dimension, and the reverse scatter for
/// gradients. Concat groups are tileable along dimension 0 but never name
/// an upstream (multiple producers), so they do not fuse.
fn synth_concat(
    net: &Net,
    id: crate::dsl::EnsembleId,
    ens: &Ensemble,
    out: &mut Synthesized,
    backward_rev: &mut Vec<Group>,
) -> Result<(), CompileError> {
    let name = ens.name();
    let dims = ens.dims().to_vec();
    let rank = dims.len();
    let conns = net.connections(id);
    let invalid = |detail: String| CompileError::Invalid {
        ensemble: name.to_string(),
        detail,
    };
    if conns.is_empty() {
        return Err(invalid("concat needs at least one connection".into()));
    }
    let mut offset = 0usize;
    let mut fwd_stmts = Vec::new();
    let mut bwd_stmts = Vec::new();
    for conn in conns {
        let src = net.ensemble(conn.source);
        let sdims = src.dims();
        if sdims.len() != rank || sdims[..rank - 1] != dims[..rank - 1] {
            return Err(invalid(format!(
                "source `{}` has shape {:?}, expected {:?} except the last dimension",
                src.name(),
                sdims,
                &dims[..rank - 1]
            )));
        }
        // Global dest index g: slice offset only on the last dim; source
        // index = g with the last dim rebased.
        let mut offsets = vec![IndexExpr::zero(); rank];
        offsets[rank - 1] = IndexExpr::constant(offset as i64);
        let mut extents = sdims.to_vec();
        extents[rank - 1] = sdims[rank - 1];
        let map: Vec<IndexExpr> = (0..rank)
            .map(|d| {
                let v = IndexExpr::var(CopyStmt::dim_var(d));
                if d == rank - 1 {
                    v + (-(offset as i64))
                } else {
                    v
                }
            })
            .collect();
        fwd_stmts.push(Stmt::Copy(CopyStmt {
            dest: names::value(name),
            dest_shape: dims.clone(),
            extents: extents.clone(),
            offsets: offsets.clone(),
            src: names::value(src.name()),
            src_shape: sdims.to_vec(),
            map: map.clone(),
            scatter: false,
        }));
        if !matches!(src.kind(), EnsembleKind::Data) {
            bwd_stmts.push(Stmt::Copy(CopyStmt {
                dest: names::grad(name),
                dest_shape: dims.clone(),
                extents,
                offsets,
                src: names::grad(src.name()),
                src_shape: sdims.to_vec(),
                map,
                scatter: true,
            }));
        }
        offset += sdims[rank - 1];
    }
    if offset != dims[rank - 1] {
        return Err(invalid(format!(
            "source last dimensions sum to {offset}, ensemble declares {}",
            dims[rank - 1]
        )));
    }
    declare_value_grad(&mut out.buffers, ens, None);
    let meta = GroupMeta {
        dim0_extent: if rank >= 2 { Some(dims[0]) } else { None },
        upstream: None,
    };
    out.forward.push(Group {
        name: format!("{name}.fwd"),
        ensembles: vec![name.to_string()],
        phase: Phase::Forward,
        stmts: fwd_stmts,
        barrier: false,
        meta: meta.clone(),
    });
    if !bwd_stmts.is_empty() {
        backward_rev.push(Group {
            name: format!("{name}.bwd"),
            ensembles: vec![name.to_string()],
            phase: Phase::Backward,
            stmts: bwd_stmts,
            barrier: false,
            meta,
        });
    }
    Ok(())
}

/// Synthesizes a normalization ensemble: extern kernels with barriers.
fn synth_normalization(
    net: &Net,
    id: crate::dsl::EnsembleId,
    ens: &Ensemble,
    spec: &crate::dsl::NormalizationSpec,
    out: &mut Synthesized,
    backward_rev: &mut Vec<Group>,
) -> Result<(), CompileError> {
    let name = ens.name();
    let conns = net.connections(id);
    if conns.is_empty() {
        return Err(CompileError::Invalid {
            ensemble: name.to_string(),
            detail: "normalization ensemble needs at least one connection".to_string(),
        });
    }
    declare_value_grad(&mut out.buffers, ens, None);
    for (suffix, shape, shared) in &spec.state {
        out.buffers.push(BufferDecl::new(
            names::state(name, suffix),
            shape.clone(),
            if *shared {
                BufferKind::SharedState
            } else {
                BufferKind::State
            },
        ));
    }
    let src_values: Vec<String> = conns
        .iter()
        .map(|c| names::value(net.ensemble(c.source).name()))
        .collect();
    let src_grads: Vec<String> = conns
        .iter()
        .map(|c| names::grad(net.ensemble(c.source).name()))
        .collect();
    let states: Vec<String> = spec
        .state
        .iter()
        .map(|(suffix, _, _)| names::state(name, suffix))
        .collect();

    let mut fwd_bufs = src_values.clone();
    fwd_bufs.push(names::value(name));
    fwd_bufs.extend(states.iter().cloned());
    let meta = GroupMeta::default();
    out.forward.push(Group {
        name: format!("{name}.fwd"),
        ensembles: vec![name.to_string()],
        phase: Phase::Forward,
        stmts: vec![Stmt::Extern(ExternOp {
            op: format!("{}_forward", spec.op),
            buffers: fwd_bufs,
            attrs: spec.attrs.clone(),
        })],
        barrier: true,
        meta: meta.clone(),
    });

    let mut bwd_bufs = src_values;
    bwd_bufs.push(names::value(name));
    bwd_bufs.push(names::grad(name));
    bwd_bufs.extend(src_grads);
    bwd_bufs.extend(states);
    backward_rev.push(Group {
        name: format!("{name}.bwd"),
        ensembles: vec![name.to_string()],
        phase: Phase::Backward,
        stmts: vec![Stmt::Extern(ExternOp {
            op: format!("{}_backward", spec.op),
            buffers: bwd_bufs,
            attrs: spec.attrs.clone(),
        })],
        barrier: true,
        meta,
    });
    if spec.loss {
        out.losses.push(names::value(name));
    }
    Ok(())
}
