//! Deeper scheduling scenarios: long fusion chains, mixed barriers, tile
//! scaling through repeated sub-sampling, and prime extents.

use latte_core::dsl::stdlib::{max_neuron, relu_neuron, weighted_neuron};
use latte_core::dsl::{Ensemble, Mapping, Net, NormalizationSpec, SourceRange, SourceRegion};
use latte_core::{compile, OptLevel};
use latte_ir::Stmt;
use latte_tensor::{init, Tensor};

fn conv(net: &mut Net, name: &str, input: latte_core::dsl::EnsembleId, cout: usize) {
    let dims = net.ensemble(input).dims().to_vec();
    let (h, w, cin) = (dims[0], dims[1], dims[2]);
    let patch = 9 * cin;
    let id = net.add(
        Ensemble::new(name, vec![h, w, cout], weighted_neuron())
            .with_field(
                "weights",
                vec![true, true, false],
                init::xavier(vec![cout, patch], patch, 1),
            )
            .with_field(
                "bias",
                vec![true, true, false],
                Tensor::zeros(vec![cout, 1]),
            )
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    let cin = cin as isize;
    net.connect(
        input,
        id,
        Mapping::new(move |idx| {
            let (y, x) = (idx[0] as isize - 1, idx[1] as isize - 1);
            SourceRegion::new(vec![
                SourceRange::new(y, y + 3),
                SourceRange::new(x, x + 3),
                SourceRange::new(0, cin),
            ])
        }),
    );
}

fn relu(net: &mut Net, name: &str, input: &str) {
    let src = net.find(input).unwrap();
    let dims = net.ensemble(src).dims().to_vec();
    let id = net.add(Ensemble::activation(name, dims, relu_neuron()));
    net.connect(src, id, Mapping::one_to_one());
}

fn pool2(net: &mut Net, name: &str, input: &str) {
    let src = net.find(input).unwrap();
    let dims = net.ensemble(src).dims().to_vec();
    let id = net.add(Ensemble::new(
        name,
        vec![dims[0] / 2, dims[1] / 2, dims[2]],
        max_neuron(),
    ));
    net.connect(
        src,
        id,
        Mapping::new(|idx| {
            let (y, x, c) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
            SourceRegion::new(vec![
                SourceRange::new(y * 2, y * 2 + 2),
                SourceRange::new(x * 2, x * 2 + 2),
                SourceRange::single(c),
            ])
        }),
    );
}

/// conv → relu → pool → pool: the second pooling halves again, so the
/// conv/relu tiles must be 4x the final pool tile — repeated
/// dependence-distance scaling (the paper's Figure-11 transformation
/// applied twice).
#[test]
fn repeated_subsampling_scales_tiles_twice() {
    let mut net = Net::new(1);
    let d = net.add(Ensemble::data("data", vec![16, 16, 2]));
    conv(&mut net, "conv1", d, 4);
    relu(&mut net, "relu1", "conv1");
    pool2(&mut net, "pool1", "relu1");
    pool2(&mut net, "pool2", "pool1");
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    // Everything fuses into one forward group with three merges.
    assert_eq!(compiled.forward.len(), 1, "{}", compiled.pretty());
    let g = &compiled.forward[0];
    let tile = match &g.stmts[0] {
        Stmt::For(l) => l,
        other => panic!("{other:?}"),
    };
    // Find the inner extents of each member's n0 loop: conv/relu 4x the
    // pool2 tile, pool1 2x.
    let mut inner_extents = Vec::new();
    for s in &tile.body {
        if let Stmt::For(l) = s {
            if l.var == "n0" {
                inner_extents.push(l.extent);
            }
        }
    }
    let last = *inner_extents.last().unwrap();
    assert!(
        inner_extents.first().copied().unwrap() == 4 * last,
        "conv tile 4x the final pool tile: {inner_extents:?}"
    );
}

/// A normalization ensemble in the middle splits the chain into two
/// fusable runs.
#[test]
fn barrier_splits_chain_into_two_fusions() {
    let mut net = Net::new(1);
    let d = net.add(Ensemble::data("data", vec![8, 8, 2]));
    conv(&mut net, "conv1", d, 4);
    relu(&mut net, "relu1", "conv1");
    // LRN-style barrier.
    let r = net.find("relu1").unwrap();
    let dims = net.ensemble(r).dims().to_vec();
    let n = net.add(Ensemble::normalization(
        "norm1",
        dims.clone(),
        NormalizationSpec::new("softmax"),
    ));
    net.connect(r, n, Mapping::all_to_all(dims));
    conv(&mut net, "conv2", n, 4);
    relu(&mut net, "relu2", "conv2");
    pool2(&mut net, "pool2", "relu2");
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let names: Vec<&str> = compiled.forward.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["conv1+relu1.fwd", "norm1.fwd", "conv2+relu2+pool2.fwd"],
        "{names:?}"
    );
}

/// Prime spatial extents cannot take the preferred tile sizes; the
/// scheduler falls back to tile size 1 and the program still fuses.
#[test]
fn prime_extents_tile_with_unit_tiles() {
    let mut net = Net::new(1);
    let d = net.add(Ensemble::data("data", vec![7, 7, 2]));
    conv(&mut net, "conv1", d, 3);
    relu(&mut net, "relu1", "conv1");
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    assert_eq!(compiled.stats.fusions, 2, "{}", compiled.pretty()); // fwd + bwd
    let tile = match &compiled.forward[0].stmts[0] {
        Stmt::For(l) => l,
        other => panic!("{other:?}"),
    };
    assert_eq!(tile.extent, 7);
    assert_eq!(tile.annot.tiled.unwrap().tile_size, 1);
}

/// Fusion is blocked when the intermediate has a second consumer in the
/// backward phase (gradients must be complete before the producer's
/// backward), but still happens forward.
#[test]
fn multi_consumer_blocks_backward_fusion_only() {
    use latte_core::dsl::stdlib::add_neuron;
    let mut net = Net::new(1);
    let d = net.add(Ensemble::data("data", vec![8, 8, 2]));
    conv(&mut net, "conv1", d, 4);
    relu(&mut net, "relu1", "conv1");
    // Two consumers of relu1: a pool and an elementwise sum.
    pool2(&mut net, "pool1", "relu1");
    let r = net.find("relu1").unwrap();
    let dims = net.ensemble(r).dims().to_vec();
    let sum = net.add(Ensemble::new("sum1", dims, add_neuron(1)));
    net.connect(r, sum, Mapping::one_to_one());
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    // relu1 has two consumers, so relu cannot run in place and pool's
    // backward may not fuse into relu's backward.
    let bwd_names: Vec<&str> = compiled.backward.iter().map(|g| g.name.as_str()).collect();
    assert!(
        !bwd_names.iter().any(|n| n.contains("pool1+relu1")),
        "backward fused across a multi-consumer edge: {bwd_names:?}"
    );
}
