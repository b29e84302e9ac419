//! End-to-end compiler pipeline tests: synthesis → pattern matching →
//! tiling → fusion on real network fragments.

use latte_core::dsl::stdlib::{max_neuron, relu_neuron, weighted_neuron};
use latte_core::dsl::{Ensemble, Mapping, Net, NormalizationSpec, SourceRange, SourceRegion};
use latte_core::{compile, OptLevel};
use latte_tensor::{init, Tensor};

/// data[8] → fc1[4] → relu → fc2[3] → softmax loss (with label[1]).
fn mlp_net() -> Net {
    let mut net = Net::new(4);
    let data = net.add(Ensemble::data("data", vec![8]));
    let label = net.add(Ensemble::data("label", vec![1]));
    let fc1 = net.add(
        Ensemble::new("fc1", vec![4], weighted_neuron())
            .with_field("weights", vec![false], init::xavier(vec![4, 8], 8, 1))
            .with_field("bias", vec![false], Tensor::zeros(vec![4, 1]))
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    net.connect(data, fc1, Mapping::all_to_all(vec![8]));
    let relu = net.add(Ensemble::activation("relu1", vec![4], relu_neuron()));
    net.connect(fc1, relu, Mapping::one_to_one());
    let fc2 = net.add(
        Ensemble::new("fc2", vec![3], weighted_neuron())
            .with_field("weights", vec![false], init::xavier(vec![3, 4], 4, 2))
            .with_field("bias", vec![false], Tensor::zeros(vec![3, 1]))
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    net.connect(relu, fc2, Mapping::all_to_all(vec![4]));
    let loss = net.add(Ensemble::normalization(
        "loss",
        vec![1],
        NormalizationSpec::new("softmax_loss")
            .attr("classes", 3.0)
            .state("prob", vec![3])
            .loss(),
    ));
    net.connect(fc2, loss, Mapping::all_to_all(vec![3]));
    net.connect(label, loss, Mapping::all_to_all(vec![1]));
    net
}

/// data[y,x,cin] → conv(k3 s1 p1, cout) → relu → maxpool(2x2 s2).
fn conv_block_net(h: usize, w: usize, cin: usize, cout: usize) -> Net {
    let mut net = Net::new(2);
    let data = net.add(Ensemble::data("data", vec![h, w, cin]));
    let patch = 3 * 3 * cin;
    let conv = net.add(
        Ensemble::new("conv1", vec![h, w, cout], weighted_neuron())
            .with_field(
                "weights",
                vec![true, true, false],
                init::xavier(vec![cout, patch], patch, 3),
            )
            .with_field(
                "bias",
                vec![true, true, false],
                Tensor::zeros(vec![cout, 1]),
            )
            .with_param("weights", 1.0)
            .with_param("bias", 2.0),
    );
    let cin_i = cin as isize;
    net.connect(
        data,
        conv,
        Mapping::new(move |idx| {
            let y = idx[0] as isize - 1;
            let x = idx[1] as isize - 1;
            SourceRegion::new(vec![
                SourceRange::new(y, y + 3),
                SourceRange::new(x, x + 3),
                SourceRange::new(0, cin_i),
            ])
        }),
    );
    let relu = net.add(Ensemble::activation(
        "relu1",
        vec![h, w, cout],
        relu_neuron(),
    ));
    net.connect(conv, relu, Mapping::one_to_one());
    let pool = net.add(Ensemble::new(
        "pool1",
        vec![h / 2, w / 2, cout],
        max_neuron(),
    ));
    net.connect(
        relu,
        pool,
        Mapping::new(|idx| {
            let (y, x, c) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
            SourceRegion::new(vec![
                SourceRange::new(y * 2, y * 2 + 2),
                SourceRange::new(x * 2, x * 2 + 2),
                SourceRange::single(c),
            ])
        }),
    );
    net
}

#[test]
fn mlp_compiles_with_fc_gemms() {
    let net = mlp_net();
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    // Forward: fc1, relu (in-place), fc2, loss extern.
    assert_eq!(compiled.forward.len(), 4);
    // fc1/fc2 forward dot products + fc backward input/weight nests.
    assert!(
        compiled.stats.gemms_matched >= 4,
        "stats: {:?}\n{}",
        compiled.stats,
        compiled.pretty()
    );
    assert_eq!(compiled.losses, vec!["loss.value".to_string()]);
    assert_eq!(compiled.params.len(), 4);
    assert_eq!(compiled.inputs.len(), 2);
    // relu runs in place: its buffers alias fc1's.
    let relu_value = compiled.buffer("relu1.value").unwrap();
    assert_eq!(relu_value.alias_of.as_deref(), Some("fc1.value"));
    // All-to-all staging aliases the source (no copies).
    let fc1_in = compiled.buffer("fc1.in0").unwrap();
    assert_eq!(fc1_in.alias_of.as_deref(), Some("data.value"));
}

#[test]
fn mlp_without_shared_buffers_stages_copies() {
    let net = mlp_net();
    let compiled = compile(&net, &OptLevel::full().with_shared_buffers(false)).unwrap();
    let fc1_in = compiled.buffer("fc1.in0").unwrap();
    assert!(fc1_in.alias_of.is_none(), "staging must be materialized");
    let printed = compiled.pretty();
    assert!(printed.contains("copy fc1.in0"), "{printed}");
}

#[test]
fn conv_block_fuses_forward_and_backward() {
    let net = conv_block_net(16, 16, 3, 8);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    // conv+relu+pool fuse into one forward group; backward likewise.
    assert_eq!(
        compiled.stats.fusions,
        4,
        "stats: {:?}\nforward groups: {:?}\nbackward groups: {:?}",
        compiled.stats,
        compiled.forward.iter().map(|g| &g.name).collect::<Vec<_>>(),
        compiled
            .backward
            .iter()
            .map(|g| &g.name)
            .collect::<Vec<_>>(),
    );
    assert_eq!(compiled.forward.len(), 1);
    assert!(compiled.forward[0].name.contains("conv1+relu1+pool1"));
    // Conv forward + conv backward-weights matched as GEMM. The conv
    // backward-input nest is skipped entirely (data gradient unneeded).
    assert!(compiled.stats.gemms_matched >= 2, "{:?}", compiled.stats);
    // The pool tile is half the conv tile (dependence-distance scaling).
    let printed = compiled.pretty();
    assert!(printed.contains("@tiled"), "{printed}");
    // Patch staging dropped the shared output-channel dimension.
    let patch = compiled.buffer("conv1.in0").unwrap();
    assert_eq!(patch.shape.dims(), &[16, 16, 27]);
    assert!(compiled.stats.dims_dropped >= 1);
}

#[test]
fn conv_block_unoptimized_still_synthesizes() {
    let net = conv_block_net(8, 8, 3, 4);
    let compiled = compile(&net, &OptLevel::none()).unwrap();
    assert_eq!(compiled.stats.gemms_matched, 0);
    assert_eq!(compiled.stats.fusions, 0);
    assert_eq!(compiled.forward.len(), 3);
    let printed = compiled.pretty();
    // The synthesized convolution is an explicit loop nest.
    assert!(printed.contains("conv1.value[n0, n1, n2]"), "{printed}");
}

#[test]
fn optimization_levels_preserve_group_coverage() {
    // Every ensemble appears in some forward group at every opt level.
    for opt in [
        OptLevel::none(),
        OptLevel::parallel_only(),
        OptLevel::full().with_fusion(false),
        OptLevel::full(),
    ] {
        let net = conv_block_net(8, 8, 3, 4);
        let compiled = compile(&net, &opt).unwrap();
        let covered: Vec<String> = compiled
            .forward
            .iter()
            .flat_map(|g| g.ensembles.clone())
            .collect();
        for e in ["conv1", "relu1", "pool1"] {
            assert!(covered.contains(&e.to_string()), "{opt:?}: missing {e}");
        }
    }
}

#[test]
fn backward_groups_run_in_reverse_topological_order() {
    let net = mlp_net();
    let compiled = compile(&net, &OptLevel::none()).unwrap();
    let order: Vec<&str> = compiled.backward.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(order, vec!["loss.bwd", "fc2.bwd", "relu1.bwd", "fc1.bwd"]);
}

#[test]
fn normalization_groups_are_barriers() {
    let net = mlp_net();
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let loss_fwd = compiled
        .forward
        .iter()
        .find(|g| g.name == "loss.fwd")
        .unwrap();
    assert!(loss_fwd.barrier);
}

#[test]
fn conv_weights_are_shared_along_spatial_dims() {
    let net = conv_block_net(8, 8, 3, 4);
    let compiled = compile(&net, &OptLevel::full()).unwrap();
    let w = compiled.buffer("conv1.weights").unwrap();
    // SoA layout [out_channels, patch_len] — spatial dims dropped.
    assert_eq!(w.shape.dims(), &[4, 27]);
}
