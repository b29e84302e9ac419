//! The core neuron library: the small set of neuron types the paper's
//! standard library layers are built from.
//!
//! Higher-level *layer* constructors (fully-connected, convolution,
//! pooling, LSTM, …) live in `latte-nn`; this module holds only the neuron
//! types themselves so compiler tests can use them without a circular
//! dependency.

use latte_ir::UnaryOp;

use super::neuron::{FieldLen, NeuronType};

/// The paper's `WeightedNeuron` (Figure 3): output is the dot product of
/// the inputs with a learnable weight vector, plus a learnable bias.
///
/// The forward body initializes `value` with the bias and then
/// accumulates, which leaves the multiply-accumulate loop in the exact
/// shape the GEMM pattern matcher recognizes.
pub fn weighted_neuron() -> NeuronType {
    NeuronType::builder("WeightedNeuron")
        .field_with_grad("weights", FieldLen::InputLen(0))
        .field_with_grad("bias", FieldLen::Scalar)
        .forward(|b| {
            b.assign(b.value(), b.field("bias", 0));
            b.for_each_input(0, |b, i| {
                b.accumulate(b.value(), b.input(0, i.clone()).mul(b.field("weights", i)));
            });
        })
        .backward(|b| {
            // Back-propagated gradient: ∇inputs[i] += weights[i] * ∇.
            b.for_each_input(0, |b, i| {
                b.accumulate(
                    b.grad_input(0, i.clone()),
                    b.field("weights", i).mul(b.grad_expr()),
                );
            });
            // Weight gradient: ∇weights[i] += inputs[i] * ∇.
            b.for_each_input(0, |b, i| {
                b.accumulate(
                    b.grad_field("weights", i.clone()),
                    b.grad_expr().mul(b.input(0, i)),
                );
            });
            // Bias gradient: ∇bias += ∇.
            b.accumulate(b.grad_field("bias", 0), b.grad_expr());
        })
        .build()
}

/// Rectified linear unit: `value = max(input, 0)`.
///
/// Intended for [`Ensemble::activation`](super::Ensemble::activation)
/// (in-place eligible); the backward body therefore *sets* the input
/// gradient as a pure function of `∇` and `value`.
pub fn relu_neuron() -> NeuronType {
    NeuronType::builder("ReLUNeuron")
        .forward(|b| {
            b.assign(b.value(), b.input(0, 0).max(b.lit(0.0)));
        })
        .backward(|b| {
            let g = b.grad_expr().mul(b.value_expr().unary(UnaryOp::Step));
            let dest = b.grad_input(0, 0);
            b.assign(dest, g);
        })
        .build()
}

/// Logistic sigmoid activation; backward uses `σ' = σ(1-σ)` so it stays
/// in-place safe.
pub fn sigmoid_neuron() -> NeuronType {
    NeuronType::builder("SigmoidNeuron")
        .forward(|b| {
            b.assign(b.value(), b.input(0, 0).unary(UnaryOp::Sigmoid));
        })
        .backward(|b| {
            let v = b.value_expr();
            let g = b
                .grad_expr()
                .mul(v.clone().mul(b.lit(1.0).sub(b.value_expr())));
            let dest = b.grad_input(0, 0);
            b.assign(dest, g);
        })
        .build()
}

/// Hyperbolic tangent activation; backward uses `tanh' = 1 - tanh²`.
pub fn tanh_neuron() -> NeuronType {
    NeuronType::builder("TanhNeuron")
        .forward(|b| {
            b.assign(b.value(), b.input(0, 0).unary(UnaryOp::Tanh));
        })
        .backward(|b| {
            let v2 = b.value_expr().mul(b.value_expr());
            let g = b.grad_expr().mul(b.lit(1.0).sub(v2));
            let dest = b.grad_input(0, 0);
            b.assign(dest, g);
        })
        .build()
}

/// A max neuron: output is the maximum of its inputs (max pooling).
///
/// Backward routes `∇` to the input(s) equal to the selected maximum via
/// an equality indicator. When several inputs tie for the maximum, each
/// receives the full gradient (Caffe routes to the first maximum only);
/// with continuous data, ties have measure zero.
pub fn max_neuron() -> NeuronType {
    NeuronType::builder("MaxNeuron")
        .forward(|b| {
            b.assign(b.value(), b.lit(f32::NEG_INFINITY));
            b.for_each_input(0, |b, i| {
                b.max_assign(b.value(), b.input(0, i));
            });
        })
        .backward(|b| {
            b.for_each_input(0, |b, i| {
                let routed = b
                    .grad_expr()
                    .mul(b.input(0, i.clone()).eq_indicator(b.value_expr()));
                b.accumulate(b.grad_input(0, i), routed);
            });
        })
        .build()
}

/// A mean neuron: output is the average of its inputs (mean pooling).
pub fn mean_neuron() -> NeuronType {
    NeuronType::builder("MeanNeuron")
        .forward(|b| {
            b.assign(b.value(), b.lit(0.0));
            let inv = 1.0 / b.num_inputs(0) as f32;
            b.for_each_input(0, |b, i| {
                b.accumulate(b.value(), b.input(0, i).mul(b.lit(inv)));
            });
        })
        .backward(|b| {
            let inv = 1.0 / b.num_inputs(0) as f32;
            b.for_each_input(0, |b, i| {
                b.accumulate(b.grad_input(0, i), b.grad_expr().mul(b.lit(inv)));
            });
        })
        .build()
}

/// An element-wise sum over `n_conns` one-to-one connections (the `+`
/// ensembles of the paper's LSTM example).
pub fn add_neuron(n_conns: usize) -> NeuronType {
    assert!(n_conns >= 1, "add neuron needs at least one input");
    NeuronType::builder("AddNeuron")
        .forward(move |b| {
            b.assign(b.value(), b.input(0, 0));
            for c in 1..n_conns {
                b.accumulate(b.value(), b.input(c, 0));
            }
        })
        .backward(move |b| {
            for c in 0..n_conns {
                b.accumulate(b.grad_input(c, 0), b.grad_expr());
            }
        })
        .build()
}

/// An element-wise product of two one-to-one connections (the `*`
/// ensembles of the paper's LSTM example).
pub fn mul_neuron() -> NeuronType {
    NeuronType::builder("MulNeuron")
        .forward(|b| {
            b.assign(b.value(), b.input(0, 0).mul(b.input(1, 0)));
        })
        .backward(|b| {
            b.accumulate(b.grad_input(0, 0), b.grad_expr().mul(b.input(1, 0)));
            b.accumulate(b.grad_input(1, 0), b.grad_expr().mul(b.input(0, 0)));
        })
        .build()
}

/// An identity/copy neuron (useful to materialize an ensemble boundary).
pub fn identity_neuron() -> NeuronType {
    NeuronType::builder("IdentityNeuron")
        .forward(|b| {
            b.assign(b.value(), b.input(0, 0));
        })
        .backward(|b| {
            b.accumulate(b.grad_input(0, 0), b.grad_expr());
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::neuron::BodyCtx;

    fn ctx(lens: Vec<usize>) -> BodyCtx {
        BodyCtx::new(lens)
    }

    #[test]
    fn relu_bodies_are_setters() {
        let nt = relu_neuron();
        let fwd = latte_ir::print_stmts(&nt.build_forward(&ctx(vec![1])));
        assert!(fwd.contains("$value = max($in0[0], 0)"), "{fwd}");
        let bwd = latte_ir::print_stmts(&nt.build_backward(&ctx(vec![1])));
        assert!(bwd.contains("$gin0[0] = ($grad * step($value))"), "{bwd}");
    }

    #[test]
    fn max_neuron_initializes_to_neg_inf() {
        let nt = max_neuron();
        let fwd = latte_ir::print_stmts(&nt.build_forward(&ctx(vec![4])));
        assert!(fwd.contains("$value = -inf"), "{fwd}");
        assert!(fwd.contains("$value max= $in0[i0]"), "{fwd}");
    }

    #[test]
    fn add_neuron_spans_connections() {
        let nt = add_neuron(3);
        let fwd = latte_ir::print_stmts(&nt.build_forward(&ctx(vec![1, 1, 1])));
        assert!(fwd.contains("$in1[0]") && fwd.contains("$in2[0]"), "{fwd}");
    }

    #[test]
    fn mul_neuron_product_rule() {
        let nt = mul_neuron();
        let bwd = latte_ir::print_stmts(&nt.build_backward(&ctx(vec![1, 1])));
        assert!(bwd.contains("$gin0[0] += ($grad * $in1[0])"), "{bwd}");
        assert!(bwd.contains("$gin1[0] += ($grad * $in0[0])"), "{bwd}");
    }

    #[test]
    fn mean_neuron_scales_by_count() {
        let nt = mean_neuron();
        let fwd = latte_ir::print_stmts(&nt.build_forward(&ctx(vec![4])));
        assert!(fwd.contains("* 0.25"), "{fwd}");
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn add_neuron_rejects_zero_conns() {
        add_neuron(0);
    }
}
