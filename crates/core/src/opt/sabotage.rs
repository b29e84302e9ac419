//! Deliberately broken compiler transformations, for harness self-tests.
//!
//! A correctness harness that has never caught a bug proves nothing. The
//! mutations here simulate the two classic ways an optimization pass goes
//! wrong — a loop bound miscomputed during tiling, and a reduction extent
//! dropped during GEMM pattern matching — so the `latte-oracle`
//! differential harness can demonstrate that it *does* flag a
//! miscompiled program (see its `sabotage_is_caught` tests).
//!
//! Gated behind the `sabotage` cargo feature (and `cfg(test)`): these
//! functions mutate a compiled program into one that silently computes
//! wrong answers, which is exactly what must never ship.

use latte_ir::Stmt;

use crate::program::Group;

/// Shrinks the extent of the first tiled loop with extent > 1 by one,
/// simulating an off-by-one in tile-count computation. Returns whether a
/// loop was mutated.
pub fn shrink_first_tiled_loop(groups: &mut [Group]) -> bool {
    fn walk(stmts: &mut [Stmt]) -> bool {
        for s in stmts {
            if let Stmt::For(l) = s {
                if l.annot.tiled.is_some() && l.extent > 1 {
                    l.extent -= 1;
                    return true;
                }
                if walk(&mut l.body) {
                    return true;
                }
            }
        }
        false
    }
    groups.iter_mut().any(|g| walk(&mut g.stmts))
}

/// Shrinks the reduction depth `k` of the first matched GEMM with `k > 1`
/// by one, simulating a dropped fusion/pattern-match guard that loses the
/// last accumulation term. Returns whether a GEMM was mutated.
pub fn shrink_gemm_reduction(groups: &mut [Group]) -> bool {
    fn walk(stmts: &mut [Stmt]) -> bool {
        for s in stmts {
            // collapsible_match suggests a pattern guard, but guards
            // cannot take the &mut borrow `walk` needs.
            #[allow(clippy::collapsible_match)]
            match s {
                Stmt::Gemm(g) if g.k > 1 => {
                    g.k -= 1;
                    return true;
                }
                Stmt::For(l) => {
                    if walk(&mut l.body) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }
    groups.iter_mut().any(|g| walk(&mut g.stmts))
}

/// Shrinks the extent of the first loop (tiled or not) with extent > 1,
/// for programs compiled without tiling. Returns whether a loop was
/// mutated.
pub fn shrink_first_loop(groups: &mut [Group]) -> bool {
    fn walk(stmts: &mut [Stmt]) -> bool {
        for s in stmts {
            if let Stmt::For(l) = s {
                if l.extent > 1 {
                    l.extent -= 1;
                    return true;
                }
                if walk(&mut l.body) {
                    return true;
                }
            }
        }
        false
    }
    groups.iter_mut().any(|g| walk(&mut g.stmts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_ir::{Loop, LoopAnnot, Stmt, TileInfo};

    fn group_with(stmts: Vec<Stmt>) -> Group {
        Group {
            name: "g".into(),
            ensembles: Vec::new(),
            phase: crate::program::Phase::Forward,
            stmts,
            barrier: false,
            meta: Default::default(),
        }
    }

    fn tiled_loop(extent: usize) -> Stmt {
        Stmt::For(Loop {
            var: "i".into(),
            extent,
            annot: LoopAnnot {
                tiled: Some(TileInfo { tile_size: 2, dep_distance: 0 }),
                ..Default::default()
            },
            body: Vec::new(),
        })
    }

    #[test]
    fn shrinks_only_the_first_tiled_loop() {
        let mut groups = vec![group_with(vec![
            Stmt::For(Loop {
                var: "o".into(),
                extent: 4,
                annot: LoopAnnot::default(),
                body: vec![tiled_loop(3), tiled_loop(5)],
            }),
        ])];
        assert!(shrink_first_tiled_loop(&mut groups));
        let Stmt::For(outer) = &groups[0].stmts[0] else { unreachable!() };
        assert_eq!(outer.extent, 4, "untiled outer loop must stay intact");
        let Stmt::For(first) = &outer.body[0] else { unreachable!() };
        let Stmt::For(second) = &outer.body[1] else { unreachable!() };
        assert_eq!((first.extent, second.extent), (2, 5));
    }

    #[test]
    fn reports_when_nothing_is_mutable() {
        let mut groups = vec![group_with(vec![tiled_loop(1)])];
        assert!(!shrink_first_tiled_loop(&mut groups));
        assert!(!shrink_gemm_reduction(&mut groups));
    }

    use crate::compile::{rewrite, Stages};
    use crate::dsl::stdlib::{relu_neuron, weighted_neuron};
    use crate::dsl::{Ensemble, Mapping, Net, SourceRange, SourceRegion};
    use crate::synth::synthesize;
    use crate::{CompileError, OptLevel};
    use latte_tensor::{init, Tensor};

    /// A 3×3 convolution over data[8, 8, 2] into conv1[8, 8, 4], then an
    /// in-place relu: at `OptLevel::full()` every rewrite fires (two GEMMs
    /// matched, conv1 and relu1 fused, the fused groups tiled and marked
    /// parallel), so a corruption lands in fully rewritten IR.
    fn conv_net() -> Net {
        let mut net = Net::new(2);
        let data = net.add(Ensemble::data("data", vec![8, 8, 2]));
        let conv1 = net.add(
            Ensemble::new("conv1", vec![8, 8, 4], weighted_neuron())
                .with_field(
                    "weights",
                    vec![true, true, false],
                    init::xavier(vec![4, 18], 18, 1),
                )
                .with_field("bias", vec![true, true, false], Tensor::zeros(vec![4, 1]))
                .with_param("weights", 1.0)
                .with_param("bias", 2.0),
        );
        net.connect(
            data,
            conv1,
            Mapping::new(|idx| {
                let (y, x) = (idx[0] as isize - 1, idx[1] as isize - 1);
                SourceRegion::new(vec![
                    SourceRange::new(y, y + 3),
                    SourceRange::new(x, x + 3),
                    SourceRange::new(0, 2),
                ])
            }),
        );
        let relu = net.add(Ensemble::activation("relu1", vec![8, 8, 4], relu_neuron()));
        net.connect(conv1, relu, Mapping::one_to_one());
        net
    }

    /// Inflates the extent of the first innermost loop (one with no nested
    /// loop in its body) far past any plausible buffer size, simulating a
    /// bound miscomputed *upward* — the failure the differential harness
    /// cannot see (the program would fault or read garbage before producing
    /// comparable numbers) but the IR verifier rejects statically: buffer
    /// references indexed by that loop now range outside their declarations.
    /// Returns whether a loop was mutated.
    fn inflate_innermost_loop(groups: &mut [Group]) -> bool {
        fn walk(stmts: &mut [Stmt]) -> bool {
            for s in stmts {
                if let Stmt::For(l) = s {
                    if walk(&mut l.body) {
                        return true;
                    }
                    if !l.body.is_empty() {
                        l.extent += 1 << 20;
                        return true;
                    }
                }
            }
            false
        }
        groups.iter_mut().any(|g| walk(&mut g.stmts))
    }

    /// Redirects the destination of the first scalar assignment to a buffer
    /// no declaration provides — a dangling reference, as left behind by a
    /// rewrite that renamed a buffer but missed a use. Returns whether a
    /// store was mutated.
    fn dangle_first_store(groups: &mut [Group]) -> bool {
        fn walk(stmts: &mut [Stmt]) -> bool {
            for s in stmts {
                match s {
                    Stmt::Assign(a) => {
                        a.dest.buffer = "__sabotaged_dangling".into();
                        return true;
                    }
                    // Not a guard: guards cannot borrow the binding mutably.
                    #[allow(clippy::collapsible_match)]
                    Stmt::For(l) => {
                        if walk(&mut l.body) {
                            return true;
                        }
                    }
                    _ => {}
                }
            }
            false
        }
        groups.iter_mut().any(|g| walk(&mut g.stmts))
    }

    /// Compiles `conv_net` at `opt` as [`crate::compile`] does (synthesis,
    /// then every rewrite `opt` enables), then runs `corrupt` over the
    /// rewritten program as one more stage through the same helper, with
    /// the IR verifier on or off: with it on, compilation must fail with
    /// [`CompileError::Verify`] naming that stage — proof the checker
    /// stands between a buggy rewrite and the runtime.
    fn corrupted_compile(
        opt: OptLevel,
        verify: bool,
        corrupt: fn(&mut [Group]) -> bool,
    ) -> Result<(), CompileError> {
        let s = synthesize(&conv_net(), &opt)?;
        let mut st = Stages::new(
            &s.buffers,
            s.forward,
            s.backward,
            Default::default(),
            verify,
        )?;
        rewrite(&mut st, &opt)?;
        let mut hit = false;
        st.stage("corrupt-ir", true, |groups, _| hit = hit || corrupt(groups))?;
        assert!(hit, "program had nothing to corrupt");
        Ok(())
    }

    #[test]
    fn verifier_rejects_inflated_loop_bound() {
        let err = corrupted_compile(OptLevel::full(), true, inflate_innermost_loop)
            .expect_err("corrupted IR must not compile");
        let CompileError::Verify { pass, detail } = &err else {
            panic!("expected Verify error, got {err:?}");
        };
        assert_eq!(pass, "corrupt-ir");
        assert!(
            detail.contains("outside"),
            "diagnostic should pin the out-of-range reference: {detail}"
        );
        // The corrupted loop sits inside the tile loop `t`, which only
        // tiling introduces: the rewrites ran before the corruption.
        assert!(
            detail.contains("/ for t /"),
            "corruption should hit tiled IR: {detail}"
        );
    }

    #[test]
    fn verifier_rejects_dangling_buffer_ref() {
        let err = corrupted_compile(OptLevel::none(), true, dangle_first_store)
            .expect_err("corrupted IR must not compile");
        let CompileError::Verify { pass, detail } = &err else {
            panic!("expected Verify error, got {err:?}");
        };
        assert_eq!(pass, "corrupt-ir");
        assert!(
            detail.contains("undeclared buffer `__sabotaged_dangling`"),
            "diagnostic should name the dangling buffer: {detail}"
        );
    }

    #[test]
    fn verifier_off_lets_corruption_through() {
        // The same corruptions with verification off "compile" —
        // demonstrating the verifier, not some other stage, is what
        // catches them.
        assert!(corrupted_compile(OptLevel::full(), false, inflate_innermost_loop).is_ok());
        assert!(corrupted_compile(OptLevel::none(), false, dangle_first_store).is_ok());
    }
}
