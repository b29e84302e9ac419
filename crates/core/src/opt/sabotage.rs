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

    use crate::dsl::stdlib::{relu_neuron, weighted_neuron};
    use crate::dsl::{Ensemble, Mapping, Net};
    use crate::pass::{Pass, PassContext, PipelineState};
    use crate::program::CompileStats;
    use crate::{compile_with, CompileError, OptLevel, PassManager};
    use latte_tensor::{init, Tensor};

    /// data[8] → fc1[4] → relu: enough structure for every pipeline
    /// stage to fire.
    fn fc_net() -> Net {
        let mut net = Net::new(2);
        let data = net.add(Ensemble::data("data", vec![8]));
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

    /// Which corruption [`CorruptIrPass`] applies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Corruption {
        /// Inflate an innermost loop bound past its buffers
        /// ([`inflate_innermost_loop`]).
        BadLoopBound,
        /// Point a store at an undeclared buffer ([`dangle_first_store`]).
        DanglingBufRef,
    }

    /// A deliberately broken compiler pass, appended to a
    /// [`crate::PassManager`] by the verifier's negative tests: it corrupts
    /// the IR in place, and compilation must fail with
    /// [`crate::CompileError::Verify`] naming this pass — proof the
    /// inter-pass checker actually stands between a buggy rewrite and the
    /// runtime.
    struct CorruptIrPass(Corruption);

    impl Pass for CorruptIrPass {
        fn name(&self) -> &'static str {
            "corrupt-ir"
        }

        fn enabled(&self, _opt: &OptLevel) -> bool {
            true
        }

        fn run(&self, state: &mut PipelineState, _ctx: &PassContext<'_>, _stats: &mut CompileStats) {
            let hit = match self.0 {
                Corruption::BadLoopBound => {
                    inflate_innermost_loop(&mut state.forward)
                        || inflate_innermost_loop(&mut state.backward)
                }
                Corruption::DanglingBufRef => {
                    dangle_first_store(&mut state.forward) || dangle_first_store(&mut state.backward)
                }
            };
            assert!(hit, "program had nothing to corrupt");
        }
    }

    fn corrupted_compile(opt: OptLevel, corruption: Corruption) -> CompileError {
        let mut mgr = PassManager::standard();
        mgr.push(Box::new(CorruptIrPass(corruption)));
        compile_with(&fc_net(), &opt, &mgr.with_verify(true))
            .expect_err("corrupted IR must not compile")
    }

    #[test]
    fn verifier_rejects_inflated_loop_bound() {
        let err = corrupted_compile(OptLevel::full(), Corruption::BadLoopBound);
        let CompileError::Verify { pass, detail } = &err else {
            panic!("expected Verify error, got {err:?}");
        };
        assert_eq!(pass, "corrupt-ir");
        assert!(
            detail.contains("outside"),
            "diagnostic should pin the out-of-range reference: {detail}"
        );
    }

    #[test]
    fn verifier_rejects_dangling_buffer_ref() {
        let err = corrupted_compile(OptLevel::none(), Corruption::DanglingBufRef);
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
        // The same corrupted pipeline with verification forced off
        // "compiles" — demonstrating the verifier, not some other stage,
        // is what catches it.
        let mut mgr = PassManager::standard();
        mgr.push(Box::new(CorruptIrPass(Corruption::BadLoopBound)));
        let compiled = compile_with(&fc_net(), &OptLevel::full(), &mgr.with_verify(false));
        assert!(compiled.is_ok());
    }
}
