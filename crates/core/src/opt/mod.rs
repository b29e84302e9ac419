//! Compiler optimizations over the synthesized program: GEMM pattern
//! matching, loop tiling, cross-layer fusion, and parallelization.

mod pattern;
#[cfg(any(test, feature = "sabotage"))]
pub mod sabotage;
mod schedule;

pub(crate) use pattern::pattern_match;
pub(crate) use schedule::{fuse_chains, parallelize, tile_untiled};
