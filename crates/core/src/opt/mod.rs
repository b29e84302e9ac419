//! Compiler optimizations over the synthesized program: GEMM pattern
//! matching, loop tiling, cross-layer fusion, and parallelization.

mod pattern;
#[cfg(any(test, feature = "sabotage"))]
pub mod sabotage;
mod schedule;

pub use pattern::pattern_match;
pub use schedule::{fuse_chains, parallelize, tile_untiled};
