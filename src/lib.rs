//! # fol-suite — umbrella crate for the FOL vector-processing suite
//!
//! A reproduction of Yasusi Kanada, *"A Method of Vector Processing for
//! Shared Symbolic Data"* (Supercomputing '91): the filtering-overwritten-
//! label (FOL) method and every substrate and application it is evaluated
//! on. This crate re-exports the workspace's public API under one roof and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! Start with [`vm`] (the simulated vector machine), then [`core`] (the FOL
//! algorithms), then the applications: [`hash`], [`sort`], [`tree`],
//! [`graph`], [`gc`], [`maze`], [`queens`] — and [`serve`], the batching
//! request-service layer that coalesces small independent requests into the
//! large index vectors the method wants, made crash-safe by [`persist`]
//! (durable checkpoints and a write-ahead request log) and remotable by
//! [`net`] (a CRC-framed wire protocol with exactly-once retries, seeded
//! wire-fault injection, and digest-voting replica failover). The [`simd`]
//! crate swaps real AVX2 hardware lanes in behind the machine's kernels —
//! selected per backend, differentially tested against the portable scalar
//! engine, and bit-identical to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fol_core as core;
pub use fol_gc as gc;
pub use fol_graph as graph;
pub use fol_hash as hash;
pub use fol_maze as maze;
pub use fol_net as net;
pub use fol_persist as persist;
pub use fol_queens as queens;
pub use fol_serve as serve;
pub use fol_simd as simd;
pub use fol_sort as sort;
pub use fol_tree as tree;
pub use fol_vm as vm;
