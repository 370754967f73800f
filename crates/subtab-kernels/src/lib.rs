//! Shared SIMD kernel layer: runtime-dispatched vector kernels with pinned
//! scalar twins.
//!
//! Every hot inner loop of the workspace that benefits from SIMD lives here:
//! the point-lane k-means kernel ([`PointBlocks`]: k-means++ seeding
//! distances, the assignment argmin, the update step's accumulation and the
//! representative search in `subtab-cluster`), and columnar predicate scans
//! that compare a typed value plane against a constant and emit `u64`
//! bitmap words directly (the compiled query leaves in `subtab-core`). The
//! feature-detection and FMA helpers that used to be trapped inside
//! `subtab-embed`'s SGNS trainer are exported from [`dispatch`] so every
//! consumer shares one dispatch story.
//!
//! # Dispatch tiers
//!
//! Kernels pick an ISA tier at runtime — AVX-512F, AVX2+FMA, or the
//! portable scalar fallback — via [`dispatch::detect`]. Setting the
//! environment variable `SUBTAB_FORCE_SCALAR_KERNELS` (to anything but `0`
//! or the empty string) before the first kernel call pins every default
//! dispatch to the scalar tier, which is how CI exercises both sides of the
//! equivalence suites on machines regardless of their CPU flags. Explicit
//! `*_with_isa` entry points bypass the default dispatch so tests can
//! compare tiers directly.
//!
//! # Bit-compatibility contract
//!
//! The vector kernels are *bit-identical* to their scalar twins, not merely
//! close:
//!
//! - Predicate scans are exact boolean functions of each row (IEEE compares
//!   plus the sign-flipped integer total-order key for `f64::total_cmp`
//!   semantics), so every tier produces the same words by construction.
//! - The k-means kernel vectorises *across points*: the point set is
//!   transposed once into blocks of 8 (AVX2) or 16 (AVX-512) points stored
//!   `block[d][lane]`, and each lane accumulates its own point's distance
//!   with separate subtract, multiply and add instructions in element order —
//!   exactly the operation sequence of [`squared_euclidean`], with no
//!   reassociation and no fused multiply-add (an FMA skips the intermediate
//!   rounding and changes the low bits). Several centroids (or blocks) are
//!   evaluated at once with independent accumulators, which hides the add
//!   latency without changing any lane's order. Argmin comparisons run in
//!   centroid order with a strict `<`, so ties keep the earlier centroid on
//!   every tier, exactly like [`nearest_centroid_scalar`].

pub mod aligned;
pub mod dequant;
pub mod dispatch;
pub mod distance;
pub mod scan;

pub use aligned::AlignedBuf;
pub use dequant::{
    add_assign_f16, add_assign_f16_with_isa, add_assign_i8, add_assign_i8_with_isa, f16_to_f32,
    f32_to_f16,
};
pub use dispatch::{detect, fma_select, has_avx2_fma, has_avx512f, Isa};
pub use distance::{euclidean, nearest_centroid_scalar, squared_euclidean, PointBlocks};
pub use scan::{
    scan_bools, scan_bools_masked, scan_codes, scan_codes_masked, scan_codes_with_isa, scan_f64,
    scan_f64_masked, scan_f64_with_isa, scan_i64, scan_i64_masked, scan_i64_with_isa, CmpOp,
    NumericScan,
};
