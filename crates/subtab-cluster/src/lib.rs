//! # subtab-cluster
//!
//! K-means clustering and centroid-representative selection, the "Selecting
//! step" machinery of the SubTab algorithm (Algorithm 2, lines 11–17) and of
//! the naive-clustering baseline.
//!
//! The crate is deliberately generic: it operates on contiguous row-major
//! point matrices ([`Matrix`] / [`MatrixView`] — one flat `f32` buffer, no
//! heap allocation per point) so that the same code clusters embedding
//! row-vectors, embedding column-vectors and one-hot-encoded rows.
//!
//! * [`matrix`] — the owned/borrowed flat point-matrix types every API
//!   consumes,
//! * [`kmeans`] — Lloyd's algorithm with k-means++ initialisation, empty
//!   cluster repair, deterministic seeding and an optional scoped-thread
//!   fan-out of the assignment step (bit-identical at any thread count),
//! * [`representative`] — mapping centroids back to *actual* data points
//!   (the sub-table must contain real rows of the table, so the row nearest
//!   to each centroid is selected, with duplicates resolved to the next
//!   nearest unused point),
//! * [`distance`] — the Euclidean distance helpers, re-exported from the
//!   shared `subtab-kernels` crate.
//!
//! All distance work runs on the point-lane kernel of `subtab-kernels`
//! ([`PointBlocks`]): a fit transposes its points once into SIMD blocks of
//! 8 or 16 points and uses them for seeding, every assignment pass, the
//! update step and — through [`select_k_representatives_threaded`] or
//! [`KMeans::fit_blocks`] + [`select_representatives_blocks`] — the
//! representative search. Every ISA tier is bit-identical to the scalar
//! twins ([`assign_points_scalar`]), which stay as the runtime fallback.

//! ```
//! use subtab_cluster::{KMeans, Matrix, select_representatives};
//!
//! let points = Matrix::new(
//!     vec![0.0, 0.0, 0.1, 0.0, 10.0, 10.0, 10.1, 9.9],
//!     2,
//! );
//! let result = KMeans::new(2, 42).fit(points.view());
//! let reps = select_representatives(points.view(), &result);
//! assert_eq!(reps.len(), 2);
//! // One representative from each blob.
//! assert_ne!(points.row(reps[0])[0] > 5.0, points.row(reps[1])[0] > 5.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod distance;
pub mod kmeans;
pub mod matrix;
pub mod representative;

pub use distance::{euclidean, squared_euclidean};
pub use kmeans::{assign_blocks, assign_points, assign_points_scalar, KMeans, KMeansResult};
pub use matrix::{Matrix, MatrixView};
pub use representative::{
    select_k_representatives, select_k_representatives_threaded, select_representatives,
    select_representatives_blocks,
};
pub use subtab_kernels::PointBlocks;
