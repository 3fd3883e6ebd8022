#![warn(missing_docs)]
//! Computational-geometry substrate for Interactive Search with
//! Reinforcement Learning (ICDE 2025).
//!
//! The interactive regret query reasons about the user's unknown utility
//! vector geometrically: every answered question carves a half-space out of
//! the utility simplex. This crate provides the full toolkit that picture
//! requires:
//!
//! * [`hyperplane`] — half-spaces through the origin (Lemma 1 of the paper)
//!   and their ε-relaxed variants (Lemma 4);
//! * [`region`] — the utility range `R` as an implicit half-space
//!   intersection with LP-backed queries (algorithm AA's substrate);
//! * [`polytope`] — explicit vertex enumeration, representative selection,
//!   and the outer sphere (algorithm EA's substrate);
//! * [`region_geometry`] — the region bundled with its incrementally
//!   updated vertex set, the per-episode state both agents carry;
//! * [`lp`] — a dense two-phase simplex solver sized for `d + 1` variables;
//! * [`sphere`] / [`rectangle`] — the state-encoding shapes;
//! * [`sampling`] — simplex and region sampling (Lemma 5);
//! * [`walk`] — the incrementally-maintained hit-and-run sample cloud
//!   behind the sampled geometry backend (EA at `d ≥ 20`);
//! * [`hull`] — dominance and a planar convex hull for the baselines;
//! * [`top1_mirror`] — the certified convex-skyline mirror that
//!   `Dataset::top1_batch` scans instead of every point.
//!
//! ```
//! use isrl_geometry::{Halfspace, Polytope, Region};
//!
//! // The user prefers (0.9, 0.2) over (0.3, 0.8): learn the half-space.
//! let mut region = Region::full(2);
//! region.add(Halfspace::preferring(&[0.9, 0.2], &[0.3, 0.8]).unwrap());
//!
//! // AA's view: LP summaries without materializing the polyhedron.
//! let sphere = region.inner_sphere().unwrap();
//! let rect = region.outer_rectangle().unwrap();
//! assert!(sphere.radius() > 0.0);
//! assert!(rect.diagonal() < Region::full(2).outer_rectangle().unwrap().diagonal());
//!
//! // EA's view: explicit extreme utility vectors.
//! let polytope = Polytope::from_region(&region).unwrap();
//! assert_eq!(polytope.n_vertices(), 2); // a segment of the 1-simplex
//! ```

pub mod hull;
pub mod hyperplane;
pub mod lp;
pub mod polytope;
pub mod rectangle;
pub mod region;
pub mod region_geometry;
pub mod sampling;
pub mod sphere;
pub mod top1_mirror;
pub mod walk;

pub use hyperplane::{Halfspace, Side};
pub use lp::Basis;
pub use polytope::Polytope;
pub use rectangle::Rectangle;
pub use region::{Region, RegionLpCache};
pub use region_geometry::{GeometryBackend, RegionGeometry};
pub use sphere::{min_enclosing_sphere, EnclosingSphereParams, Sphere};
pub use top1_mirror::Top1Mirror;
pub use walk::{SampleCloud, WalkConfig};
