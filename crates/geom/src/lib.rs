#![warn(missing_docs)]

//! Integer Manhattan geometry for VLSI physical design.
//!
//! All coordinates are in **database units** (DBU, typically 1/1000 or
//! 1/2000 of a micron) represented as [`i64`] — the same convention used by
//! LEF/DEF-based tools. The crate provides:
//!
//! * [`Point`], [`Rect`], [`Interval`] primitives with Manhattan-distance
//!   predicates,
//! * rectilinear [`Polygon`]s and their decomposition into
//!   [maximal rectangles](maxrect::max_rects_into) (needed for the paper's
//!   *shape-center* access coordinates),
//! * DEF placement [`Orient`]ations and the affine [`Transform`] they induce,
//! * a bulk-loaded [`RTree`] spatial index used by the DRC engine and the
//!   access-point validator.
//!
//! # Examples
//!
//! ```
//! use pao_geom::{Point, Rect};
//!
//! let pin = Rect::new(0, 0, 400, 120);
//! assert!(pin.contains(Point::new(200, 60)));
//! assert_eq!(pin.center(), Point::new(200, 60));
//! ```

pub mod boundary;
pub mod dist;
pub mod interval;
pub mod maxrect;
pub mod orient;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod rtree;
pub mod scratch;
pub mod transform;

pub use dist::rect_dist;
pub use interval::Interval;
pub use maxrect::max_rects_into;
pub use orient::Orient;
pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;
pub use rtree::RTree;
pub use scratch::GridScratch;
pub use transform::Transform;

/// Database unit coordinate type used throughout the workspace.
pub type Dbu = i64;

/// Axis selector for direction-dependent geometry (preferred routing
/// direction, track axes, spans).
///
/// `Horizontal` means "extending along x" (a horizontal wire); its governing
/// coordinate (the track location) is therefore a *y* value, and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Extends along the x axis.
    Horizontal,
    /// Extends along the y axis.
    Vertical,
}

impl Dir {
    /// The perpendicular direction.
    ///
    /// ```
    /// use pao_geom::Dir;
    /// assert_eq!(Dir::Horizontal.perp(), Dir::Vertical);
    /// ```
    #[must_use]
    pub fn perp(self) -> Dir {
        match self {
            Dir::Horizontal => Dir::Vertical,
            Dir::Vertical => Dir::Horizontal,
        }
    }

    /// `true` for [`Dir::Horizontal`].
    #[must_use]
    pub fn is_horizontal(self) -> bool {
        self == Dir::Horizontal
    }
}

impl std::fmt::Display for Dir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dir::Horizontal => write!(f, "HORIZONTAL"),
            Dir::Vertical => write!(f, "VERTICAL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_perp_is_involutive() {
        assert_eq!(Dir::Horizontal.perp().perp(), Dir::Horizontal);
        assert_eq!(Dir::Vertical.perp().perp(), Dir::Vertical);
    }

    #[test]
    fn dir_display() {
        assert_eq!(Dir::Horizontal.to_string(), "HORIZONTAL");
        assert_eq!(Dir::Vertical.to_string(), "VERTICAL");
    }
}
