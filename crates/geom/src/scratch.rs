//! Reusable workspace buffers for the grid-based union algorithms.
//!
//! [`visit_union_boundaries`](crate::boundary::visit_union_boundaries),
//! [`union_area_with`](crate::boundary::union_area_with) and
//! [`max_rects_into`](crate::max_rects_into) all coordinate-compress their
//! input and rasterize it onto a cell grid. A [`GridScratch`] owns every
//! buffer those passes need, so they run allocation-free once the buffers
//! have grown to the workload's high-water mark. One scratch serves all
//! three algorithms (they run sequentially per DRC probe).

use crate::{Dbu, Point, Rect};

/// Reusable buffers for [`boundary`](crate::boundary) and
/// [`maxrect`](crate::maxrect) computations.
///
/// Create once per worker and pass to
/// [`visit_union_boundaries`](crate::boundary::visit_union_boundaries),
/// [`union_area_with`](crate::boundary::union_area_with) or
/// [`max_rects_into`](crate::maxrect::max_rects_into). Contents between
/// calls are unspecified; the buffers only ever grow.
#[derive(Debug, Default)]
pub struct GridScratch {
    /// Non-degenerate input shapes.
    pub(crate) shapes: Vec<Rect>,
    /// Compressed distinct x coordinates.
    pub(crate) xs: Vec<Dbu>,
    /// Compressed distinct y coordinates.
    pub(crate) ys: Vec<Dbu>,
    /// Cell coverage flags, row-major `[i * ny + j]`.
    pub(crate) covered: Vec<bool>,
    /// 2-D prefix sums over `covered`, `[(i) * (ny + 1) + j]`.
    pub(crate) pre: Vec<u32>,
    /// Directed boundary edges, sorted by source point.
    pub(crate) edges: Vec<(Point, Point)>,
    /// Consumed flags parallel to `edges`.
    pub(crate) used: Vec<bool>,
    /// Vertex path of the loop being stitched.
    pub(crate) path: Vec<Point>,
    /// Collinear-merged loop handed to the visitor.
    pub(crate) merged: Vec<Point>,
}

impl GridScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> GridScratch {
        GridScratch::default()
    }

    /// Total capacity (in elements) across all buffers — the allocation
    /// high-water mark. Steady under a fixed workload once warmed up.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.shapes.capacity()
            + self.xs.capacity()
            + self.ys.capacity()
            + self.covered.capacity()
            + self.pre.capacity()
            + self.edges.capacity()
            + self.used.capacity()
            + self.path.capacity()
            + self.merged.capacity()
    }

    /// Filters degenerate shapes, compresses coordinates and rasterizes
    /// coverage onto the cell grid. Returns the grid dimensions
    /// `(nx, ny)` in cells, or `None` when no non-degenerate shape exists.
    pub(crate) fn compress_and_fill(&mut self, shapes: &[Rect]) -> Option<(usize, usize)> {
        self.shapes.clear();
        self.shapes
            .extend(shapes.iter().copied().filter(|r| !r.is_degenerate()));
        if self.shapes.is_empty() {
            return None;
        }
        self.xs.clear();
        self.ys.clear();
        for r in &self.shapes {
            self.xs.push(r.xlo());
            self.xs.push(r.xhi());
            self.ys.push(r.ylo());
            self.ys.push(r.yhi());
        }
        self.xs.sort_unstable();
        self.xs.dedup();
        self.ys.sort_unstable();
        self.ys.dedup();
        let nx = self.xs.len() - 1;
        let ny = self.ys.len() - 1;
        self.covered.clear();
        self.covered.resize(nx * ny, false);
        for r in &self.shapes {
            // xs/ys contain every shape coordinate by construction; a failed
            // search returns the insertion point, degrading to the nearest
            // cell instead of panicking.
            let i0 = self.xs.binary_search(&r.xlo()).unwrap_or_else(|i| i);
            let i1 = self.xs.binary_search(&r.xhi()).unwrap_or_else(|i| i);
            let j0 = self.ys.binary_search(&r.ylo()).unwrap_or_else(|i| i);
            let j1 = self.ys.binary_search(&r.yhi()).unwrap_or_else(|i| i);
            for i in i0..i1 {
                for cell in &mut self.covered[i * ny + j0..i * ny + j1] {
                    *cell = true;
                }
            }
        }
        Some((nx, ny))
    }
}
