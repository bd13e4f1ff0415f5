//! Axis-aligned integer rectangles.

use crate::{Dbu, Dir, Interval, Point};
use std::fmt;

/// An axis-aligned rectangle `[xlo, xhi] × [ylo, yhi]` in DBU.
///
/// Rectangles are *closed* regions: two rectangles that share only an edge
/// or a corner still [`touch`](Rect::touches) but have zero
/// [`overlap area`](Rect::intersect). Degenerate (zero-width/height)
/// rectangles are permitted; they model wire centerlines and track segments.
///
/// ```
/// use pao_geom::{Point, Rect};
/// let r = Rect::new(0, 0, 100, 50);
/// assert_eq!(r.width(), 100);
/// assert_eq!(r.height(), 50);
/// assert_eq!(r.area(), 5000);
/// assert!(r.contains(Point::new(100, 50))); // closed
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    xlo: Dbu,
    ylo: Dbu,
    xhi: Dbu,
    yhi: Dbu,
}

impl Rect {
    /// Creates a rectangle from two corner coordinates (order-insensitive).
    #[must_use]
    pub fn new(x1: Dbu, y1: Dbu, x2: Dbu, y2: Dbu) -> Rect {
        Rect {
            xlo: x1.min(x2),
            ylo: y1.min(y2),
            xhi: x1.max(x2),
            yhi: y1.max(y2),
        }
    }

    /// Creates a rectangle from two corner points.
    #[must_use]
    pub fn from_points(a: Point, b: Point) -> Rect {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Creates a rectangle centered at `c` with the given total width and
    /// height. Odd extents round down on the high side.
    #[must_use]
    pub fn centered_at(c: Point, width: Dbu, height: Dbu) -> Rect {
        Rect::new(
            c.x - width / 2,
            c.y - height / 2,
            c.x - width / 2 + width,
            c.y - height / 2 + height,
        )
    }

    /// Low x edge.
    #[must_use]
    pub fn xlo(self) -> Dbu {
        self.xlo
    }

    /// Low y edge.
    #[must_use]
    pub fn ylo(self) -> Dbu {
        self.ylo
    }

    /// High x edge.
    #[must_use]
    pub fn xhi(self) -> Dbu {
        self.xhi
    }

    /// High y edge.
    #[must_use]
    pub fn yhi(self) -> Dbu {
        self.yhi
    }

    /// Lower-left corner.
    #[must_use]
    pub fn ll(self) -> Point {
        Point::new(self.xlo, self.ylo)
    }

    /// Upper-right corner.
    #[must_use]
    pub fn ur(self) -> Point {
        Point::new(self.xhi, self.yhi)
    }

    /// Width (x extent).
    #[must_use]
    pub fn width(self) -> Dbu {
        self.xhi - self.xlo
    }

    /// Height (y extent).
    #[must_use]
    pub fn height(self) -> Dbu {
        self.yhi - self.ylo
    }

    /// Area (`width × height`).
    #[must_use]
    pub fn area(self) -> i128 {
        i128::from(self.width()) * i128::from(self.height())
    }

    /// The shorter of width and height — the "width" in the min-width DRC
    /// sense.
    #[must_use]
    pub fn min_side(self) -> Dbu {
        self.width().min(self.height())
    }

    /// The longer of width and height.
    #[must_use]
    pub fn max_side(self) -> Dbu {
        self.width().max(self.height())
    }

    /// Center point (integer division, rounds toward low corner).
    #[must_use]
    pub fn center(self) -> Point {
        Point::new(
            self.xlo + (self.xhi - self.xlo) / 2,
            self.ylo + (self.yhi - self.ylo) / 2,
        )
    }

    /// `true` when width or height is zero.
    #[must_use]
    pub fn is_degenerate(self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// The x span as an [`Interval`].
    #[must_use]
    pub fn x_span(self) -> Interval {
        Interval::new(self.xlo, self.xhi)
    }

    /// The y span as an [`Interval`].
    #[must_use]
    pub fn y_span(self) -> Interval {
        Interval::new(self.ylo, self.yhi)
    }

    /// The span along `dir` ([`x_span`](Rect::x_span) for horizontal).
    #[must_use]
    pub fn span(self, dir: Dir) -> Interval {
        match dir {
            Dir::Horizontal => self.x_span(),
            Dir::Vertical => self.y_span(),
        }
    }

    /// `true` when the point lies in the closed region.
    #[must_use]
    pub fn contains(self, p: Point) -> bool {
        self.x_span().contains(p.x) && self.y_span().contains(p.y)
    }

    /// `true` when `other` lies entirely within `self` (closed containment).
    #[must_use]
    pub fn contains_rect(self, other: Rect) -> bool {
        self.x_span().contains_interval(other.x_span())
            && self.y_span().contains_interval(other.y_span())
    }

    /// `true` when the closed regions share at least one point (edge/corner
    /// contact counts).
    #[must_use]
    pub fn touches(self, other: Rect) -> bool {
        self.x_span().overlaps(other.x_span()) && self.y_span().overlaps(other.y_span())
    }

    /// `true` when the open interiors intersect (edge/corner contact does
    /// *not* count). This is the "shapes short" predicate.
    #[must_use]
    pub fn overlaps(self, other: Rect) -> bool {
        self.xlo < other.xhi && other.xlo < self.xhi && self.ylo < other.yhi && other.ylo < self.yhi
    }

    /// Intersection of the closed regions, when non-empty (may be
    /// degenerate for edge contact).
    #[must_use]
    pub fn intersect(self, other: Rect) -> Option<Rect> {
        let xs = self.x_span().intersect(other.x_span())?;
        let ys = self.y_span().intersect(other.y_span())?;
        Some(Rect::new(xs.lo(), ys.lo(), xs.hi(), ys.hi()))
    }

    /// Smallest rectangle containing both inputs.
    #[must_use]
    pub fn hull(self, other: Rect) -> Rect {
        Rect::new(
            self.xlo.min(other.xlo),
            self.ylo.min(other.ylo),
            self.xhi.max(other.xhi),
            self.yhi.max(other.yhi),
        )
    }

    /// The rectangle expanded by `d` on all four sides (shrunk for negative
    /// `d`).
    ///
    /// # Panics
    ///
    /// Panics if shrinking inverts either span.
    #[must_use]
    pub fn expanded(self, d: Dbu) -> Rect {
        let xs = self.x_span().expanded(d);
        let ys = self.y_span().expanded(d);
        Rect::new(xs.lo(), ys.lo(), xs.hi(), ys.hi())
    }

    /// The rectangle translated by `delta`.
    #[must_use]
    pub fn translated(self, delta: Point) -> Rect {
        Rect {
            xlo: self.xlo + delta.x,
            ylo: self.ylo + delta.y,
            xhi: self.xhi + delta.x,
            yhi: self.yhi + delta.y,
        }
    }

    /// Minimum Manhattan distance between the two closed regions (0 when
    /// they touch or overlap).
    #[must_use]
    pub fn dist(self, other: Rect) -> Dbu {
        self.x_span().dist(other.x_span()) + self.y_span().dist(other.y_span())
    }

    /// Per-axis gaps `(dx, dy)` between the two closed regions; each is 0
    /// when the projections overlap. Spacing rules compare
    /// `max(dx, dy)`-style Euclidean or Manhattan combinations of these.
    #[must_use]
    pub fn dist_components(self, other: Rect) -> (Dbu, Dbu) {
        (
            self.x_span().dist(other.x_span()),
            self.y_span().dist(other.y_span()),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}) - ({}, {})",
            self.xlo, self.ylo, self.xhi, self.yhi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_corners() {
        let r = Rect::new(10, 20, -10, -20);
        assert_eq!(r.ll(), Point::new(-10, -20));
        assert_eq!(r.ur(), Point::new(10, 20));
        assert_eq!(r.width(), 20);
        assert_eq!(r.height(), 40);
    }

    #[test]
    fn centered_at_even_and_odd() {
        let r = Rect::centered_at(Point::new(0, 0), 10, 4);
        assert_eq!(r, Rect::new(-5, -2, 5, 2));
        let r = Rect::centered_at(Point::new(0, 0), 5, 3);
        assert_eq!(r.width(), 5);
        assert_eq!(r.height(), 3);
        assert_eq!(r.center(), Point::new(0, 0));
    }

    #[test]
    fn containment_predicates() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(10, 10)));
        assert!(r.contains_rect(Rect::new(0, 0, 10, 10)));
        assert!(!r.contains_rect(Rect::new(0, 0, 11, 10)));
    }

    #[test]
    fn touch_vs_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let edge = Rect::new(10, 0, 20, 10);
        let corner = Rect::new(10, 10, 20, 20);
        let inside = Rect::new(5, 5, 15, 15);
        let far = Rect::new(11, 0, 20, 10);
        assert!(a.touches(edge) && !a.overlaps(edge));
        assert!(a.touches(corner) && !a.overlaps(corner));
        assert!(a.touches(inside) && a.overlaps(inside));
        assert!(!a.touches(far) && !a.overlaps(far));
    }

    #[test]
    fn intersection_and_hull() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 20, 20);
        assert_eq!(a.intersect(b), Some(Rect::new(5, 5, 10, 10)));
        assert_eq!(a.hull(b), Rect::new(0, 0, 20, 20));
        assert_eq!(a.intersect(Rect::new(11, 11, 20, 20)), None);
        // Edge contact yields a degenerate intersection.
        let e = a.intersect(Rect::new(10, 0, 20, 10)).unwrap();
        assert!(e.is_degenerate());
    }

    #[test]
    fn distances() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(13, 14, 20, 20);
        assert_eq!(a.dist_components(b), (3, 4));
        assert_eq!(a.dist(b), 7);
        assert_eq!(a.dist(Rect::new(5, 5, 6, 6)), 0);
    }

    #[test]
    fn expansion_translation() {
        let a = Rect::new(0, 0, 10, 10);
        assert_eq!(a.expanded(2), Rect::new(-2, -2, 12, 12));
        assert_eq!(
            a.translated(Point::new(100, -100)),
            Rect::new(100, -100, 110, -90)
        );
    }

    #[test]
    fn area_uses_wide_arithmetic() {
        let big = Rect::new(0, 0, i64::MAX / 4, 4);
        assert_eq!(big.area(), i128::from(i64::MAX / 4) * 4);
    }

    #[test]
    fn span_by_dir() {
        let r = Rect::new(0, 1, 10, 21);
        assert_eq!(r.span(Dir::Horizontal), Interval::new(0, 10));
        assert_eq!(r.span(Dir::Vertical), Interval::new(1, 21));
        assert_eq!(r.min_side(), 10);
        assert_eq!(r.max_side(), 20);
    }
}
