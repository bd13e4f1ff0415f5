//! 2-D integer points.

use crate::{Dbu, Dir};
use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// A point in the 2-D integer plane (DBU coordinates).
///
/// `Point` is `Copy`, totally ordered (x-major, then y — the order used when
/// sweeping shapes left-to-right) and hashable so it can key maps of access
/// points.
///
/// ```
/// use pao_geom::Point;
/// let p = Point::new(3, 4) + Point::new(1, -1);
/// assert_eq!(p, Point::new(4, 3));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// x coordinate in DBU.
    pub x: Dbu,
    /// y coordinate in DBU.
    pub y: Dbu,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0, y: 0 };

    /// Creates a point from its coordinates.
    #[must_use]
    pub const fn new(x: Dbu, y: Dbu) -> Point {
        Point { x, y }
    }

    /// The coordinate along `dir`: x for [`Dir::Horizontal`], y for
    /// [`Dir::Vertical`].
    ///
    /// ```
    /// use pao_geom::{Dir, Point};
    /// let p = Point::new(10, 20);
    /// assert_eq!(p.coord(Dir::Horizontal), 10);
    /// assert_eq!(p.coord(Dir::Vertical), 20);
    /// ```
    #[must_use]
    pub fn coord(self, dir: Dir) -> Dbu {
        match dir {
            Dir::Horizontal => self.x,
            Dir::Vertical => self.y,
        }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// ```
    /// use pao_geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan(Point::new(3, -4)), 7);
    /// ```
    #[must_use]
    pub fn manhattan(self, other: Point) -> Dbu {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }
}

impl From<(Dbu, Dbu)> for Point {
    fn from((x, y): (Dbu, Dbu)) -> Point {
        Point::new(x, y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        *self = *self + rhs;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        *self = *self - rhs;
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(10, 20);
        assert_eq!(a + b, Point::new(11, 22));
        assert_eq!(b - a, Point::new(9, 18));
        assert_eq!(-a, Point::new(-1, -2));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ordering_is_x_major() {
        assert!(Point::new(1, 100) < Point::new(2, 0));
        assert!(Point::new(1, 1) < Point::new(1, 2));
    }

    #[test]
    fn coord_access_by_dir() {
        let p = Point::new(7, 9);
        assert_eq!(p.coord(Dir::Horizontal), 7);
        assert_eq!(p.coord(Dir::Vertical), 9);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(-1, -1).manhattan(Point::new(2, 3)), 7);
        assert_eq!(Point::ORIGIN.manhattan(Point::ORIGIN), 0);
    }

    #[test]
    fn min_max() {
        let a = Point::new(1, 9);
        let b = Point::new(5, 2);
        assert_eq!(a.min(b), Point::new(1, 2));
        assert_eq!(a.max(b), Point::new(5, 9));
    }

    #[test]
    fn display_and_from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(p.to_string(), "(3, 4)");
    }
}
