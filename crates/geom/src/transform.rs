//! Placement transforms mapping cell-master coordinates into die
//! coordinates.

use crate::{Dbu, Orient, Point, Rect};

/// The affine transform induced by placing a cell master of size
/// `width × height` at `location` with a given [`Orient`].
///
/// Master shapes live in master coordinates with the master's bounding box
/// at `[0, width] × [0, height]`. Per the LEF/DEF convention, the master is
/// first rotated/mirrored and then translated so that the lower-left corner
/// of its *transformed* bounding box coincides with `location`.
///
/// ```
/// use pao_geom::{Orient, Point, Rect, Transform};
///
/// // A 100×50 master placed at (1000, 2000), mirrored about the x axis.
/// let t = Transform::new(Point::new(1000, 2000), Orient::FS, 100, 50);
/// // The master's lower-left corner maps to the placed upper-left corner.
/// assert_eq!(t.apply(Point::new(0, 0)), Point::new(1000, 2050));
/// // The master bbox maps onto the placement bbox.
/// assert_eq!(t.apply_rect(Rect::new(0, 0, 100, 50)), Rect::new(1000, 2000, 1100, 2050));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transform {
    location: Point,
    orient: Orient,
    width: Dbu,
    height: Dbu,
}

impl Transform {
    /// Creates a transform for a master of the given size placed at
    /// `location` with orientation `orient`.
    #[must_use]
    pub fn new(location: Point, orient: Orient, width: Dbu, height: Dbu) -> Transform {
        Transform {
            location,
            orient,
            width,
            height,
        }
    }

    /// Identity transform (placement at the origin, orientation `N`).
    #[must_use]
    pub fn identity() -> Transform {
        Transform::new(Point::ORIGIN, Orient::N, 0, 0)
    }

    /// The placement location (lower-left of the placed bounding box).
    #[must_use]
    pub fn location(self) -> Point {
        self.location
    }

    /// The placement orientation.
    #[must_use]
    pub fn orient(self) -> Orient {
        self.orient
    }

    /// Maps a master-space point into die space.
    #[must_use]
    pub fn apply(self, p: Point) -> Point {
        let Point { x, y } = p;
        let (lx, ly) = (self.location.x, self.location.y);
        let (w, h) = (self.width, self.height);
        match self.orient {
            Orient::N => Point::new(lx + x, ly + y),
            Orient::S => Point::new(lx + w - x, ly + h - y),
            Orient::W => Point::new(lx + h - y, ly + x),
            Orient::E => Point::new(lx + y, ly + w - x),
            Orient::FN => Point::new(lx + w - x, ly + y),
            Orient::FS => Point::new(lx + x, ly + h - y),
            Orient::FW => Point::new(lx + y, ly + x),
            Orient::FE => Point::new(lx + h - y, ly + w - x),
        }
    }

    /// Maps a master-space rectangle into die space.
    #[must_use]
    pub fn apply_rect(self, r: Rect) -> Rect {
        Rect::from_points(self.apply(r.ll()), self.apply(r.ur()))
    }

    /// Maps a die-space point back into master space.
    ///
    /// ```
    /// use pao_geom::{Orient, Point, Transform};
    /// let t = Transform::new(Point::new(10, 20), Orient::E, 100, 50);
    /// let p = Point::new(33, 47);
    /// assert_eq!(t.invert(t.apply(p)), p);
    /// ```
    #[must_use]
    pub fn invert(self, p: Point) -> Point {
        let Point { x, y } = p;
        let (lx, ly) = (self.location.x, self.location.y);
        let (w, h) = (self.width, self.height);
        match self.orient {
            Orient::N => Point::new(x - lx, y - ly),
            Orient::S => Point::new(lx + w - x, ly + h - y),
            Orient::W => Point::new(y - ly, lx + h - x),
            Orient::E => Point::new(ly + w - y, x - lx),
            Orient::FN => Point::new(lx + w - x, y - ly),
            Orient::FS => Point::new(x - lx, ly + h - y),
            Orient::FW => Point::new(y - ly, x - lx),
            Orient::FE => Point::new(ly + w - y, lx + h - x),
        }
    }

    /// Maps a die-space rectangle back into master space.
    #[must_use]
    pub fn invert_rect(self, r: Rect) -> Rect {
        Rect::from_points(self.invert(r.ll()), self.invert(r.ur()))
    }

    /// Bounding box of the placed master.
    #[must_use]
    pub fn placed_bbox(self) -> Rect {
        let (w, h) = if self.orient.swaps_axes() {
            (self.height, self.width)
        } else {
            (self.width, self.height)
        };
        Rect::new(
            self.location.x,
            self.location.y,
            self.location.x + w,
            self.location.y + h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Dbu = 100;
    const H: Dbu = 50;

    fn t(o: Orient) -> Transform {
        Transform::new(Point::new(1000, 2000), o, W, H)
    }

    #[test]
    fn master_bbox_maps_to_placed_bbox() {
        let master = Rect::new(0, 0, W, H);
        for o in Orient::ALL {
            let tr = t(o);
            assert_eq!(tr.apply_rect(master), tr.placed_bbox(), "orient {o}");
        }
    }

    #[test]
    fn axis_swapping_orients_swap_bbox() {
        assert_eq!(
            t(Orient::W).placed_bbox(),
            Rect::new(1000, 2000, 1050, 2100)
        );
        assert_eq!(
            t(Orient::N).placed_bbox(),
            Rect::new(1000, 2000, 1100, 2050)
        );
    }

    #[test]
    fn inverse_roundtrips_all_orients() {
        let pts = [
            Point::new(0, 0),
            Point::new(W, H),
            Point::new(13, 37),
            Point::new(W, 0),
        ];
        for o in Orient::ALL {
            let tr = t(o);
            for p in pts {
                assert_eq!(tr.invert(tr.apply(p)), p, "orient {o}, point {p}");
                let die = tr.apply(p);
                assert_eq!(tr.apply(tr.invert(die)), die, "orient {o}");
            }
        }
    }

    #[test]
    fn rect_roundtrips_all_orients() {
        let r = Rect::new(10, 5, 60, 45);
        for o in Orient::ALL {
            let tr = t(o);
            assert_eq!(tr.invert_rect(tr.apply_rect(r)), r, "orient {o}");
        }
    }

    #[test]
    fn known_corner_mappings() {
        // FS mirrors about x: master LL -> placed UL.
        assert_eq!(
            t(Orient::FS).apply(Point::new(0, 0)),
            Point::new(1000, 2050)
        );
        // FN mirrors about y: master LL -> placed LR.
        assert_eq!(
            t(Orient::FN).apply(Point::new(0, 0)),
            Point::new(1100, 2000)
        );
        // S rotates 180: master LL -> placed UR.
        assert_eq!(t(Orient::S).apply(Point::new(0, 0)), Point::new(1100, 2050));
    }

    #[test]
    fn interior_points_stay_in_placed_bbox() {
        for o in Orient::ALL {
            let tr = t(o);
            let bbox = tr.placed_bbox();
            for p in [Point::new(1, 1), Point::new(99, 49), Point::new(50, 25)] {
                assert!(bbox.contains(tr.apply(p)), "orient {o}");
            }
        }
    }
}
