//! The corner-to-corner distance spacing checks compare against.

use crate::Rect;

/// Euclidean-squared corner-to-corner distance between two rectangles, the
/// metric used by corner-to-corner spacing checks. Zero when the rectangles
/// touch or overlap.
#[must_use]
pub fn rect_dist(a: Rect, b: Rect) -> i128 {
    let (dx, dy) = a.dist_components(b);
    i128::from(dx) * i128::from(dx) + i128::from(dy) * i128::from(dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_corner_distance() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(13, 14, 20, 20);
        assert_eq!(rect_dist(a, b), 9 + 16);
        assert_eq!(a.dist_components(b), (3, 4));
        // Overlapping rects are at distance zero.
        assert_eq!(rect_dist(a, Rect::new(5, 5, 8, 8)), 0);
        // Edge-aligned rects are at distance zero.
        assert_eq!(rect_dist(a, Rect::new(10, 0, 20, 10)), 0);
    }
}
