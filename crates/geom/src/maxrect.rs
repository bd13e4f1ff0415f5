//! Maximal-rectangle decomposition of a union of rectangles.
//!
//! The paper's *shape-center* coordinate type is defined on the **maximal
//! rectangles** of a pin's geometry: "all overlapping rectangles that are
//! maximal in area" (Section II-C). For a plain rectangular pin this is the
//! pin itself; for an L/T/U-shaped pin the maximal rectangles overlap each
//! other.

use crate::scratch::GridScratch;
use crate::Rect;

/// Writes all maximal axis-aligned rectangles contained in the union of
/// `shapes` into `out` (cleared first), reusing the buffers of `ws` —
/// allocation-free once both have warmed up.
///
/// A rectangle is *maximal* when it lies inside the union and cannot be
/// grown in any of the four directions while staying inside. The result is
/// deduplicated and sorted, and empty for empty input. Degenerate input
/// rectangles are ignored.
///
/// The implementation compresses coordinates (`n` distinct x's, `m` distinct
/// y's) and enumerates candidate spans with a prefix-sum fullness oracle —
/// O(n²m²) candidates, each tested in O(1). Pin geometry has tiny `n`, `m`,
/// so this exhaustive approach is both robust and fast.
///
/// ```
/// use pao_geom::{max_rects_into, GridScratch, Rect};
///
/// // L-shape as two overlapping rects.
/// let shapes = [Rect::new(0, 0, 20, 5), Rect::new(0, 0, 10, 10)];
/// let mut maxes = Vec::new();
/// max_rects_into(&shapes, &mut GridScratch::new(), &mut maxes);
/// assert_eq!(maxes, vec![Rect::new(0, 0, 10, 10), Rect::new(0, 0, 20, 5)]);
/// ```
pub fn max_rects_into(shapes: &[Rect], ws: &mut GridScratch, out: &mut Vec<Rect>) {
    out.clear();
    let Some((nx, ny)) = ws.compress_and_fill(shapes) else {
        return;
    };

    // 2-D prefix sums of covered cells for O(1) fullness queries,
    // row-major `pre[i * (ny + 1) + j]`.
    let stride = ny + 1;
    ws.pre.clear();
    ws.pre.resize((nx + 1) * stride, 0);
    for i in 0..nx {
        for j in 0..ny {
            ws.pre[(i + 1) * stride + j + 1] =
                ws.pre[i * stride + j + 1] + ws.pre[(i + 1) * stride + j] - ws.pre[i * stride + j]
                    + u32::from(ws.covered[i * ny + j]);
        }
    }
    let pre = &ws.pre;
    let cells = |i0: usize, i1: usize, j0: usize, j1: usize| -> u32 {
        // Ordered so every intermediate value stays non-negative.
        (pre[i1 * stride + j1] - pre[i0 * stride + j1]) + pre[i0 * stride + j0]
            - pre[i1 * stride + j0]
    };
    let full = |i0: usize, i1: usize, j0: usize, j1: usize| -> bool {
        i0 < i1 && j0 < j1 && cells(i0, i1, j0, j1) == ((i1 - i0) as u32) * ((j1 - j0) as u32)
    };

    for i0 in 0..nx {
        for i1 in (i0 + 1)..=nx {
            for j0 in 0..ny {
                for j1 in (j0 + 1)..=ny {
                    if !full(i0, i1, j0, j1) {
                        continue;
                    }
                    let grow_left = i0 > 0 && full(i0 - 1, i1, j0, j1);
                    let grow_right = i1 < nx && full(i0, i1 + 1, j0, j1);
                    let grow_down = j0 > 0 && full(i0, i1, j0 - 1, j1);
                    let grow_up = j1 < ny && full(i0, i1, j0, j1 + 1);
                    if !(grow_left || grow_right || grow_down || grow_up) {
                        out.push(Rect::new(ws.xs[i0], ws.ys[j0], ws.xs[i1], ws.ys[j1]));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    /// The maximal rectangles of `shapes`, computed with a fresh scratch.
    fn max_rects(shapes: &[Rect]) -> Vec<Rect> {
        let mut out = Vec::new();
        max_rects_into(shapes, &mut GridScratch::new(), &mut out);
        out
    }

    #[test]
    fn single_rect_is_its_own_max() {
        let r = Rect::new(0, 0, 100, 50);
        assert_eq!(max_rects(&[r]), vec![r]);
    }

    #[test]
    fn empty_and_degenerate_input() {
        assert!(max_rects(&[]).is_empty());
        assert!(max_rects(&[Rect::new(0, 0, 0, 10)]).is_empty());
    }

    #[test]
    fn duplicate_rects_dedupe() {
        let r = Rect::new(0, 0, 10, 10);
        assert_eq!(max_rects(&[r, r, r]), vec![r]);
    }

    #[test]
    fn l_shape_two_max_rects() {
        let shapes = [Rect::new(0, 0, 20, 5), Rect::new(0, 0, 10, 10)];
        let maxes = max_rects(&shapes);
        assert_eq!(maxes, vec![Rect::new(0, 0, 10, 10), Rect::new(0, 0, 20, 5)]);
    }

    #[test]
    fn cross_shape_two_max_rects() {
        // A plus/cross: horizontal bar × vertical bar.
        let h = Rect::new(0, 10, 30, 20);
        let v = Rect::new(10, 0, 20, 30);
        let maxes = max_rects(&[h, v]);
        assert_eq!(maxes, vec![h, v]);
    }

    #[test]
    fn t_shape() {
        // T: top bar [0,30]×[20,30], stem [10,20]×[0,30].
        let top = Rect::new(0, 20, 30, 30);
        let stem = Rect::new(10, 0, 20, 30);
        let maxes = max_rects(&[top, stem]);
        assert_eq!(maxes, vec![top, stem]);
    }

    #[test]
    fn abutting_rects_merge() {
        // Two abutting halves of one rectangle → a single maximal rect.
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert_eq!(max_rects(&[a, b]), vec![Rect::new(0, 0, 20, 10)]);
    }

    #[test]
    fn staircase_three_max_rects() {
        // Staircase of three unit steps.
        let shapes = [
            Rect::new(0, 0, 30, 10),
            Rect::new(0, 0, 20, 20),
            Rect::new(0, 0, 10, 30),
        ];
        let maxes = max_rects(&shapes);
        assert_eq!(maxes.len(), 3);
        for s in &shapes {
            assert!(maxes.contains(s));
        }
    }

    #[test]
    fn max_rects_contain_every_input_point() {
        let shapes = [Rect::new(0, 0, 20, 5), Rect::new(5, 0, 10, 15)];
        let maxes = max_rects(&shapes);
        // Sample points on a fine grid; each covered point must be in some
        // maximal rect, and each maximal rect must lie inside the union.
        for x in 0..=20 {
            for y in 0..=15 {
                let p = Point::new(x, y);
                let in_union = shapes.iter().any(|r| r.contains(p));
                let in_max = maxes.iter().any(|r| r.contains(p));
                if in_union {
                    assert!(in_max, "point {p} lost by decomposition");
                }
            }
        }
        // Interior of each maximal rect must be covered by the union.
        for m in &maxes {
            let c = m.center();
            assert!(shapes.iter().any(|r| r.contains(c)));
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let cases: Vec<Vec<Rect>> = vec![
            vec![Rect::new(0, 0, 100, 50)],
            vec![Rect::new(0, 0, 20, 5), Rect::new(0, 0, 10, 10)],
            vec![Rect::new(0, 10, 30, 20), Rect::new(10, 0, 20, 30)],
            vec![],
            vec![Rect::new(0, 0, 10, 10), Rect::new(100, 100, 110, 110)],
        ];
        let mut ws = GridScratch::new();
        let mut out = Vec::new();
        for shapes in &cases {
            max_rects_into(shapes, &mut ws, &mut out);
            assert_eq!(out, max_rects(shapes));
        }
    }

    #[test]
    fn disjoint_islands() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(100, 100, 110, 110);
        assert_eq!(max_rects(&[a, b]), vec![a, b]);
    }
}
