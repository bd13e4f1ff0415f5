//! Boundary extraction for unions of rectangles.
//!
//! The DRC min-step check walks the boundary of the *merged* metal formed
//! by a pin shape and a via enclosure (paper Fig. 3): short boundary edges
//! are "steps". This module traces the closed boundary loops of a union of
//! rectangles ([`visit_union_boundaries`]) and measures its area
//! ([`union_area_with`]); both run allocation-free against a reusable
//! [`GridScratch`].

use crate::scratch::GridScratch;
use crate::{Dbu, Point, Rect};

/// Visits every closed boundary loop of the union of `shapes` without
/// allocating (after `ws` warms up).
///
/// The visitor receives each loop as a rectilinear vertex cycle (≥ 4
/// vertices, first vertex not repeated, collinear runs merged; outer
/// loops CCW, holes CW) and returns `true` to continue. Returns `false`
/// iff the visitor stopped the walk early. Loop order is deterministic
/// (sorted by starting vertex). Degenerate input rectangles are ignored.
///
/// ```
/// use pao_geom::{boundary::visit_union_boundaries, GridScratch, Rect};
///
/// let mut loops = Vec::new();
/// visit_union_boundaries(&[Rect::new(0, 0, 10, 10)], &mut GridScratch::new(), |l| {
///     loops.push(l.len());
///     true
/// });
/// assert_eq!(loops, [4]);
/// ```
pub fn visit_union_boundaries<F: FnMut(&[Point]) -> bool>(
    shapes: &[Rect],
    ws: &mut GridScratch,
    mut f: F,
) -> bool {
    let Some((nx, ny)) = ws.compress_and_fill(shapes) else {
        return true;
    };
    let cov = |covered: &[bool], i: isize, j: isize| -> bool {
        i >= 0
            && j >= 0
            && (i as usize) < nx
            && (j as usize) < ny
            && covered[i as usize * ny + j as usize]
    };

    // Directed unit boundary edges with interior on the LEFT of the travel
    // direction (outer loops CCW, holes CW).
    ws.edges.clear();
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            if !cov(&ws.covered, i, j) {
                continue;
            }
            let (x0, x1) = (ws.xs[i as usize], ws.xs[i as usize + 1]);
            let (y0, y1) = (ws.ys[j as usize], ws.ys[j as usize + 1]);
            if !cov(&ws.covered, i, j - 1) {
                // Bottom edge: travel east (interior above/left).
                ws.edges.push((Point::new(x0, y0), Point::new(x1, y0)));
            }
            if !cov(&ws.covered, i, j + 1) {
                // Top edge: travel west.
                ws.edges.push((Point::new(x1, y1), Point::new(x0, y1)));
            }
            if !cov(&ws.covered, i - 1, j) {
                // Left edge: travel south.
                ws.edges.push((Point::new(x0, y1), Point::new(x0, y0)));
            }
            if !cov(&ws.covered, i + 1, j) {
                // Right edge: travel north.
                ws.edges.push((Point::new(x1, y0), Point::new(x1, y1)));
            }
        }
    }
    ws.edges
        .sort_unstable_by_key(|&(a, b)| (a.x, a.y, b.x, b.y));
    ws.used.clear();
    ws.used.resize(ws.edges.len(), false);

    // Stitch directed edges into loops; at pinch vertices prefer the
    // leftmost turn so loops stay simple.
    let mut cursor = 0;
    while cursor < ws.edges.len() {
        if ws.used[cursor] {
            cursor += 1;
            continue;
        }
        let (start, first) = ws.edges[cursor];
        ws.used[cursor] = true;
        ws.path.clear();
        ws.path.push(start);
        let mut current = first;
        let mut din = first - start;
        while current != start {
            ws.path.push(current);
            // All outgoing edges from `current` form a contiguous sorted run.
            let lo = ws
                .edges
                .partition_point(|&(a, _)| (a.x, a.y) < (current.x, current.y));
            let hi = ws
                .edges
                .partition_point(|&(a, _)| (a.x, a.y) <= (current.x, current.y));
            // Choose the leftmost turn relative to the incoming direction
            // (cross product maximal) among unconsumed edges.
            let mut best: Option<(usize, Dbu)> = None;
            for k in lo..hi {
                if ws.used[k] {
                    continue;
                }
                let dout = ws.edges[k].1 - current;
                let cross = din.x * dout.y - din.y * dout.x;
                if best.is_none_or(|(_, c)| cross > c) {
                    best = Some((k, cross));
                }
            }
            // The directed edges of a valid merge form closed loops, so an
            // unconsumed outgoing edge always exists; if that invariant is
            // ever violated, abandon this (broken) loop instead of
            // panicking — its partial path is simply skipped below.
            let Some((k, _)) = best else {
                ws.path.clear();
                break;
            };
            ws.used[k] = true;
            let next = ws.edges[k].1;
            din = next - current;
            current = next;
        }
        merge_collinear_into(&ws.path, &mut ws.merged);
        if ws.merged.len() >= 4 && !f(&ws.merged) {
            return false;
        }
    }
    true
}

/// Merges collinear runs of `path` (a closed rectilinear cycle) into `out`.
fn merge_collinear_into(path: &[Point], out: &mut Vec<Point>) {
    out.clear();
    if path.len() < 3 {
        out.extend_from_slice(path);
        return;
    }
    for &p in path {
        while out.len() >= 2 {
            let a = out[out.len() - 2];
            let b = out[out.len() - 1];
            if (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y) {
                out.pop();
            } else {
                break;
            }
        }
        out.push(p);
    }
    // Seam: first/last may be collinear with neighbours.
    while out.len() >= 3 {
        let n = out.len();
        let (a, b, c) = (out[n - 2], out[n - 1], out[0]);
        if (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y) {
            out.pop();
            continue;
        }
        let (a, b, c) = (out[n - 1], out[0], out[1]);
        if (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y) {
            out.remove(0);
            continue;
        }
        break;
    }
}

/// Total area enclosed by the union of `shapes`, computed against a
/// reusable [`GridScratch`] (allocation-free once warmed up).
pub fn union_area_with(shapes: &[Rect], ws: &mut GridScratch) -> i128 {
    let Some((nx, ny)) = ws.compress_and_fill(shapes) else {
        return 0;
    };
    let mut total: i128 = 0;
    for i in 0..nx {
        let w = i128::from(ws.xs[i + 1] - ws.xs[i]);
        for j in 0..ny {
            if ws.covered[i * ny + j] {
                total += w * i128::from(ws.ys[j + 1] - ws.ys[j]);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every boundary loop of `shapes`, traced with a fresh scratch.
    fn union_boundaries(shapes: &[Rect]) -> Vec<Vec<Point>> {
        let mut loops = Vec::new();
        visit_union_boundaries(shapes, &mut GridScratch::new(), |l| {
            loops.push(l.to_vec());
            true
        });
        loops
    }

    fn union_area(shapes: &[Rect]) -> i128 {
        union_area_with(shapes, &mut GridScratch::new())
    }

    /// Edge lengths around a loop.
    fn edge_lengths(l: &[Point]) -> Vec<Dbu> {
        (0..l.len())
            .map(|i| l[i].manhattan(l[(i + 1) % l.len()]))
            .collect()
    }

    #[test]
    fn single_rect_one_loop() {
        let loops = union_boundaries(&[Rect::new(0, 0, 10, 5)]);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 4);
        let mut lens = edge_lengths(&loops[0]);
        lens.sort_unstable();
        assert_eq!(lens, vec![5, 5, 10, 10]);
    }

    #[test]
    fn abutting_rects_merge_into_one_loop() {
        let loops = union_boundaries(&[Rect::new(0, 0, 10, 10), Rect::new(10, 0, 20, 10)]);
        assert_eq!(loops.len(), 1);
        let mut lens = edge_lengths(&loops[0]);
        lens.sort_unstable();
        assert_eq!(lens, vec![10, 10, 20, 20]);
    }

    #[test]
    fn disjoint_rects_two_loops() {
        let loops = union_boundaries(&[Rect::new(0, 0, 5, 5), Rect::new(100, 100, 105, 105)]);
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn l_shape_has_six_vertices_with_step() {
        // 20×5 bar plus a 5×10 bump → L with two short edges.
        let loops = union_boundaries(&[Rect::new(0, 0, 20, 5), Rect::new(0, 0, 5, 10)]);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), 6);
        let lens = edge_lengths(&loops[0]);
        assert_eq!(lens.iter().filter(|&&l| l == 5).count(), 3);
    }

    #[test]
    fn donut_has_outer_and_hole_loops() {
        // Frame of four rects around an empty center.
        let shapes = [
            Rect::new(0, 0, 30, 10),
            Rect::new(0, 20, 30, 30),
            Rect::new(0, 0, 10, 30),
            Rect::new(20, 0, 30, 30),
        ];
        let loops = union_boundaries(&shapes);
        assert_eq!(loops.len(), 2);
        let mut sizes: Vec<usize> = loops.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![4, 4]);
        assert_eq!(union_area(&shapes), 900 - 100);
    }

    #[test]
    fn union_area_overlapping() {
        assert_eq!(
            union_area(&[Rect::new(0, 0, 10, 10), Rect::new(5, 5, 15, 15)]),
            100 + 100 - 25
        );
        assert_eq!(union_area(&[]), 0);
        assert_eq!(union_area(&[Rect::new(0, 0, 0, 5)]), 0);
    }

    #[test]
    fn via_sticking_out_of_pin_creates_short_edges() {
        // Pin 60 tall, via enclosure 70 tall centered on it → 5-unit steps.
        let pin = Rect::new(0, 0, 400, 60);
        let enc = Rect::new(100, -5, 230, 65);
        let loops = union_boundaries(&[pin, enc]);
        assert_eq!(loops.len(), 1);
        let lens = edge_lengths(&loops[0]);
        assert_eq!(lens.iter().filter(|&&l| l == 5).count(), 4);
    }

    #[test]
    fn visitor_early_exit_stops_walk() {
        let shapes = [Rect::new(0, 0, 5, 5), Rect::new(100, 100, 105, 105)];
        let mut ws = GridScratch::new();
        let mut seen = 0;
        let completed = visit_union_boundaries(&shapes, &mut ws, |_| {
            seen += 1;
            false
        });
        assert!(!completed);
        assert_eq!(seen, 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let cases: Vec<Vec<Rect>> = vec![
            vec![Rect::new(0, 0, 10, 5)],
            vec![Rect::new(0, 0, 20, 5), Rect::new(0, 0, 5, 10)],
            vec![Rect::new(0, 0, 400, 60), Rect::new(100, -5, 230, 65)],
            vec![],
        ];
        let mut ws = GridScratch::new();
        for shapes in &cases {
            let mut loops = Vec::new();
            visit_union_boundaries(shapes, &mut ws, |l| {
                loops.push(l.to_vec());
                true
            });
            assert_eq!(loops, union_boundaries(shapes));
            assert_eq!(union_area_with(shapes, &mut ws), union_area(shapes));
        }
    }
}
