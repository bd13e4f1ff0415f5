//! Property-based tests for the geometry primitives (offline harness).

use pao_geom::boundary::{union_area_with, visit_union_boundaries};
use pao_geom::{max_rects_into, GridScratch, Interval, Orient, Point, RTree, Rect, Transform};
use pao_ptest::{check, Rng};

fn arb_point(rng: &mut Rng) -> Point {
    Point::new(
        rng.gen_range(-10_000i64..10_000),
        rng.gen_range(-10_000i64..10_000),
    )
}

fn arb_rect(rng: &mut Rng) -> Rect {
    let p = arb_point(rng);
    let w = rng.gen_range(1i64..500);
    let h = rng.gen_range(1i64..500);
    Rect::new(p.x, p.y, p.x + w, p.y + h)
}

fn arb_rects(rng: &mut Rng, lo: usize, hi: usize) -> Vec<Rect> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| arb_rect(rng)).collect()
}

/// The payloads `tree.visit` reports touching `window`, sorted.
fn visit_set(tree: &RTree<usize>, window: Rect) -> Vec<usize> {
    let mut got = Vec::new();
    assert!(tree.visit(window, &mut |_, &i| {
        got.push(i);
        true
    }));
    got.sort_unstable();
    got
}

fn arb_orient(rng: &mut Rng) -> Orient {
    *rng.pick(&Orient::ALL)
}

#[test]
fn interval_overlap_len_symmetric() {
    check("interval_overlap_len_symmetric", 256, |rng| {
        let i = Interval::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
        let j = Interval::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
        assert_eq!(i.overlap_len(j), j.overlap_len(i));
        assert_eq!(i.overlaps(j), j.overlaps(i));
        assert_eq!(i.dist(j), j.dist(i));
        // Overlap length never exceeds either interval's length.
        assert!(i.overlap_len(j) <= i.len());
        assert!(i.overlap_len(j) <= j.len());
        // Exactly one of "positive overlap length" and "positive distance".
        assert!(!(i.overlap_len(j) > 0 && i.dist(j) > 0));
    });
}

#[test]
fn interval_hull_contains_both() {
    check("interval_hull_contains_both", 256, |rng| {
        let i = Interval::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
        let j = Interval::new(rng.gen_range(-100i64..100), rng.gen_range(-100i64..100));
        let h = i.hull(j);
        assert!(h.contains_interval(i));
        assert!(h.contains_interval(j));
    });
}

#[test]
fn rect_intersect_is_contained() {
    check("rect_intersect_is_contained", 256, |rng| {
        let a = arb_rect(rng);
        let b = arb_rect(rng);
        if let Some(i) = a.intersect(b) {
            assert!(a.contains_rect(i));
            assert!(b.contains_rect(i));
            assert!(a.touches(b));
        } else {
            assert!(!a.touches(b));
        }
    });
}

#[test]
fn rect_hull_contains_both() {
    check("rect_hull_contains_both", 256, |rng| {
        let a = arb_rect(rng);
        let b = arb_rect(rng);
        let h = a.hull(b);
        assert!(h.contains_rect(a));
        assert!(h.contains_rect(b));
        // Hull area ≥ both areas.
        assert!(h.area() >= a.area());
        assert!(h.area() >= b.area());
    });
}

#[test]
fn rect_dist_zero_iff_touching() {
    check("rect_dist_zero_iff_touching", 256, |rng| {
        let a = arb_rect(rng);
        let b = arb_rect(rng);
        assert_eq!(a.dist(b) == 0, a.touches(b));
        assert_eq!(a.dist(b), b.dist(a));
    });
}

#[test]
fn rect_overlap_implies_touch() {
    check("rect_overlap_implies_touch", 256, |rng| {
        let a = arb_rect(rng);
        let b = arb_rect(rng);
        if a.overlaps(b) {
            assert!(a.touches(b));
            assert!(a.intersect(b).map(|i| i.area() > 0).unwrap_or(false));
        }
    });
}

#[test]
fn transform_roundtrip() {
    check("transform_roundtrip", 256, |rng| {
        let p = arb_point(rng);
        let loc = arb_point(rng);
        let o = arb_orient(rng);
        let w = rng.gen_range(1i64..1000);
        let h = rng.gen_range(1i64..1000);
        let t = Transform::new(loc, o, w, h);
        assert_eq!(t.invert(t.apply(p)), p);
    });
}

#[test]
fn transform_preserves_manhattan_distance() {
    check("transform_preserves_manhattan_distance", 256, |rng| {
        let a = arb_point(rng);
        let b = arb_point(rng);
        let loc = arb_point(rng);
        let t = Transform::new(loc, arb_orient(rng), 500, 300);
        // Rigid Manhattan motions (90° rotations + mirrors) preserve L1 distance.
        assert_eq!(t.apply(a).manhattan(t.apply(b)), a.manhattan(b));
    });
}

#[test]
fn transform_rect_preserves_area() {
    check("transform_rect_preserves_area", 256, |rng| {
        let r = arb_rect(rng);
        let loc = arb_point(rng);
        let t = Transform::new(loc, arb_orient(rng), 500, 300);
        assert_eq!(t.apply_rect(r).area(), r.area());
    });
}

#[test]
fn max_rects_cover_union_and_stay_inside() {
    check("max_rects_cover_union_and_stay_inside", 128, |rng| {
        let shapes = arb_rects(rng, 1, 6);
        let mut maxes = Vec::new();
        max_rects_into(&shapes, &mut GridScratch::new(), &mut maxes);
        assert!(!maxes.is_empty());
        // Every maximal rect's center is covered by some input shape.
        for m in &maxes {
            assert!(
                shapes.iter().any(|s| s.contains(m.center())),
                "max rect {m} center not covered"
            );
            // Maximality: no other maximal rect contains it.
            for other in &maxes {
                if other != m {
                    assert!(
                        !other.contains_rect(*m),
                        "max rect {m} contained in {other}"
                    );
                }
            }
        }
        // Weaker coverage check: each input shape's center is covered by
        // some max rect.
        for s in &shapes {
            assert!(maxes.iter().any(|m| m.contains(s.center())));
        }
    });
}

#[test]
fn rtree_query_matches_linear_scan() {
    check("rtree_query_matches_linear_scan", 128, |rng| {
        let items = arb_rects(rng, 0, 80);
        let window = arb_rect(rng);
        let tree: RTree<usize> = items.iter().copied().zip(0usize..).collect();
        let got = visit_set(&tree, window);
        let mut expect: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, r)| r.touches(window))
            .map(|(i, _)| i)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    });
}

#[test]
fn rtree_insert_then_query() {
    check("rtree_insert_then_query", 128, |rng| {
        let items = arb_rects(rng, 1, 40);
        let mut tree: RTree<usize> = RTree::new();
        for (i, r) in items.iter().enumerate() {
            tree.insert(*r, i);
        }
        for (i, r) in items.iter().enumerate() {
            assert!(visit_set(&tree, *r).contains(&i));
        }
        tree.rebuild();
        for (i, r) in items.iter().enumerate() {
            assert!(visit_set(&tree, *r).contains(&i));
        }
    });
}

/// Every boundary loop of the union of `shapes`.
fn union_loops(shapes: &[Rect], ws: &mut GridScratch) -> Vec<Vec<Point>> {
    let mut loops = Vec::new();
    visit_union_boundaries(shapes, ws, |l| {
        loops.push(l.to_vec());
        true
    });
    loops
}

/// Shoelace area of a vertex loop (positive CCW).
fn shoelace(loop_: &[Point]) -> i128 {
    let mut acc: i128 = 0;
    for i in 0..loop_.len() {
        let a = loop_[i];
        let b = loop_[(i + 1) % loop_.len()];
        acc += i128::from(a.x) * i128::from(b.y) - i128::from(b.x) * i128::from(a.y);
    }
    acc / 2
}

/// The signed areas of the union's boundary loops (outer CCW positive,
/// holes CW negative) sum to the union area — ties the boundary tracer
/// and the area scanline together.
#[test]
fn boundary_loops_shoelace_matches_union_area() {
    let mut ws = GridScratch::new();
    check("boundary_loops_shoelace_matches_union_area", 128, |rng| {
        let shapes = arb_rects(rng, 1, 7);
        let loops = union_loops(&shapes, &mut ws);
        let total: i128 = loops.iter().map(|l| shoelace(l)).sum();
        assert_eq!(total, union_area_with(&shapes, &mut ws));
    });
}

/// Every boundary edge is axis-parallel and no loop self-intersects at
/// a vertex (all loop vertices distinct).
#[test]
fn boundary_loops_are_rectilinear() {
    let mut ws = GridScratch::new();
    check("boundary_loops_are_rectilinear", 128, |rng| {
        let shapes = arb_rects(rng, 1, 7);
        for l in union_loops(&shapes, &mut ws) {
            for i in 0..l.len() {
                let a = l[i];
                let b = l[(i + 1) % l.len()];
                assert!(
                    (a.x == b.x) ^ (a.y == b.y),
                    "edge {a}->{b} not axis-parallel"
                );
            }
            let mut vs = l.clone();
            vs.sort_unstable();
            vs.dedup();
            assert_eq!(vs.len(), l.len(), "duplicate vertex in loop");
        }
    });
}
