//! A bulk-loaded R-tree for rectangle region queries.
//!
//! The DRC engine and the access-point validator issue millions of "which
//! shapes touch this window?" queries. This module provides a compact
//! Sort-Tile-Recursive (STR) bulk-loaded R-tree plus an overflow buffer for
//! incremental insertion (folded into the tree on [`RTree::rebuild`]).

use crate::Rect;

const NODE_CAPACITY: usize = 8;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        bbox: Rect,
        /// Indices into the item arena.
        items: Vec<u32>,
    },
    Inner {
        bbox: Rect,
        children: Vec<Node>,
    },
}

impl Node {
    fn bbox(&self) -> Rect {
        match self {
            Node::Leaf { bbox, .. } | Node::Inner { bbox, .. } => *bbox,
        }
    }
}

/// An R-tree mapping rectangles to payloads of type `T`.
///
/// Build with [`RTree::bulk_load`] (or collect from an iterator of
/// `(Rect, T)` pairs), then query with [`RTree::visit`]. Items whose closed
/// bounds *touch* the query window are visited — the inclusive semantics
/// spacing checks need.
///
/// ```
/// use pao_geom::{Rect, RTree};
///
/// let tree: RTree<&str> = vec![
///     (Rect::new(0, 0, 10, 10), "a"),
///     (Rect::new(20, 0, 30, 10), "b"),
/// ]
/// .into_iter()
/// .collect();
/// let mut hits = Vec::new();
/// tree.visit(Rect::new(5, 5, 25, 6), &mut |_, &t| {
///     hits.push(t);
///     true
/// });
/// hits.sort_unstable();
/// assert_eq!(hits, ["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T> {
    items: Vec<(Rect, T)>,
    root: Option<Node>,
    /// Items inserted after the last (re)build; scanned linearly.
    overflow: Vec<usize>,
}

impl<T> Default for RTree<T> {
    fn default() -> RTree<T> {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> RTree<T> {
        RTree {
            items: Vec::new(),
            root: None,
            overflow: Vec::new(),
        }
    }

    /// Bulk-loads a tree from items using Sort-Tile-Recursive packing.
    #[must_use]
    pub fn bulk_load(items: Vec<(Rect, T)>) -> RTree<T> {
        let mut tree = RTree {
            items,
            root: None,
            overflow: Vec::new(),
        };
        tree.build_root();
        tree
    }

    fn build_root(&mut self) {
        self.overflow.clear();
        if self.items.is_empty() {
            self.root = None;
            return;
        }
        // STR: sort by center x, slice into vertical strips, sort each strip
        // by center y, pack into leaves.
        let mut idx: Vec<u32> = (0..self.items.len() as u32).collect();
        idx.sort_by_key(|&i| {
            let c = self.items[i as usize].0.center();
            (c.x, c.y)
        });
        let n = idx.len();
        let leaves_needed = n.div_ceil(NODE_CAPACITY);
        let strips = (leaves_needed as f64).sqrt().ceil() as usize;
        let strip_len = n.div_ceil(strips);
        let mut leaves: Vec<Node> = Vec::with_capacity(leaves_needed);
        for strip in idx.chunks_mut(strip_len.max(1)) {
            strip.sort_by_key(|&i| {
                let c = self.items[i as usize].0.center();
                (c.y, c.x)
            });
            for leaf in strip.chunks(NODE_CAPACITY) {
                // chunks() never yields an empty slice, so folding from the
                // first item needs no fallible reduce.
                let mut bbox = self.items[leaf[0] as usize].0;
                for &i in &leaf[1..] {
                    bbox = Rect::hull(bbox, self.items[i as usize].0);
                }
                leaves.push(Node::Leaf {
                    bbox,
                    items: leaf.to_vec(),
                });
            }
        }
        // Pack upward until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                // peek() guarantees at least one child, so fold from it.
                let children: Vec<Node> = iter.by_ref().take(NODE_CAPACITY).collect();
                let mut bbox = children[0].bbox();
                for c in &children[1..] {
                    bbox = Rect::hull(bbox, c.bbox());
                }
                next.push(Node::Inner { bbox, children });
            }
            level = next;
        }
        self.root = level.pop();
    }

    /// Number of stored items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the tree holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts an item into the overflow buffer. Queries see it
    /// immediately. When the buffer grows past a threshold the tree
    /// repacks itself automatically, so interleaved insert/query workloads
    /// (the router's occupancy checks) stay near O(log n) per query.
    pub fn insert(&mut self, bounds: Rect, value: T) {
        self.items.push((bounds, value));
        self.overflow.push(self.items.len() - 1);
        if self.overflow.len() >= 128 && self.overflow.len() * 4 >= self.items.len() {
            self.build_root();
        }
    }

    /// Inserts an item into the overflow buffer **without** the automatic
    /// repack of [`RTree::insert`]. Queries still see it (linear overflow
    /// scan), but a bulk fill of `n` items stays O(n) instead of paying
    /// repeated intermediate STR packs; call [`RTree::rebuild`] once when
    /// the fill is complete.
    pub fn defer_insert(&mut self, bounds: Rect, value: T) {
        self.items.push((bounds, value));
        self.overflow.push(self.items.len() - 1);
    }

    /// Repacks the tree so overflow items participate in the index.
    pub fn rebuild(&mut self) {
        self.build_root();
    }

    /// Visits every `(bounds, value)` pair whose closed bounds touch the
    /// closed query window (shared edges count), without allocating: no
    /// iterator state, no heap-allocated traversal stack. The visitor
    /// returns `true` to continue; `visit` returns `false` iff the visitor
    /// stopped early.
    pub fn visit<F: FnMut(Rect, &T) -> bool>(&self, window: Rect, f: &mut F) -> bool {
        if let Some(root) = &self.root {
            if !visit_node(root, &self.items, window, f) {
                return false;
            }
        }
        for &i in &self.overflow {
            let (r, t) = &self.items[i];
            if r.touches(window) && !f(*r, t) {
                return false;
            }
        }
        true
    }

    /// `true` when any stored item touches `window`.
    #[must_use]
    pub fn any_touching(&self, window: Rect) -> bool {
        !self.visit(window, &mut |_, _| false)
    }

    /// Removes all items, keeping allocated capacity where possible.
    pub fn clear(&mut self) {
        self.items.clear();
        self.overflow.clear();
        self.root = None;
    }

    /// Iterates over all stored items.
    pub fn iter(&self) -> std::slice::Iter<'_, (Rect, T)> {
        self.items.iter()
    }
}

/// Recursive allocation-free traversal behind [`RTree::visit`].
fn visit_node<T, F: FnMut(Rect, &T) -> bool>(
    node: &Node,
    arena: &[(Rect, T)],
    window: Rect,
    f: &mut F,
) -> bool {
    if !node.bbox().touches(window) {
        return true;
    }
    match node {
        Node::Leaf { items, .. } => {
            for &i in items {
                let (r, t) = &arena[i as usize];
                if r.touches(window) && !f(*r, t) {
                    return false;
                }
            }
        }
        Node::Inner { children, .. } => {
            for c in children {
                if !visit_node(c, arena, window, f) {
                    return false;
                }
            }
        }
    }
    true
}

impl<T> FromIterator<(Rect, T)> for RTree<T> {
    fn from_iter<I: IntoIterator<Item = (Rect, T)>>(iter: I) -> RTree<T> {
        RTree::bulk_load(iter.into_iter().collect())
    }
}

impl<T> Extend<(Rect, T)> for RTree<T> {
    fn extend<I: IntoIterator<Item = (Rect, T)>>(&mut self, iter: I) {
        for (r, t) in iter {
            self.insert(r, t);
        }
    }
}

impl<'a, T> IntoIterator for &'a RTree<T> {
    type Item = &'a (Rect, T);
    type IntoIter = std::slice::Iter<'a, (Rect, T)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn grid_tree(n: i64) -> RTree<(i64, i64)> {
        let mut items = Vec::new();
        for i in 0..n {
            for j in 0..n {
                items.push((
                    Rect::new(i * 100, j * 100, i * 100 + 60, j * 100 + 60),
                    (i, j),
                ));
            }
        }
        RTree::bulk_load(items)
    }

    /// The sorted payloads `visit` reports for window `w`.
    fn query_set<T: Copy + Ord>(tree: &RTree<T>, w: Rect) -> Vec<T> {
        let mut v = Vec::new();
        assert!(tree.visit(w, &mut |_, &t| {
            v.push(t);
            true
        }));
        v.sort_unstable();
        v
    }

    /// The sorted payloads a linear scan finds touching window `w`.
    fn scan_set<T: Copy + Ord>(tree: &RTree<T>, w: Rect) -> Vec<T> {
        let mut v: Vec<T> = tree
            .iter()
            .filter(|(r, _)| r.touches(w))
            .map(|&(_, t)| t)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::new();
        assert!(tree.is_empty());
        assert!(query_set(&tree, Rect::new(0, 0, 100, 100)).is_empty());
        assert!(!tree.any_touching(Rect::new(0, 0, 1, 1)));
    }

    #[test]
    fn point_query_hits_single_cell() {
        let tree = grid_tree(10);
        assert_eq!(tree.len(), 100);
        assert_eq!(
            query_set(&tree, Rect::new(130, 230, 140, 240)),
            vec![(1, 2)]
        );
    }

    #[test]
    fn window_query_matches_brute_force() {
        let tree = grid_tree(12);
        let windows = [
            Rect::new(0, 0, 1200, 1200),
            Rect::new(50, 50, 350, 150),
            Rect::new(-100, -100, -1, -1),
            Rect::new(60, 60, 100, 100), // touches (0,0) at corner
            Rect::new(555, 0, 565, 1200),
        ];
        for w in windows {
            assert_eq!(query_set(&tree, w), scan_set(&tree, w), "window {w}");
        }
    }

    #[test]
    fn touching_semantics_inclusive() {
        let tree: RTree<u8> = std::iter::once((Rect::new(0, 0, 10, 10), 1u8)).collect();
        assert!(tree.any_touching(Rect::new(10, 10, 20, 20)));
        assert!(!tree.any_touching(Rect::new(11, 11, 20, 20)));
    }

    #[test]
    fn incremental_insert_visible_before_rebuild() {
        let mut tree = grid_tree(3);
        tree.insert(Rect::new(1000, 1000, 1010, 1010), (99, 99));
        assert!(tree.any_touching(Rect::new(1005, 1005, 1006, 1006)));
        tree.rebuild();
        assert!(tree.any_touching(Rect::new(1005, 1005, 1006, 1006)));
        assert_eq!(tree.len(), 10);
    }

    #[test]
    fn extend_and_collect() {
        let mut tree: RTree<u8> = RTree::new();
        tree.extend([(Rect::new(0, 0, 1, 1), 1u8), (Rect::new(5, 5, 6, 6), 2u8)]);
        assert_eq!(tree.len(), 2);
        assert!(tree.any_touching(Rect::centered_at(Point::new(5, 5), 1, 1)));
    }

    #[test]
    fn degenerate_item_rects_are_queryable() {
        // Zero-width track segments must still be found.
        let tree: RTree<u8> = vec![(Rect::new(5, 0, 5, 100), 1u8)].into_iter().collect();
        assert!(tree.any_touching(Rect::new(0, 50, 10, 60)));
        assert!(!tree.any_touching(Rect::new(6, 50, 10, 60)));
    }

    #[test]
    fn visit_sees_overflow_and_early_exits() {
        let mut tree = grid_tree(8);
        tree.insert(Rect::new(45, 45, 55, 55), (77, 77)); // lands in overflow
        let windows = [
            Rect::new(0, 0, 800, 800),
            Rect::new(50, 50, 350, 150),
            Rect::new(-100, -100, -1, -1),
        ];
        for w in windows {
            assert_eq!(query_set(&tree, w), scan_set(&tree, w), "window {w}");
        }
        assert!(query_set(&tree, Rect::new(50, 50, 51, 51)).contains(&(77, 77)));
        // Early exit: stop after the first hit.
        let mut count = 0;
        let stopped = !tree.visit(Rect::new(0, 0, 800, 800), &mut |_, _| {
            count += 1;
            false
        });
        assert!(stopped);
        assert_eq!(count, 1);
    }

    #[test]
    fn clear_empties_but_stays_usable() {
        let mut tree = grid_tree(4);
        tree.insert(Rect::new(0, 0, 5, 5), (9, 9));
        tree.clear();
        assert!(tree.is_empty());
        assert!(!tree.any_touching(Rect::new(0, 0, 1000, 1000)));
        tree.insert(Rect::new(1, 1, 2, 2), (1, 1));
        tree.rebuild();
        assert!(tree.any_touching(Rect::new(0, 0, 3, 3)));
    }

    #[test]
    fn large_random_matches_brute_force() {
        // Deterministic pseudo-random rectangles via an LCG.
        let mut state: u64 = 0x1234_5678;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let items: Vec<(Rect, usize)> = (0..500)
            .map(|k| {
                let x = rnd() % 10_000;
                let y = rnd() % 10_000;
                let w = rnd() % 300;
                let h = rnd() % 300;
                (Rect::new(x, y, x + w, y + h), k)
            })
            .collect();
        let tree = RTree::bulk_load(items.clone());
        for _ in 0..20 {
            let x = rnd() % 10_000;
            let y = rnd() % 10_000;
            let w = Rect::new(x, y, x + rnd() % 1000, y + rnd() % 1000);
            let mut expect: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.touches(w))
                .map(|&(_, k)| k)
                .collect();
            expect.sort_unstable();
            assert_eq!(query_set(&tree, w), expect);
        }
    }
}
