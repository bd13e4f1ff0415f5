//! Owned shape sets — the DRC context.

use pao_geom::{RTree, Rect};
use pao_tech::LayerId;
use std::fmt;

/// Identifies who a shape belongs to, deciding which pairs of shapes can
/// conflict. Two shapes with the **same owner** never conflict (they are,
/// or will become, electrically connected); everything else is checked.
///
/// The `u32` payloads are opaque to the engine — callers choose a scheme
/// (pin index within a unique instance, net id, component id, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Owner {
    /// A pin, identified by an opaque id (e.g. `comp << 8 | pin_index`).
    Pin(u64),
    /// An obstruction belonging to component `id`. Obstructions conflict
    /// with everything, including each other.
    Obs(u64),
    /// A routed net.
    Net(u64),
    /// A fixed blockage (die margin, macro halo).
    Blockage,
}

impl Owner {
    /// Convenience constructor for pin owners.
    #[must_use]
    pub fn pin(id: u64) -> Owner {
        Owner::Pin(id)
    }

    /// Convenience constructor for obstruction owners.
    #[must_use]
    pub fn obs(id: u64) -> Owner {
        Owner::Obs(id)
    }

    /// Convenience constructor for net owners.
    #[must_use]
    pub fn net(id: u64) -> Owner {
        Owner::Net(id)
    }

    /// `true` when shapes of `self` and `other` must satisfy spacing rules
    /// against each other.
    #[must_use]
    pub fn conflicts_with(self, other: Owner) -> bool {
        match (self, other) {
            (Owner::Obs(_), Owner::Obs(_)) => true,
            (Owner::Blockage, Owner::Blockage) => true,
            (a, b) => a != b,
        }
    }
}

impl fmt::Display for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Owner::Pin(id) => write!(f, "pin#{id}"),
            Owner::Obs(id) => write!(f, "obs#{id}"),
            Owner::Net(id) => write!(f, "net#{id}"),
            Owner::Blockage => write!(f, "blockage"),
        }
    }
}

/// A per-layer spatial index of owned shapes — the context the DRC engine
/// checks candidates against.
///
/// ```
/// use pao_drc::{Owner, ShapeSet};
/// use pao_geom::Rect;
/// use pao_tech::LayerId;
///
/// let mut ctx = ShapeSet::new(2);
/// ctx.insert(LayerId(0), Rect::new(0, 0, 10, 10), Owner::pin(1));
/// let mut hits = Vec::new();
/// for layer in [LayerId(0), LayerId(1)] {
///     ctx.for_each_in(layer, Rect::new(5, 5, 6, 6), |r, o| {
///         hits.push((layer, r, o));
///         true
///     });
/// }
/// assert_eq!(hits, [(LayerId(0), Rect::new(0, 0, 10, 10), Owner::pin(1))]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShapeSet {
    layers: Vec<RTree<Owner>>,
}

impl ShapeSet {
    /// Creates an empty set able to hold shapes on `num_layers` layers.
    #[must_use]
    pub fn new(num_layers: usize) -> ShapeSet {
        ShapeSet {
            layers: (0..num_layers).map(|_| RTree::new()).collect(),
        }
    }

    /// Number of layers the set spans.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of shapes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.iter().map(RTree::len).sum()
    }

    /// `true` when the set holds no shapes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a shape.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn insert(&mut self, layer: LayerId, rect: Rect, owner: Owner) {
        self.layers[layer.index()].insert(rect, owner);
    }

    /// Inserts a shape without the automatic repack of
    /// [`ShapeSet::insert`] — the bulk-fill form. A fill of `n` shapes
    /// stays O(n) instead of paying repeated intermediate tree packs;
    /// call [`ShapeSet::rebuild`] once when the fill is complete.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn insert_deferred(&mut self, layer: LayerId, rect: Rect, owner: Owner) {
        self.layers[layer.index()].defer_insert(rect, owner);
    }

    /// Bulk-inserts shapes and repacks the indexes (call once after filling
    /// a large context).
    pub fn rebuild(&mut self) {
        for t in &mut self.layers {
            t.rebuild();
        }
    }

    /// All shapes on a layer.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn iter_layer(&self, layer: LayerId) -> impl Iterator<Item = (Rect, Owner)> + '_ {
        self.layers[layer.index()].iter().map(|&(r, o)| (r, o))
    }

    /// Calls `f` for every shape on `layer` touching `window` (shared
    /// edges count), without allocating. `f` returns `false` to stop the
    /// walk; the method returns `false` iff the walk was stopped.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn for_each_in<F: FnMut(Rect, Owner) -> bool>(
        &self,
        layer: LayerId,
        window: Rect,
        mut f: F,
    ) -> bool {
        self.layers[layer.index()].visit(window, &mut |r, &o| f(r, o))
    }

    /// [`ShapeSet::for_each_in`] over the shapes whose owner conflicts
    /// with `owner`.
    pub fn for_each_conflict<F: FnMut(Rect, Owner) -> bool>(
        &self,
        layer: LayerId,
        window: Rect,
        owner: Owner,
        mut f: F,
    ) -> bool {
        self.for_each_in(layer, window, |r, o| {
            if o.conflicts_with(owner) {
                f(r, o)
            } else {
                true
            }
        })
    }

    /// [`ShapeSet::for_each_in`] over the shapes with exactly the given
    /// owner — the "friendly" metal that merges with a candidate.
    pub fn for_each_friend<F: FnMut(Rect) -> bool>(
        &self,
        layer: LayerId,
        window: Rect,
        owner: Owner,
        mut f: F,
    ) -> bool {
        self.for_each_in(layer, window, |r, o| if o == owner { f(r) } else { true })
    }

    /// Removes every shape from every layer, keeping the allocated trees
    /// so a reused context does not re-allocate. Pairs with a scratch
    /// [`ShapeSet`] rebuilt per work item.
    pub fn clear(&mut self) {
        for t in &mut self.layers {
            t.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(s: &ShapeSet, layer: LayerId, window: Rect) -> usize {
        let mut n = 0;
        s.for_each_in(layer, window, |_, _| {
            n += 1;
            true
        });
        n
    }

    #[test]
    fn owner_conflict_matrix() {
        assert!(!Owner::pin(1).conflicts_with(Owner::pin(1)));
        assert!(Owner::pin(1).conflicts_with(Owner::pin(2)));
        assert!(Owner::pin(1).conflicts_with(Owner::obs(1)));
        assert!(Owner::obs(1).conflicts_with(Owner::obs(1)));
        assert!(!Owner::net(9).conflicts_with(Owner::net(9)));
        assert!(Owner::net(9).conflicts_with(Owner::Blockage));
        assert!(Owner::Blockage.conflicts_with(Owner::Blockage));
    }

    #[test]
    fn per_layer_query() {
        let mut s = ShapeSet::new(3);
        s.insert(LayerId(0), Rect::new(0, 0, 10, 10), Owner::pin(1));
        s.insert(LayerId(2), Rect::new(0, 0, 10, 10), Owner::net(4));
        assert_eq!(s.len(), 2);
        assert_eq!(count(&s, LayerId(0), Rect::new(0, 0, 5, 5)), 1);
        assert_eq!(count(&s, LayerId(1), Rect::new(0, 0, 5, 5)), 0);
        assert_eq!(count(&s, LayerId(2), Rect::new(0, 0, 5, 5)), 1);
    }

    #[test]
    fn clear_keeps_layers_but_drops_shapes() {
        let mut s = ShapeSet::new(2);
        s.insert(LayerId(0), Rect::new(0, 0, 10, 10), Owner::pin(1));
        s.insert(LayerId(1), Rect::new(0, 0, 10, 10), Owner::pin(2));
        s.rebuild();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.num_layers(), 2);
        s.insert(LayerId(0), Rect::new(0, 0, 5, 5), Owner::pin(3));
        assert_eq!(count(&s, LayerId(0), Rect::new(0, 0, 9, 9)), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_layer_panics() {
        let s = ShapeSet::new(1);
        let _ = count(&s, LayerId(5), Rect::new(0, 0, 1, 1));
    }
}
