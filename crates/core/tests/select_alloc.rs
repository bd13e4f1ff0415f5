//! Allocation regression gate for the cluster-selection fast path.
//!
//! The steady-state selection loop — near-boundary collection, DP rows
//! and pairwise via probes — runs entirely out of
//! [`SelectScratch`]'s reused buffers. This test drives `solve_group`
//! twice over the same workload with a warm scratch and asserts the
//! second pass performs **zero** heap allocations, using a counting
//! wrapper around the system allocator.

use pao_core::cluster::{
    build_clusters, conflict_reach, group_clusters, pair_reach, solve_group, SelectScratch,
    SelectTelemetry,
};
use pao_core::{PinAccessOracle, UniqueInstanceAccess};
use pao_design::{Component, Design, TrackPattern};
use pao_drc::DrcEngine;
use pao_geom::{Dir, Orient, Point, Rect};
use pao_tech::rules::MinStepRule;
use pao_tech::{Layer, Macro, Pin, PinDir, Port, Tech, ViaDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations (not frees — a free-only path is still
/// allocation-free in the sense we gate on).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A row of abutting 2-pin cells: one cluster, many boundary edges, so
/// the counted pass exercises the DP and the probe loop.
fn world() -> (Tech, Design) {
    let mut t = Tech::new(1000);
    let mut m1 = Layer::routing("M1", Dir::Horizontal, 200, 60, 70);
    m1.min_step = Some(MinStepRule::simple(60));
    let m1 = t.add_layer(m1);
    let v1 = t.add_layer(Layer::cut("V1", 70, 80));
    let m2 = t.add_layer(Layer::routing("M2", Dir::Vertical, 200, 60, 70));
    let mut via = ViaDef::new(
        "via1_0",
        m1,
        vec![Rect::new(-65, -35, 65, 35)],
        v1,
        vec![Rect::new(-35, -35, 35, 35)],
        m2,
        vec![Rect::new(-35, -65, 35, 65)],
    );
    via.is_default = true;
    t.add_via(via);
    // Pins hug the cell edges so their access points land within
    // `conflict_reach` of the shared boundaries — every DP edge then
    // has via pairs to probe.
    let mut cell = Macro::new("BUFX1", 1200, 1400);
    cell.pins.push(Pin::new(
        "A",
        PinDir::Input,
        vec![Port::rects(m1, vec![Rect::new(35, 100, 185, 900)])],
    ));
    cell.pins.push(Pin::new(
        "Y",
        PinDir::Output,
        vec![Port::rects(m1, vec![Rect::new(1015, 100, 1165, 900)])],
    ));
    t.add_macro(cell);

    let mut d = Design::new("alloc_row", Rect::new(0, 0, 40_000, 20_000));
    d.tracks
        .push(TrackPattern::new(Dir::Horizontal, 100, 200, 90, vec![m1]));
    d.tracks
        .push(TrackPattern::new(Dir::Vertical, 100, 200, 90, vec![m2]));
    for i in 0..8i64 {
        d.add_component(Component::new(
            format!("u{i}"),
            "BUFX1",
            Point::new(200 + 1200 * i, 0),
            Orient::N,
        ));
    }
    (t, d)
}

/// One full selection pass over every group with a shared warm scratch,
/// mirroring one worker of the `select.group` fan-out.
#[allow(clippy::too_many_arguments)]
fn run_selection(
    t: &Tech,
    engine: &DrcEngine<'_>,
    d: &Design,
    comp_uniq: &[Option<pao_core::UniqueInstanceId>],
    uniq: &[UniqueInstanceAccess],
    groups: &[Vec<usize>],
    clusters: &[pao_core::Cluster],
    local: &mut HashMap<usize, Option<usize>>,
    scratch: &mut SelectScratch,
) -> SelectTelemetry {
    let reach = conflict_reach(t);
    let far = pair_reach(t, engine);
    let mut tel = SelectTelemetry::default();
    for group in groups {
        local.clear();
        tel.absorb(&solve_group(
            t, engine, d, comp_uniq, uniq, reach, far, clusters, group, local, scratch,
        ));
    }
    tel
}

#[test]
fn warm_selection_pass_allocates_nothing() {
    let (t, d) = world();
    // Upstream phases (apgen + patterns) may allocate freely; they run
    // once and hand the selection phase its immutable inputs.
    let result = PinAccessOracle::new().analyze(&t, &d);
    let engine = DrcEngine::new(&t);
    let clusters = build_clusters(&t, &d);
    let groups = group_clusters(&clusters, d.components().len());
    let mut local: HashMap<usize, Option<usize>> = HashMap::new();
    let mut scratch = SelectScratch::new(t.layers().len());

    // Warm pass: grows every scratch buffer to its high-water mark.
    let warm = run_selection(
        &t,
        &engine,
        &d,
        &result.comp_uniq,
        &result.unique,
        &groups,
        &clusters,
        &mut local,
        &mut scratch,
    );
    assert!(
        warm.edges > 0 && warm.probes > 0,
        "fixture too trivial to exercise the probe path: {warm:?}"
    );

    // Counted pass: identical work, zero allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    let counted = run_selection(
        &t,
        &engine,
        &d,
        &result.comp_uniq,
        &result.unique,
        &groups,
        &clusters,
        &mut local,
        &mut scratch,
    );
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(counted, warm, "warm pass changed the outcome");
    assert_eq!(
        allocs, 0,
        "warm selection pass allocated {allocs} times (scratch reuse regressed)"
    );
}
