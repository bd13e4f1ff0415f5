//! Layout rendering.

use crate::svg::SvgDoc;
use pao_core::oracle::PaoResult;
use pao_design::{CompId, Design};
use pao_drc::{DrcViolation, ShapeSet};
use pao_geom::{Point, Rect};
use pao_tech::{LayerKind, Tech};

/// Rendering options.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Draw routing tracks as hairlines.
    pub tracks: bool,
    /// Draw cell outlines.
    pub cell_outlines: bool,
    /// Highest layer to draw (inclusive index into the tech stack);
    /// `None` draws everything.
    pub max_layer: Option<u32>,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            tracks: false,
            cell_outlines: true,
            max_layer: None,
        }
    }
}

/// Color for routing layer `i` (cycled palette, metal1 first).
fn layer_color(i: usize) -> &'static str {
    const PALETTE: [&str; 9] = [
        "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860", "#da8bc3", "#8c8c8c",
        "#ccb974",
    ];
    PALETTE[i % PALETTE.len()]
}

/// Renders a window of the design: cell outlines, pin/obs shapes, any
/// routed shapes, access-point markers and DRC markers (Fig. 8 style).
#[must_use]
pub fn render_window(
    tech: &Tech,
    design: &Design,
    shapes: Option<&ShapeSet>,
    aps: &[(Point, bool)],
    violations: &[DrcViolation],
    window: Rect,
    opts: &RenderOptions,
) -> String {
    let mut doc = SvgDoc::new(window);
    if opts.tracks {
        for t in &design.tracks {
            for c in t.coords() {
                match t.dir {
                    pao_geom::Dir::Horizontal => {
                        if window.y_span().contains(c) {
                            doc.line(
                                Point::new(window.xlo(), c),
                                Point::new(window.xhi(), c),
                                "#dddddd",
                                2,
                            );
                        }
                    }
                    pao_geom::Dir::Vertical => {
                        if window.x_span().contains(c) {
                            doc.line(
                                Point::new(c, window.ylo()),
                                Point::new(c, window.yhi()),
                                "#dddddd",
                                2,
                            );
                        }
                    }
                }
            }
        }
    }
    if opts.cell_outlines {
        for (ci, comp) in design.components().iter().enumerate() {
            if comp.master_in(tech).is_none() {
                continue;
            }
            let bbox = comp.bbox(tech);
            if bbox.touches(window) {
                doc.rect(bbox, "none", 0.0, Some("#bbbbbb"));
                let _ = ci;
            }
        }
    }
    match shapes {
        Some(set) => {
            for (li, layer) in tech.layers().iter().enumerate() {
                if opts.max_layer.is_some_and(|m| li as u32 > m) {
                    continue;
                }
                let opacity = if layer.kind == LayerKind::Cut {
                    0.95
                } else {
                    0.55
                };
                set.for_each_in(pao_tech::LayerId(li as u32), window, |r, _| {
                    doc.rect(r, layer_color(li / 2), opacity, None);
                    true
                });
            }
        }
        None => {
            // Static view: pin and obstruction shapes from the masters.
            for (ci, comp) in design.components().iter().enumerate() {
                let id = CompId(ci as u32);
                if comp.master_in(tech).is_none() || !comp.bbox(tech).touches(window) {
                    continue;
                }
                for (_, layer, r) in design.placed_pin_shapes(tech, id) {
                    if r.touches(window) {
                        doc.rect(r, layer_color(layer.index() / 2), 0.55, None);
                    }
                }
                for (layer, r) in design.placed_obs_shapes(tech, id) {
                    if r.touches(window) {
                        doc.rect(r, layer_color(layer.index() / 2), 0.25, None);
                    }
                }
            }
        }
    }
    // Access points: green = clean, orange = dirty.
    let ap_r = (window.width() / 150).max(4);
    for &(pos, clean) in aps {
        if window.contains(pos) {
            doc.circle(pos, ap_r, if clean { "#2ca02c" } else { "#ff7f0e" });
        }
    }
    // DRC markers: dashed red boxes (paper Fig. 8).
    for v in violations {
        if v.marker.touches(window) {
            doc.marker(
                v.marker.expanded(window.width() / 300),
                "#d62728",
                (window.width() / 200).max(4),
            );
        }
    }
    doc.finish()
}

/// Renders one placed instance with its selected access points
/// (Fig. 9 style: standard-cell pin accesses, off-track points visible).
#[must_use]
pub fn render_cell_access(
    tech: &Tech,
    design: &Design,
    result: &PaoResult,
    comp: CompId,
) -> String {
    let bbox = design.component(comp).bbox(tech);
    let window = bbox.expanded(bbox.height() / 6);
    let mut aps: Vec<(Point, bool)> = Vec::new();
    if let Some(master) = design.component(comp).master_in(tech) {
        for (pi, _) in master.pins.iter().enumerate() {
            if let Some(ap) = result.access_point(design, comp, pi) {
                aps.push((ap.pos, true));
            }
        }
    }
    render_window(
        tech,
        design,
        None,
        &aps,
        &[],
        window,
        &RenderOptions {
            tracks: true,
            ..RenderOptions::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_core::PinAccessOracle;
    use pao_testgen::{generate, SuiteCase};

    #[test]
    fn renders_static_window() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let window = Rect::new(0, 0, 20_000, 8_000);
        let svg = render_window(
            &tech,
            &design,
            None,
            &[],
            &[],
            window,
            &RenderOptions::default(),
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.matches("<rect").count() > 10, "shapes drawn");
    }

    #[test]
    fn renders_cell_with_access_points() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let result = PinAccessOracle::new().analyze(&tech, &design);
        let svg = render_cell_access(&tech, &design, &result, CompId(0));
        assert!(svg.contains("<circle"), "access points drawn");
        assert!(svg.contains("<line"), "tracks drawn");
    }
}
