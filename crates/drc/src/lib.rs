#![warn(missing_docs)]

//! Design-rule check engine for the PAAF pin access framework.
//!
//! The engine checks the rule subset that dominates pin access in the
//! paper's ISPD-2018-style technologies:
//!
//! * metal-to-metal **spacing** (simple value and width/PRL
//!   [`SpacingTable`](pao_tech::SpacingTable), including corner-to-corner),
//! * **shorts** (overlap between shapes of different owners),
//! * **min-step** on merged pin+via geometry (the Fig. 3 failure mode),
//! * **min-area** and **min-width** of merged metal,
//! * **end-of-line** spacing,
//! * **cut spacing** between via cuts, and
//! * cut **enclosure** by the surrounding metal.
//!
//! Shapes live in a per-layer [`ShapeSet`] with an [`Owner`] tag; shapes of
//! the same owner never conflict (they are assumed to be, or become, the
//! same net). [`DrcEngine::via_placement_clean`] answers the framework's
//! central question — *can this via land here DRC-free?* Every check
//! reports through a [`DrcSink`], which either stops at the first
//! violation or collects them all.
//!
//! # Examples
//!
//! ```
//! use pao_drc::{DrcEngine, DrcSink, Owner, RuleKind, ShapeSet};
//! use pao_geom::{Dir, Point, Rect};
//! use pao_tech::{Layer, Tech};
//!
//! let mut tech = Tech::new(1000);
//! let m1 = tech.add_layer(Layer::routing("M1", Dir::Horizontal, 200, 60, 70));
//! let mut ctx = ShapeSet::new(1);
//! ctx.insert(m1, Rect::new(0, 0, 300, 60), Owner::obs(0));
//!
//! let engine = DrcEngine::new(&tech);
//! // A shape 10 away from the obstruction violates the 70 spacing: a
//! // first-mode sink stops the check there and keeps the violation.
//! let mut sink = DrcSink::first();
//! let clean = engine.check_shape(m1, Rect::new(0, 70, 300, 130), Owner::net(0), &ctx, &mut sink);
//! assert!(!clean);
//! assert_eq!(sink.violations()[0].rule, RuleKind::MetalSpacing);
//! ```

pub mod engine;
pub mod scratch;
pub mod shapes;
pub mod sink;
pub mod violation;

pub use engine::DrcEngine;
pub use scratch::DrcScratch;
pub use shapes::{Owner, ShapeSet};
pub use sink::DrcSink;
pub use violation::{reject_label, DrcViolation, RejectInfo, RuleKind, SubCheck};
