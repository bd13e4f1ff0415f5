//! DRC violation records.

use pao_geom::Rect;
use pao_tech::LayerId;
use std::fmt;

/// The rule class a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleKind {
    /// Two different-owner shapes overlap.
    Short,
    /// Metal-to-metal spacing (simple or table).
    MetalSpacing,
    /// Minimum width of merged metal.
    MinWidth,
    /// Minimum step (short boundary edges of merged metal).
    MinStep,
    /// Minimum area of merged metal.
    MinArea,
    /// End-of-line spacing.
    EolSpacing,
    /// Cut-to-cut spacing.
    CutSpacing,
    /// Cut not sufficiently enclosed by metal.
    Enclosure,
    /// Shape lies outside the die / allowed region.
    OutOfBounds,
}

impl RuleKind {
    /// Stable numeric code (declaration order) for decision-ledger
    /// records — `pao-obs` stores raw bytes and cannot name this enum.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a ledger `rule` byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<RuleKind> {
        Some(match code {
            0 => RuleKind::Short,
            1 => RuleKind::MetalSpacing,
            2 => RuleKind::MinWidth,
            3 => RuleKind::MinStep,
            4 => RuleKind::MinArea,
            5 => RuleKind::EolSpacing,
            6 => RuleKind::CutSpacing,
            7 => RuleKind::Enclosure,
            8 => RuleKind::OutOfBounds,
            _ => return None,
        })
    }
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleKind::Short => "short",
            RuleKind::MetalSpacing => "metal spacing",
            RuleKind::MinWidth => "min width",
            RuleKind::MinStep => "min step",
            RuleKind::MinArea => "min area",
            RuleKind::EolSpacing => "end-of-line spacing",
            RuleKind::CutSpacing => "cut spacing",
            RuleKind::Enclosure => "enclosure",
            RuleKind::OutOfBounds => "out of bounds",
        };
        f.write_str(s)
    }
}

/// Which stage of a via-placement probe a rejection came from.
///
/// [`via_placement_clean`](crate::DrcEngine::via_placement_clean) runs
/// its sub-checks cheapest-first; the sub-check that fired is half of a
/// reject's attribution (the other half being the [`RuleKind`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubCheck {
    /// Cut-layer spacing/short check of the via's cut shapes.
    #[default]
    Cut,
    /// Bottom-enclosure spacing/short/EOL check.
    Bottom,
    /// Top-enclosure spacing/short/EOL/min-width check.
    Top,
    /// Merged-geometry (pin + enclosure union) min-step/width/area check.
    Merged,
    /// The O(1) definite-reject test proved the merged check would fail.
    DefiniteReject,
}

impl SubCheck {
    /// Stable numeric code for decision-ledger records.
    #[must_use]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a ledger `subcheck` byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<SubCheck> {
        Some(match code {
            0 => SubCheck::Cut,
            1 => SubCheck::Bottom,
            2 => SubCheck::Top,
            3 => SubCheck::Merged,
            4 => SubCheck::DefiniteReject,
            _ => return None,
        })
    }
}

impl fmt::Display for SubCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubCheck::Cut => "cut",
            SubCheck::Bottom => "bottom",
            SubCheck::Top => "top",
            SubCheck::Merged => "merged",
            SubCheck::DefiniteReject => "definite-reject",
        };
        f.write_str(s)
    }
}

/// Presentation name of a decision-ledger reject attribution: the rule
/// and the sub-check it fired in. Undecodable codes (the ledger's
/// no-code sentinel) mean no via candidate existed at all, so there was
/// no rule to blame.
#[must_use]
pub fn reject_label(rule: u8, subcheck: u8) -> String {
    match (RuleKind::from_code(rule), SubCheck::from_code(subcheck)) {
        (Some(r), Some(s)) => format!("{r} ({s})"),
        (Some(r), None) => r.to_string(),
        _ => "no via candidate".to_owned(),
    }
}

/// Attribution of one rejected probe: the rule that fired and the
/// sub-check it fired in. Stored in [`DrcScratch`](crate::DrcScratch)
/// after every rejected via probe, for decision-ledger recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectInfo {
    /// Violated rule class.
    pub rule: RuleKind,
    /// Sub-check that detected it.
    pub subcheck: SubCheck,
}

impl fmt::Display for RejectInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.rule, self.subcheck)
    }
}

/// A single DRC violation with a geometric marker.
///
/// ```
/// use pao_drc::{DrcViolation, RuleKind};
/// use pao_geom::Rect;
/// use pao_tech::LayerId;
///
/// let v = DrcViolation::new(RuleKind::Short, LayerId(0), Rect::new(0, 0, 10, 10));
/// assert_eq!(v.to_string(), "short on L0 at (0, 0) - (10, 10)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrcViolation {
    /// Violated rule class.
    pub rule: RuleKind,
    /// Layer the violation occurs on.
    pub layer: LayerId,
    /// Marker rectangle locating the violation.
    pub marker: Rect,
}

impl DrcViolation {
    /// Creates a violation record.
    #[must_use]
    pub fn new(rule: RuleKind, layer: LayerId, marker: Rect) -> DrcViolation {
        DrcViolation {
            rule,
            layer,
            marker,
        }
    }
}

impl fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {} at {}", self.rule, self.layer, self.marker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let v = DrcViolation::new(RuleKind::MinStep, LayerId(2), Rect::new(1, 2, 3, 4));
        assert_eq!(v.to_string(), "min step on L2 at (1, 2) - (3, 4)");
    }

    #[test]
    fn codes_roundtrip() {
        for code in 0..=8u8 {
            assert_eq!(RuleKind::from_code(code).unwrap().code(), code);
        }
        assert_eq!(RuleKind::from_code(9), None);
        for code in 0..=4u8 {
            assert_eq!(SubCheck::from_code(code).unwrap().code(), code);
        }
        assert_eq!(SubCheck::from_code(5), None);
        let info = RejectInfo {
            rule: RuleKind::MinStep,
            subcheck: SubCheck::DefiniteReject,
        };
        assert_eq!(info.to_string(), "min step (definite-reject)");
    }

    #[test]
    fn rule_kinds_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(RuleKind::Short);
        set.insert(RuleKind::Short);
        assert_eq!(set.len(), 1);
        assert!(RuleKind::Short < RuleKind::MetalSpacing);
    }
}
