//! The violation sink — how DRC results leave the engine.
//!
//! Every check in [`DrcEngine`](crate::DrcEngine) reports violations
//! through a [`DrcSink`], which decides whether the check goes on after
//! one: [`DrcSink::First`] stops the engine at the first violation and
//! keeps it (the form every accept/reject decision uses), [`DrcSink::All`]
//! collects every violation.

use crate::violation::DrcViolation;

/// Receives violations from the engine's check methods, in one of two
/// modes. Check methods return `false` iff the sink stopped them, which a
/// first-mode sink does at its first violation: in that mode a check's
/// return value is its clean verdict.
#[derive(Debug)]
pub enum DrcSink {
    /// Stops the check at the first violation and keeps it.
    First(Option<DrcViolation>),
    /// Collects every violation and never stops the check.
    All(Vec<DrcViolation>),
}

impl DrcSink {
    /// A first-mode sink that has seen no violation.
    #[must_use]
    pub fn first() -> DrcSink {
        DrcSink::First(None)
    }

    /// A collect-all sink that has seen no violation.
    #[must_use]
    pub fn all() -> DrcSink {
        DrcSink::All(Vec::new())
    }

    /// Accepts one violation; returns `false` to stop the check.
    pub(crate) fn report(&mut self, v: DrcViolation) -> bool {
        match self {
            DrcSink::First(first) => {
                first.get_or_insert(v);
                false
            }
            DrcSink::All(all) => {
                all.push(v);
                true
            }
        }
    }

    /// The violations kept so far (at most one in first mode), in
    /// report order.
    #[must_use]
    pub fn violations(&self) -> &[DrcViolation] {
        match self {
            DrcSink::First(first) => first.as_slice(),
            DrcSink::All(all) => all,
        }
    }

    /// `true` when no violation was reported.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// The kept violations, consuming the sink.
    #[must_use]
    pub fn into_violations(self) -> Vec<DrcViolation> {
        match self {
            DrcSink::First(first) => first.into_iter().collect(),
            DrcSink::All(all) => all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::RuleKind;
    use pao_geom::Rect;
    use pao_tech::LayerId;

    fn v(rule: RuleKind) -> DrcViolation {
        DrcViolation::new(rule, LayerId(0), Rect::new(0, 0, 1, 1))
    }

    #[test]
    fn all_mode_keeps_everything_and_continues() {
        let mut sink = DrcSink::all();
        assert!(sink.is_clean());
        assert!(sink.report(v(RuleKind::Short)));
        assert!(sink.report(v(RuleKind::MinStep)));
        assert!(!sink.is_clean());
        assert_eq!(
            sink.into_violations(),
            vec![v(RuleKind::Short), v(RuleKind::MinStep)]
        );
    }

    #[test]
    fn first_mode_stops_and_keeps_the_first() {
        let mut sink = DrcSink::first();
        assert!(sink.is_clean());
        assert!(!sink.report(v(RuleKind::Short)));
        assert!(!sink.report(v(RuleKind::MinStep)));
        assert!(!sink.is_clean());
        assert_eq!(sink.violations(), &[v(RuleKind::Short)]);
        assert_eq!(sink.into_violations(), vec![v(RuleKind::Short)]);
    }
}
