//! DEF placement orientations.

use std::fmt;
use std::str::FromStr;

/// The eight DEF placement orientations.
///
/// Named after DEF keywords: `N` (R0), `S` (R180), `W` (R90), `E` (R270),
/// and their y-axis-mirrored variants `FN` (MY), `FS` (MX), `FW` (MX90),
/// `FE` (MY90). The LEF/DEF reference defines these as the rotation applied
/// to the cell master before placing its (new) lower-left corner at the
/// placement point.
///
/// ```
/// use pao_geom::Orient;
/// assert_eq!("FS".parse::<Orient>().unwrap(), Orient::FS);
/// assert_eq!(Orient::N.to_string(), "N");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Orient {
    /// R0 — no rotation.
    #[default]
    N,
    /// R180.
    S,
    /// R90 (counter-clockwise).
    W,
    /// R270.
    E,
    /// MY — mirrored about the y axis.
    FN,
    /// MX — mirrored about the x axis.
    FS,
    /// MX90.
    FW,
    /// MY90.
    FE,
}

/// Error returned when parsing an unknown orientation keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOrientError(pub String);

impl fmt::Display for ParseOrientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown orientation keyword `{}`", self.0)
    }
}

impl std::error::Error for ParseOrientError {}

impl Orient {
    /// All eight orientations, in DEF enumeration order.
    pub const ALL: [Orient; 8] = [
        Orient::N,
        Orient::W,
        Orient::S,
        Orient::E,
        Orient::FN,
        Orient::FW,
        Orient::FS,
        Orient::FE,
    ];

    /// The four orientations that preserve row alignment for single-height
    /// standard cells (no 90° rotation).
    pub const ROW_ORIENTS: [Orient; 4] = [Orient::N, Orient::S, Orient::FN, Orient::FS];

    /// `true` when the orientation involves a 90°/270° rotation (swaps the
    /// cell's width and height).
    #[must_use]
    pub fn swaps_axes(self) -> bool {
        matches!(self, Orient::W | Orient::E | Orient::FW | Orient::FE)
    }

    /// The LEF/DEF keyword for this orientation.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Orient::N => "N",
            Orient::S => "S",
            Orient::W => "W",
            Orient::E => "E",
            Orient::FN => "FN",
            Orient::FS => "FS",
            Orient::FW => "FW",
            Orient::FE => "FE",
        }
    }
}

impl FromStr for Orient {
    type Err = ParseOrientError;

    fn from_str(s: &str) -> Result<Orient, ParseOrientError> {
        Ok(match s {
            "N" | "R0" => Orient::N,
            "S" | "R180" => Orient::S,
            "W" | "R90" => Orient::W,
            "E" | "R270" => Orient::E,
            "FN" | "MY" => Orient::FN,
            "FS" | "MX" => Orient::FS,
            "FW" | "MX90" => Orient::FW,
            "FE" | "MY90" => Orient::FE,
            other => return Err(ParseOrientError(other.to_owned())),
        })
    }
}

impl fmt::Display for Orient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_def_and_lef_spellings() {
        assert_eq!("N".parse::<Orient>().unwrap(), Orient::N);
        assert_eq!("R180".parse::<Orient>().unwrap(), Orient::S);
        assert_eq!("MX".parse::<Orient>().unwrap(), Orient::FS);
        assert_eq!("MY".parse::<Orient>().unwrap(), Orient::FN);
        assert!("Q".parse::<Orient>().is_err());
    }

    #[test]
    fn parse_error_message() {
        let err = "BOGUS".parse::<Orient>().unwrap_err();
        assert_eq!(err.to_string(), "unknown orientation keyword `BOGUS`");
    }

    #[test]
    fn axis_swap_classification() {
        for o in Orient::ALL {
            assert_eq!(
                o.swaps_axes(),
                matches!(o, Orient::W | Orient::E | Orient::FW | Orient::FE)
            );
        }
        for o in Orient::ROW_ORIENTS {
            assert!(!o.swaps_axes());
        }
    }

    #[test]
    fn roundtrip_display_parse() {
        for o in Orient::ALL {
            assert_eq!(o.as_str().parse::<Orient>().unwrap(), o);
        }
    }
}
