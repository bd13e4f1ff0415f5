//! Tiny dependency-free argument parser.

/// Parsed command-line arguments: positionals in order, `--flag` booleans,
/// and `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<String>,
    values: Vec<(String, String)>,
}

/// Options that take a value (everything else starting with `--` is a
/// boolean flag).
const VALUE_OPTS: [&str; 35] = [
    "--threads",
    "--k",
    "--report",
    "--svg",
    "--lef",
    "--def",
    "--out",
    "--case",
    "--trace",
    "--inject-fault",
    "--inject-stall",
    "--deadline-ms",
    "--checkpoint",
    "--watchdog-ms",
    "--dump-selection",
    "--pin",
    "--inst",
    "--top",
    "--heatmap",
    "--socket",
    "--tcp",
    "--request",
    "--dir",
    "--timeout-ms",
    "--max-frame-bytes",
    "--max-conns",
    "--max-requests",
    "--idle-ms",
    "--max-inflight",
    "--journal",
    "--seed",
    "--clients",
    "--duration-ms",
    "--count",
    "--mode",
];

impl Args {
    /// Parses a raw argument vector.
    #[must_use]
    pub fn parse(raw: Vec<String>) -> Args {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some((k, v)) = a.split_once('=') {
                if k.starts_with("--") {
                    out.values.push((k.to_owned(), v.to_owned()));
                    continue;
                }
            }
            if VALUE_OPTS.contains(&a.as_str()) {
                match it.next() {
                    Some(v) => out.values.push((a, v)),
                    // A value option at the end of the line: record it as
                    // a bare flag so the command can reject the invocation
                    // as a usage error instead of silently ignoring it.
                    None => out.flags.push(a),
                }
            } else if a.starts_with("--") {
                out.flags.push(a);
            } else {
                out.positionals.push(a);
            }
        }
        out
    }

    /// `true` when value option `--name` appeared *without* its value —
    /// the caller should treat this as a usage error.
    #[must_use]
    pub fn value_missing(&self, name: &str) -> bool {
        self.flag(name) && self.value(name).is_none()
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message when missing.
    pub fn positional(&self, i: usize) -> Result<&str, String> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument #{}", i + 1))
    }

    /// `true` when `--name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value` or `--name=value`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("analyze tech.lef top.def --no-bca");
        assert_eq!(a.positional(0).unwrap(), "analyze");
        assert_eq!(a.positional(1).unwrap(), "tech.lef");
        assert_eq!(a.positional(2).unwrap(), "top.def");
        assert!(a.flag("--no-bca"));
        assert!(!a.flag("--naive"));
        assert!(a.positional(3).is_err());
    }

    #[test]
    fn values_space_and_equals() {
        let a = parse("analyze x y --threads 4 --report=out.txt");
        assert_eq!(a.value("--threads"), Some("4"));
        assert_eq!(a.value("--report"), Some("out.txt"));
        assert_eq!(a.value("--k"), None);
        let b = parse("bench --case ispd18s_test2 --out bench.json");
        assert_eq!(b.value("--case"), Some("ispd18s_test2"));
        assert!(b.positional(1).is_err());
    }

    #[test]
    fn ledger_command_value_opts() {
        let a = parse("explain x y --pin u42/A");
        assert_eq!(a.value("--pin"), Some("u42/A"));
        let b = parse("report x y --top 5 --heatmap h.svg --inst u3");
        assert_eq!(b.value("--top"), Some("5"));
        assert_eq!(b.value("--heatmap"), Some("h.svg"));
        assert_eq!(b.value("--inst"), Some("u3"));
    }

    #[test]
    fn svg_spec_keeps_colon() {
        let a = parse("analyze x y --svg u42:cell.svg");
        assert_eq!(a.value("--svg"), Some("u42:cell.svg"));
    }

    #[test]
    fn missing_value_is_dropped_gracefully() {
        let a = parse("gen smoke --lef");
        assert_eq!(a.value("--lef"), None);
        // … but detectably, so commands can emit a usage error.
        assert!(a.value_missing("--lef"));
        let b = parse("gen smoke --lef out.lef");
        assert!(!b.value_missing("--lef"));
    }
}
