//! Bug reports produced by the checker.

use crate::ubcond::UbKind;
use serde::Serialize;
use stack_ir::Origin;

/// Which of the checker's algorithms produced a report (Figure 17 breaks
/// reports down along this axis).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Algorithm {
    /// Unreachable-code elimination under the well-defined assumption (§3.2.2).
    Elimination,
    /// Simplification with the boolean oracle (§3.2.3).
    SimplifyBoolean,
    /// Simplification with the algebra oracle (§3.2.3).
    SimplifyAlgebra,
}

impl Algorithm {
    /// Display name matching Figure 17's rows.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Elimination => "elimination",
            Algorithm::SimplifyBoolean => "simplification (boolean oracle)",
            Algorithm::SimplifyAlgebra => "simplification (algebra oracle)",
        }
    }
}

/// One undefined-behavior condition implicated in a report (an element of the
/// minimal UB set of §4.5).
#[derive(Clone, Debug, Serialize, PartialEq, Eq)]
pub struct UbSource {
    pub kind: UbKind,
    /// Source location of the instruction carrying the UB condition.
    pub location: String,
}

/// A report of unstable code.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct BugReport {
    /// Function containing the unstable fragment.
    pub function: String,
    /// Source file.
    pub file: String,
    /// Source line of the unstable fragment.
    pub line: u32,
    /// Which algorithm found it.
    pub algorithm: Algorithm,
    /// Human-readable description (what would be discarded / simplified).
    pub description: String,
    /// The minimal set of UB conditions that make the fragment unstable.
    pub ub_sources: Vec<UbSource>,
    /// Whether the fragment came from a macro expansion (such reports are
    /// suppressed by default, §4.2).
    pub compiler_generated: bool,
}

impl BugReport {
    /// Location string `file:line`.
    pub fn location(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }

    /// Whether this report involves a given kind of undefined behavior.
    pub fn involves(&self, kind: UbKind) -> bool {
        self.ub_sources.iter().any(|s| s.kind == kind)
    }
}

impl std::fmt::Display for BugReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: unstable code in `{}` [{}]",
            self.location(),
            self.function,
            self.algorithm.name()
        )?;
        writeln!(f, "  {}", self.description)?;
        for src in &self.ub_sources {
            writeln!(f, "  due to {} at {}", src.kind.description(), src.location)?;
        }
        Ok(())
    }
}

/// Convert an IR origin in the module compiled from `file` to a (file,
/// line, compiler_generated) triple. An unknown origin has no file.
pub fn origin_info(origin: &Origin, file: &str) -> (String, u32, bool) {
    (
        origin.loc.file(file).to_string(),
        origin.loc.line,
        !origin.is_programmer_written(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_and_helpers() {
        let report = BugReport {
            function: "tun_chr_poll".to_string(),
            file: "tun.c".to_string(),
            line: 5,
            algorithm: Algorithm::Elimination,
            description: "the return statement becomes unreachable".to_string(),
            ub_sources: vec![UbSource {
                kind: UbKind::NullPointerDereference,
                location: "tun.c:3".to_string(),
            }],
            compiler_generated: false,
        };
        assert_eq!(report.location(), "tun.c:5");
        assert!(report.involves(UbKind::NullPointerDereference));
        assert!(!report.involves(UbKind::PointerOverflow));
        let text = report.to_string();
        assert!(text.contains("unstable code"));
        assert!(text.contains("null pointer dereference"));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"algorithm\":\"Elimination\""));
    }

    #[test]
    fn algorithm_names_match_figure17() {
        assert_eq!(Algorithm::Elimination.name(), "elimination");
        assert!(Algorithm::SimplifyBoolean.name().contains("boolean"));
        assert!(Algorithm::SimplifyAlgebra.name().contains("algebra"));
    }
}
