//! Source locations and code origins.
//!
//! STACK must distinguish code the programmer wrote from code the compiler
//! generated (macro expansions); reports are only emitted for
//! programmer-written fragments (paper §4.2, §4.5). Every IR instruction
//! therefore carries an [`Origin`]: its source position plus the macro that
//! produced it, if any. A module comes from one file, so the file is said
//! once, as the module's name ([`crate::Module::name`]), and a location
//! holds only the line and column within it.

use std::fmt;

/// A position in the module's source file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SourceLoc {
    /// 1-based line number; 0 means unknown.
    pub line: u32,
    /// 1-based column number; 0 means unknown.
    pub column: u32,
}

impl SourceLoc {
    /// Create a location.
    pub fn new(line: u32, column: u32) -> SourceLoc {
        SourceLoc { line, column }
    }

    /// An unknown location.
    pub fn unknown() -> SourceLoc {
        SourceLoc::default()
    }

    /// Whether the location carries real position information.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }

    /// The file a location of a module named `module` lies in: the module's
    /// name, or the empty string for an unknown location (compiler-made
    /// code such as a promoted variable's phi).
    pub fn file<'m>(&self, module: &'m str) -> &'m str {
        if self.is_known() {
            module
        } else {
            ""
        }
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_known() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.line, self.column)
        }
    }
}

/// How a piece of IR came to exist.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OriginKind {
    /// Written directly by the programmer at the recorded location.
    #[default]
    Programmer,
    /// Produced by expanding the named macro. STACK suppresses reports whose
    /// unstable fragment originates from a macro body the programmer merely
    /// invoked (e.g. the `IS_A(p)` null check of §4.2).
    MacroExpansion {
        /// Name of the macro whose body produced the code.
        macro_name: String,
    },
}

/// Origin of an instruction: source position plus provenance.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Origin {
    pub loc: SourceLoc,
    pub kind: OriginKind,
}

impl Origin {
    /// Programmer-written code at a location.
    pub fn programmer(loc: SourceLoc) -> Origin {
        Origin {
            loc,
            kind: OriginKind::Programmer,
        }
    }

    /// Code produced by a macro expansion.
    pub fn macro_expansion(loc: SourceLoc, macro_name: &str) -> Origin {
        Origin {
            loc,
            kind: OriginKind::MacroExpansion {
                macro_name: macro_name.to_string(),
            },
        }
    }

    /// An origin with no information.
    pub fn unknown() -> Origin {
        Origin::default()
    }

    /// Whether the code was written directly by the programmer (and is thus
    /// eligible for a bug report).
    pub fn is_programmer_written(&self) -> bool {
        matches!(self.kind, OriginKind::Programmer)
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            OriginKind::Programmer => write!(f, "{}", self.loc),
            OriginKind::MacroExpansion { macro_name } => {
                write!(f, "{} (from macro {macro_name})", self.loc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_classification() {
        let loc = SourceLoc::new(42, 7);
        let prog = Origin::programmer(loc);
        assert!(prog.is_programmer_written());
        let mac = Origin::macro_expansion(loc, "IS_A");
        assert!(!mac.is_programmer_written());
    }

    #[test]
    fn display_formats() {
        let loc = SourceLoc::new(3, 4);
        assert_eq!(loc.to_string(), "3:4");
        assert_eq!(loc.file("a.c"), "a.c");
        assert_eq!(SourceLoc::unknown().to_string(), "<unknown>");
        assert!(!SourceLoc::unknown().is_known());
        assert_eq!(SourceLoc::unknown().file("a.c"), "");
        let mac = Origin::macro_expansion(loc, "CHECK");
        assert!(mac.to_string().contains("from macro CHECK"));
    }
}
