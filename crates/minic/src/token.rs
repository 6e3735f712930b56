//! Tokens of the mini-C language.

use std::fmt;

/// A token kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    // Literals and identifiers.
    Ident(String),
    IntLit(i64),
    CharLit(u8),
    StrLit(String),
    /// A preprocessor line: the text after `#`, line continuations joined.
    Directive(String),

    // Keywords.
    KwInt,
    KwLong,
    KwShort,
    KwChar,
    KwUnsigned,
    KwSigned,
    KwVoid,
    KwBool,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwStruct,
    KwConst,
    KwSizeof,
    KwNull,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Arrow, // ->
    Dot,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Question,
    Colon,
    Assign,      // =
    PlusAssign,  // +=
    MinusAssign, // -=
    Eq,          // ==
    Ne,          // !=
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
    Shr,
    AndAnd,
    OrOr,
    PlusPlus,
    MinusMinus,

    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::IntLit(v) => write!(f, "{v}"),
            Tok::CharLit(c) => write!(f, "'{}'", *c as char),
            Tok::StrLit(s) => write!(f, "\"{s}\""),
            Tok::Directive(s) => write!(f, "#{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token together with its source position and macro provenance.
#[derive(Clone, Debug)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
    pub column: u32,
    /// If the token was produced by expanding a macro, the macro's name.
    pub from_macro: Option<String>,
}

impl Token {
    /// Create a token at a position.
    pub fn new(tok: Tok, line: u32, column: u32) -> Token {
        Token {
            tok,
            line,
            column,
            from_macro: None,
        }
    }
}
