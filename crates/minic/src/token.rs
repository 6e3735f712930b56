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
    /// `##` in a macro body: paste the tokens on either side into one.
    Paste,

    /// End of input.
    Eof,
}

impl Tok {
    /// How the token is written in source. An integer literal is spelled in
    /// decimal, a character or string literal as the lexer kept it.
    pub fn spelling(&self) -> String {
        let fixed = match self {
            Tok::Ident(s) => return s.clone(),
            Tok::IntLit(v) => return v.to_string(),
            Tok::CharLit(c) => return format!("'{}'", *c as char),
            Tok::StrLit(s) => return format!("\"{s}\""),
            Tok::Directive(s) => return format!("#{s}"),
            Tok::KwInt => "int",
            Tok::KwLong => "long",
            Tok::KwShort => "short",
            Tok::KwChar => "char",
            Tok::KwUnsigned => "unsigned",
            Tok::KwSigned => "signed",
            Tok::KwVoid => "void",
            Tok::KwBool => "bool",
            Tok::KwIf => "if",
            Tok::KwElse => "else",
            Tok::KwWhile => "while",
            Tok::KwFor => "for",
            Tok::KwReturn => "return",
            Tok::KwStruct => "struct",
            Tok::KwConst => "const",
            Tok::KwSizeof => "sizeof",
            Tok::KwNull => "NULL",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Arrow => "->",
            Tok::Dot => ".",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::Pipe => "|",
            Tok::Caret => "^",
            Tok::Tilde => "~",
            Tok::Bang => "!",
            Tok::Question => "?",
            Tok::Colon => ":",
            Tok::Assign => "=",
            Tok::PlusAssign => "+=",
            Tok::MinusAssign => "-=",
            Tok::Eq => "==",
            Tok::Ne => "!=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::PlusPlus => "++",
            Tok::MinusMinus => "--",
            Tok::Paste => "##",
            Tok::Eof => "",
        };
        fixed.to_string()
    }
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
