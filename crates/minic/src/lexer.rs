//! Lexer and preprocessor for the mini-C language.
//!
//! The preprocessor supports object-like and function-like `#define` macros.
//! The lexer turns each preprocessor line into one [`Tok::Directive`], which
//! `preprocess` interprets and drops. Tokens produced by macro expansion are tagged with the macro's name so the
//! lowering stage can mark the resulting IR as compiler-generated — the
//! mechanism STACK uses to avoid warning about unstable code the programmer
//! did not write (paper §4.2).

use crate::diag::Diag;
use crate::token::{Tok, Token};
use std::collections::HashMap;

/// A `#define` macro definition.
#[derive(Clone, Debug)]
struct MacroDef {
    /// Parameter names for function-like macros, `None` for object-like.
    params: Option<Vec<String>>,
    /// The replacement token sequence.
    body: Vec<Token>,
}

/// Tokenize a source string without macro expansion.
fn tokenize_raw(src: &str) -> Result<Vec<Token>, Diag> {
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut out = Vec::new();

    let keyword = |s: &str| -> Option<Tok> {
        Some(match s {
            "int" => Tok::KwInt,
            "long" => Tok::KwLong,
            "short" => Tok::KwShort,
            "char" => Tok::KwChar,
            "unsigned" => Tok::KwUnsigned,
            "signed" => Tok::KwSigned,
            "void" => Tok::KwVoid,
            "bool" | "_Bool" => Tok::KwBool,
            "if" => Tok::KwIf,
            "else" => Tok::KwElse,
            "while" => Tok::KwWhile,
            "for" => Tok::KwFor,
            "return" => Tok::KwReturn,
            "struct" => Tok::KwStruct,
            "const" => Tok::KwConst,
            "sizeof" => Tok::KwSizeof,
            "NULL" => Tok::KwNull,
            _ => return None,
        })
    };

    while i < bytes.len() {
        let c = bytes[i];
        let (tline, tcol) = (line, col);
        let advance = |i: &mut usize, col: &mut u32| {
            *i += 1;
            *col += 1;
        };
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => advance(&mut i, &mut col),
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                i += 2;
                col += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                i += 2;
                col += 2;
            }
            '#' => {
                // A preprocessor directive runs to the end of the line;
                // `preprocess` interprets it.
                let mut text = String::new();
                i += 1; // skip the leading '#'
                col += 1;
                while i < bytes.len() && bytes[i] != '\n' {
                    // Line continuation.
                    if bytes[i] == '\\' && i + 1 < bytes.len() && bytes[i + 1] == '\n' {
                        i += 2;
                        line += 1;
                        col = 1;
                        continue;
                    }
                    text.push(bytes[i]);
                    i += 1;
                    col += 1;
                }
                out.push(Token::new(Tok::Directive(text), tline, tcol));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    s.push(bytes[i]);
                    advance(&mut i, &mut col);
                }
                let tok = keyword(&s).unwrap_or(Tok::Ident(s));
                out.push(Token::new(tok, tline, tcol));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == 'x')
                {
                    s.push(bytes[i]);
                    advance(&mut i, &mut col);
                }
                // Strip integer suffixes (U, L, UL, LL, ULL).
                let trimmed = s.trim_end_matches(['u', 'U', 'l', 'L']);
                let value =
                    if let Some(hex) = trimmed.strip_prefix("0x").or(trimmed.strip_prefix("0X")) {
                        i64::from_str_radix(hex, 16)
                            .or_else(|_| u64::from_str_radix(hex, 16).map(|v| v as i64))
                    } else {
                        trimmed
                            .parse::<i64>()
                            .or_else(|_| trimmed.parse::<u64>().map(|v| v as i64))
                    };
                match value {
                    Ok(v) => out.push(Token::new(Tok::IntLit(v), tline, tcol)),
                    Err(_) => {
                        return Err(Diag::new(
                            format!("invalid integer literal `{s}`"),
                            tline,
                            tcol,
                        ))
                    }
                }
            }
            '\'' => {
                // Character literal: one character or a simple escape, then
                // the closing quote.
                let (ch, len) = match bytes[i + 1..] {
                    ['\\', escape, '\'', ..] => {
                        let ch = match escape {
                            'n' => b'\n',
                            't' => b'\t',
                            '0' => 0,
                            other => other as u8,
                        };
                        (ch, 4)
                    }
                    [c, '\'', ..] if c != '\\' => (c as u8, 3),
                    _ => {
                        return Err(Diag::new(
                            "unterminated character literal".to_string(),
                            tline,
                            tcol,
                        ))
                    }
                };
                i += len;
                col += len as u32;
                out.push(Token::new(Tok::CharLit(ch), tline, tcol));
            }
            '"' => {
                // String literal: C forbids a raw newline in one, so it must
                // close on its own line.
                i += 1;
                col += 1;
                let mut s = String::new();
                while i < bytes.len() && !matches!(bytes[i], '"' | '\n') {
                    s.push(bytes[i]);
                    advance(&mut i, &mut col);
                }
                if bytes.get(i) != Some(&'"') {
                    return Err(Diag::new(
                        "unterminated string literal".to_string(),
                        tline,
                        tcol,
                    ));
                }
                i += 1;
                col += 1;
                out.push(Token::new(Tok::StrLit(s), tline, tcol));
            }
            _ => {
                let two: String = bytes[i..bytes.len().min(i + 2)].iter().collect();
                let (tok, len) = match two.as_str() {
                    "->" => (Tok::Arrow, 2),
                    "==" => (Tok::Eq, 2),
                    "!=" => (Tok::Ne, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    "<<" => (Tok::Shl, 2),
                    ">>" => (Tok::Shr, 2),
                    "&&" => (Tok::AndAnd, 2),
                    "||" => (Tok::OrOr, 2),
                    "++" => (Tok::PlusPlus, 2),
                    "--" => (Tok::MinusMinus, 2),
                    "+=" => (Tok::PlusAssign, 2),
                    "-=" => (Tok::MinusAssign, 2),
                    _ => {
                        let t = match c {
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ';' => Tok::Semi,
                            ',' => Tok::Comma,
                            '.' => Tok::Dot,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '&' => Tok::Amp,
                            '|' => Tok::Pipe,
                            '^' => Tok::Caret,
                            '~' => Tok::Tilde,
                            '!' => Tok::Bang,
                            '?' => Tok::Question,
                            ':' => Tok::Colon,
                            '=' => Tok::Assign,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            other => {
                                return Err(Diag::new(
                                    format!("unexpected character `{other}`"),
                                    tline,
                                    tcol,
                                ))
                            }
                        };
                        (t, 1)
                    }
                };
                i += len;
                col += len as u32;
                out.push(Token::new(tok, tline, tcol));
            }
        }
    }
    out.push(Token::new(Tok::Eof, line, col));
    Ok(out)
}

/// Tokenize and run the preprocessor (macro definition and expansion).
pub fn lex(src: &str) -> Result<Vec<Token>, Diag> {
    let raw = tokenize_raw(src)?;
    preprocess(raw)
}

/// Expand `#define` macros in a raw token stream.
fn preprocess(tokens: Vec<Token>) -> Result<Vec<Token>, Diag> {
    let mut macros: HashMap<String, MacroDef> = HashMap::new();
    let mut out: Vec<Token> = Vec::new();
    let mut i = 0usize;

    while i < tokens.len() {
        let t = tokens[i].clone();
        if let Tok::Directive(text) = &t.tok {
            let text = text.trim();
            if let Some(def) = text
                .strip_prefix("define ")
                .or(text.strip_prefix("define\t"))
            {
                let (name, def_macro) = parse_define(def, t.line)?;
                macros.insert(name, def_macro);
            }
            // Other directives (#include, #ifdef, ...) are ignored.
            i += 1;
            continue;
        }
        // Macro expansion.
        if let Tok::Ident(name) = &t.tok {
            if let Some(def) = macros.get(name).cloned() {
                match &def.params {
                    None => {
                        let expanded =
                            substitute(&def.body, &HashMap::new(), name, t.line, t.column);
                        out.extend(expanded);
                        i += 1;
                        continue;
                    }
                    Some(params) => {
                        // Function-like: only expand when followed by '('.
                        if i + 1 < tokens.len() && tokens[i + 1].tok == Tok::LParen {
                            let (args, consumed) = collect_macro_args(&tokens, i + 1)?;
                            if args.len() != params.len() {
                                return Err(Diag::new(
                                    format!(
                                        "macro {name} expects {} arguments, got {}",
                                        params.len(),
                                        args.len()
                                    ),
                                    t.line,
                                    t.column,
                                ));
                            }
                            let mut bind: HashMap<String, Vec<Token>> = HashMap::new();
                            for (p, a) in params.iter().zip(args) {
                                bind.insert(p.clone(), a);
                            }
                            let expanded = substitute(&def.body, &bind, name, t.line, t.column);
                            out.extend(expanded);
                            i += 1 + consumed;
                            continue;
                        }
                    }
                }
            }
        }
        out.push(t);
        i += 1;
    }
    Ok(out)
}

/// Parse the text after `#define`.
fn parse_define(def: &str, line: u32) -> Result<(String, MacroDef), Diag> {
    let def = def.trim();
    // Name is the leading identifier.
    let name_end = def
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(def.len());
    let (name, rest) = def.split_at(name_end);
    if name.is_empty() {
        return Err(Diag::new("malformed #define".to_string(), line, 1));
    }
    // Function-like only if '(' immediately follows the name.
    let (params, body_src) = match rest.strip_prefix('(') {
        Some(stripped) => {
            let close = stripped.find(')').ok_or_else(|| {
                Diag::new("unterminated macro parameter list".to_string(), line, 1)
            })?;
            let params = stripped[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            (Some(params), &stripped[close + 1..])
        }
        None => (None, rest),
    };
    let mut body = tokenize_raw(body_src)?;
    body.pop(); // Eof
    for t in &mut body {
        t.line = line;
        // In a macro body `#` is the stringizing operator, not a directive:
        // it and what follows become a string literal.
        if let Tok::Directive(operand) = &mut t.tok {
            t.tok = Tok::StrLit(std::mem::take(operand));
        }
    }
    Ok((name.to_string(), MacroDef { params, body }))
}

/// Collect the argument token lists of a function-like macro invocation.
/// `start` indexes the opening parenthesis. Returns the arguments and the
/// number of tokens consumed starting at `start`.
fn collect_macro_args(tokens: &[Token], start: usize) -> Result<(Vec<Vec<Token>>, usize), Diag> {
    debug_assert_eq!(tokens[start].tok, Tok::LParen);
    let mut depth = 0usize;
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    let mut i = start;
    loop {
        if i >= tokens.len() {
            return Err(Diag::new(
                "unterminated macro invocation".to_string(),
                tokens[start].line,
                tokens[start].column,
            ));
        }
        match &tokens[i].tok {
            Tok::LParen => {
                if depth > 0 {
                    args.last_mut().unwrap().push(tokens[i].clone());
                }
                depth += 1;
            }
            Tok::RParen => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                args.last_mut().unwrap().push(tokens[i].clone());
            }
            Tok::Comma if depth == 1 => args.push(Vec::new()),
            _ => args.last_mut().unwrap().push(tokens[i].clone()),
        }
        i += 1;
    }
    if args.len() == 1 && args[0].is_empty() {
        args.clear();
    }
    Ok((args, i - start + 1))
}

/// Substitute macro parameters in a body and tag all produced tokens with the
/// macro name and the invocation location.
fn substitute(
    body: &[Token],
    bind: &HashMap<String, Vec<Token>>,
    macro_name: &str,
    line: u32,
    column: u32,
) -> Vec<Token> {
    let mut out = Vec::new();
    for t in body {
        match &t.tok {
            Tok::Ident(name) if bind.contains_key(name) => {
                for a in &bind[name] {
                    let mut tok = a.clone();
                    // Argument tokens come from the call site; they keep their
                    // own provenance (the programmer wrote them).
                    tok.line = line;
                    tok.column = column;
                    out.push(tok);
                }
            }
            _ => {
                let mut tok = t.clone();
                tok.line = line;
                tok.column = column;
                tok.from_macro = Some(macro_name.to_string());
                out.push(tok);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_simple_tokens() {
        let toks = lex("int x = a + 0x10 << 2; // comment\n").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[0], Tok::KwInt));
        assert!(matches!(kinds[1], Tok::Ident(s) if s == "x"));
        assert!(matches!(kinds[2], Tok::Assign));
        assert!(matches!(kinds[4], Tok::Plus));
        assert!(matches!(kinds[5], Tok::IntLit(16)));
        assert!(matches!(kinds[6], Tok::Shl));
        assert!(matches!(kinds.last().unwrap(), Tok::Eof));
    }

    #[test]
    fn lex_operators_and_positions() {
        let toks = lex("p->sk != NULL && x >= -2").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[1], Tok::Arrow));
        assert!(matches!(kinds[3], Tok::Ne));
        assert!(matches!(kinds[4], Tok::KwNull));
        assert!(matches!(kinds[5], Tok::AndAnd));
        assert!(matches!(kinds[7], Tok::Ge));
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].column, 1);
    }

    #[test]
    fn block_comments_and_lines() {
        let toks = lex("int a; /* multi\nline */ int b;").unwrap();
        let idents: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
        // `b` is on line 2.
        let b_tok = toks
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "b"))
            .unwrap();
        assert_eq!(b_tok.line, 2);
    }

    #[test]
    fn object_like_macro() {
        let toks = lex("#define LIMIT 100\nint x = LIMIT;").unwrap();
        let lit = toks
            .iter()
            .find(|t| matches!(t.tok, Tok::IntLit(100)))
            .unwrap();
        assert_eq!(lit.from_macro.as_deref(), Some("LIMIT"));
    }

    #[test]
    fn function_like_macro_tags_body_not_args() {
        // The IS_A example of paper §4.2: the null check inside the macro is
        // compiler-generated from the programmer's viewpoint.
        let src =
            "#define IS_A(p) (p != NULL && LOAD(p) == 1)\n#define LOAD(p) (*p)\nint r = IS_A(q);";
        let toks = lex(src).unwrap();
        // The != token must be tagged as from IS_A; the identifier q must not.
        let ne = toks.iter().find(|t| t.tok == Tok::Ne).unwrap();
        assert_eq!(ne.from_macro.as_deref(), Some("IS_A"));
        let q = toks
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "q"))
            .unwrap();
        assert!(q.from_macro.is_none());
    }

    #[test]
    fn nested_macro_invocation_arguments() {
        let src = "#define ADD(a, b) (a + b)\nint y = ADD(f(1, 2), 3);";
        let toks = lex(src).unwrap();
        // The expansion contains f, (, 1, ,, 2, ), +, 3.
        let plus_count = toks.iter().filter(|t| t.tok == Tok::Plus).count();
        assert_eq!(plus_count, 1);
        let f_tok = toks
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "f"))
            .unwrap();
        assert!(f_tok.from_macro.is_none());
    }

    #[test]
    fn char_and_string_literals() {
        let toks = lex("char c = '.'; char n = '\\n';").unwrap();
        let chars: Vec<u8> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::CharLit(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(chars, vec![b'.', b'\n']);
    }

    #[test]
    fn string_literal_is_never_a_directive() {
        let toks = lex("char *s = \"#1#define X 2\"; int y = X;").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(kinds.contains(&&Tok::StrLit("#1#define X 2".to_string())));
        assert!(kinds.contains(&&Tok::Ident("X".to_string())));
    }

    #[test]
    fn hash_in_a_macro_body_stringizes() {
        let toks = lex("#define S(x) #x\nchar *s = S(a);").unwrap();
        let s = toks.iter().find(|t| matches!(t.tok, Tok::StrLit(_)));
        assert_eq!(s.and_then(|t| t.from_macro.as_deref()), Some("S"));
        assert!(!toks.iter().any(|t| matches!(t.tok, Tok::Directive(_))));
    }

    #[test]
    fn unterminated_character_literal_is_a_diagnostic() {
        for src in ["int c = '", "int c = '\\", "int c = 'a", "int c = '\\n;"] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, "unterminated character literal", "{src}");
            assert_eq!((err.line, err.column), (1, 9), "{src}");
        }
    }

    #[test]
    fn string_literal_closes_on_its_own_line() {
        let toks = lex("char *s = \"a b\";\nint y;").unwrap();
        assert_eq!(toks[4].tok, Tok::StrLit("a b".to_string()));
        let y = toks
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "y"))
            .unwrap();
        assert_eq!((y.line, y.column), (2, 5));
    }

    #[test]
    fn unterminated_string_literal_is_a_diagnostic() {
        // Cut by a raw newline, or by the end of the file: the diagnostic
        // names the opening quote.
        for (src, at) in [
            ("int g(char *s);\nint f(void) { g(\"a\nb\"); }", (2, 17)),
            ("char *s = \"", (1, 11)),
            ("char *s = \"abc;", (1, 11)),
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, "unterminated string literal", "{src}");
            assert_eq!((err.line, err.column), at, "{src}");
        }
    }

    #[test]
    fn integer_suffixes_and_negatives() {
        let toks = lex("long x = 9223372036854775807LL; int y = 0xFFu;").unwrap();
        let lits: Vec<i64> = toks
            .iter()
            .filter_map(|t| match t.tok {
                Tok::IntLit(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec![i64::MAX, 255]);
    }

    #[test]
    fn error_on_bad_character() {
        assert!(lex("int a = `;").is_err());
    }
}
