//! Lexer and preprocessor for the mini-C language.
//!
//! The preprocessor supports object-like and function-like `#define` macros,
//! with `#` stringizing and `##` token pasting in their bodies. The lexer
//! turns each preprocessor line into one [`Tok::Directive`], which
//! `preprocess` interprets and drops. Tokens produced by macro expansion are
//! tagged with the macro's name so the lowering stage can mark the resulting
//! IR as compiler-generated — the mechanism STACK uses to avoid warning
//! about unstable code the programmer did not write (paper §4.2).

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

/// The keyword spelled `word`, if it is one.
fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
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
}

/// The two-character operator spelled `c` then `next`, if it is one.
fn two_char_operator(c: char, next: Option<u8>) -> Option<Tok> {
    Some(match (c, next? as char) {
        ('-', '>') => Tok::Arrow,
        ('=', '=') => Tok::Eq,
        ('!', '=') => Tok::Ne,
        ('<', '=') => Tok::Le,
        ('>', '=') => Tok::Ge,
        ('<', '<') => Tok::Shl,
        ('>', '>') => Tok::Shr,
        ('&', '&') => Tok::AndAnd,
        ('|', '|') => Tok::OrOr,
        ('+', '+') => Tok::PlusPlus,
        ('-', '-') => Tok::MinusMinus,
        ('+', '=') => Tok::PlusAssign,
        ('-', '=') => Tok::MinusAssign,
        _ => return None,
    })
}

/// The one-character operator or punctuation `c`, if it is one.
fn one_char_operator(c: char) -> Option<Tok> {
    Some(match c {
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
        _ => return None,
    })
}

/// The character starting at byte `i` of `src` and its length in bytes.
fn char_at(src: &str, i: usize) -> Option<(char, usize)> {
    let byte = *src.as_bytes().get(i)?;
    if byte.is_ascii() {
        return Some((char::from(byte), 1));
    }
    let c = src[i..].chars().next()?;
    Some((c, c.len_utf8()))
}

/// Tokenize a source string without macro expansion. Columns count
/// characters.
fn tokenize_raw(src: &str) -> Result<Vec<Token>, Diag> {
    let bytes = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    let mut out = Vec::new();

    while let Some((c, len)) = char_at(src, i) {
        let (tline, tcol) = (line, col);
        let next = bytes.get(i + 1).copied();
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if next == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if next == Some(b'*') => {
                i += 2;
                col += 2;
                // Up to the closing `*/`; an unclosed comment swallows the
                // rest of the input.
                while let Some((c, len)) = char_at(src, i) {
                    if i + len == bytes.len() {
                        i = bytes.len();
                        break;
                    }
                    if c == '*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += len;
                }
                col += 2;
            }
            '#' => {
                // A preprocessor directive runs to the end of the line;
                // `preprocess` interprets it.
                let mut text = String::new();
                i += 1; // skip the leading '#'
                col += 1;
                while let Some((c, len)) = char_at(src, i) {
                    if c == '\n' {
                        break;
                    }
                    // Line continuation.
                    if c == '\\' && bytes.get(i + 1) == Some(&b'\n') {
                        i += 2;
                        line += 1;
                        col = 1;
                        continue;
                    }
                    text.push(c);
                    i += len;
                    col += 1;
                }
                out.push(Token::new(Tok::Directive(text), tline, tcol));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                col += (i - start) as u32;
                let word = &src[start..i];
                let tok = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()));
                out.push(Token::new(tok, tline, tcol));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'x')
                {
                    i += 1;
                }
                col += (i - start) as u32;
                let s = &src[start..i];
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
                let quote_after = |at: usize| char_at(src, at).map(|(c, _)| c) == Some('\'');
                // (value, length in bytes, length in characters)
                let literal = match char_at(src, i + 1) {
                    Some(('\\', 1)) => match char_at(src, i + 2) {
                        Some((escape, len)) if quote_after(i + 2 + len) => {
                            let ch = match escape {
                                'n' => b'\n',
                                't' => b'\t',
                                '0' => 0,
                                other => other as u8,
                            };
                            Some((ch, len + 3, 4))
                        }
                        _ => None,
                    },
                    Some((c, len)) if quote_after(i + 1 + len) => Some((c as u8, len + 2, 3)),
                    _ => None,
                };
                let Some((ch, byte_len, chars)) = literal else {
                    return Err(Diag::new(
                        "unterminated character literal".to_string(),
                        tline,
                        tcol,
                    ));
                };
                i += byte_len;
                col += chars;
                out.push(Token::new(Tok::CharLit(ch), tline, tcol));
            }
            '"' => {
                // String literal: `\` escapes the character after it, and C
                // forbids a raw newline in one, so it must close on its own
                // line. Its text is kept as written.
                i += 1;
                col += 1;
                let start = i;
                loop {
                    match char_at(src, i) {
                        Some(('"', _)) => break,
                        None | Some(('\n', _)) => {
                            return Err(Diag::new(
                                "unterminated string literal".to_string(),
                                tline,
                                tcol,
                            ))
                        }
                        Some(('\\', _)) if !matches!(bytes.get(i + 1), None | Some(b'\n')) => {
                            let (_, len) = char_at(src, i + 1).expect("a character follows");
                            i += 1 + len;
                            col += 2;
                        }
                        Some((_, len)) => {
                            i += len;
                            col += 1;
                        }
                    }
                }
                out.push(Token::new(
                    Tok::StrLit(src[start..i].to_string()),
                    tline,
                    tcol,
                ));
                i += 1;
                col += 1;
            }
            _ => {
                let (tok, len) = match two_char_operator(c, next) {
                    Some(tok) => (tok, 2),
                    None => match one_char_operator(c) {
                        Some(tok) => (tok, len),
                        None => {
                            return Err(Diag::new(
                                format!("unexpected character `{c}`"),
                                tline,
                                tcol,
                            ))
                        }
                    },
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

/// Expand `#define` macros in a raw token stream, moving every token that
/// is not a directive or an expanded invocation to the output.
fn preprocess(mut tokens: Vec<Token>) -> Result<Vec<Token>, Diag> {
    let mut macros: HashMap<String, MacroDef> = HashMap::new();
    let mut out: Vec<Token> = Vec::with_capacity(tokens.len());
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
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
            if let Some(def) = macros.get(name) {
                match &def.params {
                    None => {
                        let expanded =
                            substitute(&def.body, &HashMap::new(), name, t.line, t.column)?;
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
                            let bind: HashMap<&str, Vec<Token>> =
                                params.iter().map(String::as_str).zip(args).collect();
                            let expanded = substitute(&def.body, &bind, name, t.line, t.column)?;
                            out.extend(expanded);
                            i += 1 + consumed;
                            continue;
                        }
                    }
                }
            }
        }
        out.push(std::mem::replace(
            &mut tokens[i],
            Token::new(Tok::Eof, 0, 0),
        ));
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
    let body = macro_body(body_src, line)?;
    Ok((name.to_string(), MacroDef { params, body }))
}

/// Tokenize a macro body on the `#define` at `line`. In a body `#` is the
/// stringizing operator, not a directive: it and what follows on the line
/// become a string literal. `##` is [`Tok::Paste`].
fn macro_body(src: &str, line: u32) -> Result<Vec<Token>, Diag> {
    let mut raw = tokenize_raw(src)?;
    raw.pop(); // Eof
    let mut body = Vec::with_capacity(raw.len());
    for mut t in raw {
        t.line = line;
        if let Tok::Directive(operand) = &mut t.tok {
            if let Some(rest) = operand.strip_prefix('#') {
                let rest = macro_body(rest, line)?;
                t.tok = Tok::Paste;
                body.push(t);
                body.extend(rest);
                continue;
            }
            t.tok = Tok::StrLit(std::mem::take(operand));
        }
        body.push(t);
    }
    Ok(body)
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
/// macro name and the invocation location. `a ## b` pastes the last token
/// substituted for `a` and the first substituted for `b` into one token; an
/// empty operand leaves the other as it is.
fn substitute(
    body: &[Token],
    bind: &HashMap<&str, Vec<Token>>,
    macro_name: &str,
    line: u32,
    column: u32,
) -> Result<Vec<Token>, Diag> {
    let mut out = Vec::new();
    // `out[operand..]` holds what the last body token substituted to.
    let mut operand = 0;
    let mut paste_left: Option<usize> = None;
    for t in body {
        if t.tok == Tok::Paste {
            paste_left = (out.len() > operand).then(|| out.len() - 1);
            continue;
        }
        operand = out.len();
        match &t.tok {
            Tok::Ident(name) if bind.contains_key(name.as_str()) => {
                for a in &bind[name.as_str()] {
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
        if let Some(left) = paste_left.take() {
            if out.len() > operand {
                let right = out.remove(operand);
                out[left] = paste(&out[left], &right)?;
                operand = left;
            }
        }
    }
    Ok(out)
}

/// Paste two tokens of one expansion into one: re-lex their spellings as a
/// single token. The result is programmer-written only if both parts are.
fn paste(left: &Token, right: &Token) -> Result<Token, Diag> {
    let (a, b) = (left.tok.spelling(), right.tok.spelling());
    match tokenize_raw(&format!("{a}{b}")).as_deref() {
        Ok([pasted, eof]) if eof.tok == Tok::Eof => Ok(Token {
            tok: pasted.tok.clone(),
            from_macro: left.from_macro.clone().or_else(|| right.from_macro.clone()),
            ..left.clone()
        }),
        _ => Err(Diag::new(
            format!("pasting `{a}` and `{b}` does not give one token"),
            left.line,
            left.column,
        )),
    }
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
    fn backslash_escapes_the_next_character_of_a_string() {
        // `\"` stays in the literal, `\\` closes before the quote.
        let toks = lex("g(\"a\\\"b\"); x;").unwrap();
        assert_eq!(toks[2].tok, Tok::StrLit("a\\\"b".to_string()));
        assert_eq!(toks[3].tok, Tok::RParen);
        assert_eq!((toks[5].line, toks[5].column), (1, 12));
        let toks = lex("g(\"a\\\\\"); x;").unwrap();
        assert_eq!(toks[2].tok, Tok::StrLit("a\\\\".to_string()));
        assert_eq!(toks[3].tok, Tok::RParen);
        // A backslash does not carry a raw newline into the literal.
        let err = lex("g(\"a\\\nb\");").unwrap_err();
        assert_eq!(err.message, "unterminated string literal");
        assert_eq!((err.line, err.column), (1, 3));
    }

    #[test]
    fn token_pasting_joins_two_spellings() {
        let toks = lex("#define CAT(a, b) a##b\nint y = CAT(x, 1) + CAT(1, 2);").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert_eq!(kinds[3], &Tok::Ident("x1".to_string()));
        assert_eq!(kinds[5], &Tok::IntLit(12));
        // Both parts came from the call site, so the pasted token is the
        // programmer's, at the invocation.
        assert_eq!(toks[3].from_macro, None);
        assert_eq!((toks[3].line, toks[3].column), (2, 9));
        // A part written in the body tags the result as the macro's, and
        // spaces around `##` and operators paste too.
        let toks = lex("#define V(n) var ## n\n#define OP(a, b) a ## b\nint y = V(2) OP(+, =) 1;")
            .unwrap();
        assert_eq!(toks[3].tok, Tok::Ident("var2".to_string()));
        assert_eq!(toks[3].from_macro.as_deref(), Some("V"));
        assert_eq!(toks[4].tok, Tok::PlusAssign);
        // An empty argument leaves the other side as it is.
        let toks = lex("#define CAT(a, b) a##b\nint y = CAT(, z);").unwrap();
        assert_eq!(toks[3].tok, Tok::Ident("z".to_string()));
    }

    #[test]
    fn a_paste_that_is_not_one_token_is_a_diagnostic() {
        let err = lex("#define CAT(a, b) a##b\nint y;\nint z = CAT(x, +);").unwrap_err();
        assert_eq!(err.message, "pasting `x` and `+` does not give one token");
        assert_eq!((err.line, err.column), (3, 9));
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
