//! Recursive-descent parser for the mini-C language.
//!
//! The grammar covers the subset of C needed to express the paper's unstable
//! code examples: function definitions, local declarations (including fixed
//! size arrays), pointers, the usual statement forms, and the full C
//! expression operator set minus a few rarities. `struct` types are parsed
//! opaquely (only pointers to them can be formed); member access through a
//! pointer is supported field-insensitively.

use crate::ast::*;
use crate::diag::Diag;
use crate::token::{Tok, Token};

/// Parse a token stream into a translation unit.
pub fn parse(tokens: &[Token]) -> Result<TranslationUnit, Diag> {
    let mut p = Parser { tokens, pos: 0 };
    p.translation_unit()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_at(&self, offset: usize) -> &Tok {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].tok
    }

    fn cur_token(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn span(&self) -> Span {
        let t = self.cur_token();
        Span {
            line: t.line,
            column: t.column,
            from_macro: t.from_macro.clone(),
        }
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, msg: &str) -> Result<T, Diag> {
        let t = self.cur_token();
        Err(Diag::new(
            format!("{msg}, found `{}`", t.tok),
            t.line,
            t.column,
        ))
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<Token, Diag> {
        if *self.peek() == tok {
            Ok(self.bump())
        } else {
            self.error(&format!("expected {what}"))
        }
    }

    /// Consume the identifier that names a `what`, or report its absence at
    /// `span`, the start of the construct being parsed.
    fn expect_ident(&mut self, what: &str, span: &Span) -> Result<String, Diag> {
        match self.bump().tok {
            Tok::Ident(name) => Ok(name),
            other => Err(Diag::new(
                format!("expected {what} name, found `{other}`"),
                span.line,
                span.column,
            )),
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    // ---- Types ----------------------------------------------------------------

    /// Whether the upcoming tokens start a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt
                | Tok::KwLong
                | Tok::KwShort
                | Tok::KwChar
                | Tok::KwUnsigned
                | Tok::KwSigned
                | Tok::KwVoid
                | Tok::KwBool
                | Tok::KwStruct
                | Tok::KwConst
        ) || matches!(self.peek(), Tok::Ident(name) if typedef_type(name).is_some())
    }

    /// Parse a type (base type plus any number of `*`).
    fn parse_type(&mut self) -> Result<CType, Diag> {
        while self.eat(Tok::KwConst) {}
        let mut signed = true;
        let mut saw_sign = false;
        loop {
            match self.peek() {
                Tok::KwUnsigned => {
                    signed = false;
                    saw_sign = true;
                    self.bump();
                }
                Tok::KwSigned => {
                    signed = true;
                    saw_sign = true;
                    self.bump();
                }
                Tok::KwConst => {
                    self.bump();
                }
                _ => break,
            }
        }
        let typedef = match self.peek() {
            Tok::Ident(name) => typedef_type(name),
            _ => None,
        };
        let mut base = match self.peek() {
            Tok::KwVoid => {
                self.bump();
                CType::Void
            }
            Tok::KwBool => {
                self.bump();
                CType::Bool
            }
            Tok::KwChar => {
                self.bump();
                CType::Int { width: 8, signed }
            }
            Tok::KwShort => {
                self.bump();
                self.eat(Tok::KwInt);
                CType::Int { width: 16, signed }
            }
            Tok::KwInt => {
                self.bump();
                CType::Int { width: 32, signed }
            }
            Tok::KwLong => {
                self.bump();
                self.eat(Tok::KwLong); // long long
                self.eat(Tok::KwInt);
                CType::Int { width: 64, signed }
            }
            Tok::KwStruct => {
                self.bump();
                // Opaque struct: consume the tag name.
                if let Tok::Ident(_) = self.peek() {
                    self.bump();
                }
                // A bare struct value type is not supported; only pointers to
                // it. Treat the struct itself as void so `struct T *` works.
                CType::Void
            }
            _ => match typedef {
                Some(ty) => {
                    self.bump();
                    ty
                }
                None if saw_sign => CType::Int { width: 32, signed },
                None => return self.error("expected a type"),
            },
        };
        // If only `unsigned`/`signed` was given, adjust signedness of typedefs
        // (e.g. `unsigned` alone).
        if let CType::Int { width, .. } = base {
            if saw_sign {
                base = CType::Int { width, signed };
            }
        }
        loop {
            while self.eat(Tok::KwConst) {}
            if self.eat(Tok::Star) {
                base = CType::ptr_to(base);
            } else {
                break;
            }
        }
        Ok(base)
    }

    // ---- Top level ---------------------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, Diag> {
        let mut unit = TranslationUnit::default();
        while *self.peek() != Tok::Eof {
            // struct declarations `struct X { ... };` are skipped opaquely.
            if *self.peek() == Tok::KwStruct && *self.peek_at(2) == Tok::LBrace {
                self.skip_struct_decl()?;
                continue;
            }
            let span = self.span();
            let ret_ty = self.parse_type()?;
            let name = self.expect_ident("function", &span)?;
            self.expect(Tok::LParen, "`(`")?;
            let mut params = Vec::new();
            if *self.peek() != Tok::RParen {
                loop {
                    if self.eat(Tok::KwVoid) && *self.peek() == Tok::RParen {
                        break;
                    }
                    let ty = self.parse_type()?;
                    let name = self.expect_ident("parameter", &span)?;
                    params.push(FuncParam { name, ty });
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen, "`)`")?;
            if self.eat(Tok::Semi) {
                // Prototype: record nothing (calls to it default sensibly).
                continue;
            }
            self.expect(Tok::LBrace, "`{`")?;
            let body = self.block_body()?;
            unit.functions.push(FuncDef {
                name,
                params,
                ret_ty,
                body,
                span,
            });
        }
        Ok(unit)
    }

    fn skip_struct_decl(&mut self) -> Result<(), Diag> {
        self.expect(Tok::KwStruct, "`struct`")?;
        self.bump(); // tag
        self.expect(Tok::LBrace, "`{`")?;
        let mut depth = 1;
        while depth > 0 {
            match self.bump().tok {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth -= 1,
                Tok::Eof => return self.error("unterminated struct declaration"),
                _ => {}
            }
        }
        self.eat(Tok::Semi);
        Ok(())
    }

    // ---- Statements ----------------------------------------------------------------

    /// Parse statements until the matching `}` (which is consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt>, Diag> {
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return self.error("unterminated block");
            }
            stmts.push(self.statement()?);
        }
        self.expect(Tok::RBrace, "`}`")?;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen, "`(`")?;
                let cond = self.expression()?;
                self.expect(Tok::RParen, "`)`")?;
                let then_body = self.stmt_or_block()?;
                let else_body = if self.eat(Tok::KwElse) {
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen, "`(`")?;
                let cond = self.expression()?;
                self.expect(Tok::RParen, "`)`")?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen, "`(`")?;
                let init = if *self.peek() == Tok::Semi {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.simple_statement()?))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(Tok::Semi, "`;`")?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(Tok::RParen, "`)`")?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            Tok::KwReturn => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(Tok::Semi, "`;`")?;
                Ok(Stmt::Return { value, span })
            }
            _ => self.simple_statement(),
        }
    }

    /// A declaration or an expression statement terminated by `;`.
    fn simple_statement(&mut self) -> Result<Stmt, Diag> {
        let span = self.span();
        if self.at_type() {
            let ty = self.parse_type()?;
            let name = self.expect_ident("variable", &span)?;
            let array = if self.eat(Tok::LBracket) {
                let size = match self.bump().tok {
                    Tok::IntLit(v) if v >= 0 => v as u64,
                    other => {
                        return Err(Diag::new(
                            format!("expected array size, found `{other}`"),
                            span.line,
                            span.column,
                        ))
                    }
                };
                self.expect(Tok::RBracket, "`]`")?;
                Some(size)
            } else {
                None
            };
            let init = if self.eat(Tok::Assign) {
                Some(self.expression()?)
            } else {
                None
            };
            self.expect(Tok::Semi, "`;`")?;
            Ok(Stmt::Decl {
                name,
                ty,
                array,
                init,
                span,
            })
        } else {
            let e = self.expression()?;
            self.expect(Tok::Semi, "`;`")?;
            Ok(Stmt::Expr(e))
        }
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, Diag> {
        if self.eat(Tok::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    // ---- Expressions -----------------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, Diag> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, Diag> {
        let lhs = self.conditional()?;
        let span = self.span();
        match self.peek() {
            Tok::Assign => {
                self.bump();
                let value = self.assignment()?;
                Ok(Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                    span,
                })
            }
            Tok::PlusAssign | Tok::MinusAssign => {
                let op = if *self.peek() == Tok::PlusAssign {
                    BinOpKind::Add
                } else {
                    BinOpKind::Sub
                };
                self.bump();
                let value = self.assignment()?;
                let combined = Expr::Binary {
                    op,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(value),
                    span: span.clone(),
                };
                Ok(Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(combined),
                    span,
                })
            }
            _ => Ok(lhs),
        }
    }

    fn conditional(&mut self) -> Result<Expr, Diag> {
        let cond = self.binary(0)?;
        if self.eat(Tok::Question) {
            let span = self.span();
            let then = self.expression()?;
            self.expect(Tok::Colon, "`:`")?;
            let els = self.conditional()?;
            Ok(Expr::Conditional {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    /// A left-associative chain of the operators of `BINARY_LEVELS[level]`
    /// over operands that bind tighter; past the last level, a unary
    /// expression.
    fn binary(&mut self, level: usize) -> Result<Expr, Diag> {
        let Some(ops) = BINARY_LEVELS.get(level) else {
            return self.unary();
        };
        let mut lhs = self.binary(level + 1)?;
        while let Some(&(_, op)) = ops.iter().find(|(tok, _)| tok == self.peek()) {
            let span = self.span();
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diag> {
        let span = self.span();
        let op = match self.peek() {
            Tok::Minus => Some(UnOpKind::Neg),
            Tok::Bang => Some(UnOpKind::Not),
            Tok::Tilde => Some(UnOpKind::BitNot),
            Tok::Star => Some(UnOpKind::Deref),
            Tok::Amp => Some(UnOpKind::AddrOf),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                span,
            });
        }
        // Cast: `(` type `)` unary — only when a type follows the parenthesis.
        if *self.peek() == Tok::LParen {
            let save = self.pos;
            self.bump();
            if self.at_type() {
                if let Ok(ty) = self.parse_type() {
                    if self.eat(Tok::RParen) {
                        let operand = self.unary()?;
                        return Ok(Expr::Cast {
                            ty,
                            operand: Box::new(operand),
                            span,
                        });
                    }
                }
            }
            self.pos = save;
        }
        if *self.peek() == Tok::KwSizeof {
            self.bump();
            self.expect(Tok::LParen, "`(`")?;
            let ty = self.parse_type()?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(Expr::SizeOf { ty, span });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, Diag> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let index = self.expression()?;
                    self.expect(Tok::RBracket, "`]`")?;
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        span,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let field = self.expect_ident("field", &span)?;
                    e = Expr::Member {
                        base: Box::new(e),
                        field,
                        span,
                    };
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr::PostIncrement {
                        target: Box::new(e),
                        span,
                    };
                }
                Tok::MinusMinus => {
                    // Desugar x-- into an assignment x = x - 1 at parse time.
                    self.bump();
                    let one = Expr::IntLit {
                        value: 1,
                        span: span.clone(),
                    };
                    let sub = Expr::Binary {
                        op: BinOpKind::Sub,
                        lhs: Box::new(e.clone()),
                        rhs: Box::new(one),
                        span: span.clone(),
                    };
                    e = Expr::Assign {
                        target: Box::new(e),
                        value: Box::new(sub),
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, Diag> {
        let span = self.span();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit { value: v, span })
            }
            Tok::CharLit(c) => {
                self.bump();
                Ok(Expr::IntLit {
                    value: i64::from(c),
                    span,
                })
            }
            Tok::KwNull => {
                self.bump();
                Ok(Expr::Null { span })
            }
            Tok::StrLit(_) => {
                // String literals are modeled as opaque non-null pointers via a
                // call to a synthetic allocator.
                self.bump();
                Ok(Expr::Call {
                    callee: "__string_literal".to_string(),
                    args: vec![],
                    span,
                })
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat(Tok::LParen) {
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expression()?);
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    Ok(Expr::Call {
                        callee: name,
                        args,
                        span,
                    })
                } else {
                    Ok(Expr::Var { name, span })
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expression()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(e)
            }
            _ => self.error("expected an expression"),
        }
    }
}

/// The binary operators by precedence level, loosest first.
const BINARY_LEVELS: [&[(Tok, BinOpKind)]; 10] = [
    &[(Tok::OrOr, BinOpKind::LogicalOr)],
    &[(Tok::AndAnd, BinOpKind::LogicalAnd)],
    &[(Tok::Pipe, BinOpKind::BitOr)],
    &[(Tok::Caret, BinOpKind::BitXor)],
    &[(Tok::Amp, BinOpKind::BitAnd)],
    &[(Tok::Eq, BinOpKind::Eq), (Tok::Ne, BinOpKind::Ne)],
    &[
        (Tok::Lt, BinOpKind::Lt),
        (Tok::Le, BinOpKind::Le),
        (Tok::Gt, BinOpKind::Gt),
        (Tok::Ge, BinOpKind::Ge),
    ],
    &[(Tok::Shl, BinOpKind::Shl), (Tok::Shr, BinOpKind::Shr)],
    &[(Tok::Plus, BinOpKind::Add), (Tok::Minus, BinOpKind::Sub)],
    &[
        (Tok::Star, BinOpKind::Mul),
        (Tok::Slash, BinOpKind::Div),
        (Tok::Percent, BinOpKind::Rem),
    ],
];

/// The type a typedef name of the paper's examples denotes, if `name` is
/// one.
fn typedef_type(name: &str) -> Option<CType> {
    let (width, signed) = match name {
        "int8_t" => (8, true),
        "int16_t" => (16, true),
        "int32_t" => (32, true),
        "int64_t" | "ssize_t" | "ptrdiff_t" | "intptr_t" => (64, true),
        "uint8_t" => (8, false),
        "uint16_t" => (16, false),
        "uint32_t" => (32, false),
        "uint64_t" | "size_t" | "uintptr_t" => (64, false),
        _ => return None,
    };
    Some(CType::Int { width, signed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> TranslationUnit {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parse_figure1_style_function() {
        let unit = parse_src(
            "int check(char *buf, char *buf_end, unsigned int len) {\n\
              if (buf + len >= buf_end) return -1;\n\
              if (buf + len < buf) return -1;\n\
              return 0;\n\
            }",
        );
        assert_eq!(unit.functions.len(), 1);
        let f = &unit.functions[0];
        assert_eq!(f.name, "check");
        assert_eq!(f.params.len(), 3);
        assert!(f.params[0].ty.is_pointer());
        assert_eq!(f.body.len(), 3);
        assert!(matches!(f.body[0], Stmt::If { .. }));
        assert!(matches!(f.body[2], Stmt::Return { .. }));
    }

    #[test]
    fn parse_figure2_style_function() {
        let unit = parse_src(
            "int poll(struct tun_struct *tun) {\n\
              struct sock *sk = tun->sk;\n\
              if (!tun) return 1;\n\
              return 0;\n\
            }",
        );
        let f = &unit.functions[0];
        assert_eq!(f.params[0].ty, CType::ptr_to(CType::Void));
        match &f.body[0] {
            Stmt::Decl { name, ty, init, .. } => {
                assert_eq!(name, "sk");
                assert!(ty.is_pointer());
                assert!(matches!(init, Some(Expr::Member { .. })));
            }
            other => panic!("expected declaration, got {other:?}"),
        }
    }

    /// The expression `src` parsed, with every binary operation written as
    /// `(op lhs rhs)`.
    fn parenthesized(src: &str) -> String {
        fn render(e: &Expr) -> String {
            match e {
                Expr::Binary { op, lhs, rhs, .. } => {
                    format!("({op:?} {} {})", render(lhs), render(rhs))
                }
                Expr::Var { name, .. } => name.clone(),
                Expr::IntLit { value, .. } => value.to_string(),
                other => panic!("unexpected operand {other:?}"),
            }
        }
        let unit = parse_src(&format!("int f(void) {{ return {src}; }}"));
        match &unit.functions[0].body[0] {
            Stmt::Return { value: Some(e), .. } => render(e),
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parse_expressions_with_precedence() {
        let cases = [
            ("x + y * 2 < x << 1", "(Lt (Add x (Mul y 2)) (Shl x 1))"),
            // All 18 binary operators, each level binding tighter than the
            // one before it.
            (
                "a || b && c | d ^ e & f == g != h < i <= j > k >= l << m >> n + o - p * q / r % s",
                "(LogicalOr a (LogicalAnd b (BitOr c (BitXor d (BitAnd e (Ne (Eq f g) \
                 (Ge (Gt (Le (Lt h i) j) k) (Shr (Shl l m) (Sub (Add n o) \
                 (Rem (Div (Mul p q) r) s))))))))))",
            ),
            (
                "a * b + c << d < e == f & g ^ h | i && j || k",
                "(LogicalOr (LogicalAnd (BitOr (BitXor (BitAnd (Eq (Lt (Shl (Add (Mul a b) c) d) \
                 e) f) g) h) i) j) k)",
            ),
            ("a - b - c", "(Sub (Sub a b) c)"),
            ("a / b % c", "(Rem (Div a b) c)"),
        ];
        for (src, tree) in cases {
            assert_eq!(parenthesized(src), tree, "{src}");
        }
        // Each operation carries its operator token's span.
        let unit = parse_src("int f(void) { return a - b - c; }");
        let Stmt::Return {
            value: Some(Expr::Binary { lhs, span, .. }),
            ..
        } = &unit.functions[0].body[0]
        else {
            panic!("expected a returned binary expression");
        };
        let Expr::Binary { span: inner, .. } = &**lhs else {
            panic!("expected a nested binary expression");
        };
        assert_eq!((inner.column, span.column), (24, 28));
    }

    #[test]
    fn parse_array_declaration_and_index() {
        let unit = parse_src("int f(void) { char buf[15]; return buf[3]; }");
        let f = &unit.functions[0];
        match &f.body[0] {
            Stmt::Decl { array, .. } => assert_eq!(*array, Some(15)),
            other => panic!("expected array decl, got {other:?}"),
        }
        match &f.body[1] {
            Stmt::Return { value: Some(e), .. } => {
                assert!(matches!(e, Expr::Index { .. }));
            }
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parse_loops_casts_and_ternary() {
        let unit = parse_src(
            "long f(int n) {\n\
               long total = 0;\n\
               for (int i = 0; i < n; i = i + 1) { total += (long)i; }\n\
               while (total > 100) total -= 1;\n\
               return total > 0 ? total : -total;\n\
             }",
        );
        let f = &unit.functions[0];
        assert!(matches!(f.body[1], Stmt::For { .. }));
        assert!(matches!(f.body[2], Stmt::While { .. }));
        match &f.body[3] {
            Stmt::Return { value: Some(e), .. } => {
                assert!(matches!(e, Expr::Conditional { .. }));
            }
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parse_calls_and_logical_ops() {
        let unit =
            parse_src("int f(char *p, int x) { if (p != NULL && abs(x) < 0) return 1; return 0; }");
        let f = &unit.functions[0];
        match &f.body[0] {
            Stmt::If { cond, .. } => match cond {
                Expr::Binary { op, rhs, .. } => {
                    assert_eq!(*op, BinOpKind::LogicalAnd);
                    assert!(matches!(
                        **rhs,
                        Expr::Binary {
                            op: BinOpKind::Lt,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected cond {other:?}"),
            },
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parse_typedef_names_and_prototypes() {
        let unit = parse_src(
            "int64_t divide(int64_t a, int64_t b);\n\
             int64_t divide(int64_t a, int64_t b) { return a / b; }",
        );
        assert_eq!(unit.functions.len(), 1);
        assert_eq!(
            unit.functions[0].ret_ty,
            CType::Int {
                width: 64,
                signed: true
            }
        );
    }

    #[test]
    fn parse_post_increment_and_unary() {
        let unit = parse_src("int f(int x) { x++; return -x + ~x + !x; }");
        let f = &unit.functions[0];
        assert!(matches!(f.body[0], Stmt::Expr(Expr::PostIncrement { .. })));
    }

    #[test]
    fn struct_definitions_are_skipped() {
        let unit = parse_src("struct sock { int fd; };\nint f(void) { return 0; }");
        assert_eq!(unit.functions.len(), 1);
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse(&lex("int f( { }").unwrap()).unwrap_err();
        assert!(err.line >= 1);
        assert!(!err.message.is_empty());
    }
}
