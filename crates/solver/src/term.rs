//! Hash-consed bit-vector / boolean term DAG (the QF_BV fragment).
//!
//! The checker builds formulas over this representation: every IR value of
//! interest maps to a term, undefined-behavior conditions and reachability
//! conditions are boolean terms, and the elimination / simplification queries
//! of the paper are conjunctions handed to [`crate::solver::BvSolver`].
//!
//! Terms are immutable and deduplicated in a [`TermPool`]; constructors
//! perform light constant folding and algebraic normalization so the
//! bit-blaster sees smaller formulas.
//!
//! The signed comparisons also decide the paper's §2.2 guards at the word
//! level. `x + k <s x` (and its `≤s`, flipped and `x − k` forms) becomes a
//! signed bound on `x`, built by [`TermPool::signed_add_overflow`], the
//! helper that also builds the overflow condition of `x + k` and `x − k`.
//! A comparison of the encoder's `abs(x)` against a non-positive constant
//! becomes `x = MIN`, the `abs` overflow condition. The rules are exact
//! under wrap-around, so no undefined-behavior assumption enters the pool.
//! A guard and the UB condition that decides it then intern to one term,
//! and the elimination query is a syntactic clash `t ∧ ¬t` that the
//! solver's pre-solve simplification answers before the SAT core.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of pool identities (see [`TermPool::epoch`]).
static POOL_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Maximum supported bit-vector width. The checker models C types up to
/// 64-bit integers and pointers, matching the paper's examples.
pub const MAX_WIDTH: u32 = 64;

/// Identifier of a term inside a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

/// Sort (type) of a term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// A propositional value.
    Bool,
    /// A bit-vector of the given width (1..=64).
    BitVec(u32),
}

impl Sort {
    /// Width of a bit-vector sort; panics on `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("width() on Bool sort"),
        }
    }

    /// Whether this is the boolean sort.
    pub fn is_bool(self) -> bool {
        matches!(self, Sort::Bool)
    }
}

/// Operator / node kind of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermKind {
    /// Boolean constant.
    BoolConst(bool),
    /// Bit-vector constant (value is masked to `width` bits).
    BvConst {
        width: u32,
        value: u64,
    },
    /// Free variable (bit-vector or boolean depending on its sort).
    Var {
        name: String,
        sort: Sort,
    },

    // Boolean connectives.
    Not(TermId),
    And(TermId, TermId),
    Or(TermId, TermId),
    Xor(TermId, TermId),
    Implies(TermId, TermId),
    /// If-then-else; the branches may be boolean or bit-vector terms.
    Ite(TermId, TermId, TermId),
    /// Equality over two terms of the same sort.
    Eq(TermId, TermId),

    // Bit-vector arithmetic and bitwise operators.
    BvNot(TermId),
    BvNeg(TermId),
    BvAdd(TermId, TermId),
    BvSub(TermId, TermId),
    BvMul(TermId, TermId),
    BvUdiv(TermId, TermId),
    BvSdiv(TermId, TermId),
    BvUrem(TermId, TermId),
    BvSrem(TermId, TermId),
    BvAnd(TermId, TermId),
    BvOr(TermId, TermId),
    BvXor(TermId, TermId),
    BvShl(TermId, TermId),
    BvLshr(TermId, TermId),
    BvAshr(TermId, TermId),

    // Predicates over bit-vectors.
    BvUlt(TermId, TermId),
    BvUle(TermId, TermId),
    BvSlt(TermId, TermId),
    BvSle(TermId, TermId),

    // Width adjustment.
    ZExt {
        value: TermId,
        width: u32,
    },
    SExt {
        value: TermId,
        width: u32,
    },
    Extract {
        value: TermId,
        hi: u32,
        lo: u32,
    },
    Concat(TermId, TermId),
}

impl TermKind {
    /// The operand terms of this node, in order, padded with `None`.
    pub(crate) fn operands(&self) -> [Option<TermId>; 3] {
        match self {
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var { .. } => [None; 3],
            TermKind::Not(a)
            | TermKind::BvNot(a)
            | TermKind::BvNeg(a)
            | TermKind::ZExt { value: a, .. }
            | TermKind::SExt { value: a, .. }
            | TermKind::Extract { value: a, .. } => [Some(*a), None, None],
            TermKind::And(a, b)
            | TermKind::Or(a, b)
            | TermKind::Xor(a, b)
            | TermKind::Implies(a, b)
            | TermKind::Eq(a, b)
            | TermKind::BvAdd(a, b)
            | TermKind::BvSub(a, b)
            | TermKind::BvMul(a, b)
            | TermKind::BvUdiv(a, b)
            | TermKind::BvSdiv(a, b)
            | TermKind::BvUrem(a, b)
            | TermKind::BvSrem(a, b)
            | TermKind::BvAnd(a, b)
            | TermKind::BvOr(a, b)
            | TermKind::BvXor(a, b)
            | TermKind::BvShl(a, b)
            | TermKind::BvLshr(a, b)
            | TermKind::BvAshr(a, b)
            | TermKind::BvUlt(a, b)
            | TermKind::BvUle(a, b)
            | TermKind::BvSlt(a, b)
            | TermKind::BvSle(a, b)
            | TermKind::Concat(a, b) => [Some(*a), Some(*b), None],
            TermKind::Ite(c, a, b) => [Some(*c), Some(*a), Some(*b)],
        }
    }
}

/// A term: kind plus cached sort.
#[derive(Clone, Debug)]
pub struct Term {
    pub kind: TermKind,
    pub sort: Sort,
}

/// Mask a value to `width` bits.
#[inline]
pub fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Sign-extend a `width`-bit value to an `i64`.
#[inline]
pub fn to_signed(value: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((mask(value, width) << shift) as i64) >> shift
}

/// The values [`TermPool::eval_cone`] computed, looked up by term.
pub(crate) struct ConeValues {
    first: u32,
    values: Vec<u64>,
}

impl ConeValues {
    /// The value of a term of the evaluated cone.
    pub(crate) fn get(&self, id: TermId) -> u64 {
        self.values[(id.0 - self.first) as usize]
    }
}

/// The hash-consing pool of terms.
pub struct TermPool {
    terms: Vec<Term>,
    dedup: HashMap<TermKind, TermId>,
    epoch: u64,
}

impl Default for TermPool {
    fn default() -> TermPool {
        TermPool::new()
    }
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> TermPool {
        TermPool {
            terms: Vec::new(),
            dedup: HashMap::new(),
            epoch: POOL_EPOCH.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this pool. [`TermId`]s are only
    /// meaningful within one pool; consumers that memoize per-term data
    /// (`BvSolver`'s fingerprint memo and SAT instance) key it by epoch so a
    /// memo built against one pool is never consulted for another.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct terms created.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Borrow a term.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.terms[id.0 as usize].sort
    }

    /// Width of a bit-vector term.
    pub fn width(&self, id: TermId) -> u32 {
        self.sort(id).width()
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        if let Some(&id) = self.dedup.get(&kind) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(Term {
            kind: kind.clone(),
            sort,
        });
        self.dedup.insert(kind, id);
        id
    }

    /// Constant value of a bit-vector term, if it is a constant.
    pub fn as_bv_const(&self, id: TermId) -> Option<u64> {
        match self.term(id).kind {
            TermKind::BvConst { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Constant value of a boolean term, if it is a constant.
    pub fn as_bool_const(&self, id: TermId) -> Option<bool> {
        match self.term(id).kind {
            TermKind::BoolConst(b) => Some(b),
            _ => None,
        }
    }

    // ---- Leaf constructors -------------------------------------------------

    /// The boolean constant `true`.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermKind::BoolConst(b), Sort::Bool)
    }

    /// A bit-vector constant.
    pub fn bv_const(&mut self, width: u32, value: u64) -> TermId {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        self.intern(
            TermKind::BvConst {
                width,
                value: mask(value, width),
            },
            Sort::BitVec(width),
        )
    }

    /// A free bit-vector variable.
    pub fn bv_var(&mut self, name: &str, width: u32) -> TermId {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        self.intern(
            TermKind::Var {
                name: name.to_string(),
                sort: Sort::BitVec(width),
            },
            Sort::BitVec(width),
        )
    }

    /// A free boolean variable.
    pub fn bool_var(&mut self, name: &str) -> TermId {
        self.intern(
            TermKind::Var {
                name: name.to_string(),
                sort: Sort::Bool,
            },
            Sort::Bool,
        )
    }

    // ---- Boolean connectives ------------------------------------------------

    /// Logical negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        match self.term(a).kind.clone() {
            TermKind::BoolConst(b) => self.bool_const(!b),
            TermKind::Not(inner) => inner,
            _ => self.intern(TermKind::Not(a), Sort::Bool),
        }
    }

    /// Logical conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return a;
        }
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) | (_, Some(false)) => self.bool_const(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(TermKind::And(a, b), Sort::Bool)
            }
        }
    }

    /// Conjunction of a list of terms.
    pub fn and_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.bool_const(true);
        for &t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Logical disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return a;
        }
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(true), _) | (_, Some(true)) => self.bool_const(true),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(TermKind::Or(a, b), Sort::Bool)
            }
        }
    }

    /// Disjunction of a list of terms.
    pub fn or_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.bool_const(false);
        for &t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return self.bool_const(false);
        }
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(x), Some(y)) => self.bool_const(x ^ y),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(TermKind::Xor(a, b), Sort::Bool)
            }
        }
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Boolean equivalence.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// If-then-else over booleans or bit-vectors of equal width.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        debug_assert!(self.sort(cond).is_bool());
        debug_assert_eq!(self.sort(then), self.sort(els));
        if then == els {
            return then;
        }
        match self.as_bool_const(cond) {
            Some(true) => then,
            Some(false) => els,
            None => {
                let sort = self.sort(then);
                self.intern(TermKind::Ite(cond, then, els), sort)
            }
        }
    }

    /// Equality of two terms of the same sort.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), self.sort(b));
        if a == b {
            return self.bool_const(true);
        }
        if self.sort(a).is_bool() {
            return self.iff(a, b);
        }
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(x == y);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Eq(a, b), Sort::Bool)
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    // ---- Bit-vector operators ------------------------------------------------

    fn bv_binop(
        &mut self,
        a: TermId,
        b: TermId,
        fold: impl Fn(u64, u64, u32) -> u64,
        make: impl Fn(TermId, TermId) -> TermKind,
    ) -> TermId {
        let width = self.width(a);
        debug_assert_eq!(width, self.width(b));
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let value = mask(fold(x, y, width), width);
            return self.bv_const(width, value);
        }
        self.intern(make(a, b), Sort::BitVec(width))
    }

    /// Bit-wise negation.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        let width = self.width(a);
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(width, !x);
        }
        self.intern(TermKind::BvNot(a), Sort::BitVec(width))
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        let width = self.width(a);
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(width, x.wrapping_neg());
        }
        self.intern(TermKind::BvNeg(a), Sort::BitVec(width))
    }

    /// Wrapping addition.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        if self.as_bv_const(a) == Some(0) {
            return b;
        }
        if self.as_bv_const(b) == Some(0) {
            return a;
        }
        self.bv_binop(a, b, |x, y, _| x.wrapping_add(y), TermKind::BvAdd)
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            let width = self.width(a);
            return self.bv_const(width, 0);
        }
        if self.as_bv_const(b) == Some(0) {
            return a;
        }
        self.bv_binop(a, b, |x, y, _| x.wrapping_sub(y), TermKind::BvSub)
    }

    /// Wrapping multiplication.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        if self.as_bv_const(a) == Some(1) {
            return b;
        }
        if self.as_bv_const(b) == Some(1) {
            return a;
        }
        if self.as_bv_const(a) == Some(0) || self.as_bv_const(b) == Some(0) {
            let width = self.width(a);
            return self.bv_const(width, 0);
        }
        self.bv_binop(a, b, |x, y, _| x.wrapping_mul(y), TermKind::BvMul)
    }

    /// Unsigned division; division by zero yields the all-ones value
    /// (SMT-LIB semantics). The checker guards division by its own UB
    /// condition, so this convention never leaks into reports.
    pub fn bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| x.checked_div(y).unwrap_or(mask(u64::MAX, w)),
            TermKind::BvUdiv,
        )
    }

    /// Signed division (SMT-LIB semantics for division by zero).
    pub fn bv_sdiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| {
                let sx = to_signed(x, w);
                let sy = to_signed(y, w);
                if sy == 0 {
                    if sx >= 0 {
                        mask(u64::MAX, w)
                    } else {
                        1
                    }
                } else {
                    mask(sx.wrapping_div(sy) as u64, w)
                }
            },
            TermKind::BvSdiv,
        )
    }

    /// Unsigned remainder.
    pub fn bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, _| if y == 0 { x } else { x % y },
            TermKind::BvUrem,
        )
    }

    /// Signed remainder (sign of the dividend).
    pub fn bv_srem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| {
                let sx = to_signed(x, w);
                let sy = to_signed(y, w);
                if sy == 0 {
                    mask(sx as u64, w)
                } else {
                    mask(sx.wrapping_rem(sy) as u64, w)
                }
            },
            TermKind::BvSrem,
        )
    }

    /// Bit-wise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return a;
        }
        self.bv_binop(a, b, |x, y, _| x & y, TermKind::BvAnd)
    }

    /// Bit-wise or.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return a;
        }
        self.bv_binop(a, b, |x, y, _| x | y, TermKind::BvOr)
    }

    /// Bit-wise xor.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            let width = self.width(a);
            return self.bv_const(width, 0);
        }
        self.bv_binop(a, b, |x, y, _| x ^ y, TermKind::BvXor)
    }

    /// Left shift. Shift amounts `>= width` produce zero (SMT-LIB semantics);
    /// the oversized-shift UB condition is tracked separately by the checker.
    pub fn bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| if y >= u64::from(w) { 0 } else { x << y },
            TermKind::BvShl,
        )
    }

    /// Logical right shift.
    pub fn bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| {
                if y >= u64::from(w) {
                    0
                } else {
                    mask(x, w) >> y
                }
            },
            TermKind::BvLshr,
        )
    }

    /// Arithmetic right shift.
    pub fn bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            a,
            b,
            |x, y, w| {
                let sx = to_signed(x, w);
                let shift = if y >= u64::from(w) {
                    u64::from(w) - 1
                } else {
                    y
                };
                mask((sx >> shift) as u64, w)
            },
            TermKind::BvAshr,
        )
    }

    // ---- Predicates ---------------------------------------------------------

    fn bv_cmp(
        &mut self,
        a: TermId,
        b: TermId,
        fold: impl Fn(u64, u64, u32) -> bool,
        make: impl Fn(TermId, TermId) -> TermKind,
    ) -> TermId {
        debug_assert_eq!(self.width(a), self.width(b));
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let width = self.width(a);
            return self.bool_const(fold(x, y, width));
        }
        self.intern(make(a, b), Sort::Bool)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(false);
        }
        self.bv_cmp(a, b, |x, y, _| x < y, TermKind::BvUlt)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(true);
        }
        self.bv_cmp(a, b, |x, y, _| x <= y, TermKind::BvUle)
    }

    /// Signed less-than. Decides the §2.2 guard shapes at the word level
    /// (see the [module documentation](crate::term)).
    pub fn bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(false);
        }
        if let Some(t) = self.signed_cmp_rule(a, b, true) {
            return t;
        }
        self.bv_cmp(
            a,
            b,
            |x, y, w| to_signed(x, w) < to_signed(y, w),
            TermKind::BvSlt,
        )
    }

    /// Signed less-or-equal. Decides the §2.2 guard shapes at the word
    /// level (see the [module documentation](crate::term)).
    pub fn bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(true);
        }
        if let Some(t) = self.signed_cmp_rule(a, b, false) {
            return t;
        }
        self.bv_cmp(
            a,
            b,
            |x, y, w| to_signed(x, w) <= to_signed(y, w),
            TermKind::BvSle,
        )
    }

    /// Signed overflow of `x + k` for a constant `k`, as a signed bound on
    /// `x`: `MAX − k <s x` for `k >s 0`, `x <s MIN − k` for `k <s 0`, and
    /// `false` for `k = 0`. Exact under wrap-around. The UB conditions of
    /// `x + k` and `x − k` are built with it, and so is the rewrite of the
    /// guard `x + k <s x`, so a guard and the condition that decides it
    /// intern to one term.
    pub fn signed_add_overflow(&mut self, x: TermId, k: u64) -> TermId {
        let width = self.width(x);
        let k = to_signed(k, width);
        let (min, max) = (i64::MIN >> (64 - width), i64::MAX >> (64 - width));
        match k.cmp(&0) {
            std::cmp::Ordering::Greater => {
                let bound = self.bv_const(width, (max - k) as u64);
                self.bv_slt(bound, x)
            }
            std::cmp::Ordering::Less => {
                let bound = self.bv_const(width, (min - k) as u64);
                self.bv_slt(x, bound)
            }
            std::cmp::Ordering::Equal => self.bool_const(false),
        }
    }

    /// Word-level decision of `a <s b` (`strict`) or `a ≤s b`, for the two
    /// guard shapes of the paper's §2.2. Each rule is exact under
    /// wrap-around, so no undefined-behavior assumption enters here (unlike
    /// a compiler's `nsw` fold); `None` leaves the comparison as it is.
    ///
    /// * `x + k <s x` is [`signed_add_overflow`](TermPool::signed_add_overflow)
    ///   `(x, k)` for `k >s 0` and its negation for `k <s 0`, and
    ///   `x <s x + k` is the opposite. `≤s` is `<s` here, since `x + k ≠ x`
    ///   (`bv_add` folds `+ 0`). `x − k` is read as `x + (−k)`.
    /// * With `a` the encoder's `abs` shape `ite(x <s 0, −x, x)`, `a <s C`
    ///   for `MIN <s C ≤s 0` and `a ≤s C` for `C <s 0` hold exactly when
    ///   `x = MIN` (every other `x` has `a ≥s 0`), and `a <s MIN` never
    ///   holds.
    ///
    /// Negated forms are `not` of the same term, so `presimplify` sees a
    /// guard and its UB condition's negation as a complementary pair.
    fn signed_cmp_rule(&mut self, a: TermId, b: TermId, strict: bool) -> Option<TermId> {
        if let Some((x, k)) = self.const_offset(a) {
            if x == b {
                return Some(self.offset_below(x, k));
            }
        }
        if let Some((x, k)) = self.const_offset(b) {
            if x == a {
                let below = self.offset_below(x, k);
                return Some(self.not(below));
            }
        }
        let x = self.abs_operand(a)?;
        let width = self.width(x);
        let c = to_signed(self.as_bv_const(b)?, width);
        let min = i64::MIN >> (64 - width);
        if strict && c == min {
            return Some(self.bool_const(false));
        }
        if c < 0 || (strict && c == 0) {
            let min = self.bv_const(width, min as u64);
            return Some(self.eq(x, min));
        }
        None
    }

    /// `x + k <s x` for a constant `k ≠ 0`: `x + k` overflows upward
    /// (`k >s 0`), or does not overflow downward (`k <s 0`).
    fn offset_below(&mut self, x: TermId, k: u64) -> TermId {
        let overflow = self.signed_add_overflow(x, k);
        if to_signed(k, self.width(x)) > 0 {
            overflow
        } else {
            self.not(overflow)
        }
    }

    /// `(x, k)` when `t` is `x + k` or `k + x` for a constant `k`, or
    /// `x − k`, read as offset `−k` (wrapping, so `k = MIN` stays `MIN`).
    fn const_offset(&self, t: TermId) -> Option<(TermId, u64)> {
        match self.term(t).kind {
            TermKind::BvAdd(a, b) => match (self.as_bv_const(a), self.as_bv_const(b)) {
                (None, Some(k)) => Some((a, k)),
                (Some(k), None) => Some((b, k)),
                _ => None,
            },
            TermKind::BvSub(a, b) => {
                let k = self.as_bv_const(b)?;
                Some((a, mask(k.wrapping_neg(), self.width(a))))
            }
            _ => None,
        }
    }

    /// `x` when `t` is `ite(x <s 0, −x, x)`, the encoder's `abs(x)`.
    fn abs_operand(&self, t: TermId) -> Option<TermId> {
        let TermKind::Ite(cond, neg, x) = self.term(t).kind else {
            return None;
        };
        let TermKind::BvSlt(cx, zero) = self.term(cond).kind else {
            return None;
        };
        let is_abs = cx == x
            && self.as_bv_const(zero) == Some(0)
            && matches!(self.term(neg).kind, TermKind::BvNeg(n) if n == x);
        is_abs.then_some(x)
    }

    /// Unsigned greater-than, expressed via `ult`.
    pub fn bv_ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ult(b, a)
    }

    /// Signed greater-than, expressed via `slt`.
    pub fn bv_sgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_slt(b, a)
    }

    /// Unsigned greater-or-equal.
    pub fn bv_uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ule(b, a)
    }

    /// Signed greater-or-equal.
    pub fn bv_sge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_sle(b, a)
    }

    // ---- Width adjustment -----------------------------------------------------

    /// Zero-extension to a wider bit-vector (no-op at equal width).
    pub fn zext(&mut self, a: TermId, width: u32) -> TermId {
        let cur = self.width(a);
        assert!(width >= cur && width <= MAX_WIDTH);
        if width == cur {
            return a;
        }
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(width, x);
        }
        self.intern(TermKind::ZExt { value: a, width }, Sort::BitVec(width))
    }

    /// Sign-extension to a wider bit-vector (no-op at equal width).
    pub fn sext(&mut self, a: TermId, width: u32) -> TermId {
        let cur = self.width(a);
        assert!(width >= cur && width <= MAX_WIDTH);
        if width == cur {
            return a;
        }
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(width, to_signed(x, cur) as u64);
        }
        self.intern(TermKind::SExt { value: a, width }, Sort::BitVec(width))
    }

    /// Extract bits `hi..=lo` (inclusive) as a `(hi-lo+1)`-bit value.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let cur = self.width(a);
        assert!(hi >= lo && hi < cur);
        let width = hi - lo + 1;
        if width == cur {
            return a;
        }
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(width, x >> lo);
        }
        self.intern(TermKind::Extract { value: a, hi, lo }, Sort::BitVec(width))
    }

    /// Truncate to a narrower width.
    pub fn trunc(&mut self, a: TermId, width: u32) -> TermId {
        let cur = self.width(a);
        assert!(width <= cur);
        if width == cur {
            a
        } else {
            self.extract(a, width - 1, 0)
        }
    }

    /// Concatenate two bit-vectors (`a` becomes the high bits).
    pub fn concat(&mut self, a: TermId, b: TermId) -> TermId {
        let wa = self.width(a);
        let wb = self.width(b);
        assert!(wa + wb <= MAX_WIDTH);
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bv_const(wa + wb, (x << wb) | y);
        }
        self.intern(TermKind::Concat(a, b), Sort::BitVec(wa + wb))
    }

    /// Convert a boolean term to a 1-bit vector (true -> 1).
    pub fn bool_to_bv1(&mut self, a: TermId) -> TermId {
        let one = self.bv_const(1, 1);
        let zero = self.bv_const(1, 0);
        self.ite(a, one, zero)
    }

    /// Convert a bit-vector to a boolean (true iff non-zero).
    pub fn bv_to_bool(&mut self, a: TermId) -> TermId {
        let width = self.width(a);
        let zero = self.bv_const(width, 0);
        self.ne(a, zero)
    }

    // ---- Evaluation -----------------------------------------------------------

    /// Every term `roots` reach, in ascending [`TermId`] order. A term is
    /// interned after its operands, so in this order every term follows its
    /// operands and one forward pass ([`TermPool::eval_cone`]) evaluates the
    /// whole cone, each shared subterm once.
    pub(crate) fn cone(&self, roots: &[TermId]) -> Vec<TermId> {
        let Some(top) = roots.iter().max() else {
            return Vec::new();
        };
        let mut reached = vec![false; top.0 as usize + 1];
        for r in roots {
            reached[r.0 as usize] = true;
        }
        let mut cone = Vec::new();
        for id in (0..=top.0).rev() {
            if reached[id as usize] {
                cone.push(TermId(id));
                for operand in self.term(TermId(id)).kind.operands().into_iter().flatten() {
                    reached[operand.0 as usize] = true;
                }
            }
        }
        cone.reverse();
        cone
    }

    /// Evaluate every term of `cone` (as [`TermPool::cone`] returns it) in
    /// one forward pass, valuing each free variable by one call of `var`.
    pub(crate) fn eval_cone(
        &self,
        cone: &[TermId],
        var: &mut dyn FnMut(&str, Sort) -> u64,
    ) -> ConeValues {
        let first = cone.first().map_or(0, |t| t.0);
        let last = cone.last().map_or(0, |t| t.0);
        let mut values = ConeValues {
            first,
            values: vec![0; (last - first) as usize + 1],
        };
        for &id in cone {
            let value = self.eval_node(self.term(id), &|t| values.get(t), var);
            values.values[(id.0 - first) as usize] = value;
        }
        values
    }

    /// Evaluate a term under a model mapping variable names to values.
    /// Boolean results are encoded as 0/1. The authoritative semantics: the
    /// bit-blaster must agree with it, and simulated `Sat` answers trust it.
    /// Linear in the term's DAG: shared subterms are evaluated once.
    pub fn eval(&self, id: TermId, model: &dyn Fn(&str, Sort) -> u64) -> u64 {
        let cone = self.cone(&[id]);
        self.eval_cone(&cone, &mut |name, sort| model(name, sort))
            .get(id)
    }

    /// The value of one term given its operands' values (`arg`) and the
    /// free variables' (`var`).
    fn eval_node(
        &self,
        t: &Term,
        arg: &dyn Fn(TermId) -> u64,
        var: &mut dyn FnMut(&str, Sort) -> u64,
    ) -> u64 {
        let b = |x: u64| u64::from(x != 0);
        match &t.kind {
            TermKind::BoolConst(v) => u64::from(*v),
            TermKind::BvConst { value, .. } => *value,
            TermKind::Var { name, sort } => match sort {
                Sort::Bool => b(var(name, *sort)),
                Sort::BitVec(w) => mask(var(name, *sort), *w),
            },
            TermKind::Not(a) => 1 - b(arg(*a)),
            TermKind::And(a, c) => b(arg(*a)) & b(arg(*c)),
            TermKind::Or(a, c) => b(arg(*a)) | b(arg(*c)),
            TermKind::Xor(a, c) => b(arg(*a)) ^ b(arg(*c)),
            TermKind::Implies(a, c) => (1 - b(arg(*a))) | b(arg(*c)),
            TermKind::Ite(cond, then, els) => {
                if arg(*cond) != 0 {
                    arg(*then)
                } else {
                    arg(*els)
                }
            }
            TermKind::Eq(a, c) => u64::from(arg(*a) == arg(*c)),
            TermKind::BvNot(a) => mask(!arg(*a), t.sort.width()),
            TermKind::BvNeg(a) => mask(arg(*a).wrapping_neg(), t.sort.width()),
            TermKind::BvAdd(a, c) => mask(arg(*a).wrapping_add(arg(*c)), t.sort.width()),
            TermKind::BvSub(a, c) => mask(arg(*a).wrapping_sub(arg(*c)), t.sort.width()),
            TermKind::BvMul(a, c) => mask(arg(*a).wrapping_mul(arg(*c)), t.sort.width()),
            TermKind::BvUdiv(a, c) => {
                let w = t.sort.width();
                arg(*a).checked_div(arg(*c)).unwrap_or(mask(u64::MAX, w))
            }
            TermKind::BvSdiv(a, c) => {
                let w = t.sort.width();
                let x = to_signed(arg(*a), w);
                let y = to_signed(arg(*c), w);
                if y == 0 {
                    if x >= 0 {
                        mask(u64::MAX, w)
                    } else {
                        1
                    }
                } else {
                    mask(x.wrapping_div(y) as u64, w)
                }
            }
            TermKind::BvUrem(a, c) => {
                let x = arg(*a);
                let y = arg(*c);
                if y == 0 {
                    x
                } else {
                    x % y
                }
            }
            TermKind::BvSrem(a, c) => {
                let w = t.sort.width();
                let x = to_signed(arg(*a), w);
                let y = to_signed(arg(*c), w);
                if y == 0 {
                    mask(x as u64, w)
                } else {
                    mask(x.wrapping_rem(y) as u64, w)
                }
            }
            TermKind::BvAnd(a, c) => arg(*a) & arg(*c),
            TermKind::BvOr(a, c) => arg(*a) | arg(*c),
            TermKind::BvXor(a, c) => arg(*a) ^ arg(*c),
            TermKind::BvShl(a, c) => {
                let w = t.sort.width();
                let x = arg(*a);
                let y = arg(*c);
                if y >= u64::from(w) {
                    0
                } else {
                    mask(x << y, w)
                }
            }
            TermKind::BvLshr(a, c) => {
                let w = t.sort.width();
                let x = mask(arg(*a), w);
                let y = arg(*c);
                if y >= u64::from(w) {
                    0
                } else {
                    x >> y
                }
            }
            TermKind::BvAshr(a, c) => {
                let w = t.sort.width();
                let x = to_signed(arg(*a), w);
                let y = arg(*c);
                let shift = if y >= u64::from(w) {
                    u64::from(w) - 1
                } else {
                    y
                };
                mask((x >> shift) as u64, w)
            }
            TermKind::BvUlt(a, c) => {
                let w = self.width(*a);
                u64::from(mask(arg(*a), w) < mask(arg(*c), w))
            }
            TermKind::BvUle(a, c) => {
                let w = self.width(*a);
                u64::from(mask(arg(*a), w) <= mask(arg(*c), w))
            }
            TermKind::BvSlt(a, c) => {
                let w = self.width(*a);
                u64::from(to_signed(arg(*a), w) < to_signed(arg(*c), w))
            }
            TermKind::BvSle(a, c) => {
                let w = self.width(*a);
                u64::from(to_signed(arg(*a), w) <= to_signed(arg(*c), w))
            }
            TermKind::ZExt { value, .. } => arg(*value),
            TermKind::SExt { value, width } => {
                let cur = self.width(*value);
                mask(to_signed(arg(*value), cur) as u64, *width)
            }
            TermKind::Extract { value, hi, lo } => mask(arg(*value) >> lo, hi - lo + 1),
            TermKind::Concat(a, c) => {
                let wb = self.width(*c);
                (arg(*a) << wb) | arg(*c)
            }
        }
    }

    /// Render a term as an S-expression, mainly for debugging and reports.
    pub fn display(&self, id: TermId) -> String {
        let mut out = String::new();
        self.fmt_term(id, &mut out);
        out
    }

    fn fmt_term(&self, id: TermId, out: &mut String) {
        use std::fmt::Write;
        let t = self.term(id);
        let bin = |this: &Self, op: &str, a: TermId, b: TermId, out: &mut String| {
            out.push('(');
            out.push_str(op);
            out.push(' ');
            this.fmt_term(a, out);
            out.push(' ');
            this.fmt_term(b, out);
            out.push(')');
        };
        match &t.kind {
            TermKind::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            TermKind::BvConst { width, value } => {
                let _ = write!(out, "{value}#{width}");
            }
            TermKind::Var { name, .. } => out.push_str(name),
            TermKind::Not(a) => {
                out.push_str("(not ");
                self.fmt_term(*a, out);
                out.push(')');
            }
            TermKind::And(a, b) => bin(self, "and", *a, *b, out),
            TermKind::Or(a, b) => bin(self, "or", *a, *b, out),
            TermKind::Xor(a, b) => bin(self, "xor", *a, *b, out),
            TermKind::Implies(a, b) => bin(self, "=>", *a, *b, out),
            TermKind::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.fmt_term(*c, out);
                out.push(' ');
                self.fmt_term(*a, out);
                out.push(' ');
                self.fmt_term(*b, out);
                out.push(')');
            }
            TermKind::Eq(a, b) => bin(self, "=", *a, *b, out),
            TermKind::BvNot(a) => {
                out.push_str("(bvnot ");
                self.fmt_term(*a, out);
                out.push(')');
            }
            TermKind::BvNeg(a) => {
                out.push_str("(bvneg ");
                self.fmt_term(*a, out);
                out.push(')');
            }
            TermKind::BvAdd(a, b) => bin(self, "bvadd", *a, *b, out),
            TermKind::BvSub(a, b) => bin(self, "bvsub", *a, *b, out),
            TermKind::BvMul(a, b) => bin(self, "bvmul", *a, *b, out),
            TermKind::BvUdiv(a, b) => bin(self, "bvudiv", *a, *b, out),
            TermKind::BvSdiv(a, b) => bin(self, "bvsdiv", *a, *b, out),
            TermKind::BvUrem(a, b) => bin(self, "bvurem", *a, *b, out),
            TermKind::BvSrem(a, b) => bin(self, "bvsrem", *a, *b, out),
            TermKind::BvAnd(a, b) => bin(self, "bvand", *a, *b, out),
            TermKind::BvOr(a, b) => bin(self, "bvor", *a, *b, out),
            TermKind::BvXor(a, b) => bin(self, "bvxor", *a, *b, out),
            TermKind::BvShl(a, b) => bin(self, "bvshl", *a, *b, out),
            TermKind::BvLshr(a, b) => bin(self, "bvlshr", *a, *b, out),
            TermKind::BvAshr(a, b) => bin(self, "bvashr", *a, *b, out),
            TermKind::BvUlt(a, b) => bin(self, "bvult", *a, *b, out),
            TermKind::BvUle(a, b) => bin(self, "bvule", *a, *b, out),
            TermKind::BvSlt(a, b) => bin(self, "bvslt", *a, *b, out),
            TermKind::BvSle(a, b) => bin(self, "bvsle", *a, *b, out),
            TermKind::ZExt { value, width } => {
                let _ = write!(out, "(zext{width} ");
                self.fmt_term(*value, out);
                out.push(')');
            }
            TermKind::SExt { value, width } => {
                let _ = write!(out, "(sext{width} ");
                self.fmt_term(*value, out);
                out.push(')');
            }
            TermKind::Extract { value, hi, lo } => {
                let _ = write!(out, "(extract[{hi}:{lo}] ");
                self.fmt_term(*value, out);
                out.push(')');
            }
            TermKind::Concat(a, b) => bin(self, "concat", *a, *b, out),
        }
    }
}

impl fmt::Debug for TermPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TermPool({} terms)", self.terms.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.bv_var("a", 32);
        let b = p.bv_var("b", 32);
        let s1 = p.bv_add(a, b);
        let s2 = p.bv_add(a, b);
        assert_eq!(s1, s2);
        let a2 = p.bv_var("a", 32);
        assert_eq!(a, a2);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let c1 = p.bv_const(8, 200);
        let c2 = p.bv_const(8, 100);
        let sum = p.bv_add(c1, c2);
        assert_eq!(p.as_bv_const(sum), Some(44)); // 300 mod 256
        let lt = p.bv_ult(c2, c1);
        assert_eq!(p.as_bool_const(lt), Some(true));
        let slt = p.bv_slt(c1, c2); // 200 is -56 signed
        assert_eq!(p.as_bool_const(slt), Some(true));
    }

    #[test]
    fn boolean_identities() {
        let mut p = TermPool::new();
        let x = p.bool_var("x");
        let t = p.bool_const(true);
        let f = p.bool_const(false);
        assert_eq!(p.and(x, t), x);
        assert_eq!(p.and(x, f), f);
        assert_eq!(p.or(x, f), x);
        assert_eq!(p.or(x, t), t);
        let nx = p.not(x);
        assert_eq!(p.not(nx), x);
        assert_eq!(p.xor(x, x), f);
    }

    #[test]
    fn arithmetic_identities() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 32);
        let zero = p.bv_const(32, 0);
        let one = p.bv_const(32, 1);
        assert_eq!(p.bv_add(x, zero), x);
        assert_eq!(p.bv_mul(x, one), x);
        assert_eq!(p.bv_mul(x, zero), zero);
        assert_eq!(p.bv_sub(x, x), zero);
        let t = p.bool_const(true);
        assert_eq!(p.bv_ule(x, x), t);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 16);
        let y = p.bv_var("y", 16);
        let sum = p.bv_add(x, y);
        let prod = p.bv_mul(x, y);
        let lt = p.bv_slt(x, y);
        let model = |name: &str, _sort: Sort| -> u64 {
            match name {
                "x" => 0xFFFF, // -1 as i16
                "y" => 5,
                _ => 0,
            }
        };
        assert_eq!(p.eval(sum, &model), 4);
        assert_eq!(p.eval(prod, &model), mask(0xFFFFu64.wrapping_mul(5), 16));
        assert_eq!(p.eval(lt, &model), 1); // -1 < 5 signed
    }

    #[test]
    fn eval_values_each_variable_once_on_a_shared_dag() {
        // t(i+1) = t(i) ^ (t(i) + c(i)) uses t(i) twice, so a tree walk
        // visits the bottom of a 20-level chain about 2^20 times.
        let mut p = TermPool::new();
        let mut t = p.bv_var("x", 32);
        let mut expected = 7u32;
        for i in 0..20u32 {
            let c = p.bv_var(&format!("c{i}"), 32);
            let sum = p.bv_add(t, c);
            t = p.bv_xor(t, sum);
            expected ^= expected.wrapping_add(i * 977);
        }
        let lookups = std::cell::Cell::new(0);
        let value = p.eval(t, &|name, _| {
            lookups.set(lookups.get() + 1);
            match name.strip_prefix('c') {
                Some(i) => i.parse::<u64>().unwrap() * 977,
                None => 7,
            }
        });
        assert_eq!(value, u64::from(expected));
        assert_eq!(lookups.get(), 21, "one lookup per variable");
    }

    #[test]
    fn signed_helpers() {
        assert_eq!(to_signed(0xFF, 8), -1);
        assert_eq!(to_signed(0x7F, 8), 127);
        assert_eq!(to_signed(0x80, 8), -128);
        assert_eq!(mask(0x1FF, 8), 0xFF);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
    }

    #[test]
    fn extraction_and_extension() {
        let mut p = TermPool::new();
        let c = p.bv_const(16, 0xABCD);
        let lo = p.extract(c, 7, 0);
        assert_eq!(p.as_bv_const(lo), Some(0xCD));
        let hi = p.extract(c, 15, 8);
        assert_eq!(p.as_bv_const(hi), Some(0xAB));
        let z = p.zext(lo, 32);
        assert_eq!(p.as_bv_const(z), Some(0xCD));
        let neg = p.bv_const(8, 0x80);
        let s = p.sext(neg, 16);
        assert_eq!(p.as_bv_const(s), Some(0xFF80));
        let cat = p.concat(hi, lo);
        assert_eq!(p.as_bv_const(cat), Some(0xABCD));
    }

    #[test]
    fn division_semantics() {
        let mut p = TermPool::new();
        let a = p.bv_const(8, 7);
        let zero = p.bv_const(8, 0);
        let d = p.bv_udiv(a, zero);
        assert_eq!(p.as_bv_const(d), Some(0xFF));
        let r = p.bv_urem(a, zero);
        assert_eq!(p.as_bv_const(r), Some(7));
        // INT_MIN / -1 wraps in the bit-vector world (the UB condition for
        // this case is handled by the checker, not by the solver).
        let int_min = p.bv_const(8, 0x80);
        let minus1 = p.bv_const(8, 0xFF);
        let q = p.bv_sdiv(int_min, minus1);
        assert_eq!(p.as_bv_const(q), Some(0x80));
    }

    /// The signed predicates: the pool constructor and its `i8` reference.
    type Predicate = (
        fn(&mut TermPool, TermId, TermId) -> TermId,
        fn(&i8, &i8) -> bool,
    );
    const PREDICATES: [Predicate; 4] = [
        (TermPool::bv_slt, i8::lt),
        (TermPool::bv_sle, i8::le),
        (TermPool::bv_sgt, i8::gt),
        (TermPool::bv_sge, i8::ge),
    ];

    /// Evaluate `roots` under every value of the pool's one 8-bit variable,
    /// handing `check` the value and the roots' results, in order. The
    /// reference must come from `i8` arithmetic: the pool rewrites every
    /// guard it builds, so a pool-built term cannot be its own reference.
    fn for_every_x8(p: &TermPool, roots: &[TermId], mut check: impl FnMut(i8, &[bool])) {
        let cone = p.cone(roots);
        for x in 0..=255u64 {
            let values = p.eval_cone(&cone, &mut |_, _| x);
            let results: Vec<bool> = roots.iter().map(|&r| values.get(r) != 0).collect();
            check(x as u8 as i8, &results);
        }
    }

    #[test]
    fn offset_guards_agree_with_i8_arithmetic() {
        for k in 0..=255u64 {
            let mut p = TermPool::new();
            let x = p.bv_var("x", 8);
            let c = p.bv_const(8, k);
            let minus_c = p.bv_const(8, k.wrapping_neg());
            // `x + k` three ways: either operand order, and `x − (−k)`
            // (which covers `k = MIN`: `x − MIN` is `x + MIN`).
            let offsets = [p.bv_add(x, c), p.bv_add(c, x), p.bv_sub(x, minus_c)];
            let mut roots = Vec::new();
            for (build, _) in PREDICATES {
                for offset in offsets {
                    for guard in [build(&mut p, offset, x), build(&mut p, x, offset)] {
                        assert!(k == 0 || !p.cone(&[guard]).contains(&offset));
                        roots.push(guard);
                    }
                }
            }
            let ki = k as u8 as i8;
            for_every_x8(&p, &roots, |xi, results| {
                let sum = xi.wrapping_add(ki);
                let mut results = results.iter();
                for (_, reference) in PREDICATES {
                    for _ in offsets {
                        assert_eq!(*results.next().unwrap(), reference(&sum, &xi), "{xi}+{ki}");
                        assert_eq!(*results.next().unwrap(), reference(&xi, &sum), "{xi}+{ki}");
                    }
                }
            });
        }
    }

    #[test]
    fn overflow_bound_agrees_with_i8_arithmetic() {
        for k in 0..=255u64 {
            let mut p = TermPool::new();
            let x = p.bv_var("x", 8);
            let add = p.signed_add_overflow(x, k);
            // `x − k` overflows as `x + (−k)` does, except at `k = MIN`,
            // where it overflows exactly when `x + MIN` does not.
            let sub = if k == 0x80 {
                p.not(add)
            } else {
                p.signed_add_overflow(x, k.wrapping_neg())
            };
            let ki = k as u8 as i8;
            for_every_x8(&p, &[add, sub], |xi, results| {
                assert_eq!(results[0], xi.checked_add(ki).is_none(), "{xi}+{ki}");
                assert_eq!(results[1], xi.checked_sub(ki).is_none(), "{xi}-{ki}");
            });
        }
    }

    #[test]
    fn abs_guards_agree_with_i8_arithmetic() {
        for c in 0..=255u64 {
            let mut p = TermPool::new();
            let x = p.bv_var("x", 8);
            let zero = p.bv_const(8, 0);
            let negative = p.bv_slt(x, zero);
            let minus_x = p.bv_neg(x);
            let abs = p.ite(negative, minus_x, x);
            let bound = p.bv_const(8, c);
            let below = p.bv_slt(abs, bound);
            let at_most = p.bv_sle(abs, bound);
            let ci = c as u8 as i8;
            assert_eq!(ci <= 0, !p.cone(&[below]).contains(&abs), "abs <s {ci}");
            assert_eq!(ci < 0, !p.cone(&[at_most]).contains(&abs), "abs <=s {ci}");
            for_every_x8(&p, &[below, at_most], |xi, results| {
                let a = xi.wrapping_abs();
                assert_eq!(results, [a < ci, a <= ci], "abs({xi}) vs {ci}");
            });
        }
    }

    #[test]
    fn guard_rules_hold_at_widths_1_and_64() {
        for width in [1u32, 64] {
            let min = 1u64 << (width - 1);
            let max = mask(min.wrapping_sub(1), width);
            let signed = |v: u64| i128::from(to_signed(v, width));
            let xs = [
                0,
                1,
                mask(u64::MAX, width),
                min,
                max,
                min + 1,
                max.wrapping_sub(1),
            ];
            for k in [1, mask(u64::MAX, width), min, max] {
                let mut p = TermPool::new();
                let x = p.bv_var("x", width);
                let c = p.bv_const(width, k);
                let sum = p.bv_add(x, c);
                let overflow = p.signed_add_overflow(x, k);
                let below = p.bv_slt(sum, x);
                let above = p.bv_sle(x, sum);
                for &xv in &xs {
                    let xv = mask(xv, width);
                    let eval = |t: TermId| p.eval(t, &|_, _| xv) != 0;
                    let exact = signed(xv) + signed(k);
                    let wrapped = signed(mask(exact as u64, width));
                    let ctx = format!("width {width}: {} + {}", signed(xv), signed(k));
                    assert_eq!(eval(overflow), exact != wrapped, "{ctx}");
                    assert_eq!(eval(below), wrapped < signed(xv), "{ctx}");
                    assert_eq!(eval(above), signed(xv) <= wrapped, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn display_renders_sexpr() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 32);
        let c = p.bv_const(32, 100);
        let add = p.bv_add(x, c);
        let cmp = p.bv_ult(add, x);
        let s = p.display(cmp);
        assert!(s.contains("bvult"));
        assert!(s.contains("bvadd"));
        assert!(s.contains("x"));
        assert!(s.contains("100#32"));
    }
}
