//! Bit-blasting: translating bit-vector terms into CNF for the SAT core.
//!
//! Every boolean term maps to a single literal and every bit-vector term to a
//! vector of literals (least-significant bit first). Structural sharing in
//! the term DAG carries over: each term is translated once and cached.
//! Arithmetic uses ripple-carry adders, shift-and-add multiplication,
//! restoring division, and a staged barrel shifter — all built from four
//! Tseitin gates (AND, XOR, MUX, majority; OR is a negated AND).
//!
//! As in Boolector (Brummayer & Biere, TACAS 2009), the gate constructors
//! fold and then hash-cons, so the word-level gadgets need no special cases
//! for constant operands:
//!
//! * **Folding.** An input that is the blaster's `true_lit` or its
//!   negation, or two equal or complementary inputs, never emit a gate.
//!   AND and XOR reduce to an input, its negation or a constant; a MUX with
//!   a constant or repeated input reduces to an AND, OR or XNOR; a majority
//!   with a constant input reduces to an AND or OR, and with two equal
//!   (complementary) inputs to that input (the third one). `x * 4` thus
//!   blasts to exactly the literals of `x << 2`, and a multiply or divide by
//!   a constant keeps only the gates its variable bits need.
//! * **Hashing.** Every gate still emitted is keyed on its normalized
//!   inputs: operands sorted, XOR inputs made positive with their polarity
//!   moved to the output, the MUX condition made positive (swapping the
//!   arms) and its then-arm made positive (negating the output), the first
//!   majority input made positive (majority is self-dual). One blaster —
//!   which lives as long as its [`BvSolver`](crate::solver::BvSolver) sees
//!   the same pool, one function in the checker — builds each structurally
//!   equal gate once, so `x < y` and `y <= x` share one subtractor.
//!
//! A word-level relational encoding of constant divisors
//! (`a = q·k + r ∧ r < k`) was measured on top of folding and left out: no
//! gain on the novel-query benchmark workload, slower on the hardest one.

use std::collections::HashMap;

use crate::lit::Lit;
use crate::model::Model;
use crate::sat::SatSolver;
use crate::term::{TermId, TermKind, TermPool};

/// Translator state: caches from terms to literals plus the variable map used
/// for model extraction.
#[derive(Default)]
pub struct BitBlaster {
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    /// Every gate emitted so far, by its normalized inputs.
    gates: HashMap<Gate, Lit>,
    /// Literal constrained to be true (allocated lazily).
    true_lit: Option<Lit>,
    /// Bits allocated for each free variable, by name, for model extraction.
    var_bits: HashMap<String, Vec<Lit>>,
}

impl BitBlaster {
    /// Create an empty bit-blaster.
    pub fn new() -> BitBlaster {
        BitBlaster::default()
    }

    /// All blasted variables and their literals.
    pub fn variables(&self) -> impl Iterator<Item = (&String, &Vec<Lit>)> {
        self.var_bits.iter()
    }

    /// Read back a [`Model`] for every blasted free variable from the SAT
    /// solver's current assignment (valid after a `Sat` answer, before the
    /// next solve call backtracks the trail).
    pub fn extract_model(&self, sat: &SatSolver) -> Model {
        let mut model = Model::new();
        for (name, bits) in self.variables() {
            let mut value = 0u64;
            for (i, &lit) in bits.iter().enumerate() {
                if sat.model_value(lit.var()) == lit.is_positive() {
                    value |= 1u64 << i;
                }
            }
            model.set(name, value);
        }
        model
    }

    /// A literal that is always true.
    pub fn true_lit(&mut self, sat: &mut SatSolver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = sat.new_var().positive();
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// A literal that is always false.
    pub fn false_lit(&mut self, sat: &mut SatSolver) -> Lit {
        !self.true_lit(sat)
    }

    fn fresh(&mut self, sat: &mut SatSolver) -> Lit {
        sat.new_var().positive()
    }

    /// The constant a literal stands for, if it is the blaster's own
    /// `true_lit` or its negation.
    fn constant(&self, l: Lit) -> Option<bool> {
        let t = self.true_lit?;
        (l.var() == t.var()).then_some(l == t)
    }

    // ---- Tseitin gates -------------------------------------------------------
    //
    // Each constructor first folds what it can — constant inputs, equal or
    // complementary inputs — and hash-conses the gate it still needs on its
    // normalized inputs, so one blaster emits each structurally equal gate
    // once (see the module docs).

    /// The output literal of a normalized gate: the existing one, or a fresh
    /// variable constrained by the gate's Tseitin clauses.
    fn emit(&mut self, sat: &mut SatSolver, gate: Gate) -> Lit {
        if let Some(&o) = self.gates.get(&gate) {
            return o;
        }
        let o = self.fresh(sat);
        match gate {
            Gate::And(a, b) => {
                sat.add_clause(&[!o, a]);
                sat.add_clause(&[!o, b]);
                sat.add_clause(&[o, !a, !b]);
            }
            Gate::Xor(a, b) => {
                sat.add_clause(&[!o, a, b]);
                sat.add_clause(&[!o, !a, !b]);
                sat.add_clause(&[o, !a, b]);
                sat.add_clause(&[o, a, !b]);
            }
            Gate::Mux(c, t, e) => {
                sat.add_clause(&[!c, !t, o]);
                sat.add_clause(&[!c, t, !o]);
                sat.add_clause(&[c, !e, o]);
                sat.add_clause(&[c, e, !o]);
            }
            Gate::Maj(a, b, c) => {
                sat.add_clause(&[!o, a, b]);
                sat.add_clause(&[!o, a, c]);
                sat.add_clause(&[!o, b, c]);
                sat.add_clause(&[o, !a, !b]);
                sat.add_clause(&[o, !a, !c]);
                sat.add_clause(&[o, !b, !c]);
            }
        }
        self.gates.insert(gate, o);
        o
    }

    /// Output literal constrained to `a AND b`.
    fn gate_and(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        let (a, b) = (a.min(b), a.max(b));
        match (self.constant(a), self.constant(b)) {
            (Some(false), _) | (_, Some(false)) => return self.false_lit(sat),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit(sat);
        }
        self.emit(sat, Gate::And(a, b))
    }

    /// Output literal constrained to `a OR b`.
    fn gate_or(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        !self.gate_and(sat, !a, !b)
    }

    /// Output literal constrained to `a XOR b`. Input polarity moves to the
    /// output (`!a ^ b == !(a ^ b)`), so the hashed gate has positive inputs.
    fn gate_xor(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        let flip = a.is_positive() != b.is_positive();
        let (a, b) = (a.var().positive(), b.var().positive());
        let (a, b) = (a.min(b), a.max(b));
        let o = if a == b {
            self.false_lit(sat)
        } else if self.constant(a).is_some() {
            !b
        } else if self.constant(b).is_some() {
            !a
        } else {
            self.emit(sat, Gate::Xor(a, b))
        };
        if flip {
            !o
        } else {
            o
        }
    }

    /// Output literal constrained to `cond ? t : e`. A constant or repeated
    /// input reduces the mux to an AND, OR or XOR gate; otherwise the
    /// condition is made positive (swapping the arms) and the then-arm
    /// positive (moving its polarity to the output) before hashing.
    fn gate_mux(&mut self, sat: &mut SatSolver, cond: Lit, t: Lit, e: Lit) -> Lit {
        match self.constant(cond) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        let (c, t, e) = if cond.is_positive() {
            (cond, t, e)
        } else {
            (!cond, e, t)
        };
        if t == c || self.constant(t) == Some(true) {
            return self.gate_or(sat, c, e);
        }
        if t == !c || self.constant(t) == Some(false) {
            return self.gate_and(sat, !c, e);
        }
        if e == c || self.constant(e) == Some(false) {
            return self.gate_and(sat, c, t);
        }
        if e == !c || self.constant(e) == Some(true) {
            return self.gate_or(sat, !c, t);
        }
        if t == !e {
            return !self.gate_xor(sat, c, t);
        }
        if t.is_positive() {
            self.emit(sat, Gate::Mux(c, t, e))
        } else {
            !self.emit(sat, Gate::Mux(c, !t, !e))
        }
    }

    /// Majority-of-three gate (the carry of a full adder). Majority is
    /// self-dual (`maj(!a, !b, !c) == !maj(a, b, c)`), so the hashed gate
    /// has sorted inputs, the first one positive.
    fn gate_maj(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, c: Lit) -> Lit {
        let mut l = [a, b, c];
        l.sort_unstable();
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] {
            if l[i] == l[j] {
                return l[i];
            }
            if l[i] == !l[j] {
                return l[k];
            }
            match self.constant(l[i]) {
                Some(true) => return self.gate_or(sat, l[j], l[k]),
                Some(false) => return self.gate_and(sat, l[j], l[k]),
                None => {}
            }
        }
        if l[0].is_positive() {
            self.emit(sat, Gate::Maj(l[0], l[1], l[2]))
        } else {
            !self.emit(sat, Gate::Maj(!l[0], !l[1], !l[2]))
        }
    }

    /// AND over a slice of literals.
    fn gate_and_many(&mut self, sat: &mut SatSolver, lits: &[Lit]) -> Lit {
        let mut acc = self.true_lit(sat);
        for &l in lits {
            acc = self.gate_and(sat, acc, l);
        }
        acc
    }

    /// OR over a slice of literals.
    fn gate_or_many(&mut self, sat: &mut SatSolver, lits: &[Lit]) -> Lit {
        let mut acc = self.false_lit(sat);
        for &l in lits {
            acc = self.gate_or(sat, acc, l);
        }
        acc
    }

    // ---- Word-level gadgets ----------------------------------------------------

    /// Ripple-carry addition; returns (sum bits, carry out).
    fn adder(
        &mut self,
        sat: &mut SatSolver,
        a: &[Lit],
        b: &[Lit],
        carry_in: Lit,
    ) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = Vec::with_capacity(a.len());
        let mut carry = carry_in;
        for i in 0..a.len() {
            let axb = self.gate_xor(sat, a[i], b[i]);
            let s = self.gate_xor(sat, axb, carry);
            let cout = self.gate_maj(sat, a[i], b[i], carry);
            sum.push(s);
            carry = cout;
        }
        (sum, carry)
    }

    /// Subtraction `a - b`; returns (difference bits, "no borrow" flag which
    /// equals `a >= b` unsigned).
    fn subtractor(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let one = self.true_lit(sat);
        self.adder(sat, a, &nb, one)
    }

    /// Per-bit multiplexer between two words.
    fn mux_word(&mut self, sat: &mut SatSolver, cond: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(t.len(), e.len());
        t.iter()
            .zip(e.iter())
            .map(|(&ti, &ei)| self.gate_mux(sat, cond, ti, ei))
            .collect()
    }

    /// Unsigned comparison `a < b`.
    fn ult(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  iff  a - b borrows  iff  NOT carry-out of a + ~b + 1.
        let (_, no_borrow) = self.subtractor(sat, a, b);
        !no_borrow
    }

    /// Signed comparison `a < b`.
    fn slt(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Lit {
        let n = a.len();
        let sign_a = a[n - 1];
        let sign_b = b[n - 1];
        let unsigned_lt = self.ult(sat, a, b);
        // If the signs differ, a < b iff a is negative; otherwise use the
        // unsigned comparison (two's complement ordering coincides there).
        let diff = self.gate_xor(sat, sign_a, sign_b);
        self.gate_mux(sat, diff, sign_a, unsigned_lt)
    }

    /// Word equality.
    fn eq_word(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Lit {
        let bits: Vec<Lit> = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| !self.gate_xor(sat, x, y))
            .collect();
        self.gate_and_many(sat, &bits)
    }

    /// Shift-and-add multiplication (low `n` bits of the product).
    fn multiplier(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let n = a.len();
        let fl = self.false_lit(sat);
        let mut acc = vec![fl; n];
        for i in 0..n {
            // Partial product: (a << i) AND b[i], truncated to n bits.
            let mut partial = vec![fl; n];
            for j in 0..n - i {
                partial[i + j] = self.gate_and(sat, a[j], b[i]);
            }
            let (sum, _) = self.adder(sat, &acc, &partial, fl);
            acc = sum;
        }
        acc
    }

    /// Restoring division; returns (quotient, remainder) with the SMT-LIB
    /// convention for a zero divisor (quotient all ones, remainder = dividend).
    fn divider(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let n = a.len();
        let fl = self.false_lit(sat);
        // Work with an (n+1)-bit remainder so the compare/subtract never
        // overflows.
        let mut rem: Vec<Lit> = vec![fl; n + 1];
        let mut quot: Vec<Lit> = vec![fl; n];
        let divisor: Vec<Lit> = b.iter().copied().chain(std::iter::once(fl)).collect();
        for i in (0..n).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted = Vec::with_capacity(n + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&rem[..n]);
            // If rem >= divisor, subtract and set the quotient bit.
            let (diff, no_borrow) = self.subtractor(sat, &shifted, &divisor);
            rem = self.mux_word(sat, no_borrow, &diff, &shifted);
            quot[i] = no_borrow;
        }
        (quot, rem[..n].to_vec())
    }

    /// Two's-complement negation of a word.
    fn negate(&mut self, sat: &mut SatSolver, a: &[Lit]) -> Vec<Lit> {
        let inverted: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let fl = self.false_lit(sat);
        let tl = self.true_lit(sat);
        let zero = vec![fl; a.len()];
        let (sum, _) = self.adder(sat, &inverted, &zero, tl);
        sum
    }

    /// Conditional negation: `cond ? -a : a`.
    fn negate_if(&mut self, sat: &mut SatSolver, cond: Lit, a: &[Lit]) -> Vec<Lit> {
        let neg = self.negate(sat, a);
        self.mux_word(sat, cond, &neg, a)
    }

    /// Barrel shifter. `kind` selects logical-left, logical-right, or
    /// arithmetic-right; shift amounts `>= width` saturate to the fill value.
    fn shifter(
        &mut self,
        sat: &mut SatSolver,
        a: &[Lit],
        amount: &[Lit],
        kind: ShiftKind,
    ) -> Vec<Lit> {
        let n = a.len();
        let fl = self.false_lit(sat);
        let fill = match kind {
            ShiftKind::Left | ShiftKind::LogicalRight => fl,
            ShiftKind::ArithRight => a[n - 1],
        };
        let stages = usize::try_from(64 - (n as u64 - 1).leading_zeros()).unwrap(); // ceil(log2 n)
        let mut cur: Vec<Lit> = a.to_vec();
        for (k, &cond) in amount.iter().enumerate().take(stages) {
            let shift_by = 1usize << k;
            let mut shifted = vec![fill; n];
            match kind {
                ShiftKind::Left => {
                    shifted[shift_by..n].copy_from_slice(&cur[..n - shift_by]);
                }
                ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                    for i in 0..n {
                        shifted[i] = if i + shift_by < n {
                            cur[i + shift_by]
                        } else {
                            fill
                        };
                    }
                }
            }
            cur = self.mux_word(sat, cond, &shifted, &cur);
        }
        // If the amount is >= n (any high bit set, or the low bits encode a
        // value >= n when n is not a power of two), the result is all fill.
        let mut overshift_bits: Vec<Lit> = amount[stages..].to_vec();
        if !n.is_power_of_two() {
            // Compare the low `stages` bits against n.
            let low = &amount[..stages];
            let n_bits: Vec<Lit> = (0..stages)
                .map(|i| {
                    if (n >> i) & 1 == 1 {
                        self.true_lit(sat)
                    } else {
                        fl
                    }
                })
                .collect();
            let lt = self.ult(sat, low, &n_bits);
            overshift_bits.push(!lt);
        }
        let overshift = self.gate_or_many(sat, &overshift_bits);
        let filled = vec![fill; n];
        self.mux_word(sat, overshift, &filled, &cur)
    }

    // ---- Term translation --------------------------------------------------------

    /// The literal a boolean term was already translated to, if any. A
    /// read-only probe into the memo table: callers mapping assumption cores
    /// back to terms must not trigger fresh blasting.
    pub fn bool_literal(&self, t: TermId) -> Option<Lit> {
        self.bool_cache.get(&t).copied()
    }

    /// Translate a boolean term to a literal.
    pub fn blast_bool(&mut self, pool: &TermPool, sat: &mut SatSolver, t: TermId) -> Lit {
        debug_assert!(pool.sort(t).is_bool(), "blast_bool on non-boolean term");
        if let Some(&l) = self.bool_cache.get(&t) {
            return l;
        }
        let kind = pool.term(t).kind.clone();
        let lit = match kind {
            TermKind::BoolConst(true) => self.true_lit(sat),
            TermKind::BoolConst(false) => self.false_lit(sat),
            TermKind::Var { name, sort } => {
                debug_assert!(sort.is_bool());
                let l = self.fresh(sat);
                self.var_bits.entry(name).or_insert_with(|| vec![l]);
                l
            }
            TermKind::Not(a) => {
                let la = self.blast_bool(pool, sat, a);
                !la
            }
            TermKind::And(a, b) => {
                let la = self.blast_bool(pool, sat, a);
                let lb = self.blast_bool(pool, sat, b);
                self.gate_and(sat, la, lb)
            }
            TermKind::Or(a, b) => {
                let la = self.blast_bool(pool, sat, a);
                let lb = self.blast_bool(pool, sat, b);
                self.gate_or(sat, la, lb)
            }
            TermKind::Xor(a, b) => {
                let la = self.blast_bool(pool, sat, a);
                let lb = self.blast_bool(pool, sat, b);
                self.gate_xor(sat, la, lb)
            }
            TermKind::Implies(a, b) => {
                let la = self.blast_bool(pool, sat, a);
                let lb = self.blast_bool(pool, sat, b);
                self.gate_or(sat, !la, lb)
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.blast_bool(pool, sat, c);
                let la = self.blast_bool(pool, sat, a);
                let lb = self.blast_bool(pool, sat, b);
                self.gate_mux(sat, lc, la, lb)
            }
            TermKind::Eq(a, b) => {
                if pool.sort(a).is_bool() {
                    let la = self.blast_bool(pool, sat, a);
                    let lb = self.blast_bool(pool, sat, b);
                    !self.gate_xor(sat, la, lb)
                } else {
                    let wa = self.blast_bv(pool, sat, a);
                    let wb = self.blast_bv(pool, sat, b);
                    self.eq_word(sat, &wa, &wb)
                }
            }
            TermKind::BvUlt(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.ult(sat, &wa, &wb)
            }
            TermKind::BvUle(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                !self.ult(sat, &wb, &wa)
            }
            TermKind::BvSlt(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.slt(sat, &wa, &wb)
            }
            TermKind::BvSle(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                !self.slt(sat, &wb, &wa)
            }
            other => panic!("blast_bool: unexpected boolean term kind {other:?}"),
        };
        self.bool_cache.insert(t, lit);
        lit
    }

    /// Translate a bit-vector term to its literals (LSB first).
    pub fn blast_bv(&mut self, pool: &TermPool, sat: &mut SatSolver, t: TermId) -> Vec<Lit> {
        if let Some(bits) = self.bv_cache.get(&t) {
            return bits.clone();
        }
        let width = pool.width(t) as usize;
        let kind = pool.term(t).kind.clone();
        let bits: Vec<Lit> = match kind {
            TermKind::BvConst { value, .. } => {
                let tl = self.true_lit(sat);
                (0..width)
                    .map(|i| if (value >> i) & 1 == 1 { tl } else { !tl })
                    .collect()
            }
            TermKind::Var { name, .. } => {
                if let Some(bits) = self.var_bits.get(&name) {
                    bits.clone()
                } else {
                    let bits: Vec<Lit> = (0..width).map(|_| self.fresh(sat)).collect();
                    self.var_bits.insert(name, bits.clone());
                    bits
                }
            }
            TermKind::BvNot(a) => {
                let wa = self.blast_bv(pool, sat, a);
                wa.iter().map(|&l| !l).collect()
            }
            TermKind::BvNeg(a) => {
                let wa = self.blast_bv(pool, sat, a);
                self.negate(sat, &wa)
            }
            TermKind::BvAdd(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                let fl = self.false_lit(sat);
                self.adder(sat, &wa, &wb, fl).0
            }
            TermKind::BvSub(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.subtractor(sat, &wa, &wb).0
            }
            TermKind::BvMul(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.multiplier(sat, &wa, &wb)
            }
            TermKind::BvUdiv(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.divider(sat, &wa, &wb).0
            }
            TermKind::BvUrem(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.divider(sat, &wa, &wb).1
            }
            TermKind::BvSdiv(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                let sign_a = wa[width - 1];
                let sign_b = wb[width - 1];
                let abs_a = self.negate_if(sat, sign_a, &wa);
                let abs_b = self.negate_if(sat, sign_b, &wb);
                let (q, _) = self.divider(sat, &abs_a, &abs_b);
                let diff_sign = self.gate_xor(sat, sign_a, sign_b);
                self.negate_if(sat, diff_sign, &q)
            }
            TermKind::BvSrem(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                let sign_a = wa[width - 1];
                let sign_b = wb[width - 1];
                let abs_a = self.negate_if(sat, sign_a, &wa);
                let abs_b = self.negate_if(sat, sign_b, &wb);
                let (_, r) = self.divider(sat, &abs_a, &abs_b);
                self.negate_if(sat, sign_a, &r)
            }
            TermKind::BvAnd(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                wa.iter()
                    .zip(wb.iter())
                    .map(|(&x, &y)| self.gate_and(sat, x, y))
                    .collect()
            }
            TermKind::BvOr(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                wa.iter()
                    .zip(wb.iter())
                    .map(|(&x, &y)| self.gate_or(sat, x, y))
                    .collect()
            }
            TermKind::BvXor(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                wa.iter()
                    .zip(wb.iter())
                    .map(|(&x, &y)| self.gate_xor(sat, x, y))
                    .collect()
            }
            TermKind::BvShl(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.shifter(sat, &wa, &wb, ShiftKind::Left)
            }
            TermKind::BvLshr(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.shifter(sat, &wa, &wb, ShiftKind::LogicalRight)
            }
            TermKind::BvAshr(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.shifter(sat, &wa, &wb, ShiftKind::ArithRight)
            }
            TermKind::Ite(c, a, b) => {
                let lc = self.blast_bool(pool, sat, c);
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                self.mux_word(sat, lc, &wa, &wb)
            }
            TermKind::ZExt { value, .. } => {
                let wa = self.blast_bv(pool, sat, value);
                let fl = self.false_lit(sat);
                let mut bits = wa;
                bits.resize(width, fl);
                bits
            }
            TermKind::SExt { value, .. } => {
                let wa = self.blast_bv(pool, sat, value);
                let sign = *wa.last().expect("non-empty word");
                let mut bits = wa;
                bits.resize(width, sign);
                bits
            }
            TermKind::Extract { value, hi, lo } => {
                let wa = self.blast_bv(pool, sat, value);
                wa[lo as usize..=hi as usize].to_vec()
            }
            TermKind::Concat(a, b) => {
                let wa = self.blast_bv(pool, sat, a);
                let wb = self.blast_bv(pool, sat, b);
                let mut bits = wb;
                bits.extend_from_slice(&wa);
                bits
            }
            other => panic!("blast_bv: unexpected bit-vector term kind {other:?}"),
        };
        debug_assert_eq!(bits.len(), width);
        self.bv_cache.insert(t, bits.clone());
        bits
    }
}

/// A Tseitin gate on normalized inputs: the structural-hashing key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// `a AND b`, with `a < b`.
    And(Lit, Lit),
    /// `a XOR b`, with `a < b`, both positive.
    Xor(Lit, Lit),
    /// `c ? t : e`, with `c` and `t` positive.
    Mux(Lit, Lit, Lit),
    /// Majority of three, sorted, the first positive.
    Maj(Lit, Lit, Lit),
}

/// Direction/fill behaviour of the barrel shifter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::Model;
    use crate::sat::SatResult;
    use proptest::prelude::*;

    /// Assert a boolean term and check satisfiability from scratch.
    fn check(pool: &mut TermPool, t: TermId) -> SatResult {
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new();
        let lit = blaster.blast_bool(pool, &mut sat, t);
        sat.add_clause(&[lit]);
        sat.solve()
    }

    #[test]
    fn add_commutes_with_constants() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let y = p.bv_var("y", 8);
        let xy = p.bv_add(x, y);
        let yx = p.bv_add(y, x);
        // x + y != y + x must be UNSAT.
        let neq = p.ne(xy, yx);
        assert_eq!(check(&mut p, neq), SatResult::Unsat);
    }

    #[test]
    fn unsigned_overflow_is_possible() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let c = p.bv_const(8, 100);
        let sum = p.bv_add(x, c);
        // exists x: x + 100 < x (unsigned wraparound) — SAT.
        let wrap = p.bv_ult(sum, x);
        assert_eq!(check(&mut p, wrap), SatResult::Sat);
    }

    #[test]
    fn mul_matches_shift_for_power_of_two() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let four = p.bv_const(8, 4);
        let two = p.bv_const(8, 2);
        let by_mul = p.bv_mul(x, four);
        let by_shift = p.bv_shl(x, two);
        let neq = p.ne(by_mul, by_shift);
        assert_eq!(check(&mut p, neq), SatResult::Unsat);
    }

    #[test]
    fn division_identity() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 6);
        let y = p.bv_var("y", 6);
        let zero = p.bv_const(6, 0);
        // y != 0 -> (x / y) * y + (x % y) == x
        let q = p.bv_udiv(x, y);
        let r = p.bv_urem(x, y);
        let prod = p.bv_mul(q, y);
        let back = p.bv_add(prod, r);
        let identity = p.eq(back, x);
        let y_nonzero = p.ne(y, zero);
        let violated = p.not(identity);
        let query = p.and(y_nonzero, violated);
        assert_eq!(check(&mut p, query), SatResult::Unsat);
    }

    #[test]
    fn signed_division_int_min_wraps() {
        let mut p = TermPool::new();
        // -128 / -1 == -128 in 8-bit wrap-around semantics.
        let int_min = p.bv_const(8, 0x80);
        let minus_one = p.bv_const(8, 0xFF);
        let x = p.bv_var("x", 8);
        let q = p.bv_sdiv(x, minus_one);
        let x_is_min = p.eq(x, int_min);
        let q_is_min = p.eq(q, int_min);
        let not_wrapping = p.not(q_is_min);
        let query = p.and(x_is_min, not_wrapping);
        assert_eq!(check(&mut p, query), SatResult::Unsat);
    }

    #[test]
    fn shift_semantics() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let three = p.bv_const(8, 3);
        let eight = p.bv_const(8, 8);
        let zero = p.bv_const(8, 0);
        // Oversized shift gives zero.
        let over = p.bv_shl(x, eight);
        let nonzero = p.ne(over, zero);
        assert_eq!(check(&mut p, nonzero), SatResult::Unsat);
        // x << 3 == x * 8.
        let shifted = p.bv_shl(x, three);
        let scaled = p.bv_mul(x, eight);
        let neq = p.ne(shifted, scaled);
        assert_eq!(check(&mut p, neq), SatResult::Unsat);
    }

    #[test]
    fn ashr_keeps_sign() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let seven = p.bv_const(8, 7);
        let zero = p.bv_const(8, 0);
        let minus_one = p.bv_const(8, 0xFF);
        // x >> 7 (arithmetic) is either 0 or -1.
        let sh = p.bv_ashr(x, seven);
        let is_zero = p.eq(sh, zero);
        let is_m1 = p.eq(sh, minus_one);
        let either = p.or(is_zero, is_m1);
        let violated = p.not(either);
        assert_eq!(check(&mut p, violated), SatResult::Unsat);
    }

    #[test]
    fn signed_comparison_orders_negative_first() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let zero = p.bv_const(8, 0);
        let c100 = p.bv_const(8, 100);
        // exists x: x < 0 (signed) AND x > 100 (unsigned view of negatives) — SAT.
        let neg = p.bv_slt(x, zero);
        let big = p.bv_ugt(x, c100);
        let q = p.and(neg, big);
        assert_eq!(check(&mut p, q), SatResult::Sat);
        // No x is both signed-negative and signed-greater-than 100.
        let sbig = p.bv_sgt(x, c100);
        let q2 = p.and(neg, sbig);
        assert_eq!(check(&mut p, q2), SatResult::Unsat);
    }

    #[test]
    fn sext_zext_differ_only_for_negatives() {
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let zero = p.bv_const(8, 0);
        let se = p.sext(x, 16);
        let ze = p.zext(x, 16);
        let differ = p.ne(se, ze);
        let nonneg = p.bv_sge(x, zero);
        let q = p.and(differ, nonneg);
        assert_eq!(check(&mut p, q), SatResult::Unsat);
        let negative = p.bv_slt(x, zero);
        let q2 = p.and(differ, negative);
        assert_eq!(check(&mut p, q2), SatResult::Sat);
    }

    #[test]
    fn pointer_overflow_check_is_unstable_shape() {
        // The Figure 1 shape: for unsigned len, buf + len < buf is satisfiable
        // in wrap-around semantics but contradicts the no-pointer-overflow
        // assumption (buf + len computed in infinite precision stays in range).
        let mut p = TermPool::new();
        let buf = p.bv_var("buf", 16);
        let len = p.bv_var("len", 16);
        let sum = p.bv_add(buf, len);
        let wrapped = p.bv_ult(sum, buf);
        // Wrap-around semantics (C*): satisfiable.
        assert_eq!(check(&mut p, wrapped), SatResult::Sat);
        // With the well-defined assumption (no overflow in infinite precision,
        // modeled by checking the 17-bit sum does not exceed 16 bits):
        let buf17 = p.zext(buf, 17);
        let len17 = p.zext(len, 17);
        let wide_sum = p.bv_add(buf17, len17);
        let max16 = p.bv_const(17, 0xFFFF);
        let no_ovf = p.bv_ule(wide_sum, max16);
        let query = p.and(wrapped, no_ovf);
        assert_eq!(check(&mut p, query), SatResult::Unsat);
    }

    #[test]
    fn constant_multiplier_folds_to_wiring() {
        // Shift-and-add over a constant operand folds gate by gate: `x * 4`
        // is literal for literal the vector `x << 2`, and neither emits a
        // single gate.
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let four = p.bv_const(8, 4);
        let two = p.bv_const(8, 2);
        let by_mul = p.bv_mul(x, four);
        let by_shift = p.bv_shl(x, two);
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new();
        let mul_bits = blaster.blast_bv(&p, &mut sat, by_mul);
        let shift_bits = blaster.blast_bv(&p, &mut sat, by_shift);
        assert_eq!(mul_bits, shift_bits);
        assert!(blaster.gates.is_empty());
    }

    #[test]
    fn structurally_equal_gates_are_built_once() {
        // `x < y` and `y <= x` are distinct terms that both blast the
        // subtractor `x - y`: the second reuses every gate of the first and
        // returns the complementary literal without adding a clause.
        let mut p = TermPool::new();
        let x = p.bv_var("x", 8);
        let y = p.bv_var("y", 8);
        let lt = p.bv_ult(x, y);
        let ge = p.bv_ule(y, x);
        assert_ne!(lt, ge);
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new();
        let lt_lit = blaster.blast_bool(&p, &mut sat, lt);
        let (vars, clauses) = (sat.num_vars(), sat.num_clauses());
        let ge_lit = blaster.blast_bool(&p, &mut sat, ge);
        assert_eq!(ge_lit, !lt_lit);
        assert_eq!((sat.num_vars(), sat.num_clauses()), (vars, clauses));
    }

    /// A `width`-bit value drawn from `n`: half the time one of the edge
    /// values the checker's UB conditions turn on (0, 1, the signed
    /// extremes, all-ones, and the shift amounts around the width), else
    /// arbitrary.
    pub(crate) fn edge_or_random(n: u64, width: u32) -> u64 {
        let all_ones = crate::term::mask(u64::MAX, width);
        let w = u64::from(width);
        let edges = [
            0,
            1,
            1 << (width - 1),
            all_ones >> 1,
            all_ones,
            w - 1,
            w,
            w + 1,
        ];
        if n.is_multiple_of(2) {
            crate::term::mask(edges[(n >> 1) as usize % edges.len()], width)
        } else {
            crate::term::mask(n >> 1, width)
        }
    }

    /// A random `width`-bit term (`width` at most 32) over `x`, `y` and
    /// constants, drawn from `tape`: every binary bit-vector operator,
    /// negation, complement, `ite` over every comparison, and round trips
    /// through `zext`, `sext`, `extract` and `concat` back to `width`.
    pub(crate) fn random_term(
        p: &mut TermPool,
        tape: &mut impl Iterator<Item = u64>,
        depth: u32,
        width: u32,
    ) -> TermId {
        let n = tape.next().unwrap_or(0);
        if depth == 0 || n.is_multiple_of(5) {
            return match (n >> 3) % 3 {
                0 => p.bv_var("x", width),
                1 => p.bv_var("y", width),
                _ => p.bv_const(width, edge_or_random(n >> 5, width)),
            };
        }
        let a = random_term(p, tape, depth - 1, width);
        let b = random_term(p, tape, depth - 1, width);
        let k = (n >> 8) as u32 % width;
        match (n >> 3) % 20 {
            0 => p.bv_add(a, b),
            1 => p.bv_sub(a, b),
            2 => p.bv_mul(a, b),
            3 => p.bv_udiv(a, b),
            4 => p.bv_urem(a, b),
            5 => p.bv_sdiv(a, b),
            6 => p.bv_srem(a, b),
            7 => p.bv_and(a, b),
            8 => p.bv_or(a, b),
            9 => p.bv_xor(a, b),
            10 => p.bv_shl(a, b),
            11 => p.bv_lshr(a, b),
            12 => p.bv_ashr(a, b),
            13 => p.bv_not(a),
            14 => p.bv_neg(a),
            15 => {
                let low = p.extract(a, k, 0);
                p.zext(low, width)
            }
            16 => {
                let low = p.extract(a, k, 0);
                p.sext(low, width)
            }
            17 => {
                let both = p.concat(a, b);
                p.extract(both, k + width - 1, k)
            }
            18 => {
                let wide = p.sext(a, 2 * width);
                p.extract(wide, k + width - 1, k)
            }
            _ => {
                let cond = match (n >> 7) % 5 {
                    0 => p.bv_ult(a, b),
                    1 => p.bv_ule(a, b),
                    2 => p.bv_slt(a, b),
                    3 => p.bv_sle(a, b),
                    _ => p.eq(a, b),
                };
                let other = random_term(p, tape, depth - 1, width);
                p.ite(cond, other, b)
            }
        }
    }

    /// Pin `x` and `y` to `a` and `b` and assert that `t` differs from its
    /// evaluation there: `Unsat` exactly when the blaster agrees with
    /// [`TermPool::eval`].
    fn disagreement_at(p: &mut TermPool, t: TermId, a: u64, b: u64) -> SatResult {
        let width = p.width(t);
        let mut point = Model::new();
        point.set("x", a);
        point.set("y", b);
        let expected = point.eval(p, t);
        let (x, y) = (p.bv_var("x", width), p.bv_var("y", width));
        let (ca, cb, ct) = (
            p.bv_const(width, a),
            p.bv_const(width, b),
            p.bv_const(width, expected),
        );
        let pinned_x = p.eq(x, ca);
        let pinned_y = p.eq(y, cb);
        let pinned = p.and(pinned_x, pinned_y);
        let wrong = p.ne(t, ct);
        let query = p.and(pinned, wrong);
        check(p, query)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Folding and hashing never change a term's value: pinned to a
        /// random point `x = a, y = b`, a random term can only equal its
        /// evaluation there.
        #[test]
        fn blasted_terms_agree_with_evaluation(
            tape in prop::collection::vec(any::<u64>(), 1..40),
            a in 0u64..64,
            b in 0u64..64,
        ) {
            let mut p = TermPool::new();
            let t = random_term(&mut p, &mut tape.iter().copied(), 3, 6);
            let verdict = disagreement_at(&mut p, t, a, b);
            prop_assert_eq!(verdict, SatResult::Unsat, "tape {:?} x={} y={}", tape, a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The same agreement at 32 bits, where the edge cases live:
        /// division by zero, `INT_MIN / -1`, shifts by the width or more,
        /// and extensions of the sign bit.
        #[test]
        fn blasted_32_bit_terms_agree_with_evaluation(
            tape in prop::collection::vec(any::<u64>(), 1..40),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let mut p = TermPool::new();
            let t = random_term(&mut p, &mut tape.iter().copied(), 3, 32);
            let (a, b) = (edge_or_random(a, 32), edge_or_random(b, 32));
            let verdict = disagreement_at(&mut p, t, a, b);
            prop_assert_eq!(verdict, SatResult::Unsat, "tape {:?} x={} y={}", tape, a, b);
        }
    }
}
