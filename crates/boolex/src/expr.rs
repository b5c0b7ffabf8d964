//! Factored-form Boolean expressions over netlist signal bits.

use oiso_netlist::NetId;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A single bit of a netlist net — the variables of activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal {
    /// The net the bit belongs to.
    pub net: NetId,
    /// The bit index within the net.
    pub bit: u8,
}

impl Signal {
    /// Creates a signal referring to a specific bit of a net.
    pub fn new(net: NetId, bit: u8) -> Self {
        Signal { net, bit }
    }

    /// Bit 0 of a net — the common case for 1-bit control nets.
    pub fn bit0(net: NetId) -> Self {
        Signal { net, bit: 0 }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bit == 0 {
            write!(f, "{}", self.net)
        } else {
            write!(f, "{}[{}]", self.net, self.bit)
        }
    }
}

/// A Boolean expression in factored form.
///
/// Construction through [`BoolExpr::and`], [`BoolExpr::or`], and
/// [`BoolExpr::not`] applies light, semantics-preserving normalization:
/// constant folding, operator flattening, duplicate removal, and
/// complement-pair detection. The expression therefore stays close to the
/// factored form the derivation produces — which the paper relies on for
/// the literal-count area estimate — without being rewritten into a
/// canonical (and potentially much larger) normal form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Constant 0 or 1.
    Const(bool),
    /// A positive literal.
    Var(Signal),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction of two or more factors.
    And(Vec<BoolExpr>),
    /// Disjunction of two or more terms.
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// The constant true expression.
    pub const TRUE: BoolExpr = BoolExpr::Const(true);
    /// The constant false expression.
    pub const FALSE: BoolExpr = BoolExpr::Const(false);

    /// A positive literal.
    pub fn var(sig: Signal) -> Self {
        BoolExpr::Var(sig)
    }

    /// Logical negation, with double-negation and constant elimination.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(inner) => *inner,
            other => BoolExpr::Not(Box::new(other)),
        }
    }

    /// Conjunction of the given factors (empty product is true).
    pub fn and(factors: Vec<BoolExpr>) -> Self {
        let mut flat: Vec<BoolExpr> = Vec::with_capacity(factors.len());
        for f in factors {
            match f {
                BoolExpr::Const(false) => return BoolExpr::FALSE,
                BoolExpr::Const(true) => {}
                BoolExpr::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Self::finish_nary(flat, true)
    }

    /// Disjunction of the given terms (empty sum is false).
    pub fn or(terms: Vec<BoolExpr>) -> Self {
        let mut flat: Vec<BoolExpr> = Vec::with_capacity(terms.len());
        for t in terms {
            match t {
                BoolExpr::Const(true) => return BoolExpr::TRUE,
                BoolExpr::Const(false) => {}
                BoolExpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        Self::finish_nary(flat, false)
    }

    fn finish_nary(mut flat: Vec<BoolExpr>, is_and: bool) -> Self {
        // Deduplicate and detect complement pairs (x and !x together).
        flat.sort_by(cmp_expr);
        flat.dedup();
        for w in 0..flat.len() {
            let neg = flat[w].clone().not();
            if flat.binary_search_by(|p| cmp_expr(p, &neg)).is_ok() {
                return BoolExpr::Const(!is_and);
            }
        }
        match flat.len() {
            0 => BoolExpr::Const(is_and),
            1 => flat.pop().expect("len checked"),
            _ => {
                if is_and {
                    BoolExpr::And(flat)
                } else {
                    BoolExpr::Or(flat)
                }
            }
        }
    }

    /// Binary conjunction convenience.
    pub fn and2(a: BoolExpr, b: BoolExpr) -> Self {
        Self::and(vec![a, b])
    }

    /// Binary disjunction convenience.
    pub fn or2(a: BoolExpr, b: BoolExpr) -> Self {
        Self::or(vec![a, b])
    }

    /// The condition `net == value` over the `width` low bits of `net`,
    /// as a product of positive/negative bit literals. This is the
    /// observability condition "mux select addresses data input *k*".
    pub fn net_equals(net: NetId, width: u8, value: u64) -> Self {
        let factors = (0..width)
            .map(|bit| {
                let lit = BoolExpr::var(Signal::new(net, bit));
                if (value >> bit) & 1 == 1 {
                    lit
                } else {
                    lit.not()
                }
            })
            .collect();
        Self::and(factors)
    }

    /// Evaluates the expression under a bit assignment.
    pub fn eval(&self, assignment: &impl Fn(Signal) -> bool) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(s) => assignment(*s),
            BoolExpr::Not(e) => !e.eval(assignment),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(assignment)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(assignment)),
        }
    }

    /// Evaluates the expression on 64 assignments at once: `assignment`
    /// returns one bit-plane per signal (bit `t` is the signal's value in
    /// assignment `t`), and bit `t` of the result is
    /// [`BoolExpr::eval`] under assignment `t`.
    pub fn eval_word(&self, assignment: &impl Fn(Signal) -> u64) -> u64 {
        match self {
            BoolExpr::Const(b) => 0u64.wrapping_sub(*b as u64),
            BoolExpr::Var(s) => assignment(*s),
            BoolExpr::Not(e) => !e.eval_word(assignment),
            BoolExpr::And(es) => es.iter().fold(!0, |acc, e| acc & e.eval_word(assignment)),
            BoolExpr::Or(es) => es.iter().fold(0, |acc, e| acc | e.eval_word(assignment)),
        }
    }

    /// The number of literal occurrences — the paper's activation-logic
    /// area proxy (Section 5.1).
    pub fn literal_count(&self) -> usize {
        match self {
            BoolExpr::Const(_) => 0,
            BoolExpr::Var(_) => 1,
            BoolExpr::Not(e) => e.literal_count(),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                es.iter().map(BoolExpr::literal_count).sum()
            }
        }
    }

    /// The set of distinct signals the expression depends on.
    pub fn support(&self) -> BTreeSet<Signal> {
        let mut set = BTreeSet::new();
        self.collect_support(&mut set);
        set
    }

    fn collect_support(&self, set: &mut BTreeSet<Signal>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(s) => {
                set.insert(*s);
            }
            BoolExpr::Not(e) => e.collect_support(set),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.collect_support(set);
                }
            }
        }
    }

    /// `true` if the expression is the constant `value`.
    pub fn is_const(&self, value: bool) -> bool {
        matches!(self, BoolExpr::Const(b) if *b == value)
    }

    /// Substitutes every variable through `f`, rebuilding with the smart
    /// constructors (so the result is normalized). Used by the register
    /// look-ahead analysis to replace control signals with their
    /// next-cycle-value expressions.
    pub fn substitute(&self, f: &impl Fn(Signal) -> BoolExpr) -> BoolExpr {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Var(s) => f(*s),
            BoolExpr::Not(e) => e.substitute(f).not(),
            BoolExpr::And(es) => {
                BoolExpr::and(es.iter().map(|e| e.substitute(f)).collect())
            }
            BoolExpr::Or(es) => {
                BoolExpr::or(es.iter().map(|e| e.substitute(f)).collect())
            }
        }
    }

    /// Renders the expression with a caller-supplied signal namer —
    /// typically net names from a netlist instead of raw ids.
    pub fn render(&self, name_of: &impl Fn(Signal) -> String) -> String {
        match self {
            BoolExpr::Const(true) => "1".to_string(),
            BoolExpr::Const(false) => "0".to_string(),
            BoolExpr::Var(s) => name_of(*s),
            BoolExpr::Not(e) => match e.as_ref() {
                BoolExpr::Var(s) => format!("!{}", name_of(*s)),
                inner => format!("!({})", inner.render(name_of)),
            },
            BoolExpr::And(es) => es
                .iter()
                .map(|e| match e {
                    BoolExpr::Or(_) => format!("({})", e.render(name_of)),
                    _ => e.render(name_of),
                })
                .collect::<Vec<_>>()
                .join("&"),
            BoolExpr::Or(es) => es
                .iter()
                .map(|e| e.render(name_of))
                .collect::<Vec<_>>()
                .join(" + "),
        }
    }

    /// Expression depth (constants and literals have depth 0).
    pub fn depth(&self) -> usize {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => 0,
            BoolExpr::Not(e) => e.depth(),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                1 + es.iter().map(BoolExpr::depth).max().unwrap_or(0)
            }
        }
    }
}

/// Total, deterministic structural ordering used for normalization.
fn cmp_expr(a: &BoolExpr, b: &BoolExpr) -> Ordering {
    fn rank(e: &BoolExpr) -> u8 {
        match e {
            BoolExpr::Const(_) => 0,
            BoolExpr::Var(_) => 1,
            BoolExpr::Not(_) => 2,
            BoolExpr::And(_) => 3,
            BoolExpr::Or(_) => 4,
        }
    }
    match (a, b) {
        (BoolExpr::Const(x), BoolExpr::Const(y)) => x.cmp(y),
        (BoolExpr::Var(x), BoolExpr::Var(y)) => x.cmp(y),
        (BoolExpr::Not(x), BoolExpr::Not(y)) => cmp_expr(x, y),
        (BoolExpr::And(xs), BoolExpr::And(ys)) | (BoolExpr::Or(xs), BoolExpr::Or(ys)) => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                let c = cmp_expr(x, y);
                if c != Ordering::Equal {
                    return c;
                }
            }
            xs.len().cmp(&ys.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(true) => write!(f, "1"),
            BoolExpr::Const(false) => write!(f, "0"),
            BoolExpr::Var(s) => write!(f, "{s}"),
            BoolExpr::Not(e) => match e.as_ref() {
                BoolExpr::Var(s) => write!(f, "!{s}"),
                inner => write!(f, "!({inner})"),
            },
            BoolExpr::And(es) => {
                let parts: Vec<String> = es
                    .iter()
                    .map(|e| match e {
                        BoolExpr::Or(_) => format!("({e})"),
                        _ => format!("{e}"),
                    })
                    .collect();
                write!(f, "{}", parts.join("&"))
            }
            BoolExpr::Or(es) => {
                let parts: Vec<String> = es.iter().map(|e| format!("{e}")).collect();
                write!(f, "{}", parts.join(" + "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> BoolExpr {
        BoolExpr::var(Signal::bit0(NetId::from_index(i)))
    }

    #[test]
    fn constant_folding() {
        assert_eq!(BoolExpr::and(vec![v(0), BoolExpr::FALSE]), BoolExpr::FALSE);
        assert_eq!(BoolExpr::and(vec![v(0), BoolExpr::TRUE]), v(0));
        assert_eq!(BoolExpr::or(vec![v(0), BoolExpr::TRUE]), BoolExpr::TRUE);
        assert_eq!(BoolExpr::or(vec![v(0), BoolExpr::FALSE]), v(0));
        assert_eq!(BoolExpr::and(vec![]), BoolExpr::TRUE);
        assert_eq!(BoolExpr::or(vec![]), BoolExpr::FALSE);
    }

    #[test]
    fn double_negation_cancels() {
        assert_eq!(v(1).not().not(), v(1));
        assert_eq!(BoolExpr::TRUE.not(), BoolExpr::FALSE);
    }

    #[test]
    fn idempotence_and_complements() {
        assert_eq!(BoolExpr::and(vec![v(0), v(0)]), v(0));
        assert_eq!(BoolExpr::or(vec![v(0), v(0)]), v(0));
        assert_eq!(BoolExpr::and(vec![v(0), v(0).not()]), BoolExpr::FALSE);
        assert_eq!(BoolExpr::or(vec![v(0), v(0).not()]), BoolExpr::TRUE);
    }

    #[test]
    fn flattening() {
        let e = BoolExpr::and(vec![v(0), BoolExpr::and(vec![v(1), v(2)])]);
        match e {
            BoolExpr::And(inner) => assert_eq!(inner.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn literal_count_of_paper_example() {
        // AS_a1 = !S2&G1 + !S0&S1&G0: five literals.
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![v(2).not(), v(4)]),
            BoolExpr::and(vec![v(0).not(), v(1), v(3)]),
        ]);
        assert_eq!(e.literal_count(), 5);
        assert_eq!(e.support().len(), 5);
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn eval_matches_semantics() {
        let e = BoolExpr::or2(BoolExpr::and2(v(0), v(1).not()), v(2));
        // Truth table over 3 vars.
        for bits in 0u8..8 {
            let assign = |s: Signal| (bits >> s.net.index()) & 1 == 1;
            let x0 = assign(Signal::bit0(NetId::from_index(0)));
            let x1 = assign(Signal::bit0(NetId::from_index(1)));
            let x2 = assign(Signal::bit0(NetId::from_index(2)));
            assert_eq!(e.eval(&assign), (x0 && !x1) || x2);
        }
    }

    #[test]
    fn eval_word_matches_64_scalar_evals() {
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![v(0), v(1).not(), v(3)]),
            BoolExpr::and2(v(2), BoolExpr::or2(v(0).not(), v(4))).not(),
            BoolExpr::and2(v(4), v(1)),
        ]);
        let exprs = [e, BoolExpr::TRUE, BoolExpr::FALSE, v(3), v(2).not()];
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..50 {
            let planes: Vec<u64> = (0..5)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                })
                .collect();
            for e in &exprs {
                let word = e.eval_word(&|sig: Signal| planes[sig.net.index()]);
                for t in 0..64 {
                    let scalar = e.eval(&|sig: Signal| (planes[sig.net.index()] >> t) & 1 == 1);
                    assert_eq!((word >> t) & 1 == 1, scalar, "{e} at {t}");
                }
            }
        }
    }

    #[test]
    fn net_equals_builds_minterm() {
        let n = NetId::from_index(9);
        let e = BoolExpr::net_equals(n, 3, 0b101);
        assert_eq!(e.literal_count(), 3);
        let assign_match = |s: Signal| [true, false, true][s.bit as usize];
        assert!(e.eval(&assign_match));
        let assign_miss = |s: Signal| [true, true, true][s.bit as usize];
        assert!(!e.eval(&assign_miss));
    }

    #[test]
    fn display_factored_form() {
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![v(2).not(), v(4)]),
            BoolExpr::and(vec![v(0).not(), v(1), v(3)]),
        ]);
        let s = e.to_string();
        assert!(s.contains('+'), "{s}");
        assert!(s.contains('&'), "{s}");
        assert!(s.contains('!'), "{s}");
    }

    #[test]
    fn or_inside_and_is_parenthesized() {
        let e = BoolExpr::and2(BoolExpr::or2(v(0), v(1)), v(2));
        let s = e.to_string();
        assert!(s.contains('('), "{s}");
    }

    #[test]
    fn normalization_is_order_insensitive() {
        let a = BoolExpr::and(vec![v(0), v(1), v(2)]);
        let b = BoolExpr::and(vec![v(2), v(0), v(1)]);
        assert_eq!(a, b);
    }
}
