//! Predicates over variable bindings and the value-comparison semantics.
//!
//! Selection and join conditions (`$V1 = $V2`, `$P < 500000`) compare the
//! *values* bound to variables. Values are trees; the paper's examples
//! compare atomic content (zip codes). The rules implemented here:
//!
//! * two leaves compare numerically when both parse as integers, otherwise
//!   lexicographically by label;
//! * a tree whose content is wanted atomically uses its concatenated text
//!   (`Tree::text`), so `zip[91220]` and the bare leaf `91220` compare
//!   equal — matching how `$H zip._ $V1` binds the *content* of `zip`;
//! * `=`/`!=` on two non-leaf trees additionally accept structural
//!   (canonical) equality.

use mix_nav::pred::CmpOp;
use mix_xml::Tree;
use mix_xmas::Var;
use std::fmt;

/// An operand of a binding predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOperand {
    /// The value bound to a variable.
    Var(Var),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
}

impl PredOperand {
    /// The variables this operand mentions.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            PredOperand::Var(v) => vec![v.clone()],
            _ => Vec::new(),
        }
    }

    /// Literal operand as a tree value.
    pub fn literal_tree(&self) -> Option<Tree> {
        match self {
            PredOperand::Var(_) => None,
            PredOperand::Str(s) => Some(Tree::leaf(s.as_str())),
            PredOperand::Int(i) => Some(Tree::leaf(i.to_string())),
        }
    }
}

impl fmt::Display for PredOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredOperand::Var(v) => write!(f, "{v}"),
            PredOperand::Str(s) => write!(f, "{s:?}"),
            PredOperand::Int(i) => write!(f, "{i}"),
        }
    }
}

/// A predicate over one variable binding.
#[derive(Debug, Clone, PartialEq)]
pub enum BindPred {
    /// Always true.
    True,
    /// A comparison between two operands.
    Cmp { left: PredOperand, op: CmpOp, right: PredOperand },
    /// Conjunction.
    And(Box<BindPred>, Box<BindPred>),
    /// Disjunction.
    Or(Box<BindPred>, Box<BindPred>),
    /// Negation.
    Not(Box<BindPred>),
}

impl BindPred {
    /// Equality between two variables — the common join predicate.
    pub fn var_eq(a: impl Into<Var>, b: impl Into<Var>) -> Self {
        BindPred::Cmp {
            left: PredOperand::Var(a.into()),
            op: CmpOp::Eq,
            right: PredOperand::Var(b.into()),
        }
    }

    /// All variables mentioned anywhere in the predicate.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            BindPred::True => {}
            BindPred::Cmp { left, right, .. } => {
                for v in left.vars().into_iter().chain(right.vars()) {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            BindPred::And(a, b) | BindPred::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            BindPred::Not(p) => p.collect_vars(out),
        }
    }

    /// Evaluate against a binding, looking up variable values through the
    /// given accessor. Missing variables make comparisons false (safe
    /// queries never hit this).
    pub fn eval<'a>(&self, lookup: &impl Fn(&Var) -> Option<&'a Tree>) -> bool {
        match self {
            BindPred::True => true,
            BindPred::Cmp { left, op, right } => {
                let lv = operand_value(left, lookup);
                let rv = operand_value(right, lookup);
                match (lv, rv) {
                    (Some(a), Some(b)) => value_cmp(&a, *op, &b),
                    _ => false,
                }
            }
            BindPred::And(a, b) => a.eval(lookup) && b.eval(lookup),
            BindPred::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            BindPred::Not(p) => !p.eval(lookup),
        }
    }

    /// The keyed shape of a join predicate: a single `=` between two
    /// variables, one bound by each input. Returns `(left var, right var)`,
    /// whichever way round the predicate names them; such a join can be
    /// probed by [`eq_key`] instead of testing every pair.
    pub fn eq_join_keys(
        &self,
        in_left: impl Fn(&Var) -> bool,
        in_right: impl Fn(&Var) -> bool,
    ) -> Option<(&Var, &Var)> {
        let BindPred::Cmp { left: PredOperand::Var(a), op: CmpOp::Eq, right: PredOperand::Var(b) } =
            self
        else {
            return None;
        };
        if in_left(a) && in_right(b) {
            Some((a, b))
        } else if in_left(b) && in_right(a) {
            Some((b, a))
        } else {
            None
        }
    }

    /// Conjoin two predicates, simplifying `True`.
    pub fn and(self, other: BindPred) -> BindPred {
        match (self, other) {
            (BindPred::True, p) | (p, BindPred::True) => p,
            (a, b) => BindPred::And(Box::new(a), Box::new(b)),
        }
    }
}

fn operand_value<'a>(
    op: &PredOperand,
    lookup: &impl Fn(&Var) -> Option<&'a Tree>,
) -> Option<std::borrow::Cow<'a, Tree>> {
    match op {
        PredOperand::Var(v) => lookup(v).map(std::borrow::Cow::Borrowed),
        other => other.literal_tree().map(std::borrow::Cow::Owned),
    }
}

impl fmt::Display for BindPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindPred::True => write!(f, "true"),
            BindPred::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            BindPred::And(a, b) => write!(f, "({a} and {b})"),
            BindPred::Or(a, b) => write!(f, "({a} or {b})"),
            BindPred::Not(p) => write!(f, "not ({p})"),
        }
    }
}

/// Total order on tree values for `orderBy`: numeric when both contents
/// parse as integers, otherwise lexicographic on text, canonical form as
/// the final tie-breaker (so sorting is deterministic on equal text).
pub fn value_ord(a: &Tree, b: &Tree) -> std::cmp::Ordering {
    let at = a.text();
    let bt = b.text();
    let primary = match (at.trim().parse::<i64>(), bt.trim().parse::<i64>()) {
        (Ok(x), Ok(y)) => x.cmp(&y),
        _ => at.cmp(&bt),
    };
    primary.then_with(|| a.canonical().cmp(&b.canonical()))
}

/// Compare two tree values (see the module docs for the rules).
pub fn value_cmp(a: &Tree, op: CmpOp, b: &Tree) -> bool {
    // Equality first tries structural equality — identical trees are always
    // `=` regardless of content parsing.
    if matches!(op, CmpOp::Eq) && a == b {
        return true;
    }
    if matches!(op, CmpOp::Ne) && a == b {
        return false;
    }
    let at = a.text();
    let bt = b.text();
    match (at.trim().parse::<i64>(), bt.trim().parse::<i64>()) {
        (Ok(x), Ok(y)) => op.eval(&x, &y),
        _ => op.eval(&at.as_str(), &bt.as_str()),
    }
}

/// Equality key matching [`value_cmp`]'s `=`: numeric when the content
/// parses as an integer, textual otherwise (structural equality implies
/// text equality, so this never splits equal values). Two values share a
/// key exactly when they are `=`.
pub fn eq_key(t: &Tree) -> String {
    let text = t.text();
    match text.trim().parse::<i64>() {
        Ok(n) => format!("#i{n}"),
        Err(_) => format!("#s{text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::term::parse_term;
    use proptest::prelude::*;

    fn t(s: &str) -> Tree {
        parse_term(s).unwrap()
    }

    #[test]
    fn leaf_comparisons() {
        assert!(value_cmp(&t("91220"), CmpOp::Eq, &t("91220")));
        assert!(!value_cmp(&t("91220"), CmpOp::Eq, &t("91223")));
        assert!(value_cmp(&t("9"), CmpOp::Lt, &t("10"))); // numeric, not lexicographic
        assert!(value_cmp(&t("apple"), CmpOp::Lt, &t("banana")));
        assert!(value_cmp(&t("91220"), CmpOp::Ne, &t("91223")));
    }

    #[test]
    fn element_content_comparisons() {
        // zip[91220] = 91220: the `zip._` path binds content, but even the
        // wrapped element compares via its text.
        assert!(value_cmp(&t("zip[91220]"), CmpOp::Eq, &t("91220")));
        assert!(value_cmp(&t("zip[91220]"), CmpOp::Lt, &t("zip[91223]")));
    }

    #[test]
    fn structural_equality() {
        let h = "home[addr[La Jolla],zip[91220]]";
        assert!(value_cmp(&t(h), CmpOp::Eq, &t(h)));
        assert!(value_cmp(
            &t(h),
            CmpOp::Ne,
            &t("home[addr[El Cajon],zip[91223]]")
        ));
    }

    #[test]
    fn predicate_eval() {
        let h = t("91220");
        let s = t("91220");
        let other = t("91223");
        let lookup = |v: &Var| -> Option<&Tree> {
            match v.name() {
                "V1" => Some(&h),
                "V2" => Some(&s),
                "V3" => Some(&other),
                _ => None,
            }
        };
        assert!(BindPred::var_eq("V1", "V2").eval(&lookup));
        assert!(!BindPred::var_eq("V1", "V3").eval(&lookup));
        // Missing variable → false, not panic.
        assert!(!BindPred::var_eq("V1", "MISSING").eval(&lookup));
        // Literal comparison.
        let p = BindPred::Cmp {
            left: PredOperand::Var(Var::new("V1")),
            op: CmpOp::Ge,
            right: PredOperand::Int(91000),
        };
        assert!(p.eval(&lookup));
    }

    #[test]
    fn boolean_structure() {
        let yes = BindPred::True;
        let no = BindPred::Not(Box::new(BindPred::True));
        let lookup = |_: &Var| -> Option<&Tree> { None };
        assert!(BindPred::Or(Box::new(no.clone()), Box::new(yes.clone())).eval(&lookup));
        assert!(!BindPred::And(Box::new(no.clone()), Box::new(yes.clone())).eval(&lookup));
        // `and` smart-constructor folds True.
        assert_eq!(BindPred::True.and(no.clone()), no);
    }

    #[test]
    fn vars_collection() {
        let p = BindPred::var_eq("A", "B")
            .and(BindPred::Cmp {
                left: PredOperand::Var(Var::new("A")),
                op: CmpOp::Lt,
                right: PredOperand::Int(5),
            });
        assert_eq!(p.vars(), vec![Var::new("A"), Var::new("B")]);
    }

    #[test]
    fn display() {
        assert_eq!(BindPred::var_eq("V1", "V2").to_string(), "$V1 = $V2");
        assert_eq!(BindPred::True.to_string(), "true");
    }

    #[test]
    fn eq_join_keys_needs_one_var_per_side() {
        let left = |v: &Var| ["A", "V"].contains(&v.name());
        let right = |v: &Var| ["B", "W"].contains(&v.name());
        let (v, w) = (Var::new("V"), Var::new("W"));
        assert_eq!(BindPred::var_eq("V", "W").eq_join_keys(left, right), Some((&v, &w)));
        assert_eq!(BindPred::var_eq("W", "V").eq_join_keys(left, right), Some((&v, &w)));
        let lt = BindPred::Cmp {
            left: PredOperand::Var(v.clone()),
            op: CmpOp::Lt,
            right: PredOperand::Var(w.clone()),
        };
        assert_eq!(lt.eq_join_keys(left, right), None);
        let conj = BindPred::var_eq("V", "W").and(BindPred::Cmp {
            left: PredOperand::Var(Var::new("A")),
            op: CmpOp::Lt,
            right: PredOperand::Var(Var::new("B")),
        });
        assert_eq!(conj.eq_join_keys(left, right), None);
        assert_eq!(BindPred::var_eq("V", "A").eq_join_keys(left, right), None);
        assert_eq!(BindPred::var_eq("B", "W").eq_join_keys(left, right), None);
    }

    /// Values from a small alphabet, so equal pairs are as likely as
    /// unequal ones: integers in every spelling `=` sees through (sign,
    /// zero padding, surrounding whitespace), digit strings past `i64`
    /// (text, not numbers), plain text, and small subtrees whose content
    /// is the concatenation of their leaves.
    fn arb_value() -> impl Strategy<Value = Tree> {
        let int = (-2i64..3, 0usize..5).prop_map(|(n, spelling)| match spelling {
            0 => format!("{n}"),
            1 => format!("{n:+}"),
            2 => format!("{n:04}"),
            3 => format!(" {n}\t"),
            _ => format!("\n{n:+03} "),
        });
        let text = prop_oneof![
            Just("9223372036854775808"),
            Just("09223372036854775808"),
            Just(" 9223372036854775808"),
            Just("a"),
            Just("a "),
            Just("b"),
            Just(""),
            Just("1x"),
            Just("- 1"),
        ]
        .prop_map(str::to_string);
        let atom = prop_oneof![int, text].boxed();
        (atom.clone(), atom, 0usize..4).prop_map(|(a, b, shape)| match shape {
            0 => Tree::leaf(a),
            1 => Tree::node("zip", vec![Tree::leaf(a)]),
            2 => Tree::node("z", vec![Tree::leaf(a), Tree::leaf(b)]),
            _ => Tree::node("w", vec![Tree::node("zip", vec![Tree::leaf(a)])]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The keyed probe is the only implementation of a single-`=`
        /// join, lazy and eager: two values share a key exactly when `=`
        /// holds.
        #[test]
        fn eq_key_agrees_with_value_equality(a in arb_value(), b in arb_value()) {
            prop_assert_eq!(
                eq_key(&a) == eq_key(&b),
                value_cmp(&a, CmpOp::Eq, &b),
                "{a} vs {b}"
            );
        }
    }
}
