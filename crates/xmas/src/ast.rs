//! Abstract syntax of XMAS queries.

use crate::path::PathExpr;
use std::fmt;
use std::sync::Arc;

/// A variable name (`$H` is spelled `Var("H")`). Shared, so the engine's
/// per-navigation clones are reference-count bumps, not allocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Arc<str>);

impl Var {
    /// Construct a variable from its name (without the `$`).
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name without the `$`.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A full XMAS query: `CONSTRUCT head WHERE body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The construction template (with explicit group-by annotations).
    pub head: HeadElem,
    /// The conjunctive body conditions.
    pub body: Vec<Condition>,
}

/// The label of a constructed element: constant (`<answer>`) or a variable
/// (`<$L>`), matching `createElement`'s "label … can be either a constant
/// or a variable" (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelSpec {
    Const(String),
    Var(Var),
}

impl fmt::Display for LabelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelSpec::Const(s) => write!(f, "{s}"),
            LabelSpec::Var(v) => write!(f, "{v}"),
        }
    }
}

/// An element constructor in the head, e.g.
/// `<med_home> $H $S {$S} </med_home> {$H}`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadElem {
    /// Tag of the created element.
    pub label: LabelSpec,
    /// Content items, in order.
    pub children: Vec<HeadItem>,
    /// The group-by annotation following the closing tag: `{$H}` means one
    /// element per binding of `$H`; `{}` means exactly one element.
    pub group: Vec<Var>,
}

/// One content item of a head element.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadItem {
    /// A nested element constructor.
    Elem(HeadElem),
    /// A variable without its own group annotation (`$H`): a single value
    /// per instance of the enclosing element (its variable must be
    /// functionally determined by the enclosing group).
    Single(Var),
    /// A variable with a group annotation (`$S {$S}`): the list of all its
    /// bindings within the enclosing instance.
    Collect(Var),
    /// A literal text leaf.
    Text(String),
}

/// A body condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `source path $V` — bind `$V` to each node reachable from the root
    /// of `source` along `path` (e.g. `homesSrc homes.home $H`).
    SourcePath { source: String, path: PathExpr, var: Var },
    /// `$X path $V` — bind `$V` to each node reachable from the binding of
    /// `$X` along `path` (e.g. `$H zip._ $V1`).
    VarPath { from: Var, path: PathExpr, var: Var },
    /// A comparison, e.g. `$V1 = $V2` or `$P < 500000`.
    Cmp { left: Operand, op: CmpOp, right: Operand },
}

/// Comparison operand: a variable or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Var(Var),
    Str(String),
    Int(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Str(s) => write!(f, "{s:?}"),
            Operand::Int(i) => write!(f, "{i}"),
        }
    }
}

pub use mix_nav::pred::CmpOp;

impl Query {
    /// All variables bound by the body, in first-binding order.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = Vec::new();
        for c in &self.body {
            if let Condition::SourcePath { var, .. } | Condition::VarPath { var, .. } = c {
                if !out.contains(var) {
                    out.push(var.clone());
                }
            }
        }
        out
    }

    /// All variables mentioned in the head.
    pub fn head_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        fn walk(e: &HeadElem, out: &mut Vec<Var>) {
            if let LabelSpec::Var(v) = &e.label {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            for v in &e.group {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            for item in &e.children {
                match item {
                    HeadItem::Elem(inner) => walk(inner, out),
                    HeadItem::Single(v) | HeadItem::Collect(v) => {
                        if !out.contains(v) {
                            out.push(v.clone());
                        }
                    }
                    HeadItem::Text(_) => {}
                }
            }
        }
        walk(&self.head, &mut out);
        out
    }

    /// Check that every head variable is bound by the body.
    pub fn check_safe(&self) -> Result<(), crate::XmasError> {
        let bound = self.body_vars();
        for v in self.head_vars() {
            if !bound.contains(&v) {
                return Err(crate::XmasError::new(
                    0,
                    format!("head variable {v} is not bound in the WHERE clause"),
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CONSTRUCT ")?;
        fmt_elem(&self.head, f)?;
        write!(f, " WHERE ")?;
        for (i, c) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            match c {
                Condition::SourcePath { source, path, var } => {
                    write!(f, "{source} {path} {var}")?
                }
                Condition::VarPath { from, path, var } => write!(f, "{from} {path} {var}")?,
                Condition::Cmp { left, op, right } => write!(f, "{left} {op} {right}")?,
            }
        }
        Ok(())
    }
}

fn fmt_elem(e: &HeadElem, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "<{}>", e.label)?;
    for item in &e.children {
        write!(f, " ")?;
        match item {
            HeadItem::Elem(inner) => fmt_elem(inner, f)?,
            HeadItem::Single(v) => write!(f, "{v}")?,
            HeadItem::Collect(v) => write!(f, "{v} {{{v}}}")?,
            HeadItem::Text(s) => write!(f, "{s:?}")?,
        }
    }
    write!(f, " </{}>", e.label)?;
    write!(f, " {{")?;
    for (i, v) in e.group.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, "}}")
}

#[cfg(test)]
mod tests {
    use crate::parse_query;

    const FIG3: &str = r#"
        CONSTRUCT <answer>
                    <med_home> $H
                      $S {$S}
                    </med_home> {$H}
                  </answer> {}
        WHERE homesSrc homes.home $H AND $H zip._ $V1
          AND schoolsSrc schools.school $S AND $S zip._ $V2
          AND $V1 = $V2
    "#;

    #[test]
    fn body_vars_in_binding_order() {
        let q = parse_query(FIG3).unwrap();
        let vars = q.body_vars();
        let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["H", "V1", "S", "V2"]);
    }

    #[test]
    fn head_vars() {
        let q = parse_query(FIG3).unwrap();
        let vars = q.head_vars();
        let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["H", "S"]);
    }

    #[test]
    fn safety_check() {
        let q = parse_query(FIG3).unwrap();
        assert!(q.check_safe().is_ok());
        let bad = parse_query("CONSTRUCT <a> $X </a> {} WHERE src p $Y").unwrap();
        let err = bad.check_safe().unwrap_err();
        assert!(err.message.contains("$X"));
    }

    #[test]
    fn display_is_reparseable() {
        let q = parse_query(FIG3).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q, q2);
    }
}
