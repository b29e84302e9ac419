//! Scalar expressions and affine index expressions.
//!
//! Neuron bodies in this reproduction are written directly in this IR (the
//! substitute for the paper's Julia AST introspection): a body is a tree of
//! [`Expr`]s over buffer loads whose indices are affine functions
//! ([`IndexExpr`]) of the enclosing loop variables. Affine indices are what
//! make shared-variable analysis, GEMM pattern matching, tiling, and fusion
//! decidable.

use std::collections::BTreeMap;
use std::fmt;

/// An affine function of loop variables: `sum(coef_i * var_i) + offset`.
///
/// # Examples
///
/// ```
/// use latte_ir::IndexExpr;
///
/// let i = IndexExpr::var("y").scaled(2) + IndexExpr::var("p") + 1;
/// assert_eq!(i.to_string(), "p + 2*y + 1"); // terms print in name order
/// let mut env = std::collections::HashMap::new();
/// env.insert("y".to_string(), 3i64);
/// env.insert("p".to_string(), 1i64);
/// assert_eq!(i.eval(&env), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IndexExpr {
    /// Coefficient per variable, sorted by name; zero coefficients are
    /// never stored.
    terms: BTreeMap<String, i64>,
    /// Constant offset.
    offset: i64,
}

impl IndexExpr {
    /// The constant zero.
    pub fn zero() -> Self {
        IndexExpr::default()
    }

    /// A constant index.
    pub fn constant(c: i64) -> Self {
        IndexExpr {
            terms: BTreeMap::new(),
            offset: c,
        }
    }

    /// A single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        IndexExpr { terms, offset: 0 }
    }

    /// Multiplies the whole expression by `scale`.
    pub fn scaled(mut self, scale: i64) -> Self {
        if scale == 0 {
            return IndexExpr::zero();
        }
        for coef in self.terms.values_mut() {
            *coef *= scale;
        }
        self.offset *= scale;
        self
    }

    /// The constant offset.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The coefficient of `var` (zero when absent).
    pub fn coef(&self, var: &str) -> i64 {
        self.terms.get(var).copied().unwrap_or(0)
    }

    /// Iterates over `(variable, coefficient)` pairs in name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(v, &c)| (v.as_str(), c))
    }

    /// The variables with non-zero coefficient.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Whether the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the expression mentions `var`.
    pub fn uses(&self, var: &str) -> bool {
        self.coef(var) != 0
    }

    /// Evaluates under a variable binding.
    ///
    /// # Panics
    ///
    /// Panics if a used variable is unbound.
    pub fn eval(&self, env: &std::collections::HashMap<String, i64>) -> i64 {
        let mut acc = self.offset;
        for (v, c) in &self.terms {
            let val = env
                .get(v)
                .unwrap_or_else(|| panic!("unbound index variable `{v}`"));
            acc += c * val;
        }
        acc
    }

    /// Substitutes `var := replacement`, returning the new expression.
    pub fn subst(&self, var: &str, replacement: &IndexExpr) -> IndexExpr {
        let coef = self.coef(var);
        if coef == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(var);
        out + replacement.clone().scaled(coef)
    }

    /// Renames `from` to `to` (coefficients merge if `to` already appears).
    pub fn rename(&self, from: &str, to: &str) -> IndexExpr {
        self.subst(from, &IndexExpr::var(to))
    }

    fn normalize(mut self) -> Self {
        self.terms.retain(|_, c| *c != 0);
        self
    }
}

impl std::ops::Add for IndexExpr {
    type Output = IndexExpr;

    fn add(mut self, rhs: IndexExpr) -> IndexExpr {
        for (v, c) in rhs.terms {
            *self.terms.entry(v).or_insert(0) += c;
        }
        self.offset += rhs.offset;
        self.normalize()
    }
}

impl std::ops::Add<i64> for IndexExpr {
    type Output = IndexExpr;

    fn add(mut self, rhs: i64) -> IndexExpr {
        self.offset += rhs;
        self
    }
}

impl std::ops::Sub for IndexExpr {
    type Output = IndexExpr;

    fn sub(self, rhs: IndexExpr) -> IndexExpr {
        self + rhs.scaled(-1)
    }
}

impl From<i64> for IndexExpr {
    fn from(c: i64) -> Self {
        IndexExpr::constant(c)
    }
}

impl From<usize> for IndexExpr {
    fn from(c: usize) -> Self {
        IndexExpr::constant(c as i64)
    }
}

impl From<i32> for IndexExpr {
    fn from(c: i32) -> Self {
        IndexExpr::constant(c as i64)
    }
}

impl From<&str> for IndexExpr {
    fn from(v: &str) -> Self {
        IndexExpr::var(v)
    }
}

impl fmt::Display for IndexExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.offset);
        }
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else {
                match *c {
                    1 => write!(f, " + {v}")?,
                    -1 => write!(f, " - {v}")?,
                    c if c > 0 => write!(f, " + {c}*{v}")?,
                    c => write!(f, " - {}*{v}", -c)?,
                }
            }
        }
        if self.offset > 0 {
            write!(f, " + {}", self.offset)?;
        } else if self.offset < 0 {
            write!(f, " - {}", -self.offset)?;
        }
        Ok(())
    }
}

/// A reference to an element of a named buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufRef {
    /// Name of the buffer in the program's buffer table.
    pub buffer: String,
    /// One affine index per buffer dimension, outermost first.
    pub indices: Vec<IndexExpr>,
}

impl BufRef {
    /// Creates a reference from a buffer name and indices.
    pub fn new(buffer: impl Into<String>, indices: Vec<IndexExpr>) -> Self {
        BufRef {
            buffer: buffer.into(),
            indices,
        }
    }

    /// Whether any index mentions `var`.
    pub fn uses(&self, var: &str) -> bool {
        self.indices.iter().any(|i| i.uses(var))
    }

    /// Applies `f` to every index expression.
    pub fn map_indices(&self, mut f: impl FnMut(&IndexExpr) -> IndexExpr) -> BufRef {
        BufRef {
            buffer: self.buffer.clone(),
            indices: self.indices.iter().map(&mut f).collect(),
        }
    }
}

impl fmt::Display for BufRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.buffer)?;
        if !self.indices.is_empty() {
            let parts: Vec<String> = self.indices.iter().map(|i| i.to_string()).collect();
            write!(f, "[{}]", parts.join(", "))?;
        }
        Ok(())
    }
}

/// Unary scalar operations available to neuron bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// `e^x`.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Heaviside step: `1` when `x > 0`, else `0`. Used by ReLU backward.
    Step,
}

impl UnaryOp {
    /// Applies the operation to a value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::Ln => x.ln(),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Step => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The name used by the pretty printer.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Abs => "abs",
            UnaryOp::Step => "step",
        }
    }
}

/// Binary scalar operations available to neuron bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Equality indicator: `1` when `a == b`, else `0`. Used to route
    /// pooling gradients back to the selected input (ties receive the
    /// gradient more than once; see `latte-nn`'s max-pool documentation).
    EqIndicator,
}

impl BinOp {
    /// Applies the operation to two values.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => a.max(b),
            BinOp::Min => a.min(b),
            BinOp::EqIndicator => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A floating-point literal.
    Const(f32),
    /// A load from a buffer element.
    Load(BufRef),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A literal constant.
    pub fn lit(v: f32) -> Expr {
        Expr::Const(v)
    }

    /// A buffer load.
    pub fn load(buffer: impl Into<String>, indices: Vec<IndexExpr>) -> Expr {
        Expr::Load(BufRef::new(buffer, indices))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not operator overloading
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not operator overloading
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not operator overloading
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not operator overloading
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// `1` when `self == rhs`, else `0`.
    pub fn eq_indicator(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::EqIndicator, Box::new(self), Box::new(rhs))
    }

    /// Applies a unary op.
    pub fn unary(self, op: UnaryOp) -> Expr {
        Expr::Unary(op, Box::new(self))
    }

    /// Visits every buffer reference in the expression.
    pub fn visit_loads(&self, f: &mut impl FnMut(&BufRef)) {
        match self {
            Expr::Const(_) => {}
            Expr::Load(r) => f(r),
            Expr::Unary(_, e) => e.visit_loads(f),
            Expr::Binary(_, a, b) => {
                a.visit_loads(f);
                b.visit_loads(f);
            }
        }
    }

    /// Rewrites every buffer reference with `f`.
    pub fn map_loads(&self, f: &mut impl FnMut(&BufRef) -> BufRef) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Load(r) => Expr::Load(f(r)),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.map_loads(f))),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(a.map_loads(f)), Box::new(b.map_loads(f)))
            }
        }
    }

    /// Whether any load index mentions `var`.
    pub fn uses(&self, var: &str) -> bool {
        let mut used = false;
        self.visit_loads(&mut |r| used |= r.uses(var));
        used
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Load(r) => write!(f, "{r}"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(op, e) => write!(f, "{}({e})", op.name()),
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Max => return write!(f, "max({a}, {b})"),
                    BinOp::Min => return write!(f, "min({a}, {b})"),
                    BinOp::EqIndicator => return write!(f, "eq({a}, {b})"),
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn index_expr_arithmetic() {
        let e = IndexExpr::var("x").scaled(2) + IndexExpr::var("y") - IndexExpr::var("x");
        assert_eq!(e.coef("x"), 1);
        assert_eq!(e.coef("y"), 1);
        let e2 = e + 5;
        assert_eq!(e2.offset(), 5);
    }

    #[test]
    fn index_expr_cancellation_drops_terms() {
        let e = IndexExpr::var("x") - IndexExpr::var("x");
        assert!(e.is_constant());
        assert_eq!(e.offset(), 0);
    }

    #[test]
    fn index_expr_eval() {
        let e = IndexExpr::var("y").scaled(3) + IndexExpr::var("q") + (-2);
        let mut env = HashMap::new();
        env.insert("y".to_string(), 4);
        env.insert("q".to_string(), 1);
        assert_eq!(e.eval(&env), 11);
    }

    #[test]
    fn index_expr_subst() {
        // y := 2*t + i  in  3*y + 1 = 6t + 3i + 1
        let e = IndexExpr::var("y").scaled(3) + 1;
        let r = IndexExpr::var("t").scaled(2) + IndexExpr::var("i");
        let s = e.subst("y", &r);
        assert_eq!(s.coef("t"), 6);
        assert_eq!(s.coef("i"), 3);
        assert_eq!(s.offset(), 1);
    }

    #[test]
    fn index_expr_display() {
        let e = IndexExpr::var("x").scaled(2) + IndexExpr::var("q").scaled(-1) + 3;
        // BTreeMap order: q before x.
        assert_eq!(e.to_string(), "-q + 2*x + 3");
    }

    #[test]
    fn bufref_display_and_uses() {
        let r = BufRef::new("conv1", vec![IndexExpr::var("x"), IndexExpr::var("y") + 1]);
        assert_eq!(r.to_string(), "conv1[x, y + 1]");
        assert!(r.uses("y"));
        assert!(!r.uses("z"));
    }

    #[test]
    fn expr_display() {
        let e = Expr::load("a", vec![IndexExpr::var("i")])
            .mul(Expr::load("w", vec![IndexExpr::var("i")]))
            .add(Expr::lit(1.0));
        assert_eq!(e.to_string(), "((a[i] * w[i]) + 1)");
    }

    #[test]
    fn unary_ops_apply() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert_eq!(UnaryOp::Abs.apply(-3.0), 3.0);
    }

    #[test]
    fn binary_ops_apply() {
        assert_eq!(BinOp::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(BinOp::Div.apply(6.0, 3.0), 2.0);
    }

    #[test]
    fn expr_map_loads_rewrites() {
        let e = Expr::load("a", vec![IndexExpr::var("i"), IndexExpr::var("n")]);
        // Drop the `n` dimension, as shared-variable analysis would.
        let out = e.map_loads(&mut |r| BufRef::new(r.buffer.clone(), vec![r.indices[0].clone()]));
        assert_eq!(out.to_string(), "a[i]");
    }
}
