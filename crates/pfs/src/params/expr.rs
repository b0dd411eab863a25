//! The `dependent`/`expression` syntax of §4.2.2.
//!
//! Some parameter bounds depend on other parameters or on hardware facts
//! ("the maximal value of `max_read_ahead_per_file_mb` is half of
//! `max_read_ahead_mb`, whose maximal value is half of the system memory").
//! The RAG extractor emits such bounds as expressions; they are parsed here
//! and evaluated at tuning time against live system values.
//!
//! Grammar (integer/float arithmetic, C-style precedence):
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := factor (('*' | '/') factor)*
//! factor  := NUMBER | IDENT | func | '(' expr ')'
//! func    := ('min' | 'max') '(' expr ',' expr ')'
//! IDENT   := [a-zA-Z_][a-zA-Z0-9_.]*
//! ```

use std::fmt;

/// Evaluation environment: resolves identifiers (other parameter values,
/// hardware facts like `memory_mb`) to numbers.
pub trait Env {
    /// Current value of `name`, if known.
    fn lookup(&self, name: &str) -> Option<f64>;
}

impl Env for std::collections::BTreeMap<String, f64> {
    fn lookup(&self, name: &str) -> Option<f64> {
        self.get(name).copied()
    }
}

/// Errors from parsing or evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// Unexpected character or token at byte offset.
    Parse(String),
    /// An identifier the environment could not resolve.
    UnknownIdent(String),
    /// Division by zero during evaluation.
    DivByZero,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Parse(m) => write!(f, "expression parse error: {m}"),
            ExprError::UnknownIdent(n) => write!(f, "unknown identifier `{n}`"),
            ExprError::DivByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for ExprError {}

/// A parsed arithmetic expression over parameter/hardware identifiers.
///
/// ```
/// use pfs::params::Expr;
/// use std::collections::BTreeMap;
///
/// let cap = Expr::parse("min(llite.max_read_ahead_mb, memory_mb / 2) / 2").unwrap();
/// let mut env = BTreeMap::new();
/// env.insert("llite.max_read_ahead_mb".to_string(), 64.0);
/// env.insert("memory_mb".to_string(), 196_608.0);
/// assert_eq!(cap.eval(&env).unwrap(), 32.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal number.
    Num(f64),
    /// Identifier resolved via [`Env`].
    Ident(String),
    /// Binary operation.
    Bin(Box<Expr>, BinOp, Box<Expr>),
    /// `min(a, b)` / `max(a, b)`.
    Call(Func, Box<Expr>, Box<Expr>),
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Two-argument builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// Smaller of two values.
    Min,
    /// Larger of two values.
    Max,
}

impl Expr {
    /// Parse `src` into an expression tree.
    pub fn parse(src: &str) -> Result<Expr, ExprError> {
        let mut p = Parser {
            src: src.as_bytes(),
            pos: 0,
        };
        let e = p.expr()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(ExprError::Parse(format!(
                "trailing input at byte {}: `{}`",
                p.pos,
                &src[p.pos..]
            )));
        }
        Ok(e)
    }

    /// Evaluate against an environment.
    pub fn eval(&self, env: &dyn Env) -> Result<f64, ExprError> {
        match self {
            Expr::Num(v) => Ok(*v),
            Expr::Ident(name) => env
                .lookup(name)
                .ok_or_else(|| ExprError::UnknownIdent(name.clone())),
            Expr::Bin(l, op, r) => {
                let a = l.eval(env)?;
                let b = r.eval(env)?;
                match op {
                    BinOp::Add => Ok(a + b),
                    BinOp::Sub => Ok(a - b),
                    BinOp::Mul => Ok(a * b),
                    BinOp::Div => {
                        if b == 0.0 {
                            Err(ExprError::DivByZero)
                        } else {
                            Ok(a / b)
                        }
                    }
                }
            }
            Expr::Call(f, l, r) => {
                let a = l.eval(env)?;
                let b = r.eval(env)?;
                Ok(match f {
                    Func::Min => a.min(b),
                    Func::Max => a.max(b),
                })
            }
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = Expr::Bin(Box::new(lhs), BinOp::Add, Box::new(rhs));
                }
                Some(b'-') => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    lhs = Expr::Bin(Box::new(lhs), BinOp::Sub, Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    let rhs = self.factor()?;
                    lhs = Expr::Bin(Box::new(lhs), BinOp::Mul, Box::new(rhs));
                }
                Some(b'/') => {
                    self.pos += 1;
                    let rhs = self.factor()?;
                    lhs = Expr::Bin(Box::new(lhs), BinOp::Div, Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ExprError> {
        match self.peek() {
            None => Err(ExprError::Parse("unexpected end of input".into())),
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(ExprError::Parse("expected `)`".into()));
                }
                self.pos += 1;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident_or_call(),
            Some(c) => Err(ExprError::Parse(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Expr, ExprError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_digit() || self.src[self.pos] == b'.')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Expr::Num)
            .map_err(|e| ExprError::Parse(format!("bad number `{text}`: {e}")))
    }

    fn ident_or_call(&mut self) -> Result<Expr, ExprError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || self.src[self.pos] == b'_'
                || self.src[self.pos] == b'.')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii ident")
            .to_string();
        let func = match name.as_str() {
            "min" => Some(Func::Min),
            "max" => Some(Func::Max),
            _ => None,
        };
        if let Some(f) = func {
            if self.peek() == Some(b'(') {
                self.pos += 1;
                let a = self.expr()?;
                if self.peek() != Some(b',') {
                    return Err(ExprError::Parse(format!("expected `,` in {name}()")));
                }
                self.pos += 1;
                let b = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err(ExprError::Parse(format!("expected `)` closing {name}()")));
                }
                self.pos += 1;
                return Ok(Expr::Call(f, Box::new(a), Box::new(b)));
            }
        }
        Ok(Expr::Ident(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn env(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn literals_and_precedence() {
        let e = Expr::parse("2 + 3 * 4").unwrap();
        assert_eq!(e.eval(&env(&[])).unwrap(), 14.0);
        let e = Expr::parse("(2 + 3) * 4").unwrap();
        assert_eq!(e.eval(&env(&[])).unwrap(), 20.0);
        let e = Expr::parse("10 - 4 - 3").unwrap();
        assert_eq!(e.eval(&env(&[])).unwrap(), 3.0);
    }

    #[test]
    fn identifiers_resolve() {
        let e = Expr::parse("memory_mb / 2").unwrap();
        assert_eq!(e.eval(&env(&[("memory_mb", 196608.0)])).unwrap(), 98304.0);
    }

    #[test]
    fn dotted_identifiers() {
        let e = Expr::parse("llite.max_read_ahead_mb / 2").unwrap();
        assert_eq!(
            e.eval(&env(&[("llite.max_read_ahead_mb", 64.0)])).unwrap(),
            32.0
        );
    }

    #[test]
    fn min_max_functions() {
        let e = Expr::parse("min(max_rpcs_in_flight - 1, 255)").unwrap();
        assert_eq!(e.eval(&env(&[("max_rpcs_in_flight", 8.0)])).unwrap(), 7.0);
        assert_eq!(
            e.eval(&env(&[("max_rpcs_in_flight", 1000.0)])).unwrap(),
            255.0
        );
        let e = Expr::parse("max(1, memory_mb / 4)").unwrap();
        assert_eq!(e.eval(&env(&[("memory_mb", 2.0)])).unwrap(), 1.0);
    }

    #[test]
    fn nested_paper_example() {
        // "maximal value of max_read_ahead_per_file_mb is half of
        //  max_read_ahead_mb, whose maximal value is half of system memory"
        let cap = Expr::parse("min(llite.max_read_ahead_mb, memory_mb / 2) / 2").unwrap();
        let v = cap
            .eval(&env(&[
                ("llite.max_read_ahead_mb", 64.0),
                ("memory_mb", 196608.0),
            ]))
            .unwrap();
        assert_eq!(v, 32.0);
    }

    #[test]
    fn unknown_ident_errors() {
        let e = Expr::parse("nope + 1").unwrap();
        assert_eq!(
            e.eval(&env(&[])),
            Err(ExprError::UnknownIdent("nope".into()))
        );
    }

    #[test]
    fn div_by_zero_errors() {
        let e = Expr::parse("1 / 0").unwrap();
        assert_eq!(e.eval(&env(&[])), Err(ExprError::DivByZero));
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("1 +").is_err());
        assert!(Expr::parse("(1").is_err());
        assert!(Expr::parse("min(1)").is_err());
        assert!(Expr::parse("1 2").is_err());
        assert!(Expr::parse("@").is_err());
    }

    #[test]
    fn min_as_plain_ident_when_not_called() {
        // `min` not followed by `(` is an ordinary identifier.
        let e = Expr::parse("min + 1").unwrap();
        assert_eq!(e.eval(&env(&[("min", 4.0)])).unwrap(), 5.0);
    }
}
