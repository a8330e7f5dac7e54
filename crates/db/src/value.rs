//! SQL values and their comparison semantics.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed SQL value (SQLite's five storage classes).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs, reason = "the five storage classes are self-describing")]
pub enum Value {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

impl Value {
    /// SQLite-style cross-type ordering: NULL < numbers < text < blob,
    /// with ints and reals compared numerically.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Real(_) => 1,
                Text(_) => 2,
                Blob(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Real(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Real(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            _ => class(self).cmp(&class(other)),
        }
    }

    /// SQL equality (`=`); NULL never equals anything.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if matches!(self, Value::Null) || matches!(other, Value::Null) {
            return false;
        }
        self.sort_cmp(other) == Ordering::Equal
    }

    /// Numeric view, for arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Real(r) => Some(*r as i64),
            _ => None,
        }
    }

    /// True in a WHERE context.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Real(r) => *r != 0.0,
            Value::Text(_) | Value::Blob(_) => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Blob(b) => write!(
                f,
                "x'{}'",
                b.iter().map(|x| format!("{x:02x}")).collect::<String>()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_ordering() {
        let vals = [
            Value::Null,
            Value::Int(5),
            Value::Real(7.5),
            Value::Text("a".into()),
            Value::Blob(vec![0]),
        ];
        for w in vals.windows(2) {
            assert_eq!(
                w[0].sort_cmp(&w[1]),
                Ordering::Less,
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn numeric_comparison_mixes_int_and_real() {
        assert_eq!(Value::Int(2).sort_cmp(&Value::Real(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).sort_cmp(&Value::Real(2.5)), Ordering::Less);
        assert_eq!(Value::Real(3.5).sort_cmp(&Value::Int(3)), Ordering::Greater);
    }

    #[test]
    fn null_never_equals() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(0)));
        assert!(Value::Int(1).sql_eq(&Value::Int(1)));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Text("x".into()).is_truthy());
    }
}
