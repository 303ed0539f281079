//! Engine error type.

use std::fmt;

use stetho_mal::MalType;

/// Errors raised while executing MAL plans.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Operator received a value of the wrong type.
    TypeMismatch {
        /// Operator that complained.
        op: String,
        /// What it wanted.
        expected: String,
        /// What it got.
        got: String,
    },
    /// Unknown `module.function` at execution time.
    UnknownOperator(String),
    /// Wrong number of arguments or results.
    Arity {
        /// Operator.
        op: String,
        /// Explanation.
        msg: String,
    },
    /// Catalog lookup failed.
    NoSuchTable(String),
    /// Catalog lookup failed.
    NoSuchColumn {
        /// Table searched.
        table: String,
        /// Column requested.
        column: String,
    },
    /// BATs that must align (same length) did not.
    LengthMismatch {
        /// Operator.
        op: String,
        /// Left length.
        left: usize,
        /// Right length.
        right: usize,
    },
    /// An oid pointed outside its BAT.
    OidOutOfRange {
        /// The oid.
        oid: u64,
        /// BAT length.
        len: usize,
    },
    /// Division by zero in calc/batcalc.
    DivisionByZero,
    /// Variable read before being computed (scheduler bug or broken plan).
    Uninitialised(String),
    /// Cast failure.
    BadCast {
        /// Source type.
        from: MalType,
        /// Target type.
        to: MalType,
    },
    /// Anything else.
    Other(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TypeMismatch { op, expected, got } => {
                write!(f, "{op}: expected {expected}, got {got}")
            }
            EngineError::UnknownOperator(op) => write!(f, "unknown operator {op}"),
            EngineError::Arity { op, msg } => write!(f, "{op}: {msg}"),
            EngineError::NoSuchTable(t) => write!(f, "no such table {t}"),
            EngineError::NoSuchColumn { table, column } => {
                write!(f, "no column {column} in table {table}")
            }
            EngineError::LengthMismatch { op, left, right } => {
                write!(f, "{op}: BAT lengths differ ({left} vs {right})")
            }
            EngineError::OidOutOfRange { oid, len } => {
                write!(f, "oid {oid} out of range for BAT of length {len}")
            }
            EngineError::DivisionByZero => write!(f, "division by zero"),
            EngineError::Uninitialised(v) => write!(f, "variable {v} read before computed"),
            EngineError::BadCast { from, to } => write!(f, "cannot cast {from} to {to}"),
            EngineError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = EngineError::NoSuchColumn {
            table: "lineitem".into(),
            column: "l_wibble".into(),
        };
        assert!(e.to_string().contains("l_wibble"));
        assert!(e.to_string().contains("lineitem"));
        let e = EngineError::LengthMismatch {
            op: "batcalc.+".into(),
            left: 3,
            right: 5,
        };
        assert!(e.to_string().contains("3 vs 5"));
    }
}
