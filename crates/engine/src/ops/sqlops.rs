//! `sql.*` — the bridge between the SQL layer and BAT storage.

use std::sync::Arc;

use stetho_mal::Value;

use crate::bat::Bat;
use crate::error::EngineError;
use crate::rt::{ExecCtx, QueryResult, RuntimeValue};
use crate::Result;

use super::expect_str;

/// `sql.mvc() :int` — open a client context. The handle is opaque; we
/// return 0.
pub fn mvc(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    if !args.is_empty() {
        return Err(EngineError::Arity {
            op: "sql.mvc".into(),
            msg: "takes no arguments".into(),
        });
    }
    Ok(vec![RuntimeValue::Scalar(Value::Int(0))])
}

/// `sql.tid(mvc, schema, table) :bat[:oid]` — candidate list of all live
/// rows: the table's shared dense oid column, not a fresh one per query.
pub fn tid(args: &[RuntimeValue], ctx: &ExecCtx) -> Result<Vec<RuntimeValue>> {
    if args.len() != 3 {
        return Err(EngineError::Arity {
            op: "sql.tid".into(),
            msg: format!("expected 3 args, got {}", args.len()),
        });
    }
    let table = expect_str("sql.tid", &args[2])?;
    Ok(vec![RuntimeValue::Bat(ctx.catalog.table(&table)?.tid())])
}

/// `sql.bind(mvc, schema, table, column, access) :bat[:ty]` — shared
/// reference to a stored column.
pub fn bind(args: &[RuntimeValue], ctx: &ExecCtx) -> Result<Vec<RuntimeValue>> {
    if args.len() != 5 {
        return Err(EngineError::Arity {
            op: "sql.bind".into(),
            msg: format!("expected 5 args, got {}", args.len()),
        });
    }
    let table = expect_str("sql.bind", &args[2])?;
    let column = expect_str("sql.bind", &args[3])?;
    let bat = ctx.catalog.column(&table, &column)?;
    Ok(vec![RuntimeValue::Bat(bat)])
}

/// `sql.resultSet(name1, col1, name2, col2, ...)` — deposit the query
/// result in the context. Accepts alternating name/column pairs.
pub fn result_set(args: &[RuntimeValue], ctx: &ExecCtx) -> Result<Vec<RuntimeValue>> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err(EngineError::Arity {
            op: "sql.resultSet".into(),
            msg: format!("expected name/column pairs, got {} args", args.len()),
        });
    }
    let mut result = QueryResult::default();
    let mut rows: Option<usize> = None;
    for pair in args.chunks(2) {
        let name = expect_str("sql.resultSet", &pair[0])?;
        let col = match &pair[1] {
            RuntimeValue::Bat(b) => Arc::clone(b),
            // Scalar results (plain aggregates) become one-row columns.
            RuntimeValue::Scalar(v) => Arc::new(scalar_to_bat(v)?),
        };
        if let Some(r) = rows {
            if col.len() != r {
                return Err(EngineError::LengthMismatch {
                    op: "sql.resultSet".into(),
                    left: r,
                    right: col.len(),
                });
            }
        } else {
            rows = Some(col.len());
        }
        result.columns.push((name, col));
    }
    *ctx.result.lock() = Some(result);
    Ok(vec![])
}

fn scalar_to_bat(v: &Value) -> Result<Bat> {
    Ok(match v {
        Value::Int(x) => Bat::ints(vec![*x]),
        Value::Dbl(x) => Bat::dbls(vec![*x]),
        Value::Str(s) => Bat::strs(vec![s.clone()]),
        Value::Bit(b) => Bat::new(crate::bat::ColumnData::Bit(vec![*b])),
        Value::Oid(o) => Bat::oids(vec![*o]),
        Value::Date(d) => Bat::dates(vec![*d]),
        Value::Nil(t) => {
            return Err(EngineError::TypeMismatch {
                op: "sql.resultSet".into(),
                expected: "non-nil scalar".into(),
                got: t.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableDef};
    use stetho_mal::MalType;

    fn ctx() -> ExecCtx {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "lineitem",
                vec![
                    ("l_partkey".into(), MalType::Int, Bat::ints(vec![1, 2, 1])),
                    ("l_tax".into(), MalType::Dbl, Bat::dbls(vec![0.1, 0.2, 0.3])),
                ],
            )
            .unwrap(),
        );
        ExecCtx::new(Arc::new(c))
    }

    fn s(v: &str) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Str(v.into()))
    }

    fn i(v: i64) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Int(v))
    }

    #[test]
    fn mvc_returns_handle() {
        let out = mvc(&[]).unwrap();
        assert_eq!(out[0].as_scalar("t").unwrap().as_int(), Some(0));
        assert!(mvc(&[i(1)]).is_err());
    }

    #[test]
    fn tid_counts_rows() {
        let c = ctx();
        let out = tid(&[i(0), s("sys"), s("lineitem")], &c).unwrap();
        let b = out[0].as_bat("t").unwrap();
        assert_eq!(b.len(), 3);
        assert!(b.sorted);
    }

    #[test]
    fn tid_shares_one_buffer_across_calls() {
        let c = ctx();
        let args = [i(0), s("sys"), s("lineitem")];
        let a = tid(&args, &c).unwrap().remove(0);
        let b = tid(&args, &c).unwrap().remove(0);
        let (a, b) = (a.as_bat("t").unwrap(), b.as_bat("t").unwrap());
        assert!(a.shares_buffer(b));
        assert_eq!(a.as_dense_range(), Some(0..3));
    }

    #[test]
    fn tid_missing_table() {
        let c = ctx();
        assert!(matches!(
            tid(&[i(0), s("sys"), s("nope")], &c),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn bind_returns_shared_column() {
        let c = ctx();
        let out = bind(&[i(0), s("sys"), s("lineitem"), s("l_tax"), i(0)], &c).unwrap();
        let b = out[0].as_bat("t").unwrap();
        assert_eq!(b.as_dbls().unwrap(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn bind_missing_column() {
        let c = ctx();
        assert!(matches!(
            bind(&[i(0), s("sys"), s("lineitem"), s("zz"), i(0)], &c),
            Err(EngineError::NoSuchColumn { .. })
        ));
    }

    #[test]
    fn result_set_stores_columns() {
        let c = ctx();
        let col = RuntimeValue::bat(Bat::ints(vec![7, 8]));
        result_set(&[s("a"), col], &c).unwrap();
        let r = c.take_result().unwrap();
        assert_eq!(r.rows(), 2);
        assert_eq!(r.column("a").unwrap().as_ints().unwrap(), &[7, 8]);
    }

    #[test]
    fn result_set_accepts_scalar_aggregates() {
        let c = ctx();
        result_set(&[s("sum"), RuntimeValue::Scalar(Value::Dbl(4.5))], &c).unwrap();
        let r = c.take_result().unwrap();
        assert_eq!(r.rows(), 1);
        assert_eq!(r.column("sum").unwrap().as_dbls().unwrap(), &[4.5]);
    }

    #[test]
    fn result_set_rejects_ragged_columns() {
        let c = ctx();
        let a = RuntimeValue::bat(Bat::ints(vec![1]));
        let b = RuntimeValue::bat(Bat::ints(vec![1, 2]));
        assert!(matches!(
            result_set(&[s("a"), a, s("b"), b], &c),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn result_set_rejects_odd_args() {
        let c = ctx();
        assert!(result_set(&[s("a")], &c).is_err());
        assert!(result_set(&[], &c).is_err());
    }
}
