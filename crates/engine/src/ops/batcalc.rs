//! `batcalc.*` and `calc.*` — vectorised and scalar arithmetic, comparisons
//! and boolean logic.
//!
//! Operands may be BAT⊕BAT (aligned lengths), BAT⊕scalar, or
//! scalar⊕BAT. An optional trailing candidate-list argument restricts
//! evaluation to the candidate positions (output length = candidate
//! count). Integer pairs stay integer; any double operand promotes the
//! result to double.

use std::ops::Range;

use stetho_mal::Value;

use crate::bat::{Bat, ColumnData, ColumnView, StrView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

/// A numeric operand view.
enum Num<'a> {
    IntV(&'a [i64]),
    DblV(&'a [f64]),
    IntS(i64),
    DblS(f64),
}

impl<'a> Num<'a> {
    fn from(op: &str, v: &'a RuntimeValue) -> Result<Num<'a>> {
        match v {
            RuntimeValue::Bat(b) => match b.view() {
                ColumnView::Int(x) => Ok(Num::IntV(x)),
                ColumnView::Dbl(x) => Ok(Num::DblV(x)),
                other => Err(EngineError::TypeMismatch {
                    op: op.into(),
                    expected: "numeric BAT".into(),
                    got: other.tail_type().to_string(),
                }),
            },
            RuntimeValue::Scalar(Value::Int(x)) => Ok(Num::IntS(*x)),
            RuntimeValue::Scalar(Value::Dbl(x)) => Ok(Num::DblS(*x)),
            RuntimeValue::Scalar(other) => Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "numeric scalar".into(),
                got: other.mal_type().to_string(),
            }),
        }
    }

    fn len(&self) -> Option<usize> {
        match self {
            Num::IntV(v) => Some(v.len()),
            Num::DblV(v) => Some(v.len()),
            _ => None,
        }
    }

    fn is_dbl(&self) -> bool {
        matches!(self, Num::DblV(_) | Num::DblS(_))
    }

    fn int_at(&self, i: usize) -> i64 {
        match self {
            Num::IntV(v) => v[i],
            Num::IntS(x) => *x,
            _ => unreachable!("int_at on dbl operand"),
        }
    }

    fn dbl_at(&self, i: usize) -> f64 {
        match self {
            Num::IntV(v) => v[i] as f64,
            Num::DblV(v) => v[i],
            Num::IntS(x) => *x as f64,
            Num::DblS(x) => *x,
        }
    }
}

/// Split an optional trailing candidate argument off `args`.
fn split_cand<'a>(
    op: &str,
    args: &'a [RuntimeValue],
    arity: usize,
) -> Result<(&'a [RuntimeValue], Option<&'a Bat>)> {
    if args.len() == arity + 1 {
        let cand = args[arity].as_bat(op)?;
        Ok((&args[..arity], Some(&**cand)))
    } else if args.len() == arity {
        Ok((args, None))
    } else {
        Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected {arity} or {} args, got {}", arity + 1, args.len()),
        })
    }
}

fn common_len(op: &str, a: &Num<'_>, b: &Num<'_>) -> Result<usize> {
    match (a.len(), b.len()) {
        (Some(x), Some(y)) if x == y => Ok(x),
        (Some(x), Some(y)) => Err(EngineError::LengthMismatch {
            op: op.into(),
            left: x,
            right: y,
        }),
        (Some(x), None) | (None, Some(x)) => Ok(x),
        (None, None) => Err(EngineError::TypeMismatch {
            op: op.into(),
            expected: "at least one BAT operand".into(),
            got: "two scalars".into(),
        }),
    }
}

/// Positions to evaluate — candidate fusion without materialising an index
/// vector: dense candidate lists (and the no-candidate case) iterate a
/// range, sparse ones iterate the oid slice in place.
enum Pos<'a> {
    Range(Range<usize>),
    List(&'a [u64]),
}

impl Pos<'_> {
    fn count(&self) -> usize {
        match self {
            Pos::Range(r) => r.len(),
            Pos::List(l) => l.len(),
        }
    }
}

/// Iterate the positions of a [`Pos`]; the body may `return`/`?` out.
macro_rules! for_pos {
    ($pos:expr, $i:ident => $body:block) => {
        match &$pos {
            Pos::Range(r) => {
                for $i in r.clone() {
                    $body
                }
            }
            Pos::List(l) => {
                for &o in *l {
                    let $i = o as usize;
                    $body
                }
            }
        }
    };
}

/// Resolve candidates (if any) against a column of length `len`.
fn positions<'a>(len: usize, cand: Option<&'a Bat>) -> Result<Pos<'a>> {
    let Some(c) = cand else {
        return Ok(Pos::Range(0..len));
    };
    if let Some(r) = c.as_dense_range() {
        if r.end as usize > len {
            return Err(EngineError::OidOutOfRange {
                oid: (r.start as usize).max(len) as u64,
                len,
            });
        }
        return Ok(Pos::Range(r.start as usize..r.end as usize));
    }
    let l = c.as_oids()?;
    if let Some(&max) = l.iter().max() {
        if max as usize >= len {
            return Err(EngineError::OidOutOfRange { oid: max, len });
        }
    }
    Ok(Pos::List(l))
}

/// `batcalc.{+,-,*,/}`.
pub fn arith(f: &str, args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = format!("batcalc.{f}");
    let (main, cand) = split_cand(&op, args, 2)?;
    let a = Num::from(&op, &main[0])?;
    let b = Num::from(&op, &main[1])?;
    let len = common_len(&op, &a, &b)?;
    let pos = positions(len, cand)?;

    if a.is_dbl() || b.is_dbl() {
        let mut out = Vec::with_capacity(pos.count());
        for_pos!(pos, i => {
            let (x, y) = (a.dbl_at(i), b.dbl_at(i));
            out.push(match f {
                "+" => x + y,
                "-" => x - y,
                "*" => x * y,
                _ => {
                    if y == 0.0 {
                        return Err(EngineError::DivisionByZero);
                    }
                    x / y
                }
            });
        });
        Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Dbl(out)))])
    } else {
        let mut out = Vec::with_capacity(pos.count());
        for_pos!(pos, i => {
            let (x, y) = (a.int_at(i), b.int_at(i));
            out.push(match f {
                "+" => x.wrapping_add(y),
                "-" => x.wrapping_sub(y),
                "*" => x.wrapping_mul(y),
                _ => {
                    if y == 0 {
                        return Err(EngineError::DivisionByZero);
                    }
                    x / y
                }
            });
        });
        Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Int(out)))])
    }
}

/// `calc.{+,-,*,/}` — the scalar constant-folding targets.
pub fn scalar_arith(f: &str, args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = format!("calc.{f}");
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op,
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let a = args[0].as_scalar(&op)?;
    let b = args[1].as_scalar(&op)?;
    let out = match (a, b) {
        (Value::Int(x), Value::Int(y)) => match f {
            "+" => Value::Int(x.wrapping_add(*y)),
            "-" => Value::Int(x.wrapping_sub(*y)),
            "*" => Value::Int(x.wrapping_mul(*y)),
            _ => {
                if *y == 0 {
                    return Err(EngineError::DivisionByZero);
                }
                Value::Int(x / y)
            }
        },
        _ => {
            let (x, y) = (
                a.as_dbl().ok_or_else(|| EngineError::TypeMismatch {
                    op: op.clone(),
                    expected: "numeric".into(),
                    got: a.mal_type().to_string(),
                })?,
                b.as_dbl().ok_or_else(|| EngineError::TypeMismatch {
                    op: op.clone(),
                    expected: "numeric".into(),
                    got: b.mal_type().to_string(),
                })?,
            );
            match f {
                "+" => Value::Dbl(x + y),
                "-" => Value::Dbl(x - y),
                "*" => Value::Dbl(x * y),
                _ => {
                    if y == 0.0 {
                        return Err(EngineError::DivisionByZero);
                    }
                    Value::Dbl(x / y)
                }
            }
        }
    };
    Ok(vec![RuntimeValue::Scalar(out)])
}

/// `batcalc.{==,!=,<,<=,>,>=}` — vectorised comparison producing a
/// `bat[:bit]`.
pub fn compare(f: &str, args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = format!("batcalc.{f}");
    let (main, cand) = split_cand(&op, args, 2)?;

    // String comparison path.
    let str_side = |v: &RuntimeValue| match v {
        RuntimeValue::Bat(b) => matches!(b.view(), ColumnView::Str(_)),
        RuntimeValue::Scalar(Value::Str(_)) => true,
        _ => false,
    };
    if str_side(&main[0]) || str_side(&main[1]) {
        return compare_str(f, &op, main, cand);
    }

    let a = Num::from(&op, &main[0])?;
    let b = Num::from(&op, &main[1])?;
    let len = common_len(&op, &a, &b)?;
    let pos = positions(len, cand)?;
    let mut out = Vec::with_capacity(pos.count());
    for_pos!(pos, i => {
        let (x, y) = (a.dbl_at(i), b.dbl_at(i));
        out.push(match f {
            "==" => x == y,
            "!=" => x != y,
            "<" => x < y,
            "<=" => x <= y,
            ">" => x > y,
            _ => x >= y,
        });
    });
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

fn compare_str(
    f: &str,
    op: &str,
    main: &[RuntimeValue],
    cand: Option<&Bat>,
) -> Result<Vec<RuntimeValue>> {
    enum S<'a> {
        V(StrView<'a>),
        C(&'a str),
    }
    fn side<'a>(op: &str, v: &'a RuntimeValue) -> Result<S<'a>> {
        match v {
            RuntimeValue::Bat(b) => match b.view() {
                ColumnView::Str(s) => Ok(S::V(s)),
                other => Err(EngineError::TypeMismatch {
                    op: op.into(),
                    expected: "str".into(),
                    got: other.tail_type().to_string(),
                }),
            },
            RuntimeValue::Scalar(Value::Str(s)) => Ok(S::C(s)),
            RuntimeValue::Scalar(other) => Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "str".into(),
                got: other.mal_type().to_string(),
            }),
        }
    }
    let a = side(op, &main[0])?;
    let b = side(op, &main[1])?;
    let len = match (&a, &b) {
        (S::V(x), S::V(y)) if x.len() == y.len() => x.len(),
        (S::V(x), S::V(y)) => {
            return Err(EngineError::LengthMismatch {
                op: op.into(),
                left: x.len(),
                right: y.len(),
            })
        }
        (S::V(x), _) => x.len(),
        (_, S::V(y)) => y.len(),
        _ => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "at least one BAT operand".into(),
                got: "two scalars".into(),
            })
        }
    };
    // Borrow, never clone: strings compare through their dictionary.
    fn at<'a>(s: &S<'a>, i: usize) -> &'a str {
        match s {
            S::V(v) => v.at(i),
            S::C(c) => c,
        }
    }
    let pos = positions(len, cand)?;
    let mut out = Vec::with_capacity(pos.count());
    for_pos!(pos, i => {
        let (x, y) = (at(&a, i), at(&b, i));
        out.push(match f {
            "==" => x == y,
            "!=" => x != y,
            "<" => x < y,
            "<=" => x <= y,
            ">" => x > y,
            _ => x >= y,
        });
    });
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

/// `batcalc.and` / `batcalc.or` over bit BATs.
pub fn boolean(f: &str, args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = format!("batcalc.{f}");
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op,
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let a = args[0].as_bat(&op)?.as_bits()?;
    let b = args[1].as_bat(&op)?.as_bits()?;
    if a.len() != b.len() {
        return Err(EngineError::LengthMismatch {
            op,
            left: a.len(),
            right: b.len(),
        });
    }
    let out: Vec<bool> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if f == "and" { x && y } else { x || y })
        .collect();
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

/// `batcalc.not`.
pub fn not(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "batcalc.not";
    let a = super::one_arg(op, args)?.as_bat(op)?.as_bits()?;
    let out: Vec<bool> = a.iter().map(|&x| !x).collect();
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

/// `batcalc.dbl` — cast an int/date BAT to dbl.
pub fn cast_dbl(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "batcalc.dbl";
    let b = super::one_arg(op, args)?.as_bat(op)?;
    let out = match b.view() {
        ColumnView::Int(v) => v.iter().map(|&x| x as f64).collect(),
        ColumnView::Dbl(v) => v.to_vec(),
        ColumnView::Date(v) => v.iter().map(|&x| x as f64).collect(),
        ColumnView::Oid(v) => v.iter().map(|&x| x as f64).collect(),
        other => {
            return Err(EngineError::BadCast {
                from: other.tail_type(),
                to: stetho_mal::MalType::Dbl,
            })
        }
    };
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Dbl(out)))])
}

/// `batcalc.isnil` — our BATs carry no nils, so this is all-false; it
/// exists so plans using it execute faithfully.
pub fn isnil(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "batcalc.isnil";
    let b = super::one_arg(op, args)?.as_bat(op)?;
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(vec![
        false;
        b.len()
    ])))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(b: Bat) -> RuntimeValue {
        RuntimeValue::bat(b)
    }

    fn ri(x: i64) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Int(x))
    }

    fn rd(x: f64) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Dbl(x))
    }

    fn ints(v: &RuntimeValue) -> Vec<i64> {
        v.as_bat("t").unwrap().as_ints().unwrap().to_vec()
    }

    fn dbls(v: &RuntimeValue) -> Vec<f64> {
        v.as_bat("t").unwrap().as_dbls().unwrap().to_vec()
    }

    fn bits(v: &RuntimeValue) -> Vec<bool> {
        v.as_bat("t").unwrap().as_bits().unwrap().to_vec()
    }

    #[test]
    fn int_vector_plus_scalar() {
        let out = arith("+", &[rb(Bat::ints(vec![1, 2, 3])), ri(10)]).unwrap();
        assert_eq!(ints(&out[0]), vec![11, 12, 13]);
    }

    #[test]
    fn vector_vector_all_ops() {
        let a = rb(Bat::ints(vec![10, 20]));
        let b = rb(Bat::ints(vec![3, 4]));
        assert_eq!(
            ints(&arith("+", &[a.clone(), b.clone()]).unwrap()[0]),
            vec![13, 24]
        );
        assert_eq!(
            ints(&arith("-", &[a.clone(), b.clone()]).unwrap()[0]),
            vec![7, 16]
        );
        assert_eq!(
            ints(&arith("*", &[a.clone(), b.clone()]).unwrap()[0]),
            vec![30, 80]
        );
        assert_eq!(ints(&arith("/", &[a, b]).unwrap()[0]), vec![3, 5]);
    }

    #[test]
    fn dbl_promotion() {
        let out = arith("*", &[rb(Bat::ints(vec![2, 4])), rd(0.5)]).unwrap();
        assert_eq!(dbls(&out[0]), vec![1.0, 2.0]);
    }

    #[test]
    fn scalar_on_left() {
        let out = arith("-", &[ri(100), rb(Bat::ints(vec![1, 2]))]).unwrap();
        assert_eq!(ints(&out[0]), vec![99, 98]);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(matches!(
            arith("/", &[rb(Bat::ints(vec![1])), ri(0)]),
            Err(EngineError::DivisionByZero)
        ));
        assert!(matches!(
            arith("/", &[rb(Bat::dbls(vec![1.0])), rd(0.0)]),
            Err(EngineError::DivisionByZero)
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(matches!(
            arith("+", &[rb(Bat::ints(vec![1])), rb(Bat::ints(vec![1, 2]))]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn two_scalars_rejected() {
        assert!(arith("+", &[ri(1), ri(2)]).is_err());
    }

    #[test]
    fn candidate_restriction() {
        let a = rb(Bat::ints(vec![1, 2, 3, 4]));
        let cand = rb(Bat::oids(vec![1, 3]));
        let out = arith("+", &[a, ri(10), cand]).unwrap();
        assert_eq!(ints(&out[0]), vec![12, 14]);
    }

    #[test]
    fn comparisons_numeric() {
        let a = rb(Bat::ints(vec![1, 2, 3]));
        assert_eq!(
            bits(&compare("<", &[a.clone(), ri(2)]).unwrap()[0]),
            vec![true, false, false]
        );
        assert_eq!(
            bits(&compare("==", &[a.clone(), ri(2)]).unwrap()[0]),
            vec![false, true, false]
        );
        assert_eq!(
            bits(&compare(">=", &[a, ri(2)]).unwrap()[0]),
            vec![false, true, true]
        );
    }

    #[test]
    fn comparisons_mixed_int_dbl() {
        let a = rb(Bat::ints(vec![1, 2]));
        let out = compare("<=", &[a, rd(1.5)]).unwrap();
        assert_eq!(bits(&out[0]), vec![true, false]);
    }

    #[test]
    fn comparisons_strings() {
        let a = rb(Bat::strs(vec!["a".into(), "c".into()]));
        let out = compare("<", &[a, RuntimeValue::Scalar(Value::Str("b".into()))]).unwrap();
        assert_eq!(bits(&out[0]), vec![true, false]);
    }

    #[test]
    fn boolean_ops() {
        let a = rb(Bat::new(ColumnData::Bit(vec![true, true, false])));
        let b = rb(Bat::new(ColumnData::Bit(vec![true, false, false])));
        assert_eq!(
            bits(&boolean("and", &[a.clone(), b.clone()]).unwrap()[0]),
            vec![true, false, false]
        );
        assert_eq!(
            bits(&boolean("or", &[a.clone(), b]).unwrap()[0]),
            vec![true, true, false]
        );
        assert_eq!(bits(&not(&[a]).unwrap()[0]), vec![false, false, true]);
    }

    #[test]
    fn cast_and_isnil() {
        let out = cast_dbl(&[rb(Bat::ints(vec![1, 2]))]).unwrap();
        assert_eq!(dbls(&out[0]), vec![1.0, 2.0]);
        let out = isnil(&[rb(Bat::ints(vec![1, 2]))]).unwrap();
        assert_eq!(bits(&out[0]), vec![false, false]);
        assert!(cast_dbl(&[rb(Bat::strs(vec!["x".into()]))]).is_err());
    }

    #[test]
    fn scalar_arith_int_and_dbl() {
        let out = scalar_arith("+", &[ri(2), ri(3)]).unwrap();
        assert_eq!(out[0].as_scalar("t").unwrap().as_int(), Some(5));
        let out = scalar_arith("/", &[rd(1.0), ri(4)]).unwrap();
        assert_eq!(out[0].as_scalar("t").unwrap().as_dbl(), Some(0.25));
        assert!(matches!(
            scalar_arith("/", &[ri(1), ri(0)]),
            Err(EngineError::DivisionByZero)
        ));
    }
}
