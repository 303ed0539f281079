//! `batcalc.*` and `calc.*` — vectorised and scalar arithmetic, comparisons
//! and boolean logic.
//!
//! Operands may be BAT⊕BAT (aligned lengths), BAT⊕scalar, or
//! scalar⊕BAT. An optional trailing candidate-list argument restricts
//! evaluation to the candidate positions (output length = candidate
//! count). Integer pairs stay integer; any double operand promotes the
//! result to double.

use std::ops::Range;

use stetho_mal::{MalType, Value};

use crate::bat::{Bat, ColumnData, ColumnView, StrView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

/// A numeric operand view.
#[derive(Clone, Copy)]
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

    /// True when this divisor is zero at any evaluated position — checked
    /// before the kernel runs, so the division loop carries no branch.
    fn zero_at(&self, pos: &Pos<'_>) -> bool {
        match *self {
            Num::IntV(v) => pos.any(|i| v[i] == 0),
            Num::DblV(v) => pos.any(|i| v[i] == 0.0),
            Num::IntS(x) => pos.count() > 0 && x == 0,
            Num::DblS(x) => pos.count() > 0 && x == 0.0,
        }
    }
}

/// One operand of a binary kernel with its representation resolved once
/// per call: a column window (`&[T]`, [`AsDbl`] for an int column promoted
/// to double, a [`StrView`]) or a [`Const`]. The kernels are generic over
/// it, so each (operand, operand, operator) combination compiles to its
/// own loop with no per-row dispatch.
trait Lane<T>: Copy {
    /// The value at row `i`.
    fn at(self, i: usize) -> T;
    /// The values of rows `r`, in order.
    fn run(self, r: Range<usize>) -> impl Iterator<Item = T>;
}

impl<T: Copy> Lane<T> for &[T] {
    fn at(self, i: usize) -> T {
        self[i]
    }

    fn run(self, r: Range<usize>) -> impl Iterator<Item = T> {
        self[r].iter().copied()
    }
}

/// An int column read as doubles.
#[derive(Clone, Copy)]
struct AsDbl<'a>(&'a [i64]);

impl Lane<f64> for AsDbl<'_> {
    fn at(self, i: usize) -> f64 {
        self.0[i] as f64
    }

    fn run(self, r: Range<usize>) -> impl Iterator<Item = f64> {
        self.0[r].iter().map(|&x| x as f64)
    }
}

/// A scalar operand.
#[derive(Clone, Copy)]
struct Const<T>(T);

impl<T: Copy> Lane<T> for Const<T> {
    fn at(self, _: usize) -> T {
        self.0
    }

    fn run(self, r: Range<usize>) -> impl Iterator<Item = T> {
        std::iter::repeat_n(self.0, r.len())
    }
}

impl<'a> Lane<&'a str> for StrView<'a> {
    fn at(self, i: usize) -> &'a str {
        StrView::at(&self, i)
    }

    fn run(self, r: Range<usize>) -> impl Iterator<Item = &'a str> {
        let dict = self.dict();
        self.codes()[r].iter().map(move |&c| &*dict[c as usize])
    }
}

/// `f` at every position. A range walks sub-slices of the operands in
/// order; a candidate list reads the rows it names.
fn map2<T, U>(a: impl Lane<T>, b: impl Lane<T>, pos: &Pos<'_>, f: impl Fn(T, T) -> U) -> Vec<U> {
    match pos {
        Pos::Range(r) => a
            .run(r.clone())
            .zip(b.run(r.clone()))
            .map(|(x, y)| f(x, y))
            .collect(),
        Pos::List(l) => l
            .iter()
            .map(|&o| f(a.at(o as usize), b.at(o as usize)))
            .collect(),
    }
}

/// Bind `$l` to the numeric operand `$n` as a double lane and evaluate
/// `$body`, once per operand representation.
macro_rules! dbl_lane {
    ($n:expr, $l:ident => $body:expr) => {
        match $n {
            Num::IntV(v) => {
                let $l = AsDbl(v);
                $body
            }
            Num::DblV(v) => {
                let $l = v;
                $body
            }
            Num::IntS(x) => {
                let $l = Const(x as f64);
                $body
            }
            Num::DblS(x) => {
                let $l = Const(x);
                $body
            }
        }
    };
}

/// `dbl_lane!` for operands known to be int.
macro_rules! int_lane {
    ($n:expr, $l:ident => $body:expr) => {
        match $n {
            Num::IntV(v) => {
                let $l = v;
                $body
            }
            Num::IntS(x) => {
                let $l = Const(x);
                $body
            }
            Num::DblV(_) | Num::DblS(_) => unreachable!("int lane of a dbl operand"),
        }
    };
}

/// Resolve both operands through `$lane` and map `$f` over `$pos`.
macro_rules! map_lanes {
    ($lane:ident, $a:expr, $b:expr, $pos:expr, $f:expr) => {
        $lane!($a, x => $lane!($b, y => map2(x, y, $pos, $f)))
    };
}

/// The comparison named `$f`, resolved once, over both operands.
macro_rules! compare_lanes {
    ($f:expr, $lane:ident, $a:expr, $b:expr, $pos:expr) => {
        match $f {
            "==" => map_lanes!($lane, $a, $b, $pos, |x, y| x == y),
            "!=" => map_lanes!($lane, $a, $b, $pos, |x, y| x != y),
            "<" => map_lanes!($lane, $a, $b, $pos, |x, y| x < y),
            "<=" => map_lanes!($lane, $a, $b, $pos, |x, y| x <= y),
            ">" => map_lanes!($lane, $a, $b, $pos, |x, y| x > y),
            _ => map_lanes!($lane, $a, $b, $pos, |x, y| x >= y),
        }
    };
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

    fn any(&self, f: impl Fn(usize) -> bool) -> bool {
        match self {
            Pos::Range(r) => r.clone().any(f),
            Pos::List(l) => l.iter().any(|&o| f(o as usize)),
        }
    }
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

    if !matches!(f, "+" | "-" | "*") && b.zero_at(&pos) {
        return Err(EngineError::DivisionByZero);
    }
    if a.is_dbl() || b.is_dbl() {
        let out = match f {
            "+" => map_lanes!(dbl_lane, a, b, &pos, |x, y| x + y),
            "-" => map_lanes!(dbl_lane, a, b, &pos, |x, y| x - y),
            "*" => map_lanes!(dbl_lane, a, b, &pos, |x, y| x * y),
            _ => map_lanes!(dbl_lane, a, b, &pos, |x, y| x / y),
        };
        Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Dbl(out)))])
    } else {
        let out = match f {
            "+" => map_lanes!(int_lane, a, b, &pos, i64::wrapping_add),
            "-" => map_lanes!(int_lane, a, b, &pos, i64::wrapping_sub),
            "*" => map_lanes!(int_lane, a, b, &pos, i64::wrapping_mul),
            _ => map_lanes!(int_lane, a, b, &pos, |x, y| x / y),
        };
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
/// `bat[:bit]`. Numbers compare with numbers, strings with strings and
/// dates with dates; any other mix is a type mismatch.
pub fn compare(f: &str, args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = format!("batcalc.{f}");
    let (main, cand) = split_cand(&op, args, 2)?;

    let kinds = [tail_kind(&main[0]), tail_kind(&main[1])];
    if kinds.contains(&MalType::Str) {
        // Borrow, never clone: strings compare through their dictionary.
        return compare_sides(f, &op, "str", main, str_side, cand);
    }
    if kinds.contains(&MalType::Date) {
        return compare_sides(f, &op, "date", main, date_side, cand);
    }

    let a = Num::from(&op, &main[0])?;
    let b = Num::from(&op, &main[1])?;
    let len = common_len(&op, &a, &b)?;
    let pos = positions(len, cand)?;
    // Numbers compare as doubles, ints included.
    let out = compare_lanes!(f, dbl_lane, a, b, &pos);
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Bit(out)))])
}

/// The type of a scalar, or of a BAT's values.
fn tail_kind(v: &RuntimeValue) -> MalType {
    match v {
        RuntimeValue::Bat(b) => b.tail_type(),
        RuntimeValue::Scalar(x) => x.mal_type(),
    }
}

/// A non-numeric comparison operand: a column lane with its length, or a
/// constant.
#[derive(Clone, Copy)]
enum Side<L, T> {
    Col(L, usize),
    Const(T),
}

fn str_side(v: &RuntimeValue) -> Option<Side<StrView<'_>, &str>> {
    match v {
        RuntimeValue::Bat(b) => match b.view() {
            ColumnView::Str(s) => Some(Side::Col(s, s.len())),
            _ => None,
        },
        RuntimeValue::Scalar(Value::Str(s)) => Some(Side::Const(s)),
        RuntimeValue::Scalar(_) => None,
    }
}

fn date_side(v: &RuntimeValue) -> Option<Side<&[i32], i32>> {
    match v {
        RuntimeValue::Bat(b) => match b.view() {
            ColumnView::Date(d) => Some(Side::Col(d, d.len())),
            _ => None,
        },
        RuntimeValue::Scalar(Value::Date(d)) => Some(Side::Const(*d)),
        RuntimeValue::Scalar(_) => None,
    }
}

/// The comparison `f` over two operands that `side` reads as the type
/// named `expected`.
fn compare_sides<'a, L: Lane<T>, T: Copy + PartialOrd>(
    f: &str,
    op: &str,
    expected: &str,
    main: &'a [RuntimeValue],
    side: impl Fn(&'a RuntimeValue) -> Option<Side<L, T>>,
    cand: Option<&Bat>,
) -> Result<Vec<RuntimeValue>> {
    macro_rules! side_lane {
        ($s:expr, $l:ident => $body:expr) => {
            match $s {
                Side::Col(v, _) => {
                    let $l = v;
                    $body
                }
                Side::Const(c) => {
                    let $l = Const(c);
                    $body
                }
            }
        };
    }
    let read = |v: &'a RuntimeValue| {
        side(v).ok_or_else(|| EngineError::TypeMismatch {
            op: op.into(),
            expected: expected.into(),
            got: tail_kind(v).to_string(),
        })
    };
    let (a, b) = (read(&main[0])?, read(&main[1])?);
    let len = match (&a, &b) {
        (Side::Col(_, x), Side::Col(_, y)) if x != y => {
            return Err(EngineError::LengthMismatch {
                op: op.into(),
                left: *x,
                right: *y,
            })
        }
        (Side::Col(_, n), _) | (_, Side::Col(_, n)) => *n,
        _ => {
            return Err(EngineError::TypeMismatch {
                op: op.into(),
                expected: "at least one BAT operand".into(),
                got: "two scalars".into(),
            })
        }
    };
    let pos = positions(len, cand)?;
    let out = compare_lanes!(f, side_lane, a, b, &pos);
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
    use std::sync::Arc;

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
    fn comparisons_dates() {
        let d = |x| RuntimeValue::Scalar(Value::Date(x));
        let a = rb(Bat::new(ColumnData::Date(vec![100, 200, 300])));
        let out = compare(">", &[a.clone(), d(150)]).unwrap();
        assert_eq!(bits(&out[0]), vec![false, true, true]);
        let out = compare("<=", &[d(200), a.clone()]).unwrap();
        assert_eq!(bits(&out[0]), vec![false, true, true]);
        let b = rb(Bat::new(ColumnData::Date(vec![100, 250, 250])));
        let out = compare("!=", &[a.clone(), b]).unwrap();
        assert_eq!(bits(&out[0]), vec![false, true, true]);
        let cand = rb(Bat::oids(vec![0, 2]));
        let out = compare("==", &[a.clone(), d(300), cand]).unwrap();
        assert_eq!(bits(&out[0]), vec![false, true]);
        // Dates never compare with numbers or strings.
        for other in [
            ri(150),
            rd(1.5),
            RuntimeValue::Scalar(Value::Str("x".into())),
        ] {
            let err = compare("<", &[a.clone(), other]).unwrap_err();
            assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err:?}");
        }
        assert!(compare("<", &[d(1), d(2)]).is_err());
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

    /// The kernels' semantics restated one row at a time over `Value`s,
    /// operator and operand kind looked up per row: ints stay int under
    /// arithmetic (wrapping), anything else is done in doubles, numbers
    /// compare as doubles, and a division fails when any evaluated divisor
    /// is zero.
    fn reference(f: &str, args: &[RuntimeValue]) -> Result<Vec<Value>> {
        let row = |v: &RuntimeValue, i: usize| match v {
            RuntimeValue::Bat(b) => b.get(i).unwrap(),
            RuntimeValue::Scalar(x) => x.clone(),
        };
        let len = args[..2]
            .iter()
            .find_map(|v| v.as_bat("t").ok().map(|b| b.len()))
            .unwrap();
        let pos: Vec<usize> = match args.get(2) {
            Some(c) => c
                .as_bat("t")
                .unwrap()
                .as_oids()
                .unwrap()
                .iter()
                .map(|&o| o as usize)
                .collect(),
            None => (0..len).collect(),
        };
        let mut out = Vec::new();
        for i in pos {
            let (x, y) = (row(&args[0], i), row(&args[1], i));
            out.push(match (f, &x, &y) {
                (_, Value::Str(p), Value::Str(q)) => Value::Bit(match f {
                    "==" => p == q,
                    "!=" => p != q,
                    "<" => p < q,
                    "<=" => p <= q,
                    ">" => p > q,
                    _ => p >= q,
                }),
                ("+" | "-" | "*" | "/", Value::Int(p), Value::Int(q)) => Value::Int(match f {
                    "+" => p.wrapping_add(*q),
                    "-" => p.wrapping_sub(*q),
                    "*" => p.wrapping_mul(*q),
                    _ if *q == 0 => return Err(EngineError::DivisionByZero),
                    _ => p / q,
                }),
                _ => {
                    let (p, q) = (x.as_dbl().unwrap(), y.as_dbl().unwrap());
                    match f {
                        "+" => Value::Dbl(p + q),
                        "-" => Value::Dbl(p - q),
                        "*" => Value::Dbl(p * q),
                        "/" if q == 0.0 => return Err(EngineError::DivisionByZero),
                        "/" => Value::Dbl(p / q),
                        "==" => Value::Bit(p == q),
                        "!=" => Value::Bit(p != q),
                        "<" => Value::Bit(p < q),
                        "<=" => Value::Bit(p <= q),
                        ">" => Value::Bit(p > q),
                        _ => Value::Bit(p >= q),
                    }
                }
            });
        }
        Ok(out)
    }

    /// A value as text, doubles by bit pattern.
    fn exact(v: Value) -> String {
        match v {
            Value::Dbl(x) => format!("d{:x}", x.to_bits()),
            v => format!("{v:?}"),
        }
    }

    /// A kernel's output column, row by row.
    fn rows(out: Result<Vec<RuntimeValue>>) -> Result<Vec<String>> {
        let b = Arc::clone(out?[0].as_bat("t").unwrap());
        Ok((0..b.len()).map(|i| exact(b.get(i).unwrap())).collect())
    }

    /// Every candidate form: none, a dense range, a sparse list that skips
    /// row 2 (where the divisors below are zero), and an empty list.
    fn candidate_forms() -> Vec<Option<RuntimeValue>> {
        vec![
            None,
            Some(rb(Bat::dense_oids(6).slice(1, 5))),
            Some(rb(Bat::oids(vec![0, 3, 5]))),
            Some(rb(Bat::oids(vec![]))),
        ]
    }

    fn check_all(ops: &[&str], operands: &[RuntimeValue]) {
        for f in ops {
            for a in operands {
                for b in operands {
                    if a.as_scalar("t").is_ok() && b.as_scalar("t").is_ok() {
                        continue;
                    }
                    for cand in candidate_forms() {
                        let mut args = vec![a.clone(), b.clone()];
                        args.extend(cand);
                        let kernel = if ["+", "-", "*", "/"].contains(f) {
                            arith(f, &args)
                        } else {
                            compare(f, &args)
                        };
                        let want = reference(f, &args).map(|v| v.into_iter().map(exact).collect());
                        assert_eq!(rows(kernel), want, "{f} over {args:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn numeric_kernels_match_row_at_a_time_reference() {
        let operands = [
            rb(Bat::ints(vec![7, -3, 0, 12, i64::MAX, -9])),
            rb(Bat::ints(vec![2, 5, 0, -4, 3, 1])),
            rb(Bat::dbls(vec![0.5, -2.25, 0.0, 1e300, f64::NAN, -0.0])),
            rb(Bat::dbls(vec![3.0, 0.1, -0.0, 7.5, 2.0, -1.5])),
            ri(4),
            ri(0),
            rd(-1.5),
            rd(0.0),
        ];
        check_all(
            &["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">="],
            &operands,
        );
    }

    #[test]
    fn string_comparisons_match_row_at_a_time_reference() {
        let s = |v: &str| RuntimeValue::Scalar(Value::Str(v.into()));
        let operands = [
            rb(Bat::strs_ref(&["b", "a", "c", "b", "", "z"])),
            rb(Bat::strs_ref(&["a", "a", "d", "b", "b", "y"])),
            s("b"),
        ];
        check_all(&["==", "!=", "<", "<=", ">", ">="], &operands);
    }

    #[test]
    fn division_by_zero_only_at_evaluated_rows() {
        let num = rb(Bat::ints(vec![1, 2, 3, 4, 5, 6]));
        let div = rb(Bat::ints(vec![1, 1, 0, 1, 1, 1]));
        let cands = candidate_forms();
        let run = |cand: &Option<RuntimeValue>| {
            let mut args = vec![num.clone(), div.clone()];
            args.extend(cand.clone());
            arith("/", &args)
        };
        assert!(matches!(run(&cands[0]), Err(EngineError::DivisionByZero)));
        assert!(matches!(run(&cands[1]), Err(EngineError::DivisionByZero)));
        assert_eq!(ints(&run(&cands[2]).unwrap()[0]), vec![1, 4, 6]);
        assert!(run(&cands[3]).unwrap()[0].as_bat("t").unwrap().is_empty());
        // A zero scalar divisor fails only when some row is evaluated.
        assert!(matches!(
            arith("/", &[num.clone(), rd(0.0), cands[2].clone().unwrap()]),
            Err(EngineError::DivisionByZero)
        ));
        assert!(arith("/", &[num, ri(0), cands[3].clone().unwrap()]).is_ok());
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
