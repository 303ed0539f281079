//! `algebra.*` — selections, projections, joins, sorting.
//!
//! Selections return *candidate lists* (sorted oid BATs); `projection`
//! (and the legacy `leftjoin` of the paper's §2 example) fetches tail
//! values at candidate positions; `join` is a hash equi-join returning
//! matching position pairs.
//!
//! Selections are candidate-fused: they evaluate the predicate directly
//! over the candidate list (dense oid ranges iterate without touching the
//! oid buffer at all), and common column/bound type pairings run typed
//! inner loops instead of per-row `Value` dispatch. `projection` of a
//! dense candidate range over a column is an O(1) view slice.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use stetho_mal::Value;

use crate::bat::{force_copy, Bat, ColumnData, ColumnView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

use super::expect_int;

/// Compare a column cell against a scalar. Errors on incomparable types.
fn cmp_cell(col: ColumnView<'_>, i: usize, v: &Value) -> Result<Ordering> {
    let err = || EngineError::TypeMismatch {
        op: "algebra.compare".into(),
        expected: col.tail_type().to_string(),
        got: v.mal_type().to_string(),
    };
    match (col, v) {
        (ColumnView::Int(c), Value::Int(x)) => Ok(c[i].cmp(x)),
        (ColumnView::Int(c), Value::Dbl(x)) => {
            Ok((c[i] as f64).partial_cmp(x).unwrap_or(Ordering::Less))
        }
        (ColumnView::Dbl(c), _) => {
            let x = v.as_dbl().ok_or_else(err)?;
            Ok(c[i].partial_cmp(&x).unwrap_or(Ordering::Less))
        }
        (ColumnView::Str(c), Value::Str(x)) => Ok((*c[i]).cmp(x.as_str())),
        (ColumnView::Oid(c), Value::Oid(x)) => Ok(c[i].cmp(x)),
        (ColumnView::Oid(c), Value::Int(x)) => Ok((c[i] as i64).cmp(x)),
        (ColumnView::Date(c), Value::Date(x)) => Ok(c[i].cmp(x)),
        (ColumnView::Date(c), Value::Int(x)) => Ok((c[i] as i64).cmp(x)),
        (ColumnView::Bit(c), Value::Bit(x)) => Ok(c[i].cmp(x)),
        _ => Err(err()),
    }
}

/// Where a selection reads its row positions from.
enum Positions<'a> {
    /// Dense oid range — iterated without touching any oid buffer.
    Dense(Range<u64>),
    /// Explicit candidate list.
    List(&'a [u64]),
}

impl Positions<'_> {
    fn count(&self) -> usize {
        match self {
            Positions::Dense(r) => (r.end - r.start) as usize,
            Positions::List(v) => v.len(),
        }
    }

    fn max_oid(&self) -> Option<u64> {
        match self {
            Positions::Dense(r) => r.clone().last(),
            Positions::List(v) => v.iter().copied().max(),
        }
    }
}

/// Bound for the typed integer select loop: `None` means the bound is nil
/// or of a type this fast path doesn't handle.
fn int_bound(col: ColumnView<'_>, v: &Value) -> Option<i64> {
    match (col, v) {
        (ColumnView::Int(_), Value::Int(x)) => Some(*x),
        (ColumnView::Date(_), Value::Date(x)) => Some(*x as i64),
        (ColumnView::Date(_), Value::Int(x)) => Some(*x),
        (ColumnView::Oid(_), Value::Oid(x)) => i64::try_from(*x).ok(),
        (ColumnView::Oid(_), Value::Int(x)) => Some(*x),
        _ => None,
    }
}

/// Typed select inner loops. Returns `Ok(false)` when the column/bound
/// combination has no fast path (the caller falls back to `cmp_cell`).
fn typed_select(
    col: ColumnView<'_>,
    pos: &Positions<'_>,
    low: &Value,
    high: &Value,
    li: bool,
    hi: bool,
    out: &mut Vec<u64>,
) -> bool {
    // Fold inclusive/exclusive integer bounds into a closed interval.
    let int_interval = || -> Option<(i64, i64)> {
        let lo = if low.is_nil() {
            i64::MIN
        } else {
            let b = int_bound(col, low)?;
            if li {
                b
            } else {
                b.checked_add(1)?
            }
        };
        let hi_b = if high.is_nil() {
            i64::MAX
        } else {
            let b = int_bound(col, high)?;
            if hi {
                b
            } else {
                b.checked_sub(1)?
            }
        };
        Some((lo, hi_b))
    };

    macro_rules! int_scan {
        ($v:expr, $cast:ty) => {{
            let Some((lo, hi_b)) = int_interval() else {
                return false;
            };
            match pos {
                Positions::Dense(r) => {
                    for o in r.clone() {
                        let x = $v[o as usize] as $cast;
                        if x as i64 >= lo && x as i64 <= hi_b {
                            out.push(o);
                        }
                    }
                }
                Positions::List(l) => {
                    for &o in *l {
                        let x = $v[o as usize] as $cast;
                        if x as i64 >= lo && x as i64 <= hi_b {
                            out.push(o);
                        }
                    }
                }
            }
            true
        }};
    }

    match col {
        ColumnView::Int(v) => int_scan!(v, i64),
        ColumnView::Date(v) => int_scan!(v, i64),
        ColumnView::Oid(v) => int_scan!(v, i64),
        ColumnView::Dbl(v) => {
            let lo = if low.is_nil() {
                None
            } else {
                match low.as_dbl() {
                    Some(x) => Some(x),
                    None => return false,
                }
            };
            let hi_b = if high.is_nil() {
                None
            } else {
                match high.as_dbl() {
                    Some(x) => Some(x),
                    None => return false,
                }
            };
            let ok = |x: f64| -> bool {
                if let Some(lo) = lo {
                    if if li { x < lo } else { x <= lo } {
                        return false;
                    }
                }
                if let Some(hi_b) = hi_b {
                    if if hi { x > hi_b } else { x >= hi_b } {
                        return false;
                    }
                }
                true
            };
            match pos {
                Positions::Dense(r) => {
                    for o in r.clone() {
                        if ok(v[o as usize]) {
                            out.push(o);
                        }
                    }
                }
                Positions::List(l) => {
                    for &o in *l {
                        if ok(v[o as usize]) {
                            out.push(o);
                        }
                    }
                }
            }
            true
        }
        _ => false,
    }
}

/// Build the sorted candidate-list result of a selection, detecting
/// density so downstream projections can take the O(1) view path.
fn candidate(out: Vec<u64>) -> Bat {
    Bat::oids(out)
}

/// `algebra.select` — range select producing a candidate list.
///
/// Forms (distinguished by whether the second argument is a BAT):
/// * `select(col, low, high, inclusive:bit)`
/// * `select(col, cand, low, high, inclusive:bit)`
/// * `select(col, cand, low, high, li:bit, hi:bit)`
///
/// `nil` bounds are unbounded on that side. Equality selects are
/// `low == high` with inclusive bounds (the Figure-1 query compiles to
/// `algebra.select(l_partkey, tid, 1, 1, true)`).
pub fn select(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.select";
    if args.len() < 4 || args.len() > 6 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 4-6 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let with_cand = matches!(args[1], RuntimeValue::Bat(_));
    let (cand, rest) = if with_cand {
        (Some(args[1].as_bat(op)?), &args[2..])
    } else {
        (None, &args[1..])
    };
    if rest.len() < 3 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: "missing bounds".into(),
        });
    }
    let low = rest[0].as_scalar(op)?;
    let high = rest[1].as_scalar(op)?;
    let li = rest[2]
        .as_scalar(op)?
        .as_bit()
        .ok_or_else(|| EngineError::TypeMismatch {
            op: op.into(),
            expected: "bit".into(),
            got: rest[2].mal_type().to_string(),
        })?;
    let hi = if rest.len() > 3 {
        rest[3]
            .as_scalar(op)?
            .as_bit()
            .ok_or_else(|| EngineError::TypeMismatch {
                op: op.into(),
                expected: "bit".into(),
                got: rest[3].mal_type().to_string(),
            })?
    } else {
        li
    };

    let pos = match cand {
        Some(c) => match c.as_dense_range() {
            Some(r) => Positions::Dense(r),
            None => Positions::List(c.as_oids()?),
        },
        None => Positions::Dense(0..col.len() as u64),
    };
    if let Some(max) = pos.max_oid() {
        if max as usize >= col.len() {
            return Err(EngineError::OidOutOfRange {
                oid: max,
                len: col.len(),
            });
        }
    }

    let view = col.view();
    let mut out = Vec::new();
    if !typed_select(view, &pos, low, high, li, hi, &mut out) {
        let keep = |i: usize| -> Result<bool> {
            if !low.is_nil() {
                let c = cmp_cell(view, i, low)?;
                if c == Ordering::Less || (!li && c == Ordering::Equal) {
                    return Ok(false);
                }
            }
            if !high.is_nil() {
                let c = cmp_cell(view, i, high)?;
                if c == Ordering::Greater || (!hi && c == Ordering::Equal) {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match pos {
            Positions::Dense(r) => {
                for o in r {
                    if keep(o as usize)? {
                        out.push(o);
                    }
                }
            }
            Positions::List(l) => {
                for &o in l {
                    if keep(o as usize)? {
                        out.push(o);
                    }
                }
            }
        }
    }
    Ok(vec![RuntimeValue::bat(candidate(out))])
}

/// `algebra.thetaselect(col, cand, val, op:str)` — select by comparison.
pub fn thetaselect(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.thetaselect";
    if args.len() != 4 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 4 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let cand = args[1].as_bat(op)?;
    let val = args[2].as_scalar(op)?;
    let theta = super::expect_str(op, &args[3])?;
    let pred: fn(Ordering) -> bool = match theta.as_str() {
        "==" => |o| o == Ordering::Equal,
        "!=" => |o| o != Ordering::Equal,
        "<" => |o| o == Ordering::Less,
        "<=" => |o| o != Ordering::Greater,
        ">" => |o| o == Ordering::Greater,
        ">=" => |o| o != Ordering::Less,
        other => {
            return Err(EngineError::Other(format!(
                "{op}: unknown comparison `{other}`"
            )))
        }
    };
    let pos = match cand.as_dense_range() {
        Some(r) => Positions::Dense(r),
        None => Positions::List(cand.as_oids()?),
    };
    if let Some(max) = pos.max_oid() {
        if max as usize >= col.len() {
            return Err(EngineError::OidOutOfRange {
                oid: max,
                len: col.len(),
            });
        }
    }
    let view = col.view();
    let mut out = Vec::with_capacity(pos.count());

    // Typed fast loop for int-family columns; `Value` dispatch otherwise.
    let fast = int_bound(view, val);
    macro_rules! theta_scan {
        ($v:expr, $x:expr) => {{
            let x = $x;
            match &pos {
                Positions::Dense(r) => {
                    for o in r.clone() {
                        if pred(($v[o as usize] as i64).cmp(&x)) {
                            out.push(o);
                        }
                    }
                }
                Positions::List(l) => {
                    for &o in *l {
                        if pred(($v[o as usize] as i64).cmp(&x)) {
                            out.push(o);
                        }
                    }
                }
            }
        }};
    }
    match (view, fast) {
        (ColumnView::Int(v), Some(x)) => theta_scan!(v, x),
        (ColumnView::Date(v), Some(x)) => theta_scan!(v, x),
        (ColumnView::Oid(v), Some(x)) => theta_scan!(v, x),
        _ => match &pos {
            Positions::Dense(r) => {
                for o in r.clone() {
                    if pred(cmp_cell(view, o as usize, val)?) {
                        out.push(o);
                    }
                }
            }
            Positions::List(l) => {
                for &o in *l {
                    if pred(cmp_cell(view, o as usize, val)?) {
                        out.push(o);
                    }
                }
            }
        },
    }
    Ok(vec![RuntimeValue::bat(candidate(out))])
}

/// `algebra.projection(cand, col)` — fetch tail values at candidates.
/// A dense candidate range projects as an O(1) slice of `col`.
pub fn projection(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.projection";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let cand = args[0].as_bat(op)?;
    let col = args[1].as_bat(op)?;
    if !force_copy() {
        if let Some(r) = cand.as_dense_range() {
            if r.end as usize > col.len() {
                return Err(EngineError::OidOutOfRange {
                    oid: (r.start as usize).max(col.len()) as u64,
                    len: col.len(),
                });
            }
            let mut out = col.slice(r.start as usize, r.end as usize);
            out.sorted = false;
            return Ok(vec![RuntimeValue::bat(out)]);
        }
    }
    Ok(vec![RuntimeValue::bat(col.gather(cand.as_oids()?)?)])
}

/// `algebra.leftjoin(oids, col)` — the legacy fetch-join the paper's §2
/// example uses (`algebra.leftjoin(X_23, X_10)`): tail values of `col`
/// at the oid positions in the first argument.
pub fn leftjoin(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.leftjoin";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let oids = args[0].as_bat(op)?;
    let col = args[1].as_bat(op)?;
    if !force_copy() {
        if let Some(r) = oids.as_dense_range() {
            if r.end as usize > col.len() {
                return Err(EngineError::OidOutOfRange {
                    oid: (r.start as usize).max(col.len()) as u64,
                    len: col.len(),
                });
            }
            let mut out = col.slice(r.start as usize, r.end as usize);
            out.sorted = false;
            return Ok(vec![RuntimeValue::bat(out)]);
        }
    }
    Ok(vec![RuntimeValue::bat(col.gather(oids.as_oids()?)?)])
}

/// Hashable key over column cells for the join build side.
#[derive(Hash, PartialEq, Eq)]
enum Key<'a> {
    Int(i64),
    Bits(u64),
    Str(&'a str),
    Bool(bool),
}

fn key_at<'a>(col: &ColumnView<'a>, i: usize) -> Key<'a> {
    match col {
        ColumnView::Int(v) => Key::Int(v[i]),
        ColumnView::Oid(v) => Key::Int(v[i] as i64),
        ColumnView::Date(v) => Key::Int(v[i] as i64),
        ColumnView::Dbl(v) => Key::Bits(v[i].to_bits()),
        ColumnView::Str(v) => Key::Str(v.at(i)),
        ColumnView::Bit(v) => Key::Bool(v[i]),
    }
}

/// `algebra.join(l, r)` — hash equi-join; returns matching positions
/// `(l_oids, r_oids)` ordered by left position.
pub fn join(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.join";
    if args.len() < 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected at least 2 args, got {}", args.len()),
        });
    }
    let l = args[0].as_bat(op)?;
    let r = args[1].as_bat(op)?;
    if l.tail_type() != r.tail_type() {
        return Err(EngineError::TypeMismatch {
            op: op.into(),
            expected: l.tail_type().to_string(),
            got: r.tail_type().to_string(),
        });
    }
    // Build on the smaller side.
    let (build, probe, swapped) = if r.len() <= l.len() {
        (r, l, false)
    } else {
        (l, r, true)
    };
    let build_view = build.view();
    let probe_view = probe.view();
    let mut table: HashMap<Key<'_>, Vec<u64>> = HashMap::with_capacity(build.len());
    for i in 0..build.len() {
        table
            .entry(key_at(&build_view, i))
            .or_default()
            .push(i as u64);
    }
    let mut probe_out = Vec::new();
    let mut build_out = Vec::new();
    for i in 0..probe.len() {
        if let Some(matches) = table.get(&key_at(&probe_view, i)) {
            for &m in matches {
                probe_out.push(i as u64);
                build_out.push(m);
            }
        }
    }
    let (lo, ro) = if swapped {
        (build_out, probe_out)
    } else {
        (probe_out, build_out)
    };
    Ok(vec![
        RuntimeValue::bat(Bat::new(ColumnData::Oid(lo))),
        RuntimeValue::bat(Bat::new(ColumnData::Oid(ro))),
    ])
}

fn order_of(col: ColumnView<'_>, reverse: bool) -> Vec<u64> {
    let n = col.len();
    let mut idx: Vec<u64> = (0..n as u64).collect();
    let cmp = |&a: &u64, &b: &u64| -> Ordering {
        let (a, b) = (a as usize, b as usize);
        match col {
            ColumnView::Int(v) => v[a].cmp(&v[b]),
            ColumnView::Oid(v) => v[a].cmp(&v[b]),
            ColumnView::Date(v) => v[a].cmp(&v[b]),
            ColumnView::Bit(v) => v[a].cmp(&v[b]),
            ColumnView::Str(v) => v[a].cmp(&v[b]),
            ColumnView::Dbl(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
        }
    };
    idx.sort_by(cmp);
    if reverse {
        idx.reverse();
    }
    idx
}

/// `algebra.sort(col [, reverse:bit])` — returns `(sorted_values,
/// order_oids)`; the order BAT re-orders any aligned column via
/// `projection`.
pub fn sort(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.sort";
    if args.is_empty() || args.len() > 3 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 1-3 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let reverse = if args.len() > 1 {
        args[1].as_scalar(op)?.as_bit().unwrap_or(false)
    } else {
        false
    };
    let order = order_of(col.view(), reverse);
    let sorted = col.gather(&order)?;
    let mut sorted = sorted;
    sorted.sorted = !reverse;
    Ok(vec![
        RuntimeValue::bat(sorted),
        RuntimeValue::bat(Bat::new(ColumnData::Oid(order))),
    ])
}

/// `algebra.firstn(col, n:int, asc:bit)` — candidate list of the first N
/// positions in sort order (top-N for LIMIT).
pub fn firstn(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.firstn";
    if args.len() != 3 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 3 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let n = expect_int(op, &args[1])?.max(0) as usize;
    let asc = args[2].as_scalar(op)?.as_bit().unwrap_or(true);
    let mut order = order_of(col.view(), !asc);
    order.truncate(n);
    Ok(vec![RuntimeValue::bat(Bat::new(ColumnData::Oid(order)))])
}

/// `algebra.slice(b, lo:int, hi:int)` — positional slice `[lo, hi)`.
/// Mitosis uses this to partition candidate lists; with shared buffers it
/// is a pure metadata operation.
pub fn slice(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "algebra.slice";
    if args.len() != 3 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 3 args, got {}", args.len()),
        });
    }
    let b = args[0].as_bat(op)?;
    let lo = expect_int(op, &args[1])?.max(0) as usize;
    let hi = expect_int(op, &args[2])?.max(0) as usize;
    Ok(vec![RuntimeValue::bat(b.slice(lo, hi))])
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

    fn rbit(x: bool) -> RuntimeValue {
        RuntimeValue::Scalar(Value::Bit(x))
    }

    fn rnil() -> RuntimeValue {
        RuntimeValue::Scalar(Value::Nil(stetho_mal::MalType::Int))
    }

    fn oids(v: &RuntimeValue) -> Vec<u64> {
        v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
    }

    #[test]
    fn select_equality() {
        let col = Bat::ints(vec![5, 1, 5, 3, 5]);
        let out = select(&[rb(col), ri(5), ri(5), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 2, 4]);
    }

    #[test]
    fn select_range_with_candidates() {
        let col = Bat::ints(vec![10, 20, 30, 40, 50]);
        let cand = Bat::oids(vec![0, 2, 4]);
        let out = select(&[rb(col), rb(cand), ri(15), ri(45), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![2]);
    }

    #[test]
    fn select_exclusive_bounds() {
        let col = Bat::ints(vec![1, 2, 3, 4]);
        let cand = Bat::dense_oids(4);
        // (1, 4) exclusive both sides → values 2,3.
        let out = select(&[rb(col), rb(cand), ri(1), ri(4), rbit(false), rbit(false)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
    }

    #[test]
    fn select_nil_bounds_are_unbounded() {
        let col = Bat::ints(vec![1, 2, 3]);
        let out = select(&[rb(col.clone()), rnil(), ri(2), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1]);
        let out = select(&[rb(col), ri(2), rnil(), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
    }

    #[test]
    fn select_on_strings_and_dbls() {
        let col = Bat::strs(vec!["b".into(), "a".into(), "c".into()]);
        let out = select(&[
            rb(col),
            RuntimeValue::Scalar(Value::Str("a".into())),
            RuntimeValue::Scalar(Value::Str("b".into())),
            rbit(true),
        ])
        .unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1]);

        let col = Bat::dbls(vec![0.5, 1.5, 2.5]);
        let out = select(&[
            rb(col),
            RuntimeValue::Scalar(Value::Dbl(1.0)),
            RuntimeValue::Scalar(Value::Dbl(3.0)),
            rbit(true),
        ])
        .unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
    }

    #[test]
    fn select_mixed_int_dbl_bounds_fall_back() {
        // Int column with a dbl bound exercises the generic cmp_cell path.
        let col = Bat::ints(vec![1, 2, 3, 4]);
        let out = select(&[
            rb(col),
            RuntimeValue::Scalar(Value::Dbl(1.5)),
            RuntimeValue::Scalar(Value::Dbl(3.5)),
            rbit(true),
        ])
        .unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
    }

    #[test]
    fn select_exclusive_at_extremes() {
        let col = Bat::ints(vec![i64::MIN, 0, i64::MAX]);
        // low = MAX exclusive → empty, not overflow.
        let out = select(&[rb(col.clone()), ri(i64::MAX), rnil(), rbit(false)]).unwrap();
        assert_eq!(oids(&out[0]), Vec::<u64>::new());
        let out = select(&[rb(col), rnil(), ri(i64::MIN), rbit(false), rbit(false)]).unwrap();
        assert_eq!(oids(&out[0]), Vec::<u64>::new());
    }

    #[test]
    fn select_on_dates_uses_fast_path() {
        let col = Bat::dates(vec![8000, 8766, 9000, 9131]);
        let cand = Bat::dense_oids(4);
        let out = select(&[
            rb(col),
            rb(cand),
            ri(8766),
            ri(9131),
            rbit(true),
            rbit(false),
        ])
        .unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
    }

    #[test]
    fn thetaselect_all_operators() {
        let col = Bat::ints(vec![1, 2, 3]);
        let cand = Bat::dense_oids(3);
        let run = |theta: &str| {
            oids(
                &thetaselect(&[
                    rb(col.clone()),
                    rb(cand.clone()),
                    ri(2),
                    RuntimeValue::Scalar(Value::Str(theta.into())),
                ])
                .unwrap()[0],
            )
        };
        assert_eq!(run("=="), vec![1]);
        assert_eq!(run("!="), vec![0, 2]);
        assert_eq!(run("<"), vec![0]);
        assert_eq!(run("<="), vec![0, 1]);
        assert_eq!(run(">"), vec![2]);
        assert_eq!(run(">="), vec![1, 2]);
    }

    #[test]
    fn thetaselect_sparse_candidates() {
        let col = Bat::ints(vec![9, 1, 9, 1, 9]);
        let cand = Bat::oids(vec![0, 3, 4]);
        let out = thetaselect(&[
            rb(col),
            rb(cand),
            ri(5),
            RuntimeValue::Scalar(Value::Str(">".into())),
        ])
        .unwrap();
        assert_eq!(oids(&out[0]), vec![0, 4]);
    }

    #[test]
    fn projection_fetches() {
        let cand = Bat::oids(vec![2, 0]);
        let col = Bat::dbls(vec![0.1, 0.2, 0.3]);
        let out = projection(&[rb(cand), rb(col)]).unwrap();
        assert_eq!(out[0].as_bat("t").unwrap().as_dbls().unwrap(), &[0.3, 0.1]);
    }

    #[test]
    fn projection_of_dense_candidates_is_a_view() {
        let cand = Bat::dense_oids(100).slice(10, 20);
        let col = Bat::ints((0..100).map(|x| x * 2).collect());
        let out = projection(&[rb(cand), rb(col.clone())]).unwrap();
        let b = out[0].as_bat("t").unwrap();
        assert!(b.shares_buffer(&col));
        assert_eq!(
            b.as_ints().unwrap(),
            &(10..20).map(|x| x * 2).collect::<Vec<i64>>()[..]
        );
    }

    #[test]
    fn projection_dense_out_of_range() {
        let cand = Bat::oids(vec![1, 2, 3]);
        let col = Bat::ints(vec![0, 1]);
        assert!(matches!(
            projection(&[rb(cand), rb(col)]),
            Err(EngineError::OidOutOfRange { .. })
        ));
    }

    #[test]
    fn leftjoin_is_fetch_join() {
        let oids_bat = Bat::oids(vec![1, 1, 0]);
        let col = Bat::ints(vec![10, 20]);
        let out = leftjoin(&[rb(oids_bat), rb(col)]).unwrap();
        assert_eq!(
            out[0].as_bat("t").unwrap().as_ints().unwrap(),
            &[20, 20, 10]
        );
    }

    #[test]
    fn join_matches_pairs() {
        let l = Bat::ints(vec![1, 2, 3, 2]);
        let r = Bat::ints(vec![2, 4, 1]);
        let out = join(&[rb(l), rb(r)]).unwrap();
        let lo = oids(&out[0]);
        let ro = oids(&out[1]);
        let pairs: Vec<(u64, u64)> = lo.into_iter().zip(ro).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(0, 2), (1, 0), (3, 0)]);
    }

    #[test]
    fn join_on_strings() {
        let l = Bat::strs(vec!["a".into(), "b".into()]);
        let r = Bat::strs(vec!["b".into(), "b".into()]);
        let out = join(&[rb(l), rb(r)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1, 1]);
        let mut ro = oids(&out[1]);
        ro.sort_unstable();
        assert_eq!(ro, vec![0, 1]);
    }

    #[test]
    fn join_type_mismatch() {
        let l = Bat::ints(vec![1]);
        let r = Bat::strs(vec!["x".into()]);
        assert!(join(&[rb(l), rb(r)]).is_err());
    }

    #[test]
    fn sort_returns_order() {
        let col = Bat::ints(vec![3, 1, 2]);
        let out = sort(&[rb(col)]).unwrap();
        assert_eq!(out[0].as_bat("t").unwrap().as_ints().unwrap(), &[1, 2, 3]);
        assert_eq!(oids(&out[1]), vec![1, 2, 0]);
    }

    #[test]
    fn sort_reverse() {
        let col = Bat::ints(vec![3, 1, 2]);
        let out = sort(&[rb(col), rbit(true)]).unwrap();
        assert_eq!(out[0].as_bat("t").unwrap().as_ints().unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn firstn_top_and_bottom() {
        let col = Bat::ints(vec![30, 10, 20, 40]);
        let out = firstn(&[rb(col.clone()), ri(2), rbit(true)]).unwrap();
        assert_eq!(oids(&out[0]), vec![1, 2]);
        let out = firstn(&[rb(col), ri(2), rbit(false)]).unwrap();
        assert_eq!(oids(&out[0]), vec![3, 0]);
    }

    #[test]
    fn slice_positional() {
        let b = Bat::dense_oids(10);
        let out = slice(&[rb(b), ri(3), ri(6)]).unwrap();
        assert_eq!(oids(&out[0]), vec![3, 4, 5]);
    }

    #[test]
    fn select_candidate_out_of_range() {
        let col = Bat::ints(vec![1]);
        let cand = Bat::oids(vec![5]);
        assert!(matches!(
            select(&[rb(col), rb(cand), ri(0), ri(9), rbit(true)]),
            Err(EngineError::OidOutOfRange { .. })
        ));
    }
}
