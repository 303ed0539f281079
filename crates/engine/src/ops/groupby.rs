//! `group.*` — grouping for aggregation.
//!
//! `group.group(col)` assigns each row a group id (dense oids in order of
//! first occurrence) and returns `(groups, extents, histo)`:
//! * `groups: bat[:oid]` — group id per input row,
//! * `extents: bat[:oid]` — position of each group's first row,
//! * `histo: bat[:int]` — rows per group.
//!
//! `group.subgroup(col, groups)` refines an existing grouping with an
//! additional column (multi-column GROUP BY chains these).
//!
//! String columns group on their dictionary codes: within one column every
//! distinct value has exactly one code, so code equality is value equality.

use std::collections::HashMap;

use crate::bat::{Bat, ColumnData, ColumnView};
use crate::error::EngineError;
use crate::rt::RuntimeValue;
use crate::Result;

/// Hashable row key within one column (strings key on their codes).
#[derive(Hash, PartialEq, Eq, Clone, Copy)]
enum Key {
    Int(i64),
    Bits(u64),
    Bool(bool),
}

fn key_at(col: &ColumnView<'_>, i: usize) -> Key {
    match col {
        ColumnView::Int(v) => Key::Int(v[i]),
        ColumnView::Oid(v) => Key::Int(v[i] as i64),
        ColumnView::Date(v) => Key::Int(v[i] as i64),
        ColumnView::Dbl(v) => Key::Bits(v[i].to_bits()),
        ColumnView::Bit(v) => Key::Bool(v[i]),
        ColumnView::Str(v) => Key::Int(v.codes()[i] as i64),
    }
}

/// The `(groups, extents, histo)` triple under construction. Group ids
/// are dense and in order of first occurrence.
struct Grouping {
    groups: Vec<u64>,
    extents: Vec<u64>,
    histo: Vec<i64>,
}

/// Marks a key slot that has no group yet.
const NO_GROUP: u64 = u64::MAX;

impl Grouping {
    fn with_rows(n: usize) -> Self {
        Grouping {
            groups: Vec::with_capacity(n),
            extents: Vec::new(),
            histo: Vec::new(),
        }
    }

    /// Add row `i` to the group its key's `slot` holds, opening a new
    /// group when the slot is still [`NO_GROUP`].
    fn push(&mut self, i: usize, slot: &mut u64) {
        if *slot == NO_GROUP {
            *slot = self.histo.len() as u64;
            self.extents.push(i as u64);
            self.histo.push(0);
        }
        self.histo[*slot as usize] += 1;
        self.groups.push(*slot);
    }

    /// Group rows by integer keys below `bound`: a direct key → id table
    /// when it is no larger than the input, a hash map otherwise.
    fn by_bounded_keys(keys: impl Iterator<Item = u64>, bound: u64, n: usize) -> Self {
        let mut g = Grouping::with_rows(n);
        if bound <= n.max(1024) as u64 {
            let mut table = vec![NO_GROUP; bound as usize];
            for (i, k) in keys.enumerate() {
                g.push(i, &mut table[k as usize]);
            }
        } else {
            let mut ids: HashMap<u64, u64> = HashMap::new();
            for (i, k) in keys.enumerate() {
                g.push(i, ids.entry(k).or_insert(NO_GROUP));
            }
        }
        g
    }

    fn into_values(self) -> Vec<RuntimeValue> {
        vec![
            RuntimeValue::bat(Bat::new(ColumnData::Oid(self.groups))),
            RuntimeValue::bat(Bat::new(ColumnData::Oid(self.extents))),
            RuntimeValue::bat(Bat::new(ColumnData::Int(self.histo))),
        ]
    }
}

/// `group.group(col)`. A string column groups on its dictionary codes,
/// which are distinct per distinct value.
pub fn group(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "group.group";
    let col = super::one_arg(op, args)?.as_bat(op)?;
    let n = col.len();
    let view = col.view();
    let g = match view {
        ColumnView::Str(v) => Grouping::by_bounded_keys(
            v.codes().iter().map(|&c| c as u64),
            v.dict().len() as u64,
            n,
        ),
        _ => {
            let mut g = Grouping::with_rows(n);
            let mut ids: HashMap<Key, u64> = HashMap::new();
            for i in 0..n {
                g.push(i, ids.entry(key_at(&view, i)).or_insert(NO_GROUP));
            }
            g
        }
    };
    Ok(g.into_values())
}

/// `group.subgroup(col, groups)` — refine `groups` by `col`.
pub fn subgroup(args: &[RuntimeValue]) -> Result<Vec<RuntimeValue>> {
    let op = "group.subgroup";
    if args.len() != 2 {
        return Err(EngineError::Arity {
            op: op.into(),
            msg: format!("expected 2 args, got {}", args.len()),
        });
    }
    let col = args[0].as_bat(op)?;
    let prev = args[1].as_bat(op)?.as_oids()?;
    if col.len() != prev.len() {
        return Err(EngineError::LengthMismatch {
            op: op.into(),
            left: col.len(),
            right: prev.len(),
        });
    }
    let n = col.len();
    let view = col.view();
    // A string column refines on (previous group, code): one integer key
    // below `(max group + 1) × dict size` when that product fits.
    if let ColumnView::Str(v) = view {
        let width = v.dict().len() as u64;
        let bound = prev
            .iter()
            .max()
            .and_then(|&m| m.checked_add(1)?.checked_mul(width));
        if let Some(bound) = bound {
            let keys = prev
                .iter()
                .zip(v.codes())
                .map(|(&p, &c)| p * width + c as u64);
            return Ok(Grouping::by_bounded_keys(keys, bound, n).into_values());
        }
    }
    let mut g = Grouping::with_rows(n);
    let mut ids: HashMap<(u64, Key), u64> = HashMap::new();
    for (i, &p) in prev.iter().enumerate() {
        g.push(i, ids.entry((p, key_at(&view, i))).or_insert(NO_GROUP));
    }
    Ok(g.into_values())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(b: Bat) -> RuntimeValue {
        RuntimeValue::bat(b)
    }

    fn oids(v: &RuntimeValue) -> Vec<u64> {
        v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
    }

    fn ints(v: &RuntimeValue) -> Vec<i64> {
        v.as_bat("t").unwrap().as_ints().unwrap().to_vec()
    }

    #[test]
    fn group_assigns_first_occurrence_ids() {
        let col = Bat::strs(vec![
            "a".into(),
            "b".into(),
            "a".into(),
            "c".into(),
            "b".into(),
        ]);
        let out = group(&[rb(col)]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1, 0, 2, 1]);
        assert_eq!(oids(&out[1]), vec![0, 1, 3]);
        assert_eq!(ints(&out[2]), vec![2, 2, 1]);
    }

    #[test]
    fn group_on_ints_and_dbls() {
        let out = group(&[rb(Bat::ints(vec![7, 7, 7]))]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 0, 0]);
        assert_eq!(ints(&out[2]), vec![3]);
        let out = group(&[rb(Bat::dbls(vec![0.5, 0.25, 0.5]))]).unwrap();
        assert_eq!(oids(&out[0]), vec![0, 1, 0]);
    }

    #[test]
    fn group_empty() {
        let out = group(&[rb(Bat::ints(vec![]))]).unwrap();
        assert!(oids(&out[0]).is_empty());
        assert!(oids(&out[1]).is_empty());
        assert!(ints(&out[2]).is_empty());
    }

    #[test]
    fn subgroup_refines() {
        // Rows: (x=1,y=a), (x=1,y=b), (x=2,y=a), (x=1,y=a)
        let x = Bat::ints(vec![1, 1, 2, 1]);
        let gx = group(&[rb(x)]).unwrap();
        let y = Bat::strs(vec!["a".into(), "b".into(), "a".into(), "a".into()]);
        let out = subgroup(&[rb(y), gx[0].clone()]).unwrap();
        // Distinct (x,y) pairs: (1,a)=0, (1,b)=1, (2,a)=2, (1,a)=0
        assert_eq!(oids(&out[0]), vec![0, 1, 2, 0]);
        assert_eq!(oids(&out[1]), vec![0, 1, 2]);
        assert_eq!(ints(&out[2]), vec![2, 1, 1]);
    }

    #[test]
    fn subgroup_length_mismatch() {
        let y = Bat::ints(vec![1]);
        let g = Bat::oids(vec![0, 0]);
        assert!(matches!(
            subgroup(&[rb(y), rb(g)]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }
}
