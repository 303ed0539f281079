//! Mixed-dictionary kernel oracle. Every `Bat::strs` call builds its own
//! dictionary, so columns built separately from overlapping values number
//! the same string differently. Each string kernel is run over such
//! columns (and over views that share one dictionary) and compared with a
//! reference computed over plain `Vec<String>`s. A kernel that compares
//! codes across dictionaries disagrees with the reference here.

use std::cmp::Ordering;
use std::sync::Arc;

use proptest::prelude::*;
use stetho_engine::rt::RuntimeValue;
use stetho_engine::{ops, Bat, Catalog, ExecCtx};
use stetho_mal::Value;

/// Short strings over a tiny alphabet: plenty of repeats and overlap
/// between columns, in different first-occurrence orders.
fn strings(max: usize) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-c]{0,2}", 0..max)
}

fn exec(module: &str, function: &str, args: &[RuntimeValue]) -> Vec<RuntimeValue> {
    let ctx = ExecCtx::new(Arc::new(Catalog::new()));
    ops::execute(module, function, args, &ctx)
        .unwrap_or_else(|e| panic!("{module}.{function}: {e}"))
}

fn rb(b: &Bat) -> RuntimeValue {
    RuntimeValue::bat(b.clone())
}

fn rs(s: &str) -> RuntimeValue {
    RuntimeValue::Scalar(Value::Str(s.into()))
}

fn rbit(b: bool) -> RuntimeValue {
    RuntimeValue::Scalar(Value::Bit(b))
}

fn plain(b: &Bat) -> Vec<String> {
    b.as_strs().unwrap().iter().map(|s| s.to_string()).collect()
}

fn oids(v: &RuntimeValue) -> Vec<u64> {
    v.as_bat("t").unwrap().as_oids().unwrap().to_vec()
}

fn bits(v: &RuntimeValue) -> Vec<bool> {
    v.as_bat("t").unwrap().as_bits().unwrap().to_vec()
}

/// Deterministic positions in `0..len` drawn from `seed`.
fn positions(seed: u64, len: usize, count: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..if len == 0 { 0 } else { count })
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % len as u64
        })
        .collect()
}

/// First-occurrence group ids of `rows`.
fn group_ids<T: PartialEq>(rows: &[T]) -> Vec<u64> {
    let mut seen: Vec<&T> = Vec::new();
    rows.iter()
        .map(|r| match seen.iter().position(|s| *s == r) {
            Some(i) => i as u64,
            None => {
                seen.push(r);
                seen.len() as u64 - 1
            }
        })
        .collect()
}

/// Reference SQL LIKE: `%` any run, `_` one character.
fn like(s: &[char], p: &[char]) -> bool {
    match p.split_first() {
        None => s.is_empty(),
        Some(('%', rest)) => (0..=s.len()).any(|k| like(&s[k..], rest)),
        Some((&c, rest)) => !s.is_empty() && (c == '_' || s[0] == c) && like(&s[1..], rest),
    }
}

fn theta(op: &str, o: Ordering) -> bool {
    match op {
        "==" => o == Ordering::Equal,
        "!=" => o != Ordering::Equal,
        "<" => o == Ordering::Less,
        "<=" => o != Ordering::Greater,
        ">" => o == Ordering::Greater,
        _ => o != Ordering::Less,
    }
}

const THETAS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pack_gather_slice_match_plain_strings(
        a in strings(24),
        b in strings(24),
        seed in any::<u64>(),
    ) {
        let (ba, bb) = (Bat::strs(a.clone()), Bat::strs(b.clone()));
        let both: Vec<String> = a.iter().chain(&b).cloned().collect();

        // Different dictionaries: re-encoded.
        let packed = Bat::pack(&[ba.clone(), bb.clone()]).unwrap();
        prop_assert_eq!(plain(&packed), both.clone());
        prop_assert_eq!(&packed, &Bat::strs(both.clone()));
        let via_op = exec("mat", "pack", &[rb(&ba), rb(&bb), rb(&ba)]);
        let thrice: Vec<String> = both.iter().chain(&a).cloned().collect();
        prop_assert_eq!(plain(via_op[0].as_bat("t").unwrap()), thrice);

        // One dictionary: gathered parts of one column concatenate codes.
        let pa = positions(seed, a.len(), 9);
        let pb = positions(seed ^ 0xff, a.len(), 5);
        let (ga, gb) = (ba.gather(&pa).unwrap(), ba.gather(&pb).unwrap());
        let picked = |p: &[u64]| p.iter().map(|&i| a[i as usize].clone()).collect::<Vec<_>>();
        prop_assert_eq!(plain(&ga), picked(&pa));
        let shared = Bat::pack(&[ga.clone(), gb.clone()]).unwrap();
        prop_assert!(shared.as_strs().unwrap().same_dict(&ba.as_strs().unwrap()));
        let mut expected = picked(&pa);
        expected.extend(picked(&pb));
        prop_assert_eq!(plain(&shared), expected.clone());

        // Mixed: a gathered part of `a` packed with a column of `b`.
        let mixed = Bat::pack(&[ga.clone(), bb.clone()]).unwrap();
        let mut expected = picked(&pa);
        expected.extend(b.iter().cloned());
        prop_assert_eq!(plain(&mixed), expected);

        // Slices of either.
        let (lo, hi) = (seed as usize % (a.len() + 1), (seed >> 8) as usize % (a.len() + 1));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        prop_assert_eq!(plain(&ba.slice(lo, hi)), a[lo..hi].to_vec());
        prop_assert_eq!(&ba.slice(lo, hi), &Bat::strs(a[lo..hi].to_vec()));
    }

    #[test]
    fn join_matches_plain_strings(a in strings(20), b in strings(20), seed in any::<u64>()) {
        let (ba, bb) = (Bat::strs(a.clone()), Bat::strs(b.clone()));
        let reference = |l: &[String], r: &[String]| {
            let mut pairs = Vec::new();
            for (i, x) in l.iter().enumerate() {
                for (j, y) in r.iter().enumerate() {
                    if x == y {
                        pairs.push((i as u64, j as u64));
                    }
                }
            }
            pairs
        };
        let joined = |l: &Bat, r: &Bat| {
            let out = exec("algebra", "join", &[rb(l), rb(r)]);
            let mut pairs: Vec<(u64, u64)> =
                oids(&out[0]).into_iter().zip(oids(&out[1])).collect();
            pairs.sort();
            pairs
        };
        // Different dictionaries.
        prop_assert_eq!(joined(&ba, &bb), reference(&a, &b));
        prop_assert_eq!(joined(&bb, &ba), reference(&b, &a));
        // One dictionary: a gather of `a` against `a`.
        let p = positions(seed, a.len(), 7);
        let ga = ba.gather(&p).unwrap();
        let gathered: Vec<String> = p.iter().map(|&i| a[i as usize].clone()).collect();
        prop_assert_eq!(joined(&ga, &ba), reference(&gathered, &a));
    }

    #[test]
    fn group_and_subgroup_match_plain_strings(
        rows in proptest::collection::vec(("[a-c]{0,2}", "[a-c]{0,1}"), 0..40),
        seed in any::<u64>(),
    ) {
        let x: Vec<String> = rows.iter().map(|r| r.0.clone()).collect();
        let y: Vec<String> = rows.iter().map(|r| r.1.clone()).collect();
        // Two halves built apart, then packed: a re-encoded dictionary.
        let half = x.len() / 2;
        let bx = Bat::pack(&[Bat::strs(x[..half].to_vec()), Bat::strs(x[half..].to_vec())])
            .unwrap();
        let by = Bat::strs(y.clone());

        let g = exec("group", "group", &[rb(&bx)]);
        let ids = group_ids(&x);
        prop_assert_eq!(oids(&g[0]), ids.clone());
        let n_groups = ids.iter().max().map_or(0, |m| m + 1) as usize;
        let extents: Vec<u64> = (0..n_groups as u64)
            .map(|gid| ids.iter().position(|&i| i == gid).unwrap() as u64)
            .collect();
        prop_assert_eq!(oids(&g[1]), extents);

        let sg = exec("group", "subgroup", &[rb(&by), g[0].clone()]);
        prop_assert_eq!(oids(&sg[0]), group_ids(&rows));
        let histo = sg[2].as_bat("t").unwrap().as_ints().unwrap().to_vec();
        prop_assert_eq!(histo.iter().sum::<i64>(), rows.len() as i64);

        // Group ids far above the row count: the `(prev, code)` key bound
        // overflows or exceeds any direct table, so the hash map keys it.
        let far: Vec<u64> = ids.iter().map(|&i| u64::MAX - 64 + i).collect();
        let sg = exec("group", "subgroup", &[rb(&by), RuntimeValue::bat(Bat::oids(far))]);
        prop_assert_eq!(oids(&sg[0]), group_ids(&rows));

        // A short gather over a dictionary larger than the direct tables
        // (more than max(rows, 1024) entries): group and subgroup take the
        // hash map. Rows with equal `x` pick equal values; the stride makes
        // some distinct `x` collide too.
        let big = Bat::strs((0..2000).map(|i| format!("s{i}")).collect());
        let picks: Vec<u64> = ids.iter().map(|&i| (i * 7 + seed % 2000) % 2000 / 3).collect();
        let bz = big.gather(&picks).unwrap();
        let z: Vec<String> = picks.iter().map(|&p| format!("s{p}")).collect();
        prop_assert_eq!(plain(&bz), z.clone());
        let gz = exec("group", "group", &[rb(&bz)]);
        prop_assert_eq!(oids(&gz[0]), group_ids(&z));
        let sz = exec("group", "subgroup", &[rb(&bz), g[0].clone()]);
        let xz: Vec<(&String, &String)> = x.iter().zip(&z).collect();
        prop_assert_eq!(oids(&sz[0]), group_ids(&xz));
        let sy = exec("group", "subgroup", &[rb(&by), gz[0].clone()]);
        let zy: Vec<(&String, &String)> = z.iter().zip(&y).collect();
        prop_assert_eq!(oids(&sy[0]), group_ids(&zy));
    }

    #[test]
    fn sort_thetaselect_and_like_match_plain_strings(
        a in strings(30),
        probe in "[a-c]{0,2}",
        pattern in "[a-c%_]{0,3}",
        seed in any::<u64>(),
    ) {
        let ba = Bat::strs(a.clone());
        // A gathered window whose dictionary holds values it does not use,
        // and the full column.
        let p = positions(seed, a.len(), 2);
        let small = ba.gather(&p).unwrap();
        let small_plain: Vec<String> = p.iter().map(|&i| a[i as usize].clone()).collect();

        for (col, vals) in [(&ba, &a), (&small, &small_plain)] {
            let n = vals.len();
            // sort: stable, so the order equals a stable index sort.
            let out = exec("algebra", "sort", &[rb(col)]);
            let mut order: Vec<u64> = (0..n as u64).collect();
            order.sort_by(|&i, &j| vals[i as usize].cmp(&vals[j as usize]));
            prop_assert_eq!(oids(&out[1]), order.clone());
            let sorted: Vec<String> = order.iter().map(|&i| vals[i as usize].clone()).collect();
            prop_assert_eq!(plain(out[0].as_bat("t").unwrap()), sorted);

            let all = RuntimeValue::bat(Bat::dense_oids(n));
            let odd = RuntimeValue::bat(Bat::oids((1..n as u64).step_by(2).collect()));
            for op in THETAS {
                for (cand, step) in [(&all, 1), (&odd, 2)] {
                    let got = exec("algebra", "thetaselect", &[rb(col), cand.clone(), rs(&probe), rs(op)]);
                    let expected: Vec<u64> = (0..n)
                        .skip(step - 1)
                        .step_by(step)
                        .filter(|&i| theta(op, vals[i].as_str().cmp(&probe)))
                        .map(|i| i as u64)
                        .collect();
                    prop_assert_eq!(oids(&got[0]), expected);
                }
                let mask = exec("batcalc", op, &[rb(col), rs(&probe)]);
                let expected: Vec<bool> =
                    vals.iter().map(|v| theta(op, v.as_str().cmp(&probe))).collect();
                prop_assert_eq!(bits(&mask[0]), expected);
            }

            // Range select with inclusive and exclusive bounds.
            for (li, hi) in [(true, true), (false, true), (true, false), (false, false)] {
                let got = exec(
                    "algebra",
                    "select",
                    &[rb(col), all.clone(), rs(&probe), rs("bb"), rbit(li), rbit(hi)],
                );
                let expected: Vec<u64> = (0..n)
                    .filter(|&i| {
                        let v = vals[i].as_str();
                        (if li { v >= probe.as_str() } else { v > probe.as_str() })
                            && (if hi { v <= "bb" } else { v < "bb" })
                    })
                    .map(|i| i as u64)
                    .collect();
                prop_assert_eq!(oids(&got[0]), expected);
            }

            let pat: Vec<char> = pattern.chars().collect();
            let hit: Vec<bool> = vals
                .iter()
                .map(|v| like(&v.chars().collect::<Vec<_>>(), &pat))
                .collect();
            let mask = exec("batcalc", "like", &[rb(col), rs(&pattern)]);
            prop_assert_eq!(bits(&mask[0]), hit.clone());
            for anti in [false, true] {
                let got = exec("algebra", "likeselect", &[rb(col), all.clone(), rs(&pattern), rbit(anti)]);
                let expected: Vec<u64> =
                    (0..n).filter(|&i| hit[i] != anti).map(|i| i as u64).collect();
                prop_assert_eq!(oids(&got[0]), expected);
            }
        }
    }

    #[test]
    fn equality_and_comparison_across_dictionaries(a in strings(12), b in strings(12)) {
        let (x, y) = (Bat::strs(a.clone()), Bat::strs(b.clone()));
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(&x, &Bat::strs(a.clone()));
        // Equal values built in a different dictionary order still match.
        let reordered = {
            let mut seed: Vec<String> = b.clone();
            seed.extend(a.iter().cloned());
            Bat::strs(seed).slice(b.len(), b.len() + a.len())
        };
        prop_assert_eq!(&reordered, &x);
        prop_assert_eq!(x.view() == y.view(), a == b);

        // Column against column across dictionaries.
        let n = a.len().min(b.len());
        let (xs, ys) = (x.slice(0, n), y.slice(0, n));
        for op in THETAS {
            let got = exec("batcalc", op, &[rb(&xs), rb(&ys)]);
            let expected: Vec<bool> = (0..n).map(|i| theta(op, a[i].cmp(&b[i]))).collect();
            prop_assert_eq!(bits(&got[0]), expected);
        }
    }
}
