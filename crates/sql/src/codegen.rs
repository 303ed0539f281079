//! Algebra → MAL code generation.
//!
//! The generated plans have the exact shape of the paper's Figure 1:
//! `sql.mvc` / `sql.tid` / `sql.bind` feeding `algebra.select` /
//! `algebra.projection` pipelines, ending in `sql.resultSet`.
//!
//! Internally a relation in flight is a *candidate vector*: one aligned
//! oid column per base-table binding. Scans start with `sql.tid`; filters
//! shrink the vector (directly via `algebra.select`/`thetaselect` on the
//! single-table fast path, or via a computed bit mask after joins); joins
//! extend it; projection/aggregation turn it into named output columns.
//! Expressions and predicates are lowered once (`eval_expr`/`eval_mask`)
//! over a scope: base columns at the rows in flight (WHERE, joins,
//! aggregate arguments) or named output columns (HAVING).

use std::collections::HashMap;

use stetho_engine::Catalog;
use stetho_mal::{Arg, MalType, Plan, PlanBuilder, Value, VarId};

use crate::algebra::{AggSpec, RelOp};
use crate::ast::{AggFunc, ArithOp, CmpOp, Expr, OrderKey, Pred};
use crate::error::SqlError;
use crate::Result;

/// Generate a MAL plan for an algebra tree.
pub fn generate(catalog: &Catalog, rel: &RelOp, plan_name: &str) -> Result<Plan> {
    let mut cg = Codegen {
        catalog,
        b: PlanBuilder::new(plan_name),
        mvc: None,
        bound: HashMap::new(),
    };
    let mvc = cg.b.call("sql", "mvc", MalType::Int, vec![]);
    cg.mvc = Some(mvc);
    let cols = match cg.gen(rel)? {
        Gen::Cols(c) => c,
        Gen::Rows(_) => {
            return Err(SqlError::Semantic(
                "query has no projection (internal)".into(),
            ))
        }
    };
    let mut args = Vec::with_capacity(cols.len() * 2);
    for (name, var) in &cols {
        args.push(Arg::Lit(Value::Str(name.clone())));
        args.push(Arg::Var(*var));
    }
    cg.b.push("sql", "resultSet", vec![], args);
    let plan = cg.b.finish();
    plan.validate()
        .map_err(|e| SqlError::Semantic(format!("generated invalid plan: {e}")))?;
    Ok(plan)
}

/// One binding's slice of the candidate vector.
#[derive(Debug, Clone)]
struct Binding {
    binding: String,
    table: String,
    oids: VarId,
}

/// Rows in flight (aligned oid columns).
#[derive(Debug, Clone)]
struct Rows {
    bindings: Vec<Binding>,
}

/// Result of generating a subtree.
enum Gen {
    Rows(Rows),
    Cols(Vec<(String, VarId)>),
}

/// What column references in an expression resolve against.
#[derive(Clone, Copy)]
enum Scope<'s> {
    /// Base columns, projected at the rows in flight.
    Rows(&'s Rows),
    /// Output columns by name (the HAVING context).
    Cols(&'s [(String, VarId)]),
}

/// An evaluated scalar expression.
#[derive(Debug, Clone)]
enum EV {
    Bat(VarId, MalType),
    Lit(Value),
}

struct Codegen<'a> {
    catalog: &'a Catalog,
    b: PlanBuilder,
    mvc: Option<VarId>,
    /// Cache of `sql.bind` results keyed by (table, column).
    bound: HashMap<(String, String), (VarId, MalType)>,
}

impl<'a> Codegen<'a> {
    fn mvc(&self) -> VarId {
        self.mvc.expect("mvc emitted first")
    }

    /// `sql.bind` a base column (cached).
    fn bind_column(&mut self, table: &str, column: &str) -> Result<(VarId, MalType)> {
        if let Some(hit) = self.bound.get(&(table.to_string(), column.to_string())) {
            return Ok(hit.clone());
        }
        let def = self
            .catalog
            .table(table)
            .map_err(|_| SqlError::Unknown {
                kind: "table",
                name: table.to_string(),
            })?
            .column_def(column)
            .ok_or_else(|| SqlError::Unknown {
                kind: "column",
                name: format!("{table}.{column}"),
            })?
            .clone();
        let mvc = self.mvc();
        let var = self.b.call(
            "sql",
            "bind",
            MalType::bat(def.ty.clone()),
            vec![
                Arg::Var(mvc),
                Arg::Lit(Value::Str("sys".into())),
                Arg::Lit(Value::Str(table.into())),
                Arg::Lit(Value::Str(column.into())),
                Arg::Lit(Value::Int(0)),
            ],
        );
        self.bound.insert(
            (table.to_string(), column.to_string()),
            (var, def.ty.clone()),
        );
        Ok((var, def.ty))
    }

    /// Resolve a column reference against the current bindings: returns
    /// (binding index, table, column name).
    fn resolve(
        &self,
        rows: &Rows,
        table: &Option<String>,
        name: &str,
    ) -> Result<(usize, String, String)> {
        match table {
            Some(t) => {
                let idx = rows
                    .bindings
                    .iter()
                    .position(|b| b.binding == *t)
                    .ok_or_else(|| SqlError::Unknown {
                        kind: "table",
                        name: t.clone(),
                    })?;
                Ok((idx, rows.bindings[idx].table.clone(), name.to_string()))
            }
            None => {
                let mut hit = None;
                for (i, b) in rows.bindings.iter().enumerate() {
                    let has = self
                        .catalog
                        .table(&b.table)
                        .ok()
                        .and_then(|t| t.column_def(name))
                        .is_some();
                    if has {
                        if hit.is_some() {
                            return Err(SqlError::Semantic(format!(
                                "column `{name}` is ambiguous"
                            )));
                        }
                        hit = Some((i, b.table.clone(), name.to_string()));
                    }
                }
                hit.ok_or_else(|| SqlError::Unknown {
                    kind: "column",
                    name: name.to_string(),
                })
            }
        }
    }

    /// Resolve and `sql.bind` a column reference (the single-binding
    /// select fast path reads the whole column under a candidate list).
    fn bind_ref(
        &mut self,
        rows: &Rows,
        table: &Option<String>,
        name: &str,
    ) -> Result<(VarId, MalType)> {
        let (_, t, c) = self.resolve(rows, table, name)?;
        self.bind_column(&t, &c)
    }

    fn lit_value(e: &Expr) -> Option<Value> {
        match e {
            Expr::Int(n) => Some(Value::Int(*n)),
            Expr::Float(x) => Some(Value::Dbl(*x)),
            Expr::Str(s) => Some(Value::Str(s.clone())),
            Expr::Date(d) => Some(Value::Date(*d)),
            _ => None,
        }
    }

    /// `algebra.projection(oids, var)`: `var`'s values at `oids`.
    fn project(&mut self, oids: VarId, var: VarId) -> VarId {
        let ty = self.b.var_type(var).clone();
        self.b.call(
            "algebra",
            "projection",
            ty,
            vec![Arg::Var(oids), Arg::Var(var)],
        )
    }

    /// The positions where a bit mask is true.
    fn select_true(&mut self, mask: VarId) -> VarId {
        let t = || Arg::Lit(Value::Bit(true));
        self.b.call(
            "algebra",
            "select",
            MalType::bat(MalType::Oid),
            vec![Arg::Var(mask), t(), t(), t()],
        )
    }

    /// The candidates whose `col` value lies in `[lo, hi]`.
    fn select_range(&mut self, col: VarId, cand: VarId, lo: Value, hi: Value) -> VarId {
        self.b.call(
            "algebra",
            "select",
            MalType::bat(MalType::Oid),
            vec![
                Arg::Var(col),
                Arg::Var(cand),
                Arg::Lit(lo),
                Arg::Lit(hi),
                Arg::Lit(Value::Bit(true)),
            ],
        )
    }

    /// A `batcalc` call producing a bit mask.
    fn bits(&mut self, op: &str, args: Vec<Arg>) -> VarId {
        self.b.call("batcalc", op, MalType::bat(MalType::Bit), args)
    }

    /// `group.group` on the first key and `group.subgroup` for the rest;
    /// returns (group ids, extents: each group's first row).
    fn group_by(&mut self, keys: &[VarId]) -> (VarId, VarId) {
        let mut groups: Option<(VarId, VarId)> = None;
        for &key in keys {
            let g = self.b.new_var(MalType::bat(MalType::Oid));
            let e = self.b.new_var(MalType::bat(MalType::Oid));
            let h = self.b.new_var(MalType::bat(MalType::Int));
            let mut args = vec![Arg::Var(key)];
            args.extend(groups.map(|(prev, _)| Arg::Var(prev)));
            let function = if groups.is_none() {
                "group"
            } else {
                "subgroup"
            };
            self.b.push("group", function, vec![g, e, h], args);
            groups = Some((g, e));
        }
        groups.expect("grouping needs a key")
    }

    /// Evaluate a scalar expression in a scope.
    fn eval_expr(&mut self, scope: Scope, e: &Expr) -> Result<EV> {
        if let Some(v) = Self::lit_value(e) {
            return Ok(EV::Lit(v));
        }
        match e {
            Expr::Column { table, name } => match scope {
                Scope::Rows(rows) => {
                    let (idx, t, c) = self.resolve(rows, table, name)?;
                    let (col, ty) = self.bind_column(&t, &c)?;
                    Ok(EV::Bat(self.project(rows.bindings[idx].oids, col), ty))
                }
                Scope::Cols(cols) => {
                    let var = find_col(cols, name)?;
                    Ok(EV::Bat(var, self.b.var_type(var).tail().clone()))
                }
            },
            Expr::Arith { op, left, right } => {
                let l = self.eval_expr(scope, left)?;
                let r = self.eval_expr(scope, right)?;
                match (&l, &r) {
                    (EV::Lit(a), EV::Lit(b)) => fold_scalar(*op, a, b).map(EV::Lit),
                    _ => {
                        let out_ty = arith_type(&l, &r);
                        let args = vec![ev_arg(&l), ev_arg(&r)];
                        let var = self.b.call(
                            "batcalc",
                            op.mal_name(),
                            MalType::bat(out_ty.clone()),
                            args,
                        );
                        Ok(EV::Bat(var, out_ty))
                    }
                }
            }
            Expr::Agg { .. } => Err(SqlError::Semantic("aggregate in a scalar context".into())),
            _ => unreachable!("literals handled above"),
        }
    }

    /// Evaluate an expression that must yield a BAT; `err` otherwise.
    fn eval_bat(&mut self, scope: Scope, e: &Expr, err: SqlError) -> Result<(VarId, MalType)> {
        match self.eval_expr(scope, e)? {
            EV::Bat(v, ty) => Ok((v, ty)),
            EV::Lit(_) => Err(err),
        }
    }

    /// Evaluate a predicate to a bit-mask BAT aligned with the scope.
    fn eval_mask(&mut self, scope: Scope, p: &Pred) -> Result<VarId> {
        match p {
            Pred::Cmp { op, left, right } => {
                let mut l = self.eval_expr(scope, left)?;
                let mut r = self.eval_expr(scope, right)?;
                self.coerce_date_sides(&mut l, &mut r);
                match (&l, &r) {
                    (EV::Lit(_), EV::Lit(_)) => {
                        Err(SqlError::Unsupported("constant predicates".into()))
                    }
                    _ => Ok(self.bits(op.theta(), vec![ev_arg(&l), ev_arg(&r)])),
                }
            }
            Pred::Like {
                expr,
                pattern,
                negated,
            } => {
                let err = SqlError::Unsupported("LIKE over a constant".into());
                let (col, _) = self.eval_bat(scope, expr, err)?;
                let mask = self.bits(
                    "like",
                    vec![Arg::Var(col), Arg::Lit(Value::Str(pattern.clone()))],
                );
                Ok(self.negate_if(*negated, mask))
            }
            Pred::InList {
                expr,
                list,
                negated,
            } => {
                // OR-chain of equality masks.
                let mut acc: Option<VarId> = None;
                for item in list {
                    let m = self.eval_mask(
                        scope,
                        &Pred::Cmp {
                            op: CmpOp::Eq,
                            left: expr.clone(),
                            right: item.clone(),
                        },
                    )?;
                    acc = Some(match acc {
                        Some(prev) => self.bits("or", vec![Arg::Var(prev), Arg::Var(m)]),
                        None => m,
                    });
                }
                let mask = acc.ok_or_else(|| SqlError::Semantic("empty IN list".into()))?;
                Ok(self.negate_if(*negated, mask))
            }
            Pred::Between { expr, lo, hi } => {
                let lo_p = Pred::Cmp {
                    op: CmpOp::Ge,
                    left: expr.clone(),
                    right: lo.clone(),
                };
                let hi_p = Pred::Cmp {
                    op: CmpOp::Le,
                    left: expr.clone(),
                    right: hi.clone(),
                };
                let a = self.eval_mask(scope, &lo_p)?;
                let b = self.eval_mask(scope, &hi_p)?;
                Ok(self.bits("and", vec![Arg::Var(a), Arg::Var(b)]))
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                let ma = self.eval_mask(scope, a)?;
                let mb = self.eval_mask(scope, b)?;
                let op = if matches!(p, Pred::And(..)) {
                    "and"
                } else {
                    "or"
                };
                Ok(self.bits(op, vec![Arg::Var(ma), Arg::Var(mb)]))
            }
            Pred::Not(a) => {
                let m = self.eval_mask(scope, a)?;
                Ok(self.negate_if(true, m))
            }
        }
    }

    fn negate_if(&mut self, negated: bool, mask: VarId) -> VarId {
        if negated {
            self.bits("not", vec![Arg::Var(mask)])
        } else {
            mask
        }
    }

    /// If one side is a date BAT and the other a string literal that looks
    /// like a date, convert the literal.
    fn coerce_date_sides(&self, l: &mut EV, r: &mut EV) {
        let fix = |bat: &EV, lit: &mut EV| {
            if let (EV::Bat(_, MalType::Date), EV::Lit(Value::Str(s))) = (bat, &lit) {
                if let Some(d) = crate::ast::date_to_days(s) {
                    *lit = EV::Lit(Value::Date(d));
                }
            }
        };
        let lc = l.clone();
        fix(&lc, r);
        let rc = r.clone();
        fix(&rc, l);
    }

    /// Filter the rows by a predicate.
    fn gen_filter(&mut self, rows: Rows, pred: &Pred) -> Result<Rows> {
        // Fast path: single binding, conjunction of simple col-vs-literal
        // comparisons → Figure-1 style select/thetaselect chains.
        if rows.bindings.len() == 1 {
            let mut current = rows;
            let mut leftovers: Vec<&Pred> = Vec::new();
            for c in pred.conjuncts() {
                if !self.try_simple_select(&mut current, c)? {
                    leftovers.push(c);
                }
            }
            let mut out = current;
            for c in leftovers {
                out = self.mask_filter(out, c)?;
            }
            return Ok(out);
        }
        self.mask_filter(rows, pred)
    }

    /// Try the direct select/thetaselect path for one conjunct; returns
    /// true when handled.
    fn try_simple_select(&mut self, rows: &mut Rows, c: &Pred) -> Result<bool> {
        let cand = rows.bindings[0].oids;
        let new = match c {
            Pred::Cmp { op, left, right } => {
                let (table, name, op, lit) =
                    match (left, right, Self::lit_value(left), Self::lit_value(right)) {
                        (Expr::Column { table, name }, _, _, Some(v)) => (table, name, *op, v),
                        (_, Expr::Column { table, name }, Some(v), _) => {
                            (table, name, flip(*op), v)
                        }
                        _ => return Ok(false),
                    };
                let (col, ty) = self.bind_ref(rows, table, name)?;
                let lit = coerce_lit(lit, &ty);
                match op {
                    CmpOp::Eq => self.select_range(col, cand, lit.clone(), lit),
                    other => self.b.call(
                        "algebra",
                        "thetaselect",
                        MalType::bat(MalType::Oid),
                        vec![
                            Arg::Var(col),
                            Arg::Var(cand),
                            Arg::Lit(lit),
                            Arg::Lit(Value::Str(other.theta().into())),
                        ],
                    ),
                }
            }
            Pred::Between {
                expr: Expr::Column { table, name },
                lo,
                hi,
            } => match (Self::lit_value(lo), Self::lit_value(hi)) {
                (Some(lo), Some(hi)) => {
                    let (col, ty) = self.bind_ref(rows, table, name)?;
                    self.select_range(col, cand, coerce_lit(lo, &ty), coerce_lit(hi, &ty))
                }
                _ => return Ok(false),
            },
            Pred::Like {
                expr: Expr::Column { table, name },
                pattern,
                negated,
            } => {
                let (col, _) = self.bind_ref(rows, table, name)?;
                self.b.call(
                    "algebra",
                    "likeselect",
                    MalType::bat(MalType::Oid),
                    vec![
                        Arg::Var(col),
                        Arg::Var(cand),
                        Arg::Lit(Value::Str(pattern.clone())),
                        Arg::Lit(Value::Bit(*negated)),
                    ],
                )
            }
            Pred::InList {
                expr: Expr::Column { table, name },
                list,
                negated: false,
            } if list.iter().all(|e| Self::lit_value(e).is_some()) => {
                // Union of equality selections over the shared candidates.
                let (col, ty) = self.bind_ref(rows, table, name)?;
                let mut acc: Option<VarId> = None;
                for item in list {
                    let lit = coerce_lit(Self::lit_value(item).expect("checked literal"), &ty);
                    let sel = self.select_range(col, cand, lit.clone(), lit);
                    acc = Some(match acc {
                        Some(prev) => self.b.call(
                            "algebra",
                            "union",
                            MalType::bat(MalType::Oid),
                            vec![Arg::Var(prev), Arg::Var(sel)],
                        ),
                        None => sel,
                    });
                }
                acc.ok_or_else(|| SqlError::Semantic("empty IN list".into()))?
            }
            _ => return Ok(false),
        };
        rows.bindings[0].oids = new;
        Ok(true)
    }

    /// The general mask-based filter.
    fn mask_filter(&mut self, rows: Rows, pred: &Pred) -> Result<Rows> {
        let mask = self.eval_mask(Scope::Rows(&rows), pred)?;
        let sel = self.select_true(mask);
        let bindings = rows
            .bindings
            .into_iter()
            .map(|b| Binding {
                oids: self.project(sel, b.oids),
                ..b
            })
            .collect();
        Ok(Rows { bindings })
    }

    fn gen(&mut self, rel: &RelOp) -> Result<Gen> {
        match rel {
            RelOp::Scan { table, binding } => {
                // Verify the table exists before emitting.
                self.catalog.table(table).map_err(|_| SqlError::Unknown {
                    kind: "table",
                    name: table.clone(),
                })?;
                let mvc = self.mvc();
                let tid = self.b.call(
                    "sql",
                    "tid",
                    MalType::bat(MalType::Oid),
                    vec![
                        Arg::Var(mvc),
                        Arg::Lit(Value::Str("sys".into())),
                        Arg::Lit(Value::Str(table.clone())),
                    ],
                );
                Ok(Gen::Rows(Rows {
                    bindings: vec![Binding {
                        binding: binding.clone(),
                        table: table.clone(),
                        oids: tid,
                    }],
                }))
            }
            RelOp::Filter { input, pred } => {
                let rows = self.gen_rows(input)?;
                Ok(Gen::Rows(self.gen_filter(rows, pred)?))
            }
            RelOp::EquiJoin {
                left,
                right,
                left_col,
                right_col,
            } => {
                let l = self.gen_rows(left)?;
                let r = self.gen_rows(right)?;
                let key_err = || SqlError::Semantic("join key must be a column".into());
                let (lv, _) = self.eval_bat(Scope::Rows(&l), left_col, key_err())?;
                let (rv, _) = self.eval_bat(Scope::Rows(&r), right_col, key_err())?;
                let jl = self.b.new_var(MalType::bat(MalType::Oid));
                let jr = self.b.new_var(MalType::bat(MalType::Oid));
                self.b.push(
                    "algebra",
                    "join",
                    vec![jl, jr],
                    vec![Arg::Var(lv), Arg::Var(rv)],
                );
                let sides = l.bindings.into_iter().map(|b| (jl, b));
                let sides = sides.chain(r.bindings.into_iter().map(|b| (jr, b)));
                let bindings = sides
                    .map(|(j, b)| Binding {
                        oids: self.project(j, b.oids),
                        ..b
                    })
                    .collect();
                Ok(Gen::Rows(Rows { bindings }))
            }
            RelOp::Project { input, items } => {
                let rows = self.gen_rows(input)?;
                let mut cols = Vec::with_capacity(items.len());
                for item in items {
                    let err = SqlError::Unsupported("constant select items".into());
                    let (var, _) = self.eval_bat(Scope::Rows(&rows), &item.expr, err)?;
                    cols.push((item.alias.clone(), var));
                }
                Ok(Gen::Cols(cols))
            }
            RelOp::Aggregate {
                input,
                keys,
                aggs,
                output,
            } => {
                let rows = self.gen_rows(input)?;
                self.gen_aggregate(rows, keys, aggs, output)
            }
            RelOp::Distinct { input } => {
                let cols = self.gen_cols(input)?;
                self.gen_distinct(cols)
            }
            RelOp::Having { input, pred, drop } => {
                let cols = self.gen_cols(input)?;
                self.gen_having(cols, pred, drop)
            }
            RelOp::Sort { input, keys } => {
                let cols = self.gen_cols(input)?;
                self.gen_sort(cols, keys)
            }
            RelOp::Limit { input, n } => {
                let cols = self.gen_cols(input)?;
                let out = cols
                    .into_iter()
                    .map(|(name, var)| {
                        let ty = self.b.var_type(var).clone();
                        let sliced = self.b.call(
                            "algebra",
                            "slice",
                            ty,
                            vec![
                                Arg::Var(var),
                                Arg::Lit(Value::Int(0)),
                                Arg::Lit(Value::Int(*n as i64)),
                            ],
                        );
                        (name, sliced)
                    })
                    .collect();
                Ok(Gen::Cols(out))
            }
        }
    }

    fn gen_rows(&mut self, rel: &RelOp) -> Result<Rows> {
        match self.gen(rel)? {
            Gen::Rows(r) => Ok(r),
            Gen::Cols(_) => Err(SqlError::Semantic(
                "row-level operator over projected columns (internal)".into(),
            )),
        }
    }

    fn gen_cols(&mut self, rel: &RelOp) -> Result<Vec<(String, VarId)>> {
        match self.gen(rel)? {
            Gen::Cols(c) => Ok(c),
            Gen::Rows(_) => Err(SqlError::Semantic(
                "expected projected columns (internal)".into(),
            )),
        }
    }

    /// Scalar aggregation without keys; grouped aggregation (one output
    /// row per group) with them.
    fn gen_aggregate(
        &mut self,
        rows: Rows,
        keys: &[Expr],
        aggs: &[AggSpec],
        output: &[String],
    ) -> Result<Gen> {
        let mut named: HashMap<String, VarId> = HashMap::new();
        let scope = Scope::Rows(&rows);

        let groups = if keys.is_empty() {
            None
        } else {
            let mut key_bats = Vec::new();
            for k in keys {
                let err = SqlError::Semantic("GROUP BY constant".into());
                key_bats.push(self.eval_bat(scope, k, err)?.0);
            }
            let (g, e) = self.group_by(&key_bats);
            // Key output columns: key value at each group's first row.
            for (k, kv) in keys.iter().zip(&key_bats) {
                if let Expr::Column { name, .. } = k {
                    let out = self.project(e, *kv);
                    named.insert(name.clone(), out);
                }
            }
            Some((g, e))
        };

        for a in aggs {
            let var = match (&a.arg, groups) {
                (None, None) if a.func == AggFunc::Count => {
                    let oids = rows.bindings[0].oids;
                    self.b
                        .call("aggr", "count", MalType::Int, vec![Arg::Var(oids)])
                }
                (None, Some((g, e))) if a.func == AggFunc::Count => self.b.call(
                    "aggr",
                    "subcount",
                    MalType::bat(MalType::Int),
                    vec![Arg::Var(g), Arg::Var(g), Arg::Var(e)],
                ),
                (None, _) => return Err(SqlError::Semantic("aggregate needs an argument".into())),
                (Some(arg), groups) => {
                    let err = SqlError::Unsupported("aggregating a constant".into());
                    let (v, ty) = self.eval_bat(scope, arg, err)?;
                    let (fname, rty) = agg_fn(a.func, &ty);
                    match groups {
                        None => self.b.call("aggr", fname, rty, vec![Arg::Var(v)]),
                        Some((g, e)) => self.b.call(
                            "aggr",
                            &format!("sub{fname}"),
                            MalType::bat(rty),
                            vec![Arg::Var(v), Arg::Var(g), Arg::Var(e)],
                        ),
                    }
                }
            };
            named.insert(a.alias.clone(), var);
        }

        let mut cols = Vec::with_capacity(output.len());
        for name in output {
            let var = named.get(name).ok_or_else(|| {
                SqlError::Semantic(format!("internal: missing output column `{name}`"))
            })?;
            cols.push((name.clone(), *var));
        }
        Ok(Gen::Cols(cols))
    }

    /// `SELECT DISTINCT`: group over all output columns and keep each
    /// group's first row (preserving first-occurrence order).
    fn gen_distinct(&mut self, cols: Vec<(String, VarId)>) -> Result<Gen> {
        if cols.is_empty() {
            return Ok(Gen::Cols(cols));
        }
        let vars: Vec<VarId> = cols.iter().map(|(_, v)| *v).collect();
        let (_, e) = self.group_by(&vars);
        let out = cols
            .into_iter()
            .map(|(name, var)| (name, self.project(e, var)))
            .collect();
        Ok(Gen::Cols(out))
    }

    /// `HAVING`: evaluate the predicate over output columns, keep the
    /// passing rows, then drop hidden helper columns.
    fn gen_having(
        &mut self,
        cols: Vec<(String, VarId)>,
        pred: &Pred,
        drop: &[String],
    ) -> Result<Gen> {
        let mask = self.eval_mask(Scope::Cols(&cols), pred)?;
        let sel = self.select_true(mask);
        let out = cols
            .into_iter()
            .filter(|(name, _)| !drop.contains(name))
            .map(|(name, var)| (name, self.project(sel, var)))
            .collect();
        Ok(Gen::Cols(out))
    }

    fn gen_sort(&mut self, mut cols: Vec<(String, VarId)>, keys: &[OrderKey]) -> Result<Gen> {
        // Stable sort by minor keys first, then major keys.
        for key in keys.iter().rev() {
            let keyvar = match &key.expr {
                Expr::Column { name, .. } => find_col(&cols, name)?,
                _ => {
                    return Err(SqlError::Unsupported(
                        "ORDER BY expressions (use an alias)".into(),
                    ))
                }
            };
            let sorted = self.b.new_var(self.b.var_type(keyvar).clone());
            let order = self.b.new_var(MalType::bat(MalType::Oid));
            self.b.push(
                "algebra",
                "sort",
                vec![sorted, order],
                vec![Arg::Var(keyvar), Arg::Lit(Value::Bit(key.desc))],
            );
            cols = cols
                .into_iter()
                .map(|(name, var)| {
                    if var == keyvar {
                        (name, sorted)
                    } else {
                        (name, self.project(order, var))
                    }
                })
                .collect();
        }
        Ok(Gen::Cols(cols))
    }
}

/// The output column called `name`.
fn find_col(cols: &[(String, VarId)], name: &str) -> Result<VarId> {
    cols.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| SqlError::Unknown {
            kind: "column",
            name: name.to_string(),
        })
}

fn ev_arg(e: &EV) -> Arg {
    match e {
        EV::Bat(v, _) => Arg::Var(*v),
        EV::Lit(v) => Arg::Lit(v.clone()),
    }
}

fn arith_type(l: &EV, r: &EV) -> MalType {
    let t = |e: &EV| match e {
        EV::Bat(_, t) => t.clone(),
        EV::Lit(v) => v.mal_type(),
    };
    if t(l) == MalType::Dbl || t(r) == MalType::Dbl {
        MalType::Dbl
    } else {
        MalType::Int
    }
}

fn fold_scalar(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    let err = || SqlError::Semantic("non-numeric constant arithmetic".into());
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return Ok(match op {
            ArithOp::Add => Value::Int(x + y),
            ArithOp::Sub => Value::Int(x - y),
            ArithOp::Mul => Value::Int(x * y),
            ArithOp::Div => {
                if *y == 0 {
                    return Err(SqlError::Semantic("division by zero".into()));
                }
                Value::Int(x / y)
            }
        });
    }
    let x = a.as_dbl().ok_or_else(err)?;
    let y = b.as_dbl().ok_or_else(err)?;
    Ok(match op {
        ArithOp::Add => Value::Dbl(x + y),
        ArithOp::Sub => Value::Dbl(x - y),
        ArithOp::Mul => Value::Dbl(x * y),
        ArithOp::Div => {
            if y == 0.0 {
                return Err(SqlError::Semantic("division by zero".into()));
            }
            Value::Dbl(x / y)
        }
    })
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Coerce a literal to a column's type where the engine would not
/// (string ↔ date, int → dbl).
fn coerce_lit(v: Value, col_ty: &MalType) -> Value {
    match (&v, col_ty) {
        (Value::Str(s), MalType::Date) => crate::ast::date_to_days(s).map(Value::Date).unwrap_or(v),
        (Value::Int(x), MalType::Dbl) => Value::Dbl(*x as f64),
        _ => v,
    }
}

/// An aggregate's `aggr` function and result type over one group; the
/// grouped form is `sub<name>` returning a BAT of the same tail type.
fn agg_fn(f: AggFunc, arg_ty: &MalType) -> (&'static str, MalType) {
    match f {
        AggFunc::Sum => ("sum", arg_ty.clone()),
        AggFunc::Count => ("count", MalType::Int),
        AggFunc::Avg => ("avg", MalType::Dbl),
        AggFunc::Min => ("min", arg_ty.clone()),
        AggFunc::Max => ("max", arg_ty.clone()),
    }
}
