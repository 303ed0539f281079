//! Type checking against module signatures (MC010–MC014).
//!
//! Every call is first checked against the [`ModuleRegistry`] signature
//! (known function, argument count, result count), then — for operators
//! with a registered [`TypeRule`] — against a typed pattern. Patterns
//! carry type variables so tail types propagate through BAT operators:
//! `algebra.projection(bat[:oid], bat[:T]) -> bat[:T]` says the result's
//! tail type is whatever the projected column's tail type was.
//!
//! Operators without a rule (or with signatures too polymorphic to pin
//! down, like the 4-vs-6 argument forms of `algebra.select`) fall back
//! to the arity/result checks only: the verifier must never reject a
//! plan the engine would happily execute.

use crate::instr::Arg;
use crate::modules::ModuleRegistry;
use crate::plan::Plan;
use crate::types::MalType;

use super::{Code, Diagnostic};

/// One argument/result slot in a [`TypeRule`].
#[derive(Debug, Clone, PartialEq)]
pub enum TypePat {
    /// Matches anything; checks nothing.
    Any,
    /// Matches exactly this type.
    Exact(MalType),
    /// Matches any `bat[:T]`.
    AnyBat,
    /// Matches any non-BAT type.
    Scalar,
    /// Matches `bat[:T]`, binding (or checking) type slot `k` to `T`.
    /// On the result side, emits `bat[:slot(k)]`.
    BatOf(u8),
    /// Matches any type, binding (or checking) slot `k` to the full
    /// type. On the result side, emits `slot(k)`.
    Bind(u8),
    /// Matches an int or dbl scalar or BAT and promotes slot `k` the way
    /// `batcalc` arithmetic does: to dbl when this operand is dbl, to int
    /// when the slot is still unbound.
    Numeric(u8),
}

impl TypePat {
    /// Match `ty` against this pattern under `slots`; binds on first use.
    fn matches(&self, ty: &MalType, slots: &mut [Option<MalType>; 4]) -> bool {
        match self {
            TypePat::Any => true,
            TypePat::Exact(t) => t == ty,
            TypePat::AnyBat => ty.is_bat(),
            TypePat::Scalar => !ty.is_bat(),
            TypePat::BatOf(k) => match ty {
                MalType::Bat(tail) => bind(slots, *k, tail),
                _ => false,
            },
            TypePat::Bind(k) => bind(slots, *k, ty),
            TypePat::Numeric(k) => {
                let tail = ty.tail();
                if !matches!(tail, MalType::Int | MalType::Dbl) {
                    return false;
                }
                let slot = &mut slots[*k as usize];
                if slot.is_none() || *tail == MalType::Dbl {
                    *slot = Some(tail.clone());
                }
                true
            }
        }
    }

    /// Human-readable expectation, resolving bound slots where possible.
    fn describe(&self, slots: &[Option<MalType>; 4]) -> String {
        match self {
            TypePat::Any => "any type".into(),
            TypePat::Exact(t) => format!("{t}"),
            TypePat::AnyBat => "a BAT".into(),
            TypePat::Scalar => "a scalar".into(),
            TypePat::BatOf(k) => match &slots[*k as usize] {
                Some(t) => format!("bat[:{t}]"),
                None => "a BAT".into(),
            },
            TypePat::Bind(k) => match &slots[*k as usize] {
                Some(t) => format!("{t}"),
                None => "any type".into(),
            },
            TypePat::Numeric(_) => "an int or dbl scalar or BAT".into(),
        }
    }
}

fn bind(slots: &mut [Option<MalType>; 4], k: u8, ty: &MalType) -> bool {
    match &slots[k as usize] {
        Some(bound) => bound == ty,
        None => {
            slots[k as usize] = Some(ty.clone());
            true
        }
    }
}

/// A typed signature for one operator.
#[derive(Debug, Clone)]
pub struct TypeRule {
    /// Patterns for the leading arguments.
    pub args: Vec<TypePat>,
    /// Pattern for any arguments beyond `args` (variadic tail); `None`
    /// means extra arguments are left unchecked.
    pub rest: Option<TypePat>,
    /// Patterns for the results.
    pub results: Vec<TypePat>,
}

/// Look up the rule for `module.function`.
fn rule_for(module: &str, function: &str) -> Option<TypeRule> {
    use TypePat::{Any, AnyBat, BatOf, Bind, Numeric, Scalar};
    let exact = |t: MalType| TypePat::Exact(t);
    let bit = || exact(MalType::Bit);
    let int = || exact(MalType::Int);
    let dbl = || exact(MalType::Dbl);
    let s = || exact(MalType::Str);
    let bat_oid = || exact(MalType::bat(MalType::Oid));
    let bat_bit = || exact(MalType::bat(MalType::Bit));
    let bat_int = || exact(MalType::bat(MalType::Int));
    let bat_dbl = || exact(MalType::bat(MalType::Dbl));
    let r = |args: Vec<TypePat>, rest: Option<TypePat>, results: Vec<TypePat>| {
        Some(TypeRule {
            args,
            rest,
            results,
        })
    };
    match (module, function) {
        ("sql", "mvc") => r(vec![], None, vec![int()]),
        ("sql", "tid") => r(vec![int(), s(), s()], None, vec![bat_oid()]),
        ("sql", "bind") => r(vec![int(), s(), s(), s(), int()], None, vec![AnyBat]),
        ("sql", "resultSet") => r(vec![], Some(Any), vec![]),
        // algebra.select has a 5/6-arg candidate form and a 4-arg mask
        // form; only the result type is common to both.
        ("algebra", "select") => r(vec![AnyBat], Some(Any), vec![bat_oid()]),
        ("algebra", "thetaselect") => r(vec![AnyBat, AnyBat, Any, s()], None, vec![bat_oid()]),
        ("algebra", "likeselect") => r(vec![AnyBat, AnyBat, s(), bit()], None, vec![bat_oid()]),
        ("algebra", "projection") => r(vec![bat_oid(), BatOf(0)], None, vec![BatOf(0)]),
        ("algebra", "join") => r(vec![AnyBat, AnyBat], Some(Any), vec![bat_oid(), bat_oid()]),
        ("algebra", "leftjoin") => r(vec![AnyBat, AnyBat], None, vec![bat_oid()]),
        ("algebra", "sort") => r(vec![BatOf(0)], Some(Any), vec![BatOf(0), bat_oid()]),
        ("algebra", "firstn") => r(vec![AnyBat, Any, Any], None, vec![bat_oid()]),
        ("algebra", "slice") => r(vec![BatOf(0), Any, Any], None, vec![BatOf(0)]),
        ("algebra", "intersect" | "union") => r(vec![BatOf(0), BatOf(0)], None, vec![BatOf(0)]),
        ("algebra", "unique") => r(vec![BatOf(0)], None, vec![BatOf(0)]),
        ("batcalc", "==" | "!=" | "<" | "<=" | ">" | ">=" | "and" | "or") => {
            r(vec![Any, Any], Some(Any), vec![bat_bit()])
        }
        ("batcalc", "like") => r(vec![AnyBat, s()], None, vec![bat_bit()]),
        ("batcalc", "not" | "isnil") => r(vec![AnyBat], None, vec![bat_bit()]),
        ("batcalc", "dbl") => r(vec![AnyBat], None, vec![bat_dbl()]),
        // Int operands stay int; any dbl operand makes the tail dbl.
        ("batcalc", "+" | "-" | "*" | "/") => {
            r(vec![Numeric(0), Numeric(0)], Some(Any), vec![BatOf(0)])
        }
        ("calc", "+" | "-" | "*" | "/") => r(vec![Scalar, Scalar], None, vec![Scalar]),
        ("calc", "identity") => r(vec![Bind(0)], None, vec![Bind(0)]),
        ("aggr", "sum" | "min" | "max") => r(vec![BatOf(0)], Some(Any), vec![Bind(0)]),
        ("aggr", "count") => r(vec![AnyBat], Some(Any), vec![int()]),
        ("aggr", "avg") => r(vec![AnyBat], Some(Any), vec![dbl()]),
        // Grouped aggregates take (values, group ids, extents).
        ("aggr", "subsum" | "submin" | "submax") => {
            r(vec![BatOf(0), bat_oid(), bat_oid()], None, vec![BatOf(0)])
        }
        ("aggr", "subcount") => r(vec![AnyBat, bat_oid(), bat_oid()], None, vec![bat_int()]),
        ("aggr", "subavg") => r(vec![AnyBat, bat_oid(), bat_oid()], None, vec![bat_dbl()]),
        ("group", "group") => r(vec![AnyBat], None, vec![bat_oid(), bat_oid(), bat_int()]),
        ("group", "subgroup") => r(
            vec![AnyBat, bat_oid()],
            None,
            vec![bat_oid(), bat_oid(), bat_int()],
        ),
        ("bat", "new") => r(vec![], Some(Any), vec![AnyBat]),
        ("bat", "append") => r(vec![AnyBat, Any], None, vec![AnyBat]),
        ("bat", "mirror") => r(vec![AnyBat], None, vec![bat_oid()]),
        ("mat", "pack") => r(vec![BatOf(0)], Some(BatOf(0)), vec![BatOf(0)]),
        ("io", "print") => r(vec![], Some(Any), vec![]),
        ("language", "pass") => r(vec![], Some(Any), vec![]),
        ("language", "dataflow") => r(vec![], None, vec![]),
        ("querylog", "define") => r(vec![Any], Some(Any), vec![]),
        ("alarm", "sleep") => r(vec![Any], None, vec![]),
        _ => None,
    }
}

/// The type of one argument as the plan declares it.
fn arg_type(plan: &Plan, arg: &Arg) -> MalType {
    match arg {
        Arg::Var(v) => plan.var(*v).ty.clone(),
        Arg::Lit(l) => l.mal_type(),
    }
}

/// Run the typing checks, appending findings to `out`.
pub fn check(plan: &Plan, registry: &ModuleRegistry, out: &mut Vec<Diagnostic>) {
    for ins in &plan.instructions {
        let name = ins.qualified_name();
        let sig = match registry.get(&ins.module, &ins.function) {
            Some(sig) => sig,
            None => {
                out.push(
                    Diagnostic::new(Code::UnknownFunction, format!("unknown function `{name}`"))
                        .at_pc(ins.pc)
                        .with_hint("register the operator in ModuleRegistry::standard()"),
                );
                continue;
            }
        };

        // MC011: arity against the registry signature.
        let n = ins.args.len();
        if n < sig.min_args || n > sig.max_args {
            let range = if sig.max_args == usize::MAX {
                format!("at least {}", sig.min_args)
            } else if sig.min_args == sig.max_args {
                format!("{}", sig.min_args)
            } else {
                format!("{}..={}", sig.min_args, sig.max_args)
            };
            out.push(
                Diagnostic::new(
                    Code::BadArity,
                    format!("`{name}` takes {range} argument(s), but {n} were passed"),
                )
                .at_pc(ins.pc),
            );
            continue;
        }

        // MC012: result count.
        if ins.results.len() != sig.results {
            out.push(
                Diagnostic::new(
                    Code::BadResultCount,
                    format!(
                        "`{name}` produces {} result(s), but {} were bound",
                        sig.results,
                        ins.results.len()
                    ),
                )
                .at_pc(ins.pc),
            );
            continue;
        }

        // MC013/MC014: typed pattern, when we have one.
        let rule = match rule_for(&ins.module, &ins.function) {
            Some(rule) => rule,
            None => continue,
        };
        let mut slots: [Option<MalType>; 4] = [None, None, None, None];
        let mut broke = false;
        for (i, arg) in ins.args.iter().enumerate() {
            let pat = match rule.args.get(i).or(rule.rest.as_ref()) {
                Some(p) => p,
                None => break,
            };
            let ty = arg_type(plan, arg);
            if !pat.matches(&ty, &mut slots) {
                out.push(
                    Diagnostic::new(
                        Code::ArgTypeMismatch,
                        format!(
                            "`{name}` argument {i} has type {ty}, expected {}",
                            pat.describe(&slots)
                        ),
                    )
                    .at_pc(ins.pc)
                    .with_hint(format!(
                        "argument {i} of `{name}` does not fit its signature"
                    )),
                );
                broke = true;
            }
        }
        if broke {
            // Slot bindings are unreliable after a mismatch; don't pile
            // on result-type findings derived from them.
            continue;
        }
        for (i, (r, pat)) in ins.results.iter().zip(rule.results.iter()).enumerate() {
            let ty = plan.var(*r).ty.clone();
            if !pat.matches(&ty, &mut slots) {
                out.push(
                    Diagnostic::new(
                        Code::ResultTypeMismatch,
                        format!(
                            "`{name}` result {i} is declared {ty}, expected {}",
                            pat.describe(&slots)
                        ),
                    )
                    .at_pc(ins.pc)
                    .on_var(*r)
                    .with_hint("the declared result type disagrees with the operator's signature"),
                );
            }
        }
    }
}
