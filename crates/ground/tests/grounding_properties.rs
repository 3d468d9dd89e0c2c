//! Property tests for the grounder: on random safe programs, the reduced
//! (intelligent) grounding must agree with the exact grounding under the
//! supported semantics, and under the minimal-model semantics for
//! positive programs; demand (goal-directed grounding) may only remove
//! rules. Driven by the in-repo deterministic PRNG (formerly proptest).

use ddb_ground::parse::parse_datalog;
use ddb_ground::{
    ground_full, ground_magic, ground_reduced, DatalogProgram, DatalogRule, PredAtom, Term,
};
use ddb_logic::rng::XorShift64Star;
use ddb_logic::Database;
use ddb_models::Cost;
use std::collections::BTreeSet;

const CONSTS: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 2] = ["X", "Y"];
const CASES: usize = 60;

fn c(i: usize) -> Term {
    Term::Const(CONSTS[i % CONSTS.len()].to_owned())
}

fn random_ground_fact(rng: &mut XorShift64Star) -> DatalogRule {
    // p/1 facts and r/2 facts.
    if rng.gen_bool(0.5) {
        DatalogRule {
            head: vec![PredAtom {
                pred: "p".into(),
                args: vec![c(rng.gen_range(0, 3))],
            }],
            body_pos: vec![],
            body_neg: vec![],
            disequalities: vec![],
        }
    } else {
        DatalogRule {
            head: vec![PredAtom {
                pred: "r".into(),
                args: vec![c(rng.gen_range(0, 3)), c(rng.gen_range(0, 3))],
            }],
            body_pos: vec![],
            body_neg: vec![],
            disequalities: vec![],
        }
    }
}

/// A safe rule: positive body fixes the variables; head and negative body
/// reuse them.
fn random_safe_rule(rng: &mut XorShift64Star, allow_neg: bool) -> DatalogRule {
    // Body: r(X,Y) or p(X); head: one or two atoms over bound vars;
    // optional negated atom over bound vars.
    let body_kind = rng.gen_range(0, 2);
    let (body_pos, bound): (Vec<PredAtom>, Vec<&str>) = if body_kind == 0 {
        (
            vec![PredAtom {
                pred: "r".into(),
                args: vec![Term::Var(VARS[0].into()), Term::Var(VARS[1].into())],
            }],
            vec![VARS[0], VARS[1]],
        )
    } else {
        (
            vec![PredAtom {
                pred: "p".into(),
                args: vec![Term::Var(VARS[0].into())],
            }],
            vec![VARS[0]],
        )
    };
    let mk_head = |k: usize| -> PredAtom {
        match k {
            0 => PredAtom {
                pred: "q".into(),
                args: vec![Term::Var(bound[0].into())],
            },
            1 => PredAtom {
                pred: "s".into(),
                args: vec![Term::Var(bound[bound.len() - 1].into())],
            },
            _ => PredAtom {
                pred: "t".into(),
                args: vec![],
            },
        }
    };
    let head: Vec<PredAtom> = (0..rng.gen_range_inclusive(1, 2))
        .map(|_| mk_head(rng.gen_range(0, 3)))
        .collect();
    let body_neg = if allow_neg && rng.gen_bool(0.5) {
        vec![PredAtom {
            pred: "q".into(),
            args: vec![Term::Var(bound[0].into())],
        }]
    } else {
        vec![]
    };
    DatalogRule {
        head,
        body_pos,
        body_neg,
        disequalities: vec![],
    }
}

fn random_program(rng: &mut XorShift64Star, allow_neg: bool) -> DatalogProgram {
    let facts: Vec<DatalogRule> = (0..rng.gen_range(1, 5))
        .map(|_| random_ground_fact(rng))
        .collect();
    let rules: Vec<DatalogRule> = (0..rng.gen_range(1, 4))
        .map(|_| random_safe_rule(rng, allow_neg))
        .collect();
    DatalogProgram {
        rules: facts.into_iter().chain(rules).collect(),
    }
}

fn named_models(db: &Database, models: Vec<ddb_logic::Interpretation>) -> BTreeSet<Vec<String>> {
    models
        .into_iter()
        .map(|m| {
            let mut names: Vec<String> =
                m.iter().map(|a| db.symbols().name(a).to_owned()).collect();
            names.sort();
            names
        })
        .collect()
}

#[test]
fn stable_models_agree_full_vs_reduced() {
    let mut rng = XorShift64Star::seed_from_u64(0x6001);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(&full, ddb_core::dsm::models(&full, &mut cost).unwrap()),
            named_models(
                &reduced,
                ddb_core::dsm::models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn minimal_models_agree_on_positive_programs() {
    let mut rng = XorShift64Star::seed_from_u64(0x6002);
    for case in 0..CASES {
        let prog = random_program(&mut rng, false);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(
                &full,
                ddb_models::minimal::minimal_models(&full, &mut cost).unwrap()
            ),
            named_models(
                &reduced,
                ddb_models::minimal::minimal_models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn possible_models_agree_on_positive_programs() {
    let mut rng = XorShift64Star::seed_from_u64(0x6003);
    for case in 0..CASES {
        let prog = random_program(&mut rng, false);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            named_models(&full, ddb_core::pws::models(&full, &mut cost).unwrap()),
            named_models(
                &reduced,
                ddb_core::pws::models(&reduced, &mut cost).unwrap()
            ),
            "case {case}"
        );
    }
}

#[test]
fn reduced_grounding_is_never_larger() {
    let mut rng = XorShift64Star::seed_from_u64(0x6004);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let full = ground_full(&prog, 100_000).unwrap();
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        assert!(reduced.len() <= full.len(), "case {case}");
        assert!(reduced.num_atoms() <= full.num_atoms(), "case {case}");
    }
}

#[test]
fn grounding_is_deterministic() {
    let mut rng = XorShift64Star::seed_from_u64(0x6005);
    for case in 0..CASES {
        let prog = random_program(&mut rng, true);
        let a = ground_reduced(&prog, 100_000).unwrap();
        let b = ground_reduced(&prog, 100_000).unwrap();
        assert_eq!(a.rules(), b.rules(), "case {case}");
    }
}

/// A ground rule as atom names, each part sorted.
type NamedRule = (Vec<String>, Vec<String>, Vec<String>);

fn named_rules(db: &Database) -> BTreeSet<NamedRule> {
    let names = |atoms: &[ddb_logic::Atom]| -> Vec<String> {
        let mut names: Vec<String> = atoms
            .iter()
            .map(|&a| db.symbols().name(a).to_owned())
            .collect();
        names.sort();
        names
    };
    db.rules()
        .iter()
        .map(|r| (names(r.head()), names(r.body_pos()), names(r.body_neg())))
        .collect()
}

#[test]
fn demand_only_removes_rules() {
    let mut rng = XorShift64Star::seed_from_u64(0x6006);
    let mut pairs = 0;
    for case in 0..CASES {
        let prog = random_program(&mut rng, case % 2 == 0);
        let reduced = ground_reduced(&prog, 100_000).unwrap();
        let whole = named_rules(&reduced);
        let heads: BTreeSet<&str> = reduced
            .rules()
            .iter()
            .flat_map(|r| r.head())
            .map(|&a| reduced.symbols().name(a))
            .collect();
        for head in heads {
            let query = parse_datalog(&format!("{head}.")).unwrap().rules[0].head[0].clone();
            let magic = ground_magic(&prog, &query, 100_000).unwrap();
            let extra: Vec<_> = named_rules(&magic).difference(&whole).cloned().collect();
            assert!(extra.is_empty(), "case {case}, query {head}: {extra:?}");
            pairs += 1;
        }
    }
    assert!(pairs > CASES, "only {pairs} (program, query) pairs");
}
