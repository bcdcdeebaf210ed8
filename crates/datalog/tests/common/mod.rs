//! Seeded generators shared by the differential suites: random
//! stratified programs over edb {E(2), V(1)} and small random inputs
//! over a four-value domain.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_datalog::ast::{Atom, Rule, Term};

/// Random positive rule over edb {E(2), V(1)} with idb T(2), S(1) —
/// the same generator family as `proptest_engine.rs`.
pub fn rand_rule(r: &mut Rng) -> Rule {
    const VARS: [&str; 4] = ["x", "y", "z", "w"];
    let mut body = Vec::new();
    for _ in 0..r.gen_range(1..4usize) {
        if r.gen_bool(0.5) {
            let rel = *r.choose(&["E", "T"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            let b = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a), Term::var(b)]));
        } else {
            let rel = *r.choose(&["V", "S"]).unwrap();
            let a = *r.choose(&VARS).unwrap();
            body.push(Atom::new(rel, vec![Term::var(a)]));
        }
    }
    let mut body_vars: Vec<_> = body.iter().flat_map(|a| a.variables().cloned()).collect();
    body_vars.sort();
    body_vars.dedup();
    let head_rel = *r.choose(&["T", "S"]).unwrap();
    let arity = if head_rel == "T" { 2 } else { 1 };
    let head_terms: Vec<Term> = (0..arity)
        .map(|i| Term::Var(body_vars[i % body_vars.len()].clone()))
        .collect();
    Rule {
        head: Atom::new(head_rel, head_terms),
        pos: body,
        neg: vec![],
        ineq: vec![],
    }
}

/// Random stratified program: a positive layer plus 1..3 rules
/// `O(v) :- guard, not Idb(..)` over it.
pub fn rand_stratified_rules(r: &mut Rng) -> Vec<Rule> {
    let mut rules: Vec<Rule> = (0..r.gen_range(1..4usize)).map(|_| rand_rule(r)).collect();
    for _ in 0..r.gen_range(1..3usize) {
        let guard = if r.gen_bool(0.5) {
            Atom::new(
                *r.choose(&["E", "T"]).unwrap(),
                vec![Term::var("x"), Term::var("y")],
            )
        } else {
            Atom::new(*r.choose(&["V", "S"]).unwrap(), vec![Term::var("x")])
        };
        let guard_vars: Vec<_> = guard.variables().cloned().collect();
        let neg_rel = *r.choose(&["T", "S"]).unwrap();
        let neg_arity = if neg_rel == "T" { 2 } else { 1 };
        let neg_terms: Vec<Term> = (0..neg_arity)
            .map(|i| Term::Var(guard_vars[i % guard_vars.len()].clone()))
            .collect();
        rules.push(Rule {
            head: Atom::new("O", vec![Term::Var(guard_vars[0].clone())]),
            pos: vec![guard],
            neg: vec![Atom::new(neg_rel, neg_terms)],
            ineq: vec![],
        });
    }
    rules
}

pub fn small_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..8usize) {
        i.insert(fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)]));
    }
    for _ in 0..r.gen_range(0..4usize) {
        i.insert(fact("V", [r.gen_range(0..4i64)]));
    }
    i
}
