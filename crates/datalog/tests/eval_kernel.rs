//! The join kernel and the output edge of `eval_query_opts`, pinned two
//! ways:
//!
//! * a golden [`EvalMetrics`] record for `Q_TC` on one fixed seeded
//!   graph — every counter of every stratum, exactly, so a kernel
//!   rewrite that changes how much work the fixpoint does fails here;
//! * differential tests of `eval_query_opts` against the unindexed,
//!   unreordered baseline engine restricted to the output schema, on
//!   random stratified programs, on an output relation whose name the
//!   input also uses at another arity, and on a rule wider than any
//!   small fixed-size buffer.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::storage::SharedSymbols;
use calm_common::value::Value;
use calm_datalog::ast::{Atom, Rule, Term};
use calm_datalog::eval::{
    eval_query_opts, eval_stratification, eval_stratification_opts, Engine, EvalMetrics,
};
use calm_datalog::program::Program;
use calm_datalog::{parse_program, stratify};
use calm_obs::Obs;

mod common;
use common::{rand_stratified_rules, small_instance};

const QTC: &str = "@output O.\n\
    Adom(x) :- E(x,y).\n\
    Adom(y) :- E(x,y).\n\
    T(x,y) :- E(x,y).\n\
    T(x,z) :- T(x,y), E(y,z).\n\
    O(x,y) :- Adom(x), Adom(y), not T(x,y).";

/// A seeded random digraph over `0..v` with `e` distinct edges and no
/// self-loops (`e > v` gives it a giant strongly connected component).
fn digraph(seed: u64, v: i64, e: usize) -> Instance {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Instance::new();
    while out.len() < e {
        let (a, b) = (rng.gen_range(0..v), rng.gen_range(0..v));
        if a != b {
            out.insert(fact("E", [a, b]));
        }
    }
    out
}

/// The oracle: the baseline engine's full database, restricted to the
/// program's output schema.
fn oracle(p: &Program, input: &Instance) -> Instance {
    let strat = stratify(p).expect("stratifiable");
    eval_stratification(&strat, input, Engine::SemiNaiveBaseline)
        .0
        .restrict(&p.output_schema())
}

fn assert_matches_oracle(p: &Program, input: &Instance, what: &str) {
    let expect = oracle(p, input);
    for threads in [1, 4] {
        let got = eval_query_opts(p, input, &Obs::noop(), threads).expect("stratifiable");
        assert_eq!(got, expect, "{what}, eval_threads {threads}\n{p}");
    }
}

#[test]
fn qtc_metrics_are_pinned_on_a_seeded_graph() {
    let p = parse_program(QTC).unwrap();
    let strat = stratify(&p).unwrap();
    let input = digraph(7, 40, 60);
    let (_, stats) = eval_stratification(&strat, &input, Engine::SemiNaive);
    let golden = vec![
        EvalMetrics {
            iterations: 11,
            derivations: 1537,
            new_facts: 861,
            index_probes: 0,
            index_hits: 0,
            merge_probes: 821,
            merge_hits: 1357,
            bytes_moved: 6728,
        },
        EvalMetrics {
            iterations: 2,
            derivations: 779,
            new_facts: 779,
            index_probes: 0,
            index_hits: 0,
            merge_probes: 0,
            merge_hits: 0,
            bytes_moved: 6232,
        },
    ];
    assert_eq!(stats, golden);
    // The data-parallel driver sums the same event multiset.
    let (_, par) = eval_stratification_opts(
        &strat,
        &input,
        Engine::SemiNaive,
        SharedSymbols::new(),
        &Obs::noop(),
        4,
    );
    assert_eq!(par, golden);
}

#[test]
fn hash_probe_metrics_are_pinned_on_a_seeded_graph() {
    // `E(z,y)` is probed at its second column: the hash-index path,
    // which `Q_TC` never takes.
    let p = parse_program(
        "@output C.\n\
         C(x,z) :- E(x,y), E(z,y), x != z, not E(x,z).",
    )
    .unwrap();
    let strat = stratify(&p).unwrap();
    let (_, stats) = eval_stratification(&strat, &digraph(7, 40, 60), Engine::SemiNaive);
    assert_eq!(
        stats,
        vec![EvalMetrics {
            iterations: 2,
            derivations: 66,
            new_facts: 64,
            index_probes: 60,
            index_hits: 128,
            merge_probes: 0,
            merge_hits: 0,
            bytes_moved: 512,
        }]
    );
}

#[test]
fn eval_query_matches_the_baseline_on_random_stratified_programs() {
    let mut checked = 0;
    for seed in 0..64 {
        let mut r = Rng::seed_from_u64(seed ^ 0xe7a1);
        let Ok(p) = Program::new(rand_stratified_rules(&mut r)) else {
            continue;
        };
        let input = small_instance(&mut r);
        assert_matches_oracle(&p, &input, &format!("seed {seed}"));
        checked += 1;
    }
    assert!(
        checked > 32,
        "too few random programs were valid: {checked}"
    );
}

#[test]
fn qtc_matches_the_baseline_on_seeded_graphs() {
    let p = parse_program(QTC).unwrap();
    for seed in [7, 11, 23] {
        assert_matches_oracle(&p, &digraph(seed, 30, 45), &format!("graph seed {seed}"));
    }
}

#[test]
fn output_name_shared_with_an_input_relation_of_another_arity() {
    // `O` is derived at arity 1, while the input also holds binary `O`
    // facts: one interned relation holds rows of both arities, and only
    // the arity-1 rows belong to the answer.
    let p = parse_program(
        "@output O.\n\
         O(x) :- V(x), not E(x,x).",
    )
    .unwrap();
    let input = Instance::from_facts([
        fact("V", [1]),
        fact("V", [2]),
        fact("E", [2, 2]),
        fact("O", [1, 1]),
        fact("O", [3, 4]),
    ]);
    assert_matches_oracle(&p, &input, "shared name");
    let got = eval_query_opts(&p, &input, &Obs::noop(), 1).unwrap();
    assert_eq!(got, Instance::from_facts([fact("O", [1])]));
}

#[test]
fn wide_rules_have_no_fixed_arity_or_variable_cap() {
    // Eight chained body atoms of arity 10 share one variable with
    // their neighbour: 73 variables in all. The head and the negated
    // atom have 12 columns each.
    const ATOMS: usize = 8;
    const ARITY: usize = 10;
    let var = |i: usize| Term::var(format!("x{i}"));
    let pos: Vec<Atom> = (0..ATOMS)
        .map(|a| {
            let first = a * (ARITY - 1);
            Atom::new(format!("A{a}"), (first..first + ARITY).map(var).collect())
        })
        .collect();
    let nvars = ATOMS * (ARITY - 1) + 1;
    assert!(nvars > 64);
    let wide: Vec<Term> = (0..12).map(|i| var(i * 6)).collect();
    let p = Program::new(vec![Rule {
        head: Atom::new("H", wide.clone()),
        pos,
        neg: vec![Atom::new("N", wide)],
        ineq: vec![],
    }])
    .unwrap();
    // Two facts per atom, chained through the shared columns; the
    // joins produce 2^8 valuations, and `N` kills some heads.
    let mut input = Instance::new();
    for a in 0..ATOMS {
        for copy in 0..2i64 {
            let first = a * (ARITY - 1);
            let row: Vec<Value> = (first..first + ARITY)
                .map(|i| {
                    let shared = i == first || i == first + ARITY - 1;
                    Value::Int(if shared {
                        i as i64
                    } else {
                        i as i64 * 10 + copy
                    })
                })
                .collect();
            input.insert(calm_common::fact::Fact::new(format!("A{a}"), row));
        }
    }
    let killed: Vec<Value> = (0..12)
        .map(|i| {
            let i = i * 6;
            let shared = i % (ARITY - 1) == 0;
            Value::Int(if shared { i as i64 } else { i as i64 * 10 })
        })
        .collect();
    input.insert(calm_common::fact::Fact::new("N", killed));
    let got = eval_query_opts(&p, &input, &Obs::noop(), 1).unwrap();
    assert!(
        got.relation_len("H") > 1,
        "the wide rule derived too little"
    );
    assert_matches_oracle(&p, &input, "wide rule");
}
