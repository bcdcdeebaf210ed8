//! The differential suite for incremental maintenance: on random
//! stratified programs and random signed batch sequences, folding the
//! batches into a maintained evaluation must land on exactly the
//! database a from-scratch evaluation of the final EDB produces —
//! after every batch, at eval-threads 1 and 4 — and the same holds for
//! random win–move games under the well-founded semantics.
//!
//! Deterministic seeded loops over the in-repo
//! [`calm_common::rng::Rng`]: every case is reproducible from the seed
//! printed in the assert message.

use calm_common::fact::fact;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::rng::Rng;
use calm_common::update::UpdateBatch;
use calm_datalog::ast::Rule;
use calm_datalog::program::Program;
use calm_datalog::{DatalogQuery, WellFoundedQuery};

mod common;
use common::{rand_rule, rand_stratified_rules, small_instance};

const CASES: u64 = 48;

/// A random signed batch over the same domain: deletions are biased
/// toward facts actually present (so retraction paths really fire),
/// insertions are fresh-or-duplicate uniformly.
fn rand_batch(r: &mut Rng, current: &Instance) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    let present: Vec<_> = current.facts().collect();
    for _ in 0..r.gen_range(0..3usize) {
        if !present.is_empty() && r.gen_bool(0.7) {
            b.delete
                .push(present[r.gen_range(0..present.len())].clone());
        } else if r.gen_bool(0.5) {
            b.delete
                .push(fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)]));
        } else {
            b.delete.push(fact("V", [r.gen_range(0..4i64)]));
        }
    }
    for _ in 0..r.gen_range(0..3usize) {
        if r.gen_bool(0.6) {
            b.insert
                .push(fact("E", [r.gen_range(0..4i64), r.gen_range(0..4i64)]));
        } else {
            b.insert.push(fact("V", [r.gen_range(0..4i64)]));
        }
    }
    b
}

/// The core differential oracle: random stratified programs × random
/// insert/delete batch sequences. After every batch the maintained
/// session must match a from-scratch evaluation of the updated EDB —
/// at eval-threads 1 and 4 (the from-scratch fixpoint is byte-identical
/// at any thread count, so agreement at both pins the maintained state
/// against the whole family).
#[test]
fn incremental_matches_from_scratch_on_random_programs() {
    let mut retractions = 0usize;
    let mut rederivations = 0usize;
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let rules = rand_stratified_rules(&mut r);
        let Ok(p) = Program::new(rules) else {
            continue;
        };
        let mut edb = small_instance(&mut r);
        for threads in [1usize, 4] {
            let q = DatalogQuery::new(format!("case{seed}"), p.clone())
                .unwrap()
                .with_eval_threads(threads);
            let mut session = q.open(&edb);
            let mut local_edb = edb.clone();
            for k in 0..r.gen_range(1..5usize) {
                let batch = rand_batch(&mut r, &local_edb);
                let stats = session.apply(&batch);
                retractions += stats.retractions;
                rederivations += stats.rederivations;
                batch.apply_to_instance(&mut local_edb);
                assert_eq!(
                    session.output(),
                    q.eval(&local_edb),
                    "seed {seed} threads {threads} batch {k}: diverged\n{p}\nEDB: {local_edb:?}"
                );
                assert!(
                    !session.database().storage().any_dead(),
                    "seed {seed} threads {threads} batch {k}: tombstones leaked"
                );
            }
        }
        // Keep the RNG stream per-seed deterministic regardless of the
        // thread loop by re-deriving edb mutations only inside it.
        let _ = &mut edb;
    }
    assert!(
        retractions > 0,
        "no random case exercised the retraction path"
    );
    assert!(
        rederivations > 0,
        "no random case exercised the rederive path"
    );
}

/// Well-founded differential: random win–move games × random move
/// insert/delete batches. The maintained session (cached doubled
/// compilation, interned EDB) must reproduce the from-scratch
/// three-valued model after every batch.
#[test]
fn wellfounded_session_matches_from_scratch_on_random_games() {
    let q = WellFoundedQuery::parse("win-move", "win(x) :- move(x,y), not win(y).").unwrap();
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed ^ 0x5eed);
        let mut edb = Instance::from_facts(
            (0..r.gen_range(0..10usize))
                .map(|_| fact("move", [r.gen_range(0..5i64), r.gen_range(0..5i64)])),
        );
        let mut session = q.open(&edb);
        for k in 0..r.gen_range(1..4usize) {
            let mut batch = UpdateBatch::new();
            let present: Vec<_> = edb.facts().collect();
            for _ in 0..r.gen_range(0..3usize) {
                if !present.is_empty() && r.gen_bool(0.7) {
                    batch
                        .delete
                        .push(present[r.gen_range(0..present.len())].clone());
                } else {
                    batch
                        .delete
                        .push(fact("move", [r.gen_range(0..5i64), r.gen_range(0..5i64)]));
                }
            }
            for _ in 0..r.gen_range(0..3usize) {
                batch
                    .insert
                    .push(fact("move", [r.gen_range(0..5i64), r.gen_range(0..5i64)]));
            }
            session.apply(&batch);
            batch.apply_to_instance(&mut edb);
            let expect = q.model(&edb);
            assert_eq!(
                session.model().true_facts,
                expect.true_facts,
                "seed {seed} batch {k}: true facts diverged"
            );
            assert_eq!(
                session.model().possible_facts,
                expect.possible_facts,
                "seed {seed} batch {k}: possible facts diverged"
            );
        }
    }
}

/// Insert-only batch sequences on *positive* programs must behave
/// exactly like the historical grow-only path: no retractions, no EDB
/// deletions, and the maintained database equals from-scratch (the
/// byte-identity guard for v1 workloads). Restricted to positive
/// programs deliberately — under stratified negation even a pure
/// insert can retract higher-stratum facts through a `not` atom.
#[test]
fn insert_only_sequences_never_tombstone() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed ^ 0xadd);
        let rules: Vec<Rule> = (0..r.gen_range(1..4usize))
            .map(|_| rand_rule(&mut r))
            .collect();
        let Ok(p) = Program::new(rules) else {
            continue;
        };
        let q = DatalogQuery::new(format!("grow{seed}"), p.clone()).unwrap();
        let mut edb = small_instance(&mut r);
        let mut session = q.open(&edb);
        for k in 0..3 {
            let batch = UpdateBatch::inserting(small_instance(&mut r).facts());
            let stats = session.apply(&batch);
            assert_eq!(stats.retractions, 0, "seed {seed} batch {k}");
            assert_eq!(stats.edb_deleted, 0, "seed {seed} batch {k}");
            batch.apply_to_instance(&mut edb);
            assert_eq!(
                session.output(),
                q.eval(&edb),
                "seed {seed} batch {k}: diverged\n{p}"
            );
        }
    }
}
