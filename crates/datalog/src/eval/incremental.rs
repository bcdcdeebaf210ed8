//! Incremental view maintenance with retractions: DRed
//! (delete–rederive) over compiled stratified programs.
//!
//! [`apply_update_compiled`] takes a materialized [`Database`] (the
//! fixpoint of some stratified program over its old EDB), a signed
//! [`UpdateBatch`], and the per-stratum [`CompiledProgram`]s, and
//! maintains the database *in place* — no from-scratch fixpoint. The
//! contract is differential: after any interleaving of batches, the
//! database holds exactly the facts a from-scratch evaluation of the
//! final EDB would produce.
//!
//! # Why DRed and not pure counting
//!
//! The substrate keeps a per-row support count
//! ([`calm_common::storage::Relation::support`]), but our semi-naive
//! engine is *set-semantic*: delta rounds place the delta at one body
//! position at a time while the other positions range over the full
//! store, so a derivation touching two delta tuples is enumerated
//! twice, and re-derivations of already-present facts are filtered by
//! the membership guard before they could be counted. Exact derivation
//! multiplicities are therefore not recoverable from the fixpoint, and
//! counting-only maintenance would either under- or over-delete. The
//! counts act as liveness markers (tombstones), and deletion runs the
//! classic three-phase DRed instead — which is also the only sound
//! choice once stratified negation is involved:
//!
//! 1. **Overdelete**: every derivation over the *old* view that
//!    touched a removed tuple (positive atom) or a newly added tuple
//!    (negative atom) has its head tombstoned, transitively within the
//!    stratum (in-stratum recursion is purely positive — stratified
//!    negation only looks down).
//! 2. **Rederive**: each overdeleted tuple is kept deleted only if no
//!    rule re-derives it from the surviving facts (head-bound backward
//!    check, iterated to fixpoint so revived tuples can support each
//!    other).
//! 3. **Insert**: new derivations from added tuples (positive atoms)
//!    and removed tuples (negative atoms) are propagated semi-naively
//!    with explicit deltas.
//!
//! Strata are processed in order; each stratum's net changes join the
//! signed change sets consumed by the strata above it. The *old* view
//! of a relation is reconstructed from the current store plus the
//! change sets — `old(r) = (live(r) ∖ added[r]) ∪ removed[r]` — so
//! sealed sorted batches stay immutable and nothing is snapshotted.
//!
//! Maintenance is sequential; the from-scratch fixpoint is
//! byte-identical at any `eval_threads`, so the differential oracle
//! holds at any thread count.

use super::compile::CompiledRule;
use super::database::Database;
use super::seminaive::{undo, unify, Binding, CompiledProgram};
use calm_common::storage::{RelId, Storage, Sym, SymTuple};
use calm_common::update::UpdateBatch;
use calm_obs::Obs;
use std::collections::{HashMap, HashSet};

/// Per-relation signed change sets, carried across strata: the net
/// additions (or removals) relative to the pre-update database.
type ChangeSet = HashMap<RelId, HashSet<SymTuple>>;

/// Counters for one update-batch application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// EDB facts actually inserted (absent before).
    pub edb_inserted: usize,
    /// EDB facts actually deleted (present before).
    pub edb_deleted: usize,
    /// Derived tuples overdeleted (tombstoned) by retraction
    /// propagation, *including* those later rederived.
    pub retractions: usize,
    /// Overdeleted tuples with a surviving alternative derivation,
    /// resurrected by the rederive pass.
    pub rederivations: usize,
    /// Derived tuples newly inserted by insertion propagation.
    pub insertions: usize,
    /// Body valuations enumerated across all phases (work measure).
    pub derivations: usize,
}

impl UpdateStats {
    /// Accumulate another application's counters.
    pub fn merge(&mut self, other: &UpdateStats) {
        self.edb_inserted += other.edb_inserted;
        self.edb_deleted += other.edb_deleted;
        self.retractions += other.retractions;
        self.rederivations += other.rederivations;
        self.insertions += other.insertions;
        self.derivations += other.derivations;
    }
}

/// A readable snapshot of the database the join loop evaluates over.
enum View<'a> {
    /// The current (post-change) contents: live rows only.
    New(&'a Storage),
    /// The pre-update contents, reconstructed from the current store
    /// and the signed change sets: `old(r) = (live(r) ∖ added[r]) ∪
    /// removed[r]`.
    Old {
        storage: &'a Storage,
        added: &'a ChangeSet,
        removed: &'a ChangeSet,
    },
}

impl View<'_> {
    fn contains(&self, r: RelId, t: &[Sym]) -> bool {
        match self {
            View::New(storage) => storage.contains(r, t),
            View::Old {
                storage,
                added,
                removed,
            } => {
                if removed.get(&r).is_some_and(|s| s.contains(t)) {
                    return true;
                }
                if added.get(&r).is_some_and(|s| s.contains(t)) {
                    return false;
                }
                storage.contains(r, t)
            }
        }
    }

    /// Visit every row of `r` in this view; `f` returns `false` to stop
    /// early. Returns `false` when stopped.
    fn for_each_row(&self, r: RelId, f: &mut dyn FnMut(&[Sym]) -> bool) -> bool {
        match self {
            View::New(storage) => {
                if let Some(rel) = storage.relation(r) {
                    for row in rel.live_rows() {
                        if !f(row) {
                            return false;
                        }
                    }
                }
                true
            }
            View::Old {
                storage,
                added,
                removed,
            } => {
                let add = added.get(&r);
                if let Some(rel) = storage.relation(r) {
                    for row in rel.live_rows() {
                        if add.is_some_and(|s| s.contains(row)) {
                            continue;
                        }
                        if !f(row) {
                            return false;
                        }
                    }
                }
                if let Some(rm) = removed.get(&r) {
                    for row in rm {
                        if !f(row) {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }
}

/// Enumerate body valuations of `rule` over `view`, positive atom
/// `delta_at` (if any) drawing its candidate rows from `delta_rows`
/// instead of the view. Negative atoms and inequalities are checked at
/// the body end against `view`. `sink` receives each full binding and
/// returns `false` to stop the enumeration; `join` returns `false`
/// when stopped.
#[allow(clippy::too_many_arguments)]
fn join(
    rule: &CompiledRule,
    idx: usize,
    view: &View<'_>,
    delta_at: Option<usize>,
    delta_rows: &[SymTuple],
    binding: &mut Binding,
    stats: &mut UpdateStats,
    sink: &mut dyn FnMut(&Binding, &mut UpdateStats) -> bool,
) -> bool {
    if idx == rule.pos.len() {
        for (l, r) in &rule.ineq {
            if binding.sym(l) == binding.sym(r) {
                return true;
            }
        }
        for atom in &rule.neg {
            if view.contains(atom.relation, binding.row(&atom.slots)) {
                return true;
            }
        }
        stats.derivations += 1;
        return sink(binding, stats);
    }
    let atom = &rule.pos[idx];
    if delta_at == Some(idx) {
        for row in delta_rows {
            if row.len() != atom.slots.len() {
                continue;
            }
            if let Some(mark) = unify(atom, row, binding) {
                let keep = join(
                    rule,
                    idx + 1,
                    view,
                    delta_at,
                    delta_rows,
                    binding,
                    stats,
                    sink,
                );
                undo(binding, mark);
                if !keep {
                    return false;
                }
            }
        }
        return true;
    }
    let mut keep = true;
    view.for_each_row(atom.relation, &mut |row| {
        if row.len() != atom.slots.len() {
            return true;
        }
        if let Some(mark) = unify(atom, row, binding) {
            keep = join(
                rule,
                idx + 1,
                view,
                delta_at,
                delta_rows,
                binding,
                stats,
                sink,
            );
            undo(binding, mark);
        }
        keep
    });
    keep
}

/// Whether `t` (a tuple of relation `rel`) has at least one derivation
/// over `view` through the stratum's rules — the head-bound backward
/// check of the rederive pass (early exit on the first derivation).
fn derivable(
    rules: &[CompiledRule],
    rel: RelId,
    t: &[Sym],
    view: &View<'_>,
    stats: &mut UpdateStats,
) -> bool {
    for rule in rules {
        if rule.head.relation != rel || rule.head.slots.len() != t.len() {
            continue;
        }
        let mut binding = Binding::new(rule.nvars);
        if unify(&rule.head, t, &mut binding).is_none() {
            continue;
        }
        let mut found = false;
        join(
            rule,
            0,
            view,
            None,
            &[],
            &mut binding,
            stats,
            &mut |_, _| {
                found = true;
                false
            },
        );
        if found {
            return true;
        }
    }
    false
}

/// Record a net insertion of `t` into the change sets: a revival of a
/// tuple removed earlier in this update cancels the removal, anything
/// else is a net addition.
fn record_insert(added: &mut ChangeSet, removed: &mut ChangeSet, r: RelId, t: &SymTuple) {
    if removed.get_mut(&r).is_some_and(|s| s.remove(t)) {
        return;
    }
    added.entry(r).or_default().insert(t.clone());
}

/// Record a net removal of `t`: retracting a tuple added earlier in
/// this update cancels the addition, anything else is a net removal.
fn record_retract(added: &mut ChangeSet, removed: &mut ChangeSet, r: RelId, t: &SymTuple) {
    if added.get_mut(&r).is_some_and(|s| s.remove(t)) {
        return;
    }
    removed.entry(r).or_default().insert(t.clone());
}

/// Maintain one stratum given the net changes below it (EDB and lower
/// strata), extending `added`/`removed` with the stratum's own net
/// changes.
fn maintain_stratum(
    cp: &CompiledProgram,
    db: &mut Database,
    added: &mut ChangeSet,
    removed: &mut ChangeSet,
    stats: &mut UpdateStats,
) {
    let rules = cp.rules();

    // --- Phase 1: overdelete over the old view. ---
    // Seeds: old-view derivations touching a removed tuple at a
    // positive atom, or a newly added tuple at a negative atom. Then
    // propagate within the stratum (in-stratum recursion is purely
    // positive) until no new head is tombstone-scheduled.
    let mut dset: HashSet<(RelId, SymTuple)> = HashSet::new();
    let mut frontier: Vec<(RelId, SymTuple)> = Vec::new();
    {
        let storage = db.storage();
        let view = View::Old {
            storage,
            added: &*added,
            removed: &*removed,
        };
        let schedule = |rel: RelId,
                        head: SymTuple,
                        dset: &mut HashSet<(RelId, SymTuple)>,
                        frontier: &mut Vec<(RelId, SymTuple)>| {
            if storage.contains(rel, &head) {
                let key = (rel, head);
                if !dset.contains(&key) {
                    dset.insert(key.clone());
                    frontier.push(key);
                }
            }
        };
        for rule in rules {
            for (i, atom) in rule.pos.iter().enumerate() {
                let Some(rm) = removed.get(&atom.relation) else {
                    continue;
                };
                if rm.is_empty() {
                    continue;
                }
                let delta: Vec<SymTuple> = rm.iter().cloned().collect();
                let mut binding = Binding::new(rule.nvars);
                join(
                    rule,
                    0,
                    &view,
                    Some(i),
                    &delta,
                    &mut binding,
                    stats,
                    &mut |b, _| {
                        let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                        schedule(rule.head.relation, head, &mut dset, &mut frontier);
                        true
                    },
                );
            }
            for natom in &rule.neg {
                let Some(ad) = added.get(&natom.relation) else {
                    continue;
                };
                for t in ad {
                    if t.len() != natom.slots.len() {
                        continue;
                    }
                    let mut binding = Binding::new(rule.nvars);
                    if unify(natom, t, &mut binding).is_none() {
                        continue;
                    }
                    join(
                        rule,
                        0,
                        &view,
                        None,
                        &[],
                        &mut binding,
                        stats,
                        &mut |b, _| {
                            let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                            schedule(rule.head.relation, head, &mut dset, &mut frontier);
                            true
                        },
                    );
                }
            }
        }
        // In-stratum transitive overdeletion.
        while !frontier.is_empty() {
            let mut by_rel: HashMap<RelId, Vec<SymTuple>> = HashMap::new();
            for (r, t) in frontier.drain(..) {
                by_rel.entry(r).or_default().push(t);
            }
            let mut next: Vec<(RelId, SymTuple)> = Vec::new();
            for rule in rules {
                for (i, atom) in rule.pos.iter().enumerate() {
                    let Some(delta) = by_rel.get(&atom.relation) else {
                        continue;
                    };
                    let mut binding = Binding::new(rule.nvars);
                    join(
                        rule,
                        0,
                        &view,
                        Some(i),
                        delta,
                        &mut binding,
                        stats,
                        &mut |b, _| {
                            let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                            schedule(rule.head.relation, head, &mut dset, &mut next);
                            true
                        },
                    );
                }
            }
            frontier = next;
        }
    }
    // Apply the overdeletion: tombstone every scheduled tuple.
    let mut dead: Vec<(RelId, SymTuple)> = Vec::new();
    for (r, t) in dset {
        if db.storage_mut().retract(r, &t) {
            stats.retractions += 1;
            record_retract(added, removed, r, &t);
            dead.push((r, t));
        }
    }

    // --- Phase 2: rederive (semi-naive). ---
    // A tuple stays deleted only if no rule derives it from the
    // surviving facts. One head-bound backward scan over the
    // post-retraction view seeds the revivals; after that the view only
    // grows by revived tuples, so any further revival must consume a
    // revived tuple at some positive atom (in-stratum recursion is
    // purely positive) — propagate forward with delta joins into the
    // still-deleted set instead of rescanning the whole overdeletion
    // every round, which is quadratic in the overdeleted set on dense
    // recursive views.
    let mut dead_set: HashSet<(RelId, SymTuple)> = dead.iter().cloned().collect();
    let mut revive: Vec<(RelId, SymTuple)> = Vec::new();
    {
        let storage = db.storage();
        let view = View::New(storage);
        for (r, t) in &dead {
            if derivable(rules, *r, t, &view, stats) {
                revive.push((*r, t.clone()));
            }
        }
    }
    while !revive.is_empty() {
        let mut by_rel: HashMap<RelId, Vec<SymTuple>> = HashMap::new();
        for (r, t) in revive.drain(..) {
            // Two rules can schedule the same head in one round.
            if !dead_set.remove(&(r, t.clone())) {
                continue;
            }
            db.storage_mut().insert(r, t.clone());
            stats.rederivations += 1;
            record_insert(added, removed, r, &t);
            by_rel.entry(r).or_default().push(t);
        }
        let storage = db.storage();
        let view = View::New(storage);
        let mut next: Vec<(RelId, SymTuple)> = Vec::new();
        for rule in rules {
            for (i, atom) in rule.pos.iter().enumerate() {
                let Some(delta) = by_rel.get(&atom.relation) else {
                    continue;
                };
                let mut binding = Binding::new(rule.nvars);
                join(
                    rule,
                    0,
                    &view,
                    Some(i),
                    delta,
                    &mut binding,
                    stats,
                    &mut |b, _| {
                        let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                        let key = (rule.head.relation, head);
                        if dead_set.contains(&key) {
                            next.push(key);
                        }
                        true
                    },
                );
            }
        }
        revive = next;
    }

    // --- Phase 3: insert propagation over the new view. ---
    // Seeds: derivations touching an added tuple at a positive atom or
    // a removed tuple at a negative atom, evaluated over the current
    // store. Then explicit-delta semi-naive propagation within the
    // stratum.
    let mut pending: Vec<(RelId, SymTuple)> = Vec::new();
    let mut pending_set: HashSet<(RelId, SymTuple)> = HashSet::new();
    {
        let storage = db.storage();
        let view = View::New(storage);
        let schedule = |rel: RelId,
                        head: SymTuple,
                        pending: &mut Vec<(RelId, SymTuple)>,
                        pending_set: &mut HashSet<(RelId, SymTuple)>| {
            if !storage.contains(rel, &head) {
                let key = (rel, head);
                if !pending_set.contains(&key) {
                    pending_set.insert(key.clone());
                    pending.push(key);
                }
            }
        };
        for rule in rules {
            for (i, atom) in rule.pos.iter().enumerate() {
                let Some(ad) = added.get(&atom.relation) else {
                    continue;
                };
                if ad.is_empty() {
                    continue;
                }
                let delta: Vec<SymTuple> = ad.iter().cloned().collect();
                let mut binding = Binding::new(rule.nvars);
                join(
                    rule,
                    0,
                    &view,
                    Some(i),
                    &delta,
                    &mut binding,
                    stats,
                    &mut |b, _| {
                        let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                        schedule(rule.head.relation, head, &mut pending, &mut pending_set);
                        true
                    },
                );
            }
            for natom in &rule.neg {
                let Some(rm) = removed.get(&natom.relation) else {
                    continue;
                };
                for t in rm {
                    if t.len() != natom.slots.len() {
                        continue;
                    }
                    let mut binding = Binding::new(rule.nvars);
                    if unify(natom, t, &mut binding).is_none() {
                        continue;
                    }
                    join(
                        rule,
                        0,
                        &view,
                        None,
                        &[],
                        &mut binding,
                        stats,
                        &mut |b, _| {
                            let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                            schedule(rule.head.relation, head, &mut pending, &mut pending_set);
                            true
                        },
                    );
                }
            }
        }
    }
    while !pending.is_empty() {
        let mut by_rel: HashMap<RelId, Vec<SymTuple>> = HashMap::new();
        for (r, t) in pending.drain(..) {
            if db.storage_mut().insert(r, t.clone()) {
                stats.insertions += 1;
                record_insert(added, removed, r, &t);
                by_rel.entry(r).or_default().push(t);
            }
        }
        pending_set.clear();
        let storage = db.storage();
        let view = View::New(storage);
        let mut next: Vec<(RelId, SymTuple)> = Vec::new();
        for rule in rules {
            for (i, atom) in rule.pos.iter().enumerate() {
                let Some(delta) = by_rel.get(&atom.relation) else {
                    continue;
                };
                let mut binding = Binding::new(rule.nvars);
                join(
                    rule,
                    0,
                    &view,
                    Some(i),
                    delta,
                    &mut binding,
                    stats,
                    &mut |b, _| {
                        let head: SymTuple = rule.head.slots.iter().map(|s| b.sym(s)).collect();
                        if !storage.contains(rule.head.relation, &head) {
                            let key = (rule.head.relation, head);
                            if !pending_set.contains(&key) {
                                pending_set.insert(key.clone());
                                next.push(key);
                            }
                        }
                        true
                    },
                );
            }
        }
        pending = next;
    }
}

/// Apply a signed [`UpdateBatch`] to a materialized stratified
/// database, maintaining every stratum incrementally (see the module
/// docs). `db` must be the fixpoint of `strata` over its current EDB,
/// compacted (no tombstones), and the batch must only touch EDB
/// relations — the query-level wrappers
/// ([`crate::query::IncrementalEvaluation`]) enforce both.
///
/// Reports `eval.retractions` and `eval.rederivations` counters (plus
/// insertion and work counters) to `obs`.
pub fn apply_update_compiled(
    strata: &[CompiledProgram],
    db: &mut Database,
    batch: &UpdateBatch,
    obs: &Obs,
) -> UpdateStats {
    assert!(
        !db.storage().any_dead(),
        "incremental maintenance requires a compacted database"
    );
    let mut stats = UpdateStats::default();
    // One watermark move up front: the storage-level signed deltas
    // (`added_rows`/`removed_rows`) then capture exactly this batch's
    // net EDB change.
    db.storage_mut().mark_deltas();
    let (ins, del) = db.apply_update_batch(batch);
    stats.edb_inserted = ins;
    stats.edb_deleted = del;

    let mut added: ChangeSet = HashMap::new();
    let mut removed: ChangeSet = HashMap::new();
    {
        let storage = db.storage();
        for r in storage.rel_ids() {
            let Some(rel) = storage.relation(r) else {
                continue;
            };
            let a: HashSet<SymTuple> = rel.added_rows().cloned().collect();
            if !a.is_empty() {
                added.insert(r, a);
            }
            let rm: HashSet<SymTuple> = rel.removed_rows().cloned().collect();
            if !rm.is_empty() {
                removed.insert(r, rm);
            }
        }
    }

    for cp in strata {
        maintain_stratum(cp, db, &mut added, &mut removed, &mut stats);
    }

    // Tombstones served their purpose (old-view reconstruction and
    // in-place revival); the fixpoint engines require a compacted
    // store, so physically drop them at the batch boundary.
    db.storage_mut().compact_retractions();
    if obs.enabled() {
        obs.counter("eval", "retractions", stats.retractions as u64);
        obs.counter("eval", "rederivations", stats.rederivations as u64);
        obs.counter("eval", "update_insertions", stats.insertions as u64);
        obs.counter("eval", "update_derivations", stats.derivations as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::seminaive::{fixpoint_seminaive_compiled, EvalOptions};
    use crate::stratify::stratify;
    use calm_common::fact::fact;
    use calm_common::instance::Instance;
    use calm_common::storage::SharedSymbols;

    fn compile_strata(src: &str, symbols: &SharedSymbols) -> Vec<CompiledProgram> {
        let p = crate::parser::parse_program(src).unwrap();
        let strat = stratify(&p).unwrap();
        let mut table = symbols.write();
        strat
            .strata
            .iter()
            .map(|s| CompiledProgram::new(s, &mut table, EvalOptions::default()))
            .collect()
    }

    fn materialize(
        strata: &[CompiledProgram],
        input: &Instance,
        symbols: SharedSymbols,
    ) -> Database {
        let mut db = Database::from_instance_with(input, symbols);
        for cp in strata {
            fixpoint_seminaive_compiled(cp, &mut db);
        }
        db
    }

    /// From-scratch reference: evaluate the final EDB with the same
    /// compiled strata over a fresh database sharing the symbol table.
    fn from_scratch(
        strata: &[CompiledProgram],
        edb: &Instance,
        symbols: SharedSymbols,
    ) -> Database {
        materialize(strata, edb, symbols)
    }

    fn check_differential(src: &str, initial: Instance, batches: &[UpdateBatch]) {
        let symbols = SharedSymbols::new();
        let strata = compile_strata(src, &symbols);
        let mut db = materialize(&strata, &initial, symbols.clone());
        let mut edb = initial;
        for (k, batch) in batches.iter().enumerate() {
            apply_update_compiled(&strata, &mut db, batch, &Obs::noop());
            batch.apply_to_instance(&mut edb);
            let reference = from_scratch(&strata, &edb, symbols.clone());
            assert!(
                db.same_facts(&reference),
                "diverged after batch {k}:\nincremental: {:?}\nreference: {:?}",
                db.to_instance(),
                reference.to_instance()
            );
            assert_eq!(db.to_instance(), reference.to_instance(), "batch {k}");
            assert!(!db.storage().any_dead(), "tombstones leaked past batch {k}");
        }
    }

    const TC: &str = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";

    #[test]
    fn tc_delete_edge_retracts_downstream_paths() {
        // Path 1→2→3→4; deleting 2→3 splits the closure.
        let initial =
            Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("E", [3, 4])]);
        check_differential(
            TC,
            initial,
            &[
                UpdateBatch::deleting([fact("E", [2, 3])]),
                UpdateBatch::inserting([fact("E", [2, 3])]),
                UpdateBatch::deleting([fact("E", [1, 2]), fact("E", [3, 4])]),
            ],
        );
    }

    #[test]
    fn tc_rederivation_keeps_alternate_paths() {
        // Two parallel routes 1→2→4 and 1→3→4: deleting one leaves
        // T(1,4) derivable through the other (rederive must fire).
        let initial = Instance::from_facts([
            fact("E", [1, 2]),
            fact("E", [2, 4]),
            fact("E", [1, 3]),
            fact("E", [3, 4]),
        ]);
        let symbols = SharedSymbols::new();
        let strata = compile_strata(TC, &symbols);
        let mut db = materialize(&strata, &initial, symbols.clone());
        let stats = apply_update_compiled(
            &strata,
            &mut db,
            &UpdateBatch::deleting([fact("E", [2, 4])]),
            &Obs::noop(),
        );
        assert!(stats.rederivations > 0, "alternate path must rederive");
        assert!(db.contains_values("T", &[calm_common::v(1), calm_common::v(4)]));
        assert!(!db.contains_values("T", &[calm_common::v(2), calm_common::v(4)]));
    }

    #[test]
    fn cyclic_support_does_not_self_rederive() {
        // Cycle 1→2→1: every T tuple transitively supports itself;
        // deleting E(1,2) must delete the whole closure, not keep it
        // alive through circular support (the trap counting falls into).
        let initial = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 1])]);
        check_differential(TC, initial, &[UpdateBatch::deleting([fact("E", [1, 2])])]);
    }

    #[test]
    fn stratified_negation_flips_both_ways() {
        // Removing an E tuple can *create* O tuples; adding one can
        // delete them — both negation directions in one program.
        let src = "R(x,y) :- E(x,y).\nR(x,z) :- R(x,y), E(y,z).\nO(x) :- V(x), not R(x,x).";
        let initial = Instance::from_facts([
            fact("V", [1]),
            fact("V", [2]),
            fact("E", [1, 2]),
            fact("E", [2, 1]),
        ]);
        check_differential(
            src,
            initial,
            &[
                // Break the cycle: R(1,1)/R(2,2) vanish, O(1)/O(2) appear.
                UpdateBatch::deleting([fact("E", [2, 1])]),
                // Restore it: O tuples must retract again.
                UpdateBatch::inserting([fact("E", [2, 1])]),
                // Mixed batch.
                UpdateBatch::deleting([fact("E", [1, 2])])
                    .with_insert(fact("V", [3]))
                    .with_insert(fact("E", [3, 3])),
            ],
        );
    }

    #[test]
    fn empty_and_noop_batches_change_nothing() {
        let initial = Instance::from_facts([fact("E", [1, 2])]);
        let symbols = SharedSymbols::new();
        let strata = compile_strata(TC, &symbols);
        let mut db = materialize(&strata, &initial, symbols.clone());
        let before = db.to_instance();
        let stats = apply_update_compiled(&strata, &mut db, &UpdateBatch::new(), &Obs::noop());
        assert_eq!(stats, UpdateStats::default());
        // Deleting an absent fact and re-inserting a present one: no-ops.
        let noop = UpdateBatch::deleting([fact("E", [9, 9])]).with_insert(fact("E", [1, 2]));
        let stats = apply_update_compiled(&strata, &mut db, &noop, &Obs::noop());
        assert_eq!(stats.edb_inserted, 0);
        assert_eq!(stats.edb_deleted, 0);
        assert_eq!(db.to_instance(), before);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_is_noop() {
        let initial = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        check_differential(
            TC,
            initial,
            &[UpdateBatch::deleting([fact("E", [2, 3])]).with_insert(fact("E", [2, 3]))],
        );
    }

    #[test]
    fn multi_stratum_chain_propagates_removals_upward() {
        // Three strata: closure → gap detection (negation) → projection.
        let src = "T(x,y) :- E(x,y).\n\
                   T(x,z) :- T(x,y), E(y,z).\n\
                   G(x,y) :- V(x), V(y), not T(x,y), x != y.\n\
                   H(x) :- G(x,y).";
        let initial = Instance::from_facts([
            fact("V", [1]),
            fact("V", [2]),
            fact("V", [3]),
            fact("E", [1, 2]),
            fact("E", [2, 3]),
        ]);
        check_differential(
            src,
            initial,
            &[
                UpdateBatch::deleting([fact("E", [1, 2])]),
                UpdateBatch::inserting([fact("E", [1, 3])]),
                UpdateBatch::deleting([fact("V", [3])]).with_insert(fact("E", [1, 2])),
            ],
        );
    }

    #[test]
    fn supports_update_stats_merge() {
        let mut a = UpdateStats {
            edb_inserted: 1,
            edb_deleted: 2,
            retractions: 3,
            rederivations: 4,
            insertions: 5,
            derivations: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.retractions, 6);
        assert_eq!(a.derivations, 12);
    }

    #[test]
    #[should_panic(expected = "compacted database")]
    fn rejects_uncompacted_databases() {
        let symbols = SharedSymbols::new();
        let strata = compile_strata(TC, &symbols);
        let mut db = materialize(
            &strata,
            &Instance::from_facts([fact("E", [1, 2])]),
            symbols.clone(),
        );
        // Leave a tombstone behind by hand.
        let e = symbols.read().lookup_rel("E").unwrap();
        let row: Vec<_> = {
            let t = symbols.read();
            [calm_common::v(1), calm_common::v(2)]
                .iter()
                .map(|v| t.lookup_sym(v).unwrap())
                .collect()
        };
        db.storage_mut().retract(e, &row);
        apply_update_compiled(&strata, &mut db, &UpdateBatch::new(), &Obs::noop());
    }
}
