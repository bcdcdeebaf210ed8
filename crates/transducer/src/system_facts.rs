//! System facts `S` for a transition (Section 4.1.3).
//!
//! For active node `x` with visible facts `J`:
//!
//! * `A = N ∪ adom(J)` (or `{x} ∪ adom(J)` when `All` is removed, §4.3);
//! * `S = {Id(x)} ∪ {All(y) | y ∈ N} ∪ {MyAdom(a) | a ∈ A}
//!        ∪ {policy_R(ā) | ā ⊆ A, x ∈ P(R(ā))}`,
//!   with each part present only when the [`SystemConfig`] enables it.
//!
//! Restricting `policy_R` to tuples over `A` is the paper's safety
//! restriction: a node only sees the policy over values it already knows.
//!
//! `S` is a pure function of `(x, N, Υin, P, config, A)`, and of these
//! only `A` changes between two transitions of a node. [`SystemFacts`]
//! keeps `S` with the `A` it was built from and reuses it while `A` is
//! unchanged; any other `A` rebuilds it from scratch. [`system_facts`]
//! is the case with no cached `A`.

use crate::network::{Network, NodeId};
use crate::policy::DistributionPolicy;
use crate::schema::{policy_relation, SystemConfig};
use calm_common::fact::{rel, Fact};
use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_common::value::Value;
use std::collections::BTreeSet;

/// Compute the system facts for a transition of node `x`.
///
/// `visible` is `J` — the union of local input facts, state, and delivered
/// messages. The enumeration of `policy_R` candidates is `|A|^k` per input
/// relation of arity `k`; the simulator asserts `k <= 4` to keep runs
/// tractable (all the paper's schemas are binary).
pub fn system_facts(
    x: &NodeId,
    network: &Network,
    input_schema: &Schema,
    policy: &dyn DistributionPolicy,
    config: SystemConfig,
    visible: &Instance,
) -> Instance {
    let mut cache = SystemFacts::default();
    cache.refresh(x, network, input_schema, policy, config, visible);
    cache.facts.unwrap_or_default()
}

/// One node's system facts `S`, kept with the known-value set `A` they
/// were enumerated over.
///
/// Every [`SystemFacts::refresh`] of one cache must pass the same node,
/// network, input schema, policy and configuration: the cache is keyed
/// by `A` alone. Reuse is exact because `S` depends on nothing else, so
/// a state restored from a snapshot or a node adopted mid-run (both
/// change `J`, not the node) cannot make it stale.
#[derive(Debug, Clone, Default)]
pub struct SystemFacts {
    /// `A`, sorted. Empty when the configuration exposes no `MyAdom`
    /// and `policy_R` (then `S` does not depend on `A`).
    known: Vec<Value>,
    /// `S` over `known`; `None` before the first refresh.
    facts: Option<Instance>,
}

impl SystemFacts {
    /// Bring `S` up to date for node `x` seeing `visible` (`J`) and
    /// return it: the cached `S` while `A` is unchanged, otherwise `S`
    /// enumerated from scratch.
    pub fn refresh(
        &mut self,
        x: &NodeId,
        network: &Network,
        input_schema: &Schema,
        policy: &dyn DistributionPolicy,
        config: SystemConfig,
        visible: &Instance,
    ) -> &Instance {
        if self.facts.is_none() || !self.holds(x, network, config, visible) {
            let mut s = Instance::new();
            if config.include_id {
                s.insert(Fact::new("Id", vec![x.clone()]));
            }
            if config.include_all {
                for y in network.nodes() {
                    s.insert(Fact::new("All", vec![y.clone()]));
                }
            }
            self.known.clear();
            if config.policy_relations {
                // The known-value set A.
                let mut a: BTreeSet<Value> = visible.adom();
                if config.include_all {
                    a.extend(network.nodes().cloned());
                } else {
                    a.insert(x.clone());
                }
                self.known.extend(a);
                let my_adom = rel("MyAdom");
                for v in &self.known {
                    s.insert_tuple(&my_adom, vec![v.clone()]);
                }
                for (r, arity) in input_schema.iter() {
                    assert!(
                        arity <= 4,
                        "policy relation enumeration capped at arity 4 (got {arity} for {r})"
                    );
                    let pname = rel(policy_relation(r));
                    for_each_tuple(&vec![self.known.as_slice(); arity], |tuple| {
                        let candidate = Fact::from_rel(r.clone(), tuple.to_vec());
                        if policy.assign(&candidate).contains(x) {
                            s.insert_tuple(&pname, candidate.into_parts().1);
                        }
                    });
                }
            }
            self.facts = Some(s);
        }
        self.facts.as_ref().expect("S is built above")
    }

    /// Whether `A` for `visible` is exactly `self.known`, checked
    /// without building it: every value of `J` (and of `N`, or `x`) is
    /// known, and every known value occurs.
    fn holds(
        &self,
        x: &NodeId,
        network: &Network,
        config: SystemConfig,
        visible: &Instance,
    ) -> bool {
        if !config.policy_relations {
            return true;
        }
        let mut seen = vec![false; self.known.len()];
        let mut all_known = true;
        let mut note = |v: &Value| match self.known.binary_search(v) {
            Ok(i) => seen[i] = true,
            Err(_) => all_known = false,
        };
        for r in visible.relation_names() {
            visible.tuples(r).flatten().for_each(&mut note);
        }
        if config.include_all {
            network.nodes().for_each(&mut note);
        } else {
            note(x);
        }
        all_known && !seen.contains(&false)
    }
}

/// Call `f` on every tuple whose `j`-th value is drawn from
/// `columns[j]`, in odometer order (position 0 fastest), through one
/// reused buffer. Visits nothing when a column is empty.
pub(crate) fn for_each_tuple(columns: &[&[Value]], mut f: impl FnMut(&[Value])) {
    if columns.iter().any(|c| c.is_empty()) {
        return;
    }
    let mut idx = vec![0usize; columns.len()];
    let mut tuple: Vec<Value> = columns.iter().map(|c| c[0].clone()).collect();
    loop {
        f(&tuple);
        let mut pos = 0;
        loop {
            if pos == columns.len() {
                return;
            }
            idx[pos] += 1;
            if idx[pos] < columns[pos].len() {
                tuple[pos] = columns[pos][idx[pos]].clone();
                break;
            }
            idx[pos] = 0;
            tuple[pos] = columns[pos][0].clone();
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ParityFirstAttributePolicy;
    use calm_common::fact::fact;

    fn setup() -> (Network, Schema, ParityFirstAttributePolicy) {
        let net = Network::of_size(2);
        let schema = Schema::from_pairs([("E", 2)]);
        let policy = ParityFirstAttributePolicy::new(net.clone());
        (net, schema, policy)
    }

    #[test]
    fn example_4_2_system_facts_at_node_1() {
        // Node 1 with local facts E(1,3), E(3,4): sees Id(n1), All(n1),
        // All(n2), MyAdom over {n1, n2, 1, 3, 4}, and policy_E(a, b) for
        // a ∈ {1, 3} (odd), b over the known values.
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE,
            &visible,
        );
        assert!(s.contains(&Fact::new("Id", vec![n1.clone()])));
        assert_eq!(s.relation_len("All"), 2);
        // A = {n1, n2, 1, 3, 4} -> 5 MyAdom facts.
        assert_eq!(s.relation_len("MyAdom"), 5);
        // policy_E(a, b): a must be an odd integer from A -> a ∈ {1, 3},
        // b ranges over all 5 values of A: 10 facts.
        assert_eq!(s.relation_len("policy_E"), 10);
        assert!(s.contains(&Fact::new("policy_E", vec![Value::Int(3), Value::Int(4)])));
        // Node 1 is not responsible for even-first-attribute facts.
        assert!(!s.contains(&Fact::new("policy_E", vec![Value::Int(4), Value::Int(3)])));
    }

    #[test]
    fn original_model_has_no_policy_relations() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::ORIGINAL,
            &visible,
        );
        assert_eq!(s.relation_len("MyAdom"), 0);
        assert_eq!(s.relation_len("policy_E"), 0);
        assert!(s.contains(&Fact::new("Id", vec![n1])));
        assert_eq!(s.relation_len("All"), 2);
    }

    #[test]
    fn no_all_variant_shrinks_a() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE_NO_ALL,
            &visible,
        );
        assert_eq!(s.relation_len("All"), 0);
        // A = {n1, 1, 3}.
        assert_eq!(s.relation_len("MyAdom"), 3);
        assert!(s.contains(&Fact::new("MyAdom", vec![n1.clone()])));
        assert!(!s.contains(&Fact::new("MyAdom", vec![Value::str("n2")])));
    }

    #[test]
    fn oblivious_sees_nothing() {
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::OBLIVIOUS,
            &visible,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn for_each_tuple_counts() {
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let count = |columns: &[&[Value]]| {
            let mut n = 0;
            for_each_tuple(columns, |_| n += 1);
            n
        };
        assert_eq!(count(&[&vals]), 3);
        assert_eq!(count(&[&vals, &vals]), 9);
        assert_eq!(count(&[&vals, &vals[..1]]), 3);
        assert_eq!(count(&[&vals, &[]]), 0);
        let mut seen = Vec::new();
        for_each_tuple(&[&vals[..2], &vals[1..]], |t| seen.push(t.to_vec()));
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[1], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn received_values_grow_myadom() {
        // Example 4.2's remark: once node 1 stores value 6, MyAdom(6) and
        // policy_E(a, 6) appear.
        let (net, schema, policy) = setup();
        let n1 = Value::str("n1");
        let visible = Instance::from_facts([fact("E", [1, 3]), fact("coll_E", [4, 6])]);
        let s = system_facts(
            &n1,
            &net,
            &schema,
            &policy,
            SystemConfig::POLICY_AWARE,
            &visible,
        );
        assert!(s.contains(&Fact::new("MyAdom", vec![Value::Int(6)])));
        assert!(s.contains(&Fact::new("policy_E", vec![Value::Int(3), Value::Int(6)])));
    }
}
