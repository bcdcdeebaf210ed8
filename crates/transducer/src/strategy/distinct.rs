//! The `Mdistinct` strategy (proof of Theorem 4.3): broadcast local input
//! facts **and deduced absences**, output `Q` on complete value-subsets.
//!
//! A node `x` deduces the absence of fact `R(ā)` when the system relation
//! `policy_R` shows `x` is responsible for `R(ā)` but the fact is not in
//! `x`'s local input — then it is globally absent. Facts and absences are
//! broadcast; a set of values `C` is *complete* at `x` when the
//! presence/absence of every fact over `C` is known, and then
//! `Q({f | adom(f) ⊆ C})` is output (sound for `Q ∈ Mdistinct` because
//! the rest of the input is domain-distinct from the complete part).

use super::{absence_rel, coll_rel, collected_input, msg_rel, new_output, renamed_output_schema};
use crate::schema::{policy_relation, TransducerSchema};
use crate::system_facts::for_each_tuple;
use crate::transducer::{Transducer, TransducerStep};
use calm_common::fact::{rel, RelName};
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::value::Value;

/// Memory: absences known (`ab_R`), facts already broadcast (`sf_R`),
/// absences already broadcast (`sb_R`).
fn known_absence_rel(r: &str) -> String {
    format!("ab_{r}")
}

fn sent_fact_rel(r: &str) -> String {
    format!("sf_{r}")
}

fn sent_absence_rel(r: &str) -> String {
    format!("sb_{r}")
}

/// The facts-and-non-facts strategy for `Mdistinct` queries
/// (policy-aware model; never reads `All`).
pub struct DistinctStrategy {
    query: Box<dyn Query>,
    schema: TransducerSchema,
    name: String,
    rels: Vec<Rels>,
}

/// An input relation `R` and the relations derived from it, named once
/// at construction.
struct Rels {
    rel: RelName,
    arity: usize,
    /// `m_R`
    msg: RelName,
    /// `n_R`
    absence: RelName,
    /// `c_R`
    coll: RelName,
    /// `ab_R`
    known_absence: RelName,
    /// `sf_R`
    sent_fact: RelName,
    /// `sb_R`
    sent_absence: RelName,
    /// `policy_R`
    policy: RelName,
}

impl Rels {
    /// Record `R(t)` as absent: remember it, and broadcast it once.
    fn absent(&self, d: &Instance, t: &[Value], step: &mut TransducerStep) {
        if !d.contains_tuple(&self.known_absence, t) {
            step.ins.insert_tuple(&self.known_absence, t.to_vec());
        }
        if !d.contains_tuple(&self.sent_absence, t) {
            step.snd.insert_tuple(&self.absence, t.to_vec());
            step.ins.insert_tuple(&self.sent_absence, t.to_vec());
        }
    }
}

impl DistinctStrategy {
    /// Wrap a query. Distributedly computes it (for all policies) iff
    /// the query is domain-distinct-monotone.
    pub fn new(query: Box<dyn Query>) -> Self {
        let input = query.input_schema().clone();
        let mut msg = Schema::new();
        let mut mem = Schema::new();
        for (r, a) in input.iter() {
            msg.add(&msg_rel(r), a);
            msg.add(&absence_rel(r), a);
            mem.add(&coll_rel(r), a);
            mem.add(&known_absence_rel(r), a);
            mem.add(&sent_fact_rel(r), a);
            mem.add(&sent_absence_rel(r), a);
        }
        let output = renamed_output_schema(query.as_ref());
        let name = format!("distinct-strategy({})", query.name());
        let rels = input
            .iter()
            .map(|(r, arity)| Rels {
                rel: r.clone(),
                arity,
                msg: rel(msg_rel(r)),
                absence: rel(absence_rel(r)),
                coll: rel(coll_rel(r)),
                known_absence: rel(known_absence_rel(r)),
                sent_fact: rel(sent_fact_rel(r)),
                sent_absence: rel(sent_absence_rel(r)),
                policy: rel(policy_relation(r)),
            })
            .collect();
        DistinctStrategy {
            schema: TransducerSchema::new(input, output, msg, mem),
            query,
            name,
            rels,
        }
    }

    /// The wrapped query.
    pub fn query(&self) -> &dyn Query {
        self.query.as_ref()
    }
}

impl Transducer for DistinctStrategy {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut step = TransducerStep::default();
        let collected = collected_input(self.query.input_schema(), d);

        // Known values (the paper's MyAdom, supplied by the simulator),
        // sorted; `poisoned[i]` marks `myadom[i]` as touched by an
        // undetermined tuple.
        let myadom: Vec<Value> = d.tuples("MyAdom").map(|t| t[0].clone()).collect();
        let mut poisoned = vec![false; myadom.len()];

        for n in &self.rels {
            // Absences = remembered ∪ delivered ∪ freshly deduced from
            // the policy relations; persist and broadcast each.
            for t in d.tuples(&n.known_absence).chain(d.tuples(&n.absence)) {
                n.absent(d, t, &mut step);
            }
            let columns = vec![myadom.as_slice(); n.arity];
            for_each_tuple(&columns, |t| {
                // Deduce: responsible for R(ā) but R(ā) not locally given.
                let deduced = d.contains_tuple(&n.policy, t) && !d.contains_tuple(&n.rel, t);
                if deduced {
                    n.absent(d, t, &mut step);
                }
                // Undetermined tuples poison their values.
                let determined = deduced
                    || collected.contains_tuple(&n.rel, t)
                    || d.contains_tuple(&n.known_absence, t)
                    || d.contains_tuple(&n.absence, t);
                if !determined {
                    for v in t {
                        if let Ok(i) = myadom.binary_search(v) {
                            poisoned[i] = true;
                        }
                    }
                }
            });
            for t in collected.tuples(&n.rel) {
                if !d.contains_tuple(&n.coll, t) {
                    step.ins.insert_tuple(&n.coll, t.clone());
                }
                if !d.contains_tuple(&n.sent_fact, t) {
                    step.snd.insert_tuple(&n.msg, t.clone());
                    step.ins.insert_tuple(&n.sent_fact, t.clone());
                }
            }
        }

        // The maximal "clean" complete subset C: known values untouched
        // by any undetermined tuple. Every tuple over C is determined.
        let complete = |t: &Vec<Value>| {
            t.iter()
                .all(|v| myadom.binary_search(v).is_ok_and(|i| !poisoned[i]))
        };
        let all_complete = collected
            .relation_names()
            .all(|r| collected.tuples(r).all(complete));
        let answer = if all_complete {
            self.query.eval(&collected)
        } else {
            let mut restricted = collected.clone();
            restricted.retain(|_, t| complete(t));
            self.query.eval(&restricted)
        };
        step.out = new_output(&answer, d);
        step
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::{DomainGuidedPolicy, HashPolicy};
    use crate::runtime::{run, verify_computes, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use crate::strategy::expected_output;
    use calm_common::generator::path;
    use calm_queries::tc::edges_without_source_loop;

    fn strategy() -> DistinctStrategy {
        DistinctStrategy::new(Box::new(edges_without_source_loop()))
    }

    #[test]
    fn computes_sp_datalog_query_on_hash_policy() {
        // The SP-Datalog query O(x,y) :- E(x,y), ¬E(x,x) is in Mdistinct;
        // the strategy must compute it for arbitrary policies.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [2, 2]));
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 3] {
            let policy = HashPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(3, 40)],
                50_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn computes_without_all_relation() {
        // Theorem 4.5 (A1 = Mdistinct): the same transducer, never reading
        // All, still computes the query.
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE_NO_ALL,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 50_000).unwrap();
    }

    #[test]
    fn no_premature_output_on_incomplete_knowledge() {
        // With messages withheld (heartbeats only), a node holding only
        // part of the input must not output facts that the full input
        // would retract. Run a heartbeat-only prefix and check the output
        // stays inside Q(I).
        use crate::policy::{distribute, DistributionPolicy};
        let t = strategy();
        let mut input = path(3);
        input.insert(calm_common::fact::fact("E", [0, 0]));
        let expected = expected_output(t.query(), &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let dist = distribute(&policy, &input);
        let mut config = crate::runtime::Configuration::start(policy.network());
        let mut metrics = crate::runtime::Metrics::default();
        for node in policy.network().nodes() {
            for _ in 0..3 {
                crate::runtime::transition(
                    &tn,
                    &dist,
                    &mut config,
                    node,
                    crate::runtime::Delivery::None,
                    &mut metrics,
                );
            }
        }
        let partial = crate::runtime::network_output(&tn, &config);
        assert!(
            partial.is_subset(&expected),
            "heartbeat outputs must be sound: {partial:?} ⊄ {expected:?}"
        );
    }

    #[test]
    fn ideal_policy_completes_in_heartbeats() {
        // Coordination-freeness witness: everything at one node.
        let t = strategy();
        let mut input = path(2);
        input.insert(calm_common::fact::fact("E", [1, 1]));
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(3);
        let x = calm_common::value::Value::str("n2");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let steps = crate::coordination::heartbeat_witness(&tn, &input, &x, &expected, 10)
            .expect("heartbeat-only prefix computes Q(I)");
        assert!(steps <= 3);
    }

    #[test]
    fn non_member_query_goes_wrong() {
        // Feeding win-move (∉ Mdistinct) through the distinct strategy on
        // a 2-node network yields a wrong quiescent output for at least
        // one policy/input: the strategy's soundness argument needs
        // domain-distinct monotonicity.
        let t = DistinctStrategy::new(Box::new(calm_queries::winmove::win_move()));
        let input = calm_common::generator::chain_game(0, 2);
        let expected = expected_output(t.query(), &input);
        // Split the two move facts across nodes.
        let net = Network::of_size(2);
        let base: std::sync::Arc<dyn crate::policy::DistributionPolicy> = std::sync::Arc::new(
            DomainGuidedPolicy::all_to(net.clone(), calm_common::value::Value::str("n1")),
        );
        let policy = crate::policy::OverridePolicy::new(
            base,
            [calm_common::generator::mv(1, 2)],
            [calm_common::value::Value::str("n2")],
        );
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 50_000);
        assert!(r.quiescent);
        assert_ne!(r.output, expected, "win-move must break the strategy");
    }
}
