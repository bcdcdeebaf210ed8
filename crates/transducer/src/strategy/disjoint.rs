//! The `Mdisjoint` strategy (proof of Theorem 4.4): broadcast the active
//! domain; run a per-value request/ack/OK protocol with the nodes
//! responsible for each value under the domain assignment; output `Q` on
//! complete *components* of the collected input.
//!
//! Correct under **domain-guided** policies: a node responsible for value
//! `a` (i.e. `x ∈ α(a)`, detected via `policy_R(a, ..., a)`) locally
//! holds *every* input fact containing `a`. The §4.3 discussion stresses
//! that this per-value protocol is coordination determined purely by the
//! data distribution — the strategy never reads `All` and cannot
//! globally synchronize.

use super::{coll_rel, collected_input, msg_rel, new_output, renamed_output_schema};
use crate::schema::{policy_relation, TransducerSchema};
use crate::transducer::{Transducer, TransducerStep};
use calm_common::component::components;
use calm_common::fact::{rel, RelName};
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::value::Value;
use std::collections::BTreeSet;

/// Message relation names (fixed; the per-relation ones come from
/// `strategy::msg_rel`).
const VAL_BC: &str = "v_a"; // value broadcast
const REQUEST: &str = "rq"; // (requester, value)
const OK: &str = "okm"; // (requester, value)

fn ack_rel(r: &str) -> String {
    format!("k_{r}") // (acker, fact args...)
}

// Memory relation names.
const SENT_VAL: &str = "sv"; // values broadcast
const SENT_REQ: &str = "sq"; // values requested
const REMEMBERED_REQ: &str = "rr"; // (requester, value)
const SENT_OK: &str = "so"; // (requester, value)
const GOT_OK: &str = "gk"; // values OK'd for me

fn recv_ack_rel(r: &str) -> String {
    format!("ka_{r}")
}

fn sent_ack_rel(r: &str) -> String {
    format!("sk_{r}")
}

fn sent_fact_rel(r: &str) -> String {
    format!("sm_{r}")
}

/// The request/OK strategy for `Mdisjoint` queries under domain-guided
/// distribution.
pub struct DisjointStrategy {
    query: Box<dyn Query>,
    schema: TransducerSchema,
    name: String,
    rels: Vec<Rels>,
    protocol: Protocol,
}

/// An input relation `R` and the relations derived from it, named once
/// at construction.
struct Rels {
    rel: RelName,
    arity: usize,
    /// `m_R`
    msg: RelName,
    /// `k_R`
    ack: RelName,
    /// `c_R`
    coll: RelName,
    /// `ka_R`
    recv_ack: RelName,
    /// `sk_R`
    sent_ack: RelName,
    /// `sm_R`
    sent_fact: RelName,
    /// `policy_R`
    policy: RelName,
}

/// The fixed protocol relations, named once at construction.
struct Protocol {
    val_bc: RelName,
    request: RelName,
    ok: RelName,
    sent_val: RelName,
    sent_req: RelName,
    remembered_req: RelName,
    sent_ok: RelName,
    got_ok: RelName,
}

impl DisjointStrategy {
    /// Wrap a query. Distributedly computes it under domain-guidance iff
    /// the query is domain-disjoint-monotone.
    pub fn new(query: Box<dyn Query>) -> Self {
        let input = query.input_schema().clone();
        let mut msg = Schema::new();
        let mut mem = Schema::new();
        msg.add(VAL_BC, 1);
        msg.add(REQUEST, 2);
        msg.add(OK, 2);
        mem.add(SENT_VAL, 1);
        mem.add(SENT_REQ, 1);
        mem.add(REMEMBERED_REQ, 2);
        mem.add(SENT_OK, 2);
        mem.add(GOT_OK, 1);
        for (r, a) in input.iter() {
            msg.add(&msg_rel(r), a);
            msg.add(&ack_rel(r), a + 1);
            mem.add(&coll_rel(r), a);
            mem.add(&recv_ack_rel(r), a + 1);
            mem.add(&sent_ack_rel(r), a);
            mem.add(&sent_fact_rel(r), a);
        }
        let output = renamed_output_schema(query.as_ref());
        let name = format!("disjoint-strategy({})", query.name());
        let rels = input
            .iter()
            .map(|(r, arity)| Rels {
                rel: r.clone(),
                arity,
                msg: rel(msg_rel(r)),
                ack: rel(ack_rel(r)),
                coll: rel(coll_rel(r)),
                recv_ack: rel(recv_ack_rel(r)),
                sent_ack: rel(sent_ack_rel(r)),
                sent_fact: rel(sent_fact_rel(r)),
                policy: rel(policy_relation(r)),
            })
            .collect();
        let protocol = Protocol {
            val_bc: rel(VAL_BC),
            request: rel(REQUEST),
            ok: rel(OK),
            sent_val: rel(SENT_VAL),
            sent_req: rel(SENT_REQ),
            remembered_req: rel(REMEMBERED_REQ),
            sent_ok: rel(SENT_OK),
            got_ok: rel(GOT_OK),
        };
        DisjointStrategy {
            schema: TransducerSchema::new(input, output, msg, mem),
            query,
            name,
            rels,
            protocol,
        }
    }

    /// The wrapped query.
    pub fn query(&self) -> &dyn Query {
        self.query.as_ref()
    }
}

impl Transducer for DisjointStrategy {
    fn schema(&self) -> &TransducerSchema {
        &self.schema
    }

    fn step(&self, d: &Instance) -> TransducerStep {
        let mut step = TransducerStep::default();
        let p = &self.protocol;
        let me = match d.tuples("Id").next() {
            Some(t) => t[0].clone(),
            // Oblivious model: the protocol needs Id; do nothing.
            None => return step,
        };
        let myadom: Vec<Value> = d.tuples("MyAdom").map(|t| t[0].clone()).collect();

        // Responsibility: x ∈ α(a) iff policy_R(a,...,a) is visible for
        // some input relation (paper's criterion).
        let mut diagonal = Vec::new();
        let owned: BTreeSet<Value> = myadom
            .iter()
            .filter(|a| {
                self.rels.iter().any(|n| {
                    diagonal.clear();
                    diagonal.resize(n.arity, (*a).clone());
                    d.contains_tuple(&n.policy, &diagonal)
                })
            })
            .cloned()
            .collect();

        // Collected facts (local ∪ remembered ∪ freshly delivered).
        let collected = collected_input(self.query.input_schema(), d);
        for n in &self.rels {
            for t in collected.tuples(&n.rel) {
                if !d.contains_tuple(&n.coll, t) {
                    step.ins.insert_tuple(&n.coll, t.clone());
                }
            }
        }

        // 1. Broadcast the local input fragment's active domain (once per
        //    value).
        let local_adom: BTreeSet<&Value> = self
            .rels
            .iter()
            .flat_map(|n| d.tuples(&n.rel).flatten())
            .collect();
        for a in local_adom {
            if !d.contains_tuple(&p.sent_val, std::slice::from_ref(a)) {
                step.snd.insert_tuple(&p.val_bc, vec![a.clone()]);
                step.ins.insert_tuple(&p.sent_val, vec![a.clone()]);
            }
        }

        // 2. Request every known value we are not responsible for.
        for a in &myadom {
            if !owned.contains(a) && !d.contains_tuple(&p.sent_req, std::slice::from_ref(a)) {
                step.snd
                    .insert_tuple(&p.request, vec![me.clone(), a.clone()]);
                step.ins.insert_tuple(&p.sent_req, vec![a.clone()]);
            }
        }

        // 3. Remember requests (delivered now or earlier).
        for t in d.tuples(&p.request) {
            if !d.contains_tuple(&p.remembered_req, t) {
                step.ins.insert_tuple(&p.remembered_req, t.clone());
            }
        }
        let requests: BTreeSet<(&Value, &Value)> = d
            .tuples(&p.request)
            .chain(d.tuples(&p.remembered_req))
            .map(|t| (&t[0], &t[1]))
            .collect();

        // 4. Record delivered acks and OKs.
        for n in &self.rels {
            for t in d.tuples(&n.ack) {
                if !d.contains_tuple(&n.recv_ack, t) {
                    step.ins.insert_tuple(&n.recv_ack, t.clone());
                }
            }
        }
        let mut got_ok: BTreeSet<&Value> = d.tuples(&p.got_ok).map(|t| &t[0]).collect();
        for t in d.tuples(&p.ok) {
            if t[0] == me {
                got_ok.insert(&t[1]);
                if !d.contains_tuple(&p.got_ok, &t[1..]) {
                    step.ins.insert_tuple(&p.got_ok, vec![t[1].clone()]);
                }
            }
        }

        // 5. Serve remembered requests for values we own: send the local
        //    facts containing the value, and send OK once the requester
        //    has acknowledged all of them.
        let mut ack_key = Vec::new();
        for (requester, a) in requests {
            if !owned.contains(a) {
                continue;
            }
            let mut all_acked = true;
            for n in &self.rels {
                for t in d.tuples(&n.rel) {
                    if !t.contains(a) {
                        continue;
                    }
                    if !d.contains_tuple(&n.sent_fact, t) {
                        step.snd.insert_tuple(&n.msg, t.clone());
                        step.ins.insert_tuple(&n.sent_fact, t.clone());
                    }
                    // Has `requester` acknowledged this fact?
                    ack_key.clear();
                    ack_key.push(requester.clone());
                    ack_key.extend(t.iter().cloned());
                    let acked = d.contains_tuple(&n.recv_ack, &ack_key)
                        || d.contains_tuple(&n.ack, &ack_key);
                    if !acked {
                        all_acked = false;
                    }
                }
            }
            if all_acked {
                let ok_key = [requester.clone(), a.clone()];
                if !d.contains_tuple(&p.sent_ok, &ok_key) {
                    step.snd.insert_tuple(&p.ok, ok_key.to_vec());
                    step.ins.insert_tuple(&p.sent_ok, ok_key.to_vec());
                }
            }
        }

        // 6. Acknowledge every collected fact (once).
        for n in &self.rels {
            for t in collected.tuples(&n.rel) {
                if !d.contains_tuple(&n.sent_ack, t) {
                    let mut ack = Vec::with_capacity(t.len() + 1);
                    ack.push(me.clone());
                    ack.extend(t.iter().cloned());
                    step.snd.insert_tuple(&n.ack, ack);
                    step.ins.insert_tuple(&n.sent_ack, t.clone());
                }
            }
        }

        // 7. Determined values; output Q on the ready components.
        let determined = |a: &Value| {
            myadom.binary_search(a).is_ok() && (owned.contains(a) || got_ok.contains(a))
        };
        let all_ready = collected
            .relation_names()
            .all(|r| collected.tuples(r).flatten().all(determined));
        let answer = if all_ready {
            self.query.eval(&collected)
        } else {
            let mut ready = Instance::new();
            for component in components(&collected) {
                if component.adom().iter().all(determined) {
                    ready.extend(component.facts());
                }
            }
            self.query.eval(&ready)
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
    use crate::policy::DomainGuidedPolicy;
    use crate::runtime::{run, verify_computes, Scheduler, TransducerNetwork};
    use crate::schema::SystemConfig;
    use crate::strategy::expected_output;
    use calm_common::generator::{chain_game, cycle_game, path};
    use calm_common::value::Value;
    use calm_queries::qtc::qtc_datalog;
    use calm_queries::winmove::win_move;

    #[test]
    fn computes_win_move_under_domain_guidance() {
        // The paper's headline: the non-monotone win-move query computed
        // coordination-free in the domain-guided model.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3).union(&cycle_game(10, 3));
        let expected = expected_output(t.query(), &input);
        for n in [1, 2, 4] {
            let policy = DomainGuidedPolicy::new(Network::of_size(n));
            let tn = TransducerNetwork {
                transducer: &t,
                policy: &policy,
                config: SystemConfig::POLICY_AWARE,
            };
            verify_computes(
                &tn,
                &input,
                &expected,
                &[Scheduler::RoundRobin, Scheduler::random(5, 60)],
                100_000,
            )
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn computes_qtc_under_domain_guidance() {
        // Q_TC ∈ Mdisjoint (Theorem 3.1): the strategy computes it.
        let t = DisjointStrategy::new(Box::new(qtc_datalog()));
        let input = path(3);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 100_000).unwrap();
    }

    #[test]
    fn computes_without_all_relation() {
        // Theorem 4.5 (A2 = Mdisjoint): same transducer, no All.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE_NO_ALL,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 100_000).unwrap();
    }

    #[test]
    fn heartbeat_witness_on_ideal_assignment() {
        // Coordination-freeness: assign every value to x; x answers in
        // heartbeats alone.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3);
        let expected = expected_output(t.query(), &input);
        let net = Network::of_size(3);
        let x = Value::str("n1");
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let steps = crate::coordination::heartbeat_witness(&tn, &input, &x, &expected, 10)
            .expect("heartbeat-only witness");
        assert!(steps <= 2);
    }

    #[test]
    fn wrong_under_non_domain_guided_policy() {
        // The strategy's soundness rests on "responsible for a ⇒ holds
        // every fact containing a", which only domain-guided policies
        // guarantee. Build a pathological (legal, but not domain-guided)
        // policy: diagonal facts move(a,a) — the responsibility probes —
        // all map to n3, while real facts are split between n1 and n2.
        // Every value then "belongs" to n3, which holds nothing and
        // happily OKs every request, so n1 concludes its lone fact is a
        // complete component and outputs a wrong win.
        struct Pathological {
            network: Network,
        }
        impl crate::policy::DistributionPolicy for Pathological {
            fn network(&self) -> &Network {
                &self.network
            }
            fn assign(&self, fact: &calm_common::fact::Fact) -> std::collections::BTreeSet<Value> {
                let args = fact.args();
                let target = if args[0] == args[1] {
                    "n3"
                } else if args[0] == Value::Int(0) {
                    "n1"
                } else {
                    "n2"
                };
                std::collections::BTreeSet::from([Value::str(target)])
            }
        }
        let t = DisjointStrategy::new(Box::new(win_move()));
        // Game 0 -> 1 -> 2: true answer win(1). With move(0,1) alone, n1
        // wrongly concludes win(0).
        let input = chain_game(0, 2);
        let expected = expected_output(t.query(), &input);
        let policy = Pathological {
            network: Network::of_size(3),
        };
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(
            !r.quiescent || r.output != expected,
            "a non-domain-guided policy must break the strategy (got {:?})",
            r.output
        );
    }

    #[test]
    fn works_with_replicated_domain_assignments() {
        // The paper allows α(a) with several owners ("possibly with
        // replication"); the protocol must stay correct when every value
        // has two responsible nodes.
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4).union(&cycle_game(30, 3));
        let expected = expected_output(t.query(), &input);
        let policy = crate::policy::ReplicatedDomainPolicy::new(Network::of_size(4), 2);
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(
            &tn,
            &input,
            &expected,
            &[Scheduler::RoundRobin, Scheduler::random(8, 80)],
            500_000,
        )
        .unwrap();
    }

    #[test]
    fn protocol_message_kinds_appear() {
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 4);
        let policy = DomainGuidedPolicy::new(Network::of_size(3));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(r.quiescent);
        // The protocol used requests and OKs (multi-node, split values).
        assert!(r.metrics.messages_sent > 0);
    }

    #[test]
    fn nullary_encoding_under_domain_guidance() {
        // Section 7: nullary facts (encoded over the ⊥ marker) must be
        // assigned to all nodes in a domain-guided policy. With the
        // marker's α(⊥) = N, the strategy computes the query.
        use calm_datalog::nullary::{encode_source, marker};
        let src = encode_source("@output O.\nO(x,y) :- E(x,y), Enabled().");
        let q = calm_datalog::DatalogQuery::parse("flagged", &src).unwrap();
        let t = DisjointStrategy::new(Box::new(q));
        let input =
            calm_datalog::parse_facts(&encode_source("E(1,2). E(2,3). Enabled().")).unwrap();
        let expected = expected_output(t.query(), &input);
        assert_eq!(expected.len(), 2, "Enabled() gates the copy");
        let net = Network::of_size(3);
        let policy = DomainGuidedPolicy::new(net.clone())
            .with_value_assignment(marker(), net.nodes().cloned());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        verify_computes(&tn, &input, &expected, &[Scheduler::RoundRobin], 200_000).unwrap();
        // Without the flag, nothing is output.
        let bare = calm_datalog::parse_facts("E(1,2).").unwrap();
        let r = run(&tn, &bare, &Scheduler::RoundRobin, 200_000);
        assert!(r.quiescent && r.output.is_empty());
    }

    #[test]
    fn single_node_network_needs_no_protocol() {
        let t = DisjointStrategy::new(Box::new(win_move()));
        let input = chain_game(0, 3);
        let expected = expected_output(t.query(), &input);
        let policy = DomainGuidedPolicy::new(Network::of_size(1));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::POLICY_AWARE,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 1_000);
        assert!(r.quiescent);
        assert_eq!(r.output, expected);
        assert_eq!(r.metrics.messages_sent, 0);
    }
}
