//! The per-node step core ([`NodeEngine`]) shared by both execution
//! engines: the sequential simulator ([`crate::runtime`]) and the
//! threaded executor (the `calm-net` crate).
//!
//! A transition of node `x` factors into two halves:
//!
//! 1. **delivery** — choose the submultiset `m ⊆ b(x)` and hand the
//!    collapsed set `M` to the node (engine-specific: the sequential
//!    simulator owns every buffer, the threaded executor owns per-node
//!    inboxes fed by channels);
//! 2. **the step itself** — assemble `D = H(x) ∪ s(x) ∪ M ∪ S`, apply
//!    the four queries, fold `out`/`ins`/`del` into the node state, and
//!    emit the messages of `Qsnd` (engine-independent).
//!
//! [`NodeEngine::apply`] is half 2. It owns all the bookkeeping both
//! engines must agree on — per-class message counters, output-growth
//! indices, engine counters, and the per-transition observability
//! event — so the equivalence tests compare engines that differ *only*
//! in scheduling.

use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use crate::schema::SystemConfig;
use crate::strategy::classify_message;
use crate::system_facts::SystemFacts;
use crate::transducer::Transducer;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_obs::{ArgValue, Obs};

/// The engine-independent half of one node's transition: everything
/// after delivery. Construct once per node (it caches the node's obs
/// track, recipient count and system facts) and call
/// [`NodeEngine::apply`] per step.
pub struct NodeEngine<'a> {
    transducer: &'a dyn Transducer,
    policy: &'a dyn DistributionPolicy,
    sys: SystemConfig,
    node: NodeId,
    /// `H(x)` — the node's fragment of the distributed input.
    input: &'a Instance,
    /// Obs display lane: `1 + <node index>` (track 0 is engine-level).
    track: u32,
    /// `|N| - 1`: every sent fact is enqueued once per other node.
    recipients: usize,
    /// `S`, kept across steps with the known-value set it was built
    /// from.
    system: SystemFacts,
}

/// What one [`NodeEngine::apply`] produced, for the caller to route.
#[derive(Debug, Clone, Default)]
pub struct NodeStepOutcome {
    /// Whether the node's state (output ∪ memory) changed.
    pub state_changed: bool,
    /// Whether the node's *output* portion grew.
    pub grew_output: bool,
    /// `Qsnd(D)` — message facts, each to be enqueued at every other
    /// node (already counted in the metrics; the caller only routes).
    pub sent: Vec<Fact>,
}

impl<'a> NodeEngine<'a> {
    /// Build the step core for one node. `input` is `H(x)`, the node's
    /// fragment of `dist_P(I)`.
    pub fn new(
        transducer: &'a dyn Transducer,
        policy: &'a dyn DistributionPolicy,
        sys: SystemConfig,
        node: NodeId,
        input: &'a Instance,
    ) -> Self {
        let track = policy
            .network()
            .nodes()
            .position(|n| n == &node)
            .map_or(0, |i| i as u32 + 1);
        let recipients = policy.network().len() - 1;
        NodeEngine {
            transducer,
            policy,
            sys,
            node,
            input,
            track,
            recipients,
            system: SystemFacts::default(),
        }
    }

    /// The node this engine steps.
    pub fn node(&self) -> &NodeId {
        &self.node
    }

    /// The obs display lane (`1 + <node index>`).
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Execute the post-delivery half of one transition on `state`.
    ///
    /// `delivered` is the collapsed set `M` (distinct facts);
    /// `delivered_occurrences` is `|m|`, the multiset occurrences the
    /// caller consumed (already added to `metrics.messages_delivered` by
    /// the caller — it is passed here only for the observability event).
    /// Increments `metrics.transitions`, counts sends per class, tracks
    /// output growth, and emits the per-transition `runtime/transition`
    /// event with per-class counter deltas to `obs`.
    ///
    /// `sent_filter`, when present, is this node's set of every message
    /// fact it ever sent: facts already in the set are suppressed (not
    /// returned, not counted), fresh facts are added. The threaded
    /// executor passes it so the message flow is finite and its
    /// termination-detection ring can conclude — sound for the same
    /// reason the sequential engine's quiescence detection is (states
    /// accumulate everything they react to, so a re-delivered fact is a
    /// no-op at every receiver). The sequential engine passes `None`:
    /// its delivered-set bookkeeping lives in [`crate::runtime::run`].
    pub fn apply(
        &mut self,
        state: &mut Instance,
        delivered: &[Fact],
        delivered_occurrences: usize,
        mut sent_filter: Option<&mut std::collections::BTreeSet<Fact>>,
        metrics: &mut crate::runtime::Metrics,
        obs: &Obs,
    ) -> NodeStepOutcome {
        metrics.transitions += 1;

        // D = H(x) ∪ s(x) ∪ M ∪ S, built once. The four parts are over
        // disjoint schemas, so each relation is added in bulk.
        let mut d = state.clone();
        absorb(&mut d, self.input);
        d.extend(delivered.iter().cloned());
        let s = self.system.refresh(
            &self.node,
            self.policy.network(),
            &self.transducer.schema().input,
            self.policy,
            self.sys,
            &d,
        );
        absorb(&mut d, s);

        let step = self.transducer.step(&d);
        drop(d);
        metrics.eval.merge(&step.metrics);

        // Update state: cumulative output, insert/delete memory. Change
        // tracking is incremental (insert/remove return whether they had
        // an effect) — no state snapshot.
        let schema = self.transducer.schema();
        let mut state_changed = false;
        let mut grew_output = false;
        let mut new_output: Vec<String> = Vec::new();
        for f in step.out.facts() {
            debug_assert!(schema.output.covers(&f), "Qout must target Υout: {f}");
            if obs.enabled() && !state.contains(&f) {
                new_output.push(f.to_string());
            }
            if state.insert(f) {
                state_changed = true;
                grew_output = true;
            }
        }
        // A fact both inserted and deleted is neither.
        let (ins, del) = if step.del.is_empty() {
            (step.ins, step.del)
        } else {
            (
                step.ins.difference(&step.del),
                step.del.difference(&step.ins),
            )
        };
        for f in ins.facts() {
            debug_assert!(schema.mem.covers(&f), "Qins must target Υmem: {f}");
            if state.insert(f) {
                state_changed = true;
            }
        }
        for f in del.facts() {
            if state.remove(&f) {
                state_changed = true;
            }
        }

        // Count the sends: one occurrence per (fact, recipient) pair.
        let mut sent = Vec::with_capacity(step.snd.len());
        let class_before = metrics.by_class;
        for f in step.snd.facts() {
            debug_assert!(schema.msg.covers(&f), "Qsnd must target Υmsg: {f}");
            if let Some(filter) = sent_filter.as_deref_mut() {
                if !filter.insert(f.clone()) {
                    continue;
                }
            }
            metrics
                .by_class
                .record(classify_message(&f), self.recipients);
            sent.push(f);
        }
        let sent_n = sent.len() * self.recipients;
        metrics.messages_sent += sent_n;

        // Output growth bookkeeping (transition index is 1-based and was
        // incremented above).
        if grew_output {
            if metrics.first_output_at.is_none() {
                metrics.first_output_at = Some(metrics.transitions);
            }
            metrics.last_output_growth_at = Some(metrics.transitions);
        }

        if obs.enabled() {
            obs.event("runtime", "transition", self.track, || {
                vec![
                    ("node", ArgValue::Str(self.node.to_string())),
                    ("delivered", ArgValue::U64(delivered_occurrences as u64)),
                    ("sent", ArgValue::U64(sent_n as u64)),
                    ("state_changed", ArgValue::Bool(state_changed)),
                    ("new_output", ArgValue::List(new_output)),
                ]
            });
            if delivered_occurrences > 0 {
                obs.counter(
                    "runtime",
                    "messages.delivered",
                    delivered_occurrences as u64,
                );
                obs.histogram("runtime", "delivered_batch", delivered_occurrences as u64);
            }
            if sent_n > 0 {
                obs.counter("runtime", "messages.sent", sent_n as u64);
                for ((label, now), (_, was)) in metrics
                    .by_class
                    .as_pairs()
                    .iter()
                    .zip(class_before.as_pairs().iter())
                {
                    if now > was {
                        obs.counter("strategy", &format!("messages.{label}"), (now - was) as u64);
                    }
                }
            }
        }

        NodeStepOutcome {
            state_changed,
            grew_output,
            sent,
        }
    }
}

/// Add every fact of `other` to `d`, one bulk extension per relation.
fn absorb(d: &mut Instance, other: &Instance) {
    for r in other.relation_names() {
        d.extend_relation(r, other.tuples(r).cloned().collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::policy::HashPolicy;
    use crate::runtime::Metrics;
    use crate::schema::TransducerSchema;
    use crate::strategy::MonotoneBroadcast;
    use calm_common::fact::fact;
    use calm_common::schema::Schema;
    use calm_queries::tc::tc_datalog;

    #[test]
    fn apply_counts_sends_per_recipient() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let x = net.first().clone();
        let mut engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut state = Instance::new();
        let mut metrics = Metrics::default();
        let outcome = engine.apply(&mut state, &[], 0, None, &mut metrics, &Obs::noop());
        assert!(outcome.state_changed);
        assert!(outcome.grew_output);
        // One broadcast fact, two other nodes.
        assert_eq!(outcome.sent.len(), 1);
        assert_eq!(metrics.messages_sent, 2);
        assert_eq!(metrics.by_class.fact, 2);
        assert_eq!(metrics.transitions, 1);
        assert_eq!(metrics.first_output_at, Some(1));
    }

    #[test]
    fn apply_reaches_local_fixpoint() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let x = net.first().clone();
        let mut engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, x, &input);
        let mut state = Instance::new();
        let mut metrics = Metrics::default();
        let first = engine.apply(&mut state, &[], 0, None, &mut metrics, &Obs::noop());
        assert!(first.state_changed);
        // Repeating with no new deliveries converges: the second step
        // changes nothing and sends nothing (the strategy remembers what
        // it broadcast).
        let second = engine.apply(&mut state, &[], 0, None, &mut metrics, &Obs::noop());
        assert!(!second.state_changed);
        assert!(second.sent.is_empty());
    }

    #[test]
    fn track_is_one_plus_node_index() {
        let t = MonotoneBroadcast::new(Box::new(tc_datalog()));
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let input = Instance::new();
        for (i, n) in net.nodes().enumerate() {
            let engine = NodeEngine::new(&t, &policy, SystemConfig::ORIGINAL, n.clone(), &input);
            assert_eq!(engine.track(), i as u32 + 1);
        }
        let _ = TransducerSchema::new(Schema::new(), Schema::new(), Schema::new(), Schema::new());
    }
}
