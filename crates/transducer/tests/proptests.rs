//! Property tests for the transducer substrate: multiset laws, policy
//! totality and replication invariants, and the safety restriction on
//! system facts (Section 4.1.3: `policy_R` only over known values), and
//! the per-node cache of system facts against recomputation.
//!
//! Deterministic seeded loops over [`calm_common::rng::Rng`].

use calm_common::fact::{fact, Fact};
use calm_common::instance::Instance;
use calm_common::rng::Rng;
use calm_common::schema::Schema;
use calm_common::value::{v, Value};
use calm_transducer::system_facts::{system_facts, SystemFacts};
use calm_transducer::{
    distribute, policy_relation, DistributionPolicy, DomainGuidedPolicy, HashPolicy, Multiset,
    Network, ParityFirstAttributePolicy, ReplicatedDomainPolicy, SystemConfig,
};

const CASES: u64 = 64;

fn edge_instance(r: &mut Rng) -> Instance {
    let mut i = Instance::new();
    for _ in 0..r.gen_range(0..10usize) {
        i.insert(fact("E", [r.gen_range(0..6i64), r.gen_range(0..6i64)]));
    }
    i
}

fn small_vec(r: &mut Rng, max_val: i64, max_len: usize) -> Vec<i64> {
    (0..r.gen_range(0..max_len))
        .map(|_| r.gen_range(0..max_val))
        .collect()
}

// ---------- Multiset laws ----------

#[test]
fn multiset_insert_remove_roundtrip() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let items = small_vec(&mut r, 5, 20);
        let mut m: Multiset<i64> = items.iter().copied().collect();
        assert_eq!(m.len(), items.len(), "seed {seed}");
        for x in &items {
            assert!(m.remove_one(x), "seed {seed}");
        }
        assert!(m.is_empty(), "seed {seed}");
    }
}

#[test]
fn multiset_subtract_bounds() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let a = small_vec(&mut r, 4, 12);
        let b = small_vec(&mut r, 4, 12);
        let mut m: Multiset<i64> = a.iter().copied().collect();
        let n: Multiset<i64> = b.iter().copied().collect();
        let before = m.len();
        m.subtract(&n);
        assert!(m.len() <= before, "seed {seed}");
        // Element-wise: count is max(0, a_count - b_count).
        for x in 0..4i64 {
            let expect = a
                .iter()
                .filter(|&&y| y == x)
                .count()
                .saturating_sub(b.iter().filter(|&&y| y == x).count());
            assert_eq!(m.count(&x), expect, "seed {seed}");
        }
    }
}

// ---------- Policy invariants ----------

#[test]
fn distribution_covers_every_fact() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let i = edge_instance(&mut r);
        let n = r.gen_range(1..5usize);
        let policy = HashPolicy::new(Network::of_size(n));
        let dist = distribute(&policy, &i);
        // Every input fact is somewhere; nothing extra appears.
        let mut union = Instance::new();
        for part in dist.values() {
            union.extend(part.facts());
        }
        assert_eq!(union, i, "seed {seed}");
    }
}

#[test]
fn domain_guided_owner_holds_all_its_values_facts() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let i = edge_instance(&mut r);
        let n = r.gen_range(1..5usize);
        let policy = DomainGuidedPolicy::new(Network::of_size(n));
        let dist = distribute(&policy, &i);
        for f in i.facts() {
            for val in f.values() {
                for owner in policy.domain_assignment(val) {
                    assert!(
                        dist[&owner].contains(&f),
                        "seed {seed}: owner of {val} must hold {f}"
                    );
                }
            }
        }
    }
}

#[test]
fn replicated_policy_alpha_size() {
    for seed in 0..CASES {
        let mut r = Rng::seed_from_u64(seed);
        let n = r.gen_range(2..6usize);
        let val = r.gen_range(0..100i64);
        let k = 2usize.min(n);
        let policy = ReplicatedDomainPolicy::new(Network::of_size(n), k);
        assert_eq!(policy.domain_assignment(&v(val)).len(), k, "seed {seed}");
    }
}

// ---------- System facts safety restriction ----------

#[test]
fn policy_relations_bounded_by_known_values() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        // The paper's safety restriction: policy_R tuples range only over
        // A = N ∪ adom(J).
        let net = Network::of_size(2);
        let policy = HashPolicy::new(net.clone());
        let schema = Schema::from_pairs([("E", 2)]);
        let x = net.first().clone();
        let s = system_facts(&x, &net, &schema, &policy, SystemConfig::POLICY_AWARE, &i);
        let mut allowed = i.adom();
        allowed.extend(net.nodes().cloned());
        for t in s.tuples("policy_E") {
            for val in t {
                assert!(allowed.contains(val), "seed {seed}: {val} outside A");
            }
        }
        // MyAdom is exactly A.
        let myadom: std::collections::BTreeSet<_> =
            s.tuples("MyAdom").map(|t| t[0].clone()).collect();
        assert_eq!(myadom, allowed, "seed {seed}");
    }
}

#[test]
fn policy_truthful_about_assignments() {
    for seed in 0..CASES {
        let i = edge_instance(&mut Rng::seed_from_u64(seed));
        // Every policy_R(ā) shown to x really is assigned to x, and every
        // E-tuple over A assigned to x is shown.
        let net = Network::of_size(3);
        let policy = HashPolicy::new(net.clone());
        let schema = Schema::from_pairs([("E", 2)]);
        for x in net.nodes() {
            let s = system_facts(x, &net, &schema, &policy, SystemConfig::POLICY_AWARE, &i);
            for t in s.tuples("policy_E") {
                let f = Fact::new("E", t.clone());
                assert!(policy.assign(&f).contains(x), "seed {seed}");
            }
        }
    }
}

// ---------- System facts cache ----------

/// `S` straight from its definition: `A = N ∪ adom(J)` (or
/// `{x} ∪ adom(J)` without `All`), then every part the configuration
/// enables.
fn system_facts_by_definition(
    x: &Value,
    net: &Network,
    schema: &Schema,
    policy: &dyn DistributionPolicy,
    config: SystemConfig,
    visible: &Instance,
) -> Instance {
    let mut s = Instance::new();
    if config.include_id {
        s.insert(Fact::new("Id", vec![x.clone()]));
    }
    if config.include_all {
        for y in net.nodes() {
            s.insert(Fact::new("All", vec![y.clone()]));
        }
    }
    if !config.policy_relations {
        return s;
    }
    let mut a = visible.adom();
    if config.include_all {
        a.extend(net.nodes().cloned());
    } else {
        a.insert(x.clone());
    }
    let a: Vec<Value> = a.into_iter().collect();
    for val in &a {
        s.insert(Fact::new("MyAdom", vec![val.clone()]));
    }
    for (r, arity) in schema.iter() {
        let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
        for _ in 0..arity {
            tuples = tuples
                .into_iter()
                .flat_map(|t| {
                    a.iter().map(move |val| {
                        let mut t = t.clone();
                        t.push(val.clone());
                        t
                    })
                })
                .collect();
        }
        for t in tuples {
            if policy.assign(&Fact::new(r.as_ref(), t.clone())).contains(x) {
                s.insert(Fact::new(policy_relation(r), t));
            }
        }
    }
    s
}

/// A seeded sequence of visible instances whose known values grow,
/// repeat and shrink: each step adds facts (often over new values,
/// node names among them), keeps the instance, swaps in facts over the
/// values already present, or drops facts.
fn visible_sequence(seed: u64, nodes: &Network) -> Vec<Instance> {
    let mut r = Rng::seed_from_u64(seed);
    let node_values: Vec<Value> = nodes.nodes().cloned().collect();
    let value = |r: &mut Rng| -> Value {
        if r.gen_bool(0.15) {
            node_values[r.gen_range(0..node_values.len())].clone()
        } else if r.gen_bool(0.2) {
            Value::str(format!("s{}", r.gen_range(0..3u64)))
        } else {
            v(r.gen_range(0..7i64))
        }
    };
    let mut j = Instance::new();
    let mut out = Vec::new();
    for _ in 0..14 {
        match r.gen_range(0..4u8) {
            0 => {
                for _ in 0..r.gen_range(1..4usize) {
                    let f = match r.gen_range(0..3u8) {
                        0 => Fact::new("V", vec![value(&mut r)]),
                        1 => Fact::new("E", vec![value(&mut r), value(&mut r)]),
                        _ => Fact::new("M", vec![value(&mut r), value(&mut r)]),
                    };
                    j.insert(f);
                }
            }
            1 => {}
            2 => {
                // Same known values, different facts.
                let vals: Vec<Value> = j.adom().into_iter().collect();
                if let Some(a) = r.choose(&vals).cloned() {
                    j.insert(Fact::new("M", vec![a.clone(), a]));
                }
            }
            _ => {
                let facts: Vec<Fact> = j.facts().collect();
                for f in facts {
                    if r.gen_bool(0.4) {
                        j.remove(&f);
                    }
                }
            }
        }
        out.push(j.clone());
    }
    out
}

#[test]
fn cached_system_facts_equal_recomputation() {
    let configs = [
        SystemConfig::ORIGINAL,
        SystemConfig::POLICY_AWARE,
        SystemConfig::POLICY_AWARE_NO_ALL,
        SystemConfig::ORIGINAL_NO_ALL,
        SystemConfig::OBLIVIOUS,
    ];
    // Input relations of arity 1, 2 and 3. `M` stands for memory and
    // messages: it widens A without being input.
    let schema = Schema::from_pairs([("V", 1), ("E", 2), ("T", 3)]);
    let policies: Vec<Box<dyn DistributionPolicy>> = vec![
        Box::new(HashPolicy::new(Network::of_size(3))),
        Box::new(DomainGuidedPolicy::new(Network::of_size(3))),
        Box::new(ParityFirstAttributePolicy::new(Network::of_size(2))),
    ];
    for seed in 0..16 {
        for policy in &policies {
            let net = policy.network();
            let sequence = visible_sequence(seed, net);
            for config in configs {
                for x in net.nodes() {
                    let mut cache = SystemFacts::default();
                    for (step, j) in sequence.iter().enumerate() {
                        let label = format!("seed {seed} {config:?} node {x} step {step}");
                        let scratch = system_facts(x, net, &schema, policy.as_ref(), config, j);
                        let cached = cache.refresh(x, net, &schema, policy.as_ref(), config, j);
                        assert_eq!(cached, &scratch, "{label}: cached S");
                        let defined =
                            system_facts_by_definition(x, net, &schema, policy.as_ref(), config, j);
                        assert_eq!(scratch, defined, "{label}: S from scratch");
                    }
                }
            }
        }
    }
}
