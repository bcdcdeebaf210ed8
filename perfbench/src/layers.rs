//! The per-layer metrics of a traced run. Each layer is measured on the
//! workload's own data: its program and first input graph, its network
//! rounds, and a network-sized graph of its seed for the layers the
//! workload itself does not enter — so the figures a change should leave
//! flat are measured too.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::rng::Rng;
use calm_common::storage::{load_instance, EvalMetrics, SharedSymbols, Storage};
use calm_common::value::Value;
use calm_datalog::eval::{
    eval_stratification_shared_obs, CompiledProgram, Database, Engine, EvalOptions, ValuationQuery,
};
use calm_datalog::{parse_facts, parse_rule, DatalogQuery, UpdateStats};
use calm_net::transport::{read_frame, write_frame, FrameError};
use calm_net::wirefmt;
use calm_obs::Obs;
use calm_transducer::{
    distribute, run, transition, Configuration, Delivery, Metrics, Multiset, NodeId, Scheduler,
    TransducerNetwork,
};

use crate::collect::{self, Collector, SpanRec};
use crate::gen::{self, family_programs};
use crate::stats::{median, ratio};
use crate::workloads::netrun::{
    build_family, round, run_family, Case, Engine as NetEngine, RoundRecord,
};
use crate::{Metric, Sizes};

/// Every per-layer metric, in report order: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.load_ns_per_fact", "ns"),
    ("storage.seal_us", "us"),
    ("storage.probe_ns", "ns"),
    ("storage.bytes_moved", "B"),
    ("storage.dead_row_ratio", "ratio"),
    ("join.ns_per_valuation", "ns"),
    ("join.hits_per_index_probe", "ratio"),
    ("join.hits_per_merge_probe", "ratio"),
    ("join.atoms_merge", "count"),
    ("join.atoms_hash", "count"),
    ("join.atoms_scan", "count"),
    ("seminaive.iterations", "count"),
    ("seminaive.derivations_per_new_fact", "ratio"),
    ("seminaive.ns_per_derivation", "ns"),
    ("seminaive.rule_ms", "ms"),
    ("seminaive.self_ms", "ms"),
    ("dred.ns_per_derivation", "ns"),
    ("dred.derivations_per_batch", "count"),
    ("dred.retractions_per_batch", "count"),
    ("dred.rederived_per_retracted", "ratio"),
    ("dred.vs_scratch", "ratio"),
    ("transducer.step_us", "us"),
    ("transducer.heartbeat_ratio", "ratio"),
    ("transducer.derivations_per_step", "count"),
    ("strategy.monotone_ms", "ms"),
    ("strategy.distinct_ms", "ms"),
    ("strategy.disjoint_ms", "ms"),
    ("strategy.messages.fact", "count"),
    ("strategy.messages.absence", "count"),
    ("strategy.messages.value", "count"),
    ("strategy.messages.request", "count"),
    ("strategy.messages.ok", "count"),
    ("strategy.messages.ack", "count"),
    ("executor.x1_vs_sequential", "ratio"),
    ("executor.max_queue_depth", "count"),
    ("wirefmt.encode_ns_per_fact", "ns"),
    ("wirefmt.decode_ns_per_fact", "ns"),
    ("wirefmt.encode_naive_ns_per_fact", "ns"),
    ("wirefmt.decode_naive_ns_per_fact", "ns"),
    ("wirefmt.bytes_per_fact", "B"),
    ("wirefmt.delta_vs_naive_bytes", "ratio"),
    ("wirefmt.wire_kb_per_round", "KiB"),
    ("faults.attempts_per_delivered", "ratio"),
    ("faults.retransmissions", "count"),
    ("faults.acks_sent", "count"),
    ("faults.snapshots", "count"),
    ("faults.duplicates_suppressed", "count"),
    ("faults.wire_kb", "KiB"),
    ("faults.armed_overhead", "ratio"),
    ("transport.frame_write_ns_per_kb", "ns"),
    ("transport.frame_read_ns_per_kb", "ns"),
    ("transport.loopback_rtt_us", "us"),
    ("transport.process_vs_threaded", "ratio"),
    ("termination.token_passes", "count"),
    ("termination.detect_ms", "ms"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.unattributed_share", "ratio"),
];

/// One maintained batch: its time, the from-scratch time of the same
/// updated input, and the maintenance counters.
struct BatchRecord {
    /// Batch time, in milliseconds.
    pub ms: f64,
    /// From-scratch evaluation of the updated input, in milliseconds.
    pub scratch_ms: f64,
    /// The batch's counters.
    pub stats: UpdateStats,
}

/// What the layer probes run on.
pub struct Probe<'a> {
    /// The workload's program.
    pub program: &'a str,
    /// The workload's first input graph.
    pub edb: &'a Instance,
    /// A network-sized graph of the seed, as a fact file.
    pub net_graph: &'a str,
    /// The net workloads: the traced rounds and their termination gaps.
    pub rounds: Option<(&'a [RoundRecord], &'a [u64])>,
}

fn metric(name: &str, value: f64, samples: usize) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
    Metric::new(name, unit, value, samples)
}

/// Every layer probe; `obs.*` is added by the caller.
pub fn standard(p: &Probe<'_>, sizes: &Sizes, seed: u64) -> Vec<Metric> {
    let mut out = eval_layers(p.program, p.edb, sizes.probe_reps);
    out.extend(dred_layers(p.edb, sizes, seed));
    let net_input = parse_facts(p.net_graph).expect("generated facts parse");
    out.extend(transducer_layers(&net_input, sizes.process_nodes));
    let probed_rounds;
    let (rounds, detect) = match p.rounds {
        Some(r) => r,
        None => {
            probed_rounds = probe_rounds(p.net_graph, sizes);
            (&probed_rounds.0[..], &probed_rounds.1[..])
        }
    };
    out.extend(round_layers(rounds, detect));
    out.extend(engine_ratios(p.net_graph, &net_input, sizes, seed));
    let payloads = wire_layers(rounds, &mut out);
    out.extend(transport_layers(&payloads));
    out
}

/// storage, join and seminaive: fixpoints of the workload's program over
/// its input, and the storage and join kernels timed on the materialized
/// relations.
fn eval_layers(program: &str, edb: &Instance, reps: usize) -> Vec<Metric> {
    let q = DatalogQuery::parse("probe", program).expect("workload program compiles");
    let strat = q.stratification();
    let mut per_rep: Vec<[f64; 3]> = Vec::new();
    let mut stats = EvalMetrics::default();
    let mut materialized = Instance::new();
    for _ in 0..reps.max(1) {
        // Timed untraced; the spans come from a traced evaluation after.
        let start = Instant::now();
        let (inst, strata) = eval_stratification_shared_obs(
            strat,
            edb,
            Engine::SemiNaive,
            SharedSymbols::new(),
            &Obs::noop(),
        );
        let ns = start.elapsed().as_nanos() as f64;
        stats = EvalMetrics::default();
        for s in &strata {
            stats.merge(s);
        }
        let (collector, obs) = Collector::new();
        eval_stratification_shared_obs(strat, edb, Engine::SemiNaive, SharedSymbols::new(), &obs);
        let spans = collector.spans();
        let rule_us: u64 = spans
            .iter()
            .filter(|s| s.cat == "eval.rule")
            .map(SpanRec::dur)
            .sum();
        let parents = collect::parents(&spans);
        let self_us: u64 = collect::self_times(&spans, &parents)
            .iter()
            .zip(&spans)
            .filter(|(_, s)| s.cat == "eval")
            .map(|(t, _)| *t)
            .sum();
        per_rep.push([
            ratio(ns, stats.derivations as f64),
            rule_us as f64 / 1e3,
            self_us as f64 / 1e3,
        ]);
        materialized = inst;
    }
    let col = |i: usize| median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>());
    let n = per_rep.len();
    let mut out = vec![
        metric("seminaive.iterations", stats.iterations as f64, 1),
        metric(
            "seminaive.derivations_per_new_fact",
            ratio(stats.derivations as f64, stats.new_facts as f64),
            1,
        ),
        metric("seminaive.ns_per_derivation", col(0), n),
        metric("seminaive.rule_ms", col(1), n),
        metric("seminaive.self_ms", col(2), n),
        metric("storage.bytes_moved", stats.bytes_moved as f64, 1),
        metric(
            "join.hits_per_index_probe",
            ratio(stats.index_hits as f64, stats.index_probes as f64),
            1,
        ),
        metric(
            "join.hits_per_merge_probe",
            ratio(stats.merge_hits as f64, stats.merge_probes as f64),
            1,
        ),
    ];
    let mut counts = [0usize; 3];
    let symbols = SharedSymbols::new();
    for stratum in &strat.strata {
        let cp = CompiledProgram::new(stratum, &mut symbols.write(), EvalOptions::default());
        let (m, h, s) = cp.strategy_counts();
        counts[0] += m;
        counts[1] += h;
        counts[2] += s;
    }
    out.push(metric("join.atoms_merge", counts[0] as f64, 1));
    out.push(metric("join.atoms_hash", counts[1] as f64, 1));
    out.push(metric("join.atoms_scan", counts[2] as f64, 1));
    out.extend(storage_kernels(&materialized, reps));
    out.push(valuation_kernel(&materialized, reps));
    out
}

/// `load_instance`, `Relation::ensure_sorted` and `Relation::probe` on
/// the materialized relations.
fn storage_kernels(materialized: &Instance, reps: usize) -> Vec<Metric> {
    let facts = materialized.len().max(1) as f64;
    let (mut load, mut seal, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let symbols = SharedSymbols::new();
        let mut storage = Storage::new();
        let start = Instant::now();
        load_instance(materialized, &symbols, &mut storage);
        load.push(start.elapsed().as_nanos() as f64 / facts);
        let rels: Vec<_> = storage.rel_ids().collect();
        let start = Instant::now();
        for &r in &rels {
            storage.relation_mut(r).ensure_sorted();
        }
        seal.push(start.elapsed().as_nanos() as f64 / 1e3);
        for &r in &rels {
            storage.relation_mut(r).ensure_index(0);
        }
        let (mut probes, mut hits) = (0usize, 0usize);
        let start = Instant::now();
        for &r in &rels {
            let rel = storage.relation(r).expect("listed relation");
            for row in rel.rows() {
                probes += 1;
                hits += rel.probe(0, row[0]).map_or(0, <[u32]>::len);
            }
        }
        std::hint::black_box(hits);
        probe.push(ratio(start.elapsed().as_nanos() as f64, probes as f64));
    }
    let n = load.len();
    vec![
        metric("storage.load_ns_per_fact", median(&load), n),
        metric("storage.seal_us", median(&seal), n),
        metric("storage.probe_ns", median(&probe), n),
    ]
}

/// `ValuationQuery::eval` of the recursive TC body over the
/// materialized database.
fn valuation_kernel(materialized: &Instance, reps: usize) -> Metric {
    let rule = parse_rule("T(x,z) :- T(x,y), E(y,z).").expect("TC body parses");
    let symbols = SharedSymbols::new();
    let vq = ValuationQuery::new(&rule, &mut symbols.write());
    let db = Database::from_instance_with(materialized, symbols);
    let mut per = Vec::new();
    for _ in 0..reps.max(1) {
        let mut m = EvalMetrics::default();
        let start = Instant::now();
        let rows = vq.eval(&db, &mut m);
        per.push(ratio(start.elapsed().as_nanos() as f64, rows.len() as f64));
    }
    metric("join.ns_per_valuation", median(&per), per.len())
}

/// dred and the tombstone share: a maintained TC session
/// (`DatalogQuery::open`) over `edb` folds seeded batches of `batch_side`
/// deletions of live edges and as many fresh insertions, each timed
/// against a from-scratch evaluation of the same updated input.
fn dred_layers(edb: &Instance, sizes: &Sizes, seed: u64) -> Vec<Metric> {
    let q = calm_queries::tc::tc_datalog();
    let edges: Vec<gen::Edge> = edb
        .tuples("E")
        .filter_map(|t| match (&t[0], &t[1]) {
            (Value::Int(a), Value::Int(b)) => Some((*a, *b)),
            _ => None,
        })
        .collect();
    let vertices = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(2) as usize;
    let mut rng = Rng::seed_from_u64(seed ^ 0xD8ED);
    let stream = gen::update_stream(
        &mut rng,
        &edges,
        vertices,
        sizes.probe_reps,
        sizes.batch_side,
    );
    let batches = calm_datalog::parse_updates(&gen::render_updates(&stream))
        .expect("generated updates parse");
    let mut current = edb.clone();
    let mut session = q.open(&current);
    let records: Vec<BatchRecord> = batches
        .iter()
        .map(|b| {
            let start = Instant::now();
            let stats = session.apply(b);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            b.apply_to_instance(&mut current);
            let start = Instant::now();
            std::hint::black_box(q.eval(&current));
            let scratch_ms = start.elapsed().as_secs_f64() * 1e3;
            BatchRecord {
                ms,
                scratch_ms,
                stats,
            }
        })
        .collect();
    let storage = session.database().storage();
    let (dead, live) = storage.rel_ids().fold((0, 0), |(d, l), r| {
        let rel = storage.relation(r).expect("listed relation");
        (d + rel.dead_rows(), l + rel.len())
    });
    let n = records.len();
    let sum =
        |f: fn(&UpdateStats) -> usize| records.iter().map(|b| f(&b.stats)).sum::<usize>() as f64;
    let ms: Vec<f64> = records.iter().map(|b| b.ms).collect();
    let scratch: Vec<f64> = records.iter().map(|b| b.scratch_ms).collect();
    let derivations = sum(|s| s.derivations);
    let retractions = sum(|s| s.retractions);
    vec![
        metric("storage.dead_row_ratio", ratio(dead as f64, live as f64), 1),
        metric(
            "dred.ns_per_derivation",
            ratio(ms.iter().sum::<f64>() * 1e6, derivations),
            n,
        ),
        metric(
            "dred.derivations_per_batch",
            ratio(derivations, n as f64),
            n,
        ),
        metric(
            "dred.retractions_per_batch",
            ratio(retractions, n as f64),
            n,
        ),
        metric(
            "dred.rederived_per_retracted",
            ratio(sum(|s| s.rederivations), retractions),
            n,
        ),
        metric("dred.vs_scratch", ratio(median(&ms), median(&scratch)), n),
    ]
}

/// Drive `transition` round-robin over each family's network until two
/// sweeps in a row change no state, timing every call. A node with an
/// empty inbox takes a heartbeat.
fn transducer_layers(input: &Instance, nodes: usize) -> Vec<Metric> {
    let mut steps = Vec::new();
    let mut metrics = Metrics::default();
    for (name, program) in family_programs() {
        let (t, policy, config) = build_family(name, &program, nodes).expect("family builds");
        let tn = TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config,
        };
        let dist = distribute(policy.as_ref(), input);
        let mut conf = Configuration::start(policy.network());
        let ids: Vec<NodeId> = policy.network().nodes().cloned().collect();
        let mut quiet = 0;
        for _ in 0..200 {
            let mut changed = false;
            for x in &ids {
                let delivery = if conf.buffer[x].is_empty() {
                    Delivery::None
                } else {
                    Delivery::All
                };
                let start = Instant::now();
                changed |= transition(&tn, &dist, &mut conf, x, delivery, &mut metrics);
                steps.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
            quiet = if changed { 0 } else { quiet + 1 };
            if quiet == 2 {
                break;
            }
        }
    }
    let n = metrics.transitions as f64;
    vec![
        metric("transducer.step_us", median(&steps), steps.len()),
        metric(
            "transducer.heartbeat_ratio",
            ratio(metrics.heartbeats as f64, n),
            steps.len(),
        ),
        metric(
            "transducer.derivations_per_step",
            ratio(metrics.eval.derivations as f64, n),
            steps.len(),
        ),
    ]
}

/// Traced fault-free rounds on the threaded engine, for the workloads
/// that run no network themselves.
fn probe_rounds(net_graph: &str, sizes: &Sizes) -> (Vec<RoundRecord>, Vec<u64>) {
    let case = Case::new(net_graph, &family_programs(), sizes.process_nodes)
        .expect("case builds")
        .with_oracle();
    let engine = NetEngine::Threaded {
        nodes: sizes.process_nodes,
        workers: sizes.workers,
        faults: None,
    };
    let (collector, obs) = Collector::new();
    let rounds = (0..sizes.probe_reps.max(1))
        .map(|k| {
            collector.begin_op(k as u64);
            round(engine, &case, &obs, |_| 0).0
        })
        .collect();
    (rounds, collector.detect_us())
}

/// strategy, executor queue depth, fault counters and termination, from
/// rounds.
fn round_layers(rounds: &[RoundRecord], detect_us: &[u64]) -> Vec<Metric> {
    let n = rounds.len();
    let per_round = |total: f64| ratio(total, n as f64);
    let mut out = Vec::new();
    for (i, name) in ["monotone", "distinct", "disjoint"].iter().enumerate() {
        let ms: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.family_ms.get(i).copied())
            .collect();
        out.push(metric(
            &format!("strategy.{name}_ms"),
            median(&ms),
            ms.len(),
        ));
    }
    for class in ["fact", "absence", "value", "request", "ok", "ack"] {
        let total: usize = rounds
            .iter()
            .map(|r| r.by_class.get(class).copied().unwrap_or(0))
            .sum();
        out.push(metric(
            &format!("strategy.messages.{class}"),
            per_round(total as f64),
            n,
        ));
    }
    let depth = rounds.iter().map(|r| r.max_queue_depth).max().unwrap_or(0);
    out.push(metric("executor.max_queue_depth", depth as f64, n));
    let fsum = |f: fn(&calm_net::FaultStats) -> u64| {
        rounds.iter().map(|r| f(&r.faults)).sum::<u64>() as f64
    };
    out.push(metric(
        "faults.attempts_per_delivered",
        ratio(fsum(|f| f.attempts), fsum(|f| f.delivered_batches)),
        n,
    ));
    out.push(metric(
        "faults.retransmissions",
        per_round(fsum(|f| f.retransmissions)),
        n,
    ));
    out.push(metric(
        "faults.acks_sent",
        per_round(fsum(|f| f.acks_sent)),
        n,
    ));
    out.push(metric(
        "faults.snapshots",
        per_round(fsum(|f| f.snapshots)),
        n,
    ));
    out.push(metric(
        "faults.duplicates_suppressed",
        per_round(fsum(|f| f.duplicates_suppressed)),
        n,
    ));
    let faulted_bytes: u64 = rounds
        .iter()
        .filter(|r| r.faults.attempts > 0)
        .map(|r| r.wire_bytes)
        .sum();
    out.push(metric(
        "faults.wire_kb",
        per_round(faulted_bytes as f64 / 1024.0),
        n,
    ));
    let bytes: u64 = rounds.iter().map(|r| r.wire_bytes).sum();
    let naive: u64 = rounds.iter().map(|r| r.wire_bytes_naive).sum();
    out.push(metric(
        "wirefmt.wire_kb_per_round",
        per_round(bytes as f64 / 1024.0),
        n,
    ));
    out.push(metric(
        "wirefmt.delta_vs_naive_bytes",
        ratio(bytes as f64, naive as f64),
        n,
    ));
    let passes: u64 = rounds.iter().map(|r| r.token_passes).sum();
    out.push(metric(
        "termination.token_passes",
        per_round(passes as f64),
        n,
    ));
    let detect: Vec<f64> = detect_us.iter().map(|&us| us as f64 / 1e3).collect();
    out.push(metric(
        "termination.detect_ms",
        median(&detect),
        detect.len(),
    ));
    out
}

/// The engine ratios, on the network-sized graph: threaded at one
/// worker against the sequential runtime (monotone TC, as E19), an
/// armed zero-probability fault plan against none, and the process
/// engine against the threaded engine, rounds interleaved.
fn engine_ratios(net_graph: &str, input: &Instance, sizes: &Sizes, seed: u64) -> Vec<Metric> {
    let reps = sizes.probe_reps.max(1);
    let nodes = sizes.process_nodes;
    let case = Case::new(net_graph, &family_programs(), nodes)
        .expect("case builds")
        .with_oracle();
    let noop = Obs::noop();
    let (t, policy, config) =
        build_family("monotone", calm_queries::tc::TC_SRC, nodes).expect("family builds");
    let tn = TransducerNetwork {
        transducer: t.as_ref(),
        policy: policy.as_ref(),
        config,
    };
    let x1 = NetEngine::Threaded {
        nodes,
        workers: 1,
        faults: None,
    };
    let plain = NetEngine::Threaded {
        nodes,
        workers: sizes.workers,
        faults: None,
    };
    let armed = NetEngine::Threaded {
        nodes,
        workers: sizes.workers,
        faults: Some((seed, 0.0)),
    };
    let process = NetEngine::Process {
        nodes,
        workers: sizes.workers,
    };
    let (mut seq, mut thr1, mut pl, mut ar, mut pr) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(run(&tn, input, &Scheduler::RoundRobin, 5_000_000));
        seq.push(start.elapsed().as_secs_f64() * 1e3);
        let one = run_family(x1, &case, 0, &noop).expect("x1 run");
        thr1.push(one.ms);
        pl.push(round(plain, &case, &noop, |_| seed).0.ms());
        ar.push(round(armed, &case, &noop, |_| seed).0.ms());
        pr.push(round(process, &case, &noop, |_| seed).0.ms());
    }
    vec![
        metric(
            "executor.x1_vs_sequential",
            ratio(median(&thr1), median(&seq)),
            reps,
        ),
        metric(
            "faults.armed_overhead",
            ratio(median(&ar), median(&pl)),
            reps,
        ),
        metric(
            "transport.process_vs_threaded",
            ratio(median(&pr), median(&pl)),
            reps,
        ),
    ]
}

/// wirefmt: each node's final state as one batch, encoded and decoded
/// in both formats. Returns the delta-encoded payloads for the
/// transport probes.
fn wire_layers(rounds: &[RoundRecord], out: &mut Vec<Metric>) -> Vec<Vec<u8>> {
    let batches: Vec<Multiset<Fact>> = rounds
        .first()
        .map(|r| {
            r.states
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| {
                    let mut m = Multiset::new();
                    for f in s.facts() {
                        m.insert(f);
                    }
                    m
                })
                .collect()
        })
        .unwrap_or_default();
    let facts = batches.iter().map(Multiset::len).sum::<usize>().max(1) as f64;
    let delta: Vec<Vec<u8>> = batches.iter().map(wirefmt::encode).collect();
    let naive: Vec<Vec<u8>> = batches.iter().map(wirefmt::encode_naive).collect();
    const PASSES: usize = 20;
    let time = |f: &dyn Fn()| {
        let mut per = Vec::new();
        for _ in 0..PASSES {
            let start = Instant::now();
            f();
            per.push(start.elapsed().as_nanos() as f64 / facts);
        }
        median(&per)
    };
    let enc = time(&|| {
        for b in &batches {
            std::hint::black_box(wirefmt::encode(b));
        }
    });
    let dec = time(&|| {
        for d in &delta {
            std::hint::black_box(wirefmt::decode(d).expect("own encoding decodes"));
        }
    });
    let enc_naive = time(&|| {
        for b in &batches {
            std::hint::black_box(wirefmt::encode_naive(b));
        }
    });
    let dec_naive = time(&|| {
        for d in &naive {
            std::hint::black_box(wirefmt::decode_naive(d).expect("own encoding decodes"));
        }
    });
    let bytes: usize = delta.iter().map(Vec::len).sum();
    out.push(metric("wirefmt.encode_ns_per_fact", enc, PASSES));
    out.push(metric("wirefmt.decode_ns_per_fact", dec, PASSES));
    out.push(metric(
        "wirefmt.encode_naive_ns_per_fact",
        enc_naive,
        PASSES,
    ));
    out.push(metric(
        "wirefmt.decode_naive_ns_per_fact",
        dec_naive,
        PASSES,
    ));
    out.push(metric(
        "wirefmt.bytes_per_fact",
        bytes as f64 / facts,
        batches.len(),
    ));
    delta
}

/// transport: `write_frame`/`read_frame` on an in-memory buffer, and a
/// frame echo over a loopback `TcpStream`, with the run's batch sizes.
fn transport_layers(payloads: &[Vec<u8>]) -> Vec<Metric> {
    const PASSES: usize = 20;
    const ECHOES: usize = 200;
    let kb = payloads.iter().map(|p| p.len() + 6).sum::<usize>().max(1) as f64 / 1024.0;
    let (mut write, mut read) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let mut buf = Vec::new();
        let start = Instant::now();
        for p in payloads {
            write_frame(&mut buf, p).expect("in-memory write");
        }
        write.push(start.elapsed().as_nanos() as f64 / kb);
        let mut cursor = Cursor::new(buf);
        let start = Instant::now();
        for _ in payloads {
            std::hint::black_box(read_frame(&mut cursor).expect("in-memory read"));
        }
        read.push(start.elapsed().as_nanos() as f64 / kb);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept the echo client");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        loop {
            match read_frame(&mut s) {
                Ok(p) => write_frame(&mut s, &p).expect("echo write"),
                Err(FrameError::Closed) => break,
                Err(e) => panic!("echo read: {e:?}"),
            }
        }
    });
    let mut rtt = Vec::new();
    {
        let mut c = TcpStream::connect(addr).expect("connect to the echo server");
        c.set_nodelay(true).expect("set TCP_NODELAY");
        let fallback = [Vec::new()];
        let sizes: &[Vec<u8>] = if payloads.is_empty() {
            &fallback
        } else {
            payloads
        };
        for p in sizes.iter().cycle().take(ECHOES) {
            let start = Instant::now();
            write_frame(&mut c, p).expect("echo request");
            std::hint::black_box(read_frame(&mut c).expect("echo reply"));
            rtt.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    echo.join().expect("echo server ends cleanly");
    vec![
        metric("transport.frame_write_ns_per_kb", median(&write), PASSES),
        metric("transport.frame_read_ns_per_kb", median(&read), PASSES),
        metric("transport.loopback_rtt_us", median(&rtt), rtt.len()),
    ]
}

/// The mean share of each traced entry-point call (a `bench` span)
/// covered by no span the program emitted, and how many calls.
pub fn unattributed_share(spans: &[SpanRec]) -> (f64, usize) {
    let mut inner: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.cat != "bench") {
        inner.entry(s.op).or_default().push((s.start, s.end));
    }
    let shares: Vec<f64> = spans
        .iter()
        .filter(|s| s.cat == "bench" && s.dur() > 0)
        .map(|call| {
            let within: Vec<(u64, u64)> = inner
                .get(&call.op)
                .map(|v| {
                    v.iter()
                        .filter(|(a, b)| *a >= call.start && *b <= call.end)
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
            1.0 - collect::covered(within) as f64 / call.dur() as f64
        })
        .collect();
    (
        ratio(shares.iter().sum(), shares.len() as f64),
        shares.len(),
    )
}

/// Order `metrics` as [`PER_LAYER`] declares them. Panics when one is
/// missing or undeclared — a bug in the probes.
pub fn in_declared_order(metrics: Vec<Metric>) -> Vec<Metric> {
    let mut by_name: BTreeMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let ordered: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            by_name
                .remove(*name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
        })
        .collect();
    assert!(
        by_name.is_empty(),
        "undeclared metrics: {:?}",
        by_name.keys()
    );
    ordered
}
