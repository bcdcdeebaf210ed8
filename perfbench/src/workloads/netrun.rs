//! Running the three strategy families on the network engines, and the
//! checks every network run must pass.

use std::collections::BTreeMap;

use calm_common::instance::Instance;
use calm_common::schema::Schema;
use calm_datalog::{parse_facts, DatalogQuery};
use calm_net::{
    run_net_worker, run_process, run_threaded_with, Assign, FaultPlan, FaultStats, JobSpec,
    LinkCounters, ProcessConfig, Programs, SpawnHandle, ThreadedConfig, ThreadedNetwork,
    WorkerSetup, WorkerStats,
};
use calm_obs::Obs;
use calm_transducer::{
    expected_output, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy,
    HashPolicy, Metrics, MonotoneBroadcast, Network, NodeId, SystemConfig, Transducer,
};

use crate::host::Stopwatch;

/// A strategy with the policy and system configuration it expects.
pub type Triple = (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
);

/// Build a strategy family from its name and program text, as the
/// `calm simulate` front end and its network workers do.
pub fn build_family(name: &str, program: &str, nodes: usize) -> Result<Triple, String> {
    let q = DatalogQuery::parse(name, program)?;
    let net = Network::of_size(nodes);
    Ok(match name {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(Box::new(q))),
            Box::new(HashPolicy::new(net)),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(q))),
            Box::new(HashPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(Box::new(q))),
            Box::new(DomainGuidedPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        other => return Err(format!("unknown strategy family {other}")),
    })
}

/// Which engine runs the network.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// The process engine: a coordinator and `workers` thread-backed
    /// workers over loopback TCP.
    Process {
        /// Network nodes.
        nodes: usize,
        /// Worker connections.
        workers: usize,
    },
    /// The threaded engine, optionally under a seeded uniform fault plan.
    Threaded {
        /// Network nodes.
        nodes: usize,
        /// Worker threads.
        workers: usize,
        /// `(seed, drop probability)` of the fault plan.
        faults: Option<(u64, f64)>,
    },
}

/// One network input, with the centralized answer of each family.
pub struct Case {
    /// The input as a fact file.
    pub facts: String,
    /// The parsed input.
    pub input: Instance,
    /// Per family: `(name, program, output schema, expected output)`.
    pub families: Vec<(&'static str, String, Schema, Instance)>,
}

impl Case {
    /// Parse `facts` and build each family (the set-up `calm simulate`
    /// does). The expected outputs stay empty until [`Case::with_oracle`].
    pub fn new(
        facts: &str,
        programs: &[(&'static str, String)],
        nodes: usize,
    ) -> Result<Case, String> {
        let input = parse_facts(facts).map_err(|e| e.to_string())?;
        let mut families = Vec::new();
        for (name, program) in programs {
            let (t, _, _) = build_family(name, program, nodes)?;
            families.push((
                *name,
                program.clone(),
                t.schema().output.clone(),
                Instance::new(),
            ));
        }
        Ok(Case {
            facts: facts.to_string(),
            input,
            families,
        })
    }

    /// Compute each family's centralized answer.
    pub fn with_oracle(mut self) -> Case {
        for (name, program, _, expected) in &mut self.families {
            let q = DatalogQuery::parse(*name, program).expect("family compiled at set-up");
            *expected = expected_output(&q, &self.input);
        }
        self
    }
}

/// What one family run reported.
pub struct FamilyRun {
    /// Wall clock of the engine call, in milliseconds.
    pub ms: f64,
    /// CPU time the hypervisor took from the run during the call.
    pub stolen_ms: f64,
    /// `out(R)`.
    pub output: Instance,
    /// Final per-node states.
    pub states: BTreeMap<NodeId, Instance>,
    /// Whether the run reached quiescence.
    pub quiescent: bool,
    /// Workers that failed.
    pub failed_workers: Vec<usize>,
    /// Per-worker accounting.
    pub per_worker: Vec<WorkerStats>,
    /// Per-link wire accounting.
    pub links: BTreeMap<(usize, usize), LinkCounters>,
    /// Fault counters.
    pub faults: FaultStats,
    /// Run counters.
    pub metrics: Metrics,
    /// Delta-encoded payload bytes.
    pub wire_bytes: u64,
    /// The same traffic in the naive encoding.
    pub wire_bytes_naive: u64,
}

/// Run one family of `case` on `engine`, timing only the engine call.
pub fn run_family(
    engine: Engine,
    case: &Case,
    family: usize,
    obs: &Obs,
) -> Result<FamilyRun, String> {
    let (name, program, out_schema, _) = &case.families[family];
    let _span = obs.span("bench", || format!("family:{name}"));
    match engine {
        Engine::Process { nodes, workers } => {
            let spec = JobSpec {
                program: program.clone(),
                facts: case.facts.clone(),
                strategy: name.to_string(),
                nodes,
                eval_threads: 1,
                step_budget: 5_000_000,
                faults: None,
                trace_prefix: None,
                flight_path: None,
            };
            let cfg = ProcessConfig::new(workers, spec).with_respawn_budget(0);
            let worker_obs = obs.clone();
            let spawner = move |k: usize, addr: &str| -> Result<SpawnHandle, String> {
                let addr = addr.to_string();
                let obs = worker_obs.clone();
                Ok(SpawnHandle::Thread(std::thread::spawn(move || {
                    let builder = move |assign: &Assign| -> Result<WorkerSetup, String> {
                        let spec = &assign.spec;
                        let (transducer, policy, config) =
                            build_family(&spec.strategy, &spec.program, spec.nodes)?;
                        let input = parse_facts(&spec.facts).map_err(|e| e.to_string())?;
                        Ok(WorkerSetup {
                            transducer,
                            policy,
                            config,
                            input,
                            obs: obs.clone(),
                        })
                    };
                    if let Err(e) = run_net_worker(&addr, k, &builder) {
                        eprintln!("perfbench: network worker {k} failed: {e}");
                    }
                })))
            };
            let watch = Stopwatch::start();
            let r = run_process(&cfg, &spawner, obs).map_err(|e| e.to_string())?;
            let lap = watch.lap();
            let mut output = Instance::new();
            for state in r.states.values() {
                output.extend(state.restrict(out_schema).facts());
            }
            Ok(FamilyRun {
                ms: lap.ms,
                stolen_ms: lap.stolen_ms,
                output,
                states: r.states,
                quiescent: r.quiescent,
                failed_workers: r.failed_workers,
                per_worker: r.per_worker,
                links: r.link_counters,
                faults: r.faults,
                metrics: r.metrics,
                wire_bytes: r.wire_bytes,
                wire_bytes_naive: r.wire_bytes_naive,
            })
        }
        Engine::Threaded {
            nodes,
            workers,
            faults,
        } => {
            let factory = || {
                build_family(name, program, nodes)
                    .expect("family was built once at set-up")
                    .0
            };
            let (_, policy, config) = build_family(name, program, nodes)?;
            let net = ThreadedNetwork {
                programs: Programs::PerWorker(&factory),
                policy: policy.as_ref(),
                config,
            };
            let mut cfg = ThreadedConfig::new(workers);
            if let Some((seed, drop_p)) = faults {
                cfg = cfg.with_faults(FaultPlan::uniform(seed, drop_p, 0.0));
            }
            let watch = Stopwatch::start();
            let r = run_threaded_with(&net, &case.input, &cfg, obs);
            let lap = watch.lap();
            Ok(FamilyRun {
                ms: lap.ms,
                stolen_ms: lap.stolen_ms,
                output: r.output,
                states: r.states,
                quiescent: r.quiescent,
                failed_workers: Vec::new(),
                per_worker: r.per_worker,
                links: r.link_counters,
                faults: r.faults,
                metrics: r.metrics,
                wire_bytes: r.wire_bytes,
                wire_bytes_naive: r.wire_bytes_naive,
            })
        }
    }
}

/// Check one family run: quiescent, no failed worker, the centralized
/// answer, and the accounting identities — per worker `enqueued ==
/// delivered + buffered`, and per link under a fault plan `attempts ==
/// delivered + suppressed + dropped + buffered`.
pub fn check(run: &FamilyRun, expected: &Instance, faulted: bool) -> Result<(), String> {
    if !run.quiescent {
        return Err("run is not quiescent".into());
    }
    if !run.failed_workers.is_empty() {
        return Err(format!("workers {:?} failed", run.failed_workers));
    }
    if &run.output != expected {
        return Err("output differs from the centralized evaluation".into());
    }
    for w in &run.per_worker {
        if w.enqueued != w.metrics.messages_delivered + w.buffered {
            return Err(format!(
                "worker {}: enqueued {} != delivered {} + buffered {}",
                w.worker, w.enqueued, w.metrics.messages_delivered, w.buffered
            ));
        }
    }
    if faulted {
        for (link, c) in &run.links {
            if c.attempts != c.delivered + c.suppressed + c.dropped + c.buffered {
                return Err(format!("link {link:?}: attempts do not balance: {c:?}"));
            }
        }
    }
    Ok(())
}

/// Accounting of one round (the three families in turn).
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    /// Per-family engine time, in family order.
    pub family_ms: Vec<f64>,
    /// Stolen time within the engine calls, summed.
    pub stolen_ms: f64,
    /// Messages sent per class, summed over the families.
    pub by_class: BTreeMap<&'static str, usize>,
    /// Fault counters, summed.
    pub faults: FaultStats,
    /// Delta-encoded payload bytes, summed.
    pub wire_bytes: u64,
    /// Naive-encoding bytes, summed.
    pub wire_bytes_naive: u64,
    /// Ring hops, summed.
    pub token_passes: u64,
    /// Deepest node inbox seen.
    pub max_queue_depth: usize,
    /// Final node states of every family.
    pub states: Vec<Instance>,
}

impl RoundRecord {
    /// Round time: the families' engine times summed.
    pub fn ms(&self) -> f64 {
        self.family_ms.iter().sum()
    }
}

/// Run one round: every family of `case` in turn. `plan_seed(f)` seeds
/// the fault plan of family `f` when the engine has one. Returns the
/// record and the first failed check, if any.
pub fn round(
    engine: Engine,
    case: &Case,
    obs: &Obs,
    plan_seed: impl Fn(usize) -> u64,
) -> (RoundRecord, Result<(), String>) {
    let mut rec = RoundRecord::default();
    let mut verdict = Ok(());
    for f in 0..case.families.len() {
        let engine = match engine {
            Engine::Threaded {
                nodes,
                workers,
                faults: Some((_, drop_p)),
            } => Engine::Threaded {
                nodes,
                workers,
                faults: Some((plan_seed(f), drop_p)),
            },
            other => other,
        };
        let faulted = matches!(
            engine,
            Engine::Threaded {
                faults: Some(_),
                ..
            }
        );
        let run = match run_family(engine, case, f, obs) {
            Ok(run) => run,
            Err(e) => {
                verdict = verdict.and(Err(format!("{}: {e}", case.families[f].0)));
                continue;
            }
        };
        if let Err(e) = check(&run, &case.families[f].3, faulted) {
            verdict = verdict.and(Err(format!("{}: {e}", case.families[f].0)));
        }
        rec.family_ms.push(run.ms);
        rec.stolen_ms += run.stolen_ms;
        for (class, n) in run.metrics.by_class.as_pairs() {
            *rec.by_class.entry(class).or_insert(0) += n;
        }
        rec.faults.merge(&run.faults);
        rec.wire_bytes += run.wire_bytes;
        rec.wire_bytes_naive += run.wire_bytes_naive;
        rec.token_passes += run.per_worker.iter().map(|w| w.token_passes).sum::<u64>();
        rec.max_queue_depth = rec.max_queue_depth.max(run.metrics.max_queue_depth());
        rec.states.extend(run.states.into_values());
    }
    (rec, verdict)
}
