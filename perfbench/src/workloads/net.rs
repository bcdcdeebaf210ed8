//! net-process and net-lossy: one operation is one round of the three
//! strategy families — monotone TC broadcast, distinct SP fact-absence,
//! disjoint `Q_TC` request-OK — on one graph of the pool.
//!
//! * net-process: `run_process` with thread-backed workers over loopback
//!   TCP, no fault plan (the path of `calm simulate --engine process`).
//! * net-lossy: `run_threaded_with` under a seeded
//!   `FaultPlan::uniform(seed, drop, 0)` (the path of `calm simulate
//!   --engine threaded --faults`).

use calm_obs::Obs;

use super::netrun::{round, Case, Engine, RoundRecord};
use crate::collect::Collector;
use crate::gen::Inputs;
use crate::host::Lap;
use crate::{drive, layers, timed_setups, Bench, Metric, Outcome, Settings, Sizes, Workload};

struct Net<'a> {
    inputs: &'a Inputs,
    engine: Engine,
    seed: u64,
    cases: Vec<Case>,
    records: Vec<RoundRecord>,
}

/// Run net-process or net-lossy.
pub fn run(settings: &Settings, inputs: &Inputs) -> Outcome {
    let sizes = &settings.sizes;
    let engine = match settings.workload {
        Workload::NetProcess => Engine::Process {
            nodes: sizes.process_nodes,
            workers: sizes.workers,
        },
        _ => Engine::Threaded {
            nodes: sizes.lossy_nodes,
            workers: sizes.workers,
            faults: Some((0, sizes.drop_p)),
        },
    };
    let nodes = match engine {
        Engine::Process { nodes, .. } | Engine::Threaded { nodes, .. } => nodes,
    };
    // Set-up: parse every graph, and parse and compile each family.
    // The centralized answers are computed after, untimed.
    let (cases, setup) = match timed_setups(sizes.setup_reps, settings.workload.kernel(), || {
        inputs
            .graphs
            .iter()
            .map(|g| Case::new(g, &inputs.programs, nodes))
            .collect::<Result<Vec<Case>, String>>()
    }) {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut bench = Net {
        inputs,
        engine,
        seed: settings.seed,
        cases: cases.into_iter().map(Case::with_oracle).collect(),
        records: Vec::new(),
    };
    drive(&mut bench, settings, &setup)
}

impl Bench for Net<'_> {
    fn op(&mut self, k: usize, obs: &Obs) -> Result<Lap, String> {
        let case = &self.cases[k % self.cases.len()];
        let seed = self.seed;
        let (rec, verdict) = round(self.engine, case, obs, |f| {
            seed.wrapping_mul(0x0100_0000_01B3)
                .wrapping_add((3 * k + f) as u64)
        });
        let lap = Lap {
            ms: rec.ms(),
            stolen_ms: rec.stolen_ms,
        };
        if obs.enabled() {
            self.records.push(rec);
        }
        verdict.map(|()| lap)
    }

    fn layers(&mut self, trace: &Collector, sizes: &Sizes, seed: u64) -> Vec<Metric> {
        let detect = trace.detect_us();
        let probe = layers::Probe {
            program: &self.inputs.programs[2].1,
            edb: &self.cases[0].input,
            net_graph: &self.inputs.net_graph,
            rounds: Some((&self.records, &detect)),
        };
        layers::standard(&probe, sizes, seed)
    }
}
