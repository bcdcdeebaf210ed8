//! eval-closure: one operation is one full evaluation of `Q_TC` through
//! `eval_query_opts`, the entry point of `calm eval`.

use calm_common::instance::Instance;
use calm_datalog::eval::{eval_query_opts, eval_stratification, Engine};
use calm_datalog::{parse_facts, parse_program, stratify, Program};
use calm_obs::Obs;

use crate::collect::Collector;
use crate::gen::Inputs;
use crate::host::{Lap, Stopwatch};
use crate::{drive, layers, timed_setups, Bench, Metric, Outcome, Settings, Sizes};

struct EvalClosure<'a> {
    inputs: &'a Inputs,
    program: Program,
    graphs: Vec<Instance>,
    /// Each graph's expected answer, rendered (compact beside the pool).
    oracle: Vec<String>,
}

/// Parse the program and every graph of the pool, and stratify.
fn set_up(inputs: &Inputs) -> Result<(Program, Vec<Instance>), String> {
    let program = parse_program(&inputs.programs[0].1).map_err(|e| e.to_string())?;
    stratify(&program).map_err(|e| e.to_string())?;
    let graphs = inputs
        .graphs
        .iter()
        .map(|g| parse_facts(g).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((program, graphs))
}

/// Run eval-closure.
pub fn run(settings: &Settings, inputs: &Inputs) -> Outcome {
    let ((program, graphs), setup) = match timed_setups(
        settings.sizes.setup_reps,
        settings.workload.kernel(),
        || set_up(inputs),
    ) {
        Ok(p) => p,
        Err(e) => return Outcome::setup_failed(e),
    };
    // The oracle: the unindexed, unreordered baseline engine.
    let strat = stratify(&program).expect("stratified at set-up");
    let out_schema = program.output_schema();
    let oracle = graphs
        .iter()
        .map(|g| {
            eval_stratification(&strat, g, Engine::SemiNaiveBaseline)
                .0
                .restrict(&out_schema)
                .to_string()
        })
        .collect();
    let mut bench = EvalClosure {
        inputs,
        program,
        graphs,
        oracle,
    };
    drive(&mut bench, settings, &setup)
}

impl Bench for EvalClosure<'_> {
    fn op(&mut self, k: usize, obs: &Obs) -> Result<Lap, String> {
        let g = k % self.graphs.len();
        let watch = Stopwatch::start();
        let answer = {
            let _span = obs.span("bench", || "eval_query_opts".into());
            eval_query_opts(&self.program, &self.graphs[g], obs, 1)
        };
        let lap = watch.lap();
        let answer = answer.map_err(|e| e.to_string())?;
        if answer.to_string() != self.oracle[g] {
            return Err("answer differs from the baseline-engine oracle".into());
        }
        Ok(lap)
    }

    fn layers(&mut self, _trace: &Collector, sizes: &Sizes, seed: u64) -> Vec<Metric> {
        let probe = layers::Probe {
            program: &self.inputs.programs[0].1,
            edb: &self.graphs[0],
            net_graph: &self.inputs.net_graph,
            rounds: None,
        };
        layers::standard(&probe, sizes, seed)
    }
}
