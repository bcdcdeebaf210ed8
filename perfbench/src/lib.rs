//! The repository benchmark. One command runs one workload for a fixed
//! time as a closed loop with one client (the next operation starts when
//! the previous one has finished), checks every output against an
//! oracle, and prints every metric by name with its unit and sample
//! count. `--trace 0` gives the end-to-end metrics; `--trace 1` is a
//! separate run that gives the per-layer metrics. See `README.md` for
//! why each workload was chosen and which end-to-end metric each layer
//! metric should move.

pub mod collect;
pub mod gen;
pub mod host;
pub mod layers;
pub mod stats;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use calm_obs::Obs;

use collect::Collector;
use host::{Kernel, Lap};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full evaluations of `Q_TC` (`calm eval`).
    EvalClosure,
    /// Rounds of the three strategy families on the process engine.
    NetProcess,
    /// Rounds of the three strategy families on the threaded engine
    /// under a lossy fault plan.
    NetLossy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EvalClosure,
        Workload::NetProcess,
        Workload::NetLossy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalClosure => "eval-closure",
            Workload::NetProcess => "net-process",
            Workload::NetLossy => "net-lossy",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The calibration kernel of the workload's set-ups and operations:
    /// the one that tracks what an operation spends its time on —
    /// computing for an evaluation; for a network round on one CPU,
    /// handing off between threads. A network set-up is calibrated by the
    /// same kernel, so that the 2 MiB of the `Compute` kernel does not
    /// show in the small footprint of a network run.
    pub fn kernel(self) -> Kernel {
        match self {
            Workload::EvalClosure => Kernel::Compute,
            Workload::NetProcess | Workload::NetLossy => Kernel::Handoff,
        }
    }

    /// What one operation of the workload is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::EvalClosure => "eval",
            Workload::NetProcess | Workload::NetLossy => "round",
        }
    }
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Input graphs per run of the net workloads; operations cycle
    /// through them, so one run's figures average over many graphs of the
    /// seed.
    pub pool: usize,
    /// Input graphs per run of eval-closure.
    pub eval_pool: usize,
    /// eval-closure vertex count.
    pub eval_vertices: usize,
    /// eval-closure edge count.
    pub eval_edges: usize,
    /// Deletions (and insertions) per update batch of the DRed probe.
    pub batch_side: usize,
    /// Network input vertex count.
    pub net_vertices: usize,
    /// Network input edge count.
    pub net_edges: usize,
    /// Nodes of the process-engine network.
    pub process_nodes: usize,
    /// Nodes of the lossy threaded network.
    pub lossy_nodes: usize,
    /// Worker threads or connections.
    pub workers: usize,
    /// Drop probability of the lossy fault plan.
    pub drop_p: f64,
    /// Operations a run makes at least, whatever its time budget: a p90
    /// over 100 samples has 10 beyond it.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Repetitions of each layer probe in a traced run.
    pub probe_reps: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn full() -> Sizes {
        Sizes {
            pool: 128,
            eval_pool: 64,
            eval_vertices: 200,
            eval_edges: 300,
            batch_side: 2,
            net_vertices: 12,
            net_edges: 18,
            process_nodes: 4,
            lossy_nodes: 4,
            workers: 2,
            drop_p: 0.05,
            min_ops: 100,
            setup_reps: 21,
            probe_reps: 5,
        }
    }

    /// Smoke-test sizes: every code path, in well under a second each.
    pub fn tiny() -> Sizes {
        Sizes {
            pool: 2,
            eval_pool: 2,
            eval_vertices: 12,
            eval_edges: 18,
            batch_side: 2,
            net_vertices: 6,
            net_edges: 8,
            process_nodes: 4,
            lossy_nodes: 3,
            workers: 2,
            drop_p: 0.05,
            min_ops: 4,
            setup_reps: 2,
            probe_reps: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring time budget, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the separate traced run that
    /// gives the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single count or ratio).
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` observations.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// The end-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why the first few failures failed.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// `# key=value` lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// A run whose set-up failed: one failed operation.
    pub(crate) fn setup_failed(why: String) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            failures: vec![format!("set-up: {why}")],
            ..Outcome::default()
        }
    }

    /// Every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report: notes, one line per metric, the
    /// failure ratio.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            s,
            "# fail_ratio = {} ({} failed of {} attempted)",
            stats::ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        s
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit of the `f64`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of each successful operation, in milliseconds.
    pub ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

/// The longest a loop runs to reach its minimum operation count.
const LOOP_CAP: Duration = Duration::from_secs(100);

/// Run `op` back to back — operation `k` starts when `k - 1` has
/// finished — until `seconds` have passed and at least `min_ops`
/// operations were made, or `max_ops` were made. `op(k)` returns its own
/// timed latency in milliseconds, so checks stay outside the timing.
/// Between operations the allocator hands freed memory back to the
/// system, so each operation starts from the same footprint.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    max_ops: usize,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Tally {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut t = Tally::default();
    let mut k = 0;
    while k < max_ops {
        let elapsed = start.elapsed();
        let done = t.attempted as usize;
        if (elapsed >= budget && done >= min_ops) || elapsed >= LOOP_CAP {
            break;
        }
        t.attempted += 1;
        let r = op(k);
        host::release_free_memory();
        match r {
            Ok(ms) => t.ms.push(ms),
            Err(why) => {
                t.failed += 1;
                if t.failures.len() < 8 {
                    t.failures.push(format!("op {k}: {why}"));
                }
            }
        }
        k += 1;
    }
    t
}

/// One workload's operations, prepared.
pub(crate) trait Bench {
    /// Operations the generated inputs allow at most.
    fn max_ops(&self) -> usize {
        usize::MAX
    }

    /// Run operation `k`, reporting to `obs`; return its timing, or why
    /// its output failed a check.
    fn op(&mut self, k: usize, obs: &Obs) -> Result<Lap, String>;

    /// The per-layer metrics, after the traced phase fed `trace`.
    fn layers(&mut self, trace: &Collector, sizes: &Sizes, seed: u64) -> Vec<Metric>;
}

/// Run one workload and report.
pub fn run(settings: &Settings) -> Outcome {
    let inputs = gen::generate(settings.workload, settings.seed, &settings.sizes);
    let mut out = match settings.workload {
        Workload::EvalClosure => workloads::eval::run(settings, &inputs),
        Workload::NetProcess | Workload::NetLossy => workloads::net::run(settings, &inputs),
    };
    out.notes.insert(
        0,
        format!(
            "perfbench workload={} seed={} seconds={} trace={} op={}",
            settings.workload.name(),
            settings.seed,
            settings.seconds,
            u8::from(settings.trace),
            settings.workload.op()
        ),
    );
    out.notes.insert(
        1,
        format!(
            "host nproc={} pinned_cpu={} rustc=\"{}\" git_sha={}",
            host::nproc(),
            host::pinned_cpu().map_or("none".to_string(), |c| c.to_string()),
            host::rustc(),
            host::git_sha()
        ),
    );
    out
}

/// Set-up times in seconds: as measured, and rescaled to the reference
/// host speed by a calibration before and after each set-up.
#[derive(Debug, Default)]
pub(crate) struct SetupTimes {
    raw: Vec<f64>,
    adjusted: Vec<f64>,
}

/// Run a set-up once untimed (a warm-up), then `reps` times timed,
/// calibrated by `kernel`. Returns the last result and the timings.
pub(crate) fn timed_setups<T>(
    reps: usize,
    kernel: Kernel,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut last = set_up()?;
    let mut times = SetupTimes::default();
    for _ in 0..reps {
        let before = kernel.run();
        let start = Instant::now();
        last = set_up()?;
        let secs = start.elapsed().as_secs_f64();
        times.raw.push(secs);
        times
            .adjusted
            .push(secs * kernel.speed_factor(before, kernel.run()));
    }
    Ok((last, times))
}

/// Drive a prepared workload: the untraced loop and its end-to-end
/// metrics, or the traced run and its per-layer metrics.
pub(crate) fn drive(bench: &mut dyn Bench, settings: &Settings, setup: &SetupTimes) -> Outcome {
    let sizes = &settings.sizes;
    let max_ops = bench.max_ops();
    let noop = Obs::noop();
    let mut out = Outcome::default();
    if !settings.trace {
        let kernel = settings.workload.kernel();
        let mut raw = Vec::new();
        let t = closed_loop(settings.seconds, sizes.min_ops, max_ops, |k| {
            let before = kernel.run();
            let r = bench.op(k, &noop);
            let factor = kernel.speed_factor(before, kernel.run());
            r.map(|lap| {
                raw.push(lap.ms);
                (lap.ms - lap.stolen_ms).max(0.0) * factor
            })
        });
        let n = t.ms.len();
        let p90 = |xs: &[f64]| stats::percentile(xs, 0.9).unwrap_or(0.0);
        let setup_s = &setup.adjusted;
        out.metrics = vec![
            Metric::new("setup_s", "s", stats::median(setup_s), setup_s.len()),
            Metric::new("op_ms.p50", "ms", stats::median(&t.ms), n),
            Metric::new("op_ms.p90", "ms", p90(&t.ms), n),
            Metric::new("peak_rss_mb", "MiB", host::peak_rss_mb(), 1),
        ];
        out.notes.push(format!(
            "samples {}_ms n={n} beyond_p90={} kernel={kernel:?}",
            settings.workload.op(),
            stats::beyond(n, 0.9)
        ));
        out.notes.push(format!(
            "as measured: setup_s={} op_ms.p50={} op_ms.p90={}",
            stats::median(&setup.raw),
            stats::median(&raw),
            p90(&raw)
        ));
        out.attempted = t.attempted;
        out.failed = t.failed;
        out.failures = t.failures;
        return out;
    }

    // Traced run: even operations untraced, odd ones traced, so the
    // tracing overhead compares operations of one time window; then the
    // layer probes.
    let (collector, obs) = Collector::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let total = closed_loop(settings.seconds, sizes.min_ops, max_ops, |k| {
        let (handle, into) = if k % 2 == 0 {
            (&noop, &mut untraced)
        } else {
            collector.begin_op(k as u64);
            (&obs, &mut traced)
        };
        let ms = bench.op(k, handle)?.ms;
        into.push(ms);
        Ok(ms)
    });
    let mut metrics = bench.layers(&collector, sizes, settings.seed);
    metrics.push(Metric::new(
        "obs.tracing_overhead",
        "ratio",
        stats::ratio(stats::median(&traced), stats::median(&untraced)),
        traced.len(),
    ));
    let (share, calls) = layers::unattributed_share(&collector.spans());
    metrics.push(Metric::new("obs.unattributed_share", "ratio", share, calls));
    out.metrics = layers::in_declared_order(metrics);
    out.attempted = total.attempted;
    out.failed = total.failed;
    out.failures = total.failures;
    out
}
