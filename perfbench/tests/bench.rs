//! The benchmark's own tests: seeded generation, metric names against
//! `BENCHMARK.json`, and a tiny-size smoke of every workload.

use std::collections::BTreeSet;

use calm_obs::{parse_json, JsonValue};
use perfbench::layers::PER_LAYER;
use perfbench::{gen, run, Settings, Sizes, Workload, END_TO_END};

/// The names listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn tiny(workload: Workload, trace: bool) -> Settings {
    Settings {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        sizes: Sizes::tiny(),
    }
}

#[test]
fn same_seed_same_inputs_and_different_seeds_differ() {
    for sizes in [Sizes::tiny(), Sizes::full()] {
        for w in Workload::ALL {
            let a = gen::generate(w, 42, &sizes).bytes();
            assert_eq!(a, gen::generate(w, 42, &sizes).bytes(), "{}", w.name());
            assert_ne!(a, gen::generate(w, 43, &sizes).bytes(), "{}", w.name());
        }
    }
}

#[test]
fn workloads_are_declared() {
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), ours);
}

#[test]
fn declared_metric_lists_match_the_code() {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layer: BTreeSet<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("per_layer"), layer);
}

/// Run `settings`, check it passed, and check the printed metric names:
/// every one declared, well formed, and exactly the declared section.
fn smoke(settings: Settings) {
    let name = settings.workload.name();
    let out = run(&settings);
    assert!(out.correct(), "{name}: failures {:?}", out.failures);
    let section = if settings.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(section);
    let report = out.render();
    let printed: BTreeSet<String> = report
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| l.split(' ').next().expect("name").to_string())
        .collect();
    for n in &printed {
        assert!(well_formed(n), "{name}: bad metric name {n}");
    }
    assert_eq!(printed, declared, "{name}: printed vs declared {section}");
    let json = parse_json(&out.json()).expect("result line is JSON");
    let keys: BTreeSet<&str> = match &json {
        JsonValue::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => panic!("result is not an object"),
    };
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"])
    );
    let metrics = match json.get("metrics") {
        Some(JsonValue::Obj(m)) => m,
        _ => panic!("metrics is not an object"),
    };
    let in_json: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(in_json, declared, "{name}: JSON vs declared {section}");
    for (k, v) in metrics {
        assert!(
            v.get("value").and_then(JsonValue::as_f64).is_some(),
            "{k} has no value"
        );
        assert!(
            v.get("unit").and_then(JsonValue::as_str).is_some(),
            "{k} has no unit"
        );
    }
}

#[test]
fn eval_closure_smoke() {
    smoke(tiny(Workload::EvalClosure, false));
    smoke(tiny(Workload::EvalClosure, true));
}

#[test]
fn net_process_smoke() {
    smoke(tiny(Workload::NetProcess, false));
    smoke(tiny(Workload::NetProcess, true));
}

#[test]
fn net_lossy_smoke() {
    smoke(tiny(Workload::NetLossy, false));
    smoke(tiny(Workload::NetLossy, true));
}
