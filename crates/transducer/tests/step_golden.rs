//! Golden record of the transducer step: the three strategy families on
//! eight seeded graphs over a 4-node network, pinned counter by counter.
//!
//! The sequential engine is deterministic, so every run counter
//! (`transitions`, `heartbeats`, `messages_sent`, `messages_delivered`,
//! the per-class counts, `first_output_at`, `last_output_growth_at`) and
//! every final node state is pinned, under `RoundRobin` and under a
//! seeded `Scheduler::random`. A node state is pinned by a 64-bit FNV-1a
//! digest of its rendering. The threaded and process engines run the
//! same graphs in `calm-net`'s `tests/process.rs`, against the
//! sequential engine.
//!
//! A mismatch prints the whole recomputed table, ready to compare with
//! [`GOLDEN`].

use calm_common::rng::Rng;
use calm_common::{fact, Instance};
use calm_queries::qtc::qtc_datalog;
use calm_queries::tc::{edges_without_source_loop, tc_datalog};
use calm_transducer::{
    run, DisjointStrategy, DistinctStrategy, DistributionPolicy, DomainGuidedPolicy, HashPolicy,
    MessageClassCounts, Metrics, MonotoneBroadcast, Network, Scheduler, SystemConfig, Transducer,
    TransducerNetwork,
};

const NODES: usize = 4;
const GRAPHS: u64 = 8;
const FAMILIES: [&str; 3] = ["monotone", "distinct", "disjoint"];

fn family(
    name: &str,
) -> (
    Box<dyn Transducer>,
    Box<dyn DistributionPolicy>,
    SystemConfig,
) {
    let net = Network::of_size(NODES);
    match name {
        "monotone" => (
            Box::new(MonotoneBroadcast::new(Box::new(tc_datalog()))),
            Box::new(HashPolicy::new(net)),
            SystemConfig::ORIGINAL,
        ),
        "distinct" => (
            Box::new(DistinctStrategy::new(Box::new(edges_without_source_loop()))),
            Box::new(HashPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        "disjoint" => (
            Box::new(DisjointStrategy::new(Box::new(qtc_datalog()))),
            Box::new(DomainGuidedPolicy::new(net)),
            SystemConfig::POLICY_AWARE,
        ),
        other => panic!("unknown family {other}"),
    }
}

/// Graph `g`: a seeded edge relation, its domain and size growing with
/// `g` (5..=8 values, 5..=12 edges), self-loops included.
fn graph(g: u64) -> Instance {
    let mut rng = Rng::seed_from_u64(0x5EED_0000 + g);
    let domain = 5 + g % 4;
    let edges = 5 + g as usize;
    Instance::from_facts((0..edges).map(|_| {
        fact(
            "E",
            [
                rng.gen_range(0..domain) as i64,
                rng.gen_range(0..domain) as i64,
            ],
        )
    }))
}

/// 64-bit FNV-1a of a rendering.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn classes(c: &MessageClassCounts) -> String {
    c.as_pairs()
        .iter()
        .map(|(_, n)| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn sequential_row(label: &str, m: &Metrics, states: &[(String, u64)], output: u64) -> String {
    let opt = |o: Option<usize>| o.map_or("-".to_string(), |i| i.to_string());
    let states: Vec<String> = states
        .iter()
        .map(|(n, d)| format!("{n}:{d:016x}"))
        .collect();
    format!(
        "{label} t={} hb={} sent={} dlv={} class={} first={} last={} out={output:016x} {}",
        m.transitions,
        m.heartbeats,
        m.messages_sent,
        m.messages_delivered,
        classes(&m.by_class),
        opt(m.first_output_at),
        opt(m.last_output_growth_at),
        states.join(" "),
    )
}

/// Every row of the golden table, recomputed.
fn table() -> Vec<String> {
    let mut rows = Vec::new();
    for name in FAMILIES {
        let (t, policy, config) = family(name);
        let tn = TransducerNetwork {
            transducer: t.as_ref(),
            policy: policy.as_ref(),
            config,
        };
        for g in 0..GRAPHS {
            let input = graph(g);
            let schedulers = [
                ("rr", Scheduler::RoundRobin),
                ("rand", Scheduler::random(31 + g, 60)),
            ];
            for (tag, scheduler) in schedulers {
                let r = run(&tn, &input, &scheduler, 500_000);
                assert!(r.quiescent, "{name} g{g} {tag}: must quiesce");
                let states: Vec<(String, u64)> = r
                    .config
                    .state
                    .iter()
                    .map(|(n, s)| (n.to_string(), digest(&s.to_string())))
                    .collect();
                let out = digest(&r.output.to_string());
                rows.push(sequential_row(
                    &format!("{name} g{g} {tag}"),
                    &r.metrics,
                    &states,
                    out,
                ));
            }
        }
    }
    rows
}

/// Recorded against the engine before `D` was built in one pass and
/// `S` cached by the known-value set; both must leave every line as is.
const GOLDEN: &str = "
monotone g0 rr t=12 hb=0 sent=48 dlv=48 class=48,0,0,0,0,0,0 first=1 last=7 out=292246032c013001 n1:004a0b9b5d164df1 n2:004a0b9b5d164df1 n3:004a0b9b5d164df1 n4:004a0b9b5d164df1
monotone g0 rand t=64 hb=36 sent=48 dlv=48 class=48,0,0,0,0,0,0 first=1 last=15 out=292246032c013001 n1:004a0b9b5d164df1 n2:004a0b9b5d164df1 n3:004a0b9b5d164df1 n4:004a0b9b5d164df1
monotone g1 rr t=12 hb=0 sent=72 dlv=72 class=72,0,0,0,0,0,0 first=1 last=7 out=d07318818410143d n1:3428973ffa0891ad n2:3428973ffa0891ad n3:3428973ffa0891ad n4:3428973ffa0891ad
monotone g1 rand t=64 hb=31 sent=72 dlv=72 class=72,0,0,0,0,0,0 first=1 last=20 out=d07318818410143d n1:3428973ffa0891ad n2:3428973ffa0891ad n3:3428973ffa0891ad n4:3428973ffa0891ad
monotone g2 rr t=12 hb=0 sent=72 dlv=72 class=72,0,0,0,0,0,0 first=1 last=7 out=f64ccb9ad76d3ec8 n1:0bfb3c1b281f9ab8 n2:0bfb3c1b281f9ab8 n3:0bfb3c1b281f9ab8 n4:0bfb3c1b281f9ab8
monotone g2 rand t=64 hb=33 sent=72 dlv=72 class=72,0,0,0,0,0,0 first=1 last=16 out=f64ccb9ad76d3ec8 n1:0bfb3c1b281f9ab8 n2:0bfb3c1b281f9ab8 n3:0bfb3c1b281f9ab8 n4:0bfb3c1b281f9ab8
monotone g3 rr t=12 hb=0 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=1 last=7 out=5b255274abadca72 n1:6657dc48abfc66ba n2:6657dc48abfc66ba n3:6657dc48abfc66ba n4:6657dc48abfc66ba
monotone g3 rand t=64 hb=36 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=1 last=22 out=5b255274abadca72 n1:6657dc48abfc66ba n2:6657dc48abfc66ba n3:6657dc48abfc66ba n4:6657dc48abfc66ba
monotone g4 rr t=12 hb=0 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=1 last=7 out=3f5a13e854a3813e n1:85ad72553d0518ae n2:85ad72553d0518ae n3:85ad72553d0518ae n4:85ad72553d0518ae
monotone g4 rand t=64 hb=33 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=1 last=17 out=3f5a13e854a3813e n1:85ad72553d0518ae n2:85ad72553d0518ae n3:85ad72553d0518ae n4:85ad72553d0518ae
monotone g5 rr t=12 hb=0 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=1 last=6 out=93625fb7f9861005 n1:3fabd4cdf6f88265 n2:3fabd4cdf6f88265 n3:3fabd4cdf6f88265 n4:3fabd4cdf6f88265
monotone g5 rand t=64 hb=35 sent=96 dlv=96 class=96,0,0,0,0,0,0 first=2 last=19 out=93625fb7f9861005 n1:3fabd4cdf6f88265 n2:3fabd4cdf6f88265 n3:3fabd4cdf6f88265 n4:3fabd4cdf6f88265
monotone g6 rr t=12 hb=0 sent=120 dlv=120 class=120,0,0,0,0,0,0 first=1 last=7 out=168cc292af4c9543 n1:e8cfaa5e5e5fc85f n2:e8cfaa5e5e5fc85f n3:e8cfaa5e5e5fc85f n4:e8cfaa5e5e5fc85f
monotone g6 rand t=64 hb=33 sent=120 dlv=120 class=120,0,0,0,0,0,0 first=1 last=18 out=168cc292af4c9543 n1:e8cfaa5e5e5fc85f n2:e8cfaa5e5e5fc85f n3:e8cfaa5e5e5fc85f n4:e8cfaa5e5e5fc85f
monotone g7 rr t=12 hb=0 sent=108 dlv=108 class=108,0,0,0,0,0,0 first=1 last=7 out=655761b1432a3777 n1:a77e43c1a5a7732b n2:a77e43c1a5a7732b n3:a77e43c1a5a7732b n4:a77e43c1a5a7732b
monotone g7 rand t=64 hb=32 sent=108 dlv=108 class=108,0,0,0,0,0,0 first=1 last=24 out=655761b1432a3777 n1:a77e43c1a5a7732b n2:a77e43c1a5a7732b n3:a77e43c1a5a7732b n4:a77e43c1a5a7732b
distinct g0 rr t=12 hb=0 sent=588 dlv=588 class=48,540,0,0,0,0,0 first=4 last=7 out=94c667f7a2d5d9e7 n1:2a6398638bdf803d n2:2a6398638bdf803d n3:2a6398638bdf803d n4:2a6398638bdf803d
distinct g0 rand t=64 hb=33 sent=588 dlv=588 class=48,540,0,0,0,0,0 first=11 last=17 out=94c667f7a2d5d9e7 n1:2a6398638bdf803d n2:2a6398638bdf803d n3:2a6398638bdf803d n4:2a6398638bdf803d
distinct g1 rr t=12 hb=0 sent=768 dlv=768 class=72,696,0,0,0,0,0 first=5 last=8 out=8758095c45b99722 n1:12d9c67b93b05d42 n2:12d9c67b93b05d42 n3:12d9c67b93b05d42 n4:12d9c67b93b05d42
distinct g1 rand t=64 hb=26 sent=768 dlv=768 class=72,696,0,0,0,0,0 first=19 last=32 out=8758095c45b99722 n1:12d9c67b93b05d42 n2:12d9c67b93b05d42 n3:12d9c67b93b05d42 n4:12d9c67b93b05d42
distinct g2 rr t=16 hb=0 sent=1200 dlv=1200 class=72,1128,0,0,0,0,0 first=6 last=9 out=6b541095116c1bc0 n1:48066c8d31cda71e n2:48066c8d31cda71e n3:48066c8d31cda71e n4:48066c8d31cda71e
distinct g2 rand t=64 hb=26 sent=1200 dlv=1200 class=72,1128,0,0,0,0,0 first=17 last=27 out=6b541095116c1bc0 n1:48066c8d31cda71e n2:48066c8d31cda71e n3:48066c8d31cda71e n4:48066c8d31cda71e
distinct g3 rr t=12 hb=0 sent=1452 dlv=1452 class=96,1356,0,0,0,0,0 first=5 last=8 out=002869089b6edd4c n1:50a5bcdf68d15f4c n2:50a5bcdf68d15f4c n3:50a5bcdf68d15f4c n4:50a5bcdf68d15f4c
distinct g3 rand t=64 hb=36 sent=1452 dlv=1452 class=96,1356,0,0,0,0,0 first=7 last=22 out=002869089b6edd4c n1:50a5bcdf68d15f4c n2:50a5bcdf68d15f4c n3:50a5bcdf68d15f4c n4:50a5bcdf68d15f4c
distinct g4 rr t=16 hb=0 sent=972 dlv=972 class=96,876,0,0,0,0,0 first=6 last=10 out=4142d4e3c14d795f n1:9061aab67e6a4c7b n2:9061aab67e6a4c7b n3:9061aab67e6a4c7b n4:9061aab67e6a4c7b
distinct g4 rand t=64 hb=27 sent=972 dlv=972 class=96,876,0,0,0,0,0 first=16 last=30 out=4142d4e3c14d795f n1:9061aab67e6a4c7b n2:9061aab67e6a4c7b n3:9061aab67e6a4c7b n4:9061aab67e6a4c7b
distinct g5 rr t=16 hb=0 sent=1200 dlv=1200 class=96,1104,0,0,0,0,0 first=4 last=9 out=c549c7e89c835fca n1:def907f1b7bba8c6 n2:def907f1b7bba8c6 n3:def907f1b7bba8c6 n4:def907f1b7bba8c6
distinct g5 rand t=64 hb=31 sent=1200 dlv=1200 class=96,1104,0,0,0,0,0 first=15 last=26 out=c549c7e89c835fca n1:def907f1b7bba8c6 n2:def907f1b7bba8c6 n3:def907f1b7bba8c6 n4:def907f1b7bba8c6
distinct g6 rr t=16 hb=0 sent=1452 dlv=1452 class=120,1332,0,0,0,0,0 first=6 last=10 out=41e62ea70246fc54 n1:73e18a14a36db648 n2:73e18a14a36db648 n3:73e18a14a36db648 n4:73e18a14a36db648
distinct g6 rand t=64 hb=25 sent=1452 dlv=1452 class=120,1332,0,0,0,0,0 first=18 last=30 out=41e62ea70246fc54 n1:73e18a14a36db648 n2:73e18a14a36db648 n3:73e18a14a36db648 n4:73e18a14a36db648
distinct g7 rr t=12 hb=0 sent=1200 dlv=1200 class=108,1092,0,0,0,0,0 first=4 last=8 out=68b95919761a02f1 n1:7171edd0306c5a65 n2:7171edd0306c5a65 n3:7171edd0306c5a65 n4:7171edd0306c5a65
distinct g7 rand t=64 hb=30 sent=1200 dlv=1200 class=108,1092,0,0,0,0,0 first=13 last=24 out=68b95919761a02f1 n1:7171edd0306c5a65 n2:7171edd0306c5a65 n3:7171edd0306c5a65 n4:7171edd0306c5a65
disjoint g0 rr t=16 hb=0 sent=210 dlv=210 class=18,0,18,63,63,48,0 first=9 last=12 out=dcdd41c8e5d74382 n1:d867f60c680c46e0 n2:92acab30d42c4fe6 n3:eed35d448de4f191 n4:f900c6466e21895b
disjoint g0 rand t=64 hb=32 sent=210 dlv=210 class=18,0,18,63,63,48,0 first=24 last=29 out=dcdd41c8e5d74382 n1:d867f60c680c46e0 n2:92acab30d42c4fe6 n3:eed35d448de4f191 n4:f900c6466e21895b
disjoint g1 rr t=16 hb=0 sent=291 dlv=291 class=33,0,42,72,72,72,0 first=9 last=12 out=3702bd98bb0d693d n1:c3c7160503a1f7b5 n2:17bb14661083d2e2 n3:f406441f8dba26b2 n4:fdc3799a4744c5f6
disjoint g1 rand t=64 hb=25 sent=291 dlv=291 class=33,0,42,72,72,72,0 first=31 last=45 out=3702bd98bb0d693d n1:c3c7160503a1f7b5 n2:17bb14661083d2e2 n3:f406441f8dba26b2 n4:fdc3799a4744c5f6
disjoint g2 rr t=20 hb=0 sent=318 dlv=318 class=30,0,36,90,90,72,0 first=10 last=14 out=6210db022c0ae53c n1:412136291f573292 n2:90f88ea51e70dfbd n3:7395a47933321641 n4:89154dda3535f01d
disjoint g2 rand t=68 hb=26 sent=318 dlv=318 class=30,0,36,90,90,72,0 first=24 last=64 out=6210db022c0ae53c n1:412136291f573292 n2:90f88ea51e70dfbd n3:7395a47933321641 n4:89154dda3535f01d
disjoint g3 rr t=16 hb=0 sent=387 dlv=387 class=42,0,51,99,99,96,0 first=5 last=12 out=32b2d0951e89dff0 n1:c7dc55fc65d65b3b n2:8de2efcbdf022a6d n3:d22859e2fef99cef n4:c654b6d05a2eb7d5
disjoint g3 rand t=64 hb=34 sent=387 dlv=387 class=42,0,51,99,99,96,0 first=8 last=39 out=32b2d0951e89dff0 n1:c7dc55fc65d65b3b n2:8de2efcbdf022a6d n3:d22859e2fef99cef n4:c654b6d05a2eb7d5
disjoint g4 rr t=16 hb=0 sent=339 dlv=339 class=39,0,42,81,81,96,0 first=9 last=12 out=d92fddd543efbb30 n1:54856fbda121f0b6 n2:a649ca2d90645974 n3:57e8e8ad3d38357f n4:a3fab2fcf807f8c9
disjoint g4 rand t=64 hb=28 sent=339 dlv=339 class=39,0,42,81,81,96,0 first=19 last=30 out=d92fddd543efbb30 n1:54856fbda121f0b6 n2:a649ca2d90645974 n3:57e8e8ad3d38357f n4:a3fab2fcf807f8c9
disjoint g5 rr t=16 hb=0 sent=366 dlv=366 class=45,0,45,90,90,96,0 first=9 last=12 out=392e3012b6d9d20d n1:61069f2095d68716 n2:2125e9fc12cfad89 n3:c2d5faf2205ed49f n4:0de2482a34113b94
disjoint g5 rand t=64 hb=30 sent=366 dlv=366 class=45,0,45,90,90,96,0 first=27 last=42 out=392e3012b6d9d20d n1:61069f2095d68716 n2:2125e9fc12cfad89 n3:c2d5faf2205ed49f n4:0de2482a34113b94
disjoint g6 rr t=16 hb=0 sent=426 dlv=426 class=54,0,54,99,99,120,0 first=8 last=11 out=b54d381191c3b129 n1:fb3f8e5d04c58877 n2:0172f4438149abfc n3:9de095d26ef8c32a n4:b829c4adb67376d8
disjoint g6 rand t=64 hb=28 sent=426 dlv=426 class=54,0,54,99,99,120,0 first=25 last=52 out=b54d381191c3b129 n1:fb3f8e5d04c58877 n2:0172f4438149abfc n3:9de095d26ef8c32a n4:b829c4adb67376d8
disjoint g7 rr t=16 hb=0 sent=378 dlv=378 class=45,0,45,90,90,108,0 first=5 last=12 out=20bfe6bd48c5dfcf n1:0824201bc3e19a89 n2:450b104410fa8dd9 n3:323f086fb7f269d4 n4:e21c4df703f7bd59
disjoint g7 rand t=64 hb=28 sent=378 dlv=378 class=45,0,45,90,90,108,0 first=26 last=43 out=20bfe6bd48c5dfcf n1:0824201bc3e19a89 n2:450b104410fa8dd9 n3:323f086fb7f269d4 n4:e21c4df703f7bd59
";

#[test]
fn strategy_runs_match_the_golden_record() {
    let actual = table().join("\n");
    assert!(
        actual == GOLDEN.trim(),
        "golden record differs; recomputed table:\n{actual}"
    );
}
