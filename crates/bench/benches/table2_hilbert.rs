//! Table 2 reproduction: serial vs distributed (4-service Schur workflow)
//! Hilbert matrix inversion.
//!
//! The paper reports minutes-scale Maxima runs for N = 250…500; our compiled
//! exact kernel is orders of magnitude faster, so the sweep here uses scaled
//! sizes and the `repro` binary covers larger N. The *shape* under test is
//! the same: speedup grows with N as compute dominates platform overhead.
//! Includes the block-granularity ablation (split point k).

use mathcloud_bench::harness::Harness;
use mathcloud_bench::matrix::{schur_workflow, spawn_matrix_farm};
use mathcloud_exact::hilbert;
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_workflow::{validate, Engine, HttpDescriptions};

fn main() {
    let mut h = Harness::from_args();
    let servers = spawn_matrix_farm(4, 4);
    let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();
    let workflow = schur_workflow(&bases);
    let validated = validate(&workflow, &HttpDescriptions::new()).expect("workflow validates");
    let engine = Engine::new(validated);

    {
        let mut group = h.group("table2_hilbert");
        group.sample_size(10);
        for n in [16usize, 24, 32, 40] {
            let hm = hilbert(n);
            group.bench_with_input("serial", &n, &hm, |b, hm| {
                b.iter(|| hm.inverse().expect("invertible"));
            });
            let inputs: Object = [
                ("matrix".to_string(), Value::from(hm.to_text())),
                ("k".to_string(), Value::from(n / 2)),
            ]
            .into_iter()
            .collect();
            group.bench_with_input("mathcloud_4svc", &n, &inputs, |b, inputs| {
                b.iter(|| engine.run(inputs, None).expect("distributed inversion"));
            });
        }
        group.finish();
    }

    // Ablation: split granularity for a fixed N.
    let mut group = h.group("table2_split_ablation");
    group.sample_size(10);
    let n = 32;
    let hm = hilbert(n);
    for k in [n / 4, n / 2, 3 * n / 4] {
        let inputs: Object = [
            ("matrix".to_string(), Value::from(hm.to_text())),
            ("k".to_string(), Value::from(k)),
        ]
        .into_iter()
        .collect();
        group.bench_with_input("split_k", &k, &inputs, |b, inputs| {
            b.iter(|| engine.run(inputs, None).expect("distributed inversion"));
        });
    }
    group.finish();
}
