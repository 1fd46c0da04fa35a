//! The paper's first application: error-free inversion of an
//! ill-conditioned Hilbert matrix, distributed over four matrix services
//! with a Schur-complement workflow (§4, Table 2).
//!
//! Run with: `cargo run --release -p mathcloud-examples --bin matrix_inversion [N]`

use std::time::Instant;

use mathcloud_bench::matrix::{schur_workflow, spawn_matrix_farm};
use mathcloud_events::KindFilter;
use mathcloud_exact::{hilbert, Matrix};
use mathcloud_json::value::Object;
use mathcloud_json::Value;
use mathcloud_workflow::{validate, Engine, HttpDescriptions};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);

    println!("inverting the {n}x{n} Hilbert matrix (condition number grows like (1+√2)^(4n))");
    let h = hilbert(n);

    // Serial baseline: one exact in-process inversion.
    let t0 = Instant::now();
    let serial = h.inverse().expect("hilbert matrices are invertible");
    let serial_time = t0.elapsed();
    println!(
        "serial inversion: {:.3}s (largest entry: {} bits)",
        serial_time.as_secs_f64(),
        serial.max_entry_bits()
    );

    // Distributed: 4 containers, Schur workflow.
    let servers = spawn_matrix_farm(4, 4);
    let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();
    println!("\nstarted 4 matrix-service containers:");
    for b in &bases {
        println!("  {b}");
    }

    let workflow = schur_workflow(&bases);
    println!("\nworkflow blocks: {}", workflow.blocks.len());
    let validated = validate(&workflow, &HttpDescriptions::new()).expect("workflow validates");
    let engine = Engine::new(validated);

    let inputs: Object = [
        ("matrix".to_string(), Value::from(h.to_text())),
        ("k".to_string(), Value::from(n / 2)),
    ]
    .into_iter()
    .collect();

    // Live block states, pushed as `workflow.block.*` events: what the
    // graphical editor renders as colors.
    let events =
        mathcloud_events::global().subscribe(KindFilter::parse("workflow.block."), 1 << 10);
    let t0 = Instant::now();
    let (outputs, parallel_time) = std::thread::scope(|scope| {
        let run = scope.spawn(|| (engine.run(&inputs, None), t0.elapsed()));
        loop {
            match events.recv_timeout(std::time::Duration::from_millis(200)) {
                Some(ev) => {
                    let block = ev.payload.get("block").and_then(Value::as_str);
                    let state = ev.kind.trim_start_matches("workflow.block.");
                    println!("  {}: {state}", block.unwrap_or("?"));
                }
                None if run.is_finished() => break,
                None => {}
            }
        }
        run.join().expect("the engine does not panic")
    });
    let outputs = outputs.expect("distributed inversion succeeds");

    let distributed = Matrix::from_text(
        outputs
            .get("inverse")
            .and_then(Value::as_str)
            .expect("inverse output"),
    )
    .expect("well-formed matrix");
    assert_eq!(
        distributed, serial,
        "error-free: results are *identical*, not just close"
    );

    println!(
        "\ndistributed inversion: {:.3}s",
        parallel_time.as_secs_f64()
    );
    println!(
        "speedup: {:.2}x (paper's Table 2: 1.60x at N=250 up to 2.73x at N=500)",
        serial_time.as_secs_f64() / parallel_time.as_secs_f64()
    );
    println!(
        "verification: H * H^-1 == I exactly: {}",
        (&h * &distributed) == Matrix::identity(n)
    );
}
