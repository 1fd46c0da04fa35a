//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--table1] [--table2 [--json] [--smoke]] [--dw] [--xray] [--all]
//!       [--full]
//! ```
//!
//! Without flags, `--all` is assumed. `--full` runs Table 2 at the paper's
//! matrix sizes (N = 250…500); expect a long run — the default uses scaled
//! sizes that finish in minutes and exhibit the same speedup shape.
//!
//! `--table2 --json` runs the in-process kernel benchmark (serial rational
//! Gauss–Jordan oracle vs the 4-thread Auto kernel, plus the
//! schoolbook/Karatsuba multiplication crossover sweep) and writes
//! `BENCH_5.json` to the current directory; `--smoke` restricts it to the CI
//! smoke sizes. It exits non-zero when the largest N inverts slower in
//! parallel than serially, or when Karatsuba is slower than schoolbook at 256
//! limbs.

use std::time::{Duration, Instant};

use mathcloud_bench::dw::{spawn_solver_pool, RemoteSolverPool, SolverLatency};
use mathcloud_bench::matrix::{kernel_row, mul_kernel_row, spawn_matrix_farm, table2_row};
use mathcloud_bench::xrayservices::spawn_xray_server;
use mathcloud_client::ServiceClient;
use mathcloud_json::{json, Value};
use mathcloud_opt::transport::MultiCommodityProblem;
use mathcloud_opt::{solve_dantzig_wolfe, DwOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = args.is_empty() || has("--all");
    let full = has("--full");

    if all || has("--table1") {
        table1();
    }
    if all || has("--table2") {
        if has("--json") {
            table2_json(has("--smoke"));
        } else {
            table2(full);
        }
    }
    if all || has("--dw") {
        dantzig_wolfe();
    }
    if all || has("--xray") {
        xray();
    }
}

/// Table 1: the unified REST API, demonstrated live against a container.
fn table1() {
    println!("== Table 1: unified REST API of computational web services ==");
    let servers = spawn_matrix_farm(1, 2);
    let base = servers[0].base_url();
    let client = mathcloud_http::Client::new();

    let desc = client
        .get(&format!("{base}/services/mat-invert"))
        .expect("GET service");
    println!(
        "GET  service  -> {} (service description)",
        desc.status.as_u16()
    );

    let submit = client
        .post_json(
            &format!("{base}/services/mat-invert"),
            &json!({"matrix": "2 0; 0 4"}),
        )
        .expect("POST service");
    let rep = submit.body_json().expect("json body");
    println!(
        "POST service  -> {} (job created, state {})",
        submit.status.as_u16(),
        rep["state"].as_str().unwrap_or("?")
    );

    let job_uri = rep["uri"].as_str().expect("job uri").to_string();
    let poll = client.get(&format!("{base}{job_uri}")).expect("GET job");
    println!(
        "GET  job      -> {} (status and results)",
        poll.status.as_u16()
    );

    // File resource: run a job that produces a file output.
    let store = mathcloud_everest::Everest::new("file-demo");
    store.deploy(
        mathcloud_core::ServiceDescription::new("store", "stores payloads")
            .input(mathcloud_core::Parameter::new(
                "payload",
                mathcloud_json::Schema::string(),
            ))
            .output(mathcloud_core::Parameter::new(
                "file",
                mathcloud_json::Schema::string(),
            )),
        mathcloud_everest::adapter::NativeAdapter::from_fn(|inputs, ctx| {
            let p = inputs.get("payload").and_then(Value::as_str).unwrap_or("");
            Ok(
                [("file".to_string(), ctx.store_file(p.as_bytes().to_vec()))]
                    .into_iter()
                    .collect(),
            )
        }),
    );
    let fs = mathcloud_everest::serve(store, "127.0.0.1:0", None).expect("bind");
    let rep = client
        .post_json(
            &format!("{}/services/store", fs.base_url()),
            &json!({"payload": "large data"}),
        )
        .expect("POST store")
        .body_json()
        .expect("json");
    let file_url = rep["outputs"]["file"].as_str().expect("file url");
    let file = client.get(file_url).expect("GET file");
    println!(
        "GET  file     -> {} ({} bytes)",
        file.status.as_u16(),
        file.body.len()
    );

    let del = client
        .delete(&format!("{base}{job_uri}"))
        .expect("DELETE job");
    println!(
        "DEL  job      -> {} (job data deleted)",
        del.status.as_u16()
    );
    println!();
}

/// Table 2: Hilbert inversion, serial vs distributed 4-service workflow.
fn table2(full: bool) {
    println!("== Table 2: Hilbert (NxN) inversion, serial vs MathCloud (4-block) ==");
    let sizes: &[usize] = if full {
        &[250, 300, 350, 400, 450, 500]
    } else {
        &[16, 24, 32, 48, 64, 80, 100]
    };
    if !full {
        println!("(scaled sizes; run with --full for the paper's N = 250..500)");
    }
    let servers = spawn_matrix_farm(4, 4);
    let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();
    println!(
        "{:>5} {:>12} {:>12} {:>9}",
        "N", "serial (s)", "parallel (s)", "speedup"
    );
    for &n in sizes {
        let row = table2_row(n, &bases);
        println!(
            "{:>5} {:>12} {:>12} {:>9.2}",
            row.n,
            mathcloud_bench::secs(row.serial),
            mathcloud_bench::secs(row.parallel),
            row.speedup
        );
    }
    println!("(paper: speedup 1.60 at N=250 rising to 2.73 at N=500)");
    println!();
}

/// Table 2 kernel baseline: serial oracle vs the 4-thread Auto kernel plus
/// the multiplication-crossover sweep, emitted as `BENCH_5.json`. Exits the
/// process with status 1 when either speed gate fails.
fn table2_json(smoke: bool) {
    println!("== Table 2 kernel baseline: serial Gauss-Jordan vs 4-thread auto ==");
    let sizes: &[usize] = if smoke {
        &[16, 24, 32]
    } else {
        &[16, 24, 32, 48, 64, 100]
    };
    let threads = 4;
    println!(
        "{:>5} {:>12} {:>12} {:>9} {:>9} {:>11}",
        "N", "serial (s)", "parallel (s)", "speedup", "max bits", "mul kernel"
    );
    let mut rows = Vec::new();
    let mut largest = None;
    let mut failures = Vec::new();
    for &n in sizes {
        let row = kernel_row(n, threads);
        println!(
            "{:>5} {:>12} {:>12} {:>9.2} {:>9} {:>11}",
            row.n,
            mathcloud_bench::secs(row.serial),
            mathcloud_bench::secs(row.parallel),
            row.speedup,
            row.max_entry_bits,
            row.mul_kernel
        );
        rows.push(json!({
            "n": (row.n),
            "serial_ms": (row.serial.as_secs_f64() * 1e3),
            "parallel_ms": (row.parallel.as_secs_f64() * 1e3),
            "speedup": (row.speedup),
            "max_entry_bits": (row.max_entry_bits),
            "mul_kernel": (row.mul_kernel),
        }));
        largest = Some(row);
    }
    let last = largest.expect("at least one matrix size");
    if last.parallel > last.serial {
        failures.push(format!(
            "parallel inversion slower than serial at N={}: {:.1}ms vs {:.1}ms",
            last.n,
            last.parallel.as_secs_f64() * 1e3,
            last.serial.as_secs_f64() * 1e3
        ));
    }

    // Multiplication crossover sweep: both tiers on the same operands,
    // agreement asserted inside `mul_kernel_row`, each tier's least of
    // interleaved rounds. The smoke set keeps the 256-limb point CI gates
    // on (Karatsuba must beat schoolbook there).
    println!("== Multiplication kernels: schoolbook vs Karatsuba ==");
    let limb_sizes: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[32, 64, 128, 256, 512, 1024]
    };
    println!(
        "{:>7} {:>14} {:>14}",
        "limbs", "schoolbook (s)", "karatsuba (s)"
    );
    let mut mul_rows = Vec::new();
    let mut big = None;
    for &limbs in limb_sizes {
        let row = mul_kernel_row(limbs);
        println!(
            "{:>7} {:>14} {:>14}",
            row.limbs,
            mathcloud_bench::secs(row.schoolbook),
            mathcloud_bench::secs(row.karatsuba)
        );
        mul_rows.push(json!({
            "limbs": (row.limbs),
            "schoolbook_ms": (row.schoolbook.as_secs_f64() * 1e3),
            "karatsuba_ms": (row.karatsuba.as_secs_f64() * 1e3),
        }));
        if row.limbs == 256 {
            if row.karatsuba > row.schoolbook {
                failures.push(format!(
                    "Karatsuba slower than schoolbook at {} limbs: {:.3}ms vs {:.3}ms",
                    row.limbs,
                    row.karatsuba.as_secs_f64() * 1e3,
                    row.schoolbook.as_secs_f64() * 1e3
                ));
            }
            big = Some(row);
        }
    }

    let report = json!({
        "bench": "table2-kernels",
        "threads": threads,
        "rows": (Value::Array(rows)),
        "mul_kernels": (Value::Array(mul_rows)),
    });
    std::fs::write("BENCH_5.json", report.to_pretty_string()).expect("write BENCH_5.json");
    println!(
        "wrote BENCH_5.json ({} sizes, {} mul points)",
        sizes.len(),
        limb_sizes.len()
    );

    let big = big.expect("the sweep includes the 256-limb point");
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    }
    println!(
        "BENCH_5.json OK: speedup {:.2}x at N={}, karatsuba {:.3}ms vs schoolbook {:.3}ms at {} limbs",
        last.speedup,
        last.n,
        big.karatsuba.as_secs_f64() * 1e3,
        big.schoolbook.as_secs_f64() * 1e3,
        big.limbs
    );
    println!();
}

/// §4 application 3: Dantzig–Wolfe over a pool of solver services.
fn dantzig_wolfe() {
    println!("== Dantzig-Wolfe on multi-commodity transportation (solver pool scaling) ==");
    let problem = MultiCommodityProblem::random(6, 2, 3, 2024);
    let direct = mathcloud_opt::solve(&problem.to_lp())
        .optimal()
        .expect("feasible instance");
    println!("monolithic LP optimum: {}", direct.objective);
    println!(
        "{:>9} {:>11} {:>11} {:>8} {:>8}",
        "services", "time (s)", "objective", "iters", "subprob"
    );
    let mut one_service = None;
    for pool in [1usize, 2, 4, 8] {
        let servers = spawn_solver_pool(pool, SolverLatency(Duration::from_millis(15)));
        let bases: Vec<String> = servers.iter().map(|s| s.base_url()).collect();
        let solver = RemoteSolverPool::new(problem.clone(), &bases);
        let t0 = Instant::now();
        let dw = solve_dantzig_wolfe(&problem, &solver, &DwOptions::default()).expect("converges");
        let took = t0.elapsed();
        assert_eq!(
            dw.objective, direct.objective,
            "decomposition must be exact"
        );
        if pool == 1 {
            one_service = Some(took);
        }
        let speedup = one_service
            .map(|t| t.as_secs_f64() / took.as_secs_f64())
            .unwrap_or(1.0);
        println!(
            "{:>9} {:>11} {:>11} {:>8} {:>8}   ({speedup:.2}x vs 1 service)",
            pool,
            mathcloud_bench::secs(took),
            dw.objective.to_string(),
            dw.stats.iterations,
            dw.stats.subproblems_solved,
        );
    }
    println!();
}

/// §4 application 2: the X-ray analysis pipeline.
fn xray() {
    println!("== X-ray film analysis (paper: prevalence of low-aspect-ratio toroids) ==");
    let server = spawn_xray_server();
    let base = server.base_url();
    let scatter = ServiceClient::connect(&format!("{base}/services/xray-scatter")).expect("url");
    let fit = ServiceClient::connect(&format!("{base}/services/xray-fit")).expect("url");

    let structures = [
        json!({"kind": "toroid", "major_r": 1.0, "minor_r": 0.45}),
        json!({"kind": "tube", "radius": 0.5, "length": 3.0}),
        json!({"kind": "sphere", "radius": 0.8}),
    ];
    let labels = ["toroid (low aspect)", "tube", "sphere"];

    // Parallel scattering: one grid-backed service job per structure.
    let t0 = Instant::now();
    let jobs: Vec<_> = structures
        .iter()
        .map(|s| {
            scatter
                .submit(&json!({"structure": (s.clone()), "q_points": 96}))
                .expect("submit scatter")
        })
        .collect();
    let curves: Vec<Vec<f64>> = jobs
        .into_iter()
        .map(|j| {
            let rep = j.wait(Duration::from_secs(120)).expect("scatter done");
            rep.outputs
                .expect("outputs")
                .get("curve")
                .expect("curve output")
                .as_array()
                .expect("curve array")
                .iter()
                .map(|v| v.as_f64().expect("number"))
                .collect()
        })
        .collect();
    println!(
        "computed {} scattering curves in {}s",
        curves.len(),
        mathcloud_bench::secs(t0.elapsed())
    );

    // Synthetic film: toroid-dominated mixture + noise.
    let truth = [0.6, 0.25, 0.15];
    let film = mathcloud_xray::synthesize_film(&curves, &truth, 0.01, 42);

    let basis_value = Value::Array(
        curves
            .iter()
            .map(|c| Value::Array(c.iter().map(|&x| Value::from(x)).collect()))
            .collect(),
    );
    let film_value = Value::Array(film.iter().map(|&x| Value::from(x)).collect());
    let rep = fit
        .call(
            &json!({"observed": film_value, "basis": basis_value}),
            Duration::from_secs(120),
        )
        .expect("fit done");
    let fractions: Vec<f64> = rep
        .outputs
        .expect("outputs")
        .get("fractions")
        .expect("fractions output")
        .as_array()
        .expect("fractions")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();
    println!("{:>22} {:>9} {:>9}", "structure", "planted", "fitted");
    for ((label, want), got) in labels.iter().zip(&truth).zip(&fractions) {
        println!("{label:>22} {want:>9.2} {got:>9.2}");
    }
    let dominant = fractions
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("nonempty");
    println!(
        "dominant component: {} (paper: low-aspect-ratio toroids)",
        labels[dominant]
    );
    println!();
}
