//! Exact-matrix computational services and the distributed Schur workflow.
//!
//! Reproduces the paper's first application: "a distributed algorithm of
//! matrix inversion has been implemented via Maxima CAS system exposed as a
//! computational web service … as a workflow based on block decomposition of
//! input matrix and Schur complement" (§4, Table 2).

use std::time::Duration;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_exact::{hilbert, InvertStrategy, Matrix, MulKernel};
use mathcloud_http::Server;
use mathcloud_json::value::Object;
use mathcloud_json::{json, Schema, Value};
use mathcloud_workflow::{Engine, HttpDescriptions, Workflow};

/// Records one exact inversion in the global metrics registry: duration in
/// the `mc_exact_invert_seconds` histogram (labelled by kernel) and the
/// pool's configured width in the `mc_exact_threads` gauge.
fn record_invert(kernel: &str, took: Duration) {
    let metrics = mathcloud_telemetry::metrics::global();
    metrics
        .histogram("mc_exact_invert_seconds", &[("kernel", kernel)])
        .observe_duration(took);
    metrics
        .gauge("mc_exact_threads", &[])
        .set(mathcloud_exact::effective_threads() as i64);
}

fn matrix_of(inputs: &Object, name: &str) -> Result<Matrix, String> {
    let text = inputs
        .get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing matrix input {name:?}"))?;
    Matrix::from_text(text).map_err(|e| format!("{name}: {e}"))
}

fn out(pairs: Vec<(&str, Value)>) -> Object {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn mat_param(name: &str) -> Parameter {
    Parameter::new(
        name,
        Schema::string()
            .min_length(1)
            .description("matrix in MathCloud text form"),
    )
}

/// Deploys the exact-matrix service family on a container:
/// `mat-invert`, `mat-mul`, `mat-add`, `mat-sub`, `mat-neg`, `mat-split`,
/// `mat-assemble`.
pub fn deploy_matrix_services(everest: &Everest) {
    everest.deploy(
        ServiceDescription::new(
            "mat-invert",
            "Exact (error-free) inversion of a rational matrix",
        )
        .input(mat_param("matrix"))
        .input(
            Parameter::new(
                "strategy",
                Schema::string()
                    .one_of(vec![json!("auto"), json!("gauss-jordan"), json!("bareiss")])
                    .default_value(json!("auto"))
                    .description("elimination kernel to run"),
            )
            .optional(),
        )
        .output(mat_param("result"))
        .output(Parameter::new(
            "bits",
            Schema::integer().description("max entry bit size"),
        ))
        .tag("linear-algebra")
        .tag("exact"),
        NativeAdapter::from_fn(|inputs, _| {
            let m = matrix_of(inputs, "matrix")?;
            // The schema validator has already constrained the value to the
            // enum (and filled the default), so this parse cannot fail on a
            // validated request; the error path guards direct callers.
            let strategy: InvertStrategy = inputs
                .get("strategy")
                .and_then(Value::as_str)
                .unwrap_or("auto")
                .parse()?;
            let t0 = std::time::Instant::now();
            let inv = m
                .invert(strategy, mathcloud_exact::effective_threads())
                .map_err(|e| e.to_string())?;
            record_invert(strategy.name(), t0.elapsed());
            Ok(out(vec![
                ("result", Value::from(inv.to_text())),
                ("bits", Value::from(inv.max_entry_bits())),
            ]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-mul", "Exact matrix product")
            .input(mat_param("a"))
            .input(mat_param("b"))
            .output(mat_param("result"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let a = matrix_of(inputs, "a")?;
            let b = matrix_of(inputs, "b")?;
            if a.cols() != b.rows() {
                return Err("shape mismatch in product".to_string());
            }
            Ok(out(vec![("result", Value::from((&a * &b).to_text()))]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-add", "Exact matrix sum")
            .input(mat_param("a"))
            .input(mat_param("b"))
            .output(mat_param("result"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let a = matrix_of(inputs, "a")?;
            let b = matrix_of(inputs, "b")?;
            if (a.rows(), a.cols()) != (b.rows(), b.cols()) {
                return Err("shape mismatch in sum".to_string());
            }
            Ok(out(vec![("result", Value::from((&a + &b).to_text()))]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-sub", "Exact matrix difference")
            .input(mat_param("a"))
            .input(mat_param("b"))
            .output(mat_param("result"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let a = matrix_of(inputs, "a")?;
            let b = matrix_of(inputs, "b")?;
            if (a.rows(), a.cols()) != (b.rows(), b.cols()) {
                return Err("shape mismatch in difference".to_string());
            }
            Ok(out(vec![("result", Value::from((&a - &b).to_text()))]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-neg", "Exact matrix negation")
            .input(mat_param("a"))
            .output(mat_param("result"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let a = matrix_of(inputs, "a")?;
            Ok(out(vec![("result", Value::from((-1 * &a).to_text()))]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-split", "2x2 block split of a square matrix")
            .input(mat_param("matrix"))
            .input(Parameter::new(
                "k",
                Schema::integer()
                    .minimum(1.0)
                    .description("leading block size"),
            ))
            .output(mat_param("a"))
            .output(mat_param("b"))
            .output(mat_param("c"))
            .output(mat_param("d"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let m = matrix_of(inputs, "matrix")?;
            let k = inputs
                .get("k")
                .and_then(Value::as_i64)
                .ok_or("missing split point k")? as usize;
            if !m.is_square() || k == 0 || k >= m.rows() {
                return Err("invalid split of a non-square matrix or out-of-range k".to_string());
            }
            let n = m.rows();
            Ok(out(vec![
                ("a", Value::from(m.submatrix(0, k, 0, k).to_text())),
                ("b", Value::from(m.submatrix(0, k, k, n).to_text())),
                ("c", Value::from(m.submatrix(k, n, 0, k).to_text())),
                ("d", Value::from(m.submatrix(k, n, k, n).to_text())),
            ]))
        }),
    );
    everest.deploy(
        ServiceDescription::new("mat-assemble", "Assemble a matrix from 2x2 blocks")
            .input(mat_param("tl"))
            .input(mat_param("tr"))
            .input(mat_param("bl"))
            .input(mat_param("br"))
            .output(mat_param("result"))
            .tag("linear-algebra"),
        NativeAdapter::from_fn(|inputs, _| {
            let tl = matrix_of(inputs, "tl")?;
            let tr = matrix_of(inputs, "tr")?;
            let bl = matrix_of(inputs, "bl")?;
            let br = matrix_of(inputs, "br")?;
            let m = Matrix::from_blocks(&tl, &tr, &bl, &br).map_err(|e| e.to_string())?;
            Ok(out(vec![("result", Value::from(m.to_text()))]))
        }),
    );
}

/// Starts `count` independent containers, each publishing the matrix
/// services — the paper's pool of computational web services.
///
/// # Panics
///
/// Panics on socket errors (benchmarks cannot proceed without servers).
pub fn spawn_matrix_farm(count: usize, handlers: usize) -> Vec<Server> {
    (0..count)
        .map(|i| {
            let everest = Everest::with_handlers(&format!("matrix-node-{i}"), handlers);
            deploy_matrix_services(&everest);
            mathcloud_everest::serve(everest, "127.0.0.1:0", None).expect("bind matrix container")
        })
        .collect()
}

/// Builds the distributed Schur-complement inversion workflow over a pool of
/// containers (4 in the paper's Table 2 configuration). Operations are
/// spread round-robin so independent steps land on different services.
///
/// Inputs: `matrix` (text form), `k` (split point). Output: `inverse`.
pub fn schur_workflow(bases: &[String]) -> Workflow {
    assert!(!bases.is_empty(), "need at least one container");
    let svc = |i: usize, name: &str| format!("{}/services/{}", bases[i % bases.len()], name);
    Workflow::new(
        "schur-inverse",
        "Distributed error-free matrix inversion via Schur complement",
    )
    .input("matrix", Schema::string())
    .input("k", Schema::integer())
    .service("split", &svc(0, "mat-split"))
    .service("inv_a", &svc(0, "mat-invert"))
    .service("aib", &svc(1, "mat-mul")) // A⁻¹·B
    .service("cai", &svc(2, "mat-mul")) // C·A⁻¹
    .service("caib", &svc(3, "mat-mul")) // C·(A⁻¹B)
    .service("s", &svc(3, "mat-sub")) // S = D − C·A⁻¹·B
    .service("inv_s", &svc(3, "mat-invert")) // S⁻¹
    .service("aibsi", &svc(1, "mat-mul")) // (A⁻¹B)·S⁻¹
    .service("tr", &svc(1, "mat-neg")) // −(A⁻¹B)·S⁻¹
    .service("sicai", &svc(2, "mat-mul")) // S⁻¹·(CA⁻¹)
    .service("bl", &svc(2, "mat-neg")) // −S⁻¹·CA⁻¹
    .service("corr", &svc(0, "mat-mul")) // (A⁻¹B·S⁻¹)·(CA⁻¹)
    .service("tl", &svc(0, "mat-add")) // A⁻¹ + correction
    .service("assemble", &svc(0, "mat-assemble"))
    .output("inverse", Schema::string())
    .wire(("matrix", "value"), ("split", "matrix"))
    .wire(("k", "value"), ("split", "k"))
    .wire(("split", "a"), ("inv_a", "matrix"))
    .wire(("inv_a", "result"), ("aib", "a"))
    .wire(("split", "b"), ("aib", "b"))
    .wire(("split", "c"), ("cai", "a"))
    .wire(("inv_a", "result"), ("cai", "b"))
    .wire(("split", "c"), ("caib", "a"))
    .wire(("aib", "result"), ("caib", "b"))
    .wire(("split", "d"), ("s", "a"))
    .wire(("caib", "result"), ("s", "b"))
    .wire(("s", "result"), ("inv_s", "matrix"))
    .wire(("aib", "result"), ("aibsi", "a"))
    .wire(("inv_s", "result"), ("aibsi", "b"))
    .wire(("aibsi", "result"), ("tr", "a"))
    .wire(("inv_s", "result"), ("sicai", "a"))
    .wire(("cai", "result"), ("sicai", "b"))
    .wire(("sicai", "result"), ("bl", "a"))
    .wire(("aibsi", "result"), ("corr", "a"))
    .wire(("cai", "result"), ("corr", "b"))
    .wire(("inv_a", "result"), ("tl", "a"))
    .wire(("corr", "result"), ("tl", "b"))
    .wire(("tl", "result"), ("assemble", "tl"))
    .wire(("tr", "result"), ("assemble", "tr"))
    .wire(("bl", "result"), ("assemble", "bl"))
    .wire(("inv_s", "result"), ("assemble", "br"))
    .wire(("assemble", "result"), ("inverse", "value"))
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Matrix dimension.
    pub n: usize,
    /// Serial in-process inversion time.
    pub serial: Duration,
    /// Distributed (4-service workflow) time, including all platform
    /// overhead.
    pub parallel: Duration,
    /// `serial / parallel`.
    pub speedup: f64,
}

/// Runs the Table 2 experiment for one Hilbert size against a live farm.
///
/// The serial column is the single-threaded rational Gauss–Jordan oracle —
/// the analogue of the paper's straightforward serial Maxima run. (The
/// in-process kernel race, serial oracle vs the Auto kernel, is a separate
/// experiment: [`kernel_row`] / `repro --table2 --json`.)
///
/// # Panics
///
/// Panics if the workflow fails — the experiment is meaningless otherwise.
pub fn table2_row(n: usize, bases: &[String]) -> Table2Row {
    let h = hilbert(n);

    let t0 = std::time::Instant::now();
    let serial_inverse = h.inverse_serial().expect("hilbert matrices are invertible");
    let serial = t0.elapsed();

    let workflow = schur_workflow(bases);
    let validated = mathcloud_workflow::validate(&workflow, &HttpDescriptions::new())
        .expect("schur workflow validates");
    let engine = Engine::new(validated);
    let inputs: Object = [
        ("matrix".to_string(), Value::from(h.to_text())),
        ("k".to_string(), Value::from(n / 2)),
    ]
    .into_iter()
    .collect();
    let t0 = std::time::Instant::now();
    let outputs = engine
        .run(&inputs, None)
        .expect("distributed inversion succeeds");
    let parallel = t0.elapsed();

    let distributed = Matrix::from_text(
        outputs
            .get("inverse")
            .and_then(Value::as_str)
            .expect("inverse output"),
    )
    .expect("well-formed result");
    assert_eq!(
        distributed, serial_inverse,
        "distributed result must be error-free"
    );

    Table2Row {
        n,
        serial,
        parallel,
        speedup: serial.as_secs_f64() / parallel.as_secs_f64(),
    }
}

/// One row of the in-process kernel benchmark behind `repro --table2 --json`.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Matrix dimension.
    pub n: usize,
    /// Serial rational Gauss–Jordan (the oracle).
    pub serial: Duration,
    /// Auto-strategy inversion on a 4-wide worker pool (Bareiss below the
    /// crossover, recursive Schur split above it).
    pub parallel: Duration,
    /// `serial / parallel`.
    pub speedup: f64,
    /// Largest numerator/denominator bit size in the inverse.
    pub max_entry_bits: usize,
    /// Which multiplication tier ([`MulKernel`]) integers of
    /// `max_entry_bits` dispatch to — the kernel the invert's biggest
    /// products actually ran on.
    pub mul_kernel: &'static str,
}

/// Times serial-oracle vs pooled-auto Hilbert inversion at size `n`,
/// asserting the two kernels agree bit for bit, and records both runs in the
/// `mc_exact_invert_seconds` histogram.
///
/// # Panics
///
/// Panics if the kernels disagree — the benchmark is meaningless otherwise.
pub fn kernel_row(n: usize, threads: usize) -> KernelRow {
    let h = hilbert(n);

    let t0 = std::time::Instant::now();
    let oracle = h.inverse_serial().expect("hilbert matrices are invertible");
    let serial = t0.elapsed();
    record_invert("serial-gj", serial);

    mathcloud_exact::set_threads(threads);
    let t0 = std::time::Instant::now();
    let fast = h.inverse().expect("hilbert matrices are invertible");
    let parallel = t0.elapsed();
    record_invert("auto", parallel);
    mathcloud_exact::set_threads(0);

    assert_eq!(fast, oracle, "parallel kernel must be error-free at n={n}");

    let max_entry_bits = oracle.max_entry_bits();
    KernelRow {
        n,
        serial,
        parallel,
        speedup: serial.as_secs_f64() / parallel.as_secs_f64(),
        max_entry_bits,
        mul_kernel: MulKernel::for_limbs(max_entry_bits.div_ceil(32)).name(),
    }
}

/// One point of the multiplication-crossover micro-benchmark behind
/// `repro --table2 --json`: both tiers timed on the same deterministic
/// operand pair, with bit-for-bit agreement asserted first.
#[derive(Debug, Clone)]
pub struct MulKernelRow {
    /// Operand size in 32-bit limbs (both operands).
    pub limbs: usize,
    /// Schoolbook (oracle) time per multiplication.
    pub schoolbook: Duration,
    /// Karatsuba time per multiplication.
    pub karatsuba: Duration,
}

/// Times both multiplication tiers on deterministic `limbs`-sized
/// operands: per multiplication, each kernel's least over five interleaved
/// blocks of repeats long enough to be measurable.
///
/// # Panics
///
/// Panics if Karatsuba disagrees with the schoolbook oracle.
pub fn mul_kernel_row(limbs: usize) -> MulKernelRow {
    use mathcloud_exact::BigInt;
    use mathcloud_telemetry::XorShift64;

    let mut rng = XorShift64::new(0xB16_Bu64 ^ limbs as u64);
    let digits = (limbs * 9633 / 1000).max(1);
    let decimal = |rng: &mut XorShift64| {
        let mut s = String::with_capacity(digits);
        s.push((b'1' + rng.index(9) as u8) as char);
        for _ in 1..digits {
            s.push((b'0' + rng.index(10) as u8) as char);
        }
        s.parse::<BigInt>().expect("generated decimal parses")
    };
    let a = decimal(&mut rng);
    let b = decimal(&mut rng);

    let oracle = a.mul_kernel(&b, MulKernel::Schoolbook);
    assert_eq!(a.mul_kernel(&b, MulKernel::Karatsuba), oracle);

    // Repeat until each block accumulates enough wall time for a stable
    // ratio; the smallest sizes multiply in microseconds. CI gates on the
    // tier ordering, so the kernels are timed in interleaved rounds and each
    // keeps its least block: a scheduler hiccup inflates one block of one
    // kernel, not that kernel's figure.
    let reps = (8192 / limbs.max(1)).max(4);
    let time = |kernel: MulKernel| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(a.mul_kernel(&b, kernel));
        }
        t0.elapsed() / reps as u32
    };
    let kernels = [MulKernel::Schoolbook, MulKernel::Karatsuba];
    let mut least = [Duration::MAX; 2];
    for _round in 0..5 {
        for (least, &kernel) in least.iter_mut().zip(&kernels) {
            *least = (*least).min(time(kernel));
        }
    }
    let [schoolbook, karatsuba] = least;
    MulKernelRow {
        limbs,
        schoolbook,
        karatsuba,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_services_compute_correctly() {
        let e = Everest::new("t");
        deploy_matrix_services(&e);
        let rep = e
            .submit_and_wait(
                "mat-invert",
                mathcloud_json::json!({"matrix": "2 0; 0 4"}),
                None,
                None,
                None,
                Some(Duration::from_secs(10)),
            )
            .unwrap()
            .rep;
        let outputs = rep.outputs.expect("done");
        assert_eq!(
            outputs.get("result").unwrap().as_str(),
            Some("1/2 0; 0 1/4")
        );
        // The inversion must land in the exact-kernel telemetry.
        let metrics = mathcloud_telemetry::metrics::global();
        assert!(metrics.gauge_value("mc_exact_threads", &[]).unwrap_or(0) >= 1);
        let hist = metrics.histogram("mc_exact_invert_seconds", &[("kernel", "auto")]);
        assert!(hist.snapshot().count >= 1);
    }

    #[test]
    fn mat_invert_honours_every_strategy_and_rejects_unknown_ones() {
        let e = Everest::new("t");
        deploy_matrix_services(&e);
        let mut results = Vec::new();
        for strategy in ["auto", "gauss-jordan", "bareiss"] {
            let rep = e
                .submit_and_wait(
                    "mat-invert",
                    mathcloud_json::json!({"matrix": "1 1/2; 1/2 1/3", "strategy": strategy}),
                    None,
                    None,
                    None,
                    Some(Duration::from_secs(10)),
                )
                .unwrap()
                .rep;
            let outputs = rep.outputs.expect("done");
            results.push(outputs.get("result").unwrap().as_str().unwrap().to_string());
            // Telemetry is labelled by the strategy that actually ran.
            let hist = mathcloud_telemetry::metrics::global()
                .histogram("mc_exact_invert_seconds", &[("kernel", strategy)]);
            assert!(hist.snapshot().count >= 1, "no sample for {strategy}");
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "strategies must agree bit for bit: {results:?}"
        );
        // Unknown values are rejected by the schema validator at submit.
        let err = e.submit_and_wait(
            "mat-invert",
            mathcloud_json::json!({"matrix": "2 0; 0 4", "strategy": "cholesky"}),
            None,
            None,
            None,
            Some(Duration::from_secs(10)),
        );
        assert!(err.is_err(), "invalid strategy must be rejected: {err:?}");
    }

    #[test]
    fn repeated_inverts_reuse_the_persistent_pool() {
        let e = Everest::new("t");
        deploy_matrix_services(&e);
        let matrix = hilbert(10).to_text();
        let invert = || {
            let rep = e
                .submit_and_wait(
                    "mat-invert",
                    mathcloud_json::json!({"matrix": (matrix.clone())}),
                    None,
                    None,
                    None,
                    Some(Duration::from_secs(30)),
                )
                .unwrap()
                .rep;
            assert!(rep.outputs.is_some(), "invert failed: {:?}", rep.error);
        };
        for _ in 0..10 {
            invert();
        }
        // Every kernel thread ends with its call: none outlives the inverts.
        // Other tests in this binary may be mid-call, so wait (bounded) for
        // an instant with none.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let left: Vec<String> = std::fs::read_dir("/proc/self/task")
                .expect("read /proc/self/task")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("mc-exact-"))
                .collect();
            if left.is_empty() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "left alive: {left:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The gauge still reports the configured kernel width.
        let width = mathcloud_telemetry::metrics::global()
            .gauge_value("mc_exact_threads", &[])
            .unwrap_or(0);
        assert!(width >= 1, "mc_exact_threads gauge unset");
    }

    #[test]
    fn mul_kernel_rows_time_both_tiers() {
        let row = mul_kernel_row(48);
        assert_eq!(row.limbs, 48);
        assert!(row.schoolbook > Duration::ZERO);
        assert!(row.karatsuba > Duration::ZERO);
    }

    #[test]
    fn matrix_services_reject_bad_shapes() {
        let e = Everest::new("t");
        deploy_matrix_services(&e);
        let rep = e
            .submit_and_wait(
                "mat-mul",
                mathcloud_json::json!({"a": "1 2; 3 4", "b": "1 2 3"}),
                None,
                None,
                None,
                Some(Duration::from_secs(10)),
            )
            .unwrap()
            .rep;
        assert_eq!(rep.state, mathcloud_core::JobState::Failed);
    }

    #[test]
    fn distributed_schur_matches_serial_inverse() {
        let servers = spawn_matrix_farm(4, 2);
        let bases: Vec<String> = servers.iter().map(Server::base_url).collect();
        let row = table2_row(12, &bases);
        assert_eq!(row.n, 12);
        assert!(row.parallel > Duration::ZERO);
    }

    #[test]
    fn workflow_works_with_a_single_container_too() {
        let servers = spawn_matrix_farm(1, 4);
        let bases: Vec<String> = servers.iter().map(Server::base_url).collect();
        let row = table2_row(8, &bases);
        assert!(row.speedup > 0.0);
    }
}
