//! The three services the benchmark deploys, and the node that hosts them.
//!
//! Every adapter times itself and returns `compute_us`, so the client can
//! split each job's end-to-end time into compute and platform — the paper's
//! §4 overhead figure, per job.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::{Everest, RecoveryReport};
use mathcloud_http::{Server, Url};
use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};

/// Instant service: `{n}` → `{d: 2n}`.
pub const DOUBLE: &str = "double";
/// Per-byte service: `{data}` → `{file: mc-file of the reversed bytes, bytes}`.
pub const REVERSE: &str = "reverse";
/// Compute service: `{n, ms}` → `{digest}` after spinning a core for `ms`.
pub const SPIN: &str = "spin";

/// Handler threads per container (`nproc` of the seed box).
pub const HANDLERS: usize = 2;

/// What `spin` must answer for `n`: a splitmix chain, cheap next to the
/// spin itself, that a client can recompute.
pub fn spin_digest(n: i64) -> i64 {
    let mut x = n as u64;
    for _ in 0..1000 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    // 53 bits: exact in a JSON number whichever way it is parsed.
    (x >> 11) as i64
}

fn int_input(inputs: &Object, name: &str) -> Result<i64, String> {
    inputs
        .get(name)
        .and_then(Value::as_i64)
        .ok_or_else(|| format!("input {name} must be an integer"))
}

fn outputs(started: Instant, mut fields: Vec<(&str, Value)>) -> Object {
    fields.push((
        "compute_us",
        Value::from(started.elapsed().as_nanos() as f64 / 1e3),
    ));
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Deploys `double`, `reverse` and `spin`.
pub fn deploy(e: &Everest) {
    let compute_us = || Parameter::new("compute_us", Schema::number());
    e.deploy(
        ServiceDescription::new(DOUBLE, "doubles an integer")
            .input(Parameter::new("n", Schema::integer()))
            .output(Parameter::new("d", Schema::integer()))
            .output(compute_us()),
        NativeAdapter::from_fn(|inputs, _ctx| {
            let started = Instant::now();
            let n = int_input(inputs, "n")?;
            Ok(outputs(started, vec![("d", Value::from(n * 2))]))
        }),
    );
    e.deploy(
        ServiceDescription::new(REVERSE, "reverses its input into a file")
            .input(Parameter::new("data", Schema::string()))
            .output(Parameter::new("file", Schema::string()))
            .output(Parameter::new("bytes", Schema::integer()))
            .output(compute_us()),
        NativeAdapter::from_fn(|inputs, ctx| {
            let started = Instant::now();
            let data = inputs
                .get("data")
                .and_then(Value::as_str)
                .ok_or("input data must be a string")?;
            let mut bytes = data.as_bytes().to_vec();
            bytes.reverse();
            let len = bytes.len() as i64;
            let file = ctx.store_file(bytes);
            Ok(outputs(
                started,
                vec![("file", file), ("bytes", Value::from(len))],
            ))
        }),
    );
    e.deploy(
        ServiceDescription::new(SPIN, "keeps one core busy for ms milliseconds")
            .input(Parameter::new("n", Schema::integer()))
            .input(Parameter::new("ms", Schema::integer()))
            .output(Parameter::new("digest", Schema::integer()))
            .output(compute_us()),
        NativeAdapter::from_fn(|inputs, _ctx| {
            let started = Instant::now();
            let digest = spin_digest(int_input(inputs, "n")?);
            let budget = Duration::from_millis(int_input(inputs, "ms")?.max(0) as u64);
            while started.elapsed() < budget {
                std::hint::spin_loop();
            }
            Ok(outputs(started, vec![("digest", Value::from(digest))]))
        }),
    );
}

/// One container with everything switched on, serving on loopback.
pub struct Node {
    pub everest: Everest,
    /// Held for its lifetime: dropping it drains and stops the listener.
    _server: Server,
    pub base: Url,
    /// Where its journals live.
    pub dir: PathBuf,
    /// What the job journal held when it was attached.
    pub recovered: RecoveryReport,
}

impl Node {
    /// Starts a container over the journals in `dir` (created when absent):
    /// memoization on, events journal attached, job journal attached and
    /// recovered, REST served on an ephemeral loopback port with the
    /// default server configuration.
    ///
    /// # Errors
    ///
    /// Journal and socket errors.
    pub fn start(dir: &Path) -> io::Result<Node> {
        let everest = Everest::with_handlers("jobpath", HANDLERS);
        deploy(&everest);
        everest.set_result_memoization(true);
        mathcloud_events::global().attach_journal(&events_journal(dir))?;
        let recovered = everest.attach_job_journal(&job_journal(dir))?;
        let server = mathcloud_everest::serve(everest.clone(), "127.0.0.1:0", None)?;
        let base: Url = server
            .base_url()
            .parse()
            .map_err(|e| io::Error::other(format!("server base url: {e}")))?;
        Ok(Node {
            everest,
            _server: server,
            base,
            dir: dir.to_path_buf(),
            recovered,
        })
    }
}

/// The job journal of the node living in `dir`.
pub fn job_journal(dir: &Path) -> PathBuf {
    dir.join("jobs.jsonl")
}

/// The events journal of the node living in `dir`.
pub fn events_journal(dir: &Path) -> PathBuf {
    dir.join("events.jsonl")
}
