//! `jobpath` — one MathCloud job costed end to end and layer by layer.
//!
//! ```text
//! jobpath --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! One process hosts the container (journal, memoization and events all
//! on, REST served on loopback) and a closed-loop load generator of two
//! keep-alive clients. Without `--trace` it prints the end-to-end metrics;
//! with it, the per-layer ones, and writes the spans to
//! `bench/out/trace-<workload>.json`. The last line of standard output is
//! the result as one JSON object. `bench/README.md` has the full story.

mod gen;
mod layers;
mod load;
mod pin;
mod procstat;
mod prom;
mod report;
mod scratch;
mod services;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mathcloud_telemetry::metrics;

use gen::{Action, Op, Plan, Workload};
use load::{Phase, PhaseResult, Round, Sample};
use report::Outcome;
use scratch::Scratch;
use services::Node;
use trace::Span;

/// How often the untraced run sets the node up; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Restarts over the journal a job workload leaves: at least the first
/// number, and more — up to the second — while they stay within the budget,
/// so that a 5 ms recovery is not quoted from three samples.
/// `recover_ms` is their lower quartile: whatever else the host runs can
/// only slow a restart down.
const RESTART_CYCLES: (usize, usize) = (3, 15);
const RESTART_BUDGET: Duration = Duration::from_millis(1500);
/// Rounds the timed stream is cut into; each starts fresh client threads
/// and connections. Throughput is all rounds pooled — compaction makes
/// rounds differ by design, so none may be left out — and the per-round
/// rates are printed to show where the time went. The traced run switches
/// tracing per round.
const ROUNDS: usize = gen::ROUNDS;
/// Whether each round of the traced run records spans: both settings see
/// the same journal history on average.
const TRACED_ROUNDS: [bool; ROUNDS] = [false, true, true, false, false, true, true, false];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: jobpath [--workload <{}>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke]\n\
         without --workload, all five run in turn",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: gen::NOMINAL_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workloads = vec![Workload::parse(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?];
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.smoke {
        // Small enough that all five workloads finish in a few seconds.
        args.seconds = gen::NOMINAL_SECONDS / 50.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread exists, so that all of them inherit it.
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let placement = match pin::confine_to_one_core() {
        Some(core) => format!("cores={cores} pinned_to_core={core}"),
        None => format!("cores={cores} pinned_to_core=none"),
    };
    let mut all_correct = true;
    let mut lead_in = process_started;
    for &workload in &args.workloads {
        match run_workload(workload, &args, lead_in, &placement) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("jobpath {}: {e}", workload.name());
                return ExitCode::from(1);
            }
        }
        lead_in = Instant::now();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload and prints its metrics and result line. `Ok(false)`
/// is a run that finished with a wrong answer.
fn run_workload(
    workload: Workload,
    args: &Args,
    started: Instant,
    placement: &str,
) -> Result<bool, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch dir: {e}"))?;
    let plan = gen::plan(workload, args.seed, args.seconds);
    println!(
        "jobpath workload={} seed={} seconds={} trace={} ops={} clients={} handlers={} \
         {placement} loop=closed link=loopback scratch_fs={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.timed.len(),
        load::CLIENTS,
        services::HANDLERS,
        scratch.fs_type,
    );
    let mut run = Run {
        plan: &plan,
        scratch: &scratch,
        epoch: Instant::now(),
        trace: args.trace,
        check: Check::default(),
        spans: Vec::new(),
    };
    let reps = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut metrics = run.measure(started, reps)?;

    let catalogue = if args.trace {
        let path = scratch::out_dir().join(format!("trace-{}.json", workload.name()));
        trace::write(&path, workload.name(), args.seed, &run.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} spans written to {}", run.spans.len(), path.display());
        report::PER_LAYER
    } else {
        // The traced run measures the same operations, but its end-to-end
        // figures include tracing: they are not reported.
        metrics.retain(|(name, _)| report::END_TO_END.iter().any(|(n, _)| n == name));
        report::END_TO_END
    };
    let outcome = Outcome {
        correct: run.check.wrong == 0,
        attempted: run.check.attempted,
        failed: run.check.failed,
        metrics,
    };
    let resolved = report::resolve(catalogue, &outcome.metrics)?;
    for (name, value, unit) in &resolved {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for complaint in &run.check.complaints {
        println!("! {complaint}");
    }
    println!("{}", report::result_line(&outcome, &resolved));
    Ok(outcome.correct)
}

/// Correctness and failure accounting across the phases of one run.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    wrong: u64,
    complaints: Vec<String>,
}

impl Check {
    fn absorb(&mut self, result: &PhaseResult, ops: usize) {
        self.attempted += ops as u64;
        self.failed += result.failed;
        self.wrong += result.wrong;
        self.complaints.extend(result.complaints.iter().cloned());
    }

    fn require(&mut self, ok: bool, complaint: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            self.complaints.push(complaint());
        }
    }
}

/// A node that is set up and warm, and what the set-up left behind.
struct Ready {
    /// `None` for `restart_recover`, whose timed part starts the nodes.
    node: Option<Node>,
    /// Where the journals the set-up wrote live.
    dir: PathBuf,
    prime_ids: Vec<String>,
}

/// What the timed part of a run produced.
#[derive(Default)]
struct Timed {
    /// The timed operations, all rounds pooled.
    jobs: PhaseResult,
    /// How long each restart took.
    recovers: Vec<Duration>,
    /// Per-layer metrics that need the live node (traced run only).
    layers: Vec<(&'static str, f64)>,
}

struct Run<'a> {
    plan: &'a Plan,
    scratch: &'a Scratch,
    /// Zero point of span timestamps.
    epoch: Instant,
    trace: bool,
    check: Check,
    spans: Vec<Span>,
}

fn cache_counters(label: &str) -> (u64, u64) {
    let read = |name: &str| -> u64 {
        [services::DOUBLE, services::REVERSE, services::SPIN]
            .iter()
            .filter_map(|service| {
                metrics::global().counter_value(name, &[("container", label), ("service", service)])
            })
            .sum()
    };
    (read("mc_cache_hits_total"), read("mc_cache_misses_total"))
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn sorted_ms(durations: &[Duration]) -> Vec<f64> {
    stats::sorted(durations.iter().map(|d| d.as_secs_f64() * 1e3).collect())
}

impl Run<'_> {
    /// One phase against `node`, with the memo counters checked against
    /// what the plan said should hit and miss.
    fn phase(
        &mut self,
        node: &Node,
        ops: &[Op],
        prime_ids: &[String],
        traced: bool,
    ) -> PhaseResult {
        let label = node.everest.metrics_label().to_string();
        let (hits_before, misses_before) = cache_counters(&label);
        let result = load::run(&Phase {
            base: &node.base,
            ops,
            prime_ids,
            traced,
            epoch: self.epoch,
        });
        let (hits, misses) = cache_counters(&label);
        if result.failed == 0 {
            let counted = (hits - hits_before, misses - misses_before);
            self.check
                .require(counted == (result.hits, result.misses), || {
                    format!(
                        "memo counters moved by {counted:?} (hits, misses), the plan says ({}, {})",
                        result.hits, result.misses
                    )
                });
        }
        result
    }

    /// Starts a node over a fresh `name`d directory and brings it to the
    /// state the timed part begins in: hot keys primed, caches warm.
    fn set_up(&mut self, name: &str) -> Result<Ready, String> {
        let dir = self.scratch.subdir(name).map_err(|e| e.to_string())?;
        let node = Node::start(&dir).map_err(|e| format!("node start: {e}"))?;
        let plan = self.plan;
        let prime_ids = self
            .phase(&node, &plan.prime, &[], false)
            .expect_clean("prime")?
            .ids;
        self.phase(&node, &plan.warmup, &prime_ids, false)
            .expect_clean("warm-up")?;
        Ok(Ready {
            node: (plan.restart_bursts == 0).then_some(node),
            dir,
            prime_ids,
        })
    }

    /// Restarts over a copy of the journals in `src`: a new container
    /// recovers them and serves, and the clients fetch one recovered job
    /// and repeat one submission that must hit the restored memo entry.
    /// Returns the node and the time from restart to both answers in hand.
    fn restart(
        &mut self,
        src: &Path,
        cycle: usize,
        probe: &Op,
        probe_id: &str,
        expect_jobs: usize,
    ) -> Result<(Node, Duration), String> {
        let dir = self
            .scratch
            .subdir(&format!("restart-{cycle}"))
            .map_err(|e| e.to_string())?;
        for journal in [services::job_journal, services::events_journal] {
            std::fs::copy(journal(src), journal(&dir)).map_err(|e| format!("copy journal: {e}"))?;
        }
        let first_answers = [
            Op {
                service: probe.service,
                action: Action::Fetch { of: 0 },
                expect: probe.expect.clone(),
            },
            gen::repeat_as_hit(probe),
        ];
        let t = Instant::now();
        let node = Node::start(&dir).map_err(|e| format!("restart: {e}"))?;
        let answers = self.phase(&node, &first_answers, &[probe_id.to_string()], false);
        let took = t.elapsed();
        self.check.absorb(&answers, first_answers.len());
        let recovered = node.recovered;
        self.check.require(
            recovered.replayed == expect_jobs && recovered.requeued == 0,
            || format!("restart recovered {recovered:?}, expected {expect_jobs} terminal jobs"),
        );
        Ok((node, took))
    }

    /// The timed part of a job workload: the stream in rounds against the
    /// node the set-up left, then restarts over the journal it wrote.
    fn job_rounds(
        &mut self,
        node: Node,
        prime_ids: &[String],
        jobs_in_journal: usize,
    ) -> Result<Timed, String> {
        let plan = self.plan;
        let mut timed = Timed::default();
        let before = self.trace.then(|| Counts::take(&node)).transpose()?;
        for (round, &traced) in TRACED_ROUNDS.iter().enumerate() {
            let ops = &plan.timed
                [plan.timed.len() * round / ROUNDS..plan.timed.len() * (round + 1) / ROUNDS];
            let result = self.phase(&node, ops, prime_ids, self.trace && traced);
            timed.jobs.absorb(result);
        }
        self.check.absorb(&timed.jobs, plan.timed.len());
        let jobs_in_journal = jobs_in_journal + timed.jobs.misses as usize;
        if let Some(before) = before {
            let after = Counts::take(&node)?;
            timed.layers = before.deltas(&after, &node, &timed.jobs);
            timed.layers.push((
                "jobstore.bytes_per_job",
                after.journal_bytes / jobs_in_journal.max(1) as f64,
            ));
            timed.layers.push((
                "http.get_job_us_p50",
                self.get_job_probe(&node, &timed.jobs)?,
            ));
        }
        // The old process is gone before the new one recovers.
        let dir = node.dir.clone();
        drop(node);
        let probe_id = timed.jobs.ids[0].clone();
        let restarts_started = Instant::now();
        while !probe_id.is_empty()
            && (timed.recovers.len() < RESTART_CYCLES.0
                || (timed.recovers.len() < RESTART_CYCLES.1
                    && restarts_started.elapsed() < RESTART_BUDGET))
        {
            let cycle = timed.recovers.len();
            let (node, took) =
                self.restart(&dir, cycle, &plan.timed[0], &probe_id, jobs_in_journal)?;
            drop(node);
            timed.recovers.push(took);
        }
        Ok(timed)
    }

    /// The timed part of `restart_recover`: every burst of the stream runs
    /// against a node freshly restarted over the journal in `dir`.
    fn restart_bursts(
        &mut self,
        dir: &Path,
        prime_ids: &[String],
        jobs_in_journal: usize,
    ) -> Result<Timed, String> {
        let plan = self.plan;
        let mut timed = Timed::default();
        let per_burst = plan.timed.len() / plan.restart_bursts;
        for (b, ops) in plan.timed.chunks(per_burst).enumerate() {
            let (node, took) =
                self.restart(dir, b, &plan.prime[0], &prime_ids[0], jobs_in_journal)?;
            timed.recovers.push(took);
            // Counter deltas come from the first burst; every burst does
            // the same work on the same journal.
            let before = (self.trace && b == 0)
                .then(|| Counts::take(&node))
                .transpose()?;
            let traced = self.trace && TRACED_ROUNDS[b % ROUNDS];
            let burst = self.phase(&node, ops, prime_ids, traced);
            self.check.absorb(&burst, ops.len());
            if let Some(before) = before {
                timed.layers = self.live_layers(&before, &node, &burst, jobs_in_journal)?;
            }
            drop(node);
            timed.jobs.absorb(burst);
        }
        Ok(timed)
    }

    /// Set-up, the timed part, and the metrics.
    fn measure(
        &mut self,
        started: Instant,
        setup_reps: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let lead_in = started.elapsed();
        let mut setups = Vec::new();
        let mut ready = None;
        for rep in 0..setup_reps {
            // Tear the previous repetition down outside the clock.
            drop(ready.take());
            let t = Instant::now();
            ready = Some(self.set_up(&format!("node-{rep}"))?);
            setups.push(t.elapsed());
        }
        let Ready {
            node,
            dir,
            prime_ids,
        } = ready.expect("at least one set-up");
        let setup_s = lead_in.as_secs_f64() + stats::median(&sorted_ms(&setups)) / 1e3;

        let plan = self.plan;
        let jobs_in_journal = plan
            .prime
            .iter()
            .chain(&plan.warmup)
            .filter(|op| op.creates_job())
            .count();
        let mut timed = match node {
            Some(node) => self.job_rounds(node, &prime_ids, jobs_in_journal)?,
            None => self.restart_bursts(&dir, &prime_ids, jobs_in_journal)?,
        };
        if timed.jobs.samples.is_empty() || timed.recovers.is_empty() {
            return Err(format!(
                "nothing to report: {} operations succeeded, {} restarts; {}",
                timed.jobs.samples.len(),
                timed.recovers.len(),
                self.check.complaints.join("; ")
            ));
        }
        let rates: Vec<String> = timed
            .jobs
            .rounds
            .iter()
            .map(|r| format!("{:.1}", r.ok as f64 / r.wall_s))
            .collect();
        println!("jobs per second by round: {}", rates.join(" "));

        let mut metrics: Vec<(&'static str, f64)> = vec![
            ("setup_s", setup_s),
            (
                "recover_ms",
                stats::percentile(&sorted_ms(&timed.recovers), 25.0),
            ),
        ];
        metrics.extend(end_to_end(&timed.jobs));
        if self.trace {
            metrics.extend(client_metrics(&timed.jobs));
            metrics.extend(timed.layers);
            let replay = layers::replay(
                &plan.timed,
                &self.scratch.subdir("replay").map_err(|e| e.to_string())?,
                &services::job_journal(&dir),
                self.epoch,
            )?;
            metrics.extend(replay.metrics);
            self.spans.extend(replay.spans);
            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v)
            };
            let stage_sum_us = value("http.wire_read_us_p50")
                + value("json.parse_us_p50")
                + value("container.job_inproc_us_p50")
                + value("json.serialize_us_p50")
                + value("http.wire_write_us_p50");
            metrics.push((
                "trace.stage_sum_share",
                stage_sum_us / (1e3 * value("job_p50_ms")),
            ));
        }
        self.spans.append(&mut timed.jobs.spans);
        Ok(metrics)
    }

    /// The per-layer metrics that need the live node: counter deltas since
    /// `before` per operation of `jobs`, journal bytes per job in the
    /// journal, and the job `GET` probe.
    fn live_layers(
        &mut self,
        before: &Counts,
        node: &Node,
        jobs: &PhaseResult,
        jobs_in_journal: usize,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let after = Counts::take(node)?;
        let mut layers = before.deltas(&after, node, jobs);
        layers.push((
            "jobstore.bytes_per_job",
            after.journal_bytes / jobs_in_journal.max(1) as f64,
        ));
        layers.push(("http.get_job_us_p50", self.get_job_probe(node, jobs)?));
        Ok(layers)
    }

    /// Keep-alive `GET` of DONE jobs of the run: edge, router and
    /// serializer, no journal. Median in microseconds.
    fn get_job_probe(&mut self, node: &Node, jobs: &PhaseResult) -> Result<f64, String> {
        let ids: Vec<String> = jobs
            .ids
            .iter()
            .filter(|id| !id.is_empty())
            .take(500)
            .cloned()
            .collect();
        let ops: Vec<Op> = (0..ids.len())
            .map(|of| Op {
                service: self.plan.timed[0].service,
                action: Action::Fetch { of },
                expect: gen::Expect::Done,
            })
            .collect();
        let result = load::run(&Phase {
            base: &node.base,
            ops: &ops,
            prime_ids: &ids,
            traced: true,
            epoch: self.epoch,
        })
        .expect_clean("GET job probe")?;
        Ok(stats::median_of(trace::durations_us(
            &result.spans,
            "client.fetch",
        )))
    }
}

/// Jobs per second over `rounds` pooled: operations that succeeded over
/// the time the rounds took.
fn pooled_rate(rounds: &[Round]) -> f64 {
    let (ok, wall_s) = rounds.iter().fold((0.0, 0.0), |(ok, wall), r| {
        (ok + r.ok as f64, wall + r.wall_s)
    });
    ok / wall_s
}

/// The end-to-end metrics of the timed operations.
fn end_to_end(timed: &PhaseResult) -> Vec<(&'static str, f64)> {
    let samples = &timed.samples;
    let latency = stats::sorted(samples.iter().map(|s| s.latency_ms).collect());
    // What is left of a job's time once the compute the adapter itself
    // reported is taken out — the paper's "platform overhead", per job.
    let platform = |s: &Sample| (s.latency_ms - s.compute_ms).max(0.0);
    let platform_ms = stats::sorted(samples.iter().map(platform).collect());
    let share = stats::sorted(
        samples
            .iter()
            .map(|s| 100.0 * platform(s) / s.latency_ms)
            .collect(),
    );
    vec![
        ("jobs_per_s", pooled_rate(&timed.rounds)),
        ("job_p50_ms", stats::median(&latency)),
        ("overhead_pct", stats::median(&share)),
        // Per-layer: neither repeats within a quarter between identical
        // runs on every workload (fsync tail, fsync drift).
        ("client.job_p95_ms", stats::percentile(&latency, 95.0)),
        ("client.platform_ms_p50", stats::median(&platform_ms)),
    ]
}

/// `client.*`, `trace.overhead_pct`: from the spans and rounds of the
/// traced run.
fn client_metrics(timed: &PhaseResult) -> Vec<(&'static str, f64)> {
    let p50 = |name: &str| stats::median_of(trace::durations_us(&timed.spans, name));
    let latency = stats::sorted(timed.samples.iter().map(|s| s.latency_ms).collect());
    let tail_pct = stats::highest_supported_tail(latency.len()).unwrap_or(50.0);
    // Samples are pooled round by round, so the rounds' counts cut them
    // back apart. Medians, not rates: a round that holds a compaction runs
    // at half the rate whether it is traced or not, and would decide the
    // comparison.
    let p50_where = |traced: bool| {
        let mut at = 0;
        let mut latencies = Vec::new();
        for round in &timed.rounds {
            let samples = &timed.samples[at..at + round.ok];
            at += round.ok;
            if round.traced == traced {
                latencies.extend(samples.iter().map(|s| s.latency_ms));
            }
        }
        stats::median_of(latencies)
    };
    let attempts = (timed.samples.len() as u64 + timed.failed + timed.wrong).max(1) as f64;
    vec![
        ("client.post_us_p50", p50("client.post")),
        ("client.subscribe_us_p50", p50("client.subscribe")),
        ("client.wait_us_p50", p50("client.wait")),
        ("client.fetch_us_p50", p50("client.fetch")),
        ("client.job_p99_ms", stats::percentile(&latency, 99.0)),
        ("client.job_tail_ms", stats::percentile(&latency, tail_pct)),
        ("client.job_tail_pct", tail_pct),
        (
            "client.sync_miss_share",
            timed.sync_misses as f64 / attempts,
        ),
        (
            "trace.overhead_pct",
            100.0 * (p50_where(true) / p50_where(false) - 1.0),
        ),
    ]
}

/// Counters read at one instant: what `GET /metrics` serves, the events
/// bus's last id, journal sizes and `/proc/self`.
struct Counts {
    scrape: prom::Scrape,
    last_event: u64,
    journal_bytes: f64,
    events_bytes: f64,
    cpu_s: f64,
    ctx_switches: u64,
    at: Instant,
}

impl Counts {
    fn take(node: &Node) -> Result<Counts, String> {
        let metrics = mathcloud_http::Client::new()
            .get(&format!("{}/metrics", node.base))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Ok(Counts {
            scrape: prom::Scrape::parse(&metrics.body_string()),
            last_event: mathcloud_events::global().last_id(),
            journal_bytes: file_len(&services::job_journal(&node.dir)),
            events_bytes: file_len(&services::events_journal(&node.dir)),
            cpu_s: procstat::cpu_seconds(),
            ctx_switches: procstat::live_ctx_switches(),
            at: Instant::now(),
        })
    }

    /// Per-layer counts between `self` and `after`, per operation of
    /// `phase`.
    fn deltas(&self, after: &Counts, node: &Node, phase: &PhaseResult) -> Vec<(&'static str, f64)> {
        let label = node.everest.metrics_label();
        let me = [("container", label)];
        let d = |name: &str, labels: &[(&str, &str)]| {
            prom::delta(&self.scrape, &after.scrape, name, labels)
        };
        let jobs = (phase.ok() as f64).max(1.0);
        let mean_us = |family: &str| {
            let count = d(&format!("{family}_count"), &me);
            if count > 0.0 {
                1e6 * d(&format!("{family}_sum"), &me) / count
            } else {
                0.0
            }
        };
        let hits = d("mc_cache_hits_total", &me);
        let lookups = hits + d("mc_cache_misses_total", &me);
        let cpu_s = after.cpu_s - self.cpu_s;
        let wall_s = after.at.duration_since(self.at).as_secs_f64();
        let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        let ctx = (after.ctx_switches + phase.ctx_switches).saturating_sub(self.ctx_switches);
        vec![
            (
                "memo.hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            (
                "container.queue_wait_us_mean",
                mean_us("mc_job_wait_seconds"),
            ),
            ("container.run_us_mean", mean_us("mc_job_run_seconds")),
            (
                "jobstore.appends_per_job",
                d("mc_job_journal_appends_total", &[]) / jobs,
            ),
            (
                "jobstore.compactions",
                d("mc_job_journal_compactions_total", &[]),
            ),
            (
                "events.per_job",
                (after.last_event - self.last_event) as f64 / jobs,
            ),
            (
                "events.journal_bytes_per_job",
                (after.events_bytes - self.events_bytes) / jobs,
            ),
            ("proc.cpu_s_per_kjob", 1e3 * cpu_s / jobs),
            ("proc.cpu_util", cpu_s / (wall_s * cores)),
            ("proc.ctx_switches_per_job", ctx as f64 / jobs),
            ("proc.rss_mb_end", procstat::rss_mb()),
        ]
    }
}
