//! The closed-loop load generator.
//!
//! Callers of a computational service wait for their reply, so each client
//! thread sends its next request only after the previous job is fully in
//! hand: terminal representation, outputs, and the output file where there
//! is one. Clients hold one keep-alive connection each, over loopback.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mathcloud_http::client::Connection;
use mathcloud_http::sse::{self, WatchResult};
use mathcloud_http::{Client, Method, Request, Response, Url, MEMO_HIT_HEADER};
use mathcloud_json::Value;
use mathcloud_security::sha256;

use crate::gen::{Action, Expect, Op};
use crate::procstat;
use crate::services::spin_digest;
use crate::trace::{Span, Tracer};

/// Client threads (`nproc` of the seed box).
pub const CLIENTS: usize = 2;

/// A job that has not settled after this long is a failed operation.
const JOB_DEADLINE: Duration = Duration::from_secs(30);

/// One successful operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit → everything in hand.
    pub latency_ms: f64,
    /// What the adapter said it spent computing.
    pub compute_ms: f64,
}

/// One stretch of operations the clients started together.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub traced: bool,
    pub ok: usize,
    /// First client starting to last client finishing.
    pub wall_s: f64,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// One entry per [`run`] pooled into this result.
    pub rounds: Vec<Round>,
    /// Refused, failed or timed-out operations; they have no sample.
    pub failed: u64,
    /// Replies that arrived but held the wrong answer.
    pub wrong: u64,
    /// First few failure and wrong-answer descriptions.
    pub complaints: Vec<String>,
    /// POSTs answered with a non-terminal job.
    pub sync_misses: u64,
    /// Successful submissions, split by whether a memo hit was expected.
    pub hits: u64,
    pub misses: u64,
    /// Job id per operation index (empty where the operation failed).
    pub ids: Vec<String>,
    pub spans: Vec<Span>,
    /// Context switches of the client threads.
    pub ctx_switches: u64,
}

impl PhaseResult {
    /// Pools a later round of the same operation stream into this result.
    pub fn absorb(&mut self, later: PhaseResult) {
        self.samples.extend(later.samples);
        self.rounds.extend(later.rounds);
        self.failed += later.failed;
        self.wrong += later.wrong;
        self.complaints.extend(later.complaints);
        self.complaints.truncate(5);
        self.sync_misses += later.sync_misses;
        self.hits += later.hits;
        self.misses += later.misses;
        self.ids.extend(later.ids);
        self.spans.extend(later.spans);
        self.ctx_switches += later.ctx_switches;
    }

    pub fn ok(&self) -> usize {
        self.samples.len()
    }

    /// Fails unless every operation succeeded with the right answer — for
    /// the untimed phases, where a failure voids the run.
    pub fn expect_clean(self, phase: &str) -> Result<PhaseResult, String> {
        if self.failed == 0 && self.wrong == 0 {
            Ok(self)
        } else {
            Err(format!(
                "{phase}: {} failed, {} wrong: {}",
                self.failed,
                self.wrong,
                self.complaints.join("; ")
            ))
        }
    }
}

/// What a phase runs and how.
pub struct Phase<'a> {
    pub base: &'a Url,
    pub ops: &'a [Op],
    /// Job ids of the prime phase, for [`Action::Fetch`].
    pub prime_ids: &'a [String],
    /// Whether the clients record spans.
    pub traced: bool,
    /// Zero point of span timestamps.
    pub epoch: Instant,
}

struct Done {
    sample: Sample,
    id: String,
    sync_miss: bool,
    wrong: Option<String>,
}

/// What one client thread brings back: its share of the result, and the
/// job id of each operation it ran.
struct ClientOut {
    result: PhaseResult,
    ids: Vec<(usize, String)>,
    started: Instant,
    finished: Instant,
}

/// Runs `phase` with [`CLIENTS`] closed-loop clients; operation `i` belongs
/// to client `i % CLIENTS`.
pub fn run(phase: &Phase<'_>) -> PhaseResult {
    let barrier = Barrier::new(CLIENTS);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || drive_client(phase, c, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let started = outs.iter().map(|o| o.started).min().expect("clients ran");
    let finished = outs.iter().map(|o| o.finished).max().expect("clients ran");
    let mut result = PhaseResult {
        ids: vec![String::new(); phase.ops.len()],
        rounds: vec![Round {
            traced: phase.traced,
            ok: outs.iter().map(|o| o.result.samples.len()).sum(),
            wall_s: finished.duration_since(started).as_secs_f64(),
        }],
        ..PhaseResult::default()
    };
    for o in outs {
        for (i, id) in o.ids {
            result.ids[i] = id;
        }
        result.absorb(o.result);
    }
    result
}

fn drive_client(phase: &Phase<'_>, c: usize, barrier: &Barrier) -> ClientOut {
    let mut client = ClientConn {
        http: Client::new(),
        base: phase.base,
        conn: None,
    };
    let mut tracer = Tracer::new(phase.traced, phase.epoch);
    let mut out = PhaseResult::default();
    let mut ids = Vec::new();
    barrier.wait();
    let started = Instant::now();
    for (i, op) in phase
        .ops
        .iter()
        .enumerate()
        .filter(|(i, _)| i % CLIENTS == c)
    {
        match client.run_op(op, phase.prime_ids, &mut tracer) {
            Ok(done) => {
                out.hits += u64::from(op.expects_hit());
                out.misses += u64::from(op.creates_job());
                out.sync_misses += u64::from(done.sync_miss);
                ids.push((i, done.id));
                match done.wrong {
                    None => out.samples.push(done.sample),
                    Some(why) => {
                        out.wrong += 1;
                        out.complaints.push(format!("op {i}: wrong answer: {why}"));
                    }
                }
            }
            Err(why) => {
                out.failed += 1;
                // Whatever state the connection is in, start clean.
                client.conn = None;
                out.complaints.push(format!("op {i}: failed: {why}"));
            }
        }
        // A few examples explain a failure; thousands only bury it.
        out.complaints.truncate(3);
    }
    let finished = Instant::now();
    out.ctx_switches = procstat::thread_ctx_switches();
    out.spans = tracer.into_spans();
    ClientOut {
        result: out,
        ids,
        started,
        finished,
    }
}

struct ClientConn<'a> {
    http: Client,
    base: &'a Url,
    conn: Option<Connection>,
}

/// The fields of a job representation the client acts on.
struct Rep {
    id: String,
    terminal: bool,
    done: bool,
    outputs: Option<Value>,
}

impl Rep {
    fn parse(resp: &Response) -> Result<Rep, String> {
        if !resp.status.is_success() {
            return Err(format!(
                "status {}: {}",
                resp.status.as_u16(),
                resp.body_string()
            ));
        }
        let mut doc = resp.body_json().map_err(|e| format!("reply body: {e}"))?;
        let state = doc.str_field("state").ok_or("reply has no state")?;
        let (terminal, done) = (
            matches!(state, "DONE" | "FAILED" | "CANCELLED"),
            state == "DONE",
        );
        Ok(Rep {
            id: doc.str_field("id").ok_or("reply has no id")?.to_string(),
            terminal,
            done,
            outputs: doc.as_object_mut().and_then(|o| o.remove("outputs")),
        })
    }
}

impl ClientConn<'_> {
    fn send(&mut self, req: Request) -> Result<Response, String> {
        if self.conn.is_none() {
            self.conn = Some(self.http.connect(self.base).map_err(|e| e.to_string())?);
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        conn.send(req).map_err(|e| e.to_string())
    }

    fn get(&mut self, target: &str) -> Result<Response, String> {
        self.send(Request::new(Method::Get, target))
    }

    fn subscribe(&self) -> Result<sse::EventStream, String> {
        sse::subscribe(
            self.base,
            "job.",
            None,
            Duration::from_secs(5),
            sse::DEFAULT_HEARTBEAT,
        )
        .map_err(|e| format!("subscribe: {e}"))
    }

    /// One job (or one job fetch) from first byte sent to everything in
    /// hand. `Err` is a failed operation; a wrong answer is reported inside
    /// `Ok` because the exchange itself worked.
    fn run_op(
        &mut self,
        op: &Op,
        prime_ids: &[String],
        tracer: &mut Tracer,
    ) -> Result<Done, String> {
        let started = Instant::now();
        let root = tracer.alloc();
        let mut sync_miss = false;
        let mut hit_header = None;
        let rep = match &op.action {
            Action::Fetch { of } => {
                let t = Instant::now();
                let target = format!("/services/{}/jobs/{}", op.service, prime_ids[*of]);
                let rep = Rep::parse(&self.get(&target)?)?;
                tracer.leaf(root, root, "client.fetch", t);
                rep
            }
            Action::Submit {
                body,
                subscribe_first,
                ..
            } => {
                let mut stream = None;
                if *subscribe_first {
                    let t = Instant::now();
                    stream = Some(self.subscribe()?);
                    tracer.leaf(root, root, "client.subscribe", t);
                }
                let t = Instant::now();
                let mut req = Request::new(Method::Post, &format!("/services/{}", op.service));
                req.headers.set("Content-Type", "application/json");
                req.body = body.as_bytes().to_vec();
                let resp = self.send(req)?;
                hit_header = Some(resp.headers.get(MEMO_HIT_HEADER) == Some("true"));
                let mut rep = Rep::parse(&resp)?;
                tracer.leaf(root, root, "client.post", t);
                if !rep.terminal {
                    sync_miss = true;
                    let job_target = format!("/services/{}/jobs/{}", op.service, rep.id);
                    let subscribed_late = stream.is_none();
                    let stream = match stream {
                        Some(s) => s,
                        None => {
                            let t = Instant::now();
                            let s = self.subscribe()?;
                            tracer.leaf(root, root, "client.subscribe", t);
                            s
                        }
                    };
                    if subscribed_late {
                        // The terminal event may have gone out before the
                        // subscription existed: look once before waiting.
                        let t = Instant::now();
                        rep = Rep::parse(&self.get(&job_target)?)?;
                        tracer.leaf(root, root, "client.fetch", t);
                    }
                    if !rep.terminal {
                        let t = Instant::now();
                        let watched = sse::watch_job_on(
                            self.base,
                            stream,
                            op.service,
                            &rep.id,
                            started + JOB_DEADLINE,
                        );
                        tracer.leaf(root, root, "client.wait", t);
                        if !matches!(watched, WatchResult::Terminal(_)) {
                            return Err(format!("job {} did not settle: {watched:?}", rep.id));
                        }
                        let t = Instant::now();
                        rep = Rep::parse(&self.get(&job_target)?)?;
                        tracer.leaf(root, root, "client.fetch", t);
                    }
                }
                rep
            }
        };
        if !rep.done {
            return Err(format!("job {} ended without DONE", rep.id));
        }
        let outputs = rep.outputs.as_ref().ok_or("DONE job has no outputs")?;
        let mut file = None;
        // Only a fresh execution has a file to fetch: blobs live in memory,
        // so a job recovered from the journal (or a memo hit on one) keeps
        // its `file` output but not the bytes — ROADMAP item 4's open hole.
        if op.creates_job() && matches!(op.expect, Expect::Reverse { .. }) {
            let t = Instant::now();
            let url = outputs.str_field("file").ok_or("no file output")?;
            let path = url
                .find("/services/")
                .map(|at| &url[at..])
                .ok_or_else(|| format!("file output is not a container url: {url}"))?;
            let resp = self.get(path)?;
            if !resp.status.is_success() {
                return Err(format!("file download: status {}", resp.status.as_u16()));
            }
            file = Some(resp.body);
            tracer.leaf(root, root, "client.fetch", t);
        }
        let finished = Instant::now();
        tracer.close(root, 0, root, "job", started, finished);

        // Checking happens after the clock stops: it is the benchmark's
        // work, not the platform's.
        let expect_hit = op.expects_hit();
        let wrong = check(&op.expect, outputs, file.as_deref()).or_else(|| match hit_header {
            Some(hit) if hit != expect_hit => {
                Some(format!("memo hit header is {hit}, expected {expect_hit}"))
            }
            _ => None,
        });
        let compute_ms = outputs
            .get("compute_us")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 1e3;
        Ok(Done {
            sample: Sample {
                latency_ms: finished.duration_since(started).as_secs_f64() * 1e3,
                compute_ms,
            },
            id: rep.id,
            sync_miss,
            wrong,
        })
    }
}

/// Why the outputs are not what `expect` requires, if they are not.
pub fn check(expect: &Expect, outputs: &Value, file: Option<&[u8]>) -> Option<String> {
    let int = |name: &str| outputs.get(name).and_then(Value::as_i64);
    match expect {
        Expect::Done => None,
        Expect::Double { n } => {
            (int("d") != Some(2 * n)).then(|| format!("d is {:?}, expected {}", int("d"), 2 * n))
        }
        Expect::Spin { n } => (int("digest") != Some(spin_digest(*n)))
            .then(|| format!("digest is {:?} for n = {n}", int("digest"))),
        Expect::Reverse { len, sha } => {
            if int("bytes") != Some(*len as i64) {
                return Some(format!("bytes is {:?}, expected {len}", int("bytes")));
            }
            match file {
                Some(f) if f.len() != *len => {
                    Some(format!("file has {} bytes, expected {len}", f.len()))
                }
                Some(f) if sha256::digest(f) != *sha => Some("file hash differs".to_string()),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::json;

    #[test]
    fn check_rejects_wrong_answers() {
        let double = Expect::Double { n: 21 };
        assert_eq!(check(&double, &json!({"d": 42}), None), None);
        assert!(check(&double, &json!({"d": 43}), None).is_some());
        assert!(check(&double, &json!({}), None).is_some());

        let spin = Expect::Spin { n: 5 };
        assert_eq!(
            check(&spin, &json!({"digest": (spin_digest(5))}), None),
            None
        );
        assert!(check(&spin, &json!({"digest": 0}), None).is_some());

        let reverse = Expect::Reverse {
            len: 3,
            sha: sha256::digest(b"cba"),
        };
        assert_eq!(check(&reverse, &json!({"bytes": 3}), Some(b"cba")), None);
        assert!(check(&reverse, &json!({"bytes": 3}), Some(b"abc")).is_some());
        assert!(check(&reverse, &json!({"bytes": 3}), Some(b"cb")).is_some());
        assert!(check(&reverse, &json!({"bytes": 4}), Some(b"cba")).is_some());
    }
}
