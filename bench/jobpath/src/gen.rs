//! Workloads and their request streams.
//!
//! Everything the container receives is generated here from `--seed` before
//! the clock starts; the same seed gives a byte-identical stream. The
//! generator is the benchmark's own xorshift, not the repository's, so a
//! refactor of `mathcloud-telemetry::rng` cannot change the inputs.

use std::sync::Arc;

use mathcloud_security::sha256;

use crate::services::{DOUBLE, REVERSE, SPIN};

/// The five workloads. Sizes are operation counts, not time boxes: journal
/// compaction cost grows with history, so a time box would measure a
/// different mix of work on a faster commit. `--seconds` scales the counts
/// (they are calibrated to fill about that long on the seed box).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InstantDurable,
    MemoHot,
    Payload64k,
    Compute150ms,
    RestartRecover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::InstantDurable,
        Workload::MemoHot,
        Workload::Payload64k,
        Workload::Compute150ms,
        Workload::RestartRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InstantDurable => "instant_durable",
            Workload::MemoHot => "memo_hot",
            Workload::Payload64k => "payload_64k",
            Workload::Compute150ms => "compute_150ms",
            Workload::RestartRecover => "restart_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The `--seconds` the counts below are written for: each workload's timed
/// part then takes 4 to 9 s on the seed box.
pub const NOMINAL_SECONDS: f64 = 8.0;
/// Inline payload size of `payload_64k`.
pub const PAYLOAD_BYTES: usize = 64 * 1024;
/// How long `spin` computes: above the REST layer's 100 ms synchronous wait,
/// so the POST answers non-terminal and the client takes the push path.
pub const SPIN_MS: i64 = 150;
/// Distinct inputs `memo_hot` draws from.
const HOT_KEYS: usize = 16;
/// Operations `restart_recover` runs after each restart.
const BURST: usize = 12_000;
/// Rounds the timed stream of a job workload is cut into (see `main`).
pub const ROUNDS: usize = 8;
/// Timed counts are multiples of this, so every client does the same
/// number of operations in every round.
const ROUND_QUANTUM: usize = ROUNDS * crate::load::CLIENTS;

/// What one request asks for.
#[derive(Debug, Clone)]
pub enum Action {
    /// `POST /services/{service}` with `body`.
    Submit {
        body: Arc<str>,
        /// Open the `/events` subscription before submitting, as the
        /// repository's client does for calls it expects to outlive the
        /// synchronous wait.
        subscribe_first: bool,
        /// The container must answer from the memo cache.
        expect_hit: bool,
    },
    /// `GET` the job that answered `prime[of]`.
    Fetch { of: usize },
}

/// What the reply must contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `outputs.d == 2n`.
    Double { n: i64 },
    /// `outputs.bytes == len` and the file hashes to `sha`.
    Reverse { len: usize, sha: [u8; 32] },
    /// `outputs.digest == spin_digest(n)`.
    Spin { n: i64 },
    /// Any DONE job: its outputs were checked when it first ran.
    Done,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub service: &'static str,
    pub action: Action,
    pub expect: Expect,
}

impl Op {
    /// A submission the container must answer from the memo cache.
    pub fn expects_hit(&self) -> bool {
        matches!(
            self.action,
            Action::Submit {
                expect_hit: true,
                ..
            }
        )
    }

    /// A submission that makes the container create (and run) a job.
    pub fn creates_job(&self) -> bool {
        matches!(
            self.action,
            Action::Submit {
                expect_hit: false,
                ..
            }
        )
    }
}

/// The phases of one run, in the order they execute.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Untimed submissions whose jobs the timed phase refers back to: the
    /// hot keys of `memo_hot`, the journal `restart_recover` restarts over.
    pub prime: Vec<Op>,
    /// Untimed jobs that fill caches and spawn lazy threads.
    pub warmup: Vec<Op>,
    /// The measured operations.
    pub timed: Vec<Op>,
    /// `restart_recover` only: `timed` is this many equal bursts, each
    /// preceded by a restart of the container.
    pub restart_bursts: usize,
}

/// xorshift64*, seeded through splitmix64 so small seeds are well mixed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_f491_4f6c_dd1d } else { z })
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Distinct integers: the i-th lies in its own 2^20-wide slot, so no two
/// submissions of a run share a memo key unless the plan repeats one on
/// purpose.
struct Distinct {
    rng: Rng,
    next_slot: i64,
}

impl Distinct {
    fn next(&mut self) -> i64 {
        let n = (self.next_slot << 20) | (self.rng.next() >> 44) as i64;
        self.next_slot += 1;
        n
    }
}

fn submit(service: &'static str, body: String, expect: Expect) -> Op {
    Op {
        service,
        action: Action::Submit {
            body: body.into(),
            subscribe_first: service == SPIN,
            expect_hit: false,
        },
        expect,
    }
}

fn double_op(n: i64) -> Op {
    submit(DOUBLE, format!("{{\"n\":{n}}}"), Expect::Double { n })
}

fn spin_op(n: i64) -> Op {
    submit(
        SPIN,
        format!("{{\"n\":{n},\"ms\":{SPIN_MS}}}"),
        Expect::Spin { n },
    )
}

fn reverse_op(rng: &mut Rng) -> Op {
    const ALPHABET: &[u8; 64] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
    let mut data = Vec::with_capacity(PAYLOAD_BYTES);
    while data.len() < PAYLOAD_BYTES {
        let mut word = rng.next();
        for _ in 0..8 {
            data.push(ALPHABET[(word & 63) as usize]);
            word >>= 8;
        }
    }
    let mut reversed = data.clone();
    reversed.reverse();
    let sha = sha256::digest(&reversed);
    let data = String::from_utf8(data).expect("alphabet is ascii");
    submit(
        REVERSE,
        format!("{{\"data\":\"{data}\"}}"),
        Expect::Reverse {
            len: PAYLOAD_BYTES,
            sha,
        },
    )
}

/// The same submission again, this time expected to hit the memo cache.
pub fn repeat_as_hit(op: &Op) -> Op {
    let mut hit = op.clone();
    if let Action::Submit { expect_hit, .. } = &mut hit.action {
        *expect_hit = true;
    }
    hit
}

/// `count` scaled by `scale`, at least `min`.
fn scaled(count: usize, scale: f64, min: usize) -> usize {
    ((count as f64 * scale).round() as usize).max(min)
}

/// A timed count: `count` scaled, rounded to whole rounds, at least one
/// operation per client per round.
fn timed(count: usize, scale: f64) -> usize {
    scaled(count, scale, 1).div_ceil(ROUND_QUANTUM) * ROUND_QUANTUM
}

/// Builds the plan of `workload` for `seed`, sized for `seconds` of
/// measurement on the seed box.
pub fn plan(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let scale = seconds / NOMINAL_SECONDS;
    let mut distinct = Distinct {
        rng: Rng::new(seed),
        next_slot: 1,
    };
    let mut rng = Rng::new(seed ^ 0x6a6f_6270_6174_6800);
    match workload {
        Workload::InstantDurable => Plan {
            warmup: (0..scaled(200, scale, 4))
                .map(|_| double_op(distinct.next()))
                .collect(),
            timed: (0..timed(4000, scale))
                .map(|_| double_op(distinct.next()))
                .collect(),
            ..Plan::default()
        },
        Workload::MemoHot => {
            let prime: Vec<Op> = (0..HOT_KEYS).map(|_| double_op(distinct.next())).collect();
            let mut draw = |count: usize| -> Vec<Op> {
                (0..count)
                    .map(|_| repeat_as_hit(&prime[rng.below(HOT_KEYS)]))
                    .collect()
            };
            let warmup = draw(scaled(4000, scale, 40));
            let timed = draw(timed(300_000, scale));
            Plan {
                prime,
                warmup,
                timed,
                ..Plan::default()
            }
        }
        Workload::Payload64k => Plan {
            warmup: (0..scaled(20, scale, 2))
                .map(|_| reverse_op(&mut rng))
                .collect(),
            timed: (0..timed(960, scale))
                .map(|_| reverse_op(&mut rng))
                .collect(),
            ..Plan::default()
        },
        Workload::Compute150ms => Plan {
            warmup: (0..2).map(|_| spin_op(distinct.next())).collect(),
            timed: (0..timed(112, scale))
                .map(|_| spin_op(distinct.next()))
                .collect(),
            ..Plan::default()
        },
        Workload::RestartRecover => {
            // The journal every restart replays: terminal instant jobs.
            let prime: Vec<Op> = (0..scaled(2000, scale, 40))
                .map(|_| double_op(distinct.next()))
                .collect();
            let restart_bursts = scaled(10, scale, 2);
            // After each restart the clients read the recovered state both
            // ways: the job resource, and a repeat submission that must hit
            // the memo entry the journal restored.
            let timed = (0..restart_bursts * BURST)
                .map(|i| {
                    let of = rng.below(prime.len());
                    if i % 2 == 0 {
                        Op {
                            service: DOUBLE,
                            action: Action::Fetch { of },
                            expect: prime[of].expect.clone(),
                        }
                    } else {
                        repeat_as_hit(&prime[of])
                    }
                })
                .collect();
            Plan {
                prime,
                timed,
                restart_bursts,
                ..Plan::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_http::{wire, Method, Request};

    /// The stream as the container would read it off the socket.
    fn wire_bytes(plan: &Plan) -> Vec<u8> {
        let mut out = Vec::new();
        for op in plan.prime.iter().chain(&plan.warmup).chain(&plan.timed) {
            let req = match &op.action {
                Action::Submit { body, .. } => {
                    let mut r = Request::new(Method::Post, &format!("/services/{}", op.service));
                    r.body = body.as_bytes().to_vec();
                    r
                }
                Action::Fetch { of } => {
                    Request::new(Method::Get, &format!("/services/{}/jobs/@{of}", op.service))
                }
            };
            wire::write_request(&mut out, &req, "h").unwrap();
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for w in Workload::ALL {
            let a = wire_bytes(&plan(w, 7, 0.2));
            assert!(!a.is_empty());
            assert_eq!(a, wire_bytes(&plan(w, 7, 0.2)), "{}", w.name());
            assert_ne!(a, wire_bytes(&plan(w, 8, 0.2)), "{}", w.name());
        }
    }

    #[test]
    fn miss_workloads_never_repeat_an_input() {
        for w in [Workload::InstantDurable, Workload::Compute150ms] {
            let p = plan(w, 3, 1.0);
            let mut bodies: Vec<&str> = p
                .warmup
                .iter()
                .chain(&p.timed)
                .map(|op| match &op.action {
                    Action::Submit { body, .. } => &**body,
                    Action::Fetch { .. } => unreachable!(),
                })
                .collect();
            let n = bodies.len();
            bodies.sort_unstable();
            bodies.dedup();
            assert_eq!(bodies.len(), n, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
