//! Randomized property tests for the unified REST API model, driven by the
//! workspace's deterministic PRNG (offline, reproducible).

use mathcloud_core::{uri, JobId, JobRepresentation, JobState, Parameter, ServiceDescription};
use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_telemetry::XorShift64;

const CASES: usize = 300;

const IDENT: &[char] = &['a', 'b', 'c', 'x', 'y', 'z', '0', '9', '-'];

fn arb_state(rng: &mut XorShift64) -> JobState {
    *rng.pick(&[
        JobState::Waiting,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
    ])
}

fn arb_outputs(rng: &mut XorShift64) -> Option<Object> {
    if rng.bool() {
        return None;
    }
    let n = rng.index(4);
    let mut o = Object::new();
    for _ in 0..n {
        let len = 1 + rng.index(6);
        let key = rng.string_from(&['a', 'b', 'c', 'd', 'e', 'f'], len);
        o.insert(key, Value::from(rng.next_u64() as i64));
    }
    Some(o)
}

fn arb_ident(rng: &mut XorShift64, max_len: usize) -> String {
    let len = 1 + rng.index(max_len);
    // Identifiers must not be empty; the pool is URL-safe.
    rng.string_from(IDENT, len)
}

/// Job representations round-trip through their wire form.
#[test]
fn job_representation_round_trip() {
    let mut rng = XorShift64::new(0xC0DE);
    for case in 0..CASES {
        let id = arb_ident(&mut rng, 12);
        let mut rep =
            JobRepresentation::new(JobId::new(&id), &uri::job("svc", &id), arb_state(&mut rng));
        rep.outputs = arb_outputs(&mut rng);
        rep.error = if rng.bool() {
            Some(rng.unicode_string(30))
        } else {
            None
        };
        rep.runtime_ms = if rng.bool() {
            Some(rng.below(1_000_000))
        } else {
            None
        };
        let back = JobRepresentation::from_value(&rep.to_value()).unwrap();
        assert_eq!(back, rep, "case {case}");
    }
}

/// Service descriptions round-trip through their wire form for arbitrary
/// parameter sets.
#[test]
fn description_round_trip() {
    let mut rng = XorShift64::new(0xD05);
    for case in 0..CASES {
        let mut desc = ServiceDescription::new("svc", "generated description");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.index(5) {
            let name = arb_ident(&mut rng, 8);
            if !seen.insert(name.clone()) {
                continue;
            }
            let mut p = Parameter::new(&name, Schema::string());
            if rng.bool() {
                p = p.optional();
            }
            desc = desc.input(p);
        }
        for _ in 0..rng.index(3) {
            let tag = arb_ident(&mut rng, 10);
            desc = desc.tag(&tag);
        }
        let back = ServiceDescription::from_value(&desc.to_value()).unwrap();
        assert_eq!(back, desc, "case {case}");
    }
}

/// `uri::parse_job` inverts `uri::job` for arbitrary safe names.
#[test]
fn job_uri_round_trip() {
    let mut rng = XorShift64::new(0x10B);
    for _ in 0..CASES {
        let service = arb_ident(&mut rng, 12);
        let job = arb_ident(&mut rng, 12);
        let path = uri::job(&service, &job);
        assert_eq!(uri::parse_job(&path), Some((service, job)));
    }
}

/// Validation with defaults is total: it never panics, and accepted objects
/// contain every required input.
#[test]
fn validation_is_total() {
    let mut rng = XorShift64::new(0x7AB);
    for _ in 0..CASES {
        let present = [rng.bool(), rng.bool(), rng.bool()];
        let desc = ServiceDescription::new("svc", "")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()).optional())
            .input(Parameter::new("c", Schema::integer().default_value(Value::from(7))).optional());
        let mut body = Object::new();
        for (name, &give) in ["a", "b", "c"].iter().zip(&present) {
            if give {
                body.insert(name.to_string(), Value::from(1));
            }
        }
        match desc.accept_inputs(Value::Object(body)) {
            Ok(effective) => {
                assert!(present[0], "a is required");
                assert!(effective.get("a").is_some());
                // The default for c is always present.
                assert!(effective.get("c").is_some());
            }
            Err(_) => assert!(!present[0], "only a missing 'a' may fail"),
        }
    }
}
