//! Randomized property tests for the JSON value model, parser and
//! serializers, driven by the workspace's deterministic PRNG so they run
//! fully offline with reproducible failures (re-run with the same seed).

use mathcloud_json::value::Object;
use mathcloud_json::{parse, parse_bytes, ParseError, Value};
use mathcloud_telemetry::XorShift64;

const CASES: usize = 300;

/// Generates an arbitrary JSON document of bounded depth and size.
fn arb_value(rng: &mut XorShift64, depth: usize) -> Value {
    let leaf = depth == 0 || rng.chance(0.4);
    if leaf {
        match rng.index(5) {
            0 => Value::Null,
            1 => Value::Bool(rng.bool()),
            2 => Value::from(rng.next_u64() as i64),
            // Finite doubles only: JSON cannot encode NaN/inf.
            3 => Value::from((rng.range_i64(-1_000_000, 1_000_000) as f64) / 64.0),
            // Long enough to cross the scan's 16- and 64-byte steps, with
            // quotes, backslashes and control bytes to escape.
            _ => Value::from(rng.unicode_string(100)),
        }
    } else if rng.bool() {
        let n = rng.index(6);
        Value::Array((0..n).map(|_| arb_value(rng, depth - 1)).collect())
    } else {
        let n = rng.index(6);
        let mut o = Object::new();
        for _ in 0..n {
            let len = 1 + rng.index(6);
            let key = rng.string_from(&['a', 'b', 'c', 'd', 'e', 'f'], len);
            o.insert(key, arb_value(rng, depth - 1));
        }
        Value::Object(o)
    }
}

/// Compact serialization followed by parsing is the identity.
#[test]
fn compact_round_trip() {
    let mut rng = XorShift64::new(0xA11CE);
    for case in 0..CASES {
        let v = arb_value(&mut rng, 4);
        let text = v.to_string();
        let back = parse(&text).expect("serializer output must parse");
        assert_eq!(back, v, "case {case}: {text}");
    }
}

/// Pretty serialization followed by parsing is the identity.
#[test]
fn pretty_round_trip() {
    let mut rng = XorShift64::new(0xB0B);
    for case in 0..CASES {
        let v = arb_value(&mut rng, 4);
        let text = v.to_pretty_string();
        let back = parse(&text).expect("pretty output must parse");
        assert_eq!(back, v, "case {case}: {text}");
    }
}

/// Parsing never panics on arbitrary input.
#[test]
fn parser_is_panic_free() {
    let mut rng = XorShift64::new(0xDEAD);
    for _ in 0..CASES {
        let _ = parse(&rng.unicode_string(64));
    }
}

/// What the parser answers for `bytes`: `parse_bytes` always, and on valid
/// UTF-8 `parse` too, which must agree with it, error positions included.
/// A document that parses must survive the serializer.
fn parse_both(bytes: &[u8]) -> Result<Value, ParseError> {
    let got = parse_bytes(bytes);
    if let Ok(text) = std::str::from_utf8(bytes) {
        assert_eq!(parse(text), got, "{text:?}");
    }
    if let Ok(v) = &got {
        let back = parse(&v.to_string()).expect("serializer output must parse");
        assert_eq!(&back, v, "{:?}", String::from_utf8_lossy(bytes));
    }
    got
}

/// Generated documents cut at every byte and with every single byte
/// replaced by one that changes the token structure or the encoding: no
/// input panics, `parse_bytes` and `parse` agree wherever both apply, and
/// a mutation that still parses round-trips through the serializer.
#[test]
fn mutated_documents_parse_or_fail_alike_and_never_panic() {
    const SUBSTITUTES: [u8; 6] = [b'"', b'\\', 0x00, 0xFF, b'{', b']'];
    let mut rng = XorShift64::new(0x0BAD_B17E);
    let (mut parsed, mut failed) = (0usize, 0usize);
    for _ in 0..40 {
        let text = arb_value(&mut rng, 3).to_string();
        let bytes = text.as_bytes();
        let mut outcome = |r: Result<Value, ParseError>| match r {
            Ok(_) => parsed += 1,
            Err(_) => failed += 1,
        };
        for end in 0..bytes.len() {
            outcome(parse_both(&bytes[..end]));
        }
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            for sub in SUBSTITUTES {
                if bytes[at] == sub {
                    continue;
                }
                mutated[at] = sub;
                outcome(parse_both(&mutated));
            }
            mutated[at] = bytes[at];
        }
        assert_eq!(parse_both(bytes).as_ref(), Ok(&parse(&text).unwrap()));
    }
    // Both outcomes occur often: a mutation inside a long string parses.
    assert!(
        parsed > 5_000 && failed > 40_000,
        "{parsed} parsed, {failed} failed"
    );
}
