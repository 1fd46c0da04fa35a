//! Differential battery for memo-key canonicalization.
//!
//! A memo cache that conflates semantically different inputs silently
//! corrupts science; one that splits semantically equal inputs silently
//! loses every hit. This suite drives `memo::canonical_string` /
//! `memo::memo_key` with xorshift-generated inputs and asserts both
//! directions on 1000+ cases:
//!
//! * **invariance** — the key ignores object-key order, numeric spellings
//!   of the same quantity (`1` / `1.0` / `1e0`), insignificant whitespace,
//!   and which file id carries a given content hash;
//! * **sensitivity** — any single semantic mutation (a flipped value, an
//!   added field, a different service, a file with different content)
//!   changes the key.
//!
//! Memo keys are journaled and must keep hitting after an upgrade, so the
//! form itself is frozen too: every generated case's key is the digest of its
//! canonical string, the digest of all 1200 canonical strings is pinned, and
//! a golden table pins the keys of the awkward cases (64 KiB strings, every
//! control character, quotes, multi-byte UTF-8, number edges, file
//! references) to what the by-value canonicalizer of PR 13 computed.
//!
//! Every failure message carries the base seed and case index, mirroring
//! the `mul_differential` battery: a red run is reproducible by pasting the
//! seed into a unit test.

use mathcloud_everest::memo;
use mathcloud_json::value::Object;
use mathcloud_json::{parse, Value};
use mathcloud_security::sha256;
use mathcloud_telemetry::rng::splitmix64;
use mathcloud_telemetry::XorShift64;

const BASE_SEED: u64 = 0x6d65_6d6f_5f63_616e;
const CASES: usize = 1200;

/// Content-hash table standing in for the filestore: `f-a` and `f-b` are
/// two ids of the same bytes, `f-c` holds different bytes, everything else
/// is unresolvable.
fn resolve(id: &str) -> Option<String> {
    match id {
        "f-a" | "f-b" => Some("11aa".repeat(16)),
        "f-c" => Some("22bb".repeat(16)),
        // A resolver may return anything; the canonical form must escape it.
        "f-odd" => Some("q\"uo\\te\n\u{1}é".to_string()),
        _ => None,
    }
}

fn key_of(service: &str, inputs: &Object) -> String {
    memo::memo_key(service, inputs, &resolve)
}

fn canon_of(service: &str, inputs: &Object) -> String {
    memo::canonical_string(service, inputs, &resolve)
}

// ---------------------------------------------------------------- generator

fn gen_object(rng: &mut XorShift64, depth: usize) -> Object {
    let mut o = Object::new();
    for _ in 0..rng.index(5) {
        let klen = 1 + rng.index(8);
        let key = rng.string_from(&['a', 'b', 'c', 'x', 'y', 'z', '_', '0'], klen);
        o.insert(key, gen_value(rng, depth));
    }
    o
}

fn gen_value(rng: &mut XorShift64, depth: usize) -> Value {
    let choices = if depth == 0 { 5 } else { 7 };
    match rng.index(choices) {
        0 => Value::from(rng.range_i64(-1_000_000, 1_000_000)),
        // Floats: half exactly-integral (the normalization target), half
        // with an exactly representable .5 fraction.
        1 => {
            if rng.bool() {
                Value::from(rng.range_i64(-10_000, 10_000) as f64)
            } else {
                Value::from(rng.range_i64(-1_000, 1_000) as f64 + 0.5)
            }
        }
        2 => Value::from(rng.bool()),
        3 => Value::Null,
        4 => {
            if rng.chance(0.25) {
                let id = *rng.pick(&["f-a", "f-b", "f-c", "f-unknown"]);
                Value::from(format!("mc-file:{id}"))
            } else {
                Value::from(rng.alnum_string(10))
            }
        }
        5 => Value::Array(
            (0..rng.index(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(gen_object(rng, depth - 1)),
    }
}

// ----------------------------------------------------- equivalent rewrites

/// Recursively rebuilds the value with object members inserted in a random
/// order (a pure wire-level accident the canonical form must erase).
fn shuffled(v: &Value, rng: &mut XorShift64) -> Value {
    match v {
        Value::Object(o) => {
            let mut entries: Vec<(String, Value)> = o
                .iter()
                .map(|(k, val)| (k.clone(), shuffled(val, rng)))
                .collect();
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.index(i + 1));
            }
            Value::Object(entries.into_iter().collect())
        }
        Value::Array(items) => Value::Array(items.iter().map(|x| shuffled(x, rng)).collect()),
        other => other.clone(),
    }
}

/// Renders the value as JSON text with random insignificant whitespace,
/// random member order, and random spellings of integral numbers — every
/// wire-level accident at once. Parsing the result must canonicalize back
/// to the same key.
fn render_respelled(v: &Value, rng: &mut XorShift64, out: &mut String) {
    match v {
        Value::Null | Value::Bool(_) | Value::String(_) => out.push_str(&v.to_string()),
        Value::Number(n) => match n.as_i64() {
            Some(i) => out.push_str(&match rng.index(4) {
                0 => format!("{i}"),
                1 => format!("{i}.0"),
                2 => format!("{i}e0"),
                _ => format!("{i}.000"),
            }),
            None => out.push_str(&v.to_string()),
        },
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                maybe_ws(rng, out);
                render_respelled(item, rng, out);
                maybe_ws(rng, out);
            }
            out.push(']');
        }
        Value::Object(o) => {
            let mut idx: Vec<usize> = (0..o.len()).collect();
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.index(i + 1));
            }
            let entries: Vec<(&String, &Value)> = o.iter().collect();
            out.push('{');
            for (n, &i) in idx.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                maybe_ws(rng, out);
                out.push_str(&Value::from(entries[i].0.as_str()).to_string());
                maybe_ws(rng, out);
                out.push(':');
                maybe_ws(rng, out);
                render_respelled(entries[i].1, rng, out);
                maybe_ws(rng, out);
            }
            out.push('}');
        }
    }
}

fn maybe_ws(rng: &mut XorShift64, out: &mut String) {
    for _ in 0..rng.index(3) {
        out.push(*rng.pick(&[' ', '\t', '\n']));
    }
}

/// Swaps the two file-id spellings of the *same* content (`f-a` ↔ `f-b`):
/// a pure aliasing accident the canonical form must erase.
fn alias_files(v: &Value) -> Value {
    map_strings(v, &|s| match s {
        "mc-file:f-a" => Some("mc-file:f-b".to_string()),
        "mc-file:f-b" => Some("mc-file:f-a".to_string()),
        _ => None,
    })
}

/// Redirects `f-a` to the id of *different* content (`f-c`): a semantic
/// change that must flip the key. Returns `None` if nothing referenced
/// `f-a`.
fn repoint_files(v: &Value) -> Option<Value> {
    let out = map_strings(v, &|s| {
        (s == "mc-file:f-a").then(|| "mc-file:f-c".to_string())
    });
    (out != *v).then_some(out)
}

fn map_strings(v: &Value, f: &dyn Fn(&str) -> Option<String>) -> Value {
    match v {
        Value::String(s) => f(s).map(Value::from).unwrap_or_else(|| v.clone()),
        Value::Array(items) => Value::Array(items.iter().map(|x| map_strings(x, f)).collect()),
        Value::Object(o) => Value::Object(
            o.iter()
                .map(|(k, val)| (k.clone(), map_strings(val, f)))
                .collect(),
        ),
        other => other.clone(),
    }
}

// ------------------------------------------------------- semantic mutation

/// Counts the mutable leaves of a value.
fn leaves(v: &Value) -> usize {
    match v {
        Value::Array(items) => items.iter().map(leaves).sum(),
        Value::Object(o) => o.values().map(leaves).sum(),
        _ => 1,
    }
}

/// Returns a copy with exactly one leaf (the `target`-th, pre-order)
/// semantically changed.
fn mutate(v: &Value, target: &mut isize) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(|x| mutate(x, target)).collect()),
        Value::Object(o) => Value::Object(
            o.iter()
                .map(|(k, val)| (k.clone(), mutate(val, target)))
                .collect(),
        ),
        leaf => {
            *target -= 1;
            if *target != 0 {
                return leaf.clone();
            }
            match leaf {
                Value::Number(n) => match n.as_i64() {
                    Some(i) => Value::from(i + 1),
                    None => Value::from(n.as_f64() + 1.0),
                },
                Value::Bool(b) => Value::from(!b),
                Value::Null => Value::from(0),
                Value::String(s) => Value::from(format!("{s}x")),
                _ => unreachable!("arrays and objects recurse above"),
            }
        }
    }
}

fn as_object(v: Value) -> Object {
    match v {
        Value::Object(o) => o,
        other => panic!("not an object: {other}"),
    }
}

// ------------------------------------------------------------- the battery

#[test]
fn canonicalization_differential_battery() {
    let mut checked_mutations = 0usize;
    let mut checked_aliases = 0usize;
    let mut all_canonical_forms = String::new();
    for case in 0..CASES {
        let seed = splitmix64(BASE_SEED ^ case as u64);
        let mut rng = XorShift64::new(seed);
        let inputs = gen_object(&mut rng, 3);
        let canon = canon_of("svc", &inputs);
        let key = key_of("svc", &inputs);
        all_canonical_forms.push_str(&canon);
        all_canonical_forms.push('\n');

        // One writer, two sinks: the key is the digest of the canonical form.
        assert_eq!(
            key,
            sha256::to_hex(&sha256::digest(canon.as_bytes())),
            "seed {seed:#018x} case {case}: the key is not the hash of the canonical form"
        );

        // Invariance 1: member order is a wire accident.
        let reordered = as_object(shuffled(&Value::Object(inputs.clone()), &mut rng));
        assert_eq!(
            canon,
            canon_of("svc", &reordered),
            "seed {seed:#018x} case {case}: reordering object members changed the canonical form"
        );

        // Invariance 2: whitespace + number spellings + order, through the
        // actual parser.
        let mut text = String::new();
        render_respelled(&Value::Object(inputs.clone()), &mut rng, &mut text);
        let reparsed = as_object(parse(&text).unwrap_or_else(|e| {
            panic!("seed {seed:#018x} case {case}: respelled text failed to parse: {e}\n{text}")
        }));
        assert_eq!(
            key,
            key_of("svc", &reparsed),
            "seed {seed:#018x} case {case}: respelled wire form changed the key\ntext: {text}"
        );

        // Invariance 3: pretty-printing round-trips.
        let pretty = as_object(parse(&Value::Object(inputs.clone()).to_pretty_string()).unwrap());
        assert_eq!(
            key,
            key_of("svc", &pretty),
            "seed {seed:#018x} case {case}: pretty-printed round trip changed the key"
        );

        // Invariance 4: two ids of the same file content are the same input.
        let aliased = as_object(alias_files(&Value::Object(inputs.clone())));
        assert_eq!(
            key,
            key_of("svc", &aliased),
            "seed {seed:#018x} case {case}: aliasing a file id with equal content changed the key"
        );

        // Sensitivity 1: one flipped leaf flips the key.
        let n = leaves(&Value::Object(inputs.clone()));
        if n > 0 {
            let mut target = rng.index(n) as isize + 1;
            let mutated = as_object(mutate(&Value::Object(inputs.clone()), &mut target));
            assert_ne!(
                key,
                key_of("svc", &mutated),
                "seed {seed:#018x} case {case}: a single mutated leaf kept the key\n\
                 original: {canon}\nmutated: {}",
                canon_of("svc", &mutated)
            );
            checked_mutations += 1;
        }

        // Sensitivity 2: an added field flips the key.
        let mut widened = inputs.clone();
        let mut fresh = format!("q{:x}", rng.next_u64());
        while widened.contains_key(&fresh) {
            fresh.push('q');
        }
        widened.insert(fresh, Value::from(1));
        assert_ne!(
            key,
            key_of("svc", &widened),
            "seed {seed:#018x} case {case}: an added field kept the key"
        );

        // Sensitivity 3: the service is part of the key.
        assert_ne!(
            key,
            key_of("svc2", &inputs),
            "seed {seed:#018x} case {case}: a different service kept the key"
        );

        // Sensitivity 4: pointing a file reference at different content
        // flips the key.
        if let Some(repointed) = repoint_files(&Value::Object(inputs.clone())) {
            assert_ne!(
                key,
                key_of("svc", &as_object(repointed)),
                "seed {seed:#018x} case {case}: a file ref with different content kept the key"
            );
            checked_aliases += 1;
        }

        // Determinism: the key is a pure function.
        assert_eq!(
            key,
            key_of("svc", &inputs),
            "seed {seed:#018x} case {case}: recomputing the key changed it"
        );
    }
    // Memo keys are journaled and must hit after an upgrade, so the canonical
    // form is frozen: this is the digest of all the forms above, one per
    // line, as the by-value canonicalizer of PR 13 produced them.
    assert_eq!(all_canonical_forms.len(), 69_917);
    assert_eq!(
        sha256::to_hex(&sha256::digest(all_canonical_forms.as_bytes())),
        "9978165f2761e0d804d381c77b16f18ac1e6a4cc26dca2e252c6285cd40efa1b",
        "the canonical form of some generated case changed"
    );
    // The generator must actually exercise the interesting branches.
    assert!(
        checked_mutations > CASES / 2,
        "only {checked_mutations} mutation cases ran — generator produces too many empty inputs"
    );
    assert!(
        checked_aliases > CASES / 50,
        "only {checked_aliases} file-repoint cases ran — generator produces too few file refs"
    );
}

#[test]
fn canonical_form_is_sorted_and_normalized() {
    let inputs = as_object(
        parse(r#"{"b": {"y": 2.0, "x": [1e0, 2.5, true]}, "a": "mc-file:f-a", "n": null}"#)
            .unwrap(),
    );
    let canon = canon_of("svc", &inputs);
    let hash = resolve("f-a").unwrap();
    assert_eq!(
        canon,
        format!(r#"svc\n{{"a":"mc-blob:{hash}","b":{{"x":[1,2.5,true],"y":2}},"n":null}}"#)
            .replace("\\n", "\n"),
    );
}

// ------------------------------------------------------------ golden keys

/// 64 KiB of a 64-letter alphabet, the shape of the benchmark's payload.
fn payload_64k() -> String {
    const ALPHABET: &[u8; 64] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
    let mut rng = XorShift64::new(0x7061_796c_6f61_6421);
    (0..64 * 1024)
        .map(|_| ALPHABET[rng.index(64)] as char)
        .collect()
}

fn object_of(members: Vec<(&str, Value)>) -> Object {
    members
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// `(name, service, inputs)` of every golden case, in `GOLDEN_KEYS` order.
fn golden_cases() -> Vec<(&'static str, &'static str, Object)> {
    let text = |t: &str| as_object(parse(t).unwrap());
    let payload = payload_64k();
    // The same payload with something to escape every 997 characters.
    let speckled: String = payload
        .chars()
        .enumerate()
        .map(|(i, c)| match (i % 997, i % 3) {
            (0, 0) => '"',
            (0, 1) => '\n',
            (0, _) => '\u{1}',
            _ => c,
        })
        .collect();
    let controls: String = (0..0x20u8)
        .chain([0x7f])
        .flat_map(|b| [b as char, 'a'])
        .collect();
    vec![
        ("empty", "svc", Object::new()),
        (
            "payload-64k",
            "reverse",
            object_of(vec![("data", Value::from(payload)), ("n", Value::from(3))]),
        ),
        (
            "payload-64k-speckled",
            "reverse",
            object_of(vec![("data", Value::from(speckled))]),
        ),
        (
            "control-characters",
            "svc",
            object_of(vec![("s", Value::from(controls))]),
        ),
        (
            "quotes-and-backslashes",
            "svc",
            object_of(vec![
                ("s", Value::from(r#""\"\\ /\/ \ ""#)),
                (r#"k"\"#, Value::from("v")),
            ]),
        ),
        (
            "multi-byte-utf8",
            "svc",
            object_of(vec![
                ("é", Value::from("日本語 𝄞 \u{10ffff} ß \u{2028}")),
                ("ключ", Value::Array(vec![Value::from("€")])),
            ]),
        ),
        (
            "nested-unsorted",
            "svc",
            text(r#"{"z":{"b":[{"y":1,"x":2}],"a":null},"a":{"c":true,"b":false},"m":[[],{}]}"#),
        ),
        ("one-as-int", "svc", text(r#"{"n": 1}"#)),
        ("one-as-float", "svc", text(r#"{"n": 1.0}"#)),
        ("one-as-exponent", "svc", text(r#"{"n": 1e0}"#)),
        (
            "number-edges",
            "svc",
            text(
                r#"{"a": 1.5, "b": -0.0, "c": 1e300, "d": 9223372036854775807,
                    "e": 9223372036854775808, "f": 1e15, "g": 123456789012345680000,
                    "h": -2.5e-7, "i": 0.1, "j": -9223372036854775808, "k": 1e-320}"#,
            ),
        ),
        (
            "file-resolved",
            "svc",
            text(r#"{"m": "mc-file:f-a", "also": ["mc-file:f-c"]}"#),
        ),
        (
            "file-resolved-under-another-id",
            "svc",
            text(r#"{"m": "mc-file:f-b", "also": ["mc-file:f-c"]}"#),
        ),
        (
            "file-dangling",
            "svc",
            text(r#"{"m": "mc-file:f-unknown", "e": "mc-file:"}"#),
        ),
        (
            "file-hash-needing-escapes",
            "svc",
            text(r#"{"m": "mc-file:f-odd"}"#),
        ),
        (
            "not-file-references",
            "svc",
            text(
                r#"{"u": "http://h:1/files/x", "v": "mc-file", "w": "xmc-file:f-a",
                    "x": "mc-blob:abc", "k": {"mc-file:f-a": 1}}"#,
            ),
        ),
        (
            "service-name-is-written-raw",
            "svc\n{\"a\":1}",
            Object::new(),
        ),
        (
            "keys-sort-by-bytes",
            "svc",
            text(r#"{"b": 1, "a\"": 2, "a": 3, "\u0001": 4, "é": 5, "A": 6, "": 7, "aa": 8}"#),
        ),
    ]
}

/// Keys computed by the parent of the PR that made the canonical writer
/// by-reference (PR 13: canonicalize to a `Value`, serialize, hash the
/// string). They are journaled, so they may never change.
const GOLDEN_KEYS: [(&str, &str); 18] = [
    (
        "empty",
        "77834065023fb843dd68d1faf483b18d9c5584523c955df9db42826627ad0b95",
    ),
    (
        "payload-64k",
        "83643635b7a6f72774f7c5d0611d96efa408f1a13d39f88aab0c667fe09c56a1",
    ),
    (
        "payload-64k-speckled",
        "9d95ddf5a269775c546c467b52c71e51953e8f0dc3b08ca0548ea5479fd8592d",
    ),
    (
        "control-characters",
        "0dd2ef8e4d09a3f8bafd25ac810e9dc7c6cad4a03acb6d1dc49e643cbd123932",
    ),
    (
        "quotes-and-backslashes",
        "f215a3d34160f9d27021f03295fee8743867d4589032c0d246ebb9260b57baaa",
    ),
    (
        "multi-byte-utf8",
        "5251890df52b4ed41056679ba0b9d988171848f2a4e779ab49c7146c8ffbc77e",
    ),
    (
        "nested-unsorted",
        "d83fea37532e58ab8cf67d8ce2ba6aaab299d43397a9b084f59f7410aa3912a6",
    ),
    (
        "one-as-int",
        "1798f97ca9ad6a3537d1d7478d032f68d42aae51b3d675a16a02e5ddc5ce6359",
    ),
    (
        "one-as-float",
        "1798f97ca9ad6a3537d1d7478d032f68d42aae51b3d675a16a02e5ddc5ce6359",
    ),
    (
        "one-as-exponent",
        "1798f97ca9ad6a3537d1d7478d032f68d42aae51b3d675a16a02e5ddc5ce6359",
    ),
    (
        "number-edges",
        "c3084d363de231f7889ae09fb63e8dbd26dfa1a7ccee874ec9a0b0c5cebcef23",
    ),
    (
        "file-resolved",
        "fea861599398c1048cd75ad2394510f46229f7a126b4a595560089e6039949a0",
    ),
    (
        "file-resolved-under-another-id",
        "fea861599398c1048cd75ad2394510f46229f7a126b4a595560089e6039949a0",
    ),
    (
        "file-dangling",
        "9212abc3994528913a95a4e2dd058543e1945bffa57be787c989bb9c79b390ce",
    ),
    (
        "file-hash-needing-escapes",
        "116d3ccb1e94264f0c42d19759a458b0019f7b3fea99e612ff281588008c09af",
    ),
    (
        "not-file-references",
        "53d46203d45734372d6676b29c6ae563b391b2a7e75a727793f53ff5f5dc6100",
    ),
    (
        "service-name-is-written-raw",
        "4d8a63c1d321590408163c5c3c486bd4c471884a41b59e9efb9140f9cd0a6b09",
    ),
    (
        "keys-sort-by-bytes",
        "eda86959ff92ddfa3bf6c613f94716565256b951f57726ed99adaf2f7d0eb736",
    ),
];

#[test]
fn golden_memo_keys_are_frozen() {
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN_KEYS.len());
    for ((name, service, inputs), (golden_name, golden_key)) in cases.iter().zip(GOLDEN_KEYS) {
        assert_eq!(*name, golden_name, "case order");
        let canon = canon_of(service, inputs);
        assert_eq!(
            key_of(service, inputs),
            golden_key,
            "{name}: memo key changed; canonical form is now {:?}",
            canon.chars().take(400).collect::<String>()
        );
        assert_eq!(
            sha256::to_hex(&sha256::digest(canon.as_bytes())),
            golden_key,
            "{name}: canonical_string changed"
        );
    }
}
