//! Randomized property tests for the workflow crate: the mcscript language
//! and the workflow JSON format. Driven by the workspace's deterministic
//! PRNG (offline, reproducible).

use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_telemetry::XorShift64;
use mathcloud_workflow::{run_script, validate, Block, BlockKind, Workflow};
use std::collections::HashMap;

const CASES: usize = 200;

/// mcscript integer arithmetic agrees with wrapping i64 semantics.
fn eval_int(expr: &str) -> Option<i64> {
    let outputs = run_script(&format!("r = {expr};"), Object::new()).ok()?;
    outputs.get("r")?.as_i64()
}

/// The lexer+parser+evaluator never panic on arbitrary input.
#[test]
fn mcscript_is_panic_free() {
    let mut rng = XorShift64::new(0x9A71C);
    for _ in 0..CASES {
        let src = rng.unicode_string(80);
        let _ = run_script(&src, Object::new());
    }
}

/// Addition and multiplication of literals match Rust's wrapping i64.
#[test]
fn mcscript_integer_arithmetic() {
    let mut rng = XorShift64::new(0x147);
    for case in 0..CASES {
        let a = rng.range_i64(-10_000, 9_999);
        let b = rng.range_i64(-10_000, 9_999);
        assert_eq!(
            eval_int(&format!("({a}) + ({b})")),
            Some(a.wrapping_add(b)),
            "case {case}"
        );
        assert_eq!(
            eval_int(&format!("({a}) * ({b})")),
            Some(a.wrapping_mul(b)),
            "case {case}"
        );
        assert_eq!(
            eval_int(&format!("({a}) - ({b})")),
            Some(a.wrapping_sub(b)),
            "case {case}"
        );
        if b != 0 {
            assert_eq!(
                eval_int(&format!("({a}) % ({b})")),
                Some(a.wrapping_rem(b)),
                "case {case}"
            );
        }
    }
}

/// Comparison operators match Rust's.
#[test]
fn mcscript_comparisons() {
    let run_bool = |expr: &str| {
        run_script(&format!("r = {expr};"), Object::new())
            .ok()
            .and_then(|o| o.get("r").and_then(Value::as_bool))
    };
    let mut rng = XorShift64::new(0xC09);
    for case in 0..CASES {
        let a = rng.range_i64(-100, 99);
        let b = rng.range_i64(-100, 99);
        assert_eq!(
            run_bool(&format!("({a}) < ({b})")),
            Some(a < b),
            "case {case}"
        );
        assert_eq!(
            run_bool(&format!("({a}) >= ({b})")),
            Some(a >= b),
            "case {case}"
        );
        assert_eq!(
            run_bool(&format!("({a}) == ({b})")),
            Some(a == b),
            "case {case}"
        );
    }
}

/// split/join round-trips any separator-free token list.
#[test]
fn mcscript_split_join_round_trip() {
    const TOKEN: &[char] = &['a', 'b', 'z', '0', '9'];
    let mut rng = XorShift64::new(0x5913);
    for case in 0..CASES {
        let n = 1 + rng.index(5);
        let tokens: Vec<String> = (0..n)
            .map(|_| {
                let len = 1 + rng.index(6);
                rng.string_from(TOKEN, len)
            })
            .collect();
        let joined = tokens.join(",");
        let inputs: Object = [("text".to_string(), Value::from(joined.clone()))]
            .into_iter()
            .collect();
        let outputs = run_script(r#"r = join(split(text, ","), ",");"#, inputs).unwrap();
        assert_eq!(
            outputs.get("r").unwrap().as_str(),
            Some(joined.as_str()),
            "case {case}"
        );
    }
}

/// String variables pass through scripts unmangled (no injection via
/// quotes/newlines because values are bound, not spliced).
#[test]
fn mcscript_binds_values_not_text() {
    let mut rng = XorShift64::new(0xB1D);
    for case in 0..CASES {
        let payload = rng.unicode_string(40);
        let inputs: Object = [("p".to_string(), Value::from(payload.clone()))]
            .into_iter()
            .collect();
        let outputs = run_script("r = p;", inputs).unwrap();
        assert_eq!(
            outputs.get("r").unwrap().as_str(),
            Some(payload.as_str()),
            "case {case}"
        );
    }
}

/// Workflow documents round-trip through JSON for arbitrary block/edge
/// shapes.
#[test]
fn workflow_json_round_trip() {
    const IN_POOL: &[char] = &['a', 'b', 'c', 'd', 'e', 'm'];
    const OUT_POOL: &[char] = &['n', 'o', 'p', 'x', 'y', 'z'];
    let mut rng = XorShift64::new(0x3F10);
    for case in 0..CASES {
        let mut wf = Workflow::new("prop", "generated");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1 + rng.index(3) {
            let len = 1 + rng.index(4);
            let name = rng.string_from(IN_POOL, len);
            if seen.insert(name.clone()) {
                wf = wf.input(&name, Schema::integer());
            }
        }
        let mut out_seen = std::collections::HashSet::new();
        for _ in 0..1 + rng.index(3) {
            let len = 1 + rng.index(4);
            let name = rng.string_from(OUT_POOL, len);
            if out_seen.insert(name.clone()) {
                wf = wf.output(&name, Schema::any());
            }
        }
        wf = wf.block(Block {
            id: "script".into(),
            kind: BlockKind::Script {
                code: "x = 1;".into(),
                inputs: vec![],
                outputs: vec![("x".into(), Schema::integer())],
            },
        });
        let text = wf.to_value().to_pretty_string();
        let parsed = Workflow::from_value(&mathcloud_json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, wf, "case {case}");
    }
}

/// Randomly generated linear chains always validate and execute to the
/// expected arithmetic result.
#[test]
fn linear_script_chains_execute() {
    let mut rng = XorShift64::new(0xC8A1);
    for _ in 0..40 {
        let n = 1 + rng.index(5);
        let increments: Vec<i64> = (0..n).map(|_| rng.range_i64(1, 49)).collect();
        let start = rng.range_i64(0, 99);
        let mut wf = Workflow::new("chain", "").input("x", Schema::integer());
        let mut prev = ("x".to_string(), "value".to_string());
        for (i, inc) in increments.iter().enumerate() {
            let id = format!("s{i}");
            wf = wf.block(Block {
                id: id.clone(),
                kind: BlockKind::Script {
                    code: format!("o = i + {inc};"),
                    inputs: vec![("i".into(), Schema::integer())],
                    outputs: vec![("o".into(), Schema::integer())],
                },
            });
            wf = wf.wire((&prev.0, &prev.1), (&id, "i"));
            prev = (id, "o".to_string());
        }
        wf = wf
            .output("r", Schema::integer())
            .wire((&prev.0, &prev.1), ("r", "value"));

        let validated = validate(&wf, &HashMap::new()).expect("chain validates");
        let engine = mathcloud_workflow::Engine::with_caller(validated, NoServices);
        let inputs: Object = [("x".to_string(), Value::from(start))]
            .into_iter()
            .collect();
        let outputs = engine.run(&inputs, None).unwrap();
        let expected: i64 = start + increments.iter().sum::<i64>();
        assert_eq!(outputs.get("r").unwrap().as_i64(), Some(expected));
    }
}

/// A caller for workflows without service blocks.
struct NoServices;

impl mathcloud_workflow::ServiceCaller for NoServices {
    fn call(&self, url: &str, _: Object, _: Option<&str>) -> Result<Object, String> {
        Err(format!(
            "no services available in this test (asked for {url})"
        ))
    }
}
