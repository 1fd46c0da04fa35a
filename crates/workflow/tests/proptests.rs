//! Randomized property tests for the workflow crate: the mcscript language,
//! the workflow JSON format and the engine's plan. Driven by the workspace's
//! deterministic PRNG (offline, reproducible).

use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_telemetry::XorShift64;
use mathcloud_workflow::{run_script, validate, Block, BlockKind, Workflow};
use std::collections::{BTreeMap, HashMap};

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

/// A literal or a read of a name in `visible`, with its value.
fn atom(rng: &mut XorShift64, visible: &BTreeMap<&str, i64>) -> (String, i64) {
    if visible.is_empty() || rng.index(3) == 0 {
        let v = rng.range_i64(-3, 3);
        return (format!("({v})"), v);
    }
    let (name, v) = visible.iter().nth(rng.index(visible.len())).unwrap();
    (name.to_string(), *v)
}

/// A sum of one to three terms over the names in `visible`, with its value.
/// A term is an atom, or an `if`, `&&` or `||` over atoms, so some reads are
/// skipped when the program runs.
fn expression(rng: &mut XorShift64, visible: &BTreeMap<&str, i64>) -> (String, i64) {
    let mut terms = Vec::new();
    let mut sum = 0i64;
    for _ in 0..1 + rng.index(3) {
        let (x, xv) = atom(rng, visible);
        let (term, v) = match rng.index(4) {
            0 => {
                let ((y, yv), (z, zv)) = (atom(rng, visible), atom(rng, visible));
                let v = if xv != 0 { yv } else { zv };
                (format!("if({x}, {y}, {z})"), v)
            }
            1 => {
                let (y, yv) = atom(rng, visible);
                (format!("({x} && {y})"), if xv != 0 { yv } else { xv })
            }
            2 => {
                let (y, yv) = atom(rng, visible);
                (format!("({x} || {y})"), if xv != 0 { xv } else { yv })
            }
            _ => (x, xv),
        };
        terms.push(term);
        sum = sum.wrapping_add(v);
    }
    (terms.join(" + "), sum)
}

/// Straight-line programs over four names — `let`s, assignments, repeated
/// reads, a `let` that shadows an output, a read after a re-assignment —
/// give the outputs of a model that keeps each name's latest value. Guards
/// the reads that move a value out: a move too early fails a later read.
#[test]
fn straight_line_programs_match_a_model() {
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];
    let mut rng = XorShift64::new(0x57A1);
    for case in 0..CASES {
        let mut visible = BTreeMap::new();
        let mut inputs = Object::new();
        for name in NAMES {
            if rng.bool() {
                let v = rng.range_i64(-3, 3);
                visible.insert(name, v);
                inputs.insert(name.to_string(), Value::from(v));
            }
        }
        let (mut code, mut outputs) = (String::new(), BTreeMap::new());
        for _ in 0..1 + rng.index(8) {
            let (text, v) = expression(&mut rng, &visible);
            let name = *rng.pick(&NAMES);
            if rng.bool() {
                code += &format!("let {name} = {text};\n");
            } else {
                code += &format!("{name} = {text};\n");
                outputs.insert(name, v);
            }
            visible.insert(name, v);
        }
        let got = run_script(&code, inputs).unwrap_or_else(|e| panic!("case {case}: {e}\n{code}"));
        let got: BTreeMap<&str, i64> = (got.iter())
            .map(|(k, v)| (k.as_str(), v.as_i64().unwrap()))
            .collect();
        assert_eq!(got, outputs, "case {case}:\n{code}");
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

/// A `Script` block `id` computing `y = a + b;`.
fn adder(id: &str) -> Block {
    Block {
        id: id.into(),
        kind: BlockKind::Script {
            code: "y = a + b;".into(),
            inputs: vec![
                ("a".into(), Schema::integer()),
                ("b".into(), Schema::integer()),
            ],
            outputs: vec![("y".into(), Schema::integer())],
        },
    }
}

/// Randomly generated linear chains, and DAGs with fan-out, fan-in and
/// diamonds, always validate and execute to the expected arithmetic result.
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

    // DAGs: each adder reads two earlier blocks (the same one twice at
    // times), so a value may fan out to several consumers or to none, and
    // the model adds the same values in generation order.
    for case in 0..40 {
        let (start, k) = (rng.range_i64(0, 99), rng.range_i64(0, 99));
        let mut wf = Workflow::new("dag", "")
            .input("x", Schema::integer())
            .block(Block {
                id: "k".into(),
                kind: BlockKind::Constant {
                    value: Value::from(k),
                },
            });
        let mut ports = vec![("x".to_string(), "value"), ("k".to_string(), "value")];
        let mut values = vec![start, k];
        for i in 0..1 + rng.index(7) {
            let (a, b) = (rng.index(ports.len()), rng.index(ports.len()));
            let id = format!("s{i}");
            wf = wf
                .block(adder(&id))
                .wire((&ports[a].0, ports[a].1), (&id, "a"))
                .wire((&ports[b].0, ports[b].1), (&id, "b"));
            values.push(values[a] + values[b]);
            ports.push((id, "y"));
        }
        let (last, other) = (ports.len() - 1, rng.index(ports.len()));
        wf = wf
            .output("r", Schema::integer())
            .output("q", Schema::integer())
            .wire((&ports[last].0, ports[last].1), ("r", "value"))
            .wire((&ports[other].0, ports[other].1), ("q", "value"));

        let validated = validate(&wf, &HashMap::new()).expect("DAG validates");
        let engine = mathcloud_workflow::Engine::with_caller(validated, NoServices);
        let inputs: Object = [("x".to_string(), Value::from(start))]
            .into_iter()
            .collect();
        let outputs = engine.run(&inputs, None).unwrap();
        let got = ["r", "q"].map(|id| outputs.get(id).and_then(Value::as_i64));
        assert_eq!(
            got,
            [Some(values[last]), Some(values[other])],
            "case {case}"
        );
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
