//! Bytes one composite run allocates to carry a 64 KiB string through
//! Input → Service → Output, the service an in-process echo that moves its
//! input to its output, and through Input → Script (`y = x;`) → Output.
//!
//! A counting global allocator adds up the bytes every allocation asks for
//! (a regrown block at its new size) on every thread, block threads
//! included; that is why these tests are alone in their binary and measure
//! one at a time. The count is the least of five rounds after two warm-up
//! rounds (instrument registration).
//! One ceiling holds both paths. It sits between one copy of the value (the
//! `Input` block's, out of the composite job's inputs) and two: an engine
//! that cloned a value at every hop allocated about 400 000 bytes here, and
//! a `Script` block that copied on every read of a variable and again to
//! keep an assigned value both a variable and an output allocated about
//! 205 000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_json::value::Object;
use mathcloud_json::{Schema, Value};
use mathcloud_workflow::{validate, Block, BlockKind, Engine, ServiceCaller, Workflow};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a static atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Answers `y` with the `x` it was handed, moved, not copied.
struct Echo;

impl ServiceCaller for Echo {
    fn call(&self, _: &str, mut inputs: Object, _: Option<&str>) -> Result<Object, String> {
        let x = inputs.remove("x").ok_or("no x")?;
        Ok([("y".to_string(), x)].into_iter().collect())
    }
}

const VALUE_LEN: usize = 64 * 1024;
const CEILING: u64 = 100_000;

/// Held while a test counts, so the other test's allocations stay out of it.
static MEASURING: Mutex<()> = Mutex::new(());

/// The least bytes allocated by one run over five rounds, after two warm-up
/// rounds; each round's output `out` must be the whole value.
fn least_bytes_per_run(engine: &Engine) -> u64 {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let inputs: Object = [("v".to_string(), Value::from("x".repeat(VALUE_LEN)))]
        .into_iter()
        .collect();
    let mut rounds = Vec::new();
    for round in 0..7 {
        let before = BYTES.load(Ordering::SeqCst);
        let outputs = engine.run(&inputs, None).unwrap();
        let bytes = BYTES.load(Ordering::SeqCst) - before;
        let out = outputs.get("out").and_then(Value::as_str);
        assert_eq!(out.map(str::len), Some(VALUE_LEN));
        if round >= 2 {
            rounds.push(bytes);
        }
    }
    rounds.into_iter().min().unwrap()
}

#[test]
fn a_value_is_copied_once_through_a_composite_run() {
    let echo = ServiceDescription::new("echo", "")
        .input(Parameter::new("x", Schema::string()))
        .output(Parameter::new("y", Schema::string()));
    let descriptions: HashMap<String, ServiceDescription> =
        [("mem://echo".to_string(), echo)].into_iter().collect();
    let workflow = Workflow::new("copies", "")
        .input("v", Schema::string())
        .service("echo", "mem://echo")
        .output("out", Schema::string())
        .wire(("v", "value"), ("echo", "x"))
        .wire(("echo", "y"), ("out", "value"));
    let engine = Engine::with_caller(validate(&workflow, &descriptions).unwrap(), Echo);
    let least = least_bytes_per_run(&engine);
    println!("composite run of a {VALUE_LEN}-byte value: {least} bytes allocated");
    assert!(
        least <= CEILING,
        "{least} bytes allocated for a {VALUE_LEN}-byte value, ceiling {CEILING}"
    );
}

/// A `Script` block binds the value it is handed as its variable without
/// copying it, its last read of `x` moves the value, and the assignment
/// stores it once, as the output `y`: the one copy left is the `Input`
/// block's.
#[test]
fn a_script_block_takes_its_inputs_without_a_copy() {
    let workflow = Workflow::new("script-copies", "")
        .input("v", Schema::string())
        .block(Block {
            id: "copy".into(),
            kind: BlockKind::Script {
                code: "y = x;".into(),
                inputs: vec![("x".into(), Schema::string())],
                outputs: vec![("y".into(), Schema::string())],
            },
        })
        .output("out", Schema::string())
        .wire(("v", "value"), ("copy", "x"))
        .wire(("copy", "y"), ("out", "value"));
    let engine = Engine::with_caller(validate(&workflow, &HashMap::new()).unwrap(), Echo);
    let least = least_bytes_per_run(&engine);
    println!("script run of a {VALUE_LEN}-byte value: {least} bytes allocated");
    assert!(
        least <= CEILING,
        "{least} bytes allocated for a {VALUE_LEN}-byte value, ceiling {CEILING}"
    );
}
