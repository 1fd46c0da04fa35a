//! Every thread the serving path starts is named `mc-*` and has an owner
//! that takes it down: after a container, its server and a WMS run over
//! both are dropped, none is left. Alone in its test binary, because
//! `/proc/self/task` is the whole process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mathcloud_bench::edge::SseHolders;
use mathcloud_client::ServiceClient;
use mathcloud_core::{Parameter, ServiceDescription};
use mathcloud_everest::adapter::NativeAdapter;
use mathcloud_everest::Everest;
use mathcloud_json::{json, Schema, Value};
use mathcloud_workflow::{Workflow, WorkflowService};

/// The names (`comm`, cut to 15 bytes by the kernel) of this process's
/// platform threads.
fn platform_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("mc-"))
        .collect();
    names.sort();
    names
}

#[test]
fn dropping_container_server_and_wms_leaves_no_platform_thread() {
    assert_eq!(platform_threads(), Vec::<String>::new());
    let dir = std::env::temp_dir().join(format!("mc-no-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let math = Everest::with_handlers("math", 2);
    math.deploy(
        ServiceDescription::new("add", "adds")
            .input(Parameter::new("a", Schema::integer()))
            .input(Parameter::new("b", Schema::integer()))
            .output(Parameter::new("sum", Schema::integer())),
        NativeAdapter::from_fn(|inputs, _| {
            let a = inputs.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = inputs.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok([("sum".to_string(), json!(a + b))].into_iter().collect())
        }),
    );
    math.attach_job_journal(&dir.join("jobs.jsonl")).unwrap();
    let math_server = mathcloud_everest::serve(math.clone(), "127.0.0.1:0", None).unwrap();
    let base = math_server.base_url();

    let wms = WorkflowService::new(Everest::with_handlers("wms", 2));
    let workflow = Workflow::new("twice", "(a + b) + b")
        .input("a", Schema::integer())
        .input("b", Schema::integer())
        .service("first", &format!("{base}/services/add"))
        .service("second", &format!("{base}/services/add"))
        .output("result", Schema::integer())
        .wire(("a", "value"), ("first", "a"))
        .wire(("b", "value"), ("first", "b"))
        .wire(("first", "sum"), ("second", "a"))
        .wire(("b", "value"), ("second", "b"))
        .wire(("second", "sum"), ("result", "value"));
    let composite = wms.publish(&workflow).unwrap();
    let wms_server =
        mathcloud_everest::serve(wms.container().clone(), "127.0.0.1:0", None).unwrap();

    let subscribers = SseHolders::start(&base, 2).unwrap();
    let run = ServiceClient::connect(&format!("{}/services/{composite}", wms_server.base_url()))
        .unwrap()
        .call(&json!({"a": 1, "b": 20}), Duration::from_secs(30))
        .unwrap();
    assert_eq!(run.outputs.unwrap().get("result"), Some(&json!(41)));

    // Every kind of thread in the serving path has shown up under its name.
    let live = platform_threads();
    for prefix in [
        "mc-http-accepto",
        "mc-http-worker",
        "mc-http-streame",
        "mc-job-math",
        "mc-job-wms",
        "mc-wf-",
        "mc-confirmer",
    ] {
        assert!(
            live.iter().any(|name| name.starts_with(prefix)),
            "no {prefix}* thread among {live:?}"
        );
    }

    subscribers.stop();
    drop((wms_server, wms, math_server, math));
    // Workers are joined by their owners' drops; a streamer goes with the
    // last connection, the confirmer with the job table, and the engine's
    // process-wide pool retires its idle threads after two seconds.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !platform_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(platform_threads(), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}
