//! The metric catalogue and the result line.
//!
//! Names and units here are the ones `BENCHMARK.json` declares; a unit test
//! holds the two together.

/// Metrics a user of the container would see. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("overhead_pct", "%"),
    ("recover_ms", "ms"),
    ("setup_s", "s"),
];

/// Metrics of single layers. Reported by the traced run only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.post_us_p50", "us"),
    ("client.subscribe_us_p50", "us"),
    ("client.wait_us_p50", "us"),
    ("client.fetch_us_p50", "us"),
    ("client.platform_ms_p50", "ms"),
    ("client.job_p95_ms", "ms"),
    ("client.job_p99_ms", "ms"),
    ("client.job_tail_ms", "ms"),
    ("client.job_tail_pct", "%"),
    ("client.sync_miss_share", "share"),
    ("http.wire_read_us_p50", "us"),
    ("http.wire_write_us_p50", "us"),
    ("http.get_job_us_p50", "us"),
    ("json.parse_us_p50", "us"),
    ("json.serialize_us_p50", "us"),
    ("core.validate_us_p50", "us"),
    ("memo.key_us_p50", "us"),
    ("memo.hit_ratio", "share"),
    ("container.submit_us_p50", "us"),
    ("container.job_inproc_us_p50", "us"),
    ("container.job_inproc_nojournal_us_p50", "us"),
    ("container.queue_wait_us_mean", "us"),
    ("container.run_us_mean", "us"),
    ("jobstore.append_us_p50", "us"),
    ("jobstore.append_us_p99", "us"),
    ("jobstore.appends_per_job", "count"),
    ("jobstore.bytes_per_job", "bytes"),
    ("jobstore.compactions", "count"),
    ("jobstore.compact_ms", "ms"),
    ("jobstore.open_ms", "ms"),
    ("events.publish_us_p50", "us"),
    ("events.deliver_us_p50", "us"),
    ("events.per_job", "count"),
    ("events.journal_bytes_per_job", "bytes"),
    ("filestore.put_us_p50", "us"),
    ("filestore.get_us_p50", "us"),
    ("telemetry.counter_ns", "ns"),
    ("telemetry.render_ms", "ms"),
    ("proc.cpu_s_per_kjob", "s"),
    ("proc.cpu_util", "share"),
    ("proc.ctx_switches_per_job", "count"),
    ("proc.rss_mb_end", "MB"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_share", "share"),
];

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Orders `metrics` by `catalogue` and attaches units.
///
/// # Errors
///
/// Names a catalogue metric the run did not produce, or one that is not a
/// finite number — either is a bug in the benchmark, not a measurement.
pub fn resolve(
    catalogue: &[(&'static str, &'static str)],
    metrics: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    catalogue
        .iter()
        .map(
            |&(name, unit)| match metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => Ok((name, v, unit)),
                Some(&(_, v)) => Err(format!("metric {name} is {v}")),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

/// The result line: one JSON object, exactly the four keys of the contract.
pub fn result_line(outcome: &Outcome, resolved: &[(&'static str, f64, &'static str)]) -> String {
    let metrics: Vec<String> = resolved
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathcloud_json::Value;

    #[test]
    fn result_line_is_the_contract_shape() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("b", 2.0), ("a", 1.25)],
        };
        let resolved = resolve(&[("a", "ms"), ("b", "1/s")], &outcome.metrics).unwrap();
        let doc = mathcloud_json::parse(&result_line(&outcome, &resolved)).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc["metrics"]["a"]["value"].as_f64(), Some(1.25));
        assert_eq!(doc["metrics"]["b"]["unit"].as_str(), Some("1/s"));
        assert!(resolve(&[("missing", "s")], &outcome.metrics).is_err());
        assert!(resolve(&[("a", "s")], &[("a", f64::NAN)]).is_err());
    }

    /// `BENCHMARK.json` and the catalogue declare the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = mathcloud_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| (m.str_field("name").unwrap(), m.str_field("unit").unwrap()))
                .collect();
            assert_eq!(declared, catalogue, "{key}");
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap())
            .collect();
        let names: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        assert!(matches!(doc["run_seconds"], Value::Number(_)));
    }
}
