//! The metric names and units, in one place: the result line is rendered
//! from these tables, and a test holds `BENCHMARK.json` to them. README.md
//! defines each metric and names the end-to-end metric × workload every
//! per-layer metric is expected to move.

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("detect_batch_ms", "ms"),
    ("detect_fresh_ms", "ms"),
    ("apply_visible_ms", "ms"),
    ("alloc_kb_per_delta", "KB"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("relation.encode_ms", "ms"),
    ("relation.delta_apply_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.singles", "count"),
    ("detect.scan_ms", "ms"),
    ("detect.scan_2t_ms", "ms"),
    ("detect.rows_scanned_per_pass", "count"),
    ("detect.groups_merged_per_pass", "count"),
    ("detect.incremental_init_ms", "ms"),
    ("detect.incremental_apply_ms", "ms"),
    ("detect.partition_ms", "ms"),
    ("detect.merge_partials_ms", "ms"),
    ("plan.fused_ms", "ms"),
    ("plan.unfused_ms", "ms"),
    ("plan.scans_fused", "count"),
    ("plan.scans_unfused", "count"),
    ("session.apply_ms", "ms"),
    ("session.snapshot_ms", "ms"),
    ("session.apply_alloc_kb", "KB"),
    ("session.snapshot_alloc_kb", "KB"),
    ("session.detect_cached_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.step_ms", "ms"),
    ("serve.read_us", "us"),
    ("serve.parts_sum_pct", "%"),
    ("serve.writer_apply_ms", "ms"),
    ("serve.writer_publish_ms", "ms"),
    ("serve.step_gap_pct", "%"),
    ("serve.read_cached_ns", "ns"),
    ("serve.merged_miss_ms", "ms"),
    ("serve.epochs_per_delta", "count"),
    ("serve.write_errors", "count"),
    ("serve.recover_ms_per_delta", "ms"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_delta", "B"),
    ("wal.fsyncs_per_delta", "count"),
    ("wal.open_ms_per_krecord", "ms"),
    ("protocol.parse_apply_us", "us"),
    ("protocol.render_report_ms", "ms"),
    ("protocol.parse_report_ms", "ms"),
    ("e2e.detect_batch.min_ms", "ms"),
    ("e2e.detect_batch.p50_ms", "ms"),
    ("e2e.detect_batch.tail_ms", "ms"),
    ("e2e.detect_batch.tail_q", "q"),
    ("e2e.detect_batch.n", "count"),
    ("e2e.detect_fresh.min_ms", "ms"),
    ("e2e.detect_fresh.p50_ms", "ms"),
    ("e2e.detect_fresh.tail_ms", "ms"),
    ("e2e.detect_fresh.tail_q", "q"),
    ("e2e.detect_fresh.n", "count"),
    ("e2e.apply_visible.min_ms", "ms"),
    ("e2e.apply_visible.p50_ms", "ms"),
    ("e2e.apply_visible.tail_ms", "ms"),
    ("e2e.apply_visible.tail_q", "q"),
    ("e2e.apply_visible.n", "count"),
    ("e2e.bulk_batch.min_ms", "ms"),
    ("e2e.bulk_batch.p50_ms", "ms"),
    ("e2e.bulk_batch.tail_ms", "ms"),
    ("e2e.bulk_batch.tail_q", "q"),
    ("e2e.bulk_batch.n", "count"),
    ("e2e.ingest_tuples_per_s", "1/s"),
    ("bench.canary_ms", "ms"),
    ("bench.host_noise_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("datagen.generate_s", "s"),
];

/// Measured values by metric name, each with the number of samples behind
/// it.
#[derive(Default)]
pub struct Values(Vec<(String, f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.push((name.to_string(), value, samples));
    }

    /// `(value, samples)` of a metric.
    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, samples)| (*v, *samples))
    }
}

/// Renders the contract's result line: exactly the metrics of `table`, each
/// with its unit. A metric that was not measured, or is not a finite number,
/// is a bug in the benchmark and reported as such.
pub fn result_line(
    table: &[(&str, &str)],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let (value, _) = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let table = [("latency_ms", "ms"), ("setup_s", "s")];
        let mut values = Values::default();
        values.set("setup_s", 0.8127, 5);
        values.set("latency_ms", 1.2034, 30);
        values.set("extra", 1.0, 1);
        assert_eq!(
            result_line(&table, &values, 1000, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&table, &values, 10, 2)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2,"));
    }

    #[test]
    fn missing_and_non_finite_metrics_are_refused() {
        let table = [("a", "ms")];
        let mut values = Values::default();
        assert!(result_line(&table, &values, 1, 0).is_err());
        values.set("a", f64::NAN, 1);
        assert!(result_line(&table, &values, 1, 0).is_err());
    }

    /// `BENCHMARK.json` and the binary must name the same metrics with the
    /// same units, the same workloads, and the run length the round counts
    /// are sized for.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let run_seconds = format!("\"run_seconds\": {},", crate::workload::NOMINAL_SECONDS);
        assert!(text.contains(&run_seconds), "{run_seconds}");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert_eq!(text.matches(&entry).count(), 1, "{entry}");
        }
        for workload in crate::workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", workload.name);
            assert_eq!(text.matches(&entry).count(), 1, "{entry}");
        }
        let named = text.matches("{\"name\": ").count();
        assert_eq!(
            named,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::WORKLOADS.len()
        );
    }
}
