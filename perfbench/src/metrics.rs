//! Metric names, units and the result line.
//!
//! The two tables here are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step): an untraced run prints
//! every end-to-end metric, a traced run every per-layer metric.

use std::fmt::Write as _;

/// End-to-end metrics, as a user of the system sees them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("nachos_cycles", "cycles"),
];

/// Per-layer metrics, named `module.metric`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.simulate_ms.opt-lsq", "ms"),
    ("engine.simulate_ms.nachos-sw", "ms"),
    ("engine.simulate_ms.nachos", "ms"),
    ("engine.simulate_ms.nachos-sw-baseline", "ms"),
    ("engine.simulate_ms.ideal", "ms"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.queue_max_depth", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("engine.stall_cycles.lsq_alloc", "cycles"),
    ("engine.stall_cycles.lsq_search", "cycles"),
    ("engine.stall_cycles.token", "cycles"),
    ("engine.stall_cycles.may_gate", "cycles"),
    ("engine.stall_cycles.comparator", "cycles"),
    ("engine.stall_cycles.mem_port", "cycles"),
    ("reference.execute_ms", "ms"),
    ("alias.compile_ms", "ms"),
    ("alias.optimize_ms", "ms"),
    ("alias.audit_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("cgra.place_ms", "ms"),
    ("alias.may_pairs", "count"),
    ("alias.mdes", "count"),
    ("alias.order_removed", "count"),
    ("alias.may_coalesced", "count"),
    ("alias.audit_errors", "count"),
    ("daemon.submit_ms", "ms"),
    ("daemon.queue_wait_ms", "ms"),
    ("daemon.run_ms", "ms"),
    ("daemon.fetch_ms", "ms"),
    ("daemon.rejected", "count"),
    ("journal.append_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("journal.resume_ms", "ms"),
    ("journal.replayed", "count"),
    ("shard.respawns", "count"),
    ("sweep.self_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Sets metric `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.values.retain(|(n, _)| *n != key);
        self.values.push((key, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Counts `n` more operations, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line: every metric of `table`, in table order. A
    /// metric the run did not set, or one that is not finite, is a bug
    /// in the benchmark.
    pub fn result_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not valid"));
            }
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nachos::sweep::journal::{parse_json, Json};

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
        assert!(!valid_name("engine simulate"));
        assert!(!valid_name("_x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut o = Outcome::default();
        o.count(3, 0);
        assert!(o.result_line(END_TO_END).is_err());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        let line = o.result_line(END_TO_END).unwrap();
        let v = parse_json(&line).unwrap();
        assert!(matches!(v.get("correct"), Some(Json::Bool(true))));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(3));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        o.count(1, 1);
        assert!(o
            .result_line(END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
