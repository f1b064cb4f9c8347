//! The metric catalogue and the result line.
//!
//! Every run prints exactly one catalogue: the end-to-end metrics when
//! untraced, the per-layer metrics when traced. A layer a workload does not
//! run reports 0 (for example the anchor kernel on ToF-only traffic, or the
//! fleet layers on an on-board workload); the layer's own counters show the
//! bypass.

/// End-to-end metrics: `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_us_p50", "us"),
    ("update_us_p99", "us"),
    ("realtime_factor", "x"),
    ("ate_m", "m"),
    ("success_rate", "frac"),
    ("peak_rss_mib", "MiB"),
    ("fleet_capacity_poses_per_s", "1/s"),
    ("fleet_latency_ms_p50", "ms"),
    ("fleet_latency_ms_p99", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.motion_us", "us"),
    ("kernel.observation_us", "us"),
    ("kernel.anchor_us", "us"),
    ("kernel.anchor_calls", "count"),
    ("kernel.reweight_us", "us"),
    ("kernel.resample_us", "us"),
    ("kernel.pose_us", "us"),
    ("gridmap.lookup_ns", "ns"),
    ("gridmap.edt_build_ms", "ms"),
    ("filter.serial_us", "us"),
    ("filter.applied_frac", "frac"),
    ("filter.mean_particles", "count"),
    ("filter.resample_skip_frac", "frac"),
    ("filter.tempered_frac", "frac"),
    ("filter.injected_per_update", "count"),
    ("pool.dispatch_us", "us"),
    ("pool.tasks_per_update", "count"),
    ("pool.stolen_frac", "frac"),
    ("sensor.batch_build_us", "us"),
    ("fleet.encode_us", "us"),
    ("fleet.decode_us", "us"),
    ("fleet.mean_batch", "count"),
    ("fleet.max_batch", "count"),
    ("fleet.serving_overhead", "ratio"),
    ("fleet.enqueue_waits", "count"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.poses_dropped", "count"),
    ("fleet.server_latency_us_p50", "us"),
    ("fleet.server_latency_us_p99", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.kernel_share", "frac"),
];

/// The outcome of one run: checks, operation counts and metric values.
pub struct Report {
    traced: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            values: Vec::new(),
        }
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts operations attempted and failed.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a metric of this run's catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue().iter().any(|(n, _)| *n == name),
            "{name} is not in the {} catalogue",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Prints the metric lines and the result object (the last line of
    /// standard output) and returns the process exit code.
    pub fn finish(mut self) -> i32 {
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
        }
        if self.failed > 0 {
            self.problems.push(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        let mut metrics = Vec::new();
        for &(name, unit) in self.catalogue() {
            let value = self
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            match value {
                Some(v) if v.is_finite() => {
                    println!("  {name} = {v} {unit}");
                    metrics.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                Some(v) => self.problems.push(format!("{name} is not finite ({v})")),
                None => self.problems.push(format!("{name} was not measured")),
            }
        }
        for problem in &self.problems {
            println!("check failed: {problem}");
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }
}
