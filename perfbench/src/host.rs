//! The host stamp printed with every result, and process memory.

use mcl_core::{pool, KernelBackend};

/// Removes every `MCL_*` variable from this process's environment and
/// returns them. The library crates read several of them (kernel backend,
/// pool size, adaptive switches, fleet sizing); the benchmark sets all of
/// those explicitly instead, so a stray variable can never change what a run
/// measures. The removed values still appear in the host stamp.
///
/// Must run before any thread is spawned.
pub fn take_mcl_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(key, _)| key.starts_with("MCL_"))
        .collect();
    vars.sort();
    for (key, _) in &vars {
        std::env::remove_var(key);
    }
    vars
}

/// What a result depends on besides the code: cores, pool size, the kernel
/// backend the workloads resolve to and the CPU features behind it.
pub struct Host {
    nproc: usize,
    pool_workers: usize,
    backend: KernelBackend,
    features: Vec<&'static str>,
    mcl_env: Vec<(String, String)>,
}

impl Host {
    pub fn stamp(mcl_env: Vec<(String, String)>) -> Self {
        Host {
            nproc: pool::host_parallelism(),
            pool_workers: pool::shared().workers(),
            backend: KernelBackend::detect(),
            features: cpu_features(),
            mcl_env,
        }
    }

    /// The backend every workload runs with (resolved, never read from the
    /// environment).
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// One JSON object on one line.
    pub fn json(&self) -> String {
        let features: Vec<String> = self.features.iter().map(|f| format!("\"{f}\"")).collect();
        let env: Vec<String> = self
            .mcl_env
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"nproc\":{},\"pool_workers\":{},\"kernel_backend\":\"{}\",\"cpu_features\":[{}],\"mcl_env\":{{{}}}}}",
            self.nproc,
            self.pool_workers,
            self.backend.name(),
            features.join(","),
            env.join(",")
        )
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec!['?'],
            c => vec![c],
        })
        .collect()
}

fn cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if is_x86_feature_detected!("f16c") {
            features.push("f16c");
        }
    }
    features
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
