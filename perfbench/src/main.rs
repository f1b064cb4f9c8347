//! The repository's benchmark: on-board update latency, localization
//! accuracy and fleet serving, end to end and layer by layer.
//!
//! ```text
//! mcl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Workloads (inputs generated from `--seed`):
//!
//! * `paper-fp32-4096` — the paper maze, global init, 4096 fp32 particles,
//!   1 worker, ToF only (Table I's configuration).
//! * `fused-fp16qm-adaptive` — `warehouse-nlos-fused`: ToF + UWB with
//!   NaN-denied anchors, fp16 particles on the quantized map, KLD-adaptive
//!   256–4096 particles, 2 workers.
//! * `fleet-tcp-128` — an in-process `FleetServer` on loopback TCP, one
//!   connection, 1 shard, 128 fp32 particles per drone: a closed-loop
//!   capacity phase and an open-loop 15 Hz latency phase.
//!
//! Untraced runs print the end-to-end metrics, traced runs the per-layer
//! metrics; the last line of standard output is the JSON result. Every run
//! checks its outputs and exits non-zero when a check fails.

mod fleet;
mod host;
mod onboard;
mod report;
mod stats;
mod trace;

const USAGE: &str = "usage: mcl-perfbench --workload <paper-fp32-4096|fused-fp16qm-adaptive|fleet-tcp-128> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

/// Input scale: `full` for measurement, `tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperFp32,
    FusedFp16Adaptive,
    FleetTcp,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut size) =
            (None, None, None, None, Size::Full);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "paper-fp32-4096" => Workload::PaperFp32,
                        "fused-fp16qm-adaptive" => Workload::FusedFp16Adaptive,
                        "fleet-tcp-128" => Workload::FleetTcp,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => return Err(format!("--size takes full or tiny, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

fn main() {
    // Before any thread exists: nothing below may read an MCL_* override.
    let mcl_env = host::take_mcl_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::Host::stamp(mcl_env);
    println!("host: {}", host.json());
    println!(
        "workload {:?}, seed {}, {} s, trace {}, size {:?}",
        args.workload, args.seed, args.seconds, args.trace, args.size
    );
    let report = match args.workload {
        Workload::PaperFp32 => onboard::run(onboard::Kind::PaperFp32, &args, host.backend()),
        Workload::FusedFp16Adaptive => {
            onboard::run(onboard::Kind::FusedFp16Adaptive, &args, host.backend())
        }
        Workload::FleetTcp => fleet::run(&args, host.backend()),
    };
    std::process::exit(report.finish());
}
