//! Batched multi-run evaluation: many (sequence × config × seed) jobs across a
//! host worker pool.
//!
//! One filter update is data-parallel over particles; a *study* — the paper's
//! Figs. 6–8 sweep sequences, pipeline configurations, particle counts and
//! seeds — is embarrassingly parallel over runs. [`run_batch`] evaluates a
//! list of [`BatchJob`]s as one **first-class dispatch** on the shared
//! work-stealing worker pool ([`mcl_core::pool::shared`], capped at `threads`
//! concurrent workers) and returns the results **in job order**, so the
//! output is deterministic and independent of the thread count: each job's
//! filter owns its particles and its counter-based RNG streams, making runs
//! bit-identical to serial [`PaperScenario::evaluate`] calls.
//!
//! # How job-level and filter-level parallelism share the pool
//!
//! Under the work-stealing scheduler a batch no longer owns the pool while it
//! runs. Several `run_batch` sweeps issued from separate threads execute
//! **concurrently**, their jobs interleaving across the workers fairly
//! instead of queueing whole-sweep behind one another. And when a filter
//! update *inside* a job asks its [`ClusterLayout`](mcl_core::ClusterLayout)
//! to parallelize, that nested kernel dispatch is enqueued on the job's
//! worker deque where idle workers steal it — a sweep with fewer jobs than
//! workers still lights up the whole pool at kernel granularity (the
//! single-slot scheduler forced those kernels inline). The scheduler's
//! per-dispatch concurrency caps keep job × kernel nesting from
//! oversubscribing the machine. Results are unaffected either way: kernel
//! chunking is index-keyed and worker-count invariant, and each job writes
//! only its own result slot.

use crate::metrics::{ResultAggregator, SequenceResult};
use crate::scenario::PaperScenario;
use mcl_core::precision::PipelineConfig;
use mcl_core::KernelBackend;
use std::sync::Mutex;

/// One evaluation job: a sequence, a pipeline configuration, a particle count,
/// a seed and the kernel backend the job's filter dispatches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchJob {
    /// Index into [`PaperScenario::sequences`].
    pub sequence_index: usize,
    /// The pipeline (precision/sensor) configuration to evaluate.
    pub pipeline: PipelineConfig,
    /// Number of particles.
    pub particles: usize,
    /// Filter seed (also the particle-initialization seed).
    pub seed: u64,
    /// Kernel backend for this job's filter. [`BatchJob::grid`] fills in the
    /// default resolution (the `MCL_KERNEL_BACKEND` override, else the
    /// host-detected backend); the backends are bit-identical, so this
    /// changes how fast a job runs, never what it returns.
    pub kernel_backend: KernelBackend,
    /// Run the job's filter under adaptive (KLD + recovery-injection)
    /// population control instead of the fixed `particles` count — see
    /// [`PaperScenario::adaptive_config`] for the population range the job
    /// then sweeps. [`BatchJob::grid`] leaves this off; flip it per job via
    /// [`BatchJob::with_adaptive`].
    pub adaptive: bool,
}

impl BatchJob {
    /// The full cross product sequences × pipelines × particle counts × seeds —
    /// the shape of the paper's evaluation grid. Every job runs under the
    /// default kernel backend; override per job via
    /// [`BatchJob::with_kernel_backend`].
    pub fn grid(
        sequence_indices: &[usize],
        pipelines: &[PipelineConfig],
        particle_counts: &[usize],
        seeds: &[u64],
    ) -> Vec<BatchJob> {
        let kernel_backend = KernelBackend::from_env().unwrap_or_else(KernelBackend::detect);
        let mut jobs = Vec::with_capacity(
            sequence_indices.len() * pipelines.len() * particle_counts.len() * seeds.len(),
        );
        for &sequence_index in sequence_indices {
            for &pipeline in pipelines {
                for &particles in particle_counts {
                    for &seed in seeds {
                        jobs.push(BatchJob {
                            sequence_index,
                            pipeline,
                            particles,
                            seed,
                            kernel_backend,
                            adaptive: false,
                        });
                    }
                }
            }
        }
        jobs
    }

    /// Returns a copy of the job pinned to `backend`.
    pub fn with_kernel_backend(mut self, backend: KernelBackend) -> Self {
        self.kernel_backend = backend;
        self
    }

    /// Returns a copy of the job with adaptive population control switched
    /// on or off.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }
}

/// One job's outcome, paired with the job that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// The evaluated job.
    pub job: BatchJob,
    /// The metrics of the run.
    pub result: SequenceResult,
}

/// Evaluates `jobs` against `scenario` on the shared worker pool (at most
/// `threads` concurrent workers) and returns one [`BatchOutcome`] per job, in
/// job order.
///
/// Each participating thread claims the next unclaimed job off the dispatch
/// cursor, runs [`PaperScenario::evaluate`] — global uniform initialization,
/// exactly like the serial path — and stores the result at the job's slot.
/// Results are therefore identical for any `threads`, including 1 (which runs
/// serially on the calling thread without touching the pool). Concurrent
/// `run_batch` calls from different threads share the pool's workers instead
/// of serializing, and each job's own kernel dispatches are stealable too —
/// see the [module docs](self).
///
/// # Panics
///
/// Panics when `threads` is zero or a job's `sequence_index` is out of range.
pub fn run_batch(scenario: &PaperScenario, jobs: &[BatchJob], threads: usize) -> Vec<BatchOutcome> {
    assert!(threads > 0, "at least one worker thread is required");
    for job in jobs {
        assert!(
            job.sequence_index < scenario.sequences().len(),
            "job references sequence {} but the scenario has {}",
            job.sequence_index,
            scenario.sequences().len()
        );
    }
    let results: Vec<Mutex<Option<SequenceResult>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();

    let evaluate = |index: usize| {
        let job = jobs[index];
        let sequence = &scenario.sequences()[job.sequence_index];
        let result = scenario.evaluate_with_options(
            sequence,
            job.pipeline,
            job.particles,
            job.seed,
            job.kernel_backend,
            job.adaptive,
        );
        *results[index].lock().expect("result slot poisoned") = Some(result);
    };

    if threads == 1 || jobs.len() <= 1 {
        for index in 0..jobs.len() {
            evaluate(index);
        }
    } else {
        // First-class dispatch on the work-stealing scheduler: this sweep
        // runs concurrently with whatever else is in flight (other sweeps,
        // other filters), sharing the workers instead of waiting for a slot.
        mcl_core::pool::shared().dispatch_limited(jobs.len(), threads, &evaluate);
    }

    jobs.iter()
        .zip(results)
        .map(|(&job, slot)| BatchOutcome {
            job,
            result: slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("every job was claimed and evaluated"),
        })
        .collect()
}

/// Folds a batch's outcomes into one [`ResultAggregator`] per predicate — e.g.
/// per pipeline configuration for the paper's Fig. 6/7 bars.
pub fn aggregate<F: Fn(&BatchJob) -> bool>(
    outcomes: &[BatchOutcome],
    select: F,
) -> ResultAggregator {
    let mut aggregator = ResultAggregator::new();
    for outcome in outcomes.iter().filter(|o| select(&o.job)) {
        aggregator.push(outcome.result);
    }
    aggregator
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_builds_the_full_cross_product() {
        let jobs = BatchJob::grid(
            &[0, 1],
            &[PipelineConfig::FP32, PipelineConfig::FP16_QM],
            &[256, 1024],
            &[1, 2, 3],
        );
        assert_eq!(jobs.len(), 2 * 2 * 2 * 3);
        assert_eq!(jobs[0].sequence_index, 0);
        assert_eq!(jobs.last().unwrap().seed, 3);
    }

    #[test]
    fn batch_matches_serial_evaluation_for_any_thread_count() {
        let scenario = PaperScenario::quick(11);
        let jobs = BatchJob::grid(&[0], &[PipelineConfig::FP32], &[128], &[1, 2]);
        let serial: Vec<SequenceResult> = jobs
            .iter()
            .map(|job| {
                scenario.evaluate(
                    &scenario.sequences()[job.sequence_index],
                    job.pipeline,
                    job.particles,
                    job.seed,
                )
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let outcomes = run_batch(&scenario, &jobs, threads);
            assert_eq!(outcomes.len(), jobs.len());
            for (outcome, expected) in outcomes.iter().zip(serial.iter()) {
                assert_eq!(
                    outcome.result, *expected,
                    "threads={threads} diverged from serial evaluation"
                );
            }
        }
    }

    #[test]
    fn all_backend_jobs_return_identical_results() {
        // The kernel backends are bit-identical, so the same job grid pinned
        // to any backend must produce exactly the same metrics — across
        // both storage precisions of the paper's design space. (On non-AVX2
        // hosts the Avx2 jobs run the Lanes bodies, which keeps the
        // assertion meaningful everywhere.)
        let scenario = PaperScenario::quick(15);
        let base = BatchJob::grid(
            &[0],
            &[PipelineConfig::FP32, PipelineConfig::FP16_QM],
            &[96],
            &[1, 2],
        );
        let scalar_jobs: Vec<BatchJob> = base
            .iter()
            .map(|j| j.with_kernel_backend(KernelBackend::Scalar))
            .collect();
        let scalar = run_batch(&scenario, &scalar_jobs, 2);
        for backend in [KernelBackend::Lanes, KernelBackend::Avx2] {
            let jobs: Vec<BatchJob> = base
                .iter()
                .map(|j| j.with_kernel_backend(backend))
                .collect();
            let results = run_batch(&scenario, &jobs, 2);
            for (s, r) in scalar.iter().zip(results.iter()) {
                assert_eq!(s.result, r.result, "backends diverged on {:?}", r.job);
            }
        }
    }

    #[test]
    fn aggregate_filters_by_job() {
        let scenario = PaperScenario::quick(12);
        let jobs = BatchJob::grid(
            &[0],
            &[PipelineConfig::FP32, PipelineConfig::FP32_1TOF],
            &[64],
            &[1],
        );
        let outcomes = run_batch(&scenario, &jobs, 2);
        let two_sensor = aggregate(&outcomes, |job| job.pipeline == PipelineConfig::FP32);
        let all = aggregate(&outcomes, |_| true);
        assert_eq!(two_sensor.len(), 1);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn adaptive_jobs_change_the_population_and_stay_deterministic() {
        let scenario = PaperScenario::quick(16);
        let fixed_jobs = BatchJob::grid(&[0], &[PipelineConfig::FP32], &[256], &[1, 2]);
        let adaptive_jobs: Vec<BatchJob> =
            fixed_jobs.iter().map(|j| j.with_adaptive(true)).collect();
        assert!(adaptive_jobs.iter().all(|j| j.adaptive));
        let fixed = run_batch(&scenario, &fixed_jobs, 2);
        // Fixed-size runs report exactly the configured population.
        for outcome in &fixed {
            assert_eq!(outcome.result.mean_particles, 256.0);
        }
        // Adaptive runs are deterministic across thread counts…
        let adaptive = run_batch(&scenario, &adaptive_jobs, 2);
        let adaptive_serial = run_batch(&scenario, &adaptive_jobs, 1);
        for (a, b) in adaptive.iter().zip(adaptive_serial.iter()) {
            assert_eq!(a.result, b.result, "adaptive job diverged across threads");
        }
        // …and actually adapt: from a global uniform init the KLD target
        // leaves the fixed count on at least one run.
        assert!(
            adaptive.iter().any(|o| o.result.mean_particles != 256.0),
            "no adaptive run ever changed its population"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let scenario = PaperScenario::quick(13);
        let _ = run_batch(&scenario, &[], 0);
    }

    #[test]
    #[should_panic(expected = "references sequence")]
    fn out_of_range_sequence_is_rejected() {
        let scenario = PaperScenario::quick(14);
        let job = BatchJob {
            sequence_index: 5,
            pipeline: PipelineConfig::FP32,
            particles: 64,
            seed: 1,
            kernel_backend: KernelBackend::default(),
            adaptive: false,
        };
        let _ = run_batch(&scenario, &[job], 1);
    }
}
