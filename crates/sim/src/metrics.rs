//! Evaluation metrics: convergence, ATE and success, as defined in §IV-A.
//!
//! The paper evaluates every run with three metrics:
//!
//! * **Time to convergence** — the first time the estimated pose is within
//!   0.2 m and 36° of the ground truth.
//! * **Absolute trajectory error (ATE)** — the mean translation error between
//!   the estimate and the ground truth over all steps *after* convergence.
//! * **Success** — a run counts as successful if, after converging, the pose
//!   tracking stays reliable until the end of the sequence, i.e. the error never
//!   exceeds 1 m again.
//!
//! [`TrajectoryErrorTracker`] accumulates these online, one estimate at a time,
//! so the runner never has to store the whole estimate history.
//!
//! The scenario suite adds sequence-level stress events; two further metrics
//! score the filter under them, driven by the sequence's [`StressTimeline`]:
//!
//! * **Recovery time after kidnap** — for every kidnap instant, the time until
//!   the estimate first satisfies the convergence criterion again.
//! * **Dropout-window ATE** — the mean translation error restricted to
//!   post-convergence steps that fall inside a sensor-dropout window.

use mcl_core::PoseEstimate;
use mcl_gridmap::Pose2;
use mcl_num::RunningStats;

/// The convergence gate of the paper: 0.2 m translation, 36° yaw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Maximum translation error for the estimate to count as converged, metres.
    pub distance_m: f32,
    /// Maximum yaw error for the estimate to count as converged, radians.
    pub yaw_rad: f32,
    /// Error above which tracking counts as lost after convergence, metres.
    pub failure_distance_m: f32,
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        ConvergenceCriterion {
            distance_m: 0.2,
            yaw_rad: 36f32.to_radians(),
            failure_distance_m: 1.0,
        }
    }
}

/// The stress events of one sequence, in sequence time: what the scenario
/// suite injected, published so the metrics can score the filter's reaction.
/// An empty timeline (the default) reproduces the paper's nominal evaluation
/// exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StressTimeline {
    /// Instants at which the drone was teleported (kidnapped-robot events),
    /// seconds since sequence start.
    pub kidnap_times_s: Vec<f64>,
    /// Inclusive `(start_s, end_s)` windows during which at least one sensor
    /// was fully dropped out.
    pub dropout_windows_s: Vec<(f64, f64)>,
}

impl StressTimeline {
    /// True when no stress events were injected.
    pub fn is_empty(&self) -> bool {
        self.kidnap_times_s.is_empty() && self.dropout_windows_s.is_empty()
    }

    /// True when `t_s` falls inside any dropout window (inclusive bounds).
    pub fn in_dropout(&self, t_s: f64) -> bool {
        self.dropout_windows_s
            .iter()
            .any(|&(start, end)| t_s >= start && t_s <= end)
    }
}

/// Outcome of evaluating one filter configuration on one sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceResult {
    /// Number of estimate samples that were scored.
    pub steps: usize,
    /// Whether the filter ever converged.
    pub converged: bool,
    /// Time of first convergence, seconds (`None` when it never converged).
    pub convergence_time_s: Option<f64>,
    /// Mean absolute trajectory error after convergence, metres (`None` when the
    /// run never converged).
    pub ate_m: Option<f64>,
    /// Largest translation error observed after convergence, metres.
    pub max_error_after_convergence_m: Option<f64>,
    /// Whether the run counts as a success (converged and never lost tracking).
    pub success: bool,
    /// Number of kidnap events in the sequence's stress timeline.
    pub kidnaps: usize,
    /// How many of those kidnaps the filter re-localized from.
    pub kidnaps_recovered: usize,
    /// Mean time from a kidnap to re-satisfying the convergence criterion,
    /// seconds (`None` when no kidnap was recovered from).
    pub mean_recovery_time_s: Option<f64>,
    /// Mean translation error over post-convergence steps inside sensor-dropout
    /// windows, metres (`None` when no such step was scored).
    pub dropout_ate_m: Option<f64>,
    /// Mean post-resampling particle population over the applied updates of
    /// the run — the configured count for a fixed-size filter, lower on
    /// average under adaptive (KLD) population control. `0` when the harness
    /// that produced the result did not record populations (the tracker
    /// itself scores poses only; `run_sequence` fills this in from the filter
    /// counters).
    pub mean_particles: f32,
}

impl SequenceResult {
    /// ATE as a plain number, using `default` when the run never converged
    /// (convenient for aggregate tables where failures are reported separately).
    pub fn ate_or(&self, default: f64) -> f64 {
        self.ate_m.unwrap_or(default)
    }
}

/// Online accumulator for the paper's metrics (plus the stress metrics when a
/// [`StressTimeline`] is supplied).
#[derive(Debug, Clone)]
pub struct TrajectoryErrorTracker {
    criterion: ConvergenceCriterion,
    timeline: StressTimeline,
    converged_at: Option<f64>,
    errors_after_convergence: RunningStats,
    max_error_after_convergence: f64,
    steps: usize,
    next_kidnap: usize,
    active_kidnap: Option<f64>,
    recovery_times: RunningStats,
    dropout_errors: RunningStats,
}

impl TrajectoryErrorTracker {
    /// Creates a tracker with the paper's default criterion and no stress
    /// timeline (the nominal evaluation).
    pub fn new(criterion: ConvergenceCriterion) -> Self {
        Self::with_timeline(criterion, StressTimeline::default())
    }

    /// Creates a tracker that additionally scores recovery time after the
    /// timeline's kidnaps and the ATE inside its dropout windows. Kidnap
    /// instants are processed in ascending order regardless of the order they
    /// appear in `timeline`.
    pub fn with_timeline(criterion: ConvergenceCriterion, mut timeline: StressTimeline) -> Self {
        timeline
            .kidnap_times_s
            .sort_by(|a, b| a.partial_cmp(b).expect("kidnap times are finite"));
        TrajectoryErrorTracker {
            criterion,
            timeline,
            converged_at: None,
            errors_after_convergence: RunningStats::new(),
            max_error_after_convergence: 0.0,
            steps: 0,
            next_kidnap: 0,
            active_kidnap: None,
            recovery_times: RunningStats::new(),
            dropout_errors: RunningStats::new(),
        }
    }

    /// The criterion in use.
    pub fn criterion(&self) -> &ConvergenceCriterion {
        &self.criterion
    }

    /// The stress timeline in use (empty for nominal runs).
    pub fn timeline(&self) -> &StressTimeline {
        &self.timeline
    }

    /// Whether the filter has converged so far.
    pub fn has_converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Records one estimate against the ground truth at time `timestamp_s`.
    pub fn record(&mut self, timestamp_s: f64, estimate: &PoseEstimate, truth: &Pose2) {
        self.steps += 1;
        let translation_error = f64::from(estimate.pose.translation_distance(truth));
        let close = estimate.is_close_to(truth, self.criterion.distance_m, self.criterion.yaw_rad);

        // Kidnap bookkeeping: arm the most recent kidnap whose instant has
        // passed (a kidnap arriving before the previous one was recovered
        // abandons the earlier one — it counts as not recovered).
        while self.next_kidnap < self.timeline.kidnap_times_s.len()
            && self.timeline.kidnap_times_s[self.next_kidnap] <= timestamp_s
        {
            self.active_kidnap = Some(self.timeline.kidnap_times_s[self.next_kidnap]);
            self.next_kidnap += 1;
        }
        if let Some(kidnapped_at) = self.active_kidnap {
            if close {
                self.recovery_times.push(timestamp_s - kidnapped_at);
                self.active_kidnap = None;
            }
        }

        // Convergence and ATE, exactly the paper's accounting.
        if self.converged_at.is_none() {
            if close {
                self.converged_at = Some(timestamp_s);
                self.errors_after_convergence.push(translation_error);
                self.max_error_after_convergence = translation_error;
            }
        } else {
            self.errors_after_convergence.push(translation_error);
            if translation_error > self.max_error_after_convergence {
                self.max_error_after_convergence = translation_error;
            }
        }

        // Dropout-window ATE follows the same post-convergence rule as the
        // plain ATE, restricted to steps inside a window.
        if self.converged_at.is_some() && self.timeline.in_dropout(timestamp_s) {
            self.dropout_errors.push(translation_error);
        }
    }

    /// Finalizes the metrics.
    pub fn finish(&self) -> SequenceResult {
        let converged = self.converged_at.is_some();
        let ate = if converged {
            Some(self.errors_after_convergence.mean())
        } else {
            None
        };
        let max_error = if converged {
            Some(self.max_error_after_convergence)
        } else {
            None
        };
        let success = converged
            && self.max_error_after_convergence <= f64::from(self.criterion.failure_distance_m);
        let mean_recovery_time_s = if self.recovery_times.count() > 0 {
            Some(self.recovery_times.mean())
        } else {
            None
        };
        let dropout_ate_m = if self.dropout_errors.count() > 0 {
            Some(self.dropout_errors.mean())
        } else {
            None
        };
        SequenceResult {
            steps: self.steps,
            converged,
            convergence_time_s: self.converged_at,
            ate_m: ate,
            max_error_after_convergence_m: max_error,
            success,
            kidnaps: self.timeline.kidnap_times_s.len(),
            kidnaps_recovered: self.recovery_times.count() as usize,
            mean_recovery_time_s,
            dropout_ate_m,
            mean_particles: 0.0,
        }
    }
}

/// Aggregates results across sequences and seeds into the numbers the paper
/// plots: mean ATE (Fig. 6), success rate in percent (Fig. 7) and the
/// distribution of convergence times (Fig. 8).
#[derive(Debug, Clone, Default)]
pub struct ResultAggregator {
    results: Vec<SequenceResult>,
}

impl ResultAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one run's result.
    pub fn push(&mut self, result: SequenceResult) {
        self.results.push(result);
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when no runs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Mean ATE over the runs that converged, metres.
    pub fn mean_ate_m(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for r in self.results.iter().filter(|r| r.ate_m.is_some()) {
            stats.push(r.ate_m.unwrap());
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Success rate in percent (the paper's Fig. 7 y-axis).
    pub fn success_rate_percent(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        100.0 * self.results.iter().filter(|r| r.success).count() as f64 / self.results.len() as f64
    }

    /// Fraction of runs that have converged by time `t` seconds — one point of
    /// the paper's Fig. 8 curve.
    pub fn convergence_probability_at(&self, t_s: f64) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .filter(|r| r.convergence_time_s.is_some_and(|c| c <= t_s))
            .count() as f64
            / self.results.len() as f64
    }

    /// Mean convergence time over converged runs, seconds.
    pub fn mean_convergence_time_s(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for r in &self.results {
            if let Some(t) = r.convergence_time_s {
                stats.push(t);
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Percentage of kidnap events (across all runs) the filter re-localized
    /// from; `None` when no run contained a kidnap.
    pub fn recovery_rate_percent(&self) -> Option<f64> {
        let kidnaps: usize = self.results.iter().map(|r| r.kidnaps).sum();
        if kidnaps == 0 {
            return None;
        }
        let recovered: usize = self.results.iter().map(|r| r.kidnaps_recovered).sum();
        Some(100.0 * recovered as f64 / kidnaps as f64)
    }

    /// Mean of the per-run mean recovery times, seconds; `None` when no run
    /// recovered from a kidnap.
    pub fn mean_recovery_time_s(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for r in &self.results {
            if let Some(t) = r.mean_recovery_time_s {
                stats.push(t);
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Mean of the per-run dropout-window ATEs, metres; `None` when no run
    /// scored a dropout step.
    pub fn mean_dropout_ate_m(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for r in &self.results {
            if let Some(a) = r.dropout_ate_m {
                stats.push(a);
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// Mean of the per-run mean particle populations, over the runs that
    /// recorded one; `None` when no run did. For adaptive sweeps this is the
    /// average population the filters actually paid for.
    pub fn mean_particles(&self) -> Option<f64> {
        let mut stats = RunningStats::new();
        for r in &self.results {
            if r.mean_particles > 0.0 {
                stats.push(f64::from(r.mean_particles));
            }
        }
        if stats.count() == 0 {
            None
        } else {
            Some(stats.mean())
        }
    }

    /// The raw results.
    pub fn results(&self) -> &[SequenceResult] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcl_core::Particle;

    fn estimate_at(x: f32, y: f32, theta: f32) -> PoseEstimate {
        PoseEstimate::from_particles(&[Particle::<f32> {
            x,
            y,
            theta,
            weight: 1.0,
        }])
    }

    fn nominal_result(
        steps: usize,
        convergence_time_s: Option<f64>,
        ate_m: Option<f64>,
        max_error_after_convergence_m: Option<f64>,
        success: bool,
    ) -> SequenceResult {
        SequenceResult {
            steps,
            converged: convergence_time_s.is_some(),
            convergence_time_s,
            ate_m,
            max_error_after_convergence_m,
            success,
            kidnaps: 0,
            kidnaps_recovered: 0,
            mean_recovery_time_s: None,
            dropout_ate_m: None,
            mean_particles: 0.0,
        }
    }

    #[test]
    fn default_criterion_matches_the_paper() {
        let c = ConvergenceCriterion::default();
        assert_eq!(c.distance_m, 0.2);
        assert!((c.yaw_rad.to_degrees() - 36.0).abs() < 1e-4);
        assert_eq!(c.failure_distance_m, 1.0);
    }

    #[test]
    fn never_converged_run_is_not_successful() {
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let truth = Pose2::new(0.0, 0.0, 0.0);
        for i in 0..10 {
            tracker.record(i as f64, &estimate_at(2.0, 2.0, 0.0), &truth);
        }
        let result = tracker.finish();
        assert!(!result.converged);
        assert!(!result.success);
        assert!(result.ate_m.is_none());
        assert!(result.convergence_time_s.is_none());
        assert_eq!(result.steps, 10);
        assert_eq!(result.ate_or(9.9), 9.9);
    }

    #[test]
    fn convergence_time_is_the_first_close_estimate() {
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let truth = Pose2::new(1.0, 1.0, 0.0);
        tracker.record(0.0, &estimate_at(3.0, 1.0, 0.0), &truth);
        tracker.record(1.0, &estimate_at(1.5, 1.0, 0.0), &truth);
        tracker.record(2.0, &estimate_at(1.1, 1.0, 0.05), &truth);
        tracker.record(3.0, &estimate_at(1.05, 1.0, 0.0), &truth);
        let result = tracker.finish();
        assert!(result.converged);
        assert_eq!(result.convergence_time_s, Some(2.0));
        // ATE averages the errors from convergence onwards: 0.1 and 0.05.
        assert!((result.ate_m.unwrap() - 0.075).abs() < 1e-5);
        assert!(result.success);
    }

    #[test]
    fn close_position_but_wrong_heading_does_not_converge() {
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let truth = Pose2::new(1.0, 1.0, 0.0);
        tracker.record(0.0, &estimate_at(1.05, 1.0, 2.0), &truth);
        assert!(!tracker.has_converged());
        tracker.record(1.0, &estimate_at(1.05, 1.0, 0.1), &truth);
        assert!(tracker.has_converged());
    }

    #[test]
    fn losing_track_after_convergence_fails_the_run() {
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let truth = Pose2::new(0.0, 0.0, 0.0);
        tracker.record(0.0, &estimate_at(0.1, 0.0, 0.0), &truth);
        tracker.record(1.0, &estimate_at(0.1, 0.0, 0.0), &truth);
        tracker.record(2.0, &estimate_at(1.5, 0.0, 0.0), &truth); // lost
        let result = tracker.finish();
        assert!(result.converged);
        assert!(!result.success);
        assert!(result.max_error_after_convergence_m.unwrap() > 1.0);
    }

    #[test]
    fn aggregator_computes_figure_quantities() {
        let mut agg = ResultAggregator::new();
        assert!(agg.is_empty());
        assert_eq!(agg.success_rate_percent(), 0.0);
        assert_eq!(agg.convergence_probability_at(10.0), 0.0);
        agg.push(nominal_result(100, Some(5.0), Some(0.1), Some(0.3), true));
        agg.push(nominal_result(100, Some(20.0), Some(0.2), Some(1.5), false));
        agg.push(nominal_result(100, None, None, None, false));
        assert_eq!(agg.len(), 3);
        assert!((agg.mean_ate_m().unwrap() - 0.15).abs() < 1e-9);
        assert!((agg.success_rate_percent() - 100.0 / 3.0).abs() < 1e-9);
        assert!((agg.convergence_probability_at(10.0) - 1.0 / 3.0).abs() < 1e-9);
        assert!((agg.convergence_probability_at(30.0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((agg.mean_convergence_time_s().unwrap() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregator_returns_none_means() {
        let agg = ResultAggregator::new();
        assert!(agg.mean_ate_m().is_none());
        assert!(agg.mean_convergence_time_s().is_none());
        assert!(agg.recovery_rate_percent().is_none());
        assert!(agg.mean_recovery_time_s().is_none());
        assert!(agg.mean_dropout_ate_m().is_none());
    }

    #[test]
    fn nominal_runs_report_no_stress_metrics() {
        let mut tracker = TrajectoryErrorTracker::new(ConvergenceCriterion::default());
        let truth = Pose2::new(0.0, 0.0, 0.0);
        tracker.record(0.0, &estimate_at(0.1, 0.0, 0.0), &truth);
        let result = tracker.finish();
        assert_eq!(result.kidnaps, 0);
        assert_eq!(result.kidnaps_recovered, 0);
        assert!(result.mean_recovery_time_s.is_none());
        assert!(result.dropout_ate_m.is_none());
        assert!(tracker.timeline().is_empty());
    }

    #[test]
    fn kidnap_recovery_time_is_measured_from_the_kidnap_instant() {
        let timeline = StressTimeline {
            kidnap_times_s: vec![2.0],
            dropout_windows_s: vec![],
        };
        let mut tracker =
            TrajectoryErrorTracker::with_timeline(ConvergenceCriterion::default(), timeline);
        let truth = Pose2::new(0.0, 0.0, 0.0);
        // Converged from the start.
        tracker.record(0.0, &estimate_at(0.05, 0.0, 0.0), &truth);
        tracker.record(1.0, &estimate_at(0.05, 0.0, 0.0), &truth);
        // Kidnap at t = 2 s: the estimate is far for two steps…
        tracker.record(2.0, &estimate_at(2.0, 0.0, 0.0), &truth);
        tracker.record(3.0, &estimate_at(1.5, 0.0, 0.0), &truth);
        // …and close again at t = 4 s → recovery took 2 s.
        tracker.record(4.0, &estimate_at(0.1, 0.0, 0.0), &truth);
        let result = tracker.finish();
        assert_eq!(result.kidnaps, 1);
        assert_eq!(result.kidnaps_recovered, 1);
        assert!((result.mean_recovery_time_s.unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unrecovered_kidnap_counts_but_reports_no_time() {
        let timeline = StressTimeline {
            kidnap_times_s: vec![1.0],
            dropout_windows_s: vec![],
        };
        let mut tracker =
            TrajectoryErrorTracker::with_timeline(ConvergenceCriterion::default(), timeline);
        let truth = Pose2::new(0.0, 0.0, 0.0);
        tracker.record(0.0, &estimate_at(0.05, 0.0, 0.0), &truth);
        tracker.record(1.0, &estimate_at(3.0, 0.0, 0.0), &truth);
        tracker.record(2.0, &estimate_at(3.0, 0.0, 0.0), &truth);
        let result = tracker.finish();
        assert_eq!(result.kidnaps, 1);
        assert_eq!(result.kidnaps_recovered, 0);
        assert!(result.mean_recovery_time_s.is_none());
    }

    #[test]
    fn dropout_ate_scores_only_post_convergence_window_steps() {
        let timeline = StressTimeline {
            kidnap_times_s: vec![],
            dropout_windows_s: vec![(2.0, 3.0)],
        };
        assert!(timeline.in_dropout(2.0) && timeline.in_dropout(3.0));
        assert!(!timeline.in_dropout(1.99) && !timeline.in_dropout(3.01));
        let mut tracker =
            TrajectoryErrorTracker::with_timeline(ConvergenceCriterion::default(), timeline);
        let truth = Pose2::new(0.0, 0.0, 0.0);
        tracker.record(0.0, &estimate_at(0.05, 0.0, 0.0), &truth); // converged
        tracker.record(1.0, &estimate_at(0.30, 0.0, 0.0), &truth); // outside window
        tracker.record(2.0, &estimate_at(0.40, 0.0, 0.0), &truth); // in window
        tracker.record(3.0, &estimate_at(0.20, 0.0, 0.0), &truth); // in window
        tracker.record(4.0, &estimate_at(0.90, 0.0, 0.0), &truth); // outside window
        let result = tracker.finish();
        // Mean of 0.40 and 0.20 only.
        assert!((result.dropout_ate_m.unwrap() - 0.3).abs() < 1e-6);
        // The plain ATE still averages every post-convergence step.
        assert!((result.ate_m.unwrap() - (0.05 + 0.30 + 0.40 + 0.20 + 0.90) / 5.0).abs() < 1e-6);
    }

    #[test]
    fn aggregator_folds_stress_metrics() {
        let mut agg = ResultAggregator::new();
        let mut kidnapped = nominal_result(50, Some(1.0), Some(0.1), Some(0.2), true);
        kidnapped.kidnaps = 2;
        kidnapped.kidnaps_recovered = 1;
        kidnapped.mean_recovery_time_s = Some(3.0);
        let mut dropped = nominal_result(50, Some(1.0), Some(0.1), Some(0.2), true);
        dropped.kidnaps = 1;
        dropped.kidnaps_recovered = 1;
        dropped.mean_recovery_time_s = Some(5.0);
        dropped.dropout_ate_m = Some(0.4);
        agg.push(kidnapped);
        agg.push(dropped);
        agg.push(nominal_result(50, None, None, None, false));
        // 2 of 3 kidnaps recovered across the batch.
        assert!((agg.recovery_rate_percent().unwrap() - 200.0 / 3.0).abs() < 1e-12);
        assert!((agg.mean_recovery_time_s().unwrap() - 4.0).abs() < 1e-12);
        assert!((agg.mean_dropout_ate_m().unwrap() - 0.4).abs() < 1e-12);
    }
}
