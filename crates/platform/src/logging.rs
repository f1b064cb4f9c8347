//! Flight logging, standing in for the nRF radio log stream of Fig. 2.
//!
//! The pipeline writes one [`LogRecord`] per 15 Hz step: the fused pose, the raw
//! MCL estimate (when one was produced), and the modelled on-board latency.
//! [`FlightLog`] is shared between the pipeline and any consumer (ground-station
//! plotting, the examples) behind a `std::sync::Mutex`, mirroring how the
//! real firmware's logging task reads state produced by the estimation task.
//! Records can be exported as CSV for offline analysis.

use mcl_gridmap::Pose2;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One logged step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Time since take-off, seconds.
    pub timestamp_s: f64,
    /// The fused (state-estimator) pose published to the rest of the firmware.
    pub fused_pose: Pose2,
    /// The raw MCL estimate, when this step produced one.
    pub mcl_pose: Option<Pose2>,
    /// Modelled on-board latency of this step (transfer + compute), seconds.
    pub latency_s: f64,
    /// Whether the step finished within the real-time budget.
    pub deadline_met: bool,
}

/// A shared, append-only flight log.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    records: Arc<Mutex<Vec<LogRecord>>>,
}

impl FlightLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records, locked. A writer that panicked mid-push leaves the
    /// vector intact, so a poisoned lock is recovered rather than spread.
    fn records(&self) -> MutexGuard<'_, Vec<LogRecord>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record.
    pub fn push(&self, record: LogRecord) {
        self.records().push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// `true` when nothing has been logged yet.
    pub fn is_empty(&self) -> bool {
        self.records().is_empty()
    }

    /// A snapshot of all records.
    pub fn snapshot(&self) -> Vec<LogRecord> {
        self.records().clone()
    }

    /// Exports the log as CSV (one line per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "t_s,x_m,y_m,yaw_rad,mcl_x_m,mcl_y_m,mcl_yaw_rad,latency_s,deadline_met\n",
        );
        for r in self.records().iter() {
            let (mx, my, myaw) = match r.mcl_pose {
                Some(p) => (p.x.to_string(), p.y.to_string(), p.theta.to_string()),
                None => (String::new(), String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.timestamp_s,
                r.fused_pose.x,
                r.fused_pose.y,
                r.fused_pose.theta,
                mx,
                my,
                myaw,
                r.latency_s,
                r.deadline_met
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: f64, with_mcl: bool) -> LogRecord {
        LogRecord {
            timestamp_s: t,
            fused_pose: Pose2::new(1.0, 2.0, 0.3),
            mcl_pose: with_mcl.then(|| Pose2::new(1.1, 2.1, 0.25)),
            latency_s: 0.002,
            deadline_met: true,
        }
    }

    #[test]
    fn log_is_append_only_and_snapshotable() {
        let log = FlightLog::new();
        assert!(log.is_empty());
        log.push(record(0.0, true));
        log.push(record(1.0 / 15.0, false));
        assert_eq!(log.len(), 2);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].mcl_pose.is_some());
        assert!(snap[1].mcl_pose.is_none());
    }

    #[test]
    fn clones_share_the_same_underlying_log() {
        let log = FlightLog::new();
        let writer = log.clone();
        writer.push(record(0.0, true));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn csv_export_has_a_header_and_one_line_per_record() {
        let log = FlightLog::new();
        log.push(record(0.0, true));
        log.push(record(0.066, false));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t_s,"));
        assert!(lines[1].contains("1.1"));
        // The record without an MCL estimate has empty MCL columns.
        assert!(lines[2].contains(",,"));
    }
}
