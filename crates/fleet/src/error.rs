//! Fleet-level error type.

use stayaway_core::CoreError;
use stayaway_sim::SimError;
use stayaway_statespace::StateSpaceError;
use stayaway_telemetry::TelemetryError;
use stayaway_workload::WorkloadError;

/// Anything that can go wrong while planning or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet configuration is inconsistent.
    InvalidConfig {
        /// Human-readable description of the first problem found.
        reason: String,
    },
    /// A cell's simulator failed.
    Sim(SimError),
    /// A cell's controller failed.
    Core(CoreError),
    /// A cell's observation source failed.
    Telemetry(TelemetryError),
    /// A cluster host's workload engine failed.
    Workload(WorkloadError),
    /// Template registry (de)serialisation failed.
    Registry(String),
    /// A cell (or cluster host) panicked. The executor caught the panic
    /// and every other cell still ran to completion; only this one has
    /// no result.
    WorkerPanicked {
        /// Index of the cell (for a cluster, the host) that panicked.
        cell: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidConfig { reason } => {
                write!(f, "invalid fleet configuration: {reason}")
            }
            FleetError::Sim(e) => write!(f, "cell simulator error: {e}"),
            FleetError::Core(e) => write!(f, "cell controller error: {e}"),
            FleetError::Telemetry(e) => write!(f, "cell observation source error: {e}"),
            FleetError::Workload(e) => write!(f, "cluster host workload error: {e}"),
            FleetError::Registry(reason) => write!(f, "template registry error: {reason}"),
            FleetError::WorkerPanicked { cell } => {
                write!(f, "worker panicked while running cell {cell}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => Some(e),
            FleetError::Core(e) => Some(e),
            FleetError::Telemetry(e) => Some(e),
            FleetError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for FleetError {
    fn from(e: SimError) -> Self {
        FleetError::Sim(e)
    }
}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Core(e)
    }
}

impl From<TelemetryError> for FleetError {
    fn from(e: TelemetryError) -> Self {
        FleetError::Telemetry(e)
    }
}

impl From<WorkloadError> for FleetError {
    fn from(e: WorkloadError) -> Self {
        FleetError::Workload(e)
    }
}

impl From<StateSpaceError> for FleetError {
    fn from(e: StateSpaceError) -> Self {
        FleetError::Registry(e.to_string())
    }
}

/// Resolves the per-job results of [`stayaway_mds::run_indexed`] in job
/// order, or fails with the lowest-indexed failure; a caught panic becomes
/// [`FleetError::WorkerPanicked`] naming `cell_of(job index)`.
pub(crate) fn collect_jobs<R>(
    results: Vec<std::thread::Result<Result<R, FleetError>>>,
    cell_of: impl Fn(usize) -> usize,
) -> Result<Vec<R>, FleetError> {
    let panicked = |index| FleetError::WorkerPanicked {
        cell: cell_of(index),
    };
    let resolve = |(index, result): (usize, std::thread::Result<_>)| {
        result.unwrap_or_else(|_| Err(panicked(index)))
    };
    results.into_iter().enumerate().map(resolve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_mds::run_indexed;

    #[test]
    fn collect_jobs_names_the_lowest_panicking_cell() {
        for workers in [1, 2, 4, 8] {
            let results = run_indexed(workers, (0..10usize).collect(), |_, job| {
                assert!(job != 3 && job != 7, "cell {job} fails");
                Ok(job * 2)
            });
            match collect_jobs(results, |index| 100 + index) {
                Err(FleetError::WorkerPanicked { cell }) => assert_eq!(cell, 103),
                other => panic!("{workers} workers: expected a caught panic, got {other:?}"),
            }
            let clean = run_indexed(workers, (0..10usize).collect(), |_, job| Ok(job * 2));
            let outcomes = collect_jobs(clean, |index| index).unwrap();
            assert_eq!(outcomes, (0..10).map(|job| job * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn collect_jobs_reports_the_lowest_indexed_failure_of_either_kind() {
        for workers in [1, 2, 4, 8] {
            let results = run_indexed(workers, (0..8usize).collect(), |_, job| match job {
                2 => Err(FleetError::Registry("cell 2".into())),
                5 => panic!("cell 5 fails"),
                _ => Ok(job),
            });
            match collect_jobs(results, |index| index) {
                Err(FleetError::Registry(reason)) => assert_eq!(reason, "cell 2"),
                other => panic!("{workers} workers: expected cell 2's error, got {other:?}"),
            }
        }
    }

    #[test]
    fn display_is_descriptive() {
        let e = FleetError::InvalidConfig {
            reason: "cells must be positive".into(),
        };
        assert!(e.to_string().contains("cells must be positive"));
        assert!(FleetError::WorkerPanicked { cell: 3 }
            .to_string()
            .contains("cell 3"));
    }
}
