//! Run checkpointing: persist a finished (or interrupted) run's essentials
//! — config, curve, γℓ trace and final parameters — as JSON, so long
//! experiments survive process restarts and `EXPERIMENTS.md` numbers stay
//! regenerable from artifacts.
//!
//! Two snapshot kinds live here:
//!
//! * [`Checkpoint`] — the *outcome* of a run (curve + final parameters),
//!   enough to regenerate report numbers but not to continue training;
//! * [`TrainingSnapshot`] — the full mid-run federation state at an edge
//!   boundary, enough to resume training bitwise identically via
//!   [`crate::run_span`]. This is also the state shape the
//!   co-simulation runtime's crash-recovery path restores workers from.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use hieradmo_metrics::ConvergenceCurve;
use hieradmo_tensor::Vector;
use hieradmo_topology::ElasticSnapshot;

use crate::config::RunConfig;
use crate::driver::{RunError, RunResult};
use crate::state::{FlState, TierState, WorkerState};

/// The serializable snapshot of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Algorithm name (Table II label).
    pub algorithm: String,
    /// The configuration the run used.
    pub config: RunConfig,
    /// Accuracy/loss trajectory.
    pub curve: ConvergenceCurve,
    /// `(k, mean γℓ)` trace.
    pub gamma_trace: Vec<(usize, f32)>,
    /// Final global model parameters.
    pub final_params: Vector,
}

impl Checkpoint {
    /// Captures a checkpoint from a run result and its config.
    pub fn capture(result: &RunResult, config: &RunConfig) -> Self {
        Checkpoint {
            algorithm: result.algorithm.clone(),
            config: config.clone(),
            curve: result.curve.clone(),
            gamma_trace: result.gamma_trace.clone(),
            final_params: result.final_params.clone(),
        }
    }

    /// Serializes to a JSON string.
    ///
    /// # Panics
    ///
    /// Never panics in practice: all fields serialize infallibly.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint fields always serialize")
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Writes the checkpoint to a file (atomically via a temp file +
    /// rename, so a crash never leaves a torn checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)
    }

    /// Loads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed JSON maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The complete federation state at a tick boundary — everything
/// [`crate::run_span`] needs to resume a run exactly where a `stop_at`
/// span stopped it.
///
/// The batcher and dropout RNG streams are *not* stored: both are seeded
/// from `RunConfig::seed` alone, so the resuming driver replays their
/// draws up to `tick` and lands on the identical stream position. That
/// keeps the snapshot small (model-sized, not run-sized) and makes the
/// resumed trajectory bitwise identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingSnapshot {
    /// Algorithm name — resuming under a different strategy is rejected.
    pub algorithm: String,
    /// The tick `t` the state was captured after (a multiple of `τ`).
    pub tick: usize,
    /// Worker states in flat (edge-major) order.
    pub workers: Vec<WorkerState>,
    /// Edge states.
    pub edges: Vec<TierState>,
    /// Cloud state.
    pub cloud: TierState,
    /// Middle-tier states on N-tier runs, one vector per middle depth in
    /// [`hieradmo_topology::TierTree::middle_depths`] order. Empty on
    /// three-tier runs, so depth-3 snapshots keep their seed wire format.
    #[serde(default)]
    pub middle: Vec<Vec<TierState>>,
    /// The elastic topology version in force at `tick`, on elastic runs
    /// ([`crate::elastic`]): which stable edge ids are
    /// live and which registered worker sits where, so a resume replays
    /// the remaining churn boundaries against the identical tree. `None`
    /// on frozen-tree runs, keeping their seed wire format.
    #[serde(default)]
    pub topology: Option<ElasticSnapshot>,
}

impl TrainingSnapshot {
    /// Opens one training span on a freshly initialized `state`: checks
    /// the optional stop point and resume snapshot against the run, then
    /// restores the snapshot's tier vectors into `state` (all algorithm
    /// state lives there, so this overwrites everything
    /// [`crate::Strategy::init`] set up). Returns the tick the span starts
    /// after: `0` without a snapshot, else [`TrainingSnapshot::tick`].
    ///
    /// # Errors
    ///
    /// [`RunError::BadConfig`] for a `stop_at` that is zero, past `T`, off
    /// the `τ` grid or not past the snapshot, and for a snapshot captured
    /// by another algorithm or off the edge-boundary grid;
    /// [`RunError::Data`] for a snapshot whose worker, edge, middle-tier or
    /// model shapes do not match `state`.
    pub(crate) fn open_span(
        resume: Option<&Self>,
        stop_at: Option<usize>,
        algorithm: &str,
        cfg: &RunConfig,
        state: &mut FlState,
    ) -> Result<usize, RunError> {
        if let Some(stop) = stop_at {
            if stop == 0 || stop > cfg.total_iters || stop % cfg.tau != 0 {
                return Err(RunError::BadConfig(format!(
                    "stop_at must be a positive multiple of tau ({}) no larger than \
                     total_iters ({}), got {stop}",
                    cfg.tau, cfg.total_iters
                )));
            }
        }
        let Some(snap) = resume else {
            return Ok(0);
        };
        if snap.algorithm != algorithm {
            return Err(RunError::BadConfig(format!(
                "snapshot was captured by {}, cannot resume under {algorithm}",
                snap.algorithm
            )));
        }
        if snap.tick == 0 || snap.tick >= cfg.total_iters || snap.tick % cfg.tau != 0 {
            return Err(RunError::BadConfig(format!(
                "snapshot tick {} is not an edge boundary (multiple of tau = {}) \
                 strictly before total_iters = {}",
                snap.tick, cfg.tau, cfg.total_iters
            )));
        }
        if let Some(stop) = stop_at.filter(|&stop| stop <= snap.tick) {
            return Err(RunError::BadConfig(format!(
                "stop_at ({stop}) must be past the snapshot tick ({})",
                snap.tick
            )));
        }
        if snap.workers.len() != state.workers.len() || snap.edges.len() != state.edges.len() {
            return Err(RunError::Data(format!(
                "snapshot holds {} workers / {} edges for a federation with {} / {}",
                snap.workers.len(),
                snap.edges.len(),
                state.workers.len(),
                state.edges.len()
            )));
        }
        if snap.cloud.x_plus.len() != state.dim() {
            return Err(RunError::Data(format!(
                "snapshot dimension {} does not match model dimension {}",
                snap.cloud.x_plus.len(),
                state.dim()
            )));
        }
        if snap.middle.len() != state.middle.len()
            || snap
                .middle
                .iter()
                .zip(&state.middle)
                .any(|(s, m)| s.len() != m.len())
        {
            return Err(RunError::Data(format!(
                "snapshot holds {} middle tiers for a tree with {}",
                snap.middle.len(),
                state.middle.len()
            )));
        }
        state.workers = snap.workers.clone();
        state.edges = snap.edges.clone();
        state.cloud = snap.cloud.clone();
        state.middle = snap.middle.clone();
        Ok(snap.tick)
    }

    /// Serializes to a JSON string.
    ///
    /// # Panics
    ///
    /// Never panics in practice: all fields serialize infallibly.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot fields always serialize")
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Writes the snapshot to a file (atomically via a temp file + rename,
    /// so a crash never leaves a torn snapshot).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_json())?;
        fs::rename(&tmp, path)
    }

    /// Loads a snapshot from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed JSON maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hieradmo_metrics::EvalPoint;

    fn sample() -> Checkpoint {
        let curve: ConvergenceCurve = [EvalPoint {
            iteration: 50,
            train_loss: 0.4,
            test_loss: 0.5,
            test_accuracy: 0.87,
        }]
        .into_iter()
        .collect();
        Checkpoint {
            algorithm: "HierAdMo".into(),
            config: RunConfig::default(),
            curve,
            gamma_trace: vec![(1, 0.4), (2, 0.7)],
            final_params: Vector::from(vec![0.1, -0.2, 0.3]),
        }
    }

    #[test]
    fn json_round_trips() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn file_round_trips() {
        let dir = std::env::temp_dir().join("hieradmo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.json");
        let cp = sample();
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_invalid_data() {
        let err = Checkpoint::from_json("{not json").unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn training_snapshot_round_trips_json_and_file() {
        use crate::state::FlState;
        use hieradmo_topology::{Hierarchy, Weights};
        let h = Hierarchy::new(vec![2, 1]);
        let w = Weights::from_samples(&h, &[10, 30, 20]);
        let s = FlState::new(h, w, &Vector::from(vec![1.5, -0.5]));
        let snap = TrainingSnapshot {
            algorithm: "HierAdMo".into(),
            tick: 10,
            workers: s.workers.clone(),
            edges: s.edges.clone(),
            cloud: s.cloud.clone(),
            middle: vec![vec![s.cloud.clone()]],
            topology: Some(
                hieradmo_topology::TopologyVersion::initial(&[2, 1], 3).expect("valid tree"),
            ),
        };
        let back = TrainingSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Seed-era snapshots carry no `middle` key; it defaults to empty.
        // Pre-elastic snapshots carry no `topology` key; it defaults to
        // `None` (a frozen tree).
        let flat = TrainingSnapshot {
            middle: Vec::new(),
            topology: None,
            ..snap.clone()
        };
        let legacy = flat
            .to_json()
            .replace(",\"middle\":[]", "")
            .replace(",\"topology\":null", "");
        assert!(legacy.len() < flat.to_json().len(), "middle key not found");
        assert!(!legacy.contains("topology"));
        let back = TrainingSnapshot::from_json(&legacy).unwrap();
        assert_eq!(back, flat);

        let dir = std::env::temp_dir().join("hieradmo-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        snap.save(&path).unwrap();
        let back = TrainingSnapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();

        assert!(TrainingSnapshot::from_json("{truncated").is_err());
    }

    #[test]
    fn capture_from_run_result() {
        use crate::algorithms::testutil::{quick_cfg, quick_run};
        use crate::algorithms::HierAdMo;
        use hieradmo_topology::Hierarchy;
        let cfg = quick_cfg();
        let res = quick_run(
            &HierAdMo::adaptive(0.05, 0.5),
            Hierarchy::balanced(2, 2),
            cfg.clone(),
        );
        let cp = Checkpoint::capture(&res, &cfg);
        assert_eq!(cp.algorithm, "HierAdMo");
        assert_eq!(cp.curve, res.curve);
        assert_eq!(cp.final_params.len(), res.final_params.len());
        // And it survives serialization.
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.final_params, cp.final_params);
    }
}
