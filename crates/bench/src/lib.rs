//! Experiment harness shared by the per-table/per-figure binaries and the
//! Criterion benches.
//!
//! - [`scenarios`] — the seven model × dataset workloads of Table II, with
//!   a [`scenarios::Scale`] knob (quick / paper) controlling dataset sizes
//!   and iteration counts.
//! - [`harness`] — assembly code that partitions data, builds topologies,
//!   runs a [`hieradmo_core::Strategy`] (three-tier or its two-tier
//!   equivalent per the paper's fairness rule), and collects outcomes.
//! - [`report`] — result rows rendered both as text tables and JSON lines
//!   (so `EXPERIMENTS.md` numbers are regenerable and diffable).
//! - [`sys`] — process-level measurements (peak RSS) shared by the
//!   benchmark binaries.

#![deny(missing_docs)]

pub mod cli;
pub mod harness;
pub mod report;
pub mod scenarios;
pub mod spec;
pub mod sys;

pub use harness::{run_on_scenario, Outcome};
pub use report::Report;
pub use scenarios::{defense_from_name, AdversaryScenario, FaultScenario, Scale, Workload};
pub use sys::{git_rev, peak_rss_bytes};
