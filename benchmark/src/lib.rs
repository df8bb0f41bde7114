//! The gate benchmark of the `cds` workspace: three request/reply
//! pipeline workloads (`rr_*`: `cds-exec` + `cds-chan` + `ResizingMap`)
//! and two direct lock-free workloads (`direct_*`), all measured **from
//! outside** by timing calls into the crates' public functions.
//!
//! `README.md` states the method and why each workload exists;
//! `../BENCHMARK.json` is the contract (metric names, units, bounds).
//! The library half exists so `tests/` can reach the helpers.

pub mod agree;
pub mod cli;
pub mod direct;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod rr;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
