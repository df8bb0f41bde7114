//! Empty placeholder for the `rand` crate.
//!
//! Every random choice in the workspace comes from `cds_atomic::stress`:
//! a structure's from the seeded per-thread `draw()`, a harness's or a
//! test's from a `SplitMix64` it seeds itself. This crate stays, with its
//! name, version, features and dependents, only because the gate
//! benchmark's `Cargo.lock` pins the dependency graph of the structure
//! crates that still name it.
