//! Empty placeholder for the `parking_lot` crate.
//!
//! Every lock-based structure locks through `cds_sync::Mutex`. This crate
//! stays, with its name, version and dependency, only because the gate
//! benchmark's `Cargo.lock` pins the dependency graph of the structure
//! crates that still name it.
