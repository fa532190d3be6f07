//! `qesbench`: the end-to-end and per-layer benchmark of the qes
//! simulator. See `README.md` in this directory for the metrics, the
//! workloads and how to run it.
//!
//! The benchmark drives only the program's public entry points and
//! times the calls into each layer from outside; it changes no library
//! code.

pub mod bench;
pub mod calib;
pub mod checks;
pub mod host;
pub mod probe;
pub mod workloads;
