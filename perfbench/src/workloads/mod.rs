//! The workloads.

pub mod eval;
pub mod net;
pub mod netrun;
