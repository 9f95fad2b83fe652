//! The decision-latency benchmark of the Tempo daemon (see `README.md`).

pub mod agree;
pub mod daemon;
pub mod e2e;
pub mod gen;
pub mod layers;
pub mod load;
pub mod mirror;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod wire;
