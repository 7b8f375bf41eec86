//! End-to-end benchmark of the `xpathsat serve` network server.
//!
//! The served run spawns the release server as a child process and drives it
//! closed-loop over loopback TCP; the traced run replays the same generated requests
//! in-process, layer by layer, through the crates' public functions.  See
//! `NOTES.md` beside this package for the workloads, the metrics and their limits.

pub mod gen;
pub mod oracle;
pub mod served;
pub mod stats;
pub mod trace;
