//! Wall-clock benchmark of the veros stack.
//!
//! Four workloads drive the stack through its public crate APIs only:
//!
//! * [`fleet`] — `fleet_ycsb`, the open-loop storage fleet, and
//!   `chain_put_get`, one closed-loop client on a 3-way chain;
//! * [`vspace`] — `vspace_nr`, the NR-replicated page table (paper
//!   Fig 1b/1c);
//! * [`syscall`] — `syscall_ring`, the kernel's syscall interface
//!   through one uring `Engine`.
//!
//! Each workload has an untraced run, which gives the end-to-end
//! metrics, and a traced pass, which times the calls into each layer
//! and gives the per-layer split ([`trace`]). [`probes`] time single
//! layers in isolation. See `README.md` beside this crate for the
//! workload rationale and the metric → layer → workload map.

pub mod fleet;
pub mod probes;
pub mod report;
pub mod rng;
pub mod syscall;
pub mod trace;
pub mod vspace;

/// Workload names, in the order a traced run measures them.
pub const WORKLOADS: [&str; 4] = ["fleet_ycsb", "chain_put_get", "vspace_nr", "syscall_ring"];
