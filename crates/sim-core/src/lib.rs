//! # sim-core
//!
//! Discrete-event simulation (DES) substrate used by the vHive/REAP
//! reproduction.
//!
//! The paper measures wall-clock latency on a physical host (2×24-core Xeon,
//! SATA3 SSD). This crate provides the equivalent *virtual* clock and the
//! shared-resource queueing machinery so that every experiment is
//! deterministic and reproducible:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a stable (FIFO-tiebroken) priority queue of timed
//!   events, the heart of the event loop in `vhive-core::timeline`.
//! * [`MultiServer`] — an *k*-server FIFO queueing resource used to model
//!   SSD channels, HDD heads, and host CPU cores.
//! * [`DetRng`] — a deterministic, dependency-free xoshiro256** RNG so that
//!   every figure regenerates bit-identically from a seed.
//! * [`Deadline`] / [`TokenBucket`] — virtual-time latency budgets and the
//!   admission-control rate limiter behind overload shedding.
//! * [`stats`] — online statistics, percentiles and histograms used by the
//!   benchmark harness.
//! * [`metrics`] — the off-by-default fleet [`MetricsRegistry`] and the
//!   mergeable [`LogHistogram`] behind windowed telemetry rollups.
//! * [`table`] — plain-text / CSV table rendering for the figure subcommands.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(2), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_millis_f64(), 1.0);
//! ```

// Every `unsafe` block in this crate (`parcopy`'s copies, `hash::fill_pages`'
// `set_len`) states why it is sound; the clippy CI job holds that.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod deadline;
pub mod events;
pub mod hash;
pub mod lanes;
pub mod metrics;
pub mod parcopy;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use deadline::{Deadline, TokenBucket};
pub use events::EventQueue;
pub use hash::{fnv1a64, Fnv1a64};
pub use lanes::{effective_lanes, partition_by_weight, MAX_SERVING_LANES};
pub use metrics::{LogHistogram, MetricsRegistry};
pub use parcopy::{copy_par, extend_par, extend_scatter};
pub use resource::{MultiServer, TokenPool};
pub use rng::DetRng;
pub use stats::{Histogram, OnlineStats, Percentiles};
pub use table::{Align, Table};
pub use time::{SimDuration, SimTime};
