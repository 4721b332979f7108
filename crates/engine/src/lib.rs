//! # setcorr-engine
//!
//! A from-scratch, Storm-like distributed stream-processing substrate (§6.1
//! of the paper): topologies of [`Spout`]s and [`Bolt`]s with per-component
//! parallelism and the full set of groupings (shuffle / all / fields /
//! global / direct), executable on two runtimes:
//!
//! * [`run_sim`] / [`run_sim_batched`] — deterministic single-threaded
//!   discrete-event execution; every run is exactly reproducible (the
//!   experiment harness and the equivalence suites use this as the oracle),
//! * [`run_threaded_batched`] / [`try_run_threaded_batched`] — one OS thread
//!   per task over crossbeam channels with per-destination batch envelopes,
//!   the "real" parallel mode with Storm-like nondeterministic
//!   interleaving. One task loop runs every bolt; setting
//!   [`ThreadedConfig::supervision`] makes that loop consult a per-task
//!   supervisor (`catch_unwind`, checkpointed restarts, fault injection,
//!   graceful degradation — see [`supervise`]) instead of calling callbacks
//!   bare; each task returns its own fault counts and the join sums them.
//!
//! Topologies process *finite* streams: when upstream producers finish, each
//! bolt's [`Bolt::on_flush`] runs (declaration order in sim; Eos-quota
//! tracking in threaded mode). Control back-edges (repartition requests,
//! single-addition round trips) are declared via
//! [`TopologyBuilder::connect_feedback`].

#![warn(missing_docs)]

pub mod sim;
pub mod supervise;
pub mod threaded;
pub mod topology;

pub use sim::{run_sim, run_sim_batched, SimStats};
pub use supervise::{FaultSpec, SuperviseConfig};
pub use threaded::{
    run_threaded_batched, try_run_threaded_batched, BatchPolicy, RunError, ThreadStats,
    ThreadedConfig,
};
pub use topology::{Bolt, ComponentId, Emitter, Grouping, Spout, Topology, TopologyBuilder};
