//! # stetho-core — the Stethoscope platform
//!
//! "Stethoscope combines dot file and execution trace to build a powerful
//! tool, which animates the execution trace and provides navigational
//! access to the portions of interest in the plan." (§1)
//!
//! Everything below this crate is substrate (engine, profiler, dot,
//! layout, zvtm); this crate is the tool the paper demonstrates:
//!
//! * [`mapping`] — the §3.3 trace ↔ dot contract: `pc` ↔ node `n<pc>`,
//!   trace `stmt` ↔ node `label`, plus glyph wiring;
//! * [`color`] — the run-time analysis algorithms of §4.2.1: the
//!   pair-elision coloring algorithm (worked through on the paper's own
//!   six-event example in the tests), the user-threshold variant, and
//!   the §6 gradient-coloring extension;
//! * [`replay`] — offline trace replay: step, fast-forward, rewind,
//!   pause, seek (§5 offline demo);
//! * [`inspect`] — tool-tip text and debug-window models (§4.1);
//! * [`analysis`] — thread utilisation, memory by operator, costly
//!   instruction clustering, per-instruction micro statistics, and the
//!   parallelism anomaly detector that reproduces the paper's
//!   "sequential execution of a MAL plan where multithreaded execution
//!   was expected" finding;
//! * [`prune`] — §6 selective pruning of administrative instructions;
//! * [`metrics`] — self-observability: the sessions publish analyse
//!   latency, pacing adherence, EDT backlog, sampling loss, progress
//!   gauges, and transport health into a [`stetho_obsv::Registry`];
//! * [`session`] — the offline and online workflows of §4, including the
//!   full dot → svg → in-memory-graph pipeline and the multi-threaded
//!   online mode over real UDP.

pub mod analysis;
pub mod color;
pub mod inspect;
pub mod mapping;
pub mod metrics;
pub mod progress;
pub mod prune;
pub mod replay;
pub mod script;
pub mod session;

pub use analysis::SessionReport;
pub use color::{ColorState, ElisionWindow, GradientColoring, PairElision, ThresholdColoring};
pub use mapping::TraceDotMap;
pub use metrics::SessionMetrics;
pub use progress::{InstrState, ProgressModel, ProgressSnapshot};
pub use replay::{repair_lost_dones, NodeRuntime, ReplayController};
pub use script::{Action, InteractionScript};
pub use session::multi::{MultiServerSession, ServerOutcome, ServerSpec};
pub use session::offline::OfflineSession;
pub use session::online::{OnlineConfig, OnlineOutcome, OnlineSession};
pub use session::snapshot::SessionSnapshot;
