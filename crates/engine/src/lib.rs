//! # stetho-engine — a MonetDB-like columnar execution engine
//!
//! Stethoscope observes a running MonetDB server (Mserver): it needs real
//! MAL plans, really executing, producing real profiler traces — including
//! genuinely parallel execution on a multi-core scheduler, because the
//! paper's §5 demo analyses "degree of multi-threaded parallelization of
//! MAL instructions". This crate is that substrate, built from scratch:
//!
//! * [`bat`] — Binary Association Tables: typed columnar vectors with a
//!   virtual dense oid head, plus candidate lists;
//! * [`catalog`] — schemas, tables and their column BATs;
//! * [`ops`] — the MAL operator implementations (`algebra.*`,
//!   `batcalc.*`, `aggr.*`, `group.*`, `bat.*`, `mat.*`, `sql.*`, ...);
//! * [`interp`] — a sequential interpreter over plans;
//! * [`scheduler`] — a dataflow scheduler that runs independent
//!   instructions on a worker pool (MonetDB's dataflow blocks);
//! * [`profile`] — profiler sinks: every executed instruction emits the
//!   `start`/`done` [`stetho_profiler::TraceEvent`] pair of the paper's
//!   Figure 3, to memory, to a trace file, or over UDP.

pub mod bat;
pub mod catalog;
pub mod error;
pub mod interp;
pub mod ops;
pub mod profile;
pub mod rt;
pub mod scheduler;

pub use bat::{force_copy, set_force_copy, Bat, ColumnData, ColumnView, StrView};
pub use catalog::{Catalog, ColumnDef, TableDef};
pub use error::EngineError;
pub use interp::{ExecOptions, Interpreter};
pub use profile::{FileSink, NullSink, ProfilerConfig, ProfilerSink, TeeSink, UdpSink, VecSink};
pub use rt::{ExecCtx, QueryResult, RuntimeValue};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, EngineError>;
