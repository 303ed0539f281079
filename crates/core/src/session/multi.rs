//! Multi-server monitoring (§3.2).
//!
//! "The textual Stethoscope can connect to multiple MonetDB servers at
//! the same time to receive execution traces from all (distributed)
//! sources. Its filter options allow for selective tracing of execution
//! states on each of the connected servers."
//!
//! [`MultiServerSession`] launches one query per "server" (each an
//! engine instance in its own thread with its own UDP emitter), listens
//! on a single textual Stethoscope, and demultiplexes the merged stream
//! by source address.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use stetho_engine::Catalog;
use stetho_profiler::udp::{StreamItem, StreamReceiver, StreamRecvError};
use stetho_profiler::{FilterOptions, ProfilerEmitter, TextualStethoscope, TraceEvent};
use stetho_sql::compile;

use crate::analysis::SessionReport;
use crate::session::{Server, SessionError, StreamCloser, DEFAULT_TIMEOUT};

/// One server's workload.
#[derive(Clone)]
pub struct ServerSpec {
    /// A name for reporting.
    pub name: String,
    /// The database this server hosts.
    pub catalog: Arc<Catalog>,
    /// The query it will run.
    pub sql: String,
    /// Per-server filter ("selective tracing ... on each of the
    /// connected servers").
    pub filter: Option<FilterOptions>,
}

/// The per-server outcome.
#[derive(Debug)]
pub struct ServerOutcome {
    /// Spec name.
    pub name: String,
    /// The source address its stream arrived from.
    pub source: SocketAddr,
    /// Its (filtered) events, arrival order.
    pub events: Vec<TraceEvent>,
    /// Whether its end-of-trace arrived. `false` means every copy was
    /// lost, so its stream ended without it and `events` may be cut
    /// short.
    pub saw_eot: bool,
    /// Result rows of its query.
    pub result_rows: usize,
    /// Full analysis over its trace.
    pub report: SessionReport,
}

/// Drives several servers against one textual Stethoscope.
pub struct MultiServerSession;

impl MultiServerSession {
    /// Run every server's query concurrently; returns outcomes in spec
    /// order.
    pub fn run(specs: Vec<ServerSpec>) -> Result<Vec<ServerOutcome>, SessionError> {
        Self::run_with_metrics(specs, None)
    }

    /// Like [`MultiServerSession::run`], publishing self-observability
    /// into `metrics`: the shared receiver's transport counters are
    /// bridged in, and `stetho_multi_events_total{server=...}` counts
    /// the demultiplexed per-server event streams.
    pub fn run_with_metrics(
        specs: Vec<ServerSpec>,
        metrics: Option<Arc<stetho_obsv::Registry>>,
    ) -> Result<Vec<ServerOutcome>, SessionError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let mut steth = TextualStethoscope::bind()?;
        if let Some(reg) = &metrics {
            crate::metrics::bridge_transport(reg, steth.counters());
        }
        let addr = steth.local_addr()?;
        let rx = steth.start();

        // Launch each server, its profiler filtering at the source, and
        // run its query in a thread. The stream closes once the last
        // server has exited.
        let closer = Arc::new(StreamCloser(steth.stop_handle()));
        let mut launched = Vec::with_capacity(specs.len());
        for spec in &specs {
            let compiled = compile(&spec.catalog, &spec.sql)
                .map_err(|e| SessionError::new(format!("{}: compile: {e}", spec.name)))?;
            let emitter = ProfilerEmitter::connect(addr)?;
            let source = emitter.local_addr()?;
            let server = Server {
                catalog: Arc::clone(&spec.catalog),
                plan: compiled.plan.clone(),
                dot: None,
                filter: spec.filter.clone().unwrap_or_default(),
                workers: 0,
                metrics: None,
                closer: Arc::clone(&closer),
            };
            launched.push((source, compiled.plan, server.spawn(&spec.name, emitter)?));
        }
        drop(closer);

        // Per-server demux counters, keyed by the source address the
        // merged stream tags each event with.
        let event_counters: HashMap<SocketAddr, stetho_obsv::Counter> = match &metrics {
            Some(reg) => launched
                .iter()
                .zip(&specs)
                .map(|(&(source, ..), spec)| {
                    let c = reg.counter_with(
                        "stetho_multi_events_total",
                        "Events demultiplexed per connected server",
                        &[("server", &spec.name)],
                    );
                    (source, c)
                })
                .collect(),
            None => HashMap::new(),
        };

        let demuxed = demux(&rx, &event_counters);
        steth.stop();
        let mut demuxed = demuxed?;

        let mut outcomes = Vec::with_capacity(specs.len());
        for (spec, (source, plan, handle)) in specs.into_iter().zip(launched) {
            let result_rows = handle.join()?;
            let events = demuxed.events.remove(&source).unwrap_or_default();
            let report = SessionReport::build(&plan, &events, 3, 4);
            outcomes.push(ServerOutcome {
                name: spec.name,
                source,
                events,
                saw_eot: demuxed.ended.contains(&source),
                result_rows,
                report,
            });
        }
        Ok(outcomes)
    }
}

/// The merged stream, split by source address.
#[derive(Default)]
struct Demuxed {
    events: HashMap<SocketAddr, Vec<TraceEvent>>,
    /// Sources whose end-of-trace arrived.
    ended: HashSet<SocketAddr>,
}

/// Demultiplex the merged stream until it closes, counting each event on
/// its source's counter.
fn demux(
    rx: &StreamReceiver,
    counters: &HashMap<SocketAddr, stetho_obsv::Counter>,
) -> Result<Demuxed, SessionError> {
    let mut out = Demuxed::default();
    let deadline = Instant::now() + DEFAULT_TIMEOUT;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(StreamItem::Event { source, event }) => {
                if let Some(c) = counters.get(&source) {
                    c.inc();
                }
                out.events.entry(source).or_default().push(event);
            }
            Ok(StreamItem::EndOfTrace { source }) => {
                out.ended.insert(source);
            }
            Ok(_) => {}
            Err(StreamRecvError::Closed) => return Ok(out),
            Err(StreamRecvError::Timeout) => {
                return Err(SessionError::new(format!(
                    "multi-server session timed out after {DEFAULT_TIMEOUT:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stetho_engine::{Bat, TableDef};
    use stetho_mal::MalType;
    use stetho_profiler::{ChaosConfig, ChaosLink, EventStatus};

    fn catalog(rows: i64, tag: f64) -> Arc<Catalog> {
        let mut c = Catalog::new();
        c.add_table(
            TableDef::new(
                "t",
                vec![
                    (
                        "k".into(),
                        MalType::Int,
                        Bat::ints((0..rows).map(|i| i % 5).collect()),
                    ),
                    (
                        "v".into(),
                        MalType::Dbl,
                        Bat::dbls((0..rows).map(|i| i as f64 * tag).collect()),
                    ),
                ],
            )
            .unwrap(),
        );
        Arc::new(c)
    }

    #[test]
    fn two_servers_streams_demultiplexed() {
        let outcomes = MultiServerSession::run(vec![
            ServerSpec {
                name: "alpha".into(),
                catalog: catalog(200, 1.0),
                sql: "select v from t where k = 1".into(),
                filter: None,
            },
            ServerSpec {
                name: "beta".into(),
                catalog: catalog(300, 2.0),
                sql: "select sum(v) as s from t".into(),
                filter: None,
            },
        ])
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "alpha");
        assert_eq!(outcomes[0].result_rows, 40);
        assert_eq!(outcomes[1].result_rows, 1);
        assert_ne!(outcomes[0].source, outcomes[1].source);
        assert!(outcomes.iter().all(|o| o.saw_eot));
        // Each server's events mention only its own plan's statements.
        assert!(!outcomes[0].events.is_empty());
        assert!(!outcomes[1].events.is_empty());
        assert!(outcomes[1]
            .events
            .iter()
            .any(|e| e.stmt.contains("aggr.sum")));
        assert!(!outcomes[0]
            .events
            .iter()
            .any(|e| e.stmt.contains("aggr.sum")));
    }

    #[test]
    fn per_server_filters_apply_independently() {
        let outcomes = MultiServerSession::run(vec![
            ServerSpec {
                name: "unfiltered".into(),
                catalog: catalog(100, 1.0),
                sql: "select v from t where k = 2".into(),
                filter: None,
            },
            ServerSpec {
                name: "algebra-only".into(),
                catalog: catalog(100, 1.0),
                sql: "select v from t where k = 2".into(),
                filter: Some(FilterOptions::all().with_module("algebra")),
            },
        ])
        .unwrap();
        let all = &outcomes[0].events;
        let algebra_only = &outcomes[1].events;
        assert!(algebra_only.len() < all.len());
        assert!(algebra_only.iter().all(|e| e.module() == "algebra"));
    }

    #[test]
    fn empty_spec_list() {
        assert!(MultiServerSession::run(vec![]).unwrap().is_empty());
    }

    #[test]
    fn metrics_count_each_servers_stream() {
        let registry = Arc::new(stetho_obsv::Registry::new());
        let outcomes = MultiServerSession::run_with_metrics(
            vec![
                ServerSpec {
                    name: "alpha".into(),
                    catalog: catalog(100, 1.0),
                    sql: "select v from t where k = 1".into(),
                    filter: None,
                },
                ServerSpec {
                    name: "beta".into(),
                    catalog: catalog(100, 1.0),
                    sql: "select sum(v) as s from t".into(),
                    filter: None,
                },
            ],
            Some(Arc::clone(&registry)),
        )
        .unwrap();
        let snap = registry.snapshot();
        let fam = snap.family("stetho_multi_events_total").unwrap();
        assert_eq!(fam.samples.len(), 2, "one labelled sample per server");
        let total: u64 = outcomes.iter().map(|o| o.events.len() as u64).sum();
        assert_eq!(snap.counter_total("stetho_multi_events_total"), total);
        assert!(
            snap.counter_total("stetho_transport_received_total") > 0,
            "transport bridge active over real UDP"
        );
    }

    #[test]
    fn compile_error_reports_server_name() {
        let err = MultiServerSession::run(vec![ServerSpec {
            name: "broken".into(),
            catalog: catalog(10, 1.0),
            sql: "select nope from missing".into(),
            filter: None,
        }])
        .unwrap_err();
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn stream_ending_without_eot_is_reported() {
        // Both servers' events arrive, but only alpha's end-of-trace:
        // beta's tail is gone, as when every copy of it is lost. The
        // link still closes once both have exited.
        let link = ChaosLink::new(ChaosConfig::clean(7));
        let mut steth = TextualStethoscope::over(&link);
        let rx = steth.start();
        let alpha = ProfilerEmitter::over(&link);
        let beta = ProfilerEmitter::over(&link);
        for i in 0..4 {
            let e = TraceEvent {
                event: i,
                status: EventStatus::Start,
                pc: i as usize,
                thread: 0,
                clk: i,
                usec: 0,
                rss: 0,
                stmt: "a.b();".into(),
            };
            alpha.emit(&e);
            beta.emit(&e);
        }
        alpha.send_end_of_trace();
        let (a, b) = (alpha.local_addr().unwrap(), beta.local_addr().unwrap());
        drop((alpha, beta));

        let demuxed = demux(&rx, &HashMap::new()).unwrap();
        steth.stop();
        assert!(demuxed.ended.contains(&a));
        assert!(!demuxed.ended.contains(&b), "beta sent no end-of-trace");
        assert_eq!(demuxed.events[&a].len(), 4);
        assert_eq!(demuxed.events[&b].len(), 4);
    }
}
