//! The Application and Execution query panels (thesis §5.5.2–5.5.3,
//! Figs. 9–10) and the threaded query runner behind the scalability
//! experiment (§6.5).

use crate::discovery::Binding;
use pperf_httpd::HttpClient;
use pperf_ogsi::{FactoryStub, Gsh, OgsiError};
use pperfgrid::{ApplicationStub, ExecutionStub, PrQuery, StreamWire};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of the Application Query table: an Application–Attribute–Value
/// tuple (Fig. 9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppQuery {
    /// Which bound application (index into the bindings list).
    pub binding: usize,
    /// Attribute name (from `getExecQueryParams`).
    pub attribute: String,
    /// Attribute value.
    pub value: String,
}

/// The Application Query panel: binds to Application instances and runs the
/// query table, returning Execution handles.
pub struct ApplicationQueryPanel {
    client: Arc<HttpClient>,
    applications: Vec<(Binding, ApplicationStub)>,
    queries: Vec<AppQuery>,
}

impl ApplicationQueryPanel {
    /// Create Application service instances for every binding (Fig. 3 steps
    /// 2a–2c) and bind stubs to them.
    pub fn open(
        client: Arc<HttpClient>,
        bindings: &[Binding],
    ) -> Result<ApplicationQueryPanel, OgsiError> {
        let mut applications = Vec::with_capacity(bindings.len());
        for binding in bindings {
            let factory = FactoryStub::bind(Arc::clone(&client), &binding.factory);
            let app_gsh = factory.create_service(&[])?;
            applications.push((
                binding.clone(),
                ApplicationStub::bind(Arc::clone(&client), &app_gsh),
            ));
        }
        Ok(ApplicationQueryPanel {
            client,
            applications,
            queries: Vec::new(),
        })
    }

    /// The bound applications.
    pub fn applications(&self) -> impl Iterator<Item = (&Binding, &ApplicationStub)> {
        self.applications.iter().map(|(b, s)| (b, s))
    }

    /// Attribute/value choices for one application (drives the GUI's
    /// dropdowns).
    pub fn query_params(&self, binding: usize) -> Result<Vec<(String, Vec<String>)>, OgsiError> {
        self.applications[binding].1.get_exec_query_params()
    }

    /// Add a query tuple to the table.
    pub fn add_query(&mut self, query: AppQuery) {
        self.queries.push(query);
    }

    /// Clear the query table.
    pub fn clear_queries(&mut self) {
        self.queries.clear();
    }

    /// The current query table.
    pub fn queries(&self) -> &[AppQuery] {
        &self.queries
    }

    /// "Run Queries": send each tuple to its Application Grid service; each
    /// query is a separate call and results are unioned, deduplicated — "a
    /// group of subsequent queries would be similar to stringing 'OR' terms
    /// together in SQL" (§5.3.1.2).
    pub fn run_queries(&self) -> Result<Vec<Gsh>, OgsiError> {
        let mut out: Vec<Gsh> = Vec::new();
        for q in &self.queries {
            let (_, app) = self
                .applications
                .get(q.binding)
                .ok_or_else(|| OgsiError::NotFound(format!("binding {}", q.binding)))?;
            for gsh in app.get_execs(&q.attribute, &q.value)? {
                if !out.contains(&gsh) {
                    out.push(gsh);
                }
            }
        }
        Ok(out)
    }

    /// All executions of one bound application.
    pub fn all_execs(&self, binding: usize) -> Result<Vec<Gsh>, OgsiError> {
        self.applications[binding].1.get_all_execs()
    }

    /// The shared HTTP client (passed on to the Execution panel).
    pub fn client(&self) -> Arc<HttpClient> {
        Arc::clone(&self.client)
    }
}

/// One row of the Execution Query table: a Metric/Foci/Type/Time tuple
/// (Fig. 10).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecQuery {
    /// The performance-result query.
    pub query: PrQuery,
    /// How many times to repeat the query per execution (the §6.5 trick for
    /// lengthening short HPL queries: "each query was repeated 10 times in
    /// each thread").
    pub repeats: usize,
}

impl ExecQuery {
    /// A single-shot query.
    pub fn once(query: PrQuery) -> ExecQuery {
        ExecQuery { query, repeats: 1 }
    }
}

/// One Performance Result row returned to the visualizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrResult {
    /// Which Execution produced it.
    pub execution: Gsh,
    /// The raw result rows.
    pub rows: Vec<String>,
}

/// Outcome of one streamed `(execution × query)` pair — the rows themselves
/// went to the caller's sink frame by frame and were never accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRunResult {
    /// Which Execution produced the rows.
    pub execution: Gsh,
    /// Rows delivered to the sink.
    pub rows: u64,
    /// Which wire actually carried them (stream, buffered fallback, …).
    pub wire: StreamWire,
    /// The stream died after delivering rows but before its trailer: the
    /// delivered rows stand, but the scan is incomplete.
    pub truncated: bool,
    /// The sink stopped the stream at a frame boundary.
    pub cancelled: bool,
}

/// Wall-clock accounting for one run of the query table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTiming {
    /// Total elapsed time for the whole run (all threads joined).
    pub total: Duration,
    /// Number of `getPR` calls made.
    pub calls: usize,
}

/// Discovery result for one execution: `(metrics, foci, types, (start, end))`.
pub type ExecutionVocabulary = (Vec<String>, Vec<String>, Vec<String>, (String, String));

/// The Execution Query panel.
pub struct ExecutionQueryPanel {
    client: Arc<HttpClient>,
    executions: Vec<ExecutionStub>,
    queries: Vec<ExecQuery>,
}

impl ExecutionQueryPanel {
    /// Bind to the Execution instances returned by the Application panel.
    pub fn open(client: Arc<HttpClient>, executions: &[Gsh]) -> ExecutionQueryPanel {
        let executions = executions
            .iter()
            .map(|gsh| ExecutionStub::bind(Arc::clone(&client), gsh))
            .collect();
        ExecutionQueryPanel {
            client,
            executions,
            queries: Vec::new(),
        }
    }

    /// The bound executions.
    pub fn executions(&self) -> &[ExecutionStub] {
        &self.executions
    }

    /// Discovery helpers for building the query dropdowns.
    pub fn discover(&self, index: usize) -> Result<ExecutionVocabulary, OgsiError> {
        let e = &self.executions[index];
        Ok((
            e.get_metrics()?,
            e.get_foci()?,
            e.get_types()?,
            e.get_time_start_end()?,
        ))
    }

    /// Add a query tuple.
    pub fn add_query(&mut self, query: ExecQuery) {
        self.queries.push(query);
    }

    /// Clear the query table.
    pub fn clear_queries(&mut self) {
        self.queries.clear();
    }

    /// "Run Queries": for every (execution × query) pair, spawn a thread
    /// that calls `getPR` `repeats` times — the thesis's client threading
    /// model ("each query to an Execution was made in a separate thread",
    /// §6.5). Returns results in execution order plus wall-clock timing.
    pub fn run_queries(&self) -> Result<(Vec<PrResult>, QueryTiming), OgsiError> {
        let start = Instant::now();
        let mut results: Vec<Option<PrResult>> = Vec::new();
        results.resize_with(self.executions.len() * self.queries.len(), || None);
        let mut calls = 0usize;

        std::thread::scope(|scope| -> Result<(), OgsiError> {
            let mut handles = Vec::new();
            for (qi, q) in self.queries.iter().enumerate() {
                for (ei, exec) in self.executions.iter().enumerate() {
                    calls += q.repeats;
                    let exec = exec.clone();
                    let query = q.query.clone();
                    let repeats = q.repeats.max(1);
                    handles.push((
                        qi * self.executions.len() + ei,
                        scope.spawn(move || -> Result<PrResult, OgsiError> {
                            let mut rows = Vec::new();
                            for _ in 0..repeats {
                                rows = exec.get_pr(&query)?;
                            }
                            Ok(PrResult {
                                execution: exec.handle().clone(),
                                rows,
                            })
                        }),
                    ));
                }
            }
            for (slot, handle) in handles {
                let result = handle.join().expect("query thread panicked")?;
                results[slot] = Some(result);
            }
            Ok(())
        })?;

        Ok((
            results
                .into_iter()
                .map(|r| r.expect("all slots filled"))
                .collect(),
            QueryTiming {
                total: start.elapsed(),
                calls,
            },
        ))
    }

    /// "Run Queries", streaming: every `(execution × query)` pair runs as an
    /// incremental `getPR` stream, handing each frame's rows to `on_rows` as
    /// they arrive — client memory stays bounded by one frame however large
    /// the result sets are, which is what lets the visualizer page through
    /// scans that would never fit in a buffered `run_queries` answer.
    ///
    /// `on_rows` receives the producing Execution's handle alongside each
    /// batch; returning `false` abandons that stream at the frame boundary
    /// (the remaining pairs still run). Each pair rides a one-entry batch
    /// stream; sites that do not batch-stream and `PPG_FORCE_XML=1`
    /// transparently fall back to the buffered wire — the outcome's `wire`
    /// says which path carried the rows. A stream that dies mid-scan
    /// surfaces as `truncated` with its delivered rows already consumed;
    /// `repeats` is a buffered-benchmark knob and is ignored here (each
    /// pair streams once).
    pub fn run_queries_streaming(
        &self,
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(&Gsh, Vec<String>) -> bool,
    ) -> Result<(Vec<StreamRunResult>, QueryTiming), OgsiError> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(self.executions.len() * self.queries.len());
        let mut calls = 0usize;
        for q in &self.queries {
            for exec in &self.executions {
                calls += 1;
                let execution = exec.handle().clone();
                let mut sink = |rows: Vec<String>| on_rows(&execution, rows);
                match exec.get_pr_stream(&q.query, ctx, &mut sink) {
                    Ok(outcome) => out.push(StreamRunResult {
                        execution,
                        rows: outcome.rows,
                        wire: outcome.wire,
                        truncated: false,
                        cancelled: outcome.cancelled,
                    }),
                    Err(OgsiError::StreamTruncated { rows, .. }) => out.push(StreamRunResult {
                        execution,
                        rows,
                        wire: StreamWire::Stream,
                        truncated: true,
                        cancelled: false,
                    }),
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((
            out,
            QueryTiming {
                total: start.elapsed(),
                calls,
            },
        ))
    }

    /// The shared HTTP client.
    pub fn client(&self) -> Arc<HttpClient> {
        Arc::clone(&self.client)
    }
}
