//! The traced run's span recorder, and the Mapping Layer decorator that
//! feeds it from inside the deployed sites.
//!
//! Spans are recorded only at the boundaries the benchmark itself calls
//! (client query, plan, wrapper scan, microcalls); they stay in memory and
//! are written out once the run ends. Server-side scans join their query
//! through the request id of the [`ppg_context::CallContext`] the container
//! scopes around each call.

use pperfgrid::{ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; wrapper scans are parented to their
    /// query's span by request id when the run ends.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Site label for scans, empty elsewhere.
    pub site: &'static str,
    pub request_id: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time a streamed scan spent blocked in the transport's sink (window
    /// backpressure), which is not Mapping Layer work.
    pub sink_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Mapping Layer time of a scan: its duration minus sink waits.
    pub fn work_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.sink_ns)
    }
}

/// In-memory span store shared by the client loop and every site.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span that began at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, parent: Option<u64>, request_id: &str, start_ns: u64) {
        self.push(Span {
            id: self.next_id(),
            parent,
            name,
            site: "",
            request_id: request_id.to_owned(),
            start_ns,
            end_ns: self.now_ns(),
            sink_ns: 0,
        });
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Take every span recorded so far, parenting each orphan to the
    /// client query span that carries the same request id.
    pub fn drain(&self, query_span: &'static str) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        let roots: HashMap<String, u64> = spans
            .iter()
            .filter(|s| s.name == query_span)
            .map(|s| (s.request_id.clone(), s.id))
            .collect();
        for span in spans.iter_mut().filter(|s| s.parent.is_none()) {
            if span.name != query_span {
                span.parent = roots.get(&span.request_id).copied();
            }
        }
        spans
    }
}

/// Write spans as JSON lines (one object per span).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"site\":\"{}\",\"request_id\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"sink_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.site,
            s.request_id,
            s.start_ns,
            s.end_ns,
            s.sink_ns
        )?;
    }
    out.flush()
}

/// Total length of the union of `[start, end)` intervals.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Span name of one wrapper scan.
pub const SCAN: &str = "pperfgrid.scan";

/// An [`ApplicationWrapper`] decorator whose executions record a scan span
/// on every Mapping Layer entry point — `get_pr`, `get_pr_batch` and
/// `get_pr_stream` — and forward each to the wrapped execution unchanged,
/// so a native streaming scan stays native.
pub struct TracedApp {
    inner: Arc<dyn ApplicationWrapper>,
    site: &'static str,
    recorder: Arc<Recorder>,
}

impl TracedApp {
    pub fn new(
        inner: Arc<dyn ApplicationWrapper>,
        site: &'static str,
        recorder: Arc<Recorder>,
    ) -> TracedApp {
        TracedApp {
            inner,
            site,
            recorder,
        }
    }
}

impl ApplicationWrapper for TracedApp {
    fn app_info(&self) -> Vec<(String, String)> {
        self.inner.app_info()
    }

    fn num_execs(&self) -> usize {
        self.inner.num_execs()
    }

    fn exec_query_params(&self) -> Vec<(String, Vec<String>)> {
        self.inner.exec_query_params()
    }

    fn all_exec_ids(&self) -> Vec<String> {
        self.inner.all_exec_ids()
    }

    fn exec_ids_matching(&self, attribute: &str, value: &str) -> Result<Vec<String>, WrapperError> {
        self.inner.exec_ids_matching(attribute, value)
    }

    fn execution(&self, exec_id: &str) -> Result<Arc<dyn ExecutionWrapper>, WrapperError> {
        Ok(Arc::new(TracedExec {
            inner: self.inner.execution(exec_id)?,
            site: self.site,
            recorder: Arc::clone(&self.recorder),
        }))
    }
}

struct TracedExec {
    inner: Arc<dyn ExecutionWrapper>,
    site: &'static str,
    recorder: Arc<Recorder>,
}

impl TracedExec {
    fn record(&self, start_ns: u64, sink_ns: u64) {
        let request_id = ppg_context::current()
            .map(|ctx| ctx.request_id().to_owned())
            .unwrap_or_default();
        self.recorder.push(Span {
            id: self.recorder.next_id(),
            parent: None,
            name: SCAN,
            site: self.site,
            request_id,
            start_ns,
            end_ns: self.recorder.now_ns(),
            sink_ns,
        });
    }
}

impl ExecutionWrapper for TracedExec {
    fn info(&self) -> Vec<(String, String)> {
        self.inner.info()
    }

    fn foci(&self) -> Vec<String> {
        self.inner.foci()
    }

    fn metrics(&self) -> Vec<String> {
        self.inner.metrics()
    }

    fn types(&self) -> Vec<String> {
        self.inner.types()
    }

    fn time_start_end(&self) -> (String, String) {
        self.inner.time_start_end()
    }

    fn get_pr(&self, query: &PrQuery) -> Result<Vec<String>, WrapperError> {
        let start = self.recorder.now_ns();
        let result = self.inner.get_pr(query);
        self.record(start, 0);
        result
    }

    fn get_pr_batch(&self, queries: &[PrQuery]) -> Vec<Result<Vec<String>, WrapperError>> {
        let start = self.recorder.now_ns();
        let results = self.inner.get_pr_batch(queries);
        self.record(start, 0);
        results
    }

    fn get_pr_stream(
        &self,
        query: &PrQuery,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), WrapperError>,
    ) -> Result<u64, WrapperError> {
        let start = self.recorder.now_ns();
        let mut sink_ns = 0u64;
        let mut timed_sink = |rows: Vec<String>| {
            let entered = Instant::now();
            let result = sink(rows);
            sink_ns += entered.elapsed().as_nanos() as u64;
            result
        };
        let result = self.inner.get_pr_stream(query, &mut timed_sink);
        self.record(start, sink_ns);
        result
    }
}
