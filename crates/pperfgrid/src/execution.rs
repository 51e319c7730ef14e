//! The Execution semantic object as a Grid service (thesis Table 2 and
//! §5.3.2), its factory, and the typed client stub.

use crate::prcache::{CachePolicy, PrCache};
use crate::wrapper::{
    ApplicationWrapper, ExecutionWrapper, PrQuery, WrapperError, STREAM_BATCH_ROWS,
};
use crate::{EXECUTION_NS, TYPE_UNDEFINED};
use pperf_httpd::HttpClient;
use pperf_ogsi::{
    BatchStreamEntryOutcome, Factory, Gsh, OgsiError, ServiceData, ServicePort, ServiceStub,
};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{BatchEntry, Call, Fault, Value, ValueType};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Execution PortType description (thesis Table 2, verbatim semantics).
pub fn execution_description() -> ServiceDescription {
    ServiceDescription::new("PPerfGridExecution", EXECUTION_NS).with_port_type(PortType::new(
        "Execution",
        vec![
            Operation::new(
                "getInfo",
                vec![],
                ValueType::StrArray,
                "Returns general information about the Execution; elements are \
                 name|value pairs",
            ),
            Operation::new(
                "getFoci",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique focus values (resource-hierarchy nodes, \
                 e.g. /Process/27 or /Code/MPI/MPI_Comm_rank)",
            ),
            Operation::new(
                "getMetrics",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique metric values (e.g. func_calls, \
                 msg_deliv_time)",
            ),
            Operation::new(
                "getTypes",
                vec![],
                ValueType::StrArray,
                "Returns all possible unique type values (the performance tool used \
                 to collect the data)",
            ),
            Operation::new(
                "getTimeStartEnd",
                vec![],
                ValueType::StrArray,
                "Returns [start, end] times of the Execution",
            ),
            Operation::new(
                "getPR",
                vec![
                    ("metric", ValueType::Str),
                    ("foci", ValueType::StrArray),
                    ("startTime", ValueType::Str),
                    ("endTime", ValueType::Str),
                    ("type", ValueType::Str),
                ],
                ValueType::StrArray,
                "Returns Performance Results meeting the criteria",
            ),
        ],
    ))
}

/// A transient, stateful Execution Grid service instance.
///
/// State: the execution id it represents, the mapping-layer wrapper it
/// queries, and its Performance Results cache (§5.3.2.3).
pub struct ExecutionService {
    exec_id: String,
    wrapper: Arc<dyn ExecutionWrapper>,
    cache: PrCache,
    cache_enabled: bool,
}

impl ExecutionService {
    /// Wrap an execution wrapper as a service instance.
    pub fn new(exec_id: String, wrapper: Arc<dyn ExecutionWrapper>, cache_enabled: bool) -> Self {
        Self::with_cache(exec_id, wrapper, cache_enabled, PrCache::new())
    }

    /// Wrap with an explicitly configured cache (capacity / policy).
    pub fn with_cache(
        exec_id: String,
        wrapper: Arc<dyn ExecutionWrapper>,
        cache_enabled: bool,
        cache: PrCache,
    ) -> Self {
        ExecutionService {
            exec_id,
            wrapper,
            cache,
            cache_enabled,
        }
    }

    /// The execution id this instance represents.
    pub fn exec_id(&self) -> &str {
        &self.exec_id
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    fn get_pr(&self, call: &Call, ctx: Option<&CallContext>) -> Result<Value, Fault> {
        let query = pr_query_from_call(call)?;
        let started = Instant::now();
        if let Some(ctx) = ctx {
            if ctx.expired() {
                ctx.record_span(
                    "pperfgrid.execution",
                    "getPR",
                    &self.exec_id,
                    started,
                    "deadline-exceeded",
                );
                return Err(self.doomed_fault(ctx));
            }
        }
        let result = if self.cache_enabled {
            let key = query.cache_key();
            if let Some(rows) = self.cache.get(&key) {
                if let Some(ctx) = ctx {
                    ctx.record_span(
                        "pperfgrid.execution",
                        "getPR",
                        &self.exec_id,
                        started,
                        "ok-cached",
                    );
                }
                return Ok(Value::StrArray((*rows).clone()));
            }
            match self.wrapper.get_pr(&query) {
                // A caller that stopped waiting gets a typed fault, and the
                // rows (if the wrapper raced past the last check) do NOT
                // enter the cache: a doomed call must not evict live data.
                Ok(_) | Err(_) if ctx.is_some_and(|c| c.expired()) => {
                    Err(self.doomed_fault(ctx.expect("checked is_some")))
                }
                Ok(rows) => {
                    let shared = self.cache.insert(key, rows);
                    Ok(Value::StrArray((*shared).clone()))
                }
                Err(e) => Err(Fault::server(e.to_string())),
            }
        } else {
            match self.wrapper.get_pr(&query) {
                Ok(_) | Err(_) if ctx.is_some_and(|c| c.expired()) => {
                    Err(self.doomed_fault(ctx.expect("checked is_some")))
                }
                Ok(rows) => Ok(Value::StrArray(rows)),
                Err(e) => Err(Fault::server(e.to_string())),
            }
        };
        if let Some(ctx) = ctx {
            let tag = match &result {
                Ok(_) => "ok",
                Err(f) if f.is_deadline_exceeded() => "deadline-exceeded",
                Err(f) if f.is_cancelled() => "cancelled",
                Err(_) => "fault",
            };
            ctx.record_span("pperfgrid.execution", "getPR", &self.exec_id, started, tag);
        }
        result
    }

    /// The typed fault for a call whose context expired mid-flight.
    fn doomed_fault(&self, ctx: &CallContext) -> Fault {
        crate::context_fault(ctx, &format!("getPR on {}", self.exec_id))
    }

    /// Streaming `getPR`: rows reach `sink` in bounded batches as the
    /// mapping layer produces them, instead of one buffered array.
    ///
    /// Cache discipline mirrors the buffered path: a hit streams the cached
    /// rows (batch-wise, so the consumer's window still bounds in-flight
    /// bytes); a miss tees the streamed rows into the cache and commits them
    /// only at successful completion — a stream that faults, is abandoned by
    /// its consumer, or whose caller stopped waiting never enters the cache.
    fn stream_pr(
        &self,
        call: &Call,
        ctx: &CallContext,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> Result<u64, Fault> {
        let query = pr_query_from_call(call)?;
        let started = Instant::now();
        if ctx.expired() {
            ctx.record_span(
                "pperfgrid.execution",
                "getPR",
                &self.exec_id,
                started,
                "deadline-exceeded",
            );
            return Err(self.doomed_fault(ctx));
        }
        if self.cache_enabled {
            if let Some(rows) = self.cache.get(&query.cache_key()) {
                let total = rows.len() as u64;
                for chunk in rows.chunks(STREAM_BATCH_ROWS) {
                    if let Err(f) = sink(chunk.to_vec()) {
                        ctx.record_span(
                            "pperfgrid.execution",
                            "getPR",
                            &self.exec_id,
                            started,
                            "stream-aborted",
                        );
                        return Err(f);
                    }
                }
                ctx.record_span(
                    "pperfgrid.execution",
                    "getPR",
                    &self.exec_id,
                    started,
                    "ok-cached",
                );
                return Ok(total);
            }
        }
        let mut collected: Option<Vec<String>> = self.cache_enabled.then(Vec::new);
        let mut sink_fault: Option<Fault> = None;
        let result = {
            let collected = &mut collected;
            let sink_fault = &mut sink_fault;
            let mut wrapper_sink = |rows: Vec<String>| -> Result<(), WrapperError> {
                if let Some(buf) = collected.as_mut() {
                    buf.extend(rows.iter().cloned());
                }
                match sink(rows) {
                    Ok(()) => Ok(()),
                    Err(f) => {
                        let detail = f.string.clone();
                        *sink_fault = Some(f);
                        Err(WrapperError(format!("stream sink refused rows: {detail}")))
                    }
                }
            };
            self.wrapper.get_pr_stream(&query, &mut wrapper_sink)
        };
        let outcome = match result {
            // Doomed-call discipline, as in get_pr: rows produced after the
            // caller stopped waiting neither complete the stream nor enter
            // the cache.
            Ok(_) | Err(_) if ctx.expired() => Err(self.doomed_fault(ctx)),
            Ok(total) => {
                if let Some(rows) = collected {
                    self.cache.insert(query.cache_key(), rows);
                }
                Ok(total)
            }
            Err(e) => Err(match sink_fault {
                Some(f) => f,
                None => Fault::server(e.to_string()),
            }),
        };
        let tag = match &outcome {
            Ok(_) => "ok",
            Err(f) if f.is_deadline_exceeded() => "deadline-exceeded",
            Err(f) if f.is_cancelled() => "cancelled",
            Err(_) => "fault",
        };
        ctx.record_span("pperfgrid.execution", "getPR", &self.exec_id, started, tag);
        outcome
    }
}

/// Parse the standard `getPR` parameter set into a [`PrQuery`].
fn pr_query_from_call(call: &Call) -> Result<PrQuery, Fault> {
    Ok(PrQuery {
        metric: req_str(call, "metric")?,
        foci: call
            .param("foci")
            .and_then(Value::as_str_array)
            .map(<[String]>::to_vec)
            .unwrap_or_default(),
        start: call
            .param("startTime")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        end: call
            .param("endTime")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned(),
        rtype: call
            .param("type")
            .and_then(Value::as_str)
            .unwrap_or(TYPE_UNDEFINED)
            .to_owned(),
    })
}

fn req_str(call: &Call, name: &str) -> Result<String, Fault> {
    call.param(name)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| Fault::client(format!("missing string parameter {name:?}")))
}

/// Render `(name, value)` pairs in the `name|value` wire format of Tables
/// 1–2.
pub(crate) fn render_pairs(pairs: Vec<(String, String)>) -> Value {
    Value::StrArray(pairs.into_iter().map(|(n, v)| format!("{n}|{v}")).collect())
}

impl ServicePort for ExecutionService {
    fn description(&self) -> ServiceDescription {
        execution_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        match operation {
            "getInfo" => Ok(render_pairs(self.wrapper.info())),
            "getFoci" => Ok(Value::StrArray(self.wrapper.foci())),
            "getMetrics" => Ok(Value::StrArray(self.wrapper.metrics())),
            "getTypes" => Ok(Value::StrArray(self.wrapper.types())),
            "getTimeStartEnd" => {
                let (s, e) = self.wrapper.time_start_end();
                Ok(Value::StrArray(vec![s, e]))
            }
            "getPR" => self.get_pr(call, ppg_context::current().as_ref()),
            other => Err(Fault::client(format!(
                "unknown Execution operation {other:?}"
            ))),
        }
    }

    fn invoke_ctx(&self, operation: &str, call: &Call, ctx: &CallContext) -> Result<Value, Fault> {
        if operation == "getPR" {
            return self.get_pr(call, Some(ctx));
        }
        // The discovery operations are cheap, but refusing doomed work at
        // the boundary keeps the contract uniform across operations.
        if ctx.expired() {
            return Err(self.doomed_fault(ctx));
        }
        self.invoke(operation, call)
    }

    fn supports_stream(&self, operation: &str) -> bool {
        operation == "getPR"
    }

    fn invoke_stream(
        &self,
        operation: &str,
        call: &Call,
        ctx: &CallContext,
        sink: &mut dyn FnMut(Vec<String>) -> Result<(), Fault>,
    ) -> Result<u64, Fault> {
        if operation != "getPR" {
            return Err(Fault::client(format!(
                "operation {operation:?} has no streaming form"
            )));
        }
        self.stream_pr(call, ctx, sink)
    }

    fn service_data(&self) -> ServiceData {
        let (hits, misses) = self.cache.stats();
        let (start, end) = self.wrapper.time_start_end();
        // Metrics, foci, type, and time are exposed as service data elements
        // so clients can discover the query vocabulary through
        // `queryServiceDataXPath` — the extension the thesis sketches in §7.
        ServiceData::new()
            .with("execId", Value::Str(self.exec_id.clone()))
            .with("metrics", Value::StrArray(self.wrapper.metrics()))
            .with("foci", Value::StrArray(self.wrapper.foci()))
            .with("types", Value::StrArray(self.wrapper.types()))
            .with("timeStart", Value::Str(start))
            .with("timeEnd", Value::Str(end))
            .with("cacheEnabled", Value::Bool(self.cache_enabled))
            .with("cacheEntries", Value::Int(self.cache.len() as i64))
            .with("cacheHits", Value::Int(hits as i64))
            .with("cacheMisses", Value::Int(misses as i64))
    }
}

/// Factory creating Execution service instances for a site's data store.
///
/// `createService` takes `execId` (required) and `cacheEnabled` (optional,
/// default true) parameters.
pub struct ExecutionFactory {
    app_wrapper: Arc<dyn ApplicationWrapper>,
    default_cache_enabled: bool,
    cache_capacity: usize,
    cache_policy: CachePolicy,
}

impl ExecutionFactory {
    /// A factory over the given Application wrapper.
    pub fn new(app_wrapper: Arc<dyn ApplicationWrapper>) -> ExecutionFactory {
        ExecutionFactory {
            app_wrapper,
            default_cache_enabled: true,
            cache_capacity: 4096,
            cache_policy: CachePolicy::Fifo,
        }
    }

    /// Override the default caching behaviour of created instances.
    pub fn with_cache_default(mut self, enabled: bool) -> ExecutionFactory {
        self.default_cache_enabled = enabled;
        self
    }

    /// Override the cache geometry of created instances.
    pub fn with_cache_config(mut self, capacity: usize, policy: CachePolicy) -> ExecutionFactory {
        self.cache_capacity = capacity;
        self.cache_policy = policy;
        self
    }
}

impl Factory for ExecutionFactory {
    fn description(&self) -> ServiceDescription {
        execution_description()
    }

    fn create(&self, call: &Call) -> Result<Arc<dyn ServicePort>, Fault> {
        let exec_id = req_str(call, "execId")?;
        let cache_enabled = call
            .param("cacheEnabled")
            .and_then(Value::as_bool)
            .unwrap_or(self.default_cache_enabled);
        let wrapper = self
            .app_wrapper
            .execution(&exec_id)
            .map_err(|e| Fault::client(e.to_string()))?;
        Ok(Arc::new(ExecutionService::with_cache(
            exec_id,
            wrapper,
            cache_enabled,
            PrCache::with_policy(self.cache_capacity, self.cache_policy),
        )))
    }
}

/// Which wire actually carried an [`ExecutionStub::get_pr_stream`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamWire {
    /// Incremental PPGB frames: a one-entry `POST /ogsa/batch-stream`.
    Stream,
    /// The buffered call, because `PPG_FORCE_XML=1` pinned the old path.
    Buffered,
    /// The peer does not batch-stream (route missing, non-stream head,
    /// corrupt frame before any rows); the rows came from the transparent
    /// buffered re-send.
    StreamFallback,
}

/// Outcome of a completed [`ExecutionStub::get_pr_stream`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOutcome {
    /// Rows delivered to the consumer callback.
    pub rows: u64,
    /// Which wire carried them.
    pub wire: StreamWire,
    /// True when the consumer callback stopped the stream early at a frame
    /// boundary (its return was `false`); the rows delivered so far are
    /// valid but the stream was abandoned, not completed.
    pub cancelled: bool,
}

/// Typed client stub for the Execution PortType.
#[derive(Clone)]
pub struct ExecutionStub {
    stub: ServiceStub,
}

impl ExecutionStub {
    /// Bind to an Execution instance by handle.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> ExecutionStub {
        ExecutionStub {
            stub: ServiceStub::new(client, handle.clone()).with_namespace(EXECUTION_NS),
        }
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        self.stub.handle()
    }

    /// The untyped stub (for standard OGSI operations).
    pub fn stub(&self) -> &ServiceStub {
        &self.stub
    }

    /// `getInfo` as `(name, value)` pairs.
    pub fn get_info(&self) -> pperf_ogsi::Result<Vec<(String, String)>> {
        Ok(split_pairs(self.stub.call_str_array("getInfo", &[])?))
    }

    /// `getFoci`.
    pub fn get_foci(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getFoci", &[])
    }

    /// `getMetrics`.
    pub fn get_metrics(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getMetrics", &[])
    }

    /// `getTypes`.
    pub fn get_types(&self) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getTypes", &[])
    }

    /// `getTimeStartEnd` as `(start, end)`.
    pub fn get_time_start_end(&self) -> pperf_ogsi::Result<(String, String)> {
        let v = self.stub.call_str_array("getTimeStartEnd", &[])?;
        let mut it = v.into_iter();
        Ok((it.next().unwrap_or_default(), it.next().unwrap_or_default()))
    }

    /// `getPR`.
    pub fn get_pr(&self, query: &PrQuery) -> pperf_ogsi::Result<Vec<String>> {
        self.stub.call_str_array("getPR", &Self::pr_params(query))
    }

    /// `getPR` carrying an explicit call context (deadline, id, trace).
    pub fn get_pr_with_context(
        &self,
        query: &PrQuery,
        ctx: &CallContext,
    ) -> pperf_ogsi::Result<Vec<String>> {
        self.stub
            .call_str_array_with_context("getPR", &Self::pr_params(query), ctx)
    }

    /// `getPR` as an incremental row stream: the call rides a one-entry
    /// [`ServiceStub::call_batch_stream`], so frames decode into `on_rows`
    /// calls as they arrive and client memory stays bounded by one frame
    /// regardless of result size. `on_rows` returning `false` abandons the
    /// stream at that frame boundary.
    ///
    /// A peer that does not batch-stream gets a transparent buffered
    /// `getPR` re-send, and `PPG_FORCE_XML=1` pins the buffered call; the
    /// outcome names the wire that carried the rows. A stream that dies
    /// after delivering rows is not retried (the rows already reached
    /// `on_rows`) and surfaces as [`OgsiError::StreamTruncated`]; an
    /// in-band fault surfaces as the fault it carries.
    pub fn get_pr_stream(
        &self,
        query: &PrQuery,
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(Vec<String>) -> bool,
    ) -> pperf_ogsi::Result<StreamOutcome> {
        let params = Self::pr_params(query);
        if !pperf_ogsi::force_xml() {
            let entry = BatchEntry::new(self.handle().url().path, "getPR", EXECUTION_NS, &params);
            let streamed = self.stub.call_batch_stream(
                std::slice::from_ref(&entry),
                ctx,
                Duration::ZERO,
                &mut |_, rows| on_rows(rows),
            )?;
            let Some(streamed) = streamed else {
                return self.get_pr_buffered(&params, ctx, on_rows, StreamWire::StreamFallback);
            };
            let outcome = streamed
                .entries
                .into_iter()
                .next()
                .expect("a one-entry batch stream reports one outcome");
            return match outcome {
                BatchStreamEntryOutcome::Done { rows } => Ok(StreamOutcome {
                    rows,
                    wire: StreamWire::Stream,
                    cancelled: false,
                }),
                BatchStreamEntryOutcome::Fault(fault) => Err(OgsiError::Fault(fault)),
                BatchStreamEntryOutcome::Truncated { rows, .. } if streamed.cancelled => {
                    Ok(StreamOutcome {
                        rows,
                        wire: StreamWire::Stream,
                        cancelled: true,
                    })
                }
                BatchStreamEntryOutcome::Truncated { rows, detail } => {
                    Err(OgsiError::StreamTruncated { rows, detail })
                }
            };
        }
        self.get_pr_buffered(&params, ctx, on_rows, StreamWire::Buffered)
    }

    /// The buffered leg of [`ExecutionStub::get_pr_stream`]: one ordinary
    /// `getPR`, rows delivered to the callback in a single gulp. The result
    /// is already complete when the callback runs, so its cancel return is
    /// moot here.
    fn get_pr_buffered(
        &self,
        params: &[(&str, Value)],
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(Vec<String>) -> bool,
        wire: StreamWire,
    ) -> pperf_ogsi::Result<StreamOutcome> {
        let rows = self
            .stub
            .call_str_array_with_context("getPR", params, ctx)?;
        let total = rows.len() as u64;
        if !rows.is_empty() {
            let _ = on_rows(rows);
        }
        Ok(StreamOutcome {
            rows: total,
            wire,
            cancelled: false,
        })
    }

    /// The wire parameter set for a `getPR` call. Public so batching layers
    /// (the gateway's per-site multi-call) marshal *exactly* the parameters
    /// the per-call path uses, instead of re-deriving them.
    pub fn pr_params(query: &PrQuery) -> [(&'static str, Value); 5] {
        [
            ("metric", Value::from(query.metric.as_str())),
            ("foci", Value::StrArray(query.foci.clone())),
            ("startTime", Value::from(query.start.as_str())),
            ("endTime", Value::from(query.end.as_str())),
            ("type", Value::from(query.rtype.as_str())),
        ]
    }
}

/// Split `name|value` strings back into pairs.
pub(crate) fn split_pairs(rows: Vec<String>) -> Vec<(String, String)> {
    rows.into_iter()
        .map(|row| match row.split_once('|') {
            Some((n, v)) => (n.to_owned(), v.to_owned()),
            None => (row, String::new()),
        })
        .collect()
}
