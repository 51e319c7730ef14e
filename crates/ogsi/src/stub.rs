//! Dynamic client-side stubs — the runtime equivalent of the generated stub
//! classes GT3.2/Axis produced from WSDL (thesis §4.5: "A client's interface
//! to a Grid service, therefore, is a local stub and its associated
//! architecture adapter modules").

use crate::error::{OgsiError, Result};
use crate::gsh::Gsh;
use pperf_httpd::{HttpClient, HttpError, Request, Response, Url};
use pperf_soap::wsdl::ServiceDescription;
use pperf_soap::{
    decode_batch_response, decode_binary_batch_response, decode_response, encode_batch_call,
    encode_binary_batch_call, encode_call, encode_call_with_context, BatchEntry, BatchOutcome,
    BatchStreamEvent, BatchStreamReader, Fault, SoapError, Value, WireError, BINARY_CONTENT_TYPE,
    STREAM_CONTENT_TYPE,
};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Instant;

/// Did the server answer in the PPGB binary codec? 200 carries outcomes,
/// 500 a whole-batch fault frame; any other status is transport-level.
fn is_binary_response(response: &Response) -> bool {
    (response.status.is_success() || response.status.0 == 500)
        && response
            .headers
            .get("Content-Type")
            .is_some_and(|ct| ct.starts_with(BINARY_CONTENT_TYPE))
}

/// Span outcome tag for a whole-batch fault.
fn fault_tag(fault: &Fault) -> &'static str {
    if fault.is_deadline_exceeded() {
        "deadline-exceeded"
    } else if fault.is_cancelled() {
        "cancelled"
    } else {
        "fault"
    }
}

/// Whether `PPG_FORCE_XML=1` pins every exchange to the XML wires: the
/// operational escape hatch, and how CI proves the wires agree.
pub fn force_xml() -> bool {
    std::env::var("PPG_FORCE_XML").is_ok_and(|v| v == "1")
}

/// Service-data element naming the newest data-plane [`Wire`] a site
/// speaks, as an integer version.
pub const WIRE_VERSION_SDE: &str = "wireVersion";

/// The data-plane wires, in negotiation order. A site advertises the newest
/// one it speaks as its [`WIRE_VERSION_SDE`] service data; each version adds
/// one wire on top of every older one, so a client can step down a rung at
/// a time when a peer turns out older than it claimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wire {
    /// Version 0: per-call SOAP `getPR`, the paper's wire.
    PerCall,
    /// Version 1: XML `multiCall` batches on `POST /ogsa/batch`.
    XmlBatch,
    /// Version 2: PPGB binary batches on `POST /ogsa/binary`.
    BinaryBatch,
    /// Version 3: interleaved batch streams on `POST /ogsa/batch-stream`.
    BatchStream,
}

impl Wire {
    /// The newest wire, which sites of this release advertise by default.
    pub const LATEST: Wire = Wire::BatchStream;

    /// The wire a `wireVersion` value names. Zero or below is per-call
    /// SOAP; versions newer than this release clamp to [`Wire::LATEST`].
    pub fn from_version(version: i64) -> Wire {
        match version {
            i64::MIN..=0 => Wire::PerCall,
            1 => Wire::XmlBatch,
            2 => Wire::BinaryBatch,
            _ => Wire::BatchStream,
        }
    }

    /// This wire's `wireVersion` number.
    pub fn version(self) -> i64 {
        self as i64
    }

    /// The next older batch wire: where a batch goes when the peer turns
    /// out not to speak this one. Every container serves the XML batch, so
    /// it is the floor.
    pub fn step_down(self) -> Wire {
        match self {
            Wire::BatchStream => Wire::BinaryBatch,
            Wire::BinaryBatch | Wire::XmlBatch => Wire::XmlBatch,
            Wire::PerCall => Wire::PerCall,
        }
    }
}

/// How one entry of a [`ServiceStub::call_batch_stream`] ended.
#[derive(Debug, Clone)]
pub enum BatchStreamEntryOutcome {
    /// The entry sealed cleanly with its trailer after delivering `rows`.
    Done {
        /// Rows the entry's data frames carried (trailer-verified).
        rows: u64,
    },
    /// The entry sealed with an in-band fault frame. Sibling entries are
    /// unaffected — this is the streaming twin of a per-entry batch fault.
    Fault(Fault),
    /// The stream died (EOF, transport error, consumer cancel) before this
    /// entry's trailer. The `rows` delivered so far reached the sink and
    /// stand, but the entry is incomplete and must not be cached whole.
    Truncated {
        /// Rows delivered before the stream died.
        rows: u64,
        /// What killed the stream.
        detail: String,
    },
}

/// Result of a [`ServiceStub::call_batch_stream`] that got a real batch
/// stream (the peer spoke the codec), whatever the per-entry outcomes.
#[derive(Debug, Clone)]
pub struct BatchStreamResult {
    /// Per-entry outcomes, in request order.
    pub entries: Vec<BatchStreamEntryOutcome>,
    /// True when the consumer callback stopped the stream early (returned
    /// `false`); unfinished entries are reported as truncated.
    pub cancelled: bool,
}

/// Refuse to send when `ctx`'s budget is already spent (deadline or
/// cancel), recording the refusal as this hop's span.
fn check_budget(ctx: &CallContext, operation: &str, site: &str, started: Instant) -> Result<()> {
    if !ctx.expired() {
        return Ok(());
    }
    let outcome = if ctx.cancelled() {
        "cancelled-before-send"
    } else {
        "deadline-exceeded-before-send"
    };
    ctx.record_span("ogsi.stub", operation, site, started, outcome);
    Err(OgsiError::DeadlineExceeded(format!(
        "{operation} on {site}: budget exhausted before send"
    )))
}

/// Fill every entry slot a dead batch stream left unsealed with a
/// [`BatchStreamEntryOutcome::Truncated`] carrying the rows that did arrive.
fn seal_unfinished(
    outcomes: Vec<Option<BatchStreamEntryOutcome>>,
    delivered: &[u64],
    detail: &str,
) -> Vec<BatchStreamEntryOutcome> {
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            outcome.unwrap_or_else(|| BatchStreamEntryOutcome::Truncated {
                rows: delivered[i],
                detail: detail.to_owned(),
            })
        })
        .collect()
}

/// An untyped stub bound to one Grid service (or service instance).
///
/// The stub is the client half of the architecture adapter: `call` marshals
/// the invocation into a SOAP document, POSTs it, and demarshals the response
/// or fault.
#[derive(Clone)]
pub struct ServiceStub {
    client: Arc<HttpClient>,
    handle: Gsh,
    url: Url,
    namespace: String,
}

impl ServiceStub {
    /// Bind a stub to a handle, sharing an HTTP client (connection pool).
    pub fn new(client: Arc<HttpClient>, handle: Gsh) -> ServiceStub {
        let url = handle.url();
        ServiceStub {
            client,
            handle,
            url,
            namespace: crate::OGSI_NS.to_owned(),
        }
    }

    /// Use a specific call namespace instead of the OGSI default.
    pub fn with_namespace(mut self, ns: impl Into<String>) -> ServiceStub {
        self.namespace = ns.into();
        self
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        &self.handle
    }

    /// Invoke `operation` with the given parameters.
    ///
    /// When a [`CallContext`] is scoped on this thread (see
    /// [`ppg_context::scope`]) it is forwarded automatically, so a service
    /// handler's outbound calls inherit the inbound request's deadline and
    /// id without every call site changing.
    pub fn call(&self, operation: &str, params: &[(&str, Value)]) -> Result<Value> {
        match ppg_context::current() {
            Some(ctx) => self.call_with_context(operation, params, &ctx),
            None => self.call_plain(operation, params),
        }
    }

    /// Invoke `operation`, carrying `ctx` on the wire: the context rides as
    /// `X-PPG-*` HTTP headers plus a SOAP header block, the exchange is
    /// bounded by the context's deadline, and the hop is recorded as a span
    /// (with the server's own spans, returned via `X-PPG-Trace`, merged in
    /// ahead of it).
    pub fn call_with_context(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
    ) -> Result<Value> {
        let started = Instant::now();
        let site = self.url.authority();
        check_budget(ctx, operation, &site, started)?;
        let body = encode_call_with_context(operation, &self.namespace, params, ctx);
        let mut request = Request::post(
            self.url.path.clone(),
            "text/xml; charset=utf-8",
            body.into_bytes(),
        );
        self.set_context_headers(&mut request, ctx);
        let response = match self
            .client
            .send_with_deadline(&self.url, &request, ctx.deadline())
        {
            Ok(response) => response,
            Err(HttpError::TimedOut) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "deadline-exceeded");
                return Err(OgsiError::DeadlineExceeded(format!(
                    "{operation} on {site}: no response within budget"
                )));
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "transport-error");
                return Err(OgsiError::Transport(e));
            }
        };
        // Merge the server's spans before recording this hop's, so remote
        // spans precede the stub span that awaited them.
        if let Some(trace) = response.headers.get(ppg_context::TRACE_HEADER) {
            ctx.extend_spans(ppg_context::decode_trace(trace));
        }
        if !response.status.is_success() && response.status.0 != 500 {
            // 500 carries a SOAP fault body; anything else is transport-level.
            ctx.record_span("ogsi.stub", operation, &site, started, "http-error");
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        match decode_response(&response.body_str()) {
            Ok(v) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "ok");
                Ok(v)
            }
            Err(SoapError::Fault(f)) => {
                ctx.record_span("ogsi.stub", operation, &site, started, fault_tag(&f));
                Err(OgsiError::Fault(f))
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", operation, &site, started, "soap-error");
                Err(OgsiError::Soap(e))
            }
        }
    }

    /// The context-free invoke path: no headers, no deadline, no spans.
    fn call_plain(&self, operation: &str, params: &[(&str, Value)]) -> Result<Value> {
        let body = encode_call(operation, &self.namespace, params);
        let request = Request::post(
            self.url.path.clone(),
            "text/xml; charset=utf-8",
            body.into_bytes(),
        );
        let response = self.client.send(&self.url, &request)?;
        if !response.status.is_success() && response.status.0 != 500 {
            // 500 carries a SOAP fault body; anything else is transport-level.
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        match decode_response(&response.body_str()) {
            Ok(v) => Ok(v),
            Err(SoapError::Fault(f)) => Err(OgsiError::Fault(f)),
            Err(e) => Err(OgsiError::Soap(e)),
        }
    }

    /// Convenience: invoke and coerce the result to a string array (the
    /// dominant return type in the PPerfGrid PortTypes).
    pub fn call_str_array(&self, operation: &str, params: &[(&str, Value)]) -> Result<Vec<String>> {
        let v = self.call(operation, params)?;
        v.into_str_array().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-array"
            )))
        })
    }

    /// Convenience: [`ServiceStub::call_with_context`] coerced to a string
    /// array.
    pub fn call_str_array_with_context(
        &self,
        operation: &str,
        params: &[(&str, Value)],
        ctx: &CallContext,
    ) -> Result<Vec<String>> {
        let v = self.call_with_context(operation, params, ctx)?;
        v.into_str_array().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-array"
            )))
        })
    }

    /// Convenience: invoke and coerce the result to an integer.
    pub fn call_int(&self, operation: &str, params: &[(&str, Value)]) -> Result<i64> {
        let v = self.call(operation, params)?;
        v.as_int().ok_or_else(|| {
            OgsiError::Soap(SoapError::Envelope(format!(
                "{operation} returned a non-integer"
            )))
        })
    }

    /// Invoke a multi-call batch against the container hosting this stub's
    /// service: N sub-calls (each naming its own target path) ride one HTTP
    /// exchange to `POST /ogsa/batch` as a SOAP `multiCall` envelope.
    /// Returns per-entry outcomes in request order. Transport failures and
    /// whole-batch refusals are this call's error; per-entry faults are
    /// each entry's own.
    pub fn call_batch(
        &self,
        entries: &[BatchEntry],
        ctx: &CallContext,
    ) -> Result<Vec<BatchOutcome>> {
        let started = Instant::now();
        let site = self.url.authority();
        check_budget(ctx, "multiCall", &site, started)?;
        let body = encode_batch_call(entries, Some(ctx));
        let response = self.send_to(
            "/ogsa/batch",
            "text/xml; charset=utf-8",
            body.into_bytes(),
            ctx,
            started,
        )?;
        if !response.status.is_success() && response.status.0 != 500 {
            ctx.record_span("ogsi.stub", "multiCall", &site, started, "http-error");
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        match decode_batch_response(&response.body_str()) {
            Ok(outcomes) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, "ok");
                Ok(outcomes)
            }
            Err(SoapError::Fault(f)) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, fault_tag(&f));
                Err(OgsiError::Fault(f))
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, "soap-error");
                Err(OgsiError::Soap(e))
            }
        }
    }

    /// [`ServiceStub::call_batch`] over the PPGB binary codec: one
    /// length-prefixed frame each way on `POST /ogsa/binary`.
    ///
    /// `Ok(None)` means "this peer does not speak PPGB" — a 404 from a site
    /// that predates the codec, a non-binary answer, or a corrupt frame.
    /// The caller steps down to the XML batch, which surfaces any real
    /// fault; batch traffic is `getPR`-style reads, so the re-send cannot
    /// double-execute anything destructive.
    pub fn call_batch_binary(
        &self,
        entries: &[BatchEntry],
        ctx: &CallContext,
    ) -> Result<Option<Vec<BatchOutcome>>> {
        let started = Instant::now();
        let site = self.url.authority();
        check_budget(ctx, "multiCall", &site, started)?;
        let frame = encode_binary_batch_call(entries, Some(ctx));
        let response = self.send_to("/ogsa/binary", BINARY_CONTENT_TYPE, frame, ctx, started)?;
        if !is_binary_response(&response) {
            ctx.record_span("ogsi.stub", "multiCall", &site, started, "binary-downgrade");
            return Ok(None);
        }
        match decode_binary_batch_response(&response.body) {
            Ok(outcomes) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, "ok");
                Ok(Some(outcomes))
            }
            Err(WireError::Fault(f)) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, fault_tag(&f));
                Err(OgsiError::Fault(f))
            }
            Err(_) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, "binary-corrupt");
                Ok(None)
            }
        }
    }

    /// POST one buffered batch body to `path` on this stub's container
    /// under `ctx`'s deadline, merging the server's `X-PPG-Trace` spans.
    fn send_to(
        &self,
        path: &str,
        content_type: &str,
        body: Vec<u8>,
        ctx: &CallContext,
        started: Instant,
    ) -> Result<Response> {
        let site = self.url.authority();
        let mut url = self.url.clone();
        url.path = path.to_owned();
        let mut request = Request::post(path, content_type, body);
        self.set_context_headers(&mut request, ctx);
        let response = match self
            .client
            .send_with_deadline(&url, &request, ctx.deadline())
        {
            Ok(response) => response,
            Err(HttpError::TimedOut) => {
                ctx.record_span(
                    "ogsi.stub",
                    "multiCall",
                    &site,
                    started,
                    "deadline-exceeded",
                );
                return Err(OgsiError::DeadlineExceeded(format!(
                    "multiCall on {site}: no response within budget"
                )));
            }
            Err(e) => {
                ctx.record_span("ogsi.stub", "multiCall", &site, started, "transport-error");
                return Err(OgsiError::Transport(e));
            }
        };
        if let Some(trace) = response.headers.get(ppg_context::TRACE_HEADER) {
            ctx.extend_spans(ppg_context::decode_trace(trace));
        }
        Ok(response)
    }

    /// Invoke a multi-call batch whose results stream back as *interleaved*
    /// PPGB sections from `POST /ogsa/batch-stream`: each entry's rows are
    /// handed to `on_rows(entry_index, rows)` as its frames decode, in
    /// whatever order the server's parallel producers yield them — a 2-call
    /// federated fan-out streams end to end in one exchange per site.
    ///
    /// `Ok(None)` means "this peer does not batch-stream" (404 from a site
    /// below wire version 3, a non-stream head, or a corrupt frame before
    /// any rows flowed): the caller should fall back to the buffered batch
    /// and remember the peer. After rows have been delivered the attempt is
    /// never retried — a dead stream surfaces as per-entry
    /// [`BatchStreamEntryOutcome::Truncated`] outcomes inside `Ok(Some)`,
    /// and sibling entries that already sealed keep their real outcomes.
    /// `on_rows` returning `false` abandons the stream at that frame
    /// boundary and sets `cancelled` on the result.
    ///
    /// `Err` is reserved for failures before any rows were delivered
    /// (budget spent before send, transport death on the request, a
    /// whole-batch fault frame).
    pub fn call_batch_stream(
        &self,
        entries: &[BatchEntry],
        ctx: &CallContext,
        on_rows: &mut dyn FnMut(usize, Vec<String>) -> bool,
    ) -> Result<Option<BatchStreamResult>> {
        let started = Instant::now();
        let site = self.url.authority();
        check_budget(ctx, "multiCallStream", &site, started)?;
        let frame = encode_binary_batch_call(entries, Some(ctx));
        let mut url = self.url.clone();
        url.path = "/ogsa/batch-stream".to_owned();
        let mut request = Request::post(url.path.clone(), BINARY_CONTENT_TYPE, frame);
        request.headers.set("Accept", STREAM_CONTENT_TYPE);
        self.set_context_headers(&mut request, ctx);
        let mut stream = match self.client.send_streaming(&url, &request, ctx.deadline()) {
            Ok(stream) => stream,
            Err(HttpError::TimedOut) => {
                ctx.record_span(
                    "ogsi.stub",
                    "multiCallStream",
                    &site,
                    started,
                    "deadline-exceeded",
                );
                return Err(OgsiError::DeadlineExceeded(format!(
                    "multiCallStream on {site}: no stream head within budget"
                )));
            }
            Err(e) => {
                ctx.record_span(
                    "ogsi.stub",
                    "multiCallStream",
                    &site,
                    started,
                    "transport-error",
                );
                return Err(OgsiError::Transport(e));
            }
        };
        if let Some(trace) = stream.headers.get(ppg_context::TRACE_HEADER) {
            ctx.extend_spans(ppg_context::decode_trace(trace));
        }
        let is_stream = stream.status.is_success()
            && stream
                .content_type()
                .is_some_and(|ct| ct.starts_with(STREAM_CONTENT_TYPE));
        if !is_stream {
            // A site below wire version 3: 404 (route absent) or a
            // buffered answer. Fall back to the buffered batch, which will
            // surface any real fault.
            ctx.record_span(
                "ogsi.stub",
                "multiCallStream",
                &site,
                started,
                "batch-stream-downgrade",
            );
            return Ok(None);
        }
        let mut reader = BatchStreamReader::new();
        let mut outcomes: Vec<Option<BatchStreamEntryOutcome>> = vec![None; entries.len()];
        let mut delivered: Vec<u64> = vec![0; entries.len()];
        let mut total_delivered = 0u64;
        let mut buf = [0u8; 8192];
        loop {
            loop {
                match reader.next_event() {
                    Ok(Some(BatchStreamEvent::Begin { entries: declared })) => {
                        if declared as usize != entries.len() {
                            // The head must echo our arity; anything else is
                            // a broken peer. No rows flowed yet (the head is
                            // the first frame), so the buffered re-send is
                            // safe.
                            ctx.record_span(
                                "ogsi.stub",
                                "multiCallStream",
                                &site,
                                started,
                                "batch-stream-corrupt",
                            );
                            return Ok(None);
                        }
                    }
                    Ok(Some(BatchStreamEvent::EntryOpen { .. })) => {}
                    Ok(Some(BatchStreamEvent::EntryRows { entry, rows })) => {
                        let index = entry as usize;
                        delivered[index] += rows.len() as u64;
                        total_delivered += rows.len() as u64;
                        if !on_rows(index, rows) {
                            // Frame-boundary cancel: abandon the stream.
                            // Dropping it drops the connection, which the
                            // producers observe as consumer death.
                            ctx.record_span(
                                "ogsi.stub",
                                "multiCallStream",
                                &site,
                                started,
                                "stream-cancelled",
                            );
                            return Ok(Some(BatchStreamResult {
                                entries: seal_unfinished(
                                    outcomes,
                                    &delivered,
                                    "stream abandoned by consumer",
                                ),
                                cancelled: true,
                            }));
                        }
                    }
                    Ok(Some(BatchStreamEvent::EntryEnd { entry, rows })) => {
                        // A sole entry's trailer carries the producer's
                        // spans; merge them ahead of this hop's own span.
                        let trace = reader.entry_trace(entry);
                        if !trace.is_empty() {
                            ctx.extend_spans(ppg_context::decode_trace(trace));
                        }
                        outcomes[entry as usize] = Some(BatchStreamEntryOutcome::Done { rows });
                    }
                    Ok(Some(BatchStreamEvent::EntryFault { entry, fault })) => {
                        outcomes[entry as usize] = Some(BatchStreamEntryOutcome::Fault(fault));
                    }
                    Ok(None) => break,
                    Err(WireError::Fault(f)) => {
                        // An untagged kind-3 frame is a whole-batch refusal
                        // (budget spent on arrival); the server sends it
                        // before any entry opens.
                        ctx.record_span(
                            "ogsi.stub",
                            "multiCallStream",
                            &site,
                            started,
                            fault_tag(&f),
                        );
                        return Err(OgsiError::Fault(f));
                    }
                    Err(_) if total_delivered == 0 => {
                        ctx.record_span(
                            "ogsi.stub",
                            "multiCallStream",
                            &site,
                            started,
                            "batch-stream-corrupt",
                        );
                        return Ok(None);
                    }
                    Err(e) => {
                        ctx.record_span(
                            "ogsi.stub",
                            "multiCallStream",
                            &site,
                            started,
                            "stream-truncated",
                        );
                        return Ok(Some(BatchStreamResult {
                            entries: seal_unfinished(outcomes, &delivered, &e.to_string()),
                            cancelled: false,
                        }));
                    }
                }
            }
            if reader.finished() {
                // Every declared entry sealed. Drain the transport epilogue
                // so the connection can be checked back into the pool.
                while matches!(stream.read_data(&mut buf), Ok(n) if n > 0) {}
                let sealed: Vec<BatchStreamEntryOutcome> = outcomes
                    .into_iter()
                    .map(|o| o.expect("finished batch stream sealed every entry"))
                    .collect();
                let tag = if sealed
                    .iter()
                    .all(|o| matches!(o, BatchStreamEntryOutcome::Done { .. }))
                {
                    "ok"
                } else {
                    "partial"
                };
                ctx.record_span("ogsi.stub", "multiCallStream", &site, started, tag);
                return Ok(Some(BatchStreamResult {
                    entries: sealed,
                    cancelled: false,
                }));
            }
            match stream.read_data(&mut buf) {
                Ok(0) => {
                    // EOF before every entry sealed: the site died
                    // mid-flight. Entries that already sealed keep their
                    // outcomes; exactly the unsealed ones are truncated.
                    ctx.record_span(
                        "ogsi.stub",
                        "multiCallStream",
                        &site,
                        started,
                        "stream-truncated",
                    );
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(
                            outcomes,
                            &delivered,
                            "stream ended before entry trailer",
                        ),
                        cancelled: false,
                    }));
                }
                Ok(n) => reader.feed(&buf[..n]),
                Err(HttpError::TimedOut) => {
                    ctx.record_span(
                        "ogsi.stub",
                        "multiCallStream",
                        &site,
                        started,
                        "deadline-exceeded",
                    );
                    if total_delivered == 0 {
                        return Err(OgsiError::DeadlineExceeded(format!(
                            "multiCallStream on {site}: stream stalled past budget"
                        )));
                    }
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(
                            outcomes,
                            &delivered,
                            "stream stalled past budget",
                        ),
                        cancelled: false,
                    }));
                }
                Err(e) if total_delivered == 0 => {
                    ctx.record_span(
                        "ogsi.stub",
                        "multiCallStream",
                        &site,
                        started,
                        "transport-error",
                    );
                    return Err(OgsiError::Transport(e));
                }
                Err(e) => {
                    ctx.record_span(
                        "ogsi.stub",
                        "multiCallStream",
                        &site,
                        started,
                        "stream-truncated",
                    );
                    return Ok(Some(BatchStreamResult {
                        entries: seal_unfinished(outcomes, &delivered, &e.to_string()),
                        cancelled: false,
                    }));
                }
            }
        }
    }

    /// Stamp the `X-PPG-*` context headers onto an outbound request.
    fn set_context_headers(&self, request: &mut Request, ctx: &CallContext) {
        request
            .headers
            .set(ppg_context::REQUEST_ID_HEADER, ctx.request_id());
        if let Some(ms) = ctx.deadline_ms() {
            request
                .headers
                .set(ppg_context::DEADLINE_MS_HEADER, ms.to_string());
        }
        if !ctx.leg_tag().is_empty() {
            request.headers.set(ppg_context::LEG_HEADER, ctx.leg_tag());
        }
    }

    /// Fetch the service description published at `?wsdl`.
    pub fn fetch_description(&self) -> Result<ServiceDescription> {
        let mut url = self.url.clone();
        url.query = "wsdl".into();
        let response = self.client.get(&url.to_string())?;
        if !response.status.is_success() {
            return Err(OgsiError::HttpStatus(
                response.status.0,
                response.body_str().into_owned(),
            ));
        }
        Ok(ServiceDescription::from_xml(&response.body_str())?)
    }
}
