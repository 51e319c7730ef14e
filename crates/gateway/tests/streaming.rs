//! End-to-end streaming data-path tests for single targets: a one-execution
//! site's scan crosses the federation as a batch stream of one, with the
//! in-flight window bounding producer memory; a site killed mid-stream
//! degrades to a truncated partial result; a consumer cancel abandons the
//! stream at a frame boundary; and older peers (a lower `wireVersion`, or a
//! dead route behind a stale one) are served buffered transparently.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig, SiteErrorKind};
use pperf_httpd::HttpClient;
use pperf_ogsi::{
    Container, ContainerConfig, FactoryStub, Gsh, RegistryService, RegistryStub, Wire,
};
use pperf_soap::DEFAULT_STREAM_FRAME_BYTES;
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{
    ApplicationStub, ApplicationWrapper, ExecutionStub, PrQuery, Site, SiteConfig, StreamWire,
    STREAM_BATCH_ROWS,
};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_container(config: ContainerConfig) -> Arc<Container> {
    Container::start("127.0.0.1:0", config).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

/// A one-execution scripted site whose rows are ~90 bytes wide, so a full
/// scan spans many stream frames. An optional per-batch delay makes the
/// stream last long enough for mid-flight events to land.
fn wide_wrapper(rows: usize, delay: Option<Duration>) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "WideApp")]);
    let mut exec = MemExecution {
        info: vec![("runid".into(), "0".into())],
        foci: vec!["/Execution".into()],
        metrics: vec!["gflops".into()],
        types: vec!["MEM".into()],
        time: ("0".into(), "10".into()),
        query_delay: delay,
        ..Default::default()
    };
    exec.results.insert(
        ("gflops".into(), "/Execution".into()),
        (0..rows)
            .map(|r| format!("gflops|{r:06}|{}", "x".repeat(80)))
            .collect(),
    );
    app.add_execution("mem-0", exec);
    app
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "wide store").unwrap();
}

/// No cache/hedging/retries, so every query drives exactly the streaming
/// path under test: each site here has one execution, so each query sends
/// one batch of one per site.
fn single_target_config() -> GatewayConfig {
    GatewayConfig::default()
        .with_cache(false)
        .with_hedging(None)
        .with_retries(0, Duration::from_millis(5))
        .with_call_timeout(Duration::from_secs(10))
}

#[test]
fn large_scan_streams_with_bounded_inflight_window() {
    let client = Arc::new(HttpClient::new());
    let window = 4 * 1024;
    let container = start_container(ContainerConfig {
        stream_window_bytes: window,
        ..ContainerConfig::default()
    });
    let registry = registry_on(&container);
    let rows = 4096usize;
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(rows, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("wide"),
    )
    .unwrap();
    publish(&client, &registry, "WIDE", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        single_target_config(),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.total_rows(), rows);

    // The producer may queue at most the window plus the frame it is
    // finishing; the scan itself is more than 8× that, so the bound is
    // only holdable if backpressure really parks the producer.
    let bound = (window + DEFAULT_STREAM_FRAME_BYTES + 1024) as u64;
    let payload: u64 = result
        .rows
        .iter()
        .flat_map(|r| r.rows.iter())
        .map(|r| r.len() as u64)
        .sum();
    assert!(
        payload >= 8 * bound,
        "scan must dwarf the window: {payload}"
    );
    let peak = container.batch_stream_peak_queued();
    assert!(
        peak > 0 && peak <= bound,
        "in-flight window must bound producer memory: peak {peak}, bound {bound}"
    );

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 1, "one target, one stream");
    assert_eq!(snapshot.batch_stream_entries, 1, "a batch of one");
    assert_eq!(snapshot.batch_stream_fallback_calls, 0);
    assert_eq!(snapshot.batch_stream_truncated, 0);
    let (calls, entries, frames, streamed_rows, faults) = container.batch_stream_counters();
    assert_eq!((calls, entries, faults), (1, 1, 0));
    assert!(frames >= 8, "{frames}");
    assert_eq!(streamed_rows, rows as u64);
}

#[test]
fn site_killed_mid_stream_yields_truncated_partial_rows() {
    let client = Arc::new(HttpClient::new());
    let c1 = start_container(ContainerConfig::default());
    let c2 = start_container(ContainerConfig::default());
    let registry = registry_on(&c1);

    let fast = Site::deploy(
        &c1,
        Arc::clone(&client),
        Arc::new(wide_wrapper(8, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("fast"),
    )
    .unwrap();
    // The doomed scan trickles one ~23KB batch every 120ms, so frames are
    // in flight for well over a second — the shutdown lands mid-stream.
    let doomed_rows = 12 * STREAM_BATCH_ROWS;
    let doomed = Site::deploy(
        &c2,
        Arc::clone(&client),
        Arc::new(wide_wrapper(doomed_rows, Some(Duration::from_millis(120))))
            as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("doomed"),
    )
    .unwrap();
    publish(&client, &registry, "FAST", &fast);
    publish(&client, &registry, "DOOMED", &doomed);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        single_target_config(),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gw = Arc::clone(&gateway);
    let q = query.clone();
    let handle = std::thread::spawn(move || gw.query(&q));
    std::thread::sleep(Duration::from_millis(500));
    c2.shutdown();
    let result = handle.join().unwrap();

    // The survivor's rows are intact and complete.
    assert_eq!(
        result
            .rows
            .iter()
            .filter(|r| r.site == "FAST/fast" && !r.truncated)
            .count(),
        1,
        "errors: {:?}",
        result.errors
    );
    // The dead site degraded to a partial answer: the frames that arrived
    // before the shutdown stand, flagged truncated, alongside a structured
    // error — not a query failure and not silent row loss.
    let partial: Vec<_> = result
        .rows
        .iter()
        .filter(|r| r.site == "DOOMED/doomed")
        .collect();
    assert_eq!(partial.len(), 1, "rows: {:?}", result.rows.len());
    assert!(partial[0].truncated, "partial rows must be flagged");
    assert!(
        !partial[0].rows.is_empty() && partial[0].rows.len() < doomed_rows,
        "a strict prefix of the scan: {} of {doomed_rows}",
        partial[0].rows.len()
    );
    assert!(
        result
            .errors
            .iter()
            .any(|e| e.site == "DOOMED/doomed" && e.kind == SiteErrorKind::Truncated),
        "errors: {:?}",
        result.errors
    );
    assert!(gateway.snapshot().batch_stream_truncated >= 1);
}

/// Poll `predicate` for up to `timeout` — producer-side consequences of a
/// consumer hangup are asynchronous.
fn wait_for(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let give_up = Instant::now() + timeout;
    while Instant::now() < give_up {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    predicate()
}

#[test]
fn consumer_cancel_stops_stream_at_frame_boundary() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    // 24 batches × 100ms ≈ 2.4s of scan — far more than the consumer will
    // take; the per-batch delay gives the producer a chance to observe the
    // hangup between batches rather than finish in one burst.
    let total_rows = 24 * STREAM_BATCH_ROWS;
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(total_rows, Some(Duration::from_millis(100))))
            as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("slow"),
    )
    .unwrap();

    // Bind straight to the Execution the way the gateway's planner would.
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let execs = app.get_all_execs().unwrap();
    assert_eq!(execs.len(), 1);
    let exec = ExecutionStub::bind(Arc::clone(&client), &execs[0]);

    let query = PrQuery {
        metric: "gflops".into(),
        foci: vec!["/Execution".into()],
        start: String::new(),
        end: String::new(),
        rtype: String::new(),
    };
    let ctx = CallContext::with_budget(Duration::from_secs(10));
    let mut delivered = 0usize;
    let outcome = exec
        .get_pr_stream(&query, &ctx, &mut |rows| {
            delivered += rows.len();
            false // stop after the very first frame
        })
        .unwrap();

    assert!(outcome.cancelled, "sink refusal is a cancel, not an error");
    assert_eq!(outcome.wire, StreamWire::Stream);
    assert!(
        delivered > 0 && delivered < total_rows,
        "exactly the first frame's rows arrived: {delivered} of {total_rows}"
    );
    // The producer notices the hangup at the next frame boundary and aborts
    // the scan — the remaining ~23 batches are never rendered or queued.
    assert!(
        wait_for(Duration::from_secs(5), || {
            let (calls, _entries, _frames, rows, faults) = container.batch_stream_counters();
            calls == 1 && faults >= 1 && (rows as usize) < total_rows
        }),
        "producer must abort mid-scan: {:?}",
        container.batch_stream_counters()
    );
}

#[test]
fn site_not_advertising_streams_is_served_buffered() {
    let client = Arc::new(HttpClient::new());
    let container = start_container(ContainerConfig::default());
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(40, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("legacy").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    publish(&client, &registry, "LEGACY", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        single_target_config(),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.total_rows(), 40);

    // Below version 3 a singleton group goes per-call: the buffered
    // batches only pay off from two entries up.
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0, "version 2, no stream attempt");
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 0,
        "and no dead probe either"
    );
    assert_eq!(snapshot.batch_fallback_calls, 1, "served per-call");
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );
}

#[test]
fn stale_streaming_advertisement_falls_back_and_is_remembered() {
    let client = Arc::new(HttpClient::new());
    // The container's stream route is off, but the site still advertises
    // wire version 3 — the model of a stale capability record.
    let container = start_container(ContainerConfig {
        streaming_enabled: false,
        ..ContainerConfig::default()
    });
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(wide_wrapper(40, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("stale"),
    )
    .unwrap();
    publish(&client, &registry, "STALE", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        single_target_config().with_per_site_concurrency(1),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    let first = gateway.query(&query);
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    assert_eq!(first.total_rows(), 40, "fallback is transparent");
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "one dead probe, then the authority is remembered"
    );
    assert_eq!(
        snapshot.batched_calls, 1,
        "the held batch of one stepped down"
    );

    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.total_rows(), 40);
    let snapshot = gateway.snapshot();
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 1,
        "later calls skip the probe entirely"
    );
    assert_eq!(
        snapshot.batch_fallback_calls, 1,
        "a remembered version 2 sends its singleton per-call"
    );
}
