//! `PPG_FORCE_XML=1` operational escape hatch: every exchange stays XML no
//! matter what sites advertise. Lives in its own test binary because the
//! variable is process-global.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::FactoryStub;
use pperf_ogsi::{Container, ContainerConfig, RegistryService, RegistryStub};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::StreamWire;
use pperfgrid::{ApplicationStub, ApplicationWrapper, ExecutionStub, PrQuery, Site, SiteConfig};
use ppg_context::CallContext;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn force_xml_pins_every_exchange_to_xml() {
    // Set before any stub call; nothing else runs in this process.
    std::env::set_var("PPG_FORCE_XML", "1");

    let client = Arc::new(HttpClient::new());
    let container = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();

    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..3 {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            vec![format!("gflops|{i}")],
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    // The site advertises binary and its container would decode it — only
    // the environment override keeps the exchange on XML.
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("forced"),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("FORCED", "test").unwrap();
    site.publish(&stub, "FORCED", "store").unwrap();

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 3);

    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batched_calls, 1, "batching itself stays on");
    assert_eq!(snapshot.binary_calls, 0);
    assert_eq!(
        snapshot.binary_fallback_calls, 0,
        "forced XML is not a downgrade"
    );
    // The site also advertises the interleaved batch-stream wire; the
    // override keeps the batch buffered without recording a fallback.
    assert_eq!(snapshot.batch_streams, 0, "forced XML never batch-streams");
    assert_eq!(
        snapshot.batch_stream_fallback_calls, 0,
        "a pin is not a fallback"
    );
    assert_eq!(container.batch_counters(), (1, 3));
    assert_eq!(container.binary_counters(), (0, 0));
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );

    // A singleton target would normally ride a batch stream of one; the
    // pin caps the site at the XML batch, below which a singleton goes
    // per-call.
    let solo = gateway
        .query(&FederatedQuery::new("gflops", vec!["/Execution".into()]).matching("runid", "0"));
    assert!(solo.errors.is_empty(), "{:?}", solo.errors);
    assert_eq!(solo.rows.len(), 1);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batch_streams, 0);
    assert_eq!(
        snapshot.batch_fallback_calls, 1,
        "the singleton went per-call"
    );

    // A single call would normally stream as a batch of one (the site is
    // at wire version 3 and the container serves /ogsa/batch-stream) — the
    // override pins it to the buffered XML call too, and the pin is not
    // reported as a fallback: nothing was probed, nothing failed.
    let factory = FactoryStub::bind(Arc::clone(&client), &site.app_factory);
    let app = ApplicationStub::bind(Arc::clone(&client), &factory.create_service(&[]).unwrap());
    let exec = ExecutionStub::bind(Arc::clone(&client), &app.get_all_execs().unwrap()[0]);
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
            true
        })
        .unwrap();
    assert_eq!(delivered, 1);
    assert_eq!(
        outcome.wire,
        StreamWire::Buffered,
        "forced XML never streams"
    );
    assert_eq!(
        container.batch_stream_counters().0,
        0,
        "/ogsa/batch-stream never hit"
    );
}
