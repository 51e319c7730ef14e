//! Binary data plane integration: a mixed fleet of a PPGB binary batch site
//! and a per-call SOAP site must produce identical federated answers, a
//! peer that does not speak the binary batch (the floor of the step-down
//! ladder) costs one explicitly partial answer and is served per-call from
//! then on, and multi-metric queries must fold every tuple of a host into
//! one frame.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig, SiteErrorKind};
use pperf_httpd::{HttpClient, HttpServer, Request, Response, ServerConfig, Url};
use pperf_ogsi::{
    Container, ContainerConfig, Gsh, RegistryService, RegistryStub, ServiceEntry, Wire,
};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

fn mem_wrapper(execs: usize, rows_per_exec: usize) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into(), "iterations".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            (0..rows_per_exec)
                .map(|r| format!("gflops|{i}.{r}"))
                .collect(),
        );
        exec.results.insert(
            ("iterations".into(), "/Execution".into()),
            (0..rows_per_exec)
                .map(|r| format!("iterations|{i}.{r}"))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

fn publish(client: &Arc<HttpClient>, registry: &Gsh, org: &str, site: &Site) {
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    stub.register_organization(org, "test").unwrap();
    site.publish(&stub, org, "store").unwrap();
}

/// Rows per site, sorted — handle-independent result shape for comparison
/// across gateways and wire codecs.
fn rows_by_site(result: &pperf_gateway::FederatedResult) -> BTreeMap<String, Vec<String>> {
    let mut by_site: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for site_rows in &result.rows {
        by_site
            .entry(site_rows.site.clone())
            .or_default()
            .extend(site_rows.rows.iter().cloned());
    }
    for rows in by_site.values_mut() {
        rows.sort();
    }
    by_site
}

fn plain_gateway(client: &Arc<HttpClient>, registry: &Gsh) -> Arc<FederatedGateway> {
    FederatedGateway::new(
        Arc::clone(client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    )
}

/// A fleet of twin sites holding the same data — one on the PPGB binary
/// batch (`wireVersion` 2), one on the paper's per-call XML SOAP
/// (`wireVersion` 0) — must answer identically, row for row. The codec is a
/// wire-level optimization, never a semantic change — and every counter
/// must show which plane each site actually used.
#[test]
fn mixed_fleet_binary_and_xml_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_bin = start_container();
    let c_xml = start_container();
    let registry = registry_on(&c_bin);

    let bin_site = Site::deploy(
        &c_bin,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        // This suite exercises the buffered batch: version 2 keeps the site
        // off the interleaved batch-stream wire.
        &SiteConfig::new("bin").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    let xml_site = Site::deploy(
        &c_xml,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("xml").with_wire_version(Wire::PerCall),
    )
    .unwrap();
    publish(&client, &registry, "BIN", &bin_site);
    publish(&client, &registry, "XML", &xml_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = plain_gateway(&client, &registry);
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 6);
    // One binary batch for the BIN site, three per-call calls for the
    // version-0 one.
    assert_eq!(result.upstream_calls, 4);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batched_calls, 1, "only the BIN site spoke PPGB");
    assert_eq!(snapshot.batch_entries, 3);
    assert_eq!(
        snapshot.batch_fallback_calls, 0,
        "per-call is a version-0 site's own wire, not a fallback"
    );
    assert_eq!(snapshot.binary_fallback_calls, 0, "no downgrades needed");
    // Container-side agreement: the binary site saw one PPGB exchange (its
    // `wireVersion` named the codec up front); the version-0 one saw none.
    assert_eq!(c_bin.binary_counters(), (1, 3));
    assert_eq!(c_xml.binary_counters(), (0, 0));

    // Identical rows on both wires: the twin sites hold the same data.
    let by_site = rows_by_site(&result);
    assert_eq!(by_site.len(), 2);
    assert_eq!(by_site["BIN/bin"], by_site["XML/xml"]);
    assert_eq!(result.sites_total, 2);
}

/// A front for `container` that forwards every request and rewrites the
/// container's authority to its own in both directions, so every handle a
/// client learns through it points back at it — except `POST /ogsa/binary`,
/// which it answers with a plain-text body: a peer that advertises the
/// binary batch but does not speak it.
fn binary_deaf_front(container: &Container) -> HttpServer {
    let inner = container
        .base_url()
        .trim_start_matches("http://")
        .to_owned();
    let outer: Arc<OnceLock<String>> = Arc::new(OnceLock::new());
    let client = HttpClient::new();
    let front_outer = Arc::clone(&outer);
    let handler = move |request: &Request| -> Response {
        if request.path == "/ogsa/binary" {
            return Response::ok("text/plain; charset=utf-8", b"no PPGB here".to_vec());
        }
        let outer = front_outer.get().expect("front bound");
        let mut forwarded = request.clone();
        forwarded.body = rewrite(&request.body, outer, &inner);
        let mut url = Url::parse(&format!("http://{inner}{}", request.path)).unwrap();
        url.query = request.query.clone();
        let mut response = client.send(&url, &forwarded).expect("container answers");
        response.body = rewrite(&response.body, &inner, outer);
        response
    };
    let front = HttpServer::bind("127.0.0.1:0", ServerConfig::default(), Arc::new(handler))
        .expect("bind front");
    outer.set(front.addr().to_string()).unwrap();
    front
}

fn rewrite(body: &[u8], from: &str, to: &str) -> Vec<u8> {
    String::from_utf8_lossy(body).replace(from, to).into_bytes()
}

/// The binary batch is the floor of the step-down ladder. A site that
/// advertises it (`wireVersion` 2) but answers `/ogsa/binary` with a
/// non-PPGB body gets no transparent re-send: that batch's entries fail as
/// site faults, so the answer comes back explicitly partial (a healthy twin
/// site still answers), and the authority is remembered as per-call — later
/// queries are served per-call SOAP and answer in full.
#[test]
fn binary_floor_fails_the_batch_then_serves_the_authority_per_call() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("deaf").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    let twin = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("twin").with_wire_version(Wire::PerCall),
    )
    .unwrap();
    publish(&client, &registry, "TWIN", &twin);
    let front = binary_deaf_front(&container);
    let registry_stub = RegistryStub::bind(Arc::clone(&client), &registry);
    registry_stub.register_organization("DEAF", "test").unwrap();
    registry_stub
        .register_service(&ServiceEntry {
            organization: "DEAF".into(),
            name: site.name.clone(),
            description: "store".into(),
            factory_url: format!("http://{}{}", front.addr(), site.app_factory.url().path),
        })
        .unwrap();

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_notifications(false),
    );

    let first = gateway.query(&query);
    assert!(first.is_partial(), "the floor is not transparent");
    assert!(first.rows.iter().all(|r| r.site == "TWIN/twin"));
    assert_eq!(first.rows.len(), 3);
    assert_eq!(first.errors.len(), 1, "{:?}", first.errors);
    assert_eq!(first.errors[0].site, "DEAF/deaf");
    assert_eq!(first.errors[0].kind, SiteErrorKind::Fault);
    assert!(
        first.errors[0].detail.contains("does not speak"),
        "{:?}",
        first.errors[0]
    );
    // One failed binary batch (no re-send at the floor) plus the twin's
    // three per-call calls.
    assert_eq!(first.upstream_calls, 4);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.binary_fallback_calls, 1);
    assert_eq!(snapshot.batched_calls, 0);
    assert_eq!(container.binary_counters(), (0, 0), "the front kept it");

    // The authority was remembered as per-call: the next query never
    // touches /ogsa/binary and answers in full.
    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    assert_eq!(second.upstream_calls, 6, "one getPR per target");
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.binary_fallback_calls, 1, "no second probe");
    assert_eq!(snapshot.batch_fallback_calls, 3);
    let by_site = rows_by_site(&second);
    assert_eq!(by_site.len(), 2);
    assert_eq!(by_site["DEAF/deaf"], by_site["TWIN/twin"]);
}

/// `extra_metrics` expands each execution into several `getPR` tuples, and
/// all tuples of a host ride the *same* frame: a two-metric query over a
/// binary site still costs exactly one wire call.
#[test]
fn multi_metric_query_shares_one_frame() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("multi").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    publish(&client, &registry, "MULTI", &site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]).also_metric("iterations");
    let gateway = plain_gateway(&client, &registry);
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    // 3 executions × 2 tuples, one row-set each.
    assert_eq!(result.rows.len(), 6);
    assert_eq!(result.total_rows(), 12);
    assert_eq!(result.upstream_calls, 1, "all six tuples shared one frame");
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batched_calls, 1);
    assert_eq!(snapshot.batch_entries, 6);
    assert_eq!(container.binary_counters(), (1, 6));

    // Both metrics actually came back.
    let by_site = rows_by_site(&result);
    let rows = by_site.values().next().unwrap();
    assert_eq!(rows.iter().filter(|r| r.starts_with("gflops|")).count(), 6);
    assert_eq!(
        rows.iter().filter(|r| r.starts_with("iterations|")).count(),
        6
    );
}
