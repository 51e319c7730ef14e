//! Binary data plane integration: mixed fleets of PPGB-speaking and
//! XML-only sites must produce identical federated answers, a stale
//! `wireVersion` must downgrade transparently, and multi-metric queries
//! must fold every tuple of a host into one frame.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub, Wire};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn start_legacy_container() -> Arc<Container> {
    // A container predating the PPGB codec: `/ogsa/binary` answers 404.
    let config = ContainerConfig {
        binary_enabled: false,
        ..Default::default()
    };
    Container::start("127.0.0.1:0", config).unwrap()
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

/// A fleet mixing a binary-capable site with an XML-batch site and a
/// per-call (`wireVersion` 0) site, all holding the same data, must answer
/// identically for all three. The codec is a wire-level optimization, never
/// a semantic change — and every counter must show which plane each site
/// actually used.
#[test]
fn mixed_fleet_binary_and_xml_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_bin = start_container();
    let c_xml = start_legacy_container();
    let c_old = start_legacy_container();
    let registry = registry_on(&c_bin);

    let bin_site = Site::deploy(
        &c_bin,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        // This suite exercises the buffered batch codecs: version 2 keeps
        // the site off the interleaved batch-stream wire.
        &SiteConfig::new("bin").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    // Version 1: an honest advertisement matching its binary-less
    // container.
    let xml_site = Site::deploy(
        &c_xml,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("xml").with_wire_version(Wire::XmlBatch),
    )
    .unwrap();
    let old_site = Site::deploy(
        &c_old,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("old").with_wire_version(Wire::PerCall),
    )
    .unwrap();
    publish(&client, &registry, "BIN", &bin_site);
    publish(&client, &registry, "XML", &xml_site);
    publish(&client, &registry, "OLD", &old_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = plain_gateway(&client, &registry);
    let result = gateway.query(&query);
    assert!(result.errors.is_empty(), "{:?}", result.errors);
    assert_eq!(result.rows.len(), 9);
    // One multi-call each for the binary and XML sites, three per-call
    // calls for the version-0 one.
    assert_eq!(result.upstream_calls, 5);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batched_calls, 2);
    assert_eq!(snapshot.batch_entries, 6);
    assert_eq!(
        snapshot.batch_fallback_calls, 0,
        "no batch-capable site fell back"
    );
    assert_eq!(snapshot.binary_calls, 1, "only the BIN site spoke PPGB");
    assert_eq!(snapshot.binary_entries, 3);
    assert_eq!(snapshot.binary_fallback_calls, 0, "no downgrades needed");
    // Container-side agreement: the binary site saw one PPGB exchange and
    // zero XML batches (its `wireVersion` named the codec up front); the
    // XML site saw one XML batch; the version-0 one saw neither.
    assert_eq!(c_bin.binary_counters(), (1, 3));
    assert_eq!(c_bin.batch_counters(), (0, 0));
    assert_eq!(c_xml.binary_counters(), (0, 0));
    assert_eq!(c_xml.batch_counters(), (1, 3));
    assert_eq!(c_old.batch_counters(), (0, 0));

    // Identical rows on every wire: the three sites hold the same data.
    let by_site = rows_by_site(&result);
    assert_eq!(by_site.len(), 3);
    assert_eq!(by_site["BIN/bin"], by_site["OLD/old"]);
    assert_eq!(by_site["XML/xml"], by_site["OLD/old"]);
    assert_eq!(result.sites_total, 3);
}

/// A site whose advertisement lies (claims `wireVersion` 2, container 404s
/// the binary route) costs one transparent downgrade, never a failed query:
/// the held batch is re-sent as XML and the authority remembered.
#[test]
fn stale_advertisement_downgrades_transparently() {
    let client = Arc::new(HttpClient::new());
    let container = start_legacy_container();
    let registry = registry_on(&container);

    // Version 2 advertised against a container that never decodes PPGB —
    // e.g. a site rolled back after its registry entry was cached.
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("stale").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    publish(&client, &registry, "STALE", &site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let gateway = plain_gateway(&client, &registry);

    let first = gateway.query(&query);
    assert!(
        first.errors.is_empty(),
        "downgrade must be invisible: {:?}",
        first.errors
    );
    assert_eq!(first.rows.len(), 3);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.binary_fallback_calls, 1);
    assert_eq!(snapshot.binary_calls, 0);
    assert_eq!(container.batch_counters(), (1, 3), "re-sent as XML");

    // The authority was remembered: later queries go straight to XML — no
    // second downgrade round trip.
    let second = gateway.query(&query);
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.binary_fallback_calls, 1);
    assert_eq!(container.batch_counters(), (2, 6));
    assert_eq!(rows_by_site(&first), rows_by_site(&second));
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
    assert_eq!(snapshot.binary_calls, 1);
    assert_eq!(snapshot.binary_entries, 6);
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
