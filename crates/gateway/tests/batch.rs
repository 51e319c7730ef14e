//! Batched wire protocol integration: mixed fleets of batch-capable and
//! legacy sites, per-entry faults, and per-entry deadline expiry — all of
//! which must preserve the gateway's partial-result semantics.

use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig, SiteErrorKind};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub, Wire};
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn start_container() -> Arc<Container> {
    Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap()
}

fn registry_on(container: &Container) -> Gsh {
    container
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap()
}

fn mem_wrapper(
    execs: usize,
    rows_per_exec: usize,
    delay: Option<Duration>,
) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            query_delay: delay,
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            (0..rows_per_exec)
                .map(|r| format!("gflops|{i}.{r}"))
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
/// across gateways.
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

/// A fleet mixing a batch-capable site with a per-call (`wireVersion` 0)
/// site holding the same data must answer identically for both — batching
/// is a wire-level optimization, never a semantic change.
#[test]
fn mixed_fleet_batched_and_legacy_sites_agree() {
    let client = Arc::new(HttpClient::new());
    let c_new = start_container();
    let c_old = start_container();
    let registry = registry_on(&c_new);

    let new_site = Site::deploy(
        &c_new,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2, None)) as Arc<dyn ApplicationWrapper>,
        // Version 1 exercises the XML batch plane in isolation
        // (tests/binary.rs covers the PPGB plane).
        &SiteConfig::new("new").with_wire_version(Wire::XmlBatch),
    )
    .unwrap();
    let old_site = Site::deploy(
        &c_old,
        Arc::clone(&client),
        Arc::new(mem_wrapper(3, 2, None)) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("old").with_wire_version(Wire::PerCall),
    )
    .unwrap();
    publish(&client, &registry, "NEW", &new_site);
    publish(&client, &registry, "OLD", &old_site);

    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let batched_gw = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let batched = batched_gw.query(&query);
    assert!(batched.errors.is_empty(), "{:?}", batched.errors);
    assert_eq!(batched.rows.len(), 6);
    // One multi-call for the capable site, three per-call fallbacks for the
    // legacy one.
    assert_eq!(batched.upstream_calls, 4);
    let snapshot = batched_gw.snapshot();
    assert_eq!(snapshot.batched_calls, 1);
    assert_eq!(snapshot.batch_entries, 3);
    assert_eq!(
        snapshot.batch_fallback_calls, 0,
        "per-call is a version-0 site's own wire, not a fallback"
    );
    // The wire-level counters agree: only the capable site's container saw a
    // multi-call.
    assert_eq!(c_new.batch_counters(), (1, 3));
    assert_eq!(c_old.batch_counters(), (0, 0));
    assert_eq!(c_new.binary_counters(), (0, 0), "version 1 stays XML");

    // Identical rows, whatever the wire shape: both sites hold the same
    // data, one answered through a multi-call, the other per-call.
    let by_site = rows_by_site(&batched);
    assert_eq!(by_site.len(), 2);
    assert_eq!(by_site["NEW/new"], by_site["OLD/old"]);
    assert_eq!(batched.sites_total, 2);
}

/// One entry of a batch faulting (here: an execution that doesn't know the
/// metric) must cost exactly that entry — its site still contributes every
/// other execution's rows, plus one structured error.
#[test]
fn per_entry_fault_yields_partial_result_under_batching() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let app = mem_wrapper(2, 2, None);
    app.add_execution(
        "mem-bad",
        MemExecution {
            info: vec![("runid".into(), "bad".into())],
            foci: vec!["/Execution".into()],
            metrics: vec!["iterations".into()], // no gflops ⇒ getPR faults
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            ..Default::default()
        },
    );
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("mem").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));

    assert!(result.is_partial(), "errors: {:?}", result.errors);
    assert_eq!(result.rows.len(), 2, "healthy entries answered");
    assert_eq!(result.total_rows(), 4);
    assert_eq!(result.errors.len(), 1);
    assert_eq!(result.errors[0].kind, SiteErrorKind::Fault);
    assert!(
        result.errors[0].detail.contains("unknown metric"),
        "{:?}",
        result.errors[0]
    );
    // The whole site still rode one batched exchange.
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.batched_calls, 1);
    assert_eq!(snapshot.batch_entries, 3);
}

/// Entries that outlive the query budget expire individually: the fast
/// entries of the same batch still answer, the slow ones become one
/// structured Timeout error.
#[test]
fn per_entry_deadline_yields_partial_result_under_batching() {
    let client = Arc::new(HttpClient::new());
    let container = start_container();
    let registry = registry_on(&container);

    let app = mem_wrapper(2, 2, None);
    app.add_execution(
        "mem-slow",
        MemExecution {
            info: vec![("runid".into(), "slow".into())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            query_delay: Some(Duration::from_secs(5)),
            ..Default::default()
        },
    );
    let site = Site::deploy(
        &container,
        Arc::clone(&client),
        Arc::new(app) as Arc<dyn ApplicationWrapper>,
        &SiteConfig::new("mem").with_wire_version(Wire::BinaryBatch),
    )
    .unwrap();
    publish(&client, &registry, "MEM", &site);

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_call_timeout(Duration::from_millis(400)),
    );
    let result = gateway.query(&FederatedQuery::new("gflops", vec!["/Execution".into()]));

    assert!(result.is_partial(), "errors: {:?}", result.errors);
    assert_eq!(
        result.rows.len(),
        2,
        "fast entries of the batch answered: {:?}",
        result.rows
    );
    assert!(
        result
            .errors
            .iter()
            .any(|e| e.kind == SiteErrorKind::Timeout),
        "slow entry expired: {:?}",
        result.errors
    );
}
