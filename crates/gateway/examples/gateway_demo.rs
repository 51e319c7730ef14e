//! Federated gateway walk-through: three heterogeneous sites behind one
//! `FederatedQuery`, demonstrating result caching, hedged replicas, and
//! partial answers when a site dies mid-federation.
//!
//! Run with: `cargo run -p pperf-gateway --example gateway_demo --release`

use pperf_datastore::{HplSpec, HplStore};
use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, RegistryService, RegistryStub};
use pperfgrid::wrappers::{HplSqlWrapper, MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::sync::Arc;
use std::time::Duration;

/// A scripted in-memory store answering `gflops` over `/Execution`.
fn mem_wrapper(execs: usize, delay: Option<Duration>) -> Arc<dyn ApplicationWrapper> {
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
            vec![format!("gflops|{}.5", i)],
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    Arc::new(app)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let client = Arc::new(HttpClient::new());
    let hub = Container::start("127.0.0.1:0", ContainerConfig::default())?;
    let edge = Container::start("127.0.0.1:0", ContainerConfig::default())?;
    let registry = hub.deploy_service("registry", Arc::new(RegistryService::new()))?;
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);

    // Site 1: relational HPL store. Site 2: scripted in-memory store, on a
    // second host. Site 3: the same logical data replicated across both
    // hosts, with a pathologically slow first replica — hedge fodder.
    let hpl = HplStore::build(HplSpec::tiny());
    let hpl_wrapper: Arc<dyn ApplicationWrapper> =
        Arc::new(HplSqlWrapper::new(hpl.database().clone()));
    let hpl_site = Site::deploy(
        &hub,
        Arc::clone(&client),
        hpl_wrapper,
        &SiteConfig::new("hpl"),
    )?;
    let mem_site = Site::deploy(
        &edge,
        Arc::clone(&client),
        mem_wrapper(2, None),
        &SiteConfig::new("mem"),
    )?;
    let repl_site = Site::deploy_replicated(
        &hub,
        &[
            (&hub, mem_wrapper(2, Some(Duration::from_millis(400)))),
            (&edge, mem_wrapper(2, None)),
        ],
        Arc::clone(&client),
        &SiteConfig::new("repl"),
    )?;
    stub.register_organization("PSU", "demo")?;
    stub.register_organization("MEM", "demo")?;
    stub.register_organization("REPL", "demo")?;
    hpl_site.publish(&stub, "PSU", "Linpack (RDBMS)")?;
    mem_site.publish(&stub, "MEM", "scripted store")?;
    repl_site.publish(&stub, "REPL", "replicated store")?;

    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry,
        GatewayConfig::default()
            .with_hedging(Some(Duration::from_millis(100)))
            .with_call_timeout(Duration::from_secs(5)),
    );
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);

    println!("== first federation (cold) ==");
    let first = gateway.query(&query);
    for site_rows in &first.rows {
        println!(
            "  {:10} {:3} rows{}{}",
            site_rows.site,
            site_rows.rows.len(),
            if site_rows.hedged { "  [hedged]" } else { "" },
            if site_rows.from_cache {
                "  [cache]"
            } else {
                ""
            },
        );
    }
    println!(
        "  {} sites, {} upstream getPRs, {:?}",
        first.sites_answered(),
        first.upstream_calls,
        first.elapsed
    );

    println!("\n== same query again (gateway cache) ==");
    let second = gateway.query(&query);
    println!(
        "  {} rows from {} sites, {} upstream getPRs, {:?}",
        second.total_rows(),
        second.sites_answered(),
        second.upstream_calls,
        second.elapsed
    );

    println!("\n== edge host dies; the federation degrades, not fails ==");
    edge.shutdown();
    gateway.clear_cache();
    let partial = gateway.query(&query);
    for site_rows in &partial.rows {
        println!("  {:10} {:3} rows", site_rows.site, site_rows.rows.len());
    }
    for error in &partial.errors {
        println!("  {:10} ERROR {}: {}", error.site, error.kind, error.detail);
    }
    println!(
        "  partial = {}, {}/{} sites answered",
        partial.is_partial(),
        partial.sites_answered(),
        partial.sites_total
    );

    let snapshot = gateway.snapshot();
    println!(
        "\ngateway counters: {} queries, {} upstream, {:.0}% cache hit rate, \
         {} hedges fired ({} won), {} coalesced",
        snapshot.queries,
        snapshot.upstream_calls,
        snapshot.cache_hit_rate * 100.0,
        snapshot.hedges_fired,
        snapshot.hedge_wins,
        snapshot.coalesced
    );
    println!(
        "wire planes: {} PPGB batches ({} entries), {} batch streams ({} entries), \
         {} binary downgrades, {} batch fallbacks",
        snapshot.batched_calls,
        snapshot.batch_entries,
        snapshot.batch_streams,
        snapshot.batch_stream_entries,
        snapshot.binary_fallback_calls,
        snapshot.batch_fallback_calls
    );
    Ok(())
}
