//! Federated gateway fan-out benchmark: repeated-query throughput with the
//! gateway result cache on versus off, coalescing behaviour under a query
//! storm, and throughput retention on a 4-worker host carrying 1000+ parked
//! keep-alive connections (the readiness-driven event loop's capacity
//! model).
//!
//! Usage: `cargo run -p pperf-bench --bin gateway_fanout --release`
//! (set `PPG_QUICK=1` for a fast, smaller-sample run; `BENCH_OUT` overrides
//! the output path).
//!
//! Emits `BENCH_gateway.json` — a flat array of `{name, value, unit}`
//! entries — so the gateway's perf trajectory is tracked from PR to PR.

use pperf_bench::banner;
use pperf_datastore::{HplSpec, HplStore};
use pperf_gateway::{FederatedGateway, FederatedQuery, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub, Wire};
use pperfgrid::wrappers::{HplSqlWrapper, MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, Site, SiteConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One emitted measurement.
struct Entry {
    name: String,
    value: f64,
    unit: &'static str,
}

fn entry(name: &str, value: f64, unit: &'static str) -> Entry {
    Entry {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// A scripted in-memory site whose executions answer `gflops` over
/// `/Execution` after `delay` — a stand-in for a remote mapping layer with
/// real per-query cost.
fn mem_wrapper(execs: usize, rows_per_exec: usize, delay: Duration) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "FanoutMem")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), "10".into()),
            query_delay: Some(delay),
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

struct Federation {
    client: Arc<HttpClient>,
    registry: Gsh,
    // Containers are kept alive for the benchmark's duration; the deadline
    // pass also reads the mem-site container's context counters.
    containers: Vec<Arc<Container>>,
}

/// Two heterogeneous sites — relational HPL plus a scripted in-memory store —
/// behind one registry, mirroring the federation integration tests. Both
/// advertise `wire`, which picks the plane every pass over them rides.
fn deploy_federation(mem_execs: usize, mem_delay: Duration, wire: Wire) -> Federation {
    let client = Arc::new(HttpClient::new());
    let c1 = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let c2 = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = c1
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();

    let hpl = HplStore::build(HplSpec::tiny());
    let hpl_wrapper: Arc<dyn ApplicationWrapper> =
        Arc::new(HplSqlWrapper::new(hpl.database().clone()));
    let hpl_site = Site::deploy(
        &c1,
        Arc::clone(&client),
        hpl_wrapper,
        &SiteConfig::new("hpl").with_wire_version(wire),
    )
    .unwrap();
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(mem_execs, 4, mem_delay));
    // The site-level PR cache stays off so the gateway cache is the only
    // thing between a repeat query and the backend.
    let mem_site = Site::deploy(
        &c2,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem")
            .with_cache(false)
            .with_wire_version(wire),
    )
    .unwrap();

    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("PSU", "bench").unwrap();
    stub.register_organization("MEM", "bench").unwrap();
    hpl_site.publish(&stub, "PSU", "Linpack (RDBMS)").unwrap();
    mem_site.publish(&stub, "MEM", "scripted store").unwrap();

    Federation {
        client,
        registry,
        containers: vec![c1, c2],
    }
}

/// A scripted site whose rows carry `t=` interval markers (one row per unit
/// interval `[t, t+1]`, `t` in `0..spans`) so gateway cache segments are
/// range-filterable: a cached wide window answers narrower and overlapping
/// ones without re-fetching.
fn spanned_mem_wrapper(execs: usize, spans: usize, delay: Duration) -> MemApplicationWrapper {
    let app = MemApplicationWrapper::new(vec![("name", "SpanMem")]);
    for i in 0..execs {
        let mut exec = MemExecution {
            info: vec![("runid".into(), i.to_string())],
            foci: vec!["/Execution".into()],
            metrics: vec!["gflops".into()],
            types: vec!["MEM".into()],
            time: ("0".into(), spans.to_string()),
            query_delay: Some(delay),
            ..Default::default()
        };
        exec.results.insert(
            ("gflops".into(), "/Execution".into()),
            (0..spans)
                .map(|t| format!("gflops|t={t}:{}|{i}.{t}", t + 1))
                .collect(),
        );
        app.add_execution(format!("mem-{i}"), exec);
    }
    app
}

/// One registry plus one spanned scripted site (site-level PR cache off, so
/// the gateway's segment cache is the only thing between a query and the
/// delay-bearing backend). `wire` picks which batched plane the site's
/// batches ride: the interleaved stream wire, or buffered binary (so the
/// packed/range/restart passes stay comparable PR to PR).
fn deploy_spanned_site(execs: usize, spans: usize, delay: Duration, wire: Wire) -> Federation {
    let client = Arc::new(HttpClient::new());
    let host = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = host
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(spanned_mem_wrapper(execs, spans, delay));
    let site = Site::deploy(
        &host,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem")
            .with_cache(false)
            .with_wire_version(wire),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("SPAN", "bench").unwrap();
    site.publish(&stub, "SPAN", "spanned store").unwrap();
    Federation {
        client,
        registry,
        containers: vec![host],
    }
}

/// Repeats per timed pass (cached / uncached).
fn repeats() -> usize {
    if std::env::var_os("PPG_QUICK").is_some() {
        8
    } else {
        25
    }
}

/// Time `repeats` identical federated queries; the binding/priming query runs
/// first, untimed, so both passes measure steady state. Also returns the
/// HTTP payload bytes (request + response bodies) the client moved during
/// the timed repeats — the bytes-on-the-wire cost of the codec in use.
fn timed_pass(
    gateway: &FederatedGateway,
    client: &HttpClient,
    query: &FederatedQuery,
    repeats: usize,
) -> (Duration, u64, u64) {
    let prime = gateway.query(query);
    assert!(
        prime.errors.is_empty(),
        "priming query failed: {:?}",
        prime.errors
    );
    let before = gateway.snapshot().upstream_calls;
    let (sent_before, received_before) = client.payload_bytes();
    let started = Instant::now();
    for _ in 0..repeats {
        let result = gateway.query(query);
        assert!(result.errors.is_empty(), "{:?}", result.errors);
    }
    let (sent_after, received_after) = client.payload_bytes();
    (
        started.elapsed(),
        gateway.snapshot().upstream_calls - before,
        (sent_after - sent_before) + (received_after - received_before),
    )
}

fn qps(repeats: usize, elapsed: Duration) -> f64 {
    repeats as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One registry plus one tiny site, returning the handles needed to
/// repeatedly withdraw and re-publish the site (the invalidation-latency
/// pass). The container rides along so it stays alive.
fn deploy_withdrawal_fixture() -> (Arc<HttpClient>, Gsh, RegistryStub, Site, Arc<Container>) {
    let client = Arc::new(HttpClient::new());
    let host = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = host
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(1, 1, Duration::ZERO));
    let site = Site::deploy(
        &host,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("INVAL", "bench").unwrap();
    site.publish(&stub, "INVAL", "scripted store").unwrap();
    (client, registry, stub, site, host)
}

/// Query until the plan includes exactly `sites` sites (bounded).
fn wait_for_sites(gateway: &FederatedGateway, query: &FederatedQuery, sites: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if gateway.query(query).sites_total == sites {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gateway never converged to {sites} site(s)"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn render_json(entries: &[Entry]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "  {{\"name\": \"{}\", \"value\": {:.4}, \"unit\": \"{}\"}}",
                e.name, e.value, e.unit
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn main() {
    println!(
        "{}",
        banner("Gateway fan-out: cached vs uncached federation")
    );
    let repeats = repeats();
    let query = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let mem_delay = Duration::from_millis(4);
    let mut entries = Vec::new();

    // Pass 1: result cache off, per-call wire protocol (both sites at
    // `wireVersion` 0) — every repeat re-scatters to both backends, one
    // getPR exchange per Execution.
    let fed = deploy_federation(8, mem_delay, Wire::PerCall);
    let uncached_gateway = FederatedGateway::new(
        Arc::clone(&fed.client),
        fed.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (uncached_elapsed, uncached_upstream, _) =
        timed_pass(&uncached_gateway, &fed.client, &query, repeats);
    let uncached_qps = qps(repeats, uncached_elapsed);
    println!(
        "uncached: {repeats} queries in {uncached_elapsed:?} ({uncached_qps:.1} q/s, {uncached_upstream} upstream getPRs)"
    );

    // Pass 1b: the same cold federation redeployed at `wireVersion` 1, the
    // XML batch — each site's 8 targets fold into one multi-call exchange
    // per query. (This series stays the XML-batch baseline; the bulk pass
    // below compares the codecs head to head.)
    let xml_fed = deploy_federation(8, mem_delay, Wire::XmlBatch);
    let batched_gateway = FederatedGateway::new(
        Arc::clone(&xml_fed.client),
        xml_fed.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (batched_elapsed, batched_upstream, _) =
        timed_pass(&batched_gateway, &xml_fed.client, &query, repeats);
    let batched_qps = qps(repeats, batched_elapsed);
    let batched_calls_per_query = batched_upstream as f64 / repeats as f64;
    let batch_speedup = batched_qps / uncached_qps;
    let batch_fallback_calls = batched_gateway.snapshot().batch_fallback_calls;
    println!(
        "batched:  {repeats} queries in {batched_elapsed:?} ({batched_qps:.1} q/s, \
         {batched_upstream} upstream wire calls, {batch_fallback_calls} per-call fallbacks)"
    );
    println!(
        "batched vs per-call: {batch_speedup:.1}x throughput, \
         {:.1} -> {batched_calls_per_query:.1} wire calls/query",
        uncached_upstream as f64 / repeats as f64
    );

    // Pass 2: result cache on — repeats are answered from the gateway cache.
    let cached_gateway = FederatedGateway::new(
        Arc::clone(&fed.client),
        fed.registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    let (cached_elapsed, cached_upstream, _) =
        timed_pass(&cached_gateway, &fed.client, &query, repeats);
    let cached_qps = qps(repeats, cached_elapsed);
    let speedup = cached_qps / uncached_qps;
    println!(
        "cached:   {repeats} queries in {cached_elapsed:?} ({cached_qps:.1} q/s, {cached_upstream} upstream getPRs)"
    );
    println!("repeated-query speedup: {speedup:.1}x (acceptance floor: 2x)");

    entries.push(entry(
        "gateway_fanout/uncached_throughput",
        uncached_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/cached_throughput",
        cached_qps,
        "queries/s",
    ));
    entries.push(entry("gateway_fanout/cached_speedup", speedup, "x"));
    entries.push(entry(
        "gateway_fanout/uncached_upstream_calls_per_query",
        uncached_upstream as f64 / repeats as f64,
        "calls",
    ));
    entries.push(entry(
        "gateway_fanout/cached_upstream_calls_per_query",
        cached_upstream as f64 / repeats as f64,
        "calls",
    ));
    entries.push(entry(
        "gateway_fanout/batched_throughput",
        batched_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/batched_upstream_calls_per_query",
        batched_calls_per_query,
        "calls",
    ));
    entries.push(entry("gateway_fanout/batched_speedup", batch_speedup, "x"));
    entries.push(entry(
        "gateway_fanout/batch_fallback_calls",
        batch_fallback_calls as f64,
        "calls",
    ));

    // Pass 2b: binary data plane vs the XML-batch baseline on a bulk
    // federation — one site, many executions, no scripted delay, so codec
    // serialize/parse cost and payload size dominate instead of backend
    // latency. The same site is deployed twice, at `wireVersion` 1 and 2;
    // each gets its own HttpClient so payload-byte counters don't
    // interleave.
    let bulk_execs = if std::env::var_os("PPG_QUICK").is_some() {
        24
    } else {
        48
    };
    let deploy_bulk = |wire: Wire| {
        let client = Arc::new(HttpClient::new());
        let host = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
        let registry = host
            .deploy_service("registry", Arc::new(RegistryService::new()))
            .unwrap();
        let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(bulk_execs, 2, Duration::ZERO));
        let site = Site::deploy(
            &host,
            Arc::clone(&client),
            mem,
            &SiteConfig::new("bulk")
                .with_cache(false)
                .with_wire_version(wire),
        )
        .unwrap();
        let stub = RegistryStub::bind(Arc::clone(&client), &registry);
        stub.register_organization("BULK", "bench").unwrap();
        site.publish(&stub, "BULK", "scripted store").unwrap();
        Federation {
            client,
            registry,
            containers: vec![host],
        }
    };
    let xml_bulk = deploy_bulk(Wire::XmlBatch);
    let xml_bulk_gateway = FederatedGateway::new(
        Arc::clone(&xml_bulk.client),
        xml_bulk.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (xml_bulk_elapsed, _, xml_bulk_bytes) =
        timed_pass(&xml_bulk_gateway, &xml_bulk.client, &query, repeats);
    let xml_bulk_qps = qps(repeats, xml_bulk_elapsed);
    let bin_bulk = deploy_bulk(Wire::BinaryBatch);
    let bin_bulk_gateway = FederatedGateway::new(
        Arc::clone(&bin_bulk.client),
        bin_bulk.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (bin_bulk_elapsed, _, bin_bulk_bytes) =
        timed_pass(&bin_bulk_gateway, &bin_bulk.client, &query, repeats);
    let bin_bulk_qps = qps(repeats, bin_bulk_elapsed);
    let bulk_snapshot = bin_bulk_gateway.snapshot();
    assert_eq!(
        bulk_snapshot.binary_fallback_calls, 0,
        "bulk binary pass downgraded to XML"
    );
    let bulk_speedup = bin_bulk_qps / xml_bulk_qps;
    let xml_bulk_bpq = xml_bulk_bytes as f64 / repeats as f64;
    let bin_bulk_bpq = bin_bulk_bytes as f64 / repeats as f64;
    let bulk_byte_shrink = xml_bulk_bpq / bin_bulk_bpq.max(1.0);
    println!(
        "bulk:     {bulk_execs}-entry batches: XML {xml_bulk_qps:.1} q/s at {xml_bulk_bpq:.0} \
         payload B/query; binary {bin_bulk_qps:.1} q/s at {bin_bulk_bpq:.0} B/query \
         ({bulk_speedup:.2}x throughput, {bulk_byte_shrink:.1}x fewer bytes)"
    );
    entries.push(entry(
        "gateway_fanout/bulk_xml_batch_throughput",
        xml_bulk_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/bulk_binary_throughput",
        bin_bulk_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/bulk_binary_speedup",
        bulk_speedup,
        "x",
    ));
    entries.push(entry(
        "gateway_fanout/bulk_xml_batch_payload_bytes_per_query",
        xml_bulk_bpq,
        "bytes",
    ));
    entries.push(entry(
        "gateway_fanout/bulk_binary_payload_bytes_per_query",
        bin_bulk_bpq,
        "bytes",
    ));
    entries.push(entry(
        "gateway_fanout/bulk_binary_payload_shrink",
        bulk_byte_shrink,
        "x",
    ));

    // Pass 3: a storm of identical concurrent queries against a cold, slow
    // site — single-flight coalescing should collapse them to one fan-out.
    let storm = deploy_federation(2, Duration::from_millis(40), Wire::BinaryBatch);
    let storm_gateway = FederatedGateway::new(
        Arc::clone(&storm.client),
        storm.registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    // Bind applications (and evict what the priming query cached) so the
    // storm measures coalescing, not createService or the result cache.
    let prime = storm_gateway.query(&query);
    assert!(prime.errors.is_empty(), "{:?}", prime.errors);
    storm_gateway.clear_cache();
    let concurrency = 8;
    let started = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|_| {
            let gw = Arc::clone(&storm_gateway);
            let q = query.clone();
            std::thread::spawn(move || gw.query(&q))
        })
        .collect();
    for handle in handles {
        let result = handle.join().unwrap();
        assert!(result.errors.is_empty(), "{:?}", result.errors);
    }
    let storm_elapsed = started.elapsed();
    let snapshot = storm_gateway.snapshot();
    println!(
        "storm:    {concurrency} concurrent identical queries in {storm_elapsed:?} \
         ({} coalesced, {} cache hits)",
        snapshot.coalesced, snapshot.cache_hits
    );
    entries.push(entry(
        "gateway_fanout/storm_coalesced_or_cached_calls",
        (snapshot.coalesced + snapshot.cache_hits) as f64,
        "calls",
    ));
    entries.push(entry(
        "gateway_fanout/storm_throughput",
        qps(concurrency, storm_elapsed),
        "queries/s",
    ));

    // Pass 4: the capacity model — one host with only 4 handler threads
    // carrying 1000+ parked keep-alive connections. The readiness-driven
    // event loop parks each one for the cost of a registered fd, so gateway
    // throughput through the same host should hold up.
    let parked_target: usize = if std::env::var_os("PPG_QUICK").is_some() {
        200
    } else {
        1000
    };
    let client = Arc::new(HttpClient::new());
    let host = Container::start(
        "127.0.0.1:0",
        ContainerConfig {
            workers: 4,
            max_connections: parked_target + 256,
            ..Default::default()
        },
    )
    .unwrap();
    let registry = host
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let mem: Arc<dyn ApplicationWrapper> = Arc::new(mem_wrapper(4, 4, Duration::from_millis(1)));
    let site = Site::deploy(
        &host,
        Arc::clone(&client),
        mem,
        &SiteConfig::new("mem").with_cache(false),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(&client), &registry);
    stub.register_organization("MEM", "bench").unwrap();
    site.publish(&stub, "MEM", "scripted store").unwrap();
    let parked_gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (base_elapsed, _, _) = timed_pass(&parked_gateway, &client, &query, repeats);
    let base_qps = qps(repeats, base_elapsed);
    let authority = host
        .base_url()
        .strip_prefix("http://")
        .expect("base_url scheme")
        .to_owned();
    let parked: Vec<std::net::TcpStream> = (0..parked_target)
        .map(|_| std::net::TcpStream::connect(&authority).expect("park connection"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while host.open_connections() < parked_target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        host.open_connections() >= parked_target,
        "only {} of {parked_target} parked connections registered",
        host.open_connections()
    );
    let (parked_elapsed, _, _) = timed_pass(&parked_gateway, &client, &query, repeats);
    let parked_qps = qps(repeats, parked_elapsed);
    let retention = parked_qps / base_qps;
    println!(
        "parked:   {repeats} queries at {parked_qps:.1} q/s with {parked_target} idle \
         keep-alive connections on a 4-worker host ({base_qps:.1} q/s unloaded, \
         {retention:.2}x retained)"
    );
    drop(parked);
    entries.push(entry(
        "gateway_fanout/parked_connections",
        parked_target as f64,
        "connections",
    ));
    entries.push(entry(
        "gateway_fanout/parked_host_throughput",
        parked_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/parked_throughput_retention",
        retention,
        "x",
    ));

    // Pass 5: deadline enforcement — a healthy HPL site federated with a
    // stalled one (10 s scans) under a 200 ms query budget. Every query must
    // come back partial near the budget; the stalled site's container should
    // observe the deadline/cancellation so no abandoned scan runs on.
    let deadline_repeats: usize = if std::env::var_os("PPG_QUICK").is_some() {
        4
    } else {
        10
    };
    let stalled = deploy_federation(1, Duration::from_secs(10), Wire::BinaryBatch);
    let deadline_gateway = FederatedGateway::new(
        Arc::clone(&stalled.client),
        stalled.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_call_timeout(Duration::from_millis(200)),
    );
    let mut deadline_elapsed = Duration::ZERO;
    for _ in 0..deadline_repeats {
        let started = Instant::now();
        let result = deadline_gateway.query(&query);
        deadline_elapsed += started.elapsed();
        assert!(
            result.is_partial(),
            "expected partial results under a 200ms budget: {} rows, {:?}",
            result.rows.len(),
            result.errors
        );
        // Let the cancelled leg drain (the cancel aborts it within a few
        // ms) so the next repeat measures a fresh doomed flight instead of
        // coalescing onto this one's tail.
        let drained = Instant::now() + Duration::from_secs(2);
        while deadline_gateway.snapshot().in_flight > 0 && Instant::now() < drained {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let per_query_ms = deadline_elapsed.as_secs_f64() * 1000.0 / deadline_repeats as f64;
    let gateway_deadline_exceeded = deadline_gateway.snapshot().deadline_exceeded;
    // Cancels propagate on detached threads and handlers abort in 5 ms
    // slices; give the stalled container a moment to settle before reading.
    let stalled_host = &stalled.containers[1];
    let settle = Instant::now() + Duration::from_secs(3);
    while Instant::now() < settle {
        let (_, deadline_exceeded, _, cancelled_calls) = stalled_host.context_counters();
        if deadline_exceeded + cancelled_calls >= gateway_deadline_exceeded {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (_, site_deadline_exceeded, cancels_received, cancelled_calls) =
        stalled_host.context_counters();
    println!(
        "deadline: {deadline_repeats} partial answers at {per_query_ms:.0} ms/query under a \
         200ms budget ({gateway_deadline_exceeded} gateway deadline trips; stalled site: \
         {site_deadline_exceeded} deadline-exceeded, {cancels_received} cancels received, \
         {cancelled_calls} calls cancelled)"
    );
    entries.push(entry(
        "gateway_fanout/deadline_partial_latency",
        per_query_ms,
        "ms",
    ));
    entries.push(entry(
        "gateway_fanout/deadline_exceeded_per_query",
        gateway_deadline_exceeded as f64 / deadline_repeats as f64,
        "trips",
    ));
    entries.push(entry(
        "gateway_fanout/stalled_site_deadline_or_cancelled_calls",
        (site_deadline_exceeded + cancelled_calls) as f64,
        "calls",
    ));
    entries.push(entry(
        "gateway_fanout/stalled_site_cancels_received",
        cancels_received as f64,
        "cancels",
    ));

    // Pass 6: invalidation latency — how long after a site's withdrawal the
    // gateway's plan stops including it. Push membership deltas versus the
    // 500 ms plan-cache TTL polling baseline.
    let inval_rounds: usize = if std::env::var_os("PPG_QUICK").is_some() {
        3
    } else {
        5
    };
    let mut push_samples = Vec::new();
    {
        let (client, registry, stub, site, _host) = deploy_withdrawal_fixture();
        let push_gateway = FederatedGateway::new(
            Arc::clone(&client),
            registry.clone(),
            GatewayConfig::default()
                .with_hedging(None)
                // Deliberately enormous: only push can explain a fast
                // withdrawal, never a lucky poll.
                .with_plan_cache(Duration::from_secs(60)),
        );
        for round in 0..inval_rounds {
            if round > 0 {
                site.publish(&stub, "INVAL", "scripted store").unwrap();
            }
            wait_for_sites(&push_gateway, &query, 1);
            let before = push_gateway.snapshot().notify_invalidations;
            let withdrawn_at = Instant::now();
            stub.unregister_service("INVAL", "mem").unwrap();
            let deadline = Instant::now() + Duration::from_secs(2);
            while push_gateway.snapshot().notify_invalidations == before {
                assert!(Instant::now() < deadline, "push invalidation never arrived");
                std::thread::sleep(Duration::from_micros(200));
            }
            push_samples.push(withdrawn_at.elapsed().as_secs_f64() * 1000.0);
        }
    }
    let mut poll_samples = Vec::new();
    {
        let (client, registry, stub, site, _host) = deploy_withdrawal_fixture();
        let poll_gateway = FederatedGateway::new(
            Arc::clone(&client),
            registry.clone(),
            // Default 500 ms plan-cache TTL; push disabled, so the lease
            // diff on the next snapshot refresh is the only detector.
            GatewayConfig::default()
                .with_hedging(None)
                .with_notifications(false),
        );
        for round in 0..inval_rounds {
            if round > 0 {
                site.publish(&stub, "INVAL", "scripted store").unwrap();
            }
            wait_for_sites(&poll_gateway, &query, 1);
            let withdrawn_at = Instant::now();
            stub.unregister_service("INVAL", "mem").unwrap();
            wait_for_sites(&poll_gateway, &query, 0);
            poll_samples.push(withdrawn_at.elapsed().as_secs_f64() * 1000.0);
        }
    }
    let push_inval_ms = median(&mut push_samples);
    let poll_inval_ms = median(&mut poll_samples);
    let inval_speedup = poll_inval_ms / push_inval_ms.max(1e-3);
    println!(
        "invalidation: withdrawn site retired in {push_inval_ms:.1} ms via push vs \
         {poll_inval_ms:.0} ms via 500 ms TTL polling ({inval_speedup:.0}x faster, \
         median of {inval_rounds} rounds)"
    );
    entries.push(entry(
        "gateway_fanout/push_invalidation_latency",
        push_inval_ms,
        "ms",
    ));
    entries.push(entry(
        "gateway_fanout/poll_invalidation_latency",
        poll_inval_ms,
        "ms",
    ));
    entries.push(entry(
        "gateway_fanout/push_invalidation_speedup",
        inval_speedup,
        "x",
    ));

    // Pass 7: range subsumption — sliding windows with 50% overlap over one
    // spanned site. The first sweep pays the wire (misses and narrowed
    // partial fetches); later sweeps land inside segments the cache has
    // already stitched, so they must answer with zero upstream calls.
    let range_fed = deploy_spanned_site(4, 50, Duration::from_millis(2), Wire::BinaryBatch);
    let range_gateway = FederatedGateway::new(
        Arc::clone(&range_fed.client),
        range_fed.registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    let windows: Vec<(String, String)> = (0..9u32)
        .map(|i| ((5 * i).to_string(), (5 * i + 10).to_string()))
        .collect();
    let sweeps = 3;
    let mut range_queries = 0usize;
    let mut range_zero_wire = 0usize;
    let range_started = Instant::now();
    for _ in 0..sweeps {
        for (start, end) in &windows {
            let result = range_gateway.query(&query.clone().over(start.clone(), end.clone()));
            assert!(result.errors.is_empty(), "{:?}", result.errors);
            range_queries += 1;
            if result.upstream_calls == 0 {
                range_zero_wire += 1;
            }
        }
    }
    let range_elapsed = range_started.elapsed();
    let range_hit_rate = range_zero_wire as f64 / range_queries as f64;
    let range_snapshot = range_gateway.snapshot();
    println!(
        "ranges:   {range_queries} sliding-window queries (50% overlap, {sweeps} sweeps) in \
         {range_elapsed:?}: {range_zero_wire} answered with zero wire calls \
         ({:.0}% hit rate; {} range hits, {} partial hits, {} segments, {} cached bytes)",
        range_hit_rate * 100.0,
        range_snapshot.cache_range_hits,
        range_snapshot.cache_partial_hits,
        range_snapshot.cache_segments,
        range_snapshot.cache_bytes
    );
    entries.push(entry(
        "gateway_fanout/range_hit_rate",
        range_hit_rate,
        "ratio",
    ));
    entries.push(entry(
        "gateway_fanout/range_partial_hits",
        range_snapshot.cache_partial_hits as f64,
        "lookups",
    ));
    entries.push(entry(
        "gateway_fanout/range_workload_throughput",
        qps(range_queries, range_elapsed),
        "queries/s",
    ));

    // Pass 8: warm restart — a gateway that spilled its segments to disk is
    // reborn over the same directory and answers its first overlapping query
    // from PPGB frames; a cold twin pays the full scatter against the slow
    // backend. Both timings include planning, so the ratio understates the
    // pure data-path win.
    let spill_dir = std::env::temp_dir().join(format!("ppg-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    std::fs::create_dir_all(&spill_dir).unwrap();
    let warm_fed = deploy_spanned_site(4, 10, Duration::from_millis(30), Wire::BinaryBatch);
    let warm_query = query.clone().over("2", "5");
    let first_life = FederatedGateway::new(
        Arc::clone(&warm_fed.client),
        warm_fed.registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_cache_spill(&spill_dir),
    );
    let primed = first_life.query(&query.clone().over("0", "10"));
    assert!(primed.errors.is_empty(), "{:?}", primed.errors);
    first_life.persist_cache();
    let spill_writes = first_life.snapshot().cache_spill_writes;
    assert!(spill_writes >= 1, "nothing spilled to disk");
    drop(first_life);

    let cold_gateway = FederatedGateway::new(
        Arc::clone(&warm_fed.client),
        warm_fed.registry.clone(),
        GatewayConfig::default().with_hedging(None),
    );
    let cold_started = Instant::now();
    let cold = cold_gateway.query(&warm_query);
    let cold_ms = cold_started.elapsed().as_secs_f64() * 1000.0;
    assert!(cold.errors.is_empty(), "{:?}", cold.errors);
    assert!(cold.upstream_calls > 0);

    let warm_gateway = FederatedGateway::new(
        Arc::clone(&warm_fed.client),
        warm_fed.registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_cache_spill(&spill_dir),
    );
    let warm_started = Instant::now();
    let warm = warm_gateway.query(&warm_query);
    let warm_ms = warm_started.elapsed().as_secs_f64() * 1000.0;
    assert!(warm.errors.is_empty(), "{:?}", warm.errors);
    assert_eq!(
        warm.upstream_calls, 0,
        "warm restart answered over the wire instead of from the spill"
    );
    assert_eq!(warm.total_rows(), cold.total_rows());
    let warm_restart_speedup = cold_ms / warm_ms.max(1e-3);
    println!(
        "restart:  first query after restart: cold {cold_ms:.1} ms vs warm {warm_ms:.1} ms from \
         {spill_writes} spilled segment(s) ({warm_restart_speedup:.1}x, {} spill loads)",
        warm_gateway.snapshot().cache_spill_loads
    );
    let _ = std::fs::remove_dir_all(&spill_dir);
    entries.push(entry(
        "gateway_fanout/cold_restart_first_query_ms",
        cold_ms,
        "ms",
    ));
    entries.push(entry(
        "gateway_fanout/warm_restart_first_query_ms",
        warm_ms,
        "ms",
    ));
    entries.push(entry(
        "gateway_fanout/warm_restart_speedup",
        warm_restart_speedup,
        "x",
    ));

    // Pass 9: the same spanned bulk scan carried two ways. The packed
    // baseline (site at `wireVersion` 2) ships the rows as packed
    // length-prefixed strings in one buffered binary RESPONSE; the
    // interleaved batch stream (a fresh site at `wireVersion` 3) streams
    // the 4-entry batch as entry sections whose row blocks are columnar
    // (front-coded strings, zigzag-varint timestamp deltas). Fresh
    // federations and HttpClients keep the byte counters and the
    // producers' high-water mark honest. The throughput floor is the
    // buffered `batched_throughput` series number from pass 1b; the
    // bytes-per-row floor is this pass's own packed baseline.
    let stream_spans = if std::env::var_os("PPG_QUICK").is_some() {
        800
    } else {
        2000
    };
    let stream_execs = 4usize;
    let stream_rows_per_query = (stream_execs * stream_spans) as u64;
    let packed_fed = deploy_spanned_site(
        stream_execs,
        stream_spans,
        Duration::ZERO,
        Wire::BinaryBatch,
    );
    let packed_gateway = FederatedGateway::new(
        Arc::clone(&packed_fed.client),
        packed_fed.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let (packed_elapsed, _, packed_bytes) =
        timed_pass(&packed_gateway, &packed_fed.client, &query, repeats);
    let packed_qps = qps(repeats, packed_elapsed);
    assert_eq!(
        packed_gateway.snapshot().binary_fallback_calls,
        0,
        "packed baseline downgraded to XML"
    );
    let packed_bpr = packed_bytes as f64 / (repeats as u64 * stream_rows_per_query) as f64;

    let bs_fed = deploy_spanned_site(
        stream_execs,
        stream_spans,
        Duration::ZERO,
        Wire::BatchStream,
    );
    let bs_gateway = FederatedGateway::new(
        Arc::clone(&bs_fed.client),
        bs_fed.registry.clone(),
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None)
            .with_retries(0, Duration::from_millis(5))
            .with_call_timeout(Duration::from_secs(10)),
    );
    let (bs_elapsed, _, bs_bytes) = timed_pass(&bs_gateway, &bs_fed.client, &query, repeats);
    let bs_qps = qps(repeats, bs_elapsed);
    let bs_snapshot = bs_gateway.snapshot();
    assert!(
        bs_snapshot.batch_streams > 0,
        "batch-stream pass never streamed"
    );
    assert_eq!(
        bs_snapshot.batch_stream_fallback_calls, 0,
        "batch-stream pass fell back to buffered"
    );
    assert_eq!(
        bs_snapshot.batch_stream_truncated, 0,
        "a batch stream died mid-scan"
    );
    // Every timed query re-streams the full scan, so bytes/row is the steady
    // state cost of one row on the stream wire (heads and trailers
    // amortized).
    let bs_bpr = bs_bytes as f64 / (repeats as u64 * stream_rows_per_query) as f64;
    let bs_shrink = packed_bpr / bs_bpr.max(1e-9);
    let bs_peak = bs_fed.containers[0].batch_stream_peak_queued();
    // All interleaved entry producers share one in-flight window; each may
    // additionally hold the one frame it is sealing (plus small head/trailer
    // frames), so the bound is window + one frame per entry.
    let bs_peak_bound = (ContainerConfig::default().stream_window_bytes
        + stream_execs * pperf_soap::DEFAULT_STREAM_FRAME_BYTES
        + 1024) as u64;

    println!(
        "batchstream: {}-row batched scans: interleaved {bs_qps:.1} q/s at {bs_bpr:.1} payload \
         B/row vs packed binary {packed_qps:.1} q/s at {packed_bpr:.1} B/row ({bs_shrink:.1}x \
         fewer bytes; floor: buffered batched {batched_qps:.1} q/s; producers peak {bs_peak} B \
         buffered, bound {bs_peak_bound} B)",
        stream_rows_per_query
    );
    entries.push(entry(
        "gateway_fanout/packed_throughput",
        packed_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/packed_bytes_per_row",
        packed_bpr,
        "bytes",
    ));
    entries.push(entry(
        "gateway_fanout/batch_stream_throughput",
        bs_qps,
        "queries/s",
    ));
    entries.push(entry(
        "gateway_fanout/batch_stream_bytes_per_row",
        bs_bpr,
        "bytes",
    ));
    entries.push(entry(
        "gateway_fanout/batch_stream_payload_shrink",
        bs_shrink,
        "x",
    ));
    entries.push(entry(
        "gateway_fanout/batch_stream_peak_buffered",
        bs_peak as f64,
        "bytes",
    ));

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_gateway.json".to_owned());
    std::fs::write(&out, render_json(&entries)).unwrap();
    println!("\nwrote {out}");
    let mut failed = false;
    if speedup < 2.0 {
        eprintln!("WARNING: cached speedup {speedup:.2}x below the 2x acceptance floor");
        failed = true;
    }
    if batched_calls_per_query > 4.0 {
        eprintln!(
            "WARNING: batched pass made {batched_calls_per_query:.1} wire calls/query \
             (acceptance ceiling: 4)"
        );
        failed = true;
    }
    if batch_speedup < 1.5 {
        eprintln!(
            "WARNING: batched throughput {batch_speedup:.2}x over per-call, below the \
             1.5x acceptance floor"
        );
        failed = true;
    }
    if bulk_speedup < 1.3 {
        eprintln!(
            "WARNING: binary bulk throughput {bulk_speedup:.2}x over XML-batch, below the \
             1.3x acceptance floor"
        );
        failed = true;
    }
    if bulk_byte_shrink < 3.0 {
        eprintln!(
            "WARNING: binary payload only {bulk_byte_shrink:.1}x smaller than XML-batch \
             (acceptance floor: 3x fewer bytes)"
        );
        failed = true;
    }
    if range_hit_rate < 0.5 {
        eprintln!(
            "WARNING: range hit rate {range_hit_rate:.2} on the 50%-overlap sliding-window \
             workload, below the 0.5 acceptance floor"
        );
        failed = true;
    }
    if warm_restart_speedup < 3.0 {
        eprintln!(
            "WARNING: warm restart only {warm_restart_speedup:.1}x faster than cold \
             (acceptance floor: 3x)"
        );
        failed = true;
    }
    if bs_shrink < 2.0 {
        eprintln!(
            "WARNING: batch-stream frames only {bs_shrink:.1}x smaller than packed PPGB \
             (acceptance floor: 2x fewer bytes from varint/delta row coding)"
        );
        failed = true;
    }
    if bs_qps < batched_qps {
        eprintln!(
            "WARNING: batch-stream throughput {bs_qps:.1} q/s below the buffered \
             batched_throughput floor of {batched_qps:.1} q/s"
        );
        failed = true;
    }
    if bs_peak > bs_peak_bound {
        eprintln!(
            "WARNING: batch-stream producers buffered {bs_peak} B, above the \
             window-plus-one-frame-per-entry bound of {bs_peak_bound} B"
        );
        failed = true;
    }
    if push_inval_ms > 100.0 {
        eprintln!(
            "WARNING: push invalidation took {push_inval_ms:.1} ms \
             (acceptance floor: well under the 500 ms polling TTL, <= 100 ms)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
