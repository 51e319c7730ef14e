//! The repository benchmark: one closed-loop client drives an in-process
//! PPerfGrid deployment (registry, containers, sites, and a
//! `FederatedGateway` or per-call `ExecutionStub`s) for one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-bulk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` reports the per-layer metrics of a traced run, whose rounds
//! alternate with those of an untraced deployment that gives the tracing
//! overhead and the p99. Every answer is checked against the wrappers' own
//! rows. The last line of standard output is one JSON object; any wrong,
//! partial or failed answer makes the command exit non-zero.

mod layers;
mod probe;
mod trace;
mod workload;

use layers::median;
use probe::{CpuMark, Role};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{covered_ns, Recorder, Span, SCAN};
use workload::{Answer, Data, Fixture, Query};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// An untraced run deploys the workload this many times and measures each
/// deployment in [`ROUNDS_PER_DEPLOYMENT`] consecutive rounds of equal
/// length.
const DEPLOYMENTS: usize = 10;
const ROUNDS_PER_DEPLOYMENT: usize = 6;
/// Untimed queries after set-up, so connection pools, the segment cache and
/// the allocator reach steady state before timing starts.
const WARMUP: Duration = Duration::from_millis(200);
/// The p99 is taken over at least this many queries, so it has at least
/// ten samples beyond it.
const MIN_QUERIES: usize = 1000;
/// A traced run alternates this many rounds of the plain deployment with as
/// many of the decorated one.
const TRACE_ROUNDS: usize = 5;

/// Span name of one client query.
const QUERY: &str = "client.query";

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_query", "us"),
    ("wire_bytes_per_query", "bytes"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
];

/// Span layers of `FederatedResult::trace` (and of a direct call's
/// context) reported as `trace.<layer>_us_per_query`; any other layer
/// lands in `trace.other_us_per_query`.
const TRACE_LAYERS: &[&str] = &[
    "gateway",
    "gateway.batch",
    "gateway.cache",
    "gateway.call",
    "gateway.coalesce",
    "ogsi.batch",
    "ogsi.container",
    "ogsi.stub",
    "pperfgrid.execution",
    "other",
];

/// Per-layer metrics, reported by `--trace 1` (the `trace.<layer>` rows
/// follow from [`TRACE_LAYERS`]).
const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("gateway.plan_us", "us"),
    ("gateway.upstream_calls_per_query", "count"),
    ("gateway.entries_per_upstream_call", "count"),
    ("gateway.worker_cpu_us_per_query", "us"),
    ("gateway.caller_cpu_us_per_query", "us"),
    ("gateway.cache.hit_ratio", "ratio"),
    ("gateway.cache.partial_ratio", "ratio"),
    ("gateway.cache.evictions_per_query", "count"),
    ("gateway.cache.lookup_us", "us"),
    ("gateway.cache.insert_us", "us"),
    ("gateway.coalesced_per_query", "count"),
    ("gateway.hedges_per_query", "count"),
    ("httpd.poll_cpu_us_per_query", "us"),
    ("httpd.worker_cpu_us_per_query", "us"),
    ("httpd.bare_rtt_us", "us"),
    ("httpd.open_connections", "count"),
    ("ogsi.exited_thread_cpu_us_per_query", "us"),
    ("ogsi.other_thread_cpu_us_per_query", "us"),
    ("ogsi.batch_stream_peak_queued_bytes", "bytes"),
    ("ogsi.live_instances", "count"),
    ("soap.frame_encode_ns_per_row", "ns"),
    ("soap.frame_decode_ns_per_row", "ns"),
    ("soap.frame_bytes_per_row", "bytes"),
    ("soap.envelope_us_per_call", "us"),
    ("pperfgrid.mapping_us_per_query", "us"),
    ("pperfgrid.scans_per_query", "count"),
    ("pperfgrid.overhead_share", "ratio"),
    ("minidb.scan_us_per_query", "us"),
    ("process.cpu_us_per_query", "us"),
    ("alloc.count_per_query", "count"),
    ("alloc.bytes_per_query", "bytes"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.traced_qps", "queries/s"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!(
                    "unknown workload {value:?} (known: {})",
                    workload::WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What one measured window saw.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    elapsed_s: f64,
    latencies_ns: Vec<u64>,
    process_cpu_us: f64,
    roles: std::collections::HashMap<Role, f64>,
    wire_bytes: u64,
    plan_ns: Vec<f64>,
    /// Σ `elapsed_us` of the returned trace, by span layer.
    trace_us: BTreeMap<&'static str, u64>,
    allocs: (u64, u64),
    gateway: Option<(
        pperf_gateway::GatewaySnapshot,
        pperf_gateway::GatewaySnapshot,
    )>,
}

impl Window {
    fn qps(&self) -> f64 {
        ratio(self.attempted as f64, self.elapsed_s)
    }

    fn cpu_us_per_query(&self) -> f64 {
        ratio(self.process_cpu_us, self.attempted as f64)
    }

    fn p50_ms(&self) -> f64 {
        percentile_ms(&self.latencies_ns, 0.50)
    }

    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Count the failures (and only those) of a warm-up.
    fn absorb_failures(&mut self, warm: Window) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        if let Some(why) = warm.first_failure {
            self.first_failure.get_or_insert(why);
        }
    }

    /// Fold a later window of the same deployment into this one.
    fn merge(&mut self, later: Window) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        if let Some(why) = later.first_failure {
            self.first_failure.get_or_insert(why);
        }
        self.elapsed_s += later.elapsed_s;
        self.latencies_ns.extend(later.latencies_ns);
        self.process_cpu_us += later.process_cpu_us;
        for (role, us) in later.roles {
            *self.roles.entry(role).or_default() += us;
        }
        self.wire_bytes += later.wire_bytes;
        self.plan_ns.extend(later.plan_ns);
        for (layer, us) in later.trace_us {
            *self.trace_us.entry(layer).or_default() += us;
        }
        self.allocs = (
            self.allocs.0 + later.allocs.0,
            self.allocs.1 + later.allocs.1,
        );
        self.gateway = match (self.gateway.take(), later.gateway) {
            (Some((first, _)), Some((_, last))) => Some((first, last)),
            (mine, theirs) => mine.or(theirs),
        };
    }
}

/// Nearest-rank percentile of latencies in ns, as ms.
fn percentile_ms(latencies_ns: &[u64], p: f64) -> f64 {
    let mut v = latencies_ns.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e6
}

/// Check one answer against the oracle.
fn check(answer: &Answer, expected: &workload::Digest) -> Result<(), String> {
    match answer {
        Answer::Rows(d) if d == expected => Ok(()),
        Answer::Rows(d) => Err(format!(
            "answer of {} rows does not match the expected {} rows",
            d.rows, expected.rows
        )),
        Answer::Failed(e) => Err(e.clone()),
    }
}

/// Untimed queries until [`WARMUP`] has passed. A wrong answer still
/// counts, against `w`.
fn warm_up(fixture: &Fixture, data: &Data, cursor: &mut usize, w: &mut Window) {
    let end = Instant::now() + WARMUP;
    while Instant::now() < end {
        let idx = *cursor % data.queries.len();
        let (answer, _) = fixture.execute(&data.queries[idx], None);
        if let Err(e) = check(&answer, &data.expected[idx]) {
            w.attempted += 1;
            w.note_failure(e);
        }
        *cursor += 1;
    }
}

/// One closed-loop window of at least `length` and `min_queries` queries,
/// continuing the query sequence at `cursor`. With a recorder, each query
/// runs under its own request id and is recorded as a span, and the
/// gateway's plan step is timed beside it.
fn measure(
    fixture: &Fixture,
    data: &Data,
    cursor: &mut usize,
    length: Duration,
    min_queries: usize,
    rec: Option<&Recorder>,
) -> Window {
    let mut w = Window::default();
    let gateway = fixture.gateway.as_ref();
    let snap_before = gateway.map(|g| g.snapshot());
    let bytes_before = fixture.client.payload_bytes();
    let cpu = CpuMark::now();
    if rec.is_some() {
        probe::count_allocations(true);
    }
    let allocs_before = probe::allocations();

    let started = Instant::now();
    let end = started + length;
    loop {
        if Instant::now() >= end && w.latencies_ns.len() >= min_queries {
            break;
        }
        let i = *cursor;
        *cursor += 1;
        let idx = i % data.queries.len();
        let query = &data.queries[idx];
        let ctx = rec.map(|_| ppg_context::CallContext::with_request_id(format!("q{i}")));
        if let (Some(rec), Some(g), Some(ctx), Query::Federated(fq)) = (rec, gateway, &ctx, query) {
            let start = rec.now_ns();
            let t = Instant::now();
            std::hint::black_box(g.planner().plan(fq));
            w.plan_ns.push(t.elapsed().as_nanos() as f64);
            rec.record("gateway.plan", None, ctx.request_id(), start);
        }
        let span_start = rec.map(|r| r.now_ns());
        let t = Instant::now();
        let (answer, spans) = fixture.execute(query, ctx.as_ref());
        w.latencies_ns.push(t.elapsed().as_nanos() as u64);
        if let (Some(rec), Some(ctx), Some(start)) = (rec, &ctx, span_start) {
            rec.record(QUERY, None, ctx.request_id(), start);
            for span in spans {
                let layer = TRACE_LAYERS
                    .iter()
                    .find(|l| **l == span.layer)
                    .copied()
                    .unwrap_or("other");
                *w.trace_us.entry(layer).or_default() += span.elapsed_us;
            }
        }
        w.attempted += 1;
        if let Err(e) = check(&answer, &data.expected[idx]) {
            w.note_failure(e);
        }
    }
    w.elapsed_s = started.elapsed().as_secs_f64();
    let allocs_after = probe::allocations();
    probe::count_allocations(false);
    w.allocs = (
        allocs_after.0 - allocs_before.0,
        allocs_after.1 - allocs_before.1,
    );
    w.process_cpu_us = cpu.process_us();
    w.roles = cpu.by_role();
    let bytes_after = fixture.client.payload_bytes();
    w.wire_bytes = (bytes_after.0 - bytes_before.0) + (bytes_after.1 - bytes_before.1);
    w.gateway = snap_before.zip(gateway.map(|g| g.snapshot()));
    w
}

/// The untraced run: [`DEPLOYMENTS`] fresh deployments, each measured in
/// [`ROUNDS_PER_DEPLOYMENT`] rounds. Returns every round and the set-up
/// times.
fn untraced_rounds(data: &Data, length: Duration) -> Result<(Vec<Window>, Vec<f64>), String> {
    let share = length / (DEPLOYMENTS * ROUNDS_PER_DEPLOYMENT) as u32;
    let mut windows = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..DEPLOYMENTS {
        let t = Instant::now();
        let fixture = Fixture::deploy(data, None)?;
        setups.push(t.elapsed().as_secs_f64());
        let mut cursor = 0;
        let mut warm = Window::default();
        warm_up(&fixture, data, &mut cursor, &mut warm);
        let first = windows.len();
        for _ in 0..ROUNDS_PER_DEPLOYMENT {
            windows.push(measure(&fixture, data, &mut cursor, share, 0, None));
        }
        fixture.teardown();
        windows[first].absorb_failures(warm);
    }
    Ok((windows, setups))
}

/// Median of the best quarter of `values`: the largest when `higher` is
/// better, else the smallest.
fn best_quarter(mut values: Vec<f64>, higher: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if higher {
        values.reverse();
    }
    let quarter = values.len().div_ceil(4);
    median(&mut values[..quarter])
}

/// End-to-end metrics. A shared host's speed drifts by up to 2x over
/// seconds to tens of seconds under other tenants' load, and that only
/// ever slows a measurement down, so each timing is the median of its best
/// quarter: of the rounds' throughputs, p50s and CPU per query, and of the
/// set-up times. Bytes and failures count every round.
fn end_to_end(rounds: &[Window], setups: &[f64]) -> BTreeMap<&'static str, f64> {
    let per_round =
        |f: fn(&Window) -> f64, higher| best_quarter(rounds.iter().map(f).collect(), higher);
    let attempted: u64 = rounds.iter().map(|w| w.attempted).sum();
    let failed: u64 = rounds.iter().map(|w| w.failed).sum();
    let bytes: u64 = rounds.iter().map(|w| w.wire_bytes).sum();
    let n = attempted.max(1) as f64;
    BTreeMap::from([
        ("setup_s", best_quarter(setups.to_vec(), false)),
        ("throughput_qps", per_round(Window::qps, true)),
        ("latency_p50_ms", per_round(Window::p50_ms, false)),
        (
            "cpu_us_per_query",
            per_round(Window::cpu_us_per_query, false),
        ),
        ("wire_bytes_per_query", bytes as f64 / n),
        ("peak_rss_mib", probe::peak_rss_mib()),
        ("success_ratio", (n - failed as f64) / n),
    ])
}

/// The traced run: a plain and a decorated deployment side by side,
/// measured in alternating rounds so both see the same host. Returns the
/// merged plain and traced windows, the traced deployment, and its spans.
fn traced_rounds(
    data: &Data,
    length: Duration,
    rec: &Arc<Recorder>,
) -> Result<(Window, Window, Fixture, Vec<Span>), String> {
    let plain = Fixture::deploy(data, None)?;
    let traced = match Fixture::deploy(data, Some(rec)) {
        Ok(f) => f,
        Err(e) => {
            plain.teardown();
            return Err(e);
        }
    };
    let share = length / (2 * TRACE_ROUNDS) as u32;
    let (mut plain_cursor, mut traced_cursor) = (0, 0);
    let mut reference = Window::default();
    let mut w = Window::default();
    warm_up(&plain, data, &mut plain_cursor, &mut reference);
    warm_up(&traced, data, &mut traced_cursor, &mut w);
    rec.drain(QUERY);
    for _ in 0..TRACE_ROUNDS {
        let min_queries = MIN_QUERIES.div_ceil(TRACE_ROUNDS);
        reference.merge(measure(
            &plain,
            data,
            &mut plain_cursor,
            share,
            min_queries,
            None,
        ));
        w.merge(measure(
            &traced,
            data,
            &mut traced_cursor,
            share,
            0,
            Some(rec),
        ));
    }
    plain.teardown();
    let spans = rec.drain(QUERY);
    Ok((reference, w, traced, spans))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics of the traced window `w` (spans drained from its
/// recorder), its deployment, the microcalls, and the untraced reference
/// window `reference`.
fn per_layer(
    data: &Data,
    fixture: &Fixture,
    w: &Window,
    spans: &[Span],
    reference: &Window,
    rec: &Recorder,
) -> Result<BTreeMap<String, f64>, String> {
    let n = w.attempted.max(1) as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };

    // Gateway counters.
    let (mut upstream, mut entries, mut streams) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses, mut partial, mut evictions) = (0.0, 0.0, 0.0, 0.0);
    let (mut coalesced, mut hedges) = (0.0, 0.0);
    if let Some((a, b)) = &w.gateway {
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        upstream = d(a.upstream_calls, b.upstream_calls);
        entries = d(a.batch_stream_entries, b.batch_stream_entries);
        streams = d(a.batch_streams, b.batch_streams);
        hits = d(a.cache_hits, b.cache_hits);
        misses = d(a.cache_misses, b.cache_misses);
        partial = d(a.cache_partial_hits, b.cache_partial_hits);
        evictions = d(a.cache_evictions, b.cache_evictions);
        coalesced = d(a.coalesced, b.coalesced);
        hedges = d(a.hedges_fired, b.hedges_fired);
    }
    put("gateway.plan_us", median(&mut w.plan_ns.clone()) / 1e3);
    put("gateway.upstream_calls_per_query", upstream / n);
    put("gateway.entries_per_upstream_call", ratio(entries, streams));
    put("gateway.cache.hit_ratio", ratio(hits, hits + misses));
    put("gateway.cache.partial_ratio", ratio(partial, hits + misses));
    put("gateway.cache.evictions_per_query", evictions / n);
    put("gateway.coalesced_per_query", coalesced / n);
    put("gateway.hedges_per_query", hedges / n);

    // CPU by thread role.
    let role = |r: Role| w.roles.get(&r).copied().unwrap_or(0.0) / n;
    put("gateway.worker_cpu_us_per_query", role(Role::GatewayWorker));
    put("gateway.caller_cpu_us_per_query", role(Role::Client));
    put("httpd.poll_cpu_us_per_query", role(Role::HttpdPoll));
    put("httpd.worker_cpu_us_per_query", role(Role::HttpdWorker));
    put("ogsi.exited_thread_cpu_us_per_query", role(Role::Exited));
    put("ogsi.other_thread_cpu_us_per_query", role(Role::OtherLive));
    put("process.cpu_us_per_query", w.process_cpu_us / n);

    // Deployment gauges at the end of the window.
    let containers = &fixture.containers;
    put(
        "httpd.open_connections",
        containers
            .iter()
            .map(|c| c.open_connections())
            .sum::<usize>() as f64,
    );
    put(
        "ogsi.live_instances",
        containers.iter().map(|c| c.live_instances()).sum::<usize>() as f64,
    );
    put(
        "ogsi.batch_stream_peak_queued_bytes",
        containers
            .iter()
            .map(|c| c.batch_stream_peak_queued())
            .max()
            .unwrap_or(0) as f64,
    );

    // Mapping Layer, from the decorator's scan spans joined to their query.
    let queries: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == QUERY)
        .map(|s| (s.id, s))
        .collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == SCAN) {
        if let Some(parent) = s.parent.filter(|p| queries.contains_key(p)) {
            children.entry(parent).or_default().push(s);
        }
    }
    let scans: Vec<&Span> = children.values().flatten().copied().collect();
    let mapping_ns: u64 = scans.iter().map(|s| s.work_ns()).sum();
    let minidb_ns: u64 = scans
        .iter()
        .filter(|s| s.site == "hpl")
        .map(|s| s.work_ns())
        .sum();
    let (mut total_ns, mut overhead_ns) = (0u64, 0u64);
    for (id, q) in &queries {
        let covered = children.get(id).map_or(0, |c| {
            covered_ns(c.iter().map(|s| (s.start_ns, s.end_ns)).collect())
        });
        total_ns += q.duration_ns();
        overhead_ns += q.duration_ns().saturating_sub(covered);
    }
    put(
        "pperfgrid.mapping_us_per_query",
        mapping_ns as f64 / 1e3 / n,
    );
    put("pperfgrid.scans_per_query", scans.len() as f64 / n);
    put(
        "pperfgrid.overhead_share",
        ratio(overhead_ns as f64, total_ns as f64),
    );
    put("minidb.scan_us_per_query", minidb_ns as f64 / 1e3 / n);

    for layer in TRACE_LAYERS {
        let us = w.trace_us.get(layer).copied().unwrap_or(0);
        put(&format!("trace.{layer}_us_per_query"), us as f64 / n);
    }
    put("alloc.count_per_query", w.allocs.0 as f64 / n);
    put("alloc.bytes_per_query", w.allocs.1 as f64 / n);
    put("trace.traced_qps", w.qps());
    put(
        "latency_p99_ms",
        percentile_ms(&reference.latencies_ns, 0.99),
    );
    put("trace.throughput_ratio", ratio(w.qps(), reference.qps()));
    put("error_rate", w.failed as f64 / n);

    // Microcalls on the workload's own rows.
    let row_sets = data.sample_rows();
    let all_rows: Vec<String> = row_sets.iter().flatten().cloned().collect();
    let (enc, dec, bytes) = layers::frame_codec(rec, &all_rows)?;
    put("soap.frame_encode_ns_per_row", enc);
    put("soap.frame_decode_ns_per_row", dec);
    put("soap.frame_bytes_per_row", bytes);
    put(
        "soap.envelope_us_per_call",
        layers::envelope(rec, &row_sets)?,
    );
    let base = containers.first().ok_or("no container")?.base_url();
    put("httpd.bare_rtt_us", layers::bare_rtt(rec, &base)?);
    let (lookup, insert) = match data.cache_budget {
        Some(budget) => layers::segment_cache(rec, data, budget)?,
        None => (0.0, 0.0),
    };
    put("gateway.cache.lookup_us", lookup);
    put("gateway.cache.insert_us", insert);
    Ok(m)
}

/// Render the result line. Units come from the metric tables.
fn render(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    out.extend(
        TRACE_LAYERS
            .iter()
            .map(|l| (format!("trace.{l}_us_per_query"), "us")),
    );
    out
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let name = args.workload.name;
    eprintln!("perfbench: {name} — {}", args.workload.why);
    let data = Data::build(args.workload.kind, args.seed)?;
    let seconds = Duration::from_secs(args.seconds);
    let (attempted, failed, first_failure, metrics, round_qps) = if !args.trace {
        let (rounds, setups) = untraced_rounds(&data, seconds)?;
        let values = end_to_end(&rounds, &setups);
        let metrics: Vec<(String, &str, f64)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u, values[n]))
            .collect();
        (
            rounds.iter().map(|w| w.attempted).sum(),
            rounds.iter().map(|w| w.failed).sum(),
            rounds.iter().find_map(|w| w.first_failure.clone()),
            metrics,
            rounds.iter().map(Window::qps).collect::<Vec<_>>(),
        )
    } else {
        let rec = Recorder::new();
        let (reference, w, fixture, spans) = traced_rounds(&data, seconds, &rec)?;
        let values = per_layer(&data, &fixture, &w, &spans, &reference, &rec);
        fixture.teardown();
        let values = values?;
        let mut all_spans = spans;
        all_spans.extend(rec.drain(QUERY));
        let out = std::path::PathBuf::from(".perfbench-out")
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        trace::write_spans(&out, &all_spans).map_err(|e| format!("write spans: {e}"))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            all_spans.len(),
            out.display()
        );
        let metrics: Vec<(String, &str, f64)> = per_layer_units()
            .into_iter()
            .map(|(n, u)| {
                let v = values.get(&n).copied().unwrap_or(f64::NAN);
                (n, u, v)
            })
            .collect();
        if let Some((n, _, _)) = metrics.iter().find(|(_, _, v)| v.is_nan()) {
            return Err(format!("per-layer metric {n} was not computed"));
        }
        let failure = reference.first_failure.clone().or(w.first_failure.clone());
        (
            reference.attempted + w.attempted,
            reference.failed + w.failed,
            failure,
            metrics,
            vec![reference.qps(), w.qps()],
        )
    };
    for (n, u, v) in &metrics {
        eprintln!("  {n:<42} {v:>14.4} {u}");
    }
    eprintln!("perfbench: throughput by round {round_qps:.1?}");
    if let Some(why) = &first_failure {
        eprintln!("perfbench: {failed} of {attempted} answers wrong; first: {why}");
    }
    let correct = failed == 0;
    Ok((correct, render(correct, attempted, failed, &metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
