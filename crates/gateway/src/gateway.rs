//! The federated gateway orchestrator.
//!
//! One [`FederatedGateway::query`] call runs the full scatter-gather:
//!
//! 1. **Plan** — snapshot the Registry, bind Application instances, expand
//!    to per-Execution `getPR` targets ([`crate::plan::Planner`]).
//! 2. **Scatter** — submit one job per target to the bounded worker pool,
//!    under per-site concurrency permits, with retry + exponential backoff.
//! 3. **Coalesce** — identical in-flight `getPR` tuples share one upstream
//!    call ([`crate::coalesce::SingleFlight`]); completed results populate a
//!    shared semantic segment cache ([`crate::cache::SegmentCache`]) checked
//!    before any job is submitted. A cached wider window answers a narrower
//!    one; a partially covered window narrows the upstream fetch to just the
//!    missing sub-range and merges it with the cached prefix.
//! 4. **Hedge** — a target that hasn't answered by `hedge_after` (or whose
//!    primary fails outright) is retried against a replica instance on a
//!    different host; the first answer wins.
//! 5. **Gather** — a per-call deadline turns a silent site into a structured
//!    [`SiteError`] while every surviving site's rows are still returned.

use crate::cache::{self, Lookup, SegmentCache, SegmentCacheConfig};
use crate::coalesce::{Flight, FlightOutcome, FlightResult, FlightRows, SingleFlight, Token};
use crate::plan::{ExecTarget, Planner, SitePlan};
use crate::pool::{SiteLimiter, WorkerPool};
use crate::query::{FederatedQuery, FederatedResult, SiteError, SiteErrorKind, SiteRows};
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use pperf_httpd::{HttpClient, Request};
use pperf_ogsi::{force_xml, BatchStreamEntryOutcome, Gsh, OgsiError, ServiceStub, Wire};
use pperf_soap::{BatchEntry, Fault};
use pperfgrid::{row_time_span, ExecutionStub, PrQuery, EXECUTION_NS};
use ppg_context::CallContext;
use ppg_notify::{
    Event, NotificationSink, NotifyError, SinkConfig, SinkHandler, TOPIC_CACHE_INVALIDATE,
    TOPIC_REGISTRY_MEMBERS,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Where a fetched result should land in the segment cache: the series
/// and the window the fetch covers (the *narrowed* window for a partial-
/// coverage fetch). `None` when the cache is disabled or the query's time
/// bounds don't parse.
#[derive(Debug, Clone)]
struct CacheFill {
    series: String,
    window: (f64, f64),
}

/// One uncached slot still awaiting a wire call after the cache probe:
/// the target, the (possibly narrowed) getPR tuple, where to cache the
/// fetch, and any cache-covered prefix rows to merge into the answer.
type UncachedSlot<'a> = (
    &'a ExecTarget,
    Arc<PrQuery>,
    Option<CacheFill>,
    Option<Arc<Vec<String>>>,
);

/// One member of a batched wire call: original target index, Execution
/// instance, getPR tuple, and where to cache the fetch.
type BatchMember = (usize, Gsh, Arc<PrQuery>, Option<CacheFill>);

/// A batch member that won its single-flight group and must ride the wire,
/// carrying the coalescing token it will publish the outcome through.
type BatchLeader = (usize, Gsh, Arc<PrQuery>, Option<CacheFill>, Token);

/// Render one window bound back to the wire's string form (empty string
/// for an unbounded side). `f64` Display round-trips through
/// [`PrQuery::time_window`] exactly.
fn fmt_time(t: f64) -> String {
    if t.is_infinite() {
        String::new()
    } else {
        format!("{t}")
    }
}

/// Merge cache-covered prefix rows with a narrowed fetch, deduping by row
/// text (the boundary instant appears in both).
fn merge_prefix(prefix: &[String], fetched: &[String]) -> Arc<Vec<String>> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(prefix.len() + fetched.len());
    let mut merged: Vec<String> = Vec::with_capacity(prefix.len() + fetched.len());
    for row in prefix.iter().chain(fetched.iter()) {
        if seen.insert(row.as_str()) {
            merged.push(row.clone());
        }
    }
    Arc::new(merged)
}

/// Tuning knobs for the gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads in the scatter pool.
    pub workers: usize,
    /// Max concurrent upstream calls per site.
    pub per_site_concurrency: usize,
    /// Default whole-query deadline budget, applied when the caller's
    /// [`CallContext`] carries none. Targets still pending at the deadline
    /// yield `Timeout` site errors and their legs are cancelled.
    pub call_timeout: Duration,
    /// Fire a hedge request against a replica host after this long without
    /// an answer; `None` disables hedging entirely.
    pub hedge_after: Option<Duration>,
    /// Retries per upstream call on transport errors.
    pub retries: u32,
    /// Base backoff between retries (doubles per attempt).
    pub backoff: Duration,
    /// Shared result cache on/off.
    pub cache_enabled: bool,
    /// Shared result cache capacity (segments; a backstop against many
    /// tiny segments — the byte budget is the real capacity control).
    pub cache_capacity: usize,
    /// Shared result cache entry lifetime.
    pub cache_ttl: Duration,
    /// Shared result cache byte budget (admission control rejects
    /// segments over a quarter of it).
    pub cache_max_bytes: usize,
    /// Spill directory for evicted-but-fresh cache segments (PPGB kind-5
    /// frames, one per file). A gateway restarted over a populated spill
    /// directory rehydrates warm. `None` disables spill.
    pub cache_spill_dir: Option<PathBuf>,
    /// Byte budget for the spill directory (oldest files dropped beyond).
    pub cache_spill_max_bytes: u64,
    /// How long a registry snapshot may be reused by the planner before the
    /// two snapshot wire calls are repeated. `Duration::ZERO` disables the
    /// snapshot cache.
    pub plan_cache_ttl: Duration,
    /// Subscribe to the push notification plane: registry membership deltas
    /// invalidate the planner snapshot the moment they happen (instead of
    /// waiting out `plan_cache_ttl`), and per-site invalidation events drop
    /// cached results ahead of their TTL. Sites that don't speak the plane
    /// silently stay on TTL polling, as does everything when this is off.
    pub notifications_enabled: bool,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            workers: 8,
            per_site_concurrency: 4,
            call_timeout: Duration::from_secs(10),
            hedge_after: Some(Duration::from_millis(250)),
            retries: 1,
            backoff: Duration::from_millis(25),
            cache_enabled: true,
            cache_capacity: 1024,
            cache_ttl: Duration::from_secs(30),
            cache_max_bytes: 32 << 20,
            cache_spill_dir: None,
            cache_spill_max_bytes: 256 << 20,
            plan_cache_ttl: Duration::from_millis(500),
            notifications_enabled: true,
        }
    }
}

impl GatewayConfig {
    /// Set the scatter pool size.
    pub fn with_workers(mut self, workers: usize) -> GatewayConfig {
        self.workers = workers;
        self
    }

    /// Set the per-site concurrency limit.
    pub fn with_per_site_concurrency(mut self, limit: usize) -> GatewayConfig {
        self.per_site_concurrency = limit;
        self
    }

    /// Set the per-target deadline.
    pub fn with_call_timeout(mut self, timeout: Duration) -> GatewayConfig {
        self.call_timeout = timeout;
        self
    }

    /// Set (or disable, with `None`) the hedge delay.
    pub fn with_hedging(mut self, hedge_after: Option<Duration>) -> GatewayConfig {
        self.hedge_after = hedge_after;
        self
    }

    /// Set the retry count and base backoff.
    pub fn with_retries(mut self, retries: u32, backoff: Duration) -> GatewayConfig {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    /// Toggle the shared result cache.
    pub fn with_cache(mut self, enabled: bool) -> GatewayConfig {
        self.cache_enabled = enabled;
        self
    }

    /// Set the shared result cache geometry.
    pub fn with_cache_geometry(mut self, capacity: usize, ttl: Duration) -> GatewayConfig {
        self.cache_capacity = capacity;
        self.cache_ttl = ttl;
        self
    }

    /// Set the shared result cache byte budget.
    pub fn with_cache_budget(mut self, max_bytes: usize) -> GatewayConfig {
        self.cache_max_bytes = max_bytes;
        self
    }

    /// Set the cache spill directory (warm-restart persistence).
    pub fn with_cache_spill(mut self, dir: impl Into<PathBuf>) -> GatewayConfig {
        self.cache_spill_dir = Some(dir.into());
        self
    }

    /// Set (or disable, with `Duration::ZERO`) the planner's registry
    /// snapshot cache TTL.
    pub fn with_plan_cache(mut self, ttl: Duration) -> GatewayConfig {
        self.plan_cache_ttl = ttl;
        self
    }

    /// Toggle push-notification subscriptions (event-driven invalidation).
    pub fn with_notifications(mut self, enabled: bool) -> GatewayConfig {
        self.notifications_enabled = enabled;
        self
    }
}

/// Rolling latency/error accounting for one site.
#[derive(Debug, Clone, Default)]
pub struct SiteLatency {
    /// Completed upstream-facing calls (including coalesced waits).
    pub calls: u64,
    /// How many of them failed.
    pub errors: u64,
    /// Sum of call latencies.
    pub total: Duration,
    /// Latency of the most recent call.
    pub last: Duration,
}

impl SiteLatency {
    /// Mean latency over all recorded calls.
    pub fn avg(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }
}

struct Stats {
    queries: AtomicU64,
    upstream: AtomicU64,
    hedges_fired: AtomicU64,
    hedge_wins: AtomicU64,
    /// Legs cancelled because their sibling won the hedge race.
    hedges_cancelled: AtomicU64,
    /// Targets abandoned (and site errors reported) because the query
    /// deadline budget ran out.
    deadline_exceeded: AtomicU64,
    /// Sites whose cached results were dropped after their registry lease
    /// expired or they republished — detected by TTL polling (snapshot
    /// refresh diff).
    lease_invalidations: AtomicU64,
    /// Invalidations driven by push notifications (registry membership
    /// deltas and per-site `cache.invalidate` events), counted separately
    /// from the TTL-expiry path above.
    notify_invalidations: AtomicU64,
    /// Buffered PPGB binary batch exchanges that carried a batch.
    batched_calls: AtomicU64,
    /// getPR entries that rode those buffered batches.
    batch_entries: AtomicU64,
    /// Per-call getPR calls issued against batch-capable sites (a
    /// singleton group or a hedge leg below wire version 3, or any target
    /// under `PPG_FORCE_XML=1`).
    batch_fallback: AtomicU64,
    /// Binary batch attempts the peer did not speak (it answered 404,
    /// non-binary, or a corrupt frame): the batch's entries failed as site
    /// faults and the authority is served per-call from then on.
    binary_fallbacks: AtomicU64,
    /// Batched wire requests consumed as interleaved batch streams.
    batch_streams: AtomicU64,
    /// getPR entries that rode those batch streams.
    batch_stream_entries: AtomicU64,
    /// Batch-stream entries that died after delivering rows but before
    /// their trailer — surfaced as partial results with a `Truncated`
    /// site error, siblings unaffected.
    batch_stream_truncated: AtomicU64,
    /// Batch-stream attempts stepped down to the binary batch (the peer
    /// answered 404, a non-stream head, or a corrupt frame before rows).
    batch_stream_fallbacks: AtomicU64,
    in_flight: AtomicI64,
    sites: Mutex<HashMap<String, SiteLatency>>,
}

impl Stats {
    fn record_site(&self, site: &str, latency: Duration, failed: bool) {
        let mut sites = self.sites.lock();
        let entry = sites.entry(site.to_owned()).or_default();
        entry.calls += 1;
        entry.errors += u64::from(failed);
        entry.total += latency;
        entry.last = latency;
    }
}

/// A point-in-time view of the gateway's counters (also published as
/// service data by [`crate::service::FederatedQueryService`]).
#[derive(Debug, Clone)]
pub struct GatewaySnapshot {
    /// Federated queries served.
    pub queries: u64,
    /// Upstream `getPR` calls performed (lifetime).
    pub upstream_calls: u64,
    /// Shared-cache hits.
    pub cache_hits: u64,
    /// Shared-cache misses.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Hits answered by range containment or stitching rather than an
    /// exact window repeat.
    pub cache_range_hits: u64,
    /// Lookups partially covered by cache (the fetch was narrowed to the
    /// missing sub-range; also counted in `cache_misses`).
    pub cache_partial_hits: u64,
    /// Segments evicted under budget pressure.
    pub cache_evictions: u64,
    /// Live in-memory cache segments.
    pub cache_segments: u64,
    /// Bytes held by live cache segments.
    pub cache_bytes: u64,
    /// Segments spilled to disk (eviction or [`FederatedGateway::persist_cache`]).
    pub cache_spill_writes: u64,
    /// Segments rehydrated from the spill directory.
    pub cache_spill_loads: u64,
    /// Callers coalesced onto another caller's in-flight call.
    pub coalesced: u64,
    /// Target calls currently in flight.
    pub in_flight: i64,
    /// Hedge requests fired.
    pub hedges_fired: u64,
    /// Hedge requests that answered before their primary.
    pub hedge_wins: u64,
    /// Legs cancelled because their sibling won the hedge race.
    pub hedges_cancelled: u64,
    /// Targets abandoned because the query deadline budget ran out.
    pub deadline_exceeded: u64,
    /// Sites invalidated after a registry lease expiry or republish,
    /// detected by TTL polling.
    pub lease_invalidations: u64,
    /// Invalidations driven by push notifications (membership deltas,
    /// per-site cache invalidation events).
    pub notify_invalidations: u64,
    /// Push subscriptions currently connected (registry + sites).
    pub notify_subscriptions: u64,
    /// Events delivered over those subscriptions (lifetime).
    pub notify_events: u64,
    /// Poll-fallback resyncs after sequence gaps on those subscriptions.
    pub notify_resyncs: u64,
    /// Buffered PPGB binary batch exchanges that carried a batch.
    pub batched_calls: u64,
    /// getPR entries that rode those buffered batches.
    pub batch_entries: u64,
    /// Per-call getPR calls issued against batch-capable sites (a
    /// singleton group or a hedge leg below wire version 3, or any target
    /// under `PPG_FORCE_XML=1`).
    pub batch_fallback_calls: u64,
    /// Binary batch attempts the peer did not speak; their entries failed
    /// as site faults and the authority went per-call.
    pub binary_fallback_calls: u64,
    /// Batched wire requests consumed as interleaved batch streams.
    pub batch_streams: u64,
    /// getPR entries that rode those batch streams.
    pub batch_stream_entries: u64,
    /// Batch-stream entries that died after delivering rows but before
    /// their trailer (partial results, `Truncated` site errors).
    pub batch_stream_truncated: u64,
    /// Batch-stream attempts stepped down to the binary batch.
    pub batch_stream_fallback_calls: u64,
    /// Registry-snapshot cache hits in the planner.
    pub plan_snapshot_hits: u64,
    /// Registry-snapshot refreshes (actual wire snapshots) in the planner.
    pub plan_snapshot_refreshes: u64,
    /// Per-site latency/error accounting, sorted by site label.
    pub per_site: Vec<(String, SiteLatency)>,
}

struct Inner {
    config: GatewayConfig,
    client: Arc<HttpClient>,
    planner: Planner,
    limiter: Arc<SiteLimiter>,
    cache: SegmentCache,
    /// Which cache series keys belong to which site, so a lease
    /// invalidation can drop exactly that site's entries.
    site_keys: Mutex<HashMap<String, HashSet<String>>>,
    flights: Arc<SingleFlight>,
    stats: Stats,
    notify: NotifyState,
    /// The newest wire each container authority proved it speaks, learned
    /// when an exchange had to step down past a stale `wireVersion`: later
    /// batches open on the remembered rung instead of re-paying the failed
    /// attempt.
    wire_downgrades: Mutex<HashMap<String, Wire>>,
}

impl Inner {
    /// The wire traffic to `authority` opens with: the site's advertised
    /// wire, capped at per-call SOAP under `PPG_FORCE_XML=1` and by any
    /// step-down remembered for the authority.
    fn wire_for(&self, advertised: Wire, authority: &str) -> Wire {
        if force_xml() {
            return Wire::PerCall;
        }
        let mut wire = advertised;
        if let Some(&known) = self.wire_downgrades.lock().get(authority) {
            wire = wire.min(known);
        }
        wire
    }

    /// Remember that `authority` needed `wire` or older.
    fn remember_downgrade(&self, authority: &str, wire: Wire) {
        let mut downgrades = self.wire_downgrades.lock();
        let known = downgrades.entry(authority.to_owned()).or_insert(wire);
        *known = (*known).min(wire);
    }

    /// Store fetched rows in the segment cache and index the series under
    /// `site` (so a lease invalidation can drop it).
    fn fill_cache(&self, site: &str, series: &str, window: (f64, f64), rows: Arc<Vec<String>>) {
        self.cache.insert(series, window, rows);
        self.site_keys
            .lock()
            .entry(site.to_owned())
            .or_default()
            .insert(series.to_owned());
    }
}

/// The gateway's push subscriptions (empty when notifications are off).
#[derive(Default)]
struct NotifyState {
    /// Push connection to the registry's container (`registry.members`).
    registry_sink: Mutex<Option<NotificationSink>>,
    /// Per-site push connections keyed by factory authority
    /// (`cache.invalidate` + `service.data`).
    site_sinks: Mutex<HashMap<String, NotificationSink>>,
    /// Authorities that answered subscribe with a non-200: legacy sites.
    /// The gateway silently stays on TTL polling for them.
    unsupported: Mutex<HashSet<String>>,
}

impl NotifyState {
    /// `(connected, events_received, resyncs)` across every sink.
    fn counters(&self) -> (u64, u64, u64) {
        let mut connected = 0u64;
        let mut events = 0u64;
        let mut resyncs = 0u64;
        let mut tally = |sink: &NotificationSink| {
            connected += u64::from(sink.is_connected());
            let c = sink.counters();
            events += c.events_received;
            resyncs += c.resyncs;
        };
        if let Some(sink) = self.registry_sink.lock().as_ref() {
            tally(sink);
        }
        for sink in self.site_sinks.lock().values() {
            tally(sink);
        }
        (connected, events, resyncs)
    }
}

/// Drop one site's cached results. Returns whether anything was dropped.
fn drop_site_cache(inner: &Inner, site: &str) -> bool {
    match inner.site_keys.lock().remove(site) {
        Some(keys) => {
            for key in keys {
                inner.cache.remove(&key);
            }
            true
        }
        None => false,
    }
}

/// Registry-membership push events: any delta retires the planner snapshot
/// immediately (the poll path would serve it for up to `plan_cache_ttl`);
/// withdrawals additionally drop the site's cached results and binding.
struct RegistryEvents {
    inner: Weak<Inner>,
}

impl RegistryEvents {
    /// Missed deltas (sequence gap or lost connection): fall back to a poll
    /// resync — distrust the snapshot and let the next plan re-read the
    /// registry.
    fn resync(&self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.planner.invalidate_snapshot();
        }
    }
}

impl SinkHandler for RegistryEvents {
    fn on_event(&self, event: &Event) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        if event.topic != TOPIC_REGISTRY_MEMBERS {
            return;
        }
        inner.planner.invalidate_snapshot();
        let mut parts = event.payload.splitn(3, '|');
        let op = parts.next().unwrap_or("");
        let site = parts.next().unwrap_or("");
        if matches!(op, "unregister" | "expire") && !site.is_empty() {
            inner.planner.unbind_site(site);
            drop_site_cache(&inner, site);
            inner
                .stats
                .notify_invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_gap(&self, _topic: &str, _expected: u64, _got: u64) {
        self.resync();
    }

    fn on_disconnect(&self) {
        self.resync();
    }
}

/// Per-site push events: a `cache.invalidate` for an instance path drops
/// exactly the cached results bound to that instance.
struct SiteEvents {
    inner: Weak<Inner>,
    /// The site container's `host:port`, used to reconstruct instance URLs.
    authority: String,
}

impl SinkHandler for SiteEvents {
    fn on_event(&self, event: &Event) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        if event.topic != TOPIC_CACHE_INVALIDATE {
            return;
        }
        // Cache series keys are `<instance url>::<window-blanked tuple>`;
        // the event carries the instance path on this authority.
        let prefix = format!("http://{}{}::", self.authority, event.payload);
        let mut dropped = false;
        let mut site_keys = inner.site_keys.lock();
        for keys in site_keys.values_mut() {
            keys.retain(|key| {
                if key.starts_with(&prefix) {
                    inner.cache.remove(key);
                    dropped = true;
                    false
                } else {
                    true
                }
            });
        }
        drop(site_keys);
        if dropped {
            inner
                .stats
                .notify_invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_gap(&self, _topic: &str, _expected: u64, _got: u64) {
        // Events were dropped: any of this site's cached results may be
        // stale. Drop the whole authority's keys (every site label may map
        // here, so clear by prefix).
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        let prefix = format!("http://{}/", self.authority);
        let mut site_keys = inner.site_keys.lock();
        for keys in site_keys.values_mut() {
            keys.retain(|key| {
                if key.starts_with(&prefix) {
                    inner.cache.remove(key);
                    false
                } else {
                    true
                }
            });
        }
    }
}

/// The federation front door: one of these serves any number of concurrent
/// [`FederatedQuery`]s over a shared pool, cache, and single-flight group.
pub struct FederatedGateway {
    inner: Arc<Inner>,
    pool: WorkerPool,
}

/// One target's call state during a gather.
struct PendingTarget {
    site: String,
    target: ExecTarget,
    /// The `getPR` tuple this slot fetches (queries with `extra_metrics`
    /// expand each target to several slots, one per tuple) — already
    /// narrowed to the missing sub-range on a partial cache hit.
    pr: Arc<PrQuery>,
    /// Where the fetched rows land in the segment cache.
    cache_fill: Option<CacheFill>,
    /// Cache-covered rows to merge in front of a narrowed fetch's answer.
    prefix_rows: Option<Arc<Vec<String>>>,
    deadline: Instant,
    hedge_at: Option<Instant>,
    hedge_fired: bool,
    primary_failed: bool,
    hedge_failed: bool,
    done: bool,
    /// The primary leg shares its context with sibling entries of a batch
    /// of two or more, so cancelling it would kill them too. A batch of one
    /// is cancelled like a per-call leg.
    shared: bool,
    /// The newest wire the target's site advertises; the hedge leg opens
    /// on it (capped per authority like any batch).
    site_wire: Wire,
    /// The primary leg's context (cancelled if the hedge wins or the
    /// deadline expires while it is still out).
    primary_ctx: CallContext,
    /// The hedge leg's context, once fired.
    hedge_ctx: Option<CallContext>,
}

struct Outcome {
    idx: usize,
    hedged: bool,
    result: FlightResult,
}

fn classify(error: &OgsiError) -> (SiteErrorKind, bool) {
    match error {
        OgsiError::Transport(_) => (SiteErrorKind::Unreachable, true),
        // A budget that ran out locally, a server that rejected the call as
        // past-deadline, and a cancelled leg are all deadline conditions —
        // and never retryable (the budget only shrinks).
        OgsiError::DeadlineExceeded(_) => (SiteErrorKind::Timeout, false),
        OgsiError::Fault(f) if f.is_deadline_exceeded() || f.is_cancelled() => {
            (SiteErrorKind::Timeout, false)
        }
        _ => (SiteErrorKind::Fault, false),
    }
}

impl FederatedGateway {
    /// A gateway federating the sites registered at `registry`.
    pub fn new(
        client: Arc<HttpClient>,
        registry: Gsh,
        config: GatewayConfig,
    ) -> Arc<FederatedGateway> {
        let planner = Planner::new(
            Arc::clone(&client),
            registry,
            config.hedge_after.is_some(),
            config.plan_cache_ttl,
        );
        let pool = WorkerPool::new(config.workers);
        let inner = Inner {
            limiter: SiteLimiter::new(config.per_site_concurrency),
            cache: SegmentCache::new(SegmentCacheConfig {
                max_segments: config.cache_capacity,
                max_bytes: config.cache_max_bytes,
                ttl: config.cache_ttl,
                spill_dir: config.cache_spill_dir.clone(),
                spill_max_bytes: config.cache_spill_max_bytes,
            }),
            site_keys: Mutex::new(HashMap::new()),
            flights: SingleFlight::new(),
            stats: Stats {
                queries: AtomicU64::new(0),
                upstream: AtomicU64::new(0),
                hedges_fired: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                hedges_cancelled: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                lease_invalidations: AtomicU64::new(0),
                notify_invalidations: AtomicU64::new(0),
                batched_calls: AtomicU64::new(0),
                batch_entries: AtomicU64::new(0),
                batch_fallback: AtomicU64::new(0),
                binary_fallbacks: AtomicU64::new(0),
                batch_streams: AtomicU64::new(0),
                batch_stream_entries: AtomicU64::new(0),
                batch_stream_truncated: AtomicU64::new(0),
                batch_stream_fallbacks: AtomicU64::new(0),
                in_flight: AtomicI64::new(0),
                sites: Mutex::new(HashMap::new()),
            },
            planner,
            client,
            config,
            notify: NotifyState::default(),
            wire_downgrades: Mutex::new(HashMap::new()),
        };
        let gateway = Arc::new(FederatedGateway {
            inner: Arc::new(inner),
            pool,
        });
        gateway.ensure_registry_subscription();
        gateway
    }

    /// Subscribe to the registry container's membership deltas, once. A
    /// non-notifying (legacy) registry is remembered and the gateway stays
    /// on TTL polling; transient failures retry on the next query.
    fn ensure_registry_subscription(&self) {
        let inner = &self.inner;
        if !inner.config.notifications_enabled {
            return;
        }
        let authority = inner.planner.registry_authority();
        if inner.notify.registry_sink.lock().is_some()
            || inner.notify.unsupported.lock().contains(&authority)
        {
            return;
        }
        let handler = Arc::new(RegistryEvents {
            inner: Arc::downgrade(inner),
        });
        let config = SinkConfig {
            topics: vec![TOPIC_REGISTRY_MEMBERS.to_owned()],
            ..SinkConfig::default()
        };
        match NotificationSink::connect(&authority, config, handler) {
            Ok(sink) => *inner.notify.registry_sink.lock() = Some(sink),
            Err(NotifyError::Unsupported(_)) => {
                inner.notify.unsupported.lock().insert(authority);
            }
            Err(_) => {} // transient; retried on the next query
        }
    }

    /// Subscribe to each planned site's invalidation events, once per
    /// container authority. Legacy sites (subscribe answered non-200) are
    /// remembered and silently stay on TTL polling.
    fn ensure_site_subscriptions(&self, sites: &[SitePlan]) {
        let inner = &self.inner;
        if !inner.config.notifications_enabled {
            return;
        }
        for plan in sites {
            let authority = plan.factory.url().authority();
            if inner.notify.site_sinks.lock().contains_key(&authority)
                || inner.notify.unsupported.lock().contains(&authority)
            {
                continue;
            }
            let handler = Arc::new(SiteEvents {
                inner: Arc::downgrade(inner),
                authority: authority.clone(),
            });
            let config = SinkConfig {
                topics: vec![TOPIC_CACHE_INVALIDATE.to_owned()],
                ..SinkConfig::default()
            };
            match NotificationSink::connect(&authority, config, handler) {
                Ok(sink) => {
                    inner.notify.site_sinks.lock().insert(authority, sink);
                }
                Err(NotifyError::Unsupported(_)) => {
                    inner.notify.unsupported.lock().insert(authority);
                }
                Err(_) => {} // transient; retried on the next query
            }
        }
    }

    /// Push subscriptions currently connected (diagnostics and tests).
    pub fn notify_subscriptions(&self) -> u64 {
        self.inner.notify.counters().0
    }

    /// The planner (exposed for diagnostics and tests).
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Drop all cached results (bindings are kept).
    pub fn clear_cache(&self) {
        self.inner.cache.clear();
        self.inner.site_keys.lock().clear();
    }

    /// Drop one site's cached results: its registry lease expired or it
    /// republished, so its instance handles (the cache keys) are stale.
    /// This is the TTL-polling detection path; push-driven invalidations
    /// count under `notify_invalidations` instead.
    pub fn invalidate_site(&self, site: &str) {
        drop_site_cache(&self.inner, site);
        self.inner
            .stats
            .lease_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Write every fresh cache segment to the spill directory (the
    /// graceful-shutdown path), so the next gateway started over the same
    /// directory answers overlapping queries without contacting any site.
    /// A no-op unless a spill directory is configured.
    pub fn persist_cache(&self) {
        self.inner.cache.spill_now();
    }

    /// Current counters.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let inner = &self.inner;
        let cache = inner.cache.counters();
        let (cache_hits, cache_misses) = (cache.hits, cache.misses);
        let mut per_site: Vec<(String, SiteLatency)> = inner
            .stats
            .sites
            .lock()
            .iter()
            .map(|(site, lat)| (site.clone(), lat.clone()))
            .collect();
        per_site.sort_by(|a, b| a.0.cmp(&b.0));
        let (plan_snapshot_hits, plan_snapshot_refreshes) = inner.planner.snapshot_stats();
        let (notify_subscriptions, notify_events, notify_resyncs) = inner.notify.counters();
        GatewaySnapshot {
            queries: inner.stats.queries.load(Ordering::Relaxed),
            upstream_calls: inner.stats.upstream.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_hit_rate: inner.cache.hit_rate(),
            cache_range_hits: cache.range_hits,
            cache_partial_hits: cache.partial_hits,
            cache_evictions: cache.evictions,
            cache_segments: cache.segments as u64,
            cache_bytes: cache.bytes as u64,
            cache_spill_writes: cache.spill_writes,
            cache_spill_loads: cache.spill_loads,
            coalesced: inner.flights.coalesced(),
            in_flight: inner.stats.in_flight.load(Ordering::Relaxed),
            hedges_fired: inner.stats.hedges_fired.load(Ordering::Relaxed),
            hedge_wins: inner.stats.hedge_wins.load(Ordering::Relaxed),
            hedges_cancelled: inner.stats.hedges_cancelled.load(Ordering::Relaxed),
            deadline_exceeded: inner.stats.deadline_exceeded.load(Ordering::Relaxed),
            lease_invalidations: inner.stats.lease_invalidations.load(Ordering::Relaxed),
            notify_invalidations: inner.stats.notify_invalidations.load(Ordering::Relaxed),
            notify_subscriptions,
            notify_events,
            notify_resyncs,
            batched_calls: inner.stats.batched_calls.load(Ordering::Relaxed),
            batch_entries: inner.stats.batch_entries.load(Ordering::Relaxed),
            batch_fallback_calls: inner.stats.batch_fallback.load(Ordering::Relaxed),
            binary_fallback_calls: inner.stats.binary_fallbacks.load(Ordering::Relaxed),
            batch_streams: inner.stats.batch_streams.load(Ordering::Relaxed),
            batch_stream_entries: inner.stats.batch_stream_entries.load(Ordering::Relaxed),
            batch_stream_truncated: inner.stats.batch_stream_truncated.load(Ordering::Relaxed),
            batch_stream_fallback_calls: inner.stats.batch_stream_fallbacks.load(Ordering::Relaxed),
            plan_snapshot_hits,
            plan_snapshot_refreshes,
            per_site,
        }
    }

    /// Run one federated query end to end (blocking; safe to call from many
    /// threads at once) under a fresh default-budget context.
    pub fn query(&self, query: &FederatedQuery) -> FederatedResult {
        let ctx = CallContext::with_budget(self.inner.config.call_timeout);
        self.query_with_context(query, &ctx)
    }

    /// Run one federated query under the caller's [`CallContext`]: its
    /// deadline bounds the whole scatter-gather (falling back to
    /// `call_timeout` when it carries none), every upstream hop inherits its
    /// request id, and the assembled cross-site trace comes back on the
    /// result.
    pub fn query_with_context(&self, query: &FederatedQuery, ctx: &CallContext) -> FederatedResult {
        let started = Instant::now();
        let inner = &self.inner;
        inner.stats.queries.fetch_add(1, Ordering::Relaxed);
        // Normalize: every query runs under *some* deadline so a silent site
        // cannot hold the gather forever.
        let qctx = if ctx.deadline().is_some() {
            ctx.clone()
        } else {
            ctx.with_remaining(inner.config.call_timeout)
        };
        let query_deadline = qctx.deadline().expect("normalized context has a deadline");
        let plan = inner.planner.plan(query);
        for site in &plan.invalidated {
            self.invalidate_site(site);
        }
        self.ensure_registry_subscription();
        self.ensure_site_subscriptions(&plan.sites);
        let mut errors = plan.errors.clone();
        let sites_total = plan.sites.len() + errors.len();
        // Every tuple of the query (primary metric + extras) fans out to
        // every target. Tuples of one instance land in the same batch group,
        // so a multi-metric query still costs one wire call per host.
        let prs: Vec<Arc<PrQuery>> = query.pr_queries().into_iter().map(Arc::new).collect();
        let query_upstream = Arc::new(AtomicU64::new(0));
        let (tx, rx) = unbounded::<Outcome>();
        let mut rows: Vec<SiteRows> = Vec::new();
        let mut pending: Vec<PendingTarget> = Vec::new();
        let scatter_start = Instant::now();
        for site_plan in &plan.sites {
            // Probe the shared segment cache first; only misses go
            // upstream, and a partially covered window goes upstream
            // *narrowed* to just the missing sub-range.
            let mut uncached: Vec<UncachedSlot<'_>> = Vec::new();
            for target in &site_plan.targets {
                for pr in &prs {
                    let mut slot_pr = Arc::clone(pr);
                    let mut cache_fill: Option<CacheFill> = None;
                    let mut prefix_rows: Option<Arc<Vec<String>>> = None;
                    // A query whose time bounds don't parse bypasses the
                    // cache entirely (fetched, served, never stored).
                    if let (true, Ok(window)) = (inner.config.cache_enabled, pr.time_window()) {
                        let series = cache::series_key(
                            target.primary.as_str(),
                            &pr.metric,
                            &pr.foci,
                            &pr.rtype,
                        );
                        match inner.cache.lookup(&series, window) {
                            Lookup::Hit {
                                rows: cached,
                                exact,
                            } => {
                                qctx.record_span(
                                    "gateway.cache",
                                    "getPR",
                                    &site_plan.site,
                                    started,
                                    if exact { "hit" } else { "range-hit" },
                                );
                                rows.push(SiteRows {
                                    site: site_plan.site.clone(),
                                    execution: target.primary.clone(),
                                    rows: cached,
                                    from_cache: true,
                                    hedged: false,
                                    truncated: false,
                                });
                                continue;
                            }
                            Lookup::Partial {
                                rows: covered,
                                missing,
                            } => {
                                qctx.record_span(
                                    "gateway.cache",
                                    "getPR",
                                    &site_plan.site,
                                    started,
                                    "partial-hit",
                                );
                                let mut narrowed = (**pr).clone();
                                narrowed.start = fmt_time(missing.0);
                                narrowed.end = fmt_time(missing.1);
                                slot_pr = Arc::new(narrowed);
                                prefix_rows = Some(Arc::new(covered));
                                cache_fill = Some(CacheFill {
                                    series,
                                    window: missing,
                                });
                            }
                            Lookup::Miss => {
                                cache_fill = Some(CacheFill { series, window });
                            }
                        }
                    }
                    uncached.push((target, slot_pr, cache_fill, prefix_rows));
                }
            }
            // Misses fold into one wire request per host (a site's instances
            // may be spread across replica containers). A batch stream
            // carries any group, even a singleton; the buffered binary batch
            // only pays off from two entries up, and a version-0 site (or any
            // site under `PPG_FORCE_XML=1`) takes per-call getPR.
            let mut by_host: BTreeMap<String, Vec<UncachedSlot<'_>>> = BTreeMap::new();
            for slot in uncached {
                by_host
                    .entry(slot.0.primary.url().authority())
                    .or_default()
                    .push(slot);
            }
            for (authority, group) in by_host {
                let wire = inner.wire_for(site_plan.wire, &authority);
                let batched =
                    wire == Wire::BatchStream || (wire > Wire::PerCall && group.len() > 1);
                let shared = batched && group.len() > 1;
                // One leg context per wire call: a batch shares one across
                // its entries (each keeps its own pending slot and hedge
                // schedule), a per-call target gets its own.
                let batch_ctx =
                    batched.then(|| qctx.leg(ppg_context::leg_tag(pending.len(), 0), 0));
                let mut members: Vec<BatchMember> = Vec::with_capacity(group.len());
                for (target, pr, cache_fill, prefix_rows) in group {
                    let idx = pending.len();
                    let primary_ctx = match &batch_ctx {
                        Some(ctx) => ctx.clone(),
                        None => qctx.leg(ppg_context::leg_tag(idx, 0), 0),
                    };
                    pending.push(PendingTarget {
                        site: site_plan.site.clone(),
                        target: target.clone(),
                        pr: Arc::clone(&pr),
                        cache_fill: cache_fill.clone(),
                        prefix_rows,
                        deadline: query_deadline,
                        hedge_at: target
                            .hedge
                            .as_ref()
                            .and(inner.config.hedge_after)
                            .map(|delay| scatter_start + delay),
                        hedge_fired: false,
                        primary_failed: false,
                        hedge_failed: false,
                        done: false,
                        shared,
                        site_wire: site_plan.wire,
                        primary_ctx: primary_ctx.clone(),
                        hedge_ctx: None,
                    });
                    if batched {
                        members.push((idx, target.primary.clone(), pr, cache_fill));
                    } else {
                        if site_plan.wire > Wire::PerCall {
                            inner.stats.batch_fallback.fetch_add(1, Ordering::Relaxed);
                        }
                        self.submit_call(
                            tx.clone(),
                            idx,
                            site_plan.site.clone(),
                            target.primary.clone(),
                            pr,
                            cache_fill,
                            false,
                            primary_ctx,
                            Arc::clone(&query_upstream),
                        );
                    }
                }
                if let Some(batch_ctx) = batch_ctx {
                    self.submit_batch(
                        tx.clone(),
                        site_plan.site.clone(),
                        members,
                        wire,
                        false,
                        batch_ctx,
                        Arc::clone(&query_upstream),
                    );
                }
            }
        }
        let mut remaining = pending.len();
        while remaining > 0 {
            let now = Instant::now();
            // The gatherer wakes at the earliest pending deadline or unfired
            // hedge time.
            let mut wake: Option<Instant> = None;
            for p in &pending {
                if p.done {
                    continue;
                }
                let mut candidate = p.deadline;
                if let Some(hedge_at) = p.hedge_at {
                    if !p.hedge_fired && hedge_at < candidate {
                        candidate = hedge_at;
                    }
                }
                wake = Some(match wake {
                    Some(w) if w < candidate => w,
                    _ => candidate,
                });
            }
            let timeout = wake.unwrap_or(now).saturating_duration_since(now);
            match rx.recv_timeout(timeout) {
                Ok(outcome) => {
                    let idx = outcome.idx;
                    let p = &mut pending[idx];
                    if p.done {
                        continue; // late duplicate (hedge raced its primary)
                    }
                    match outcome.result {
                        Ok(data) => {
                            p.done = true;
                            remaining -= 1;
                            if outcome.hedged {
                                inner.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                                // The primary lost the race: cancel its leg so
                                // its site stops burning handler time on an
                                // answer nobody will read. A primary sharing
                                // its context with sibling entries must be
                                // left to finish.
                                if !p.primary_failed && !p.shared {
                                    self.cancel_leg(&p.primary_ctx, &p.target.primary);
                                    inner.stats.hedges_cancelled.fetch_add(1, Ordering::Relaxed);
                                }
                            } else if p.hedge_fired && !p.hedge_failed {
                                // The hedge lost: cancel its leg on the
                                // replica host.
                                if let (Some(hctx), Some(hedge)) =
                                    (p.hedge_ctx.as_ref(), p.target.hedge.as_ref())
                                {
                                    self.cancel_leg(hctx, hedge);
                                    inner.stats.hedges_cancelled.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            // A narrowed fetch answers only the missing
                            // sub-range: put the cache-covered prefix back.
                            let merged = match &p.prefix_rows {
                                Some(prefix) => merge_prefix(prefix, &data.rows),
                                None => Arc::clone(&data.rows),
                            };
                            if data.truncated {
                                // The stream died after delivering rows: the
                                // rows stand, and the site also carries a
                                // structured partial-result error.
                                errors.push(SiteError {
                                    site: p.site.clone(),
                                    kind: SiteErrorKind::Truncated,
                                    detail: data.truncated_detail.clone(),
                                });
                            }
                            rows.push(SiteRows {
                                site: p.site.clone(),
                                execution: p.target.primary.clone(),
                                rows: merged,
                                from_cache: false,
                                hedged: outcome.hedged,
                                truncated: data.truncated,
                            });
                        }
                        Err((kind, detail)) => {
                            if outcome.hedged {
                                p.hedge_failed = true;
                            } else {
                                p.primary_failed = true;
                            }
                            if p.primary_failed && !p.hedge_fired && p.target.hedge.is_some() {
                                // Fail fast: don't wait for the hedge delay
                                // once the primary has definitively failed.
                                self.fire_hedge(p, idx, &qctx, &tx, &query_upstream);
                            } else {
                                let hedge_pending = p.hedge_fired && !p.hedge_failed;
                                let primary_pending = !p.primary_failed;
                                if !hedge_pending && !primary_pending {
                                    p.done = true;
                                    remaining -= 1;
                                    errors.push(SiteError {
                                        site: p.site.clone(),
                                        kind,
                                        detail,
                                    });
                                }
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    for (idx, p) in pending.iter_mut().enumerate() {
                        if p.done {
                            continue;
                        }
                        if let Some(hedge_at) = p.hedge_at {
                            if !p.hedge_fired && hedge_at <= now && p.target.hedge.is_some() {
                                self.fire_hedge(p, idx, &qctx, &tx, &query_upstream);
                            }
                        }
                        if p.deadline <= now {
                            p.done = true;
                            remaining -= 1;
                            // Cancel whatever is still out there: the budget
                            // is gone, so any answer would be discarded. At
                            // the deadline every sibling of a shared batch
                            // context is equally doomed, so cancelling it is
                            // safe — but only once per batch.
                            if !(p.primary_failed || (p.shared && p.primary_ctx.cancelled())) {
                                self.cancel_leg(&p.primary_ctx, &p.target.primary);
                            }
                            if p.hedge_fired && !p.hedge_failed {
                                if let (Some(hctx), Some(hedge)) =
                                    (p.hedge_ctx.as_ref(), p.target.hedge.as_ref())
                                {
                                    self.cancel_leg(hctx, hedge);
                                }
                            }
                            inner
                                .stats
                                .deadline_exceeded
                                .fetch_add(1, Ordering::Relaxed);
                            errors.push(SiteError {
                                site: p.site.clone(),
                                kind: SiteErrorKind::Timeout,
                                detail: format!(
                                    "getPR did not complete within the query budget \
                                     (request {})",
                                    qctx.request_id()
                                ),
                            });
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // One structured error per site; the first (earliest) failure wins.
        let mut seen = HashSet::new();
        errors.retain(|e| seen.insert(e.site.clone()));
        rows.sort_by(|a, b| {
            (a.site.as_str(), a.execution.as_str()).cmp(&(b.site.as_str(), b.execution.as_str()))
        });
        qctx.record_span(
            "gateway",
            "federatedQuery",
            "",
            started,
            if errors.is_empty() { "ok" } else { "partial" },
        );
        FederatedResult {
            rows,
            errors,
            sites_total,
            elapsed: started.elapsed(),
            upstream_calls: query_upstream.load(Ordering::Relaxed),
            request_id: qctx.request_id().to_owned(),
            trace: qctx.spans(),
        }
    }

    /// Cancel a leg: flip its local flag (stops retry loops and pre-send
    /// checks here) and tell the target's container to interrupt any handler
    /// still working under this leg's cancel key. The POST is fire-and-forget
    /// on a fresh thread — the worker pool may be saturated by the very calls
    /// being cancelled.
    fn cancel_leg(&self, ctx: &CallContext, target: &Gsh) {
        ctx.cancel();
        let key = ctx.cancel_key();
        let mut url = target.url();
        url.path = "/ogsa/cancel".into();
        url.query = String::new();
        let client = Arc::clone(&self.inner.client);
        std::thread::spawn(move || {
            let request = Request::post("/ogsa/cancel", "text/plain", key.into_bytes());
            let _ = client.send(&url, &request);
        });
    }

    /// Fire `p`'s hedge leg against its replica: a batch of one on a
    /// batch-stream-capable authority, otherwise a per-call getPR.
    fn fire_hedge(
        &self,
        p: &mut PendingTarget,
        idx: usize,
        qctx: &CallContext,
        tx: &Sender<Outcome>,
        query_upstream: &Arc<AtomicU64>,
    ) {
        let inner = &self.inner;
        let hedge = p.target.hedge.clone().expect("hedge target present");
        p.hedge_fired = true;
        inner.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        let hedge_ctx = qctx.leg(ppg_context::leg_tag(idx, 1), 1);
        p.hedge_ctx = Some(hedge_ctx.clone());
        let wire = inner.wire_for(p.site_wire, &hedge.url().authority());
        if wire == Wire::BatchStream {
            let member = (idx, hedge, Arc::clone(&p.pr), p.cache_fill.clone());
            self.submit_batch(
                tx.clone(),
                p.site.clone(),
                vec![member],
                wire,
                true,
                hedge_ctx,
                Arc::clone(query_upstream),
            );
        } else {
            if p.site_wire > Wire::PerCall {
                inner.stats.batch_fallback.fetch_add(1, Ordering::Relaxed);
            }
            self.submit_call(
                tx.clone(),
                idx,
                p.site.clone(),
                hedge,
                Arc::clone(&p.pr),
                p.cache_fill.clone(),
                true,
                hedge_ctx,
                Arc::clone(query_upstream),
            );
        }
    }

    /// Queue one per-call target: single-flight → site permit → retrying
    /// `getPR` under the leg's context → cache fill → outcome on `tx`.
    #[allow(clippy::too_many_arguments)]
    fn submit_call(
        &self,
        tx: Sender<Outcome>,
        idx: usize,
        site: String,
        exec: Gsh,
        pr: Arc<PrQuery>,
        cache_fill: Option<CacheFill>,
        hedged: bool,
        leg_ctx: CallContext,
        query_upstream: Arc<AtomicU64>,
    ) {
        let inner = Arc::clone(&self.inner);
        self.pool.submit(move || {
            let started = Instant::now();
            inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
            let result = run_flight(
                &inner,
                &site,
                &exec,
                &pr,
                cache_fill.as_ref(),
                &leg_ctx,
                &query_upstream,
            );
            inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            inner
                .stats
                .record_site(&site, started.elapsed(), result.is_err());
            let _ = tx.send(Outcome {
                idx,
                hedged,
                result,
            });
        });
    }

    /// Queue one batched wire call covering one or more targets on one
    /// host: per-entry single-flight coalescing → one site permit → one
    /// exchange opening on `wire` → per-entry cache fill and outcomes on
    /// `tx` (tagged `hedged` for a hedge leg's batch of one).
    #[allow(clippy::too_many_arguments)]
    fn submit_batch(
        &self,
        tx: Sender<Outcome>,
        site: String,
        members: Vec<BatchMember>,
        wire: Wire,
        hedged: bool,
        leg_ctx: CallContext,
        query_upstream: Arc<AtomicU64>,
    ) {
        let inner = Arc::clone(&self.inner);
        self.pool.submit(move || {
            let started = Instant::now();
            inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
            let results =
                run_batch_flight(&inner, &site, &members, wire, &leg_ctx, &query_upstream);
            inner.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            let failed = results.iter().any(|(_, r)| r.is_err());
            inner.stats.record_site(&site, started.elapsed(), failed);
            for (idx, result) in results {
                let _ = tx.send(Outcome {
                    idx,
                    hedged,
                    result,
                });
            }
        });
    }
}

/// The error kind a per-entry fault maps to: deadline and cancel faults are
/// timeouts, anything else a site fault.
fn fault_kind(fault: &Fault) -> SiteErrorKind {
    if fault.is_deadline_exceeded() || fault.is_cancelled() {
        SiteErrorKind::Timeout
    } else {
        SiteErrorKind::Fault
    }
}

/// One batched flight: each entry joins the per-tuple single-flight group
/// once (followers adopt the leader's published outcome and stay off the
/// wire), then every remaining leader rides one exchange under a single
/// site permit, opening on `wire`. Per-entry faults map back to per-entry
/// errors; a whole-batch failure fails every leader the same way. Every
/// held token is published exactly once, whichever rung carried the batch.
fn run_batch_flight(
    inner: &Arc<Inner>,
    site: &str,
    members: &[BatchMember],
    wire: Wire,
    leg_ctx: &CallContext,
    query_upstream: &Arc<AtomicU64>,
) -> Vec<(usize, FlightResult)> {
    let started = Instant::now();
    let mut results: Vec<(usize, FlightResult)> = Vec::with_capacity(members.len());
    if fail_expired_members(site, members, leg_ctx, started, &mut results) {
        return results;
    }
    let leaders = join_batch_leaders(inner, site, members, leg_ctx, started, &mut results);
    if leaders.is_empty() {
        return results;
    }
    let span_base = leg_ctx.span_count();
    // One permit covers the whole exchange: from the site's point of view
    // a batch is one upstream request, whatever its entry count or wire.
    let exchanged = match inner.limiter.acquire_until(site, leg_ctx.deadline()) {
        None => {
            leg_ctx.record_span(
                "gateway.batch",
                "multiCall",
                site,
                started,
                "deadline-exceeded",
            );
            Err((
                SiteErrorKind::Timeout,
                format!("no {site} permit became free before the deadline"),
            ))
        }
        Some(_permit) => exchange_batch(inner, site, &leaders, wire, leg_ctx, query_upstream),
    };
    let mut spans = leg_ctx.spans();
    let flight_spans = spans.split_off(span_base.min(spans.len()));
    let per_leader: Vec<FlightResult> = match exchanged {
        Ok(per_leader) => per_leader,
        Err(failure) => vec![Err(failure); leaders.len()],
    };
    for ((idx, _, _, _, token), result) in leaders.into_iter().zip(per_leader) {
        inner.flights.publish(
            token,
            FlightOutcome::new(result.clone(), leg_ctx.request_id(), flight_spans.clone()),
        );
        results.push((idx, result));
    }
    results
}

/// Fail every member when the shared leg budget is already gone before the
/// batch touches the wire. Returns true when the flight should end here.
fn fail_expired_members(
    site: &str,
    members: &[BatchMember],
    leg_ctx: &CallContext,
    started: Instant,
    results: &mut Vec<(usize, FlightResult)>,
) -> bool {
    if !leg_ctx.expired() {
        return false;
    }
    let outcome = if leg_ctx.cancelled() {
        "cancelled-before-send"
    } else {
        "deadline-exceeded-before-send"
    };
    leg_ctx.record_span("gateway.batch", "multiCall", site, started, outcome);
    for (idx, _, _, _) in members {
        results.push((
            *idx,
            Err((
                SiteErrorKind::Timeout,
                format!("leg {} abandoned before send: {outcome}", leg_ctx.leg_tag()),
            )),
        ));
    }
    true
}

/// Per-entry coalescing: an identical tuple already in flight (from this
/// query or another) answers its entry without a wire slot. Followers get
/// their adopted outcome pushed into `results`; the leaders — each holding
/// a publish token that MUST be published exactly once — come back for the
/// wire phase.
fn join_batch_leaders(
    inner: &Arc<Inner>,
    site: &str,
    members: &[BatchMember],
    leg_ctx: &CallContext,
    started: Instant,
    results: &mut Vec<(usize, FlightResult)>,
) -> Vec<BatchLeader> {
    let mut leaders: Vec<BatchLeader> = Vec::new();
    for (idx, exec, pr, cache_fill) in members {
        let flight_key = format!("{}::{}", exec.as_str(), pr.cache_key());
        match inner.flights.join(&flight_key) {
            Flight::Follower(outcome) => {
                if outcome.leader_request_id != leg_ctx.request_id() {
                    leg_ctx.extend_spans(outcome.spans.clone());
                    leg_ctx.record_span(
                        "gateway.coalesce",
                        "getPR",
                        site,
                        started,
                        &format!("leader:{}", outcome.leader_request_id),
                    );
                }
                results.push((*idx, outcome.result));
            }
            Flight::Leader(token) => {
                leaders.push((
                    *idx,
                    exec.clone(),
                    Arc::clone(pr),
                    cache_fill.clone(),
                    token,
                ));
            }
        }
    }
    leaders
}

/// How one wire attempt of a batch ended.
enum Exchange {
    /// Per-leader results, aligned with the leaders.
    Done(Vec<FlightResult>),
    /// The peer does not speak this wire (404, a non-stream or non-binary
    /// answer, a corrupt frame before any rows): step down a rung.
    Downgrade,
}

/// The wire phase for leaders that already hold their single-flight
/// tokens. Each attempt rides the current rung; a batch stream the peer
/// does not speak steps down inline to the binary batch and the authority
/// remembers the rung, so single-flight followers never notice. The binary
/// batch is the floor: a peer that does not speak it fails the batch's
/// entries as a site fault, and the authority is remembered as per-call.
/// Transport failures retry with backoff charged against the leg budget —
/// the stub only errors before any row arrived, so a retry starts from a
/// clean slate with no partial cache claims to unwind.
fn exchange_batch(
    inner: &Arc<Inner>,
    site: &str,
    leaders: &[BatchLeader],
    mut wire: Wire,
    leg_ctx: &CallContext,
    query_upstream: &Arc<AtomicU64>,
) -> Result<Vec<FlightResult>, (SiteErrorKind, String)> {
    let authority = leaders[0].1.url().authority();
    let stub = ServiceStub::new(Arc::clone(&inner.client), leaders[0].1.clone());
    let entries: Vec<BatchEntry> = leaders
        .iter()
        .map(|(_, exec, pr, _, _)| {
            BatchEntry::new(
                exec.url().path,
                "getPR",
                EXECUTION_NS,
                &ExecutionStub::pr_params(pr),
            )
        })
        .collect();
    let mut attempt = 0u32;
    loop {
        if leg_ctx.expired() {
            return Err((
                SiteErrorKind::Timeout,
                format!("leg {} expired before attempt", leg_ctx.leg_tag()),
            ));
        }
        inner.stats.upstream.fetch_add(1, Ordering::Relaxed);
        query_upstream.fetch_add(1, Ordering::Relaxed);
        // A shared batch is one HTTP exchange: an entry running right up to
        // the deadline would hold every sibling's finished answer past the
        // gather deadline. The server works to a budget with ~1/8 held back,
        // so the mixed response still travels back in time, while the stub
        // waits for it until the leg's own deadline.
        let headroom = match leg_ctx.remaining() {
            Some(remaining) if leaders.len() > 1 => (remaining / 8).min(Duration::from_millis(250)),
            _ => Duration::ZERO,
        };
        let exchanged = if wire == Wire::BatchStream {
            stream_batch(inner, site, &stub, &entries, leaders, leg_ctx, headroom)
        } else {
            buffered_batch(inner, site, &stub, &entries, leaders, leg_ctx, headroom)
        };
        match exchanged {
            Ok(Exchange::Done(results)) => return Ok(results),
            Ok(Exchange::Downgrade) => {
                let fallbacks = if wire == Wire::BatchStream {
                    &inner.stats.batch_stream_fallbacks
                } else {
                    &inner.stats.binary_fallbacks
                };
                fallbacks.fetch_add(1, Ordering::Relaxed);
                wire = wire.step_down();
                inner.remember_downgrade(&authority, wire);
                if wire == Wire::PerCall {
                    return Err((
                        SiteErrorKind::Fault,
                        format!("{authority} does not speak the PPGB binary batch"),
                    ));
                }
            }
            Err(e) => {
                let (kind, retryable) = classify(&e);
                if !retryable || attempt >= inner.config.retries {
                    return Err((kind, e.to_string()));
                }
                attempt += 1;
                let backoff = inner.config.backoff * (1 << attempt.min(6));
                if leg_ctx.remaining().is_some_and(|r| backoff >= r) {
                    return Err((
                        SiteErrorKind::Timeout,
                        format!("{e} (budget exhausted during retry backoff)"),
                    ));
                }
                std::thread::sleep(backoff);
            }
        }
    }
}

/// One buffered PPGB binary batch exchange: per-entry outcomes map to
/// flight results, each successful entry filling the cache.
fn buffered_batch(
    inner: &Arc<Inner>,
    site: &str,
    stub: &ServiceStub,
    entries: &[BatchEntry],
    leaders: &[BatchLeader],
    leg_ctx: &CallContext,
    headroom: Duration,
) -> pperf_ogsi::Result<Exchange> {
    let Some(outcomes) = stub.call_batch_binary(entries, leg_ctx, headroom)? else {
        return Ok(Exchange::Downgrade);
    };
    inner.stats.batched_calls.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .batch_entries
        .fetch_add(entries.len() as u64, Ordering::Relaxed);
    if outcomes.len() != entries.len() {
        let detail = format!(
            "multiCall answered {} entries for {} sub-calls",
            outcomes.len(),
            entries.len()
        );
        return Ok(Exchange::Done(vec![
            Err((SiteErrorKind::Fault, detail));
            leaders.len()
        ]));
    }
    let results = leaders
        .iter()
        .zip(outcomes)
        .map(|((_, _, _, cache_fill, _), outcome)| {
            let value = outcome.map_err(|fault| (fault_kind(&fault), fault.to_string()))?;
            let rows = value.into_str_array().ok_or_else(|| {
                (
                    SiteErrorKind::Fault,
                    "batched getPR returned a non-array".to_owned(),
                )
            })?;
            let rows = Arc::new(rows);
            if let (true, Some(fill)) = (inner.config.cache_enabled, cache_fill) {
                inner.fill_cache(site, &fill.series, fill.window, Arc::clone(&rows));
            }
            Ok(FlightRows::complete(rows))
        })
        .collect();
    Ok(Exchange::Done(results))
}

/// One `multiCallStream` exchange. Row frames are accumulated per entry and
/// merged into the cache as they land (so an entry that dies mid-scan
/// still leaves its delivered prefix cached): each frame may claim the
/// window its own rows span solely because no later frame of a
/// single-focus, time-monotone scan can reach back into it. An
/// out-of-order (or unspanned) frame poisons only that entry's series
/// (remove + stop claiming), never its siblings'. A sealed entry then
/// claims its whole window; a truncated one keeps only its frame claims.
fn stream_batch(
    inner: &Arc<Inner>,
    site: &str,
    stub: &ServiceStub,
    entries: &[BatchEntry],
    leaders: &[BatchLeader],
    leg_ctx: &CallContext,
    headroom: Duration,
) -> pperf_ogsi::Result<Exchange> {
    let mut entry_rows: Vec<Vec<String>> = vec![Vec::new(); leaders.len()];
    // Multi-focus rows restart time once per focus within one entry, so
    // frame claims are only sound for single-focus tuples.
    let mut frame_fills: Vec<Option<CacheFill>> = leaders
        .iter()
        .map(|(_, _, pr, fill, _)| {
            if inner.config.cache_enabled && pr.foci.len() <= 1 {
                fill.clone()
            } else {
                None
            }
        })
        .collect();
    let mut frontiers = vec![f64::NEG_INFINITY; leaders.len()];
    let streamed = stub.call_batch_stream(entries, leg_ctx, headroom, &mut |entry, frame| {
        if let Some(fill) = &frame_fills[entry] {
            match frame_window(&frame) {
                Some((lo, hi)) if lo >= frontiers[entry] => {
                    frontiers[entry] = hi;
                    // Clamp the claim to the fetched window: a row's span
                    // may poke past the query bounds, but rows beyond them
                    // were never fetched.
                    let claim = (lo.max(fill.window.0), hi.min(fill.window.1));
                    if claim.0 <= claim.1 {
                        inner.fill_cache(site, &fill.series, claim, Arc::new(frame.clone()));
                    }
                }
                _ => {
                    inner.cache.remove(&fill.series);
                    frame_fills[entry] = None;
                }
            }
        }
        entry_rows[entry].extend(frame);
        // Frame-boundary cancellation: a spent budget (deadline or a lost
        // hedge race) stops the pull here; the stub drops the connection
        // and the producers notice their reader is gone.
        !leg_ctx.expired()
    })?;
    let Some(streamed) = streamed else {
        return Ok(Exchange::Downgrade);
    };
    inner.stats.batch_streams.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .batch_stream_entries
        .fetch_add(leaders.len() as u64, Ordering::Relaxed);
    let results = streamed
        .entries
        .into_iter()
        .zip(leaders)
        .zip(entry_rows)
        .map(
            |((outcome, (_, _, _, cache_fill, _)), rows)| match outcome {
                BatchStreamEntryOutcome::Done { .. } => {
                    let rows = Arc::new(rows);
                    if let (true, Some(fill)) = (inner.config.cache_enabled, cache_fill) {
                        // The sealed entry covers its whole window even where
                        // sparse rows left gaps between the frame claims.
                        inner.fill_cache(site, &fill.series, fill.window, Arc::clone(&rows));
                    }
                    Ok(FlightRows::complete(rows))
                }
                BatchStreamEntryOutcome::Fault(fault) => {
                    Err((fault_kind(&fault), fault.to_string()))
                }
                BatchStreamEntryOutcome::Truncated {
                    rows: delivered,
                    detail,
                } => {
                    inner
                        .stats
                        .batch_stream_truncated
                        .fetch_add(1, Ordering::Relaxed);
                    if streamed.cancelled {
                        Err((
                            SiteErrorKind::Timeout,
                            format!(
                                "stream abandoned at a frame boundary after {} rows (leg {})",
                                rows.len(),
                                leg_ctx.leg_tag()
                            ),
                        ))
                    } else if rows.is_empty() {
                        // Nothing arrived before the entry died: a plain
                        // failure, nothing partial about it — and after the
                        // budget ran out, the deadline's doing, not the site's.
                        let kind = if leg_ctx.expired() {
                            SiteErrorKind::Timeout
                        } else {
                            SiteErrorKind::Unreachable
                        };
                        Err((kind, detail))
                    } else {
                        // Partial result: the delivered prefix stands (and its
                        // frame claims survive), but no whole-window claim.
                        Ok(FlightRows::truncated(
                            Arc::new(rows),
                            format!("entry stream died after {delivered} rows: {detail}"),
                        ))
                    }
                }
            },
        )
        .collect();
    Ok(Exchange::Done(results))
}

/// One per-call leg's upstream flight: coalesce with identical in-flight
/// tuples, acquire the site permit within the leg's budget, then call
/// `getPR` with retries whose backoff is charged against the remaining
/// budget.
fn run_flight(
    inner: &Arc<Inner>,
    site: &str,
    exec: &Gsh,
    pr: &Arc<PrQuery>,
    cache_fill: Option<&CacheFill>,
    leg_ctx: &CallContext,
    query_upstream: &Arc<AtomicU64>,
) -> FlightResult {
    let started = Instant::now();
    if leg_ctx.expired() {
        let outcome = if leg_ctx.cancelled() {
            "cancelled-before-send"
        } else {
            "deadline-exceeded-before-send"
        };
        leg_ctx.record_span("gateway.call", "getPR", site, started, outcome);
        return Err((
            SiteErrorKind::Timeout,
            format!("leg {} abandoned before send: {outcome}", leg_ctx.leg_tag()),
        ));
    }
    // The flight key is the exact upstream tuple (instance handle + PrQuery
    // key): concurrent identical tuples share one call.
    let flight_key = format!("{}::{}", exec.as_str(), pr.cache_key());
    match inner.flights.join(&flight_key) {
        Flight::Follower(outcome) => {
            if outcome.leader_request_id != leg_ctx.request_id() {
                // A different request did the work: adopt its spans into this
                // trace, then record the coalescing itself so the trace shows
                // which request actually hit the wire.
                leg_ctx.extend_spans(outcome.spans.clone());
                leg_ctx.record_span(
                    "gateway.coalesce",
                    "getPR",
                    site,
                    started,
                    &format!("leader:{}", outcome.leader_request_id),
                );
            }
            outcome.result
        }
        Flight::Leader(token) => {
            // Spans this flight records start here; the slice past this index
            // is what followers adopt. Sibling legs of the same request share
            // the trace, so a rare interleaved sibling span may ride along —
            // acceptable for diagnostic data.
            let span_base = leg_ctx.span_count();
            let outcome = match inner.limiter.acquire_until(site, leg_ctx.deadline()) {
                None => {
                    leg_ctx.record_span(
                        "gateway.call",
                        "getPR",
                        site,
                        started,
                        "deadline-exceeded",
                    );
                    Err((
                        SiteErrorKind::Timeout,
                        format!("no {site} permit became free before the deadline"),
                    ))
                }
                Some(_permit) => {
                    let stub = ExecutionStub::bind(Arc::clone(&inner.client), exec);
                    let mut attempt = 0u32;
                    loop {
                        if leg_ctx.expired() {
                            break Err((
                                SiteErrorKind::Timeout,
                                format!("leg {} expired before attempt", leg_ctx.leg_tag()),
                            ));
                        }
                        inner.stats.upstream.fetch_add(1, Ordering::Relaxed);
                        query_upstream.fetch_add(1, Ordering::Relaxed);
                        match stub.get_pr_with_context(pr, leg_ctx) {
                            Ok(rows) => break Ok(FlightRows::complete(Arc::new(rows))),
                            Err(e) => {
                                let (kind, retryable) = classify(&e);
                                if retryable && attempt < inner.config.retries {
                                    attempt += 1;
                                    let backoff = inner.config.backoff * (1 << attempt.min(6));
                                    // The budget only shrinks: a retry whose
                                    // backoff would outlive it is pointless.
                                    if leg_ctx.remaining().is_some_and(|r| backoff >= r) {
                                        break Err((
                                            SiteErrorKind::Timeout,
                                            format!("{e} (budget exhausted during retry backoff)"),
                                        ));
                                    }
                                    std::thread::sleep(backoff);
                                    continue;
                                }
                                break Err((kind, e.to_string()));
                            }
                        }
                    }
                }
            };
            if let (Ok(flight), Some(fill), true) =
                (&outcome, cache_fill, inner.config.cache_enabled)
            {
                inner.fill_cache(site, &fill.series, fill.window, Arc::clone(&flight.rows));
            }
            let mut spans = leg_ctx.spans();
            let flight_spans = spans.split_off(span_base.min(spans.len()));
            inner.flights.publish(
                token,
                FlightOutcome::new(outcome.clone(), leg_ctx.request_id(), flight_spans),
            );
            outcome
        }
    }
}

/// The min/max time span covered by one stream frame's rows, or `None` when
/// any row lacks a parseable span.
fn frame_window(rows: &[String]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for row in rows {
        let (s, e) = row_time_span(row)?;
        lo = lo.min(s);
        hi = hi.max(e);
    }
    (lo <= hi).then_some((lo, hi))
}
