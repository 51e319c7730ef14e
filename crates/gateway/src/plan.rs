//! The federation planner.
//!
//! Planning turns one [`FederatedQuery`](crate::FederatedQuery) into a
//! concrete scatter plan: snapshot the Registry's service entries, bind (or
//! reuse) an Application instance per site, expand the query's selector to
//! per-Execution `getPR` targets, and — when the site advertises its Manager
//! — pair each target with a hedge replica on a different host.
//!
//! A site that fails any planning step yields a structured
//! [`SiteError`] instead of failing the whole federation.

use crate::query::{FederatedQuery, SiteError, SiteErrorKind};
use parking_lot::Mutex;
use pperf_httpd::HttpClient;
use pperf_ogsi::{
    FactoryStub, GridServiceStub, Gsh, OgsiError, RegistryStub, ServiceEntry, Wire,
    WIRE_VERSION_SDE,
};
use pperfgrid::{ApplicationStub, ManagerStub};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `getPR` target: the primary Execution instance, and optionally a
/// hedge instance of the same execution on a different replica host.
#[derive(Debug, Clone)]
pub struct ExecTarget {
    /// The instance the Manager resolved for this execution.
    pub primary: Gsh,
    /// A distinct-host replica instance for hedged requests, if any.
    pub hedge: Option<Gsh>,
}

/// The per-site slice of a scatter plan.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// Site label (`organization/service`).
    pub site: String,
    /// The site's Application factory handle.
    pub factory: Gsh,
    /// Expanded `getPR` targets.
    pub targets: Vec<ExecTarget>,
    /// The newest wire the site advertises (`wireVersion` service data).
    pub wire: Wire,
}

/// A complete scatter plan: per-site target lists plus the sites that failed
/// to plan.
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Successfully planned sites.
    pub sites: Vec<SitePlan>,
    /// Sites that failed planning (factory down, selector rejected, ...).
    pub errors: Vec<SiteError>,
    /// Sites whose registry entry vanished (soft-state lease expired) or
    /// changed factory URL (site republished) since the previous snapshot.
    /// The gateway drops their cached results and bindings.
    pub invalidated: Vec<String>,
}

impl QueryPlan {
    /// Total `getPR` targets across all planned sites.
    pub fn target_count(&self) -> usize {
        self.sites.iter().map(|s| s.targets.len()).sum()
    }
}

/// A bound Application instance (and its site's Manager, once discovered),
/// reused across queries so repeat federations skip `createService`.
struct BoundSite {
    app: ApplicationStub,
    manager: Option<ManagerStub>,
    /// Learned once at bind time from `wireVersion` service data.
    wire: Wire,
    /// Hedges already learned for primaries of this site (primary handle →
    /// hedge, `None` recorded for un-hedgeable primaries).
    hedges: HashMap<String, Option<Gsh>>,
}

/// A cached registry snapshot with its capture time and the membership
/// generation it was captured under.
struct Snapshot {
    entries: Vec<ServiceEntry>,
    at: Instant,
    generation: u64,
}

/// The planner: registry snapshotting plus Application-binding state.
pub struct Planner {
    client: Arc<HttpClient>,
    registry: Gsh,
    hedging: bool,
    bound: Mutex<HashMap<String, BoundSite>>,
    /// Short-TTL cache of the registry snapshot: planning a federated query
    /// costs two wire calls (`findOrganizations` + `listServices`) before
    /// any site is touched; back-to-back queries reuse one snapshot.
    /// `Duration::ZERO` disables the cache.
    snapshot_ttl: Duration,
    snapshot: Mutex<Option<Snapshot>>,
    /// Registry-membership generation: bumped by every invalidation (push
    /// delta, explicit call). A snapshot is only served while its recorded
    /// generation still matches, so a delta arriving *mid-refresh* — after
    /// the wire fetch started but before the snapshot was stored — can
    /// never resurrect pre-delta entries.
    generation: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_refreshes: AtomicU64,
    /// `site label → factory URL` as of the previous fresh snapshot, diffed
    /// against each new one to detect expired leases and republished sites.
    last_seen: Mutex<HashMap<String, String>>,
}

impl Planner {
    /// A planner reading site entries from the registry at `registry`,
    /// reusing each snapshot for `snapshot_ttl` (zero disables caching).
    pub fn new(
        client: Arc<HttpClient>,
        registry: Gsh,
        hedging: bool,
        snapshot_ttl: Duration,
    ) -> Planner {
        Planner {
            client,
            registry,
            hedging,
            bound: Mutex::new(HashMap::new()),
            snapshot_ttl,
            snapshot: Mutex::new(None),
            generation: AtomicU64::new(0),
            snapshot_hits: AtomicU64::new(0),
            snapshot_refreshes: AtomicU64::new(0),
            last_seen: Mutex::new(HashMap::new()),
        }
    }

    /// Snapshot the registry and expand `query` into a scatter plan.
    pub fn plan(&self, query: &FederatedQuery) -> QueryPlan {
        let (entries, invalidated) = match self.snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                return QueryPlan {
                    sites: Vec::new(),
                    errors: vec![SiteError {
                        site: "<registry>".to_owned(),
                        kind: SiteErrorKind::Planning,
                        detail: format!("registry snapshot failed: {e}"),
                    }],
                    invalidated: Vec::new(),
                }
            }
        };
        let mut plan = QueryPlan {
            invalidated,
            ..QueryPlan::default()
        };
        for entry in entries {
            let site = format!("{}/{}", entry.organization, entry.name);
            if let Some(pattern) = &query.site_pattern {
                if !site.contains(pattern.as_str()) {
                    continue;
                }
            }
            match self.plan_site(&site, &entry, query) {
                Ok(site_plan) => plan.sites.push(site_plan),
                Err(e) => plan.errors.push(SiteError {
                    site,
                    kind: SiteErrorKind::Planning,
                    detail: e.to_string(),
                }),
            }
        }
        plan
    }

    /// All registered service entries, every organization, plus the sites
    /// invalidated since the previous fresh snapshot. Served from the TTL
    /// cache when fresh enough (the invalidated list is only ever non-empty
    /// on a refresh — a cached snapshot cannot observe lease changes).
    fn snapshot(&self) -> Result<(Vec<ServiceEntry>, Vec<String>), OgsiError> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.snapshot_ttl > Duration::ZERO {
            if let Some(cached) = self.snapshot.lock().as_ref() {
                if cached.at.elapsed() <= self.snapshot_ttl && cached.generation == generation {
                    self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((cached.entries.clone(), Vec::new()));
                }
            }
        }
        // `generation` was read before the wire fetch: if a membership delta
        // lands while the fetch is in flight, the stored snapshot is already
        // stale-by-generation and the next plan refreshes again.
        let registry = RegistryStub::bind(Arc::clone(&self.client), &self.registry);
        let mut entries = Vec::new();
        for org in registry.find_organizations("")? {
            entries.extend(registry.list_services(&org.name)?);
        }
        self.snapshot_refreshes.fetch_add(1, Ordering::Relaxed);
        let invalidated = self.diff_leases(&entries);
        if !invalidated.is_empty() {
            // A vanished or republished site's Application binding points at
            // a dead (or wrong) instance; retire it with the lease.
            let mut bound = self.bound.lock();
            for site in &invalidated {
                bound.remove(site);
            }
        }
        *self.snapshot.lock() = Some(Snapshot {
            entries: entries.clone(),
            at: Instant::now(),
            generation,
        });
        Ok((entries, invalidated))
    }

    /// Sites present in the previous snapshot whose entry is now gone
    /// (lease expired without renewal) or carries a different factory URL
    /// (site republished after a restart). Updates the `last_seen` map.
    fn diff_leases(&self, entries: &[ServiceEntry]) -> Vec<String> {
        let fresh: HashMap<String, String> = entries
            .iter()
            .map(|e| {
                (
                    format!("{}/{}", e.organization, e.name),
                    e.factory_url.clone(),
                )
            })
            .collect();
        let mut last_seen = self.last_seen.lock();
        let mut invalidated: Vec<String> = last_seen
            .iter()
            .filter(|(site, url)| fresh.get(*site) != Some(url))
            .map(|(site, _)| site.clone())
            .collect();
        invalidated.sort();
        *last_seen = fresh;
        invalidated
    }

    /// `(hits, refreshes)` counters for the registry-snapshot cache.
    pub fn snapshot_stats(&self) -> (u64, u64) {
        (
            self.snapshot_hits.load(Ordering::Relaxed),
            self.snapshot_refreshes.load(Ordering::Relaxed),
        )
    }

    /// Drop the cached registry snapshot so the next plan refreshes (push
    /// membership deltas, tests, or callers that just changed the registry
    /// and can't wait out the TTL). Also bumps the membership generation,
    /// which retires any refresh still in flight — without the bump, a
    /// concurrent [`Planner::plan`] that fetched entries *before* this call
    /// could store them *after* it, resurrecting the pre-delta view.
    pub fn invalidate_snapshot(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        *self.snapshot.lock() = None;
    }

    /// The current membership generation (diagnostics and tests).
    pub fn snapshot_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drop one site's cached Application binding (its registry entry was
    /// withdrawn, so the bound instance is — or is about to be — gone).
    /// Also forgets the site's lease, so the next snapshot refresh does not
    /// re-report a withdrawal that a push delta already handled.
    pub fn unbind_site(&self, site: &str) {
        self.bound.lock().remove(site);
        self.last_seen.lock().remove(site);
    }

    /// The `host:port` of the registry this planner snapshots.
    pub fn registry_authority(&self) -> String {
        self.registry.url().authority()
    }

    /// Expand one site, retrying once with a fresh Application instance if a
    /// cached binding has gone stale (site restarted since the last query).
    fn plan_site(
        &self,
        site: &str,
        entry: &ServiceEntry,
        query: &FederatedQuery,
    ) -> Result<SitePlan, OgsiError> {
        match self.expand(site, entry, query, false) {
            Ok(plan) => Ok(plan),
            Err(_) if self.was_bound(site) => self.expand(site, entry, query, true),
            Err(e) => Err(e),
        }
    }

    fn was_bound(&self, site: &str) -> bool {
        self.bound.lock().contains_key(site)
    }

    fn expand(
        &self,
        site: &str,
        entry: &ServiceEntry,
        query: &FederatedQuery,
        rebind: bool,
    ) -> Result<SitePlan, OgsiError> {
        if rebind {
            self.bound.lock().remove(site);
        }
        // Look up (and drop the lock on) the cached binding before any wire
        // work: createService and capability discovery must not run under it.
        let cached = self
            .bound
            .lock()
            .get(site)
            .map(|bound| (bound.app.clone(), bound.wire));
        let (app, wire) = match cached {
            Some(cached) => cached,
            None => {
                let factory_gsh = Gsh::parse(entry.factory_url.as_str())?;
                let factory = FactoryStub::bind(Arc::clone(&self.client), &factory_gsh);
                let instance = factory.create_service(&[])?;
                let app = ApplicationStub::bind(Arc::clone(&self.client), &instance);
                let manager = self.hedging.then(|| self.discover_manager(&app)).flatten();
                let wire = self.discover_wire(&app);
                self.bound.lock().insert(
                    site.to_owned(),
                    BoundSite {
                        app: app.clone(),
                        manager,
                        wire,
                        hedges: HashMap::new(),
                    },
                );
                (app, wire)
            }
        };
        let primaries = match &query.selector {
            Some((attribute, value)) => app.get_execs(attribute, value)?,
            None => app.get_all_execs()?,
        };
        let hedges = self.hedges_for(site, &primaries);
        let targets = primaries
            .into_iter()
            .zip(hedges)
            .map(|(primary, hedge)| ExecTarget { primary, hedge })
            .collect();
        Ok(SitePlan {
            site: site.to_owned(),
            factory: Gsh::parse(entry.factory_url.as_str())?,
            targets,
            wire,
        })
    }

    /// The site's Manager handle, advertised as `managerGsh` service data on
    /// its Application instances. Best-effort: sites predating the element
    /// simply don't hedge.
    fn discover_manager(&self, app: &ApplicationStub) -> Option<ManagerStub> {
        let gs = GridServiceStub::bind(Arc::clone(&self.client), app.handle());
        let value = gs.find_service_data("managerGsh").ok()?;
        let gsh = Gsh::parse(value.as_str()?).ok()?;
        Some(ManagerStub::bind(Arc::clone(&self.client), &gsh))
    }

    /// The newest wire the site advertises, read once per binding from its
    /// `wireVersion` service data. Best-effort: absent or unreadable means
    /// per-call getPR, so sites that predate wire negotiation keep working
    /// untouched.
    fn discover_wire(&self, app: &ApplicationStub) -> Wire {
        let gs = GridServiceStub::bind(Arc::clone(&self.client), app.handle());
        gs.find_service_data(WIRE_VERSION_SDE)
            .ok()
            .and_then(|v| v.as_int())
            .map_or(Wire::PerCall, Wire::from_version)
    }

    /// Hedge handles aligned with `primaries`, consulting the site's Manager
    /// only for primaries not already learned.
    fn hedges_for(&self, site: &str, primaries: &[Gsh]) -> Vec<Option<Gsh>> {
        if !self.hedging || primaries.is_empty() {
            return vec![None; primaries.len()];
        }
        let (manager, mut known) = {
            let bound = self.bound.lock();
            let Some(bound_site) = bound.get(site) else {
                return vec![None; primaries.len()];
            };
            let Some(manager) = bound_site.manager.clone() else {
                return vec![None; primaries.len()];
            };
            let known: Vec<Option<Option<Gsh>>> = primaries
                .iter()
                .map(|p| bound_site.hedges.get(p.as_str()).cloned())
                .collect();
            (manager, known)
        };
        let unknown: Vec<Gsh> = primaries
            .iter()
            .zip(&known)
            .filter(|(_, k)| k.is_none())
            .map(|(p, _)| p.clone())
            .collect();
        if !unknown.is_empty() {
            // One wire call learns every missing hedge; failure leaves them
            // unhedged (best-effort).
            let learned = manager
                .get_hedges(&unknown)
                .unwrap_or_else(|_| vec![None; unknown.len()]);
            let mut bound = self.bound.lock();
            if let Some(bound_site) = bound.get_mut(site) {
                for (primary, hedge) in unknown.iter().zip(&learned) {
                    bound_site
                        .hedges
                        .insert(primary.as_str().to_owned(), hedge.clone());
                }
            }
            let mut learned_iter = learned.into_iter();
            for slot in known.iter_mut() {
                if slot.is_none() {
                    *slot = Some(learned_iter.next().unwrap_or(None));
                }
            }
        }
        known.into_iter().map(|k| k.flatten()).collect()
    }

    /// Drop every cached Application binding (e.g. between test phases).
    pub fn clear_bindings(&self) {
        self.bound.lock().clear();
    }

    /// Number of sites with a live cached Application binding.
    pub fn bound_sites(&self) -> usize {
        self.bound.lock().len()
    }
}
