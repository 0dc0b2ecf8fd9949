//! Registered networks and their panic-isolated plan caches.
//!
//! Each registered network gets a [`NetEntry`]: a `Mutex<PlanContext>`
//! plus the immutable template `(Network, PlannerConfig)` it was
//! registered with. The mutex (not an `RwLock`) is deliberate — std's
//! `RwLock` only poisons on panics under a *write* guard, so a panic
//! during read-mode planning would silently skip the poison path; with
//! a `Mutex` every injected panic genuinely poisons the entry and the
//! recovery machinery is exercised for real.
//!
//! Recovery policy: a panic mid-build leaves the cache in an unknown
//! state. The next holder of the entry's lock — a waiting worker, or
//! the panicking worker's own catch arm via [`NetEntry::repair`] — sees
//! the poison while it holds the guard, so it discards the cache,
//! reinstalls a fresh `PlanContext` from the template, clears the
//! poison flag, and bumps the entry's generation (invalidating
//! single-flight keys minted against the dead cache), which also counts
//! the entry's rebuilds. Only a holder of the guard can poison the
//! mutex, so checking and repairing under it repairs each poisoning
//! exactly once, and nobody wedges.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use bc_core::planner::Algorithm;
use bc_core::{PlanContext, PlannerConfig, StageBudget};
use bc_wsn::Network;

use crate::sync::{lock_recover, read_recover, write_recover};

/// Opaque handle naming a registered network.
pub type NetworkId = u64;

/// One registered network: template, live cache, and recovery counters.
#[derive(Debug)]
pub struct NetEntry {
    id: NetworkId,
    template_net: Network,
    template_cfg: PlannerConfig,
    cache: Mutex<PlanContext>,
    /// Bumped every rebuild; part of the single-flight key so results
    /// computed against a discarded cache are never shared forward.
    generation: AtomicU64,
}

impl NetEntry {
    fn new(id: NetworkId, net: Network, cfg: PlannerConfig) -> Self {
        NetEntry {
            id,
            cache: Mutex::new(PlanContext::new(net.clone(), cfg.clone())),
            template_net: net,
            template_cfg: cfg,
            generation: AtomicU64::new(0),
        }
    }

    /// This entry's id.
    pub fn id(&self) -> NetworkId {
        self.id
    }

    /// Times this entry has been rebuilt: once per poisoning.
    pub fn rebuilds(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current generation (bumped on every rebuild, so equal to
    /// [`NetEntry::rebuilds`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// True while the cache mutex is poisoned (i.e. between a panic and
    /// the next lock acquisition, which repairs it).
    pub fn is_poisoned(&self) -> bool {
        self.cache.is_poisoned()
    }

    /// `(generation, revision)` — the cache-identity part of a
    /// single-flight key.
    pub fn flight_revision(&self) -> (u64, u64) {
        let rev = self.with_cache(PlanContext::revision);
        (self.generation(), rev)
    }

    /// Runs `f` under the cache lock, transparently rebuilding first if
    /// a previous holder panicked.
    ///
    /// Note `f` runs while the lock is held — a panic inside `f`
    /// poisons the entry, which is exactly how the chaos harness
    /// injects poison.
    pub fn with_cache<R>(&self, f: impl FnOnce(&PlanContext) -> R) -> R {
        f(&self.lock_cache())
    }

    /// Mutable variant of [`Self::with_cache`] for replan mutations.
    pub fn with_cache_mut<R>(&self, f: impl FnOnce(&mut PlanContext) -> R) -> R {
        f(&mut self.lock_cache())
    }

    /// Repairs the entry if a panic left it poisoned; a no-op on a
    /// healthy entry. The service calls it after every caught panic, so
    /// even a panic on the last retry leaves no entry poisoned, and a
    /// waiter that repaired first is never double-counted.
    pub fn repair(&self) {
        drop(self.lock_cache());
    }

    /// The one way to take the cache lock. A poisoned cache is replaced
    /// while the guard is held: the fresh cache comes from the
    /// registered template, the poison flag is cleared and the
    /// generation (the rebuild count) bumped.
    ///
    /// Replan mutations applied since registration are lost — after a
    /// panic mid-build the mutated state cannot be trusted, and the
    /// template is the last state known to be consistent. Callers that
    /// need the mutations must resubmit them; the generation bump tells
    /// them to.
    fn lock_cache(&self) -> MutexGuard<'_, PlanContext> {
        let mut guard = lock_recover(&self.cache);
        if self.cache.is_poisoned() {
            *guard = PlanContext::new(self.template_net.clone(), self.template_cfg.clone());
            self.cache.clear_poison();
            self.generation.fetch_add(1, Ordering::AcqRel);
            if bc_obs::active() {
                bc_obs::counter(
                    "serve",
                    "rebuild",
                    1,
                    &[bc_obs::Field::new("network", self.id)],
                );
            }
        }
        guard
    }

    /// Budget-aware planning with release-mode contract re-validation.
    ///
    /// Runs the budgeted pipeline and — when `force_check` is set (the
    /// ladder descended to a lower rung) or the run was cut mid-pipeline
    /// — explicitly re-checks the bundle-radius, Eq. 1 dwell, and
    /// set-cover contracts against the network the plan was built for,
    /// all under one lock acquisition so a concurrent replan cannot
    /// invalidate the check. Returns the cache revision planned against.
    ///
    /// # Errors
    ///
    /// [`crate::ServeError::Plan`] from validation,
    /// [`crate::ServeError::Contract`] if a degraded plan violates a
    /// contract (an internal invariant failure, never expected).
    pub fn plan_budgeted_checked(
        &self,
        algo: Algorithm,
        budget: &StageBudget,
        force_check: bool,
    ) -> Result<(bc_core::BudgetedPlan, u64), crate::ServeError> {
        self.with_cache(|cache| {
            let out = cache.plan_budgeted(algo, budget)?;
            if force_check || !out.completed {
                if let Some(staged) = &out.plan {
                    bc_core::contracts::check_plan(&staged.plan, cache.network(), cache.config())
                        .map_err(|v| crate::ServeError::Contract(v.to_string()))?;
                }
            }
            Ok((out, cache.revision()))
        })
    }
}

/// All registered networks, keyed by [`NetworkId`].
#[derive(Debug, Default)]
pub struct NetworkRegistry {
    entries: RwLock<BTreeMap<NetworkId, Arc<NetEntry>>>,
    next_id: AtomicU64,
}

impl NetworkRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        NetworkRegistry::default()
    }

    /// Registers a network + config template and returns its id.
    pub fn register(&self, net: Network, cfg: PlannerConfig) -> NetworkId {
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        let entry = Arc::new(NetEntry::new(id, net, cfg));
        write_recover(&self.entries).insert(id, entry);
        id
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: NetworkId) -> Option<Arc<NetEntry>> {
        read_recover(&self.entries).get(&id).cloned()
    }

    /// Number of registered networks.
    pub fn len(&self) -> usize {
        read_recover(&self.entries).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of currently poisoned entries — the chaos harness asserts
    /// this is zero once the request stream drains.
    pub fn poisoned_entries(&self) -> usize {
        read_recover(&self.entries)
            .values()
            .filter(|e| e.is_poisoned())
            .count()
    }

    /// Total rebuilds across all entries.
    pub fn total_rebuilds(&self) -> u64 {
        read_recover(&self.entries)
            .values()
            .map(|e| e.rebuilds())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn registry_with_net() -> (NetworkRegistry, NetworkId) {
        let reg = NetworkRegistry::new();
        let net = deploy::uniform(25, Aabb::square(200.0), 2.0, 3);
        let id = reg.register(net, PlannerConfig::paper_sim(20.0));
        (reg, id)
    }

    #[test]
    fn register_and_plan() {
        let (reg, id) = registry_with_net();
        let entry = reg.get(id).unwrap();
        let staged = entry.with_cache(|c| c.plan(Algorithm::Bc)).unwrap();
        assert!(staged.plan.num_charging_stops() > 0);
        assert_eq!(entry.flight_revision(), (0, 0));
        assert!(reg.get(id + 1).is_none());
    }

    #[test]
    fn panic_inside_with_cache_poisons_then_the_next_lock_repairs() {
        let (reg, id) = registry_with_net();
        let entry = reg.get(id).unwrap();
        let r = catch_unwind(AssertUnwindSafe(|| {
            entry.with_cache(|_cache| panic!("injected"));
        }));
        assert!(r.is_err());
        assert!(entry.is_poisoned());
        assert_eq!(reg.poisoned_entries(), 1);

        // The next user transparently rebuilds and proceeds.
        let staged = entry.with_cache(|c| c.plan(Algorithm::Sc)).unwrap();
        let net = entry.with_cache(|c| c.network().clone());
        assert!(staged
            .plan
            .validate(&net, &PlannerConfig::paper_sim(20.0).charging)
            .is_ok());
        assert!(!entry.is_poisoned());
        assert_eq!(entry.rebuilds(), 1);
        assert_eq!(entry.generation(), 1);
        assert_eq!(reg.poisoned_entries(), 0);

        // A late repair (the panicking worker's catch arm arriving after
        // a waiter already rebuilt) finds a healthy entry: still one.
        entry.repair();
        assert_eq!(entry.rebuilds(), 1);
        assert_eq!(entry.generation(), 1);
    }

    #[test]
    fn repair_restores_the_registered_template() {
        let (reg, id) = registry_with_net();
        let entry = reg.get(id).unwrap();
        let n0 = entry.with_cache(|c| c.network().len());
        // Mutate: drop one sensor, revision moves.
        entry.with_cache_mut(|cache| {
            let base = cache.plan(Algorithm::Bc).unwrap().plan;
            cache.remove_sensor(&base, 0).unwrap();
        });
        assert_eq!(entry.flight_revision(), (0, 1));
        assert_eq!(entry.with_cache(|c| c.network().len()), n0 - 1);
        entry.repair();
        assert_eq!(
            entry.flight_revision(),
            (0, 1),
            "a healthy entry keeps its mutations"
        );

        let r = catch_unwind(AssertUnwindSafe(|| {
            entry.with_cache_mut(|_cache| panic!("injected"));
        }));
        assert!(r.is_err());
        entry.repair();
        assert_eq!(entry.rebuilds(), 1);
        assert_eq!(entry.flight_revision(), (1, 0));
        assert_eq!(entry.with_cache(|c| c.network().len()), n0);
    }
}
