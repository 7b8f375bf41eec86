//! The verdict cache: decisions keyed by *content*, not by workspace-local ids.
//!
//! A verdict of `SAT(X, DTD)` depends only on the DTD and the query, so the cache
//! keys on `(DTD fingerprint, canonical query hash)`: the fingerprint is the
//! FNV-1a-64 of the DTD's canonical text (the same content address the on-disk
//! artifact store uses) and the query hash is the FNV-1a-64 of the plan compiler's
//! canonical form, which is invariant under qualifier reordering, associativity and
//! the trivial rewrites.  Any spelling of the same instance, from any workspace
//! holding the cache, lands on the same entry.  Every workspace decides through
//! exactly one such cache: a private one by default, or one shared between tenants
//! ([`crate::Workspace::with_canonical_cache`]).
//!
//! Like the artifact store, sharing this cache across tenants leaks nothing beyond
//! "someone already decided this exact instance" — a complete entry is a pure
//! function of the (DTD, query) content.  The cache enforces three rules:
//!
//! * complete, unexhausted verdicts are stored under the *shared* scope, visible to
//!   every workspace holding the cache;
//! * incomplete (`complete: false`) verdicts are stored under the scope of the
//!   workspace that computed them, so they never answer another tenant;
//! * exhausted verdicts are never stored: a budget-capped `Unknown` reflects one
//!   caller's allowance, never the instance.
//!
//! Each entry keeps the full DTD and query texts, and a lookup compares them, so a
//! hash collision degrades to a miss, never to another instance's verdict.  The
//! comparison needs no allocation and hashes no string: the DTD text is an
//! [`Arc<str>`] shared with the registering workspace (a pointer compare within
//! it), and both hashes were computed once, at registration and at intern time.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use xpsat_core::Decision;

/// Number of lock stripes (a power of two); tenants contend only when their keys
/// hash to the same stripe.
const STRIPES: usize = 16;

/// The scope of complete verdicts, which every workspace may be served.  Workspace
/// scopes are the nonzero workspace ids.
const SHARED: u64 = 0;

/// `(DTD fingerprint, canonical query hash, scope)`.
type Key = (u64, u64, u64);

/// One stripe: a plain map under a mutex (a hit is an `Arc` bump).
type Stripe = Mutex<HashMap<Key, Entry>>;

/// The content identity of one `(DTD, query)` instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instance<'a> {
    /// FNV-1a-64 of the DTD's canonical text.
    pub fingerprint: u64,
    /// The DTD's canonical text.
    pub dtd: &'a Arc<str>,
    /// FNV-1a-64 of the canonical query text.
    pub query_hash: u64,
    /// The canonical query text.
    pub query: &'a str,
}

/// A stored verdict with the identity it answers and the workspace that computed
/// it.
#[derive(Debug)]
struct Entry {
    dtd: Arc<str>,
    query: Box<str>,
    publisher: u64,
    decision: Arc<Decision>,
}

impl Entry {
    /// Is this entry the verdict of `instance` (not a hash collision)?
    fn answers(&self, instance: &Instance<'_>) -> bool {
        (Arc::ptr_eq(&self.dtd, instance.dtd) || *self.dtd == **instance.dtd)
            && *self.query == *instance.query
    }
}

/// A content-addressed decision cache, keyed by
/// `(DTD fingerprint, canonical query hash)` and scoped as the module docs describe.
#[derive(Debug)]
pub struct CanonicalCache {
    stripes: Vec<Stripe>,
}

impl Default for CanonicalCache {
    fn default() -> CanonicalCache {
        CanonicalCache::new()
    }
}

impl CanonicalCache {
    /// An empty cache.  Wrap it in an [`Arc`] and hand a clone to every workspace
    /// that should share it ([`crate::Workspace::with_canonical_cache`]).
    pub fn new() -> CanonicalCache {
        CanonicalCache {
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Both scopes of an instance live in one stripe, so a lookup takes one lock.
    fn stripe(&self, instance: &Instance<'_>) -> &Stripe {
        let h = instance.fingerprint ^ instance.query_hash;
        &self.stripes[((h >> 32) as usize) & (STRIPES - 1)]
    }

    /// The verdict of `instance` visible to `workspace`, with the id of the
    /// workspace that computed it.
    pub(crate) fn get(
        &self,
        instance: &Instance<'_>,
        workspace: u64,
    ) -> Option<(Arc<Decision>, u64)> {
        let stripe = lock_recovering(self.stripe(instance));
        [SHARED, workspace].into_iter().find_map(|scope| {
            stripe
                .get(&(instance.fingerprint, instance.query_hash, scope))
                .filter(|entry| entry.answers(instance))
                .map(|entry| (Arc::clone(&entry.decision), entry.publisher))
        })
    }

    /// Store the verdict `workspace` computed for `instance`, and return the verdict
    /// that ended up stored: the first writer wins, so served output stays
    /// deterministic under races.  Exhausted verdicts, and verdicts whose key is held
    /// by a colliding instance, are returned without being stored.
    pub(crate) fn insert(
        &self,
        instance: &Instance<'_>,
        workspace: u64,
        decision: Decision,
    ) -> Arc<Decision> {
        let decision = Arc::new(decision);
        if decision.exhausted.is_some() {
            return decision;
        }
        let scope = if decision.complete { SHARED } else { workspace };
        let key = (instance.fingerprint, instance.query_hash, scope);
        match lock_recovering(self.stripe(instance)).entry(key) {
            MapEntry::Vacant(slot) => {
                slot.insert(Entry {
                    dtd: Arc::clone(instance.dtd),
                    query: instance.query.into(),
                    publisher: workspace,
                    decision: Arc::clone(&decision),
                });
                decision
            }
            MapEntry::Occupied(slot) if slot.get().answers(instance) => {
                Arc::clone(&slot.get().decision)
            }
            MapEntry::Occupied(_) => decision,
        }
    }

    /// Number of cached instances (sums the stripes; approximate under concurrency).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_recovering(s).len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Recover from poison: stripes hold plain data whose every intermediate state is
/// valid, so a panic elsewhere must not wedge the cache for every later request.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_core::{EngineKind, Exhausted, Satisfiability};

    fn verdict(complete: bool, exhausted: Option<Exhausted>) -> Decision {
        Decision {
            result: Satisfiability::Unsatisfiable,
            engine: EngineKind::CompiledVm,
            complete,
            exhausted,
        }
    }

    #[test]
    fn first_publish_wins_and_keys_are_exact() {
        let cache = CanonicalCache::new();
        let dtd: Arc<str> = Arc::from("r -> a; a -> #;");
        let at = |fingerprint, query| Instance {
            fingerprint,
            dtd: &dtd,
            query_hash: crate::store::canonical_key(query),
            query,
        };
        assert!(cache.get(&at(7, "a[b and c]"), 1).is_none());
        let first = cache.insert(&at(7, "a[b and c]"), 1, verdict(true, None));
        let second = cache.insert(&at(7, "a[b and c]"), 2, verdict(true, None));
        assert!(Arc::ptr_eq(&first, &second));
        let (hit, publisher) = cache.get(&at(7, "a[b and c]"), 2).unwrap();
        assert!(Arc::ptr_eq(&hit, &first));
        assert_eq!(publisher, 1);
        // Different DTD fingerprint or different canonical text: distinct entries.
        assert!(cache.get(&at(8, "a[b and c]"), 1).is_none());
        assert!(cache.get(&at(7, "a[c and b]"), 1).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scopes_follow_completeness_and_exhausted_verdicts_are_dropped() {
        let cache = CanonicalCache::new();
        let dtd: Arc<str> = Arc::from("r -> a*; a -> #;");
        let instance = Instance {
            fingerprint: 1,
            dtd: &dtd,
            query_hash: 2,
            query: "a",
        };
        cache.insert(&instance, 5, verdict(false, Some(Exhausted::Steps)));
        assert!(cache.is_empty());
        cache.insert(&instance, 5, verdict(false, None));
        assert!(cache.get(&instance, 5).is_some());
        assert!(
            cache.get(&instance, 6).is_none(),
            "incomplete stays private"
        );
    }

    #[test]
    fn hash_collisions_miss_instead_of_serving_another_verdict() {
        let cache = CanonicalCache::new();
        let dtd: Arc<str> = Arc::from("r -> a; a -> #;");
        let other_dtd: Arc<str> = Arc::from("r -> b; b -> #;");
        let stored = Instance {
            fingerprint: 9,
            dtd: &dtd,
            query_hash: 42,
            query: "a",
        };
        cache.insert(&stored, 1, verdict(true, None));
        // Same hashes, different query text or different DTD text: never served.
        for forged in [
            Instance {
                query: "b",
                ..stored
            },
            Instance {
                dtd: &other_dtd,
                ..stored
            },
        ] {
            assert!(cache.get(&forged, 1).is_none());
            let kept = cache.insert(&forged, 1, verdict(true, None));
            assert!(!Arc::ptr_eq(&kept, &cache.get(&stored, 1).unwrap().0));
        }
        assert_eq!(cache.len(), 1);
    }
}
