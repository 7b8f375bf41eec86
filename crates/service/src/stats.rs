//! Cache-effectiveness counters for a [`crate::Workspace`].
//!
//! The counters exist so that callers (and the acceptance tests) can *prove* that the
//! service amortises per-DTD preprocessing: after a warm batch, a second identical
//! batch must leave `classifications` untouched and grow only `decision_cache_hits`.

use std::sync::atomic::{AtomicU64, Ordering};
use xpsat_plan::BailReason;

/// Number of distinct compile-bail reasons ([`BailReason::ALL`]); the
/// `compile_bailouts` array is indexed by [`BailReason::index`].
pub const BAIL_REASONS: usize = BailReason::ALL.len();

/// Monotone counters updated by the workspace; thread-safe, relaxed ordering (the
/// counters are diagnostics, never synchronisation).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub(crate) dtds_registered: AtomicU64,
    pub(crate) dtds_reused: AtomicU64,
    pub(crate) classifications: AtomicU64,
    pub(crate) normalizations: AtomicU64,
    pub(crate) automata_built: AtomicU64,
    pub(crate) queries_interned: AtomicU64,
    pub(crate) queries_reused: AtomicU64,
    pub(crate) decisions_computed: AtomicU64,
    pub(crate) decision_cache_hits: AtomicU64,
    pub(crate) artifact_store_hits: AtomicU64,
    pub(crate) artifact_store_misses: AtomicU64,
    pub(crate) artifact_store_writes: AtomicU64,
    pub(crate) artifact_store_corrupt: AtomicU64,
    pub(crate) dtd_evictions: AtomicU64,
    pub(crate) artifact_rebuilds: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) resource_exhausted: AtomicU64,
    pub(crate) canonical_hits: AtomicU64,
    pub(crate) programs_compiled: AtomicU64,
    pub(crate) program_fallbacks: AtomicU64,
    pub(crate) vm_decides: AtomicU64,
    pub(crate) vm_witness_fallbacks: AtomicU64,
    pub(crate) program_store_hits: AtomicU64,
    pub(crate) program_store_misses: AtomicU64,
    pub(crate) program_store_writes: AtomicU64,
    pub(crate) program_store_corrupt: AtomicU64,
    pub(crate) compile_bailouts: [AtomicU64; BAIL_REASONS],
}

impl CacheStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            dtds_registered: self.dtds_registered.load(Ordering::Relaxed),
            dtds_reused: self.dtds_reused.load(Ordering::Relaxed),
            classifications: self.classifications.load(Ordering::Relaxed),
            normalizations: self.normalizations.load(Ordering::Relaxed),
            automata_built: self.automata_built.load(Ordering::Relaxed),
            queries_interned: self.queries_interned.load(Ordering::Relaxed),
            queries_reused: self.queries_reused.load(Ordering::Relaxed),
            decisions_computed: self.decisions_computed.load(Ordering::Relaxed),
            decision_cache_hits: self.decision_cache_hits.load(Ordering::Relaxed),
            artifact_store_hits: self.artifact_store_hits.load(Ordering::Relaxed),
            artifact_store_misses: self.artifact_store_misses.load(Ordering::Relaxed),
            artifact_store_writes: self.artifact_store_writes.load(Ordering::Relaxed),
            artifact_store_corrupt: self.artifact_store_corrupt.load(Ordering::Relaxed),
            dtd_evictions: self.dtd_evictions.load(Ordering::Relaxed),
            artifact_rebuilds: self.artifact_rebuilds.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            resource_exhausted: self.resource_exhausted.load(Ordering::Relaxed),
            canonical_hits: self.canonical_hits.load(Ordering::Relaxed),
            programs_compiled: self.programs_compiled.load(Ordering::Relaxed),
            program_fallbacks: self.program_fallbacks.load(Ordering::Relaxed),
            vm_decides: self.vm_decides.load(Ordering::Relaxed),
            vm_witness_fallbacks: self.vm_witness_fallbacks.load(Ordering::Relaxed),
            program_store_hits: self.program_store_hits.load(Ordering::Relaxed),
            program_store_misses: self.program_store_misses.load(Ordering::Relaxed),
            program_store_writes: self.program_store_writes.load(Ordering::Relaxed),
            program_store_corrupt: self.program_store_corrupt.load(Ordering::Relaxed),
            compile_bailouts: std::array::from_fn(|i| {
                self.compile_bailouts[i].load(Ordering::Relaxed)
            }),
            resident_dtds: 0,
        }
    }
}

/// A plain-data copy of the workspace counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// DTDs registered for the first time (full preprocessing ran).
    pub dtds_registered: u64,
    /// `register_dtd` calls served by the canonical-text dedup table.
    pub dtds_reused: u64,
    /// How many times [`xpsat_dtd::classify()`] actually ran.
    pub classifications: u64,
    /// How many times [`xpsat_dtd::normalize()`] actually ran.
    pub normalizations: u64,
    /// Content-model Glushkov automata constructed (one per element type, at
    /// registration).
    pub automata_built: u64,
    /// Queries interned for the first time.
    pub queries_interned: u64,
    /// `intern` calls served by the canonical-path dedup table.
    pub queries_reused: u64,
    /// Decisions computed by running a solver engine.
    pub decisions_computed: u64,
    /// Decisions served from a verdict this workspace computed: a cached entry it
    /// published, or a repeat within one batch of a class the batch computed.
    pub decision_cache_hits: u64,
    /// Registrations (or rematerialisations) served from the on-disk artifact store.
    pub artifact_store_hits: u64,
    /// Store lookups that found no valid entry (absent or corrupt).
    pub artifact_store_misses: u64,
    /// Entries written to the on-disk artifact store.
    pub artifact_store_writes: u64,
    /// Store lookups that found a *corrupt* entry (bad magic, truncation, failed
    /// decode) — a subset of `artifact_store_misses`, split out because corruption
    /// signals disk trouble or tampering while a plain miss is just a cold cache.
    pub artifact_store_corrupt: u64,
    /// Resident compiled artifacts evicted by the LRU residency bound.
    pub dtd_evictions: u64,
    /// Evicted artifacts brought back (from the store or by recompiling).
    pub artifact_rebuilds: u64,
    /// Requests abandoned because their deadline expired mid-batch.
    pub deadline_exceeded: u64,
    /// Decisions that spent their step budget and were answered `Unknown` with an
    /// exhaustion marker (never cached).
    pub resource_exhausted: u64,
    /// Decisions served from a verdict *another* workspace published to the shared
    /// cache (the same `(DTD fingerprint, canonical query)` instance, decided by
    /// another tenant).  Counted on every such hit, never also as a
    /// `decision_cache_hits`.
    pub canonical_hits: u64,
    /// Compile attempts that lowered a class to a decision program.  A class is
    /// compiled when its verdict is computed (or `classify` asks for its program)
    /// and no valid program is in the persistent store; a cached verdict never
    /// compiles.  Exhausted and deadline-interrupted verdicts are not cached, so
    /// each retry of such a class compiles, and counts, again.
    pub programs_compiled: u64,
    /// Compile attempts that bailed (the class is outside the compiled fragment and
    /// is decided by the AST solver).
    pub program_fallbacks: u64,
    /// Decisions answered by replaying a compiled program in the plan VM.
    pub vm_decides: u64,
    /// VM SAT verdicts whose witness realisation failed, falling back to the AST
    /// solver (expected to stay 0; counted so drift is visible).
    pub vm_witness_fallbacks: u64,
    /// Compiled programs served from the persistent program store (a restarted
    /// server replays these with zero compiles; does **not** count towards
    /// `programs_compiled`).
    pub program_store_hits: u64,
    /// Program-store lookups that found no valid entry (absent or corrupt).
    pub program_store_misses: u64,
    /// Compiled programs written to the persistent store.
    pub program_store_writes: u64,
    /// Program-store lookups that found a *corrupt* entry (bad magic, truncation,
    /// checksum mismatch) — a subset of `program_store_misses`; the damaged entry
    /// is deleted and the program recompiled.
    pub program_store_corrupt: u64,
    /// Compile bails by reason, indexed by [`BailReason::index`] (the slugs of
    /// [`BailReason::as_str`] in [`BailReason::ALL`] order).  Sums to
    /// `program_fallbacks`.
    pub compile_bailouts: [u64; BAIL_REASONS],
    /// Gauge (not a counter): compiled artifacts currently resident in memory.
    pub resident_dtds: u64,
}

impl StatsSnapshot {
    /// Fraction of computed decisions answered by the compiled-program VM, in
    /// `[0, 1]` (`0` when nothing was decided yet).  The headline coverage metric
    /// of the compiled fast path.
    pub fn vm_coverage(&self) -> f64 {
        if self.decisions_computed == 0 {
            0.0
        } else {
            self.vm_decides as f64 / self.decisions_computed as f64
        }
    }

    /// `(slug, count)` pairs of the nonzero compile-bail reasons, in
    /// [`BailReason::ALL`] order.
    pub fn bailouts_by_reason(&self) -> Vec<(&'static str, u64)> {
        BailReason::ALL
            .iter()
            .zip(self.compile_bailouts)
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| (r.as_str(), n))
            .collect()
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dtds: {} registered, {} reused, {} resident, {} evicted, {} rebuilt; \
             classifications: {}; normalizations: {}; automata: {}; \
             queries: {} interned, {} reused; decisions: {} computed, {} cache hits; \
             artifact store: {} hits, {} misses ({} corrupt), {} writes; \
             deadlines exceeded: {}; budgets exhausted: {}; \
             canonical hits: {}; programs: {} compiled, {} fallbacks; \
             program store: {} hits, {} misses ({} corrupt), {} writes; \
             vm: {} decides, {} witness fallbacks, {:.1}% coverage",
            self.dtds_registered,
            self.dtds_reused,
            self.resident_dtds,
            self.dtd_evictions,
            self.artifact_rebuilds,
            self.classifications,
            self.normalizations,
            self.automata_built,
            self.queries_interned,
            self.queries_reused,
            self.decisions_computed,
            self.decision_cache_hits,
            self.artifact_store_hits,
            self.artifact_store_misses,
            self.artifact_store_corrupt,
            self.artifact_store_writes,
            self.deadline_exceeded,
            self.resource_exhausted,
            self.canonical_hits,
            self.programs_compiled,
            self.program_fallbacks,
            self.program_store_hits,
            self.program_store_misses,
            self.program_store_corrupt,
            self.program_store_writes,
            self.vm_decides,
            self.vm_witness_fallbacks,
            self.vm_coverage() * 100.0,
        )?;
        let bailed = self.bailouts_by_reason();
        if !bailed.is_empty() {
            write!(f, "; compile bailouts:")?;
            for (slug, count) in bailed {
                write!(f, " {slug}={count}")?;
            }
        }
        Ok(())
    }
}
