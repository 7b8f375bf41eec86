//! The [`Workspace`]: registered DTDs with precomputed artifacts, interned queries and
//! a content-addressed verdict cache.
//!
//! The paper's complexity landscape makes per-DTD work (classification, normalisation,
//! content-model automata) the expensive, *reusable* part of `SAT(X, DTD)`, while
//! per-query dispatch is often PTIME.  The workspace exploits that shape the way a
//! production static analyzer would: a DTD is registered once, its artifacts are
//! computed once and cached, and every subsequent decision against it reuses them.
//! Queries are interned by canonical text so repeated paths share one [`QueryId`],
//! grouped further into *structural equivalence classes* by the plan compiler's
//! canonical form (`a[b and c]` ≡ `a[c][b]`), and decided at most once per class.
//! Verdicts live in one [`CanonicalCache`] keyed by `(DTD fingerprint, canonical
//! query)`: a private one by default, or one shared between workspaces (tenants) so
//! structurally identical instances are answered across workspace boundaries.
//! Classes inside the compiled fragment are lowered to a flat [`DecisionProgram`]
//! (from the persistent store when one holds it) and decided in the allocation-free
//! plan VM; the AST [`Solver`] remains the oracle for everything else.
//!
//! Registered artifacts are held as [`Arc<DtdArtifacts>`] behind per-slot residency:
//! with a [`Workspace::with_resident_bound`] in force, the least-recently-used compiled
//! artifacts are dropped from memory once the bound is exceeded and transparently
//! *rematerialised* on next touch — from the optional persistent
//! [`ArtifactStore`](crate::store::ArtifactStore) when one is attached
//! ([`Workspace::with_store`]), else by recompiling from the canonical text.  Ids,
//! interned queries and cached decisions all survive eviction, and a request whose
//! verdicts are all cached never touches the artifacts.
//!
//! Every decision goes through [`Workspace::decide_batch_governed`] (a single
//! [`Workspace::decide`] is a batch of one), which takes `&self`, so one workspace
//! can be shared across worker threads.  Decisions are stored and served as
//! [`Arc<Decision>`]: a cache hit is a pointer bump, never a witness-document clone.

use crate::canonical::{lock_recovering, CanonicalCache, Instance};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::store::{ArtifactStore, StoreMiss};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use xpsat_core::{Budget, Decision, EngineKind, Exhausted, Solver, SolverConfig};
use xpsat_dtd::{normalize, parse_dtd, Dtd, DtdClass, Normalization};
use xpsat_plan::{CanonicalQuery, CompileLimits, DecisionProgram};
use xpsat_xpath::{parse_path, Path};

thread_local! {
    /// Per-thread VM register file, reused across decisions so replaying a compiled
    /// program allocates nothing in steady state (batch workers each get their own).
    static VM_SCRATCH: RefCell<xpsat_plan::Scratch> = RefCell::new(xpsat_plan::Scratch::new());
}

/// Source of workspace ids: the scope under which a workspace's incomplete verdicts
/// are cached, and the publisher recorded on every verdict it computes.  Starts at 1
/// because 0 is the verdict cache's shared scope.
static NEXT_WORKSPACE_ID: AtomicU64 = AtomicU64::new(1);

/// Handle of a registered DTD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DtdId(pub(crate) usize);

impl DtdId {
    /// The numeric value used by the JSON-lines protocol.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle of an interned query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub(crate) usize);

impl QueryId {
    /// The numeric value used by the JSON-lines protocol.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Everything the service precomputes for a registered DTD, exactly once.
#[derive(Debug)]
pub struct DtdArtifacts {
    /// The DTD itself.
    pub dtd: Dtd,
    /// Canonical textual form (the dedup key; round-trips through the parser).
    pub canonical: String,
    /// Content address of this DTD: FNV-1a-64 of the canonical text, the same key
    /// the on-disk store files entries under.  Keys the cross-workspace
    /// [`CanonicalCache`], so tenants with private [`DtdId`]s still share verdicts.
    pub fingerprint: u64,
    /// Structural classification (Section 6 regimes) — drives engine dispatch.
    pub class: DtdClass,
    /// The normalisation `N(D)` of Proposition 3.3.
    pub normalization: Normalization,
    /// The compiled solver artifacts: interned symbols, pruned DTD, dense DTD graph
    /// with reachability closure, and the Glushkov automaton of every content model.
    /// Handed to [`xpsat_core::Solver::decide_with_artifacts`] on every decision so the
    /// engines never recompute per-DTD structure.
    pub compiled: xpsat_dtd::DtdArtifacts,
}

/// An interned query: the parsed path, its canonical rendering, and its *structural*
/// canonical form under the plan compiler's rewrites.
#[derive(Debug)]
pub struct InternedQuery {
    /// The parsed path.
    pub path: Path,
    /// Canonical textual form (the dedup key; `Display` round-trips through the
    /// parser, so two queries intern to the same id iff they print identically).
    pub canonical: String,
    /// Structurally canonical path: qualifier conjuncts sorted, unions flattened and
    /// deduplicated, trivial filters dropped ([`xpsat_plan::canonicalize`]).
    /// Equivalent spellings — `a[b and c]` vs `a[c][b]` — share this form.
    pub canon_path: Path,
    /// `Display` text of [`InternedQuery::canon_path`]; the cross-spelling (and
    /// cross-tenant) cache key.
    pub canon_text: String,
    /// FNV-1a-64 of [`InternedQuery::canon_text`].
    pub canonical_hash: u64,
    /// Label-erased structural-shape hash (spellings that differ only in element
    /// names collide here by design; used for workload fleet analytics).
    pub structural_hash: u64,
    /// Id of this query's structural equivalence class representative — the first
    /// interned member with the same canonical form.  A batch decides each
    /// representative once, however many of its spellings it carries.
    pub rep: QueryId,
}

/// A decision together with its cache provenance.
#[derive(Debug, Clone)]
pub struct ServedDecision {
    /// The solver's verdict, engine and completeness flag.  Shared with the cache:
    /// serving a decision (even a large satisfiable witness) never clones a document.
    pub decision: Arc<Decision>,
    /// `true` when the decision came out of the verdict cache (or repeats a class
    /// decided earlier in the same batch) rather than a solver engine run.
    pub cached: bool,
}

/// What a registration did, beyond handing back the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The id under which the DTD is (now) registered.
    pub id: DtdId,
    /// `true` when an identical DTD was already registered in this workspace.
    pub reused: bool,
    /// `true` when the artifacts were loaded from the persistent store instead of
    /// being compiled (always `false` when `reused` is `true` or no store is
    /// attached).
    pub from_store: bool,
}

/// Byte range of an input error, as reported by the parsers (`(offset, len)` into the
/// original request text).  Mirrors the parser crates' `Span` types without coupling
/// the service API to either.
pub type ErrorSpan = (usize, usize);

/// Errors returned by workspace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The DTD text did not parse; `span` locates the offending bytes.
    DtdParse {
        /// The parser's message (no position prefix).
        message: String,
        /// `(offset, len)` into the submitted DTD text.
        span: ErrorSpan,
    },
    /// The query text did not parse; `span` locates the offending bytes.
    QueryParse {
        /// The parser's message (no position prefix).
        message: String,
        /// `(offset, len)` into the submitted query text.
        span: ErrorSpan,
    },
    /// An id referred to no registered DTD.
    UnknownDtd(usize),
    /// An id referred to no interned query.
    UnknownQuery(usize),
    /// A session operation needed a current DTD but none was loaded.
    NoCurrentDtd,
    /// The request's deadline expired before the batch completed.  Decisions already
    /// computed were still published to the cache, so a retry resumes, not restarts.
    DeadlineExceeded,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DtdParse { message, span } => {
                write!(f, "DTD parse error at byte {}: {message}", span.0)
            }
            ServiceError::QueryParse { message, span } => {
                write!(f, "XPath parse error at byte {}: {message}", span.0)
            }
            ServiceError::UnknownDtd(id) => write!(f, "unknown DTD id {id}"),
            ServiceError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            ServiceError::NoCurrentDtd => {
                write!(f, "no DTD loaded (call load_dtd or use_dtd first)")
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request completed")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One registered DTD: the immutable identity (canonical text and its fingerprint)
/// plus the evictable compiled artifacts.  The id is the slot index, so ids never
/// die — only residency changes.
#[derive(Debug)]
struct DtdSlot {
    canonical: Arc<str>,
    /// FNV-1a-64 of `canonical`: with it the verdict cache is consulted without
    /// touching (or rebuilding) the artifacts.
    fingerprint: u64,
    /// The compiled artifacts while resident; `None` after LRU eviction.
    resident: Mutex<Option<Arc<DtdArtifacts>>>,
    /// Logical timestamp of the last touch (from the workspace's LRU clock).
    last_used: AtomicU64,
}

/// Reusable buffers for [`Workspace::decide_batch_governed`]: per-worker result
/// arenas and the bookkeeping of the lookup phase.  A long-lived caller (the
/// protocol server) keeps one scratch per connection worker, so steady-state batches
/// allocate only their output vector.
#[derive(Debug, Default)]
pub struct BatchScratch {
    worker_buffers: Vec<Vec<(QueryId, Decision)>>,
    distinct: Vec<QueryId>,
    missing: Vec<QueryId>,
    resolved: HashMap<QueryId, (Arc<Decision>, Source)>,
}

/// Where a batch found the decision of one structural class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Computed by this batch.
    Computed,
    /// A cached verdict this workspace computed earlier.
    Own,
    /// A cached verdict another workspace published.
    Foreign,
}

/// The satisfiability service: DTD registry, query interner, verdict cache.
#[derive(Debug)]
pub struct Workspace {
    solver: Solver,
    /// The budget applied when a decide call carries no budget of its own (a copy of
    /// the solver config's budget, kept here because the config moves into the
    /// solver).
    default_budget: Budget,
    /// Unique per workspace in this process (never 0); see [`NEXT_WORKSPACE_ID`].
    id: u64,
    dtds: Vec<DtdSlot>,
    dtd_by_canonical: HashMap<Arc<str>, DtdId>,
    queries: Vec<InternedQuery>,
    query_by_canonical: HashMap<String, QueryId>,
    /// Structural-class representatives: canonical (plan) text → the first interned
    /// member.  Later spellings intern to fresh ids but share the representative.
    query_by_canon_text: HashMap<String, QueryId>,
    /// The one verdict map: private unless [`Workspace::with_canonical_cache`]
    /// attached a shared one.
    cache: Arc<CanonicalCache>,
    stats: CacheStats,
    store: Option<ArtifactStore>,
    /// Maximum number of *resident* compiled artifacts; `None` = unbounded.
    resident_bound: Option<usize>,
    resident_count: AtomicUsize,
    lru_clock: AtomicU64,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new(SolverConfig::default())
    }
}

impl Workspace {
    /// A workspace whose decisions use the given solver budgets.
    pub fn new(config: SolverConfig) -> Workspace {
        let default_budget = config.budget;
        Workspace {
            solver: Solver::new(config),
            default_budget,
            id: NEXT_WORKSPACE_ID.fetch_add(1, Ordering::Relaxed),
            dtds: Vec::new(),
            dtd_by_canonical: HashMap::new(),
            queries: Vec::new(),
            query_by_canonical: HashMap::new(),
            query_by_canon_text: HashMap::new(),
            cache: Arc::new(CanonicalCache::new()),
            stats: CacheStats::default(),
            store: None,
            resident_bound: None,
            resident_count: AtomicUsize::new(0),
            lru_clock: AtomicU64::new(0),
        }
    }

    /// Attach a persistent artifact store: registrations consult it before compiling
    /// and write fresh compiles back, and evicted artifacts rematerialise from it.
    pub fn with_store(mut self, store: ArtifactStore) -> Workspace {
        self.store = Some(store);
        self
    }

    /// Bound the number of compiled artifacts resident in memory (at least 1).  Excess
    /// artifacts are evicted least-recently-used and rematerialised on next touch.
    pub fn with_resident_bound(mut self, bound: usize) -> Workspace {
        self.resident_bound = Some(bound.max(1));
        self
    }

    /// Decide through a shared [`CanonicalCache`] instead of a private one.  Verdicts
    /// are keyed by content `(DTD fingerprint, canonical query)`, so workspaces
    /// sharing one cache (the server's tenants) answer structurally identical
    /// instances from each other's complete verdicts.
    pub fn with_canonical_cache(mut self, cache: Arc<CanonicalCache>) -> Workspace {
        self.cache = cache;
        self
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    // ---- DTD registry ----------------------------------------------------------

    /// Register a DTD from its textual form, computing all artifacts, or return the
    /// existing id when an identical DTD (same canonical form) is already registered.
    pub fn register_dtd(&mut self, text: &str) -> Result<DtdId, ServiceError> {
        self.register_dtd_report(text).map(|outcome| outcome.id)
    }

    /// [`Workspace::register_dtd`], reporting whether the DTD was deduplicated and
    /// whether its artifacts came out of the persistent store.
    pub fn register_dtd_report(&mut self, text: &str) -> Result<RegisterOutcome, ServiceError> {
        let dtd = parse_dtd(text).map_err(|e| ServiceError::DtdParse {
            message: e.message.clone(),
            span: (e.span.offset, e.span.len),
        })?;
        Ok(self.register_dtd_value_report(dtd))
    }

    /// Register an already-parsed DTD (same dedup and artifact rules).
    pub fn register_dtd_value(&mut self, dtd: Dtd) -> DtdId {
        self.register_dtd_value_report(dtd).id
    }

    /// [`Workspace::register_dtd_value`] with the full [`RegisterOutcome`].
    pub fn register_dtd_value_report(&mut self, dtd: Dtd) -> RegisterOutcome {
        let canonical = dtd.to_string();
        if let Some(&id) = self.dtd_by_canonical.get(canonical.as_str()) {
            CacheStats::bump(&self.stats.dtds_reused);
            return RegisterOutcome {
                id,
                reused: true,
                from_store: false,
            };
        }
        let (artifacts, from_store) = self.materialize(dtd, canonical.clone());
        CacheStats::bump(&self.stats.dtds_registered);
        let id = DtdId(self.dtds.len());
        let canonical: Arc<str> = canonical.into();
        self.dtds.push(DtdSlot {
            canonical: Arc::clone(&canonical),
            fingerprint: artifacts.fingerprint,
            resident: Mutex::new(Some(artifacts)),
            last_used: AtomicU64::new(self.touch()),
        });
        self.resident_count.fetch_add(1, Ordering::Relaxed);
        self.dtd_by_canonical.insert(canonical, id);
        self.enforce_residency(id);
        RegisterOutcome {
            id,
            reused: false,
            from_store,
        }
    }

    /// Produce the artifacts of a DTD: from the persistent store when possible, else
    /// by running the full pipeline (and writing the result back to the store).
    fn materialize(&self, dtd: Dtd, canonical: String) -> (Arc<DtdArtifacts>, bool) {
        if let Some(store) = &self.store {
            match store.load(&canonical) {
                Ok(artifacts) => {
                    CacheStats::bump(&self.stats.artifact_store_hits);
                    // Lazy fields not serialised (the tree generator) still warm here.
                    artifacts.compiled.warm();
                    return (Arc::new(artifacts), true);
                }
                Err(miss) => {
                    if miss == StoreMiss::Invalid {
                        // Corruption is a distinct signal from a cold cache: operators
                        // alert on it (disk trouble, torn writes, tampering).
                        CacheStats::bump(&self.stats.artifact_store_corrupt);
                    }
                    CacheStats::bump(&self.stats.artifact_store_misses);
                }
            }
        }
        CacheStats::bump(&self.stats.classifications);
        CacheStats::bump(&self.stats.normalizations);
        let normalization = normalize(&dtd);
        let compiled = xpsat_dtd::DtdArtifacts::build(&dtd);
        // The workspace serves many queries per DTD: force the lazy artifact fields
        // (automata, useful-state masks, generator) now so no decision — and no batch
        // worker — ever pays first-touch latency or contends on a OnceLock.
        compiled.warm();
        let class = compiled.class().clone();
        CacheStats::add(&self.stats.automata_built, compiled.automata_count() as u64);
        let fingerprint = crate::store::canonical_key(&canonical);
        let artifacts = Arc::new(DtdArtifacts {
            dtd,
            canonical,
            fingerprint,
            class,
            normalization,
            compiled,
        });
        if let Some(store) = &self.store {
            if store.save(&artifacts).is_ok() {
                CacheStats::bump(&self.stats.artifact_store_writes);
            }
        }
        (artifacts, false)
    }

    /// Advance the LRU clock and return the new timestamp.
    fn touch(&self) -> u64 {
        self.lru_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evict least-recently-used resident artifacts until the bound holds, never
    /// touching `just_used` (the slot the caller is about to hand out).  Best-effort
    /// under concurrency: slots whose locks are contended are skipped this round.
    fn enforce_residency(&self, just_used: DtdId) {
        let Some(bound) = self.resident_bound else {
            return;
        };
        while self.resident_count.load(Ordering::Relaxed) > bound {
            let mut victim: Option<(usize, u64)> = None;
            for (index, slot) in self.dtds.iter().enumerate() {
                if index == just_used.0 {
                    continue;
                }
                if let Ok(resident) = slot.resident.try_lock() {
                    if resident.is_some() {
                        let stamp = slot.last_used.load(Ordering::Relaxed);
                        if victim.is_none_or(|(_, best)| stamp < best) {
                            victim = Some((index, stamp));
                        }
                    }
                }
            }
            let Some((index, stamp)) = victim else {
                return;
            };
            let Ok(mut resident) = self.dtds[index].resident.try_lock() else {
                return;
            };
            // Re-check under the lock: a concurrent touch since the scan means the
            // slot is no longer the LRU — give up this round rather than evict hot
            // artifacts.
            if resident.is_some() && self.dtds[index].last_used.load(Ordering::Relaxed) == stamp {
                *resident = None;
                drop(resident);
                self.resident_count.fetch_sub(1, Ordering::Relaxed);
                CacheStats::bump(&self.stats.dtd_evictions);
            } else {
                return;
            }
        }
    }

    /// The artifacts of a registered DTD, rematerialising them if they were evicted.
    pub fn artifacts(&self, id: DtdId) -> Result<Arc<DtdArtifacts>, ServiceError> {
        let slot = self.dtds.get(id.0).ok_or(ServiceError::UnknownDtd(id.0))?;
        slot.last_used.store(self.touch(), Ordering::Relaxed);
        let mut resident = lock_recovering(&slot.resident);
        if let Some(artifacts) = resident.as_ref() {
            return Ok(Arc::clone(artifacts));
        }
        // Evicted: bring it back from the store or by recompiling.  The canonical
        // text always reparses (it round-tripped at registration).
        let dtd = parse_dtd(&slot.canonical).expect("canonical DTD text round-trips");
        let (artifacts, _) = self.materialize(dtd, slot.canonical.to_string());
        CacheStats::bump(&self.stats.artifact_rebuilds);
        *resident = Some(Arc::clone(&artifacts));
        drop(resident);
        self.resident_count.fetch_add(1, Ordering::Relaxed);
        self.enforce_residency(id);
        Ok(artifacts)
    }

    /// Number of registered (distinct) DTDs.
    pub fn dtd_count(&self) -> usize {
        self.dtds.len()
    }

    /// Number of compiled artifacts currently resident in memory.
    pub fn resident_dtds(&self) -> usize {
        self.resident_count.load(Ordering::Relaxed)
    }

    // ---- query interner --------------------------------------------------------

    /// Intern a query from its textual form; equal canonical renderings share an id.
    pub fn intern(&mut self, text: &str) -> Result<QueryId, ServiceError> {
        let path = parse_path(text).map_err(|e| ServiceError::QueryParse {
            message: e.message.clone(),
            span: (e.span.offset, e.span.len),
        })?;
        Ok(self.intern_path(path))
    }

    /// Intern an already-parsed query.  Queries with the same `Display` rendering
    /// share an id; queries with the same *structural* canonical form additionally
    /// share a class representative and every cached verdict.
    pub fn intern_path(&mut self, path: Path) -> QueryId {
        let canonical = path.to_string();
        if let Some(&id) = self.query_by_canonical.get(&canonical) {
            CacheStats::bump(&self.stats.queries_reused);
            return id;
        }
        CacheStats::bump(&self.stats.queries_interned);
        let id = QueryId(self.queries.len());
        let canon = CanonicalQuery::of(&path);
        let rep = *self
            .query_by_canon_text
            .entry(canon.text.clone())
            .or_insert(id);
        self.queries.push(InternedQuery {
            path,
            canonical: canonical.clone(),
            canon_path: canon.path,
            canon_text: canon.text,
            canonical_hash: canon.canonical_hash,
            structural_hash: canon.structural_hash,
            rep,
        });
        self.query_by_canonical.insert(canonical, id);
        id
    }

    /// The interned form of a query id.
    pub fn query(&self, id: QueryId) -> Result<&InternedQuery, ServiceError> {
        self.queries
            .get(id.0)
            .ok_or(ServiceError::UnknownQuery(id.0))
    }

    /// Number of interned (distinct) queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    // ---- deciding ----------------------------------------------------------------

    /// Decide one `(dtd, query)` instance under the default budget, serving from the
    /// verdict cache when the instance has been decided before.
    pub fn decide(&self, dtd: DtdId, query: QueryId) -> Result<ServedDecision, ServiceError> {
        self.decide_batch_governed(dtd, &[query], 1, None, None, &mut BatchScratch::default())
            .map(|mut served| served.remove(0))
    }

    /// The compiled decision program of a class representative: from the persistent
    /// store when one is attached and holds a valid entry (zero compiles after a
    /// restart), else compiled (and written back).  `None` = outside the compiled
    /// fragment, decided by the AST solver; the bail reason is counted per
    /// [`xpsat_plan::BailReason`].  Nothing is memoised in memory: a class is
    /// compiled only when its verdict is not cached.
    fn program_for(&self, rep: QueryId, artifacts: &DtdArtifacts) -> Option<DecisionProgram> {
        let query = &self.queries[rep.0];
        if let Some(store) = &self.store {
            match store.load_program(
                artifacts.fingerprint,
                query.canonical_hash,
                &query.canon_text,
                &artifacts.compiled,
            ) {
                Ok(program) => {
                    // A store hit is *not* a compile: `programs_compiled` stays
                    // untouched, which is exactly what the restart acceptance
                    // check asserts.
                    CacheStats::bump(&self.stats.program_store_hits);
                    return Some(program);
                }
                Err(miss) => {
                    if miss == StoreMiss::Invalid {
                        CacheStats::bump(&self.stats.program_store_corrupt);
                    }
                    CacheStats::bump(&self.stats.program_store_misses);
                }
            }
        }
        match xpsat_plan::compile_with_reason(
            &artifacts.compiled,
            &query.canon_path,
            &CompileLimits::default(),
        ) {
            Ok(program) => {
                CacheStats::bump(&self.stats.programs_compiled);
                if let Some(store) = &self.store {
                    if store
                        .save_program(
                            artifacts.fingerprint,
                            query.canonical_hash,
                            &query.canon_text,
                            &program,
                        )
                        .is_ok()
                    {
                        CacheStats::bump(&self.stats.program_store_writes);
                    }
                }
                Some(program)
            }
            Err(reason) => {
                CacheStats::bump(&self.stats.program_fallbacks);
                CacheStats::bump(&self.stats.compile_bailouts[reason.index()]);
                None
            }
        }
    }

    /// Decide one class representative: replay its compiled program in the VM when
    /// the instance is inside the compiled fragment, else run the AST solver on the
    /// canonical path (so engine dispatch, like the cache, sees one spelling per
    /// class).
    fn compute(&self, rep: QueryId, artifacts: &DtdArtifacts, budget: &Budget) -> Decision {
        if let Some(program) = self.program_for(rep, artifacts) {
            let replayed = VM_SCRATCH.with(|cell| {
                xpsat_plan::vm::decide(
                    &program,
                    &artifacts.compiled,
                    &mut cell.borrow_mut(),
                    budget,
                )
            });
            match replayed {
                Some(decision) => {
                    CacheStats::bump(&self.stats.vm_decides);
                    return decision;
                }
                // A SAT verdict whose witness failed to realise (never expected, but
                // the AST oracle keeps the failure graceful and counted).
                None => CacheStats::bump(&self.stats.vm_witness_fallbacks),
            }
        }
        self.solver
            .decide_budgeted(&artifacts.compiled, &self.queries[rep.0].canon_path, budget)
    }

    /// The content identity of a class representative against a registered DTD.
    fn instance<'a>(&'a self, slot: &'a DtdSlot, rep: QueryId) -> Instance<'a> {
        let query = &self.queries[rep.0];
        Instance {
            fingerprint: slot.fingerprint,
            dtd: &slot.canonical,
            query_hash: query.canonical_hash,
            query: &query.canon_text,
        }
    }

    /// Decide many queries against one registered DTD — the one decide
    /// implementation.  Every query is represented by its structural class, and each
    /// class is looked up in the verdict cache once; the classes that miss are
    /// computed exactly once each, fanned out across up to `threads` workers (capped
    /// at the hardware parallelism).  `results[i]` always corresponds to
    /// `queries[i]`, and every decision is byte-identical to what a sequential loop
    /// would produce (the solver is deterministic and engine dispatch depends only on
    /// the instance).  The DTD's artifacts are touched — and rebuilt, if evicted —
    /// only when some class misses.
    ///
    /// * `deadline` — workers check it between queries and abandon the batch once it
    ///   passes; it is also threaded *into* the engines, so a single monster decision
    ///   is interrupted mid-fixpoint.  Decisions computed before expiry are still
    ///   cached (a retry resumes rather than restarts), a deadline-interrupted
    ///   decision is discarded, the `deadline_exceeded` counter is bumped and
    ///   [`ServiceError::DeadlineExceeded`] is returned.
    /// * `max_steps` — per-*decision* step fuel (falls back to the workspace's default
    ///   budget when `None`).  A decision that spends its fuel comes back `Unknown`
    ///   with [`Decision::exhausted`] set; it is returned in its slot but never
    ///   cached, and the batch keeps going.
    /// * `scratch` — per-worker result arenas reused across batches; a long-lived
    ///   caller passes the same scratch every time so steady-state batches stop
    ///   re-allocating worker buffers and lookup bookkeeping.
    pub fn decide_batch_governed(
        &self,
        dtd: DtdId,
        queries: &[QueryId],
        threads: usize,
        deadline: Option<Instant>,
        max_steps: Option<u64>,
        scratch: &mut BatchScratch,
    ) -> Result<Vec<ServedDecision>, ServiceError> {
        let budget = Budget {
            max_steps: max_steps.or(self.default_budget.max_steps),
            deadline: deadline.or(self.default_budget.deadline),
        };
        let slot = self
            .dtds
            .get(dtd.0)
            .ok_or(ServiceError::UnknownDtd(dtd.0))?;
        for &q in queries {
            self.query(q)?;
        }

        // The distinct structural classes of the batch, each looked up once.
        scratch.distinct.clear();
        scratch
            .distinct
            .extend(queries.iter().map(|&q| self.queries[q.0].rep));
        scratch.distinct.sort_unstable();
        scratch.distinct.dedup();
        scratch.missing.clear();
        scratch.resolved.clear();
        // A batch that panicked mid-decide (the server survives it and reuses the
        // scratch) left its partial results behind; they belong to another request.
        for buffer in &mut scratch.worker_buffers {
            buffer.clear();
        }
        for &rep in &scratch.distinct {
            match self.cache.get(&self.instance(slot, rep), self.id) {
                Some((hit, publisher)) => {
                    let source = if publisher == self.id {
                        Source::Own
                    } else {
                        Source::Foreign
                    };
                    scratch.resolved.insert(rep, (hit, source));
                }
                None => scratch.missing.push(rep),
            }
        }

        let mut expired = false;
        if !scratch.missing.is_empty() {
            let artifacts = self.artifacts(dtd)?;
            let missing = &scratch.missing;
            // Cap the pool at the hardware parallelism: the work is CPU-bound, so
            // oversubscribed workers only add spawn and scheduling overhead.
            let workers = threads.max(1).min(missing.len()).min(hardware_threads());
            if scratch.worker_buffers.len() < workers {
                scratch.worker_buffers.resize_with(workers, Vec::new);
            }
            // Workers share nothing but the work-stealing cursor and the deadline
            // flag, and each fills its own buffer (taken from the scratch so its
            // capacity persists across batches).
            let next = AtomicUsize::new(0);
            let deadline_hit = AtomicBool::new(false);
            let work = |local: &mut Vec<(QueryId, Decision)>| {
                while !deadline_hit.load(Ordering::Relaxed) {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        deadline_hit.store(true, Ordering::Relaxed);
                        break;
                    }
                    let Some(&rep) = missing.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let decision = self.compute(rep, &artifacts, &budget);
                    // A deadline interruption mid-decision aborts the batch like the
                    // between-queries check does; a spent step allowance is a result.
                    if decision.exhausted == Some(Exhausted::Deadline) {
                        deadline_hit.store(true, Ordering::Relaxed);
                        break;
                    }
                    local.push((rep, decision));
                }
            };
            let buffers = &mut scratch.worker_buffers[..workers];
            if let [only] = buffers {
                // A single worker runs inline: no scope, no spawn, no join.
                work(only);
            } else {
                std::thread::scope(|scope| {
                    for local in buffers.iter_mut() {
                        let work = &work;
                        // Deep stacks: the positive engine's witness search recurses
                        // to its Lemma 4.5 depth bound on schema-sized DTDs, and
                        // overflowing a worker stack aborts the whole process rather
                        // than failing the one decision.
                        std::thread::Builder::new()
                            .stack_size(xpsat_core::DECIDE_STACK_BYTES)
                            .spawn_scoped(scope, move || work(local))
                            .expect("spawn batch worker");
                    }
                });
            }
            expired = deadline_hit.load(Ordering::Relaxed);

            // Cache what was computed — even an expired batch keeps its progress.
            for (rep, decision) in scratch.worker_buffers.iter_mut().flat_map(|b| b.drain(..)) {
                CacheStats::bump(&self.stats.decisions_computed);
                if decision.exhausted.is_some() {
                    CacheStats::bump(&self.stats.resource_exhausted);
                }
                let stored = self
                    .cache
                    .insert(&self.instance(slot, rep), self.id, decision);
                scratch.resolved.insert(rep, (stored, Source::Computed));
            }
        }

        if expired {
            CacheStats::bump(&self.stats.deadline_exceeded);
            return Err(ServiceError::DeadlineExceeded);
        }

        // Assemble results in request order.  The first occurrence of a class this
        // batch computed is a solver run; every other result is a cache hit, counted
        // as `canonical_hits` when another workspace published the verdict and as
        // `decision_cache_hits` otherwise.
        let mut out = Vec::with_capacity(queries.len());
        for &q in queries {
            let (decision, source) = scratch
                .resolved
                .get_mut(&self.queries[q.0].rep)
                .expect("every class resolved");
            let cached = *source != Source::Computed;
            match source {
                Source::Foreign => CacheStats::bump(&self.stats.canonical_hits),
                Source::Own => CacheStats::bump(&self.stats.decision_cache_hits),
                Source::Computed => *source = Source::Own,
            }
            out.push(ServedDecision {
                decision: Arc::clone(decision),
                cached,
            });
        }
        Ok(out)
    }

    /// The compiled decision program of a query against a registered DTD (loaded from
    /// the store or compiled, and counted like a decide's), or `None` when the
    /// query's structural class is outside the compiled fragment and is decided by
    /// the AST solver.  The protocol's `classify` op reports program shape through
    /// this.
    pub fn compiled_program(
        &self,
        dtd: DtdId,
        query: QueryId,
    ) -> Result<Option<DecisionProgram>, ServiceError> {
        let rep = self.query(query)?.rep;
        Ok(self.program_for(rep, &*self.artifacts(dtd)?))
    }

    /// Current counter values (including the resident-artifact gauge).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.resident_dtds = self.resident_count.load(Ordering::Relaxed) as u64;
        snapshot
    }

    /// `(hits, analyses built)` of the solver's negation-analysis memo.
    pub fn negation_memo_stats(&self) -> (u64, u64) {
        self.solver.negation_memo_stats()
    }
}

/// The hardware parallelism, queried once per process: on Linux the query reads
/// cgroup files, which costs tens of microseconds per call.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolve a requested worker-thread count: `0` means "one per available CPU".
///
/// The single source of this policy for the protocol server and the CLI.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        hardware_threads()
    }
}

/// Short machine-readable engine name used by the protocol and fingerprints.
pub fn engine_slug(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Downward => "downward",
        EngineKind::Sibling => "sibling",
        EngineKind::DisjunctionFree => "disjunction-free",
        EngineKind::Positive => "positive",
        EngineKind::NegationFixpoint => "negation-fixpoint",
        EngineKind::Rewritten => "rewritten",
        EngineKind::Enumeration => "enumeration",
        EngineKind::CompiledVm => "compiled-vm",
    }
}

/// A canonical byte string capturing everything observable about a decision: verdict,
/// witness XML (when satisfiable), engine provenance and completeness.  Two decisions
/// fingerprint identically iff they are observationally the same; the acceptance tests
/// compare batch output to sequential output through this.
pub fn decision_fingerprint(decision: &Decision) -> String {
    use xpsat_core::Satisfiability;
    let verdict = match &decision.result {
        Satisfiability::Satisfiable(doc) => {
            format!("sat:{}", xpsat_xmltree::serialize::to_xml(doc))
        }
        Satisfiability::Unsatisfiable => "unsat".to_string(),
        Satisfiability::Unknown => "unknown".to_string(),
    };
    format!(
        "{verdict}|engine={}|complete={}",
        engine_slug(decision.engine),
        decision.complete
    )
}

/// The engine-independent projection of [`decision_fingerprint`]: verdict and
/// completeness only.  Used where a workspace decision (which may come from the
/// compiled-program VM) is compared against the AST solver as an oracle — the two
/// legitimately differ in engine provenance and may build different (equally valid)
/// witnesses, so only the verdict is comparable; witness validity is checked
/// separately with [`xpsat_core::sat::verify_witness`].
pub fn verdict_fingerprint(decision: &Decision) -> String {
    use xpsat_core::Satisfiability;
    let verdict = match &decision.result {
        Satisfiability::Satisfiable(_) => "sat",
        Satisfiability::Unsatisfiable => "unsat",
        Satisfiability::Unknown => "unknown",
    };
    format!("{verdict}|complete={}", decision.complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD_A: &str = "r -> a*; a -> b?; b -> #;";
    const DTD_B: &str = "r -> c | d; c -> #; d -> #;";
    const DTD_C: &str = "r -> e+; e -> #;";

    #[test]
    fn resident_bound_evicts_lru_and_rematerialises() {
        let mut ws = Workspace::default().with_resident_bound(1);
        let a = ws.register_dtd(DTD_A).unwrap();
        let b = ws.register_dtd(DTD_B).unwrap();
        let c = ws.register_dtd(DTD_C).unwrap();
        assert_eq!(ws.dtd_count(), 3);
        assert_eq!(ws.resident_dtds(), 1);
        let stats = ws.stats();
        assert!(stats.dtd_evictions >= 2, "{stats}");

        // Ids survive eviction: deciding against an evicted DTD recompiles it
        // transparently and the verdict is unchanged.
        let q = ws.intern("a[b]").unwrap();
        let served = ws.decide(a, q).unwrap();
        assert!(matches!(
            served.decision.result,
            xpsat_core::Satisfiability::Satisfiable(_)
        ));
        let rebuilds = ws.stats().artifact_rebuilds;
        assert!(rebuilds >= 1, "expected a rematerialisation");
        assert_eq!(ws.resident_dtds(), 1);

        // The decision cache outlives residency: re-deciding after another eviction
        // cycle is still a cache hit and needs no rebuild.
        let qc = ws.intern("e").unwrap();
        ws.decide(c, qc).unwrap();
        let qb = ws.intern("c").unwrap();
        ws.decide(b, qb).unwrap();
        let rebuilds = ws.stats().artifact_rebuilds;
        let again = ws.decide(a, q).unwrap();
        assert!(again.cached);
        assert_eq!(ws.stats().artifact_rebuilds, rebuilds);

        // The same holds under a request's own budget and deadline: a fully cached
        // governed request never rebuilds the evicted DTD.
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let governed = ws
            .decide_batch_governed(
                a,
                &[q],
                1,
                Some(deadline),
                Some(1_000),
                &mut BatchScratch::default(),
            )
            .unwrap();
        assert!(governed[0].cached);
        assert_eq!(ws.stats().artifact_rebuilds, rebuilds);
        assert_eq!(ws.resident_dtds(), 1);
    }

    #[test]
    fn rematerialisation_prefers_the_store() {
        let dir = std::env::temp_dir().join(format!("xpsat-ws-lru-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ArtifactStore::open(&dir).unwrap();
        let mut ws = Workspace::default()
            .with_store(store)
            .with_resident_bound(1);
        let a = ws.register_dtd(DTD_A).unwrap();
        ws.register_dtd(DTD_B).unwrap();
        // DTD_A was evicted; touching it again must hit the store, not reclassify.
        let before = ws.stats();
        ws.artifacts(a).unwrap();
        let after = ws.stats();
        assert_eq!(after.classifications, before.classifications);
        assert_eq!(after.artifact_store_hits, before.artifact_store_hits + 1);
        assert_eq!(after.artifact_rebuilds, before.artifact_rebuilds + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_exceeded_aborts_batch_but_publishes_progress() {
        let mut ws = Workspace::default();
        let d = ws.register_dtd(DTD_A).unwrap();
        let ids: Vec<QueryId> = ["a", "a/b", "a[b]", "b/..", "a[not(b)]"]
            .iter()
            .map(|t| ws.intern(t).unwrap())
            .collect();
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = ws
            .decide_batch_governed(
                d,
                &ids,
                2,
                Some(expired),
                None,
                &mut BatchScratch::default(),
            )
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        assert_eq!(ws.stats().deadline_exceeded, 1);

        // Without a deadline the same batch completes, reusing anything published.
        let served = ws
            .decide_batch_governed(d, &ids, 2, None, None, &mut BatchScratch::default())
            .unwrap();
        assert_eq!(served.len(), ids.len());
    }

    #[test]
    fn exhausted_decisions_are_served_but_never_cached() {
        let mut ws = Workspace::default();
        let d = ws
            .register_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        let q = ws.intern("a[not(b)]").unwrap();
        let capped = ws
            .decide_batch_governed(d, &[q], 1, None, Some(1), &mut BatchScratch::default())
            .unwrap()
            .remove(0);
        assert!(capped.decision.exhausted.is_some());
        assert!(matches!(
            capped.decision.result,
            xpsat_core::Satisfiability::Unknown
        ));
        assert_eq!(ws.stats().resource_exhausted, 1);
        // The Unknown was not published: an unconstrained retry computes fresh and
        // gets the real verdict.
        let free = ws.decide(d, q).unwrap();
        assert!(!free.cached);
        assert!(matches!(
            free.decision.result,
            xpsat_core::Satisfiability::Satisfiable(_)
        ));

        // Same through the batch path.
        let mut ws = Workspace::default();
        let d = ws
            .register_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        let qs = [ws.intern("a[not(b)]").unwrap(), ws.intern("a/b").unwrap()];
        let served = ws
            .decide_batch_governed(d, &qs, 2, None, Some(1), &mut BatchScratch::default())
            .unwrap();
        assert!(served[0].decision.exhausted.is_some());
        let retry = ws.decide(d, qs[0]).unwrap();
        assert!(!retry.cached);
        assert!(retry.decision.exhausted.is_none());
    }

    #[test]
    fn restarted_workspace_serves_programs_with_zero_compiles() {
        let dir = std::env::temp_dir().join(format!("xpsat-ws-prg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ArtifactStore::open(&dir).unwrap();
        let dtd = "r -> a; a -> b | c; b -> d?; c -> #; d -> #;";
        let texts = ["a[b or c]", "a[not(b)]", "a/b/d", "a[b/d or c]"];

        let mut warm = Workspace::default().with_store(store.clone());
        let d = warm.register_dtd(dtd).unwrap();
        let mut verdicts = Vec::new();
        for t in &texts {
            let q = warm.intern(t).unwrap();
            verdicts.push(verdict_fingerprint(&warm.decide(d, q).unwrap().decision));
        }
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.programs_compiled, texts.len() as u64);
        assert_eq!(warm_stats.program_store_writes, texts.len() as u64);
        assert_eq!(warm_stats.program_store_hits, 0);

        // "Restart": a fresh workspace over the same store answers every
        // previously-compiled query through the VM with zero compiles.
        let mut cold = Workspace::default().with_store(store);
        let d = cold.register_dtd(dtd).unwrap();
        for (t, expected) in texts.iter().zip(&verdicts) {
            let q = cold.intern(t).unwrap();
            let served = cold.decide(d, q).unwrap();
            assert_eq!(&verdict_fingerprint(&served.decision), expected, "{t}");
        }
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.programs_compiled, 0, "{cold_stats}");
        assert_eq!(cold_stats.program_store_hits, texts.len() as u64);
        assert_eq!(cold_stats.vm_decides, texts.len() as u64);

        // Out-of-fragment queries are counted by bail reason.
        let q = cold.intern("d/..").unwrap();
        cold.decide(d, q).unwrap();
        let after = cold.stats();
        assert_eq!(after.program_fallbacks, 1);
        assert_eq!(after.compile_bailouts.iter().sum::<u64>(), 1);
        assert_eq!(
            after.bailouts_by_reason(),
            vec![("upward_axis", 1)],
            "{after}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_carry_spans() {
        let mut ws = Workspace::default();
        match ws.register_dtd("r -> (a; a -> #;").unwrap_err() {
            ServiceError::DtdParse { span, .. } => assert!(span.0 < "r -> (a; a -> #;".len()),
            other => panic!("expected DtdParse, got {other:?}"),
        }
        match ws.intern("a/ |b").unwrap_err() {
            ServiceError::QueryParse { span, .. } => assert_eq!(span, (3, 1)),
            other => panic!("expected QueryParse, got {other:?}"),
        }
    }

    #[test]
    fn scratch_buffers_are_reused_across_batches() {
        let mut ws = Workspace::default();
        let d = ws.register_dtd(DTD_A).unwrap();
        let mut scratch = BatchScratch::default();
        let warm: Vec<QueryId> = ["a", "a/b", "a[b]"]
            .iter()
            .map(|t| ws.intern(t).unwrap())
            .collect();
        ws.decide_batch_governed(d, &warm, 2, None, None, &mut scratch)
            .unwrap();
        let capacities: Vec<usize> = scratch.worker_buffers.iter().map(Vec::capacity).collect();
        assert!(capacities.iter().any(|&c| c > 0));
        let cool: Vec<QueryId> = ["b", "b/.."]
            .iter()
            .map(|t| ws.intern(t).unwrap())
            .collect();
        ws.decide_batch_governed(d, &cool, 2, None, None, &mut scratch)
            .unwrap();
        // Buffers kept their allocations (and are drained between uses).
        assert!(scratch.worker_buffers.iter().all(|b| b.is_empty()));
        assert!(scratch
            .worker_buffers
            .iter()
            .zip(&capacities)
            .all(|(b, &c)| b.capacity() >= c.min(b.capacity())));
    }

    #[test]
    fn stale_scratch_results_are_never_cached() {
        use xpsat_core::{EngineKind, Satisfiability};
        let shared = Arc::new(CanonicalCache::new());
        let mut ws = Workspace::default().with_canonical_cache(Arc::clone(&shared));
        ws.register_dtd(DTD_A).unwrap();
        let b = ws.register_dtd(DTD_B).unwrap();
        let (c, d) = (ws.intern("c").unwrap(), ws.intern("d").unwrap());
        // A batch that panicked mid-decide leaves wrong verdicts for both classes
        // behind in the scratch the server hands to the tenant's next request.
        let bogus = || Decision {
            result: Satisfiability::Unsatisfiable,
            engine: EngineKind::Downward,
            complete: true,
            exhausted: None,
        };
        let mut scratch = BatchScratch {
            worker_buffers: vec![
                vec![(ws.queries[c.0].rep, bogus())],
                vec![(ws.queries[d.0].rep, bogus())],
            ],
            ..BatchScratch::default()
        };

        let served = ws
            .decide_batch_governed(b, &[c], 2, None, None, &mut scratch)
            .unwrap();
        assert!(matches!(
            served[0].decision.result,
            Satisfiability::Satisfiable(_)
        ));
        assert_eq!(ws.stats().decisions_computed, 1);
        // Neither stale pair reached the cache: `d` is computed fresh, here and in a
        // workspace sharing the cache.
        let again = ws.decide(b, d).unwrap();
        assert!(!again.cached);
        assert!(matches!(
            again.decision.result,
            Satisfiability::Satisfiable(_)
        ));
        let mut other = Workspace::default().with_canonical_cache(shared);
        let b2 = other.register_dtd(DTD_B).unwrap();
        let c2 = other.intern("c").unwrap();
        let hit = other.decide(b2, c2).unwrap();
        assert!(matches!(
            hit.decision.result,
            Satisfiability::Satisfiable(_)
        ));
    }
}
