//! `xpsat-service` — a batched, cached satisfiability service over the `xpathsat`
//! solver stack.
//!
//! The paper's complexity results make `SAT(X, DTD)` cost *per-DTD-heavy*: the
//! classification, normalisation and content-model automata that engine dispatch
//! relies on depend only on the DTD, while per-query dispatch is PTIME for the
//! tractable fragments that dominate real-world workloads.  This crate is the
//! architectural seam that exploits that shape at service scale:
//!
//! * [`Workspace`] — register a DTD once; classification ([`xpsat_dtd::classify()`]),
//!   normalisation ([`xpsat_dtd::normalize()`]) and the Glushkov automata of every
//!   content model are computed once and cached as [`DtdArtifacts`].  Queries are
//!   interned by canonical text ([`QueryId`]), and decisions are cached with engine
//!   provenance ([`ServedDecision`]) in one content-addressed [`CanonicalCache`],
//!   keyed by `(DTD fingerprint, canonical query)`.
//! * [`Workspace::decide_batch_governed`] — the one decide path: looks every
//!   structural class up once and fans the misses out across worker threads
//!   (`std::thread::scope`, no extra dependencies) with deterministic, input-ordered
//!   results that are byte-identical to a sequential [`xpsat_core::Solver::decide`]
//!   loop.  [`Workspace::decide`] is a batch of one.
//! * [`Session`] — a text-in/decision-out convenience wrapper tracking a current DTD.
//! * [`ProtocolServer`] — a JSON-lines request/response protocol (`register_dtd`,
//!   `check`, `batch`, `classify`, `stats`) so the service can be driven as a real
//!   workload endpoint; the `xpathsat` CLI binary fronts it from the shell.
//! * [`StatsSnapshot`] — cache-effectiveness counters proving the amortisation: a
//!   repeated batch does no re-classification and is served entirely from the
//!   decision cache.
//!
//! # Quickstart
//!
//! ```
//! use xpsat_service::Session;
//!
//! let mut session = Session::new();
//! session.load_dtd("r -> a*; a -> b?; b -> #;").unwrap();
//! let served = session.check("a[b]").unwrap();
//! assert!(matches!(
//!     served.decision.result,
//!     xpsat_core::Satisfiability::Satisfiable(_)
//! ));
//! assert!(!served.cached);
//! assert!(session.check("a[b]").unwrap().cached); // memoised
//! ```

pub mod canonical;
pub mod json;
pub mod protocol;
pub mod session;
pub mod stats;
pub mod store;
pub mod workspace;

pub use canonical::CanonicalCache;
pub use json::{Json, JsonError};
pub use protocol::{
    error_object, error_response, oversized_response, LineRead, LineReader, ProtocolError,
    ProtocolServer, DEFAULT_MAX_LINE_BYTES,
};
pub use session::Session;
pub use stats::{CacheStats, StatsSnapshot};
pub use store::{canonical_key, ArtifactStore, StoreMiss, STORE_VERSION};
pub use workspace::{
    decision_fingerprint, effective_threads, engine_slug, verdict_fingerprint, BatchScratch,
    DtdArtifacts, DtdId, ErrorSpan, InternedQuery, QueryId, RegisterOutcome, ServedDecision,
    ServiceError, Workspace,
};
pub use xpsat_plan::DecisionProgram;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xpsat_core::Solver;
    use xpsat_dtd::parse_dtd;
    use xpsat_xpath::parse_path;

    const DTD: &str = "r -> a*; a -> b | c; b -> d?; c -> #; d -> #;";

    #[test]
    fn artifacts_are_computed_once_per_distinct_dtd() {
        let mut ws = Workspace::default();
        let a = ws.register_dtd(DTD).unwrap();
        let b = ws.register_dtd(DTD).unwrap();
        assert_eq!(a, b);
        let c = ws.register_dtd("r -> a?; a -> #;").unwrap();
        assert_ne!(a, c);
        let stats = ws.stats();
        assert_eq!(stats.dtds_registered, 2);
        assert_eq!(stats.dtds_reused, 1);
        assert_eq!(stats.classifications, 2);
        assert_eq!(stats.normalizations, 2);
        // One Glushkov automaton per element type of each registered DTD.
        let total_elements = (ws.artifacts(a).unwrap().dtd.element_names().len()
            + ws.artifacts(c).unwrap().dtd.element_names().len())
            as u64;
        assert_eq!(stats.automata_built, total_elements);
    }

    #[test]
    fn artifacts_agree_with_direct_computation() {
        let mut ws = Workspace::default();
        let id = ws.register_dtd(DTD).unwrap();
        let artifacts = ws.artifacts(id).unwrap();
        let direct = parse_dtd(DTD).unwrap();
        assert_eq!(artifacts.dtd, direct);
        assert_eq!(artifacts.class, xpsat_dtd::classify(&direct));
        assert_eq!(
            artifacts.normalization.dtd,
            xpsat_dtd::normalize(&direct).dtd
        );
        let compiled = artifacts.compiled.compiled().unwrap();
        for (name, decl) in direct.elements() {
            let sym = compiled.elem_sym(name).unwrap();
            let nfa = compiled.automaton(sym);
            // Spot-check the automaton against the content model on short words.
            if let Some(word) = nfa.shortest_word() {
                assert!(nfa.accepts(&word));
            }
            let _ = decl;
        }
    }

    #[test]
    fn interning_dedupes_by_canonical_form() {
        let mut ws = Workspace::default();
        let a = ws.intern("a[b]").unwrap();
        // Same canonical rendering, different surface text.
        let b = ws.intern("a[ b ]").unwrap();
        assert_eq!(a, b);
        let c = ws.intern("a[c]").unwrap();
        assert_ne!(a, c);
        let stats = ws.stats();
        assert_eq!(stats.queries_interned, 2);
        assert_eq!(stats.queries_reused, 1);
        assert_eq!(ws.query(a).unwrap().canonical, "a[b]");
    }

    #[test]
    fn decide_matches_solver_and_memoises() {
        let mut ws = Workspace::default();
        let dtd_id = ws.register_dtd(DTD).unwrap();
        let dtd = parse_dtd(DTD).unwrap();
        let solver = Solver::default();
        for text in ["a/b", "a[b and not(c)]", "a/b/d", "a[c]/b", "d/.."] {
            let q = ws.intern(text).unwrap();
            let served = ws.decide(dtd_id, q).unwrap();
            assert!(!served.cached, "{text}");
            // The workspace may answer through the compiled-program VM, so the AST
            // solver is an oracle for the *verdict*; a VM witness is validated on
            // its own terms rather than compared byte-for-byte.
            let direct = solver.decide(&dtd, &parse_path(text).unwrap());
            assert_eq!(
                verdict_fingerprint(&served.decision),
                verdict_fingerprint(&direct),
                "{text}"
            );
            if let xpsat_core::Satisfiability::Satisfiable(doc) = &served.decision.result {
                xpsat_core::sat::verify_witness(doc, &dtd, &parse_path(text).unwrap())
                    .expect("served witness verifies");
            }
            let again = ws.decide(dtd_id, q).unwrap();
            assert!(again.cached, "{text}");
            assert_eq!(
                decision_fingerprint(&again.decision),
                decision_fingerprint(&served.decision),
                "{text}"
            );
        }
        // The compiled fragment actually carried some of those decisions.
        assert!(ws.stats().vm_decides >= 1);
        assert!(ws.stats().programs_compiled >= 1);
    }

    #[test]
    fn structurally_identical_spellings_share_one_decision() {
        let mut ws = Workspace::default();
        let d = ws.register_dtd(DTD).unwrap();
        let q1 = ws.intern("a[b and not(c)]").unwrap();
        let q2 = ws.intern("a[not(c)][b]").unwrap();
        assert_ne!(q1, q2, "different spellings intern separately");
        assert_eq!(
            ws.query(q1).unwrap().canon_text,
            ws.query(q2).unwrap().canon_text
        );
        assert_eq!(ws.query(q2).unwrap().rep, q1);
        let first = ws.decide(d, q1).unwrap();
        assert!(!first.cached);
        // The equivalent spelling is a cache hit — same Arc, zero recomputation.
        let second = ws.decide(d, q2).unwrap();
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.decision, &second.decision));
        assert_eq!(ws.stats().decisions_computed, 1);
    }

    #[test]
    fn unknown_ids_error() {
        let mut ws = Workspace::default();
        let q = ws.intern("a").unwrap();
        assert!(matches!(
            ws.decide(DtdId(7), q),
            Err(ServiceError::UnknownDtd(7))
        ));
        let d = ws.register_dtd(DTD).unwrap();
        assert!(matches!(
            ws.decide(d, QueryId(99)),
            Err(ServiceError::UnknownQuery(99))
        ));
        assert!(ws.register_dtd("not a dtd ->").is_err());
        assert!(ws.intern("[[[").is_err());
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let mut ws = Workspace::default();
        let dtd_id = ws.register_dtd(DTD).unwrap();
        let texts = ["a/b", "a[b]", "a[not(b)]", "a/b", "c", "a[b or c]", "b/d"];
        let ids: Vec<QueryId> = texts.iter().map(|t| ws.intern(t).unwrap()).collect();
        let single = ws
            .decide_batch_governed(dtd_id, &ids, 1, None, None, &mut BatchScratch::default())
            .unwrap();
        for threads in [2, 4, 8] {
            let mut fresh = Workspace::default();
            let d = fresh.register_dtd(DTD).unwrap();
            let fresh_ids: Vec<QueryId> = texts.iter().map(|t| fresh.intern(t).unwrap()).collect();
            let multi = fresh
                .decide_batch_governed(
                    d,
                    &fresh_ids,
                    threads,
                    None,
                    None,
                    &mut BatchScratch::default(),
                )
                .unwrap();
            assert_eq!(single.len(), multi.len());
            for (a, b) in single.iter().zip(&multi) {
                assert_eq!(
                    decision_fingerprint(&a.decision),
                    decision_fingerprint(&b.decision)
                );
            }
        }
    }
}
