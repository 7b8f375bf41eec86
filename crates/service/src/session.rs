//! The [`Session`]: a text-in, decision-out convenience layer over [`Workspace`].
//!
//! A session tracks a *current* DTD so callers (the CLI, the protocol loop, examples)
//! can register once and then fire query strings at it without handling ids.  All
//! caching lives in the underlying workspace; a session adds no state beyond the
//! current-DTD cursor.

use crate::workspace::{BatchScratch, DtdId, ServedDecision, ServiceError, Workspace};
use xpsat_core::SolverConfig;

/// A stateful façade over one [`Workspace`].
#[derive(Debug, Default)]
pub struct Session {
    workspace: Workspace,
    current: Option<DtdId>,
}

impl Session {
    /// A session over a fresh workspace with default solver budgets.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session with explicit solver budgets.
    pub fn with_config(config: SolverConfig) -> Session {
        Session {
            workspace: Workspace::new(config),
            current: None,
        }
    }

    /// Register a DTD (or reuse its cached registration) and make it current.
    pub fn load_dtd(&mut self, text: &str) -> Result<DtdId, ServiceError> {
        let id = self.workspace.register_dtd(text)?;
        self.current = Some(id);
        Ok(id)
    }

    /// Make a previously registered DTD current.
    pub fn use_dtd(&mut self, id: DtdId) -> Result<(), ServiceError> {
        self.workspace.artifacts(id)?;
        self.current = Some(id);
        Ok(())
    }

    /// The current DTD, if one is loaded.
    pub fn current_dtd(&self) -> Option<DtdId> {
        self.current
    }

    /// Decide one query (given as text) against the current DTD.
    pub fn check(&mut self, query: &str) -> Result<ServedDecision, ServiceError> {
        let dtd = self.require_current()?;
        let q = self.workspace.intern(query)?;
        self.workspace.decide(dtd, q)
    }

    /// Decide a batch of queries (given as text) against the current DTD, using
    /// `threads` worker threads.  Result order matches input order.
    pub fn check_batch<S: AsRef<str>>(
        &mut self,
        queries: &[S],
        threads: usize,
    ) -> Result<Vec<ServedDecision>, ServiceError> {
        let dtd = self.require_current()?;
        let ids = queries
            .iter()
            .map(|q| self.workspace.intern(q.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        self.workspace.decide_batch_governed(
            dtd,
            &ids,
            threads,
            None,
            None,
            &mut BatchScratch::default(),
        )
    }

    /// The underlying workspace (read access: artifacts, stats).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The underlying workspace (full access).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    fn require_current(&self) -> Result<DtdId, ServiceError> {
        self.current.ok_or(ServiceError::NoCurrentDtd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_check_and_cache() {
        let mut session = Session::new();
        let id = session.load_dtd("r -> a*; a -> b?; b -> #;").unwrap();
        assert_eq!(session.current_dtd(), Some(id));

        let first = session.check("a[b]").unwrap();
        assert!(!first.cached);
        let second = session.check("a[b]").unwrap();
        assert!(second.cached);
        assert_eq!(
            crate::decision_fingerprint(&first.decision),
            crate::decision_fingerprint(&second.decision)
        );

        // Re-loading the identical DTD reuses the registration.
        let again = session.load_dtd("r -> a*; a -> b?; b -> #;").unwrap();
        assert_eq!(again, id);
        let stats = session.workspace().stats();
        assert_eq!(stats.dtds_registered, 1);
        assert_eq!(stats.dtds_reused, 1);
        assert_eq!(stats.classifications, 1);
    }

    #[test]
    fn check_without_dtd_errors() {
        let mut session = Session::new();
        let err = session.check("a").unwrap_err();
        assert!(matches!(err, crate::ServiceError::NoCurrentDtd));
        assert!(err.to_string().contains("no DTD loaded"), "{err}");
    }

    #[test]
    fn batch_matches_sequential_and_reuses_cache() {
        let mut session = Session::new();
        session
            .load_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        let queries = ["a/b", "a[b]", "a[not(b)]", "a/b", "b"];
        let batch = session.check_batch(&queries, 3).unwrap();
        let mut fresh = Session::new();
        fresh
            .load_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        for (text, served) in queries.iter().zip(&batch) {
            let seq = fresh.check(text).unwrap();
            assert_eq!(
                crate::decision_fingerprint(&served.decision),
                crate::decision_fingerprint(&seq.decision),
                "{text}"
            );
        }
        // Duplicate "a/b" inside the batch is a cache hit.
        assert!(batch[3].cached);
        // A second identical batch is all hits.
        let warm = session.check_batch(&queries, 3).unwrap();
        assert!(warm.iter().all(|served| served.cached));
    }
}
