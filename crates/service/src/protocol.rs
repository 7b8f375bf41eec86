//! The JSON-lines request/response protocol.
//!
//! One request per line in, one response per line out; blank lines are ignored.  The
//! protocol is stateful: `register_dtd` adds to the server-side [`Workspace`] and later
//! requests refer to DTDs by the returned `dtd_id`.  See the README for the full spec.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"register_dtd","dtd":"r -> a*; a -> #;"}
//! {"op":"check","dtd_id":0,"query":"a","witness":true}
//! {"op":"batch","dtd_id":0,"queries":["a","a[b]"],"threads":4,"witness":false}
//! {"op":"classify","dtd_id":0}
//! {"op":"classify","dtd_id":0,"query":"a[c][b]"}
//! {"op":"stats"}
//! ```
//!
//! `classify` with a `"query"` additionally reports the query's canonical form, its
//! canonical/structural hashes and the size of its compiled decision program against
//! that DTD (or `"compiled":false` when its class is decided by the AST solver).
//!
//! Every response carries `"ok":true` plus operation-specific fields, or `"ok":false`
//! with a structured `"error"` object:
//!
//! ```text
//! {"ok":false,"error":{"kind":"query_parse","message":"XPath parse error at byte 3: …",
//!                      "span":{"offset":3,"len":1},"retryable":false}}
//! ```
//!
//! `kind` is a stable machine-readable tag (see the README's error taxonomy), `span`
//! locates the offending bytes of the submitted text when the error is a parse error,
//! and `retryable` says whether resending the identical request can succeed.  A
//! malformed line never kills the loop.

use crate::json::Json;
use crate::workspace::{engine_slug, BatchScratch, DtdId, ServedDecision, ServiceError, Workspace};
use std::io::{BufRead, Write};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};
use xpsat_core::{Exhausted, Satisfiability};

/// Default cap on the length of one request line (bytes, newline excluded).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// A stateful protocol server over one workspace.
///
/// Request handling takes `&self`: the workspace sits behind a [`RwLock`] whose write
/// lock guards only *registry mutation* (DTD registration, query interning), while
/// decides — the long part of every request — run under the read lock, so concurrent
/// requests against one tenant no longer serialise on a protocol-wide mutex.
#[derive(Debug)]
pub struct ProtocolServer {
    workspace: RwLock<Workspace>,
    default_threads: usize,
    default_deadline_ms: Option<u64>,
    default_max_steps: Option<u64>,
    max_line_bytes: usize,
    debug_ops: bool,
    /// Shared batch scratch buffers.  Contended takers fall back to a fresh local
    /// scratch instead of blocking, so the amortisation is an optimisation, never a
    /// serialisation point.
    scratch: Mutex<BatchScratch>,
}

impl Default for ProtocolServer {
    fn default() -> ProtocolServer {
        ProtocolServer::new(0)
    }
}

impl ProtocolServer {
    /// A server over a fresh workspace; `default_threads` is used by `batch` requests
    /// that do not specify their own `threads` (0 means "number of CPUs").
    pub fn new(default_threads: usize) -> ProtocolServer {
        ProtocolServer::with_workspace(Workspace::default(), default_threads)
    }

    /// A server over an existing workspace (e.g. one attached to a persistent
    /// artifact store or carrying a residency bound).
    pub fn with_workspace(workspace: Workspace, default_threads: usize) -> ProtocolServer {
        ProtocolServer {
            workspace: RwLock::new(workspace),
            default_threads,
            default_deadline_ms: None,
            default_max_steps: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            debug_ops: false,
            scratch: Mutex::new(BatchScratch::default()),
        }
    }

    /// Read access to the workspace (shared with in-flight decides).  Everything
    /// guarded holds plain data whose every intermediate state is valid, so poison
    /// from a panicked request is recovered rather than propagated.
    fn read_ws(&self) -> RwLockReadGuard<'_, Workspace> {
        self.workspace
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write access to the workspace — held only for registry mutation (register,
    /// intern), never across a decide.
    fn write_ws(&self) -> RwLockWriteGuard<'_, Workspace> {
        self.workspace
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run `f` with batch scratch buffers: the shared (amortised) ones when free,
    /// else a fresh local set — a contended scratch must never serialise independent
    /// batches.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut BatchScratch) -> T) -> T {
        match self.scratch.try_lock() {
            Ok(mut guard) => f(&mut guard),
            Err(TryLockError::Poisoned(poisoned)) => f(&mut poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => f(&mut BatchScratch::default()),
        }
    }

    /// Enable the fault-injection ops (`debug_panic`), used by the resilience tests
    /// to prove the hosting server survives a panicking request.  Off by default.
    pub fn set_debug_ops(&mut self, enabled: bool) {
        self.debug_ops = enabled;
    }

    /// Deadline applied to `check`/`batch` requests that carry no `deadline_ms` of
    /// their own (`None` = no default deadline).
    pub fn set_default_deadline_ms(&mut self, ms: Option<u64>) {
        self.default_deadline_ms = ms;
    }

    /// Per-decision solver step budget applied to `check`/`batch` requests that carry
    /// no `max_steps` of their own (`None` = unlimited).  A decision that spends its
    /// budget is answered as `resource_exhausted` instead of spinning.
    pub fn set_default_max_steps(&mut self, steps: Option<u64>) {
        self.default_max_steps = steps;
    }

    /// Cap on the length of one request line; longer lines are rejected with an
    /// error response and skipped without being buffered in full.
    pub fn set_max_line_bytes(&mut self, bytes: usize) {
        self.max_line_bytes = bytes.max(1);
    }

    /// The current request-line length cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// The workspace behind the server (a read guard; drop it before issuing
    /// requests that mutate the registry).
    pub fn workspace(&self) -> RwLockReadGuard<'_, Workspace> {
        self.read_ws()
    }

    /// Handle one request line, producing one response line (without the newline).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match Json::parse(line) {
            Err(e) => ProtocolError::new("malformed_request", format!("malformed request: {e}"))
                .into_response(),
            Ok(request) => self.handle_request(&request),
        };
        response.to_string()
    }

    /// Handle one already-parsed request, producing the response object.  This is the
    /// seam the network server drives: it owns framing (line reading, size caps) and
    /// hands parsed requests here.
    pub fn handle_request(&self, request: &Json) -> Json {
        match self.dispatch(request) {
            Ok(response) => response,
            Err(e) => e.into_response(),
        }
    }

    /// Serve requests from `input` until EOF, writing responses to `output`.
    ///
    /// Lines are read as raw bytes and converted lossily, so a stray non-UTF-8 byte
    /// produces a per-line error response (the replacement character breaks the JSON
    /// parse) instead of killing the loop; only genuine I/O failures abort.  Lines
    /// longer than [`ProtocolServer::max_line_bytes`] are rejected with an error
    /// response without ever being buffered in full.
    pub fn serve(&self, mut input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut reader = LineReader::new(self.max_line_bytes);
        loop {
            match reader.read_from(&mut input)? {
                LineRead::Eof => return Ok(()),
                LineRead::Oversized => {
                    writeln!(output, "{}", oversized_response(self.max_line_bytes))?;
                }
                LineRead::Line => {
                    let line = String::from_utf8_lossy(reader.line()).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    writeln!(
                        output,
                        "{}",
                        self.handle_line(line.trim_end_matches(['\n', '\r']))
                    )?;
                }
            }
            output.flush()?;
        }
    }

    fn dispatch(&self, request: &Json) -> Result<Json, ProtocolError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::new("malformed_request", "missing string field 'op'"))?;
        validate_deadline_ms(request)?;
        match op {
            "register_dtd" => self.op_register_dtd(request),
            "check" => self.op_check(request),
            "batch" => self.op_batch(request),
            "classify" => self.op_classify(request),
            "stats" => Ok(self.op_stats()),
            "debug_panic" if self.debug_ops => {
                panic!("debug_panic requested by the client")
            }
            "debug_stall" if self.debug_ops => Ok(Self::op_debug_stall(request)),
            other => Err(ProtocolError::new(
                "unknown_op",
                format!("unknown op '{other}'"),
            )),
        }
    }

    /// Fault-injection op (gated by `debug_ops`, like `debug_panic`): hold the
    /// serving thread for `stall_ms` — the drill the server's worker watchdog is
    /// tested against.  Capped at 60 s so a typo cannot wedge a thread for hours.
    fn op_debug_stall(request: &Json) -> Json {
        let ms = request
            .get("stall_ms")
            .and_then(Json::as_u64)
            .unwrap_or(1_000)
            .min(60_000);
        std::thread::sleep(Duration::from_millis(ms));
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("debug_stall".into())),
            ("stalled_ms", Json::Num(ms as f64)),
        ])
    }

    fn op_register_dtd(&self, request: &Json) -> Result<Json, ProtocolError> {
        let text = str_field(request, "dtd")?;
        let outcome = self.write_ws().register_dtd_report(text)?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("register_dtd".into())),
            ("dtd_id", Json::Num(outcome.id.index() as f64)),
            ("reused", Json::Bool(outcome.reused)),
            // `cached` = artifacts loaded from the persistent store instead of
            // compiled; always false when no store is attached or the DTD was
            // already registered in this process.
            ("cached", Json::Bool(outcome.from_store)),
        ]))
    }

    /// The deadline of a request: its own `deadline_ms` if present, else the server
    /// default.  [`validate_deadline_ms`] ran at dispatch, so a present field is a
    /// positive integer here.
    fn deadline_of(&self, request: &Json) -> Option<Instant> {
        request
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// The per-decision step budget of a request: its own `max_steps` if present, else
    /// the server default.
    fn max_steps_of(&self, request: &Json) -> Option<u64> {
        request
            .get("max_steps")
            .and_then(Json::as_u64)
            .or(self.default_max_steps)
    }

    fn op_check(&self, request: &Json) -> Result<Json, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        let text = str_field(request, "query")?;
        let with_witness = request
            .get("witness")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let deadline = self.deadline_of(request);
        let max_steps = self.max_steps_of(request);
        // The write lock covers only the intern; the decide below runs under the
        // read lock, concurrently with other requests.
        let query = self.write_ws().intern(text)?;
        let ws = self.read_ws();
        let served = self
            .with_scratch(|scratch| {
                ws.decide_batch_governed(dtd, &[query], 1, deadline, max_steps, scratch)
            })?
            .remove(0);
        // A spent step budget is a request-level failure for `check` (a deadline hit
        // already surfaced as ServiceError::DeadlineExceeded above).
        if let Some(cause) = served.decision.exhausted {
            return Err(ProtocolError::resource_exhausted(
                cause,
                served.decision.engine,
            ));
        }
        let canonical = ws.query(query)?.canonical.clone();
        let mut response = vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("check".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("query", Json::Str(canonical)),
        ];
        response.extend(decision_fields(&served, with_witness));
        Ok(Json::obj(response))
    }

    fn op_batch(&self, request: &Json) -> Result<Json, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        let items = request
            .get("queries")
            .and_then(Json::as_array)
            .ok_or_else(|| {
                ProtocolError::new("malformed_request", "missing array field 'queries'")
            })?;
        let with_witness = request
            .get("witness")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let threads = match request.get("threads").and_then(Json::as_u64) {
            Some(n) if n > 0 => n as usize,
            _ => self.effective_threads(),
        };
        let deadline = self.deadline_of(request);
        let max_steps = self.max_steps_of(request);
        let mut ids = Vec::with_capacity(items.len());
        {
            // One write acquisition for the whole intern phase; released before the
            // (parallel, possibly long) decide.
            let mut ws = self.write_ws();
            for (i, item) in items.iter().enumerate() {
                let text = item.as_str().ok_or_else(|| {
                    ProtocolError::new("malformed_request", format!("queries[{i}] is not a string"))
                })?;
                ids.push(ws.intern(text)?);
            }
        }
        let ws = self.read_ws();
        let served = self.with_scratch(|scratch| {
            ws.decide_batch_governed(dtd, &ids, threads, deadline, max_steps, scratch)
        })?;
        let mut results = Vec::with_capacity(served.len());
        for (id, one) in ids.iter().zip(&served) {
            let mut fields = vec![("query", Json::Str(ws.query(*id)?.canonical.clone()))];
            fields.extend(decision_fields(one, with_witness));
            results.push(Json::obj(fields));
        }
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("batch".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("threads", Json::Num(threads as f64)),
            ("results", Json::Arr(results)),
        ]))
    }

    /// A DTD-property flag as JSON: `Null` when the DTD never compiled (vacuous).
    fn props_field(
        artifacts: &xpsat_dtd::DtdArtifacts,
        pick: impl Fn(&xpsat_dtd::DtdProperties) -> bool,
    ) -> Json {
        artifacts
            .properties()
            .map(|p| Json::Bool(pick(p)))
            .unwrap_or(Json::Null)
    }

    fn op_classify(&self, request: &Json) -> Result<Json, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        // With an optional "query", classify also reports the query's canonical
        // form, its structural hashes and the compiled-program shape against this
        // DTD — the introspection hook for the cross-tenant canonical cache.
        let ws;
        let query_fields = match request.get("query").and_then(Json::as_str) {
            None => {
                ws = self.read_ws();
                None
            }
            Some(text) => {
                let id = self.write_ws().intern(text)?;
                ws = self.read_ws();
                let program = ws.compiled_program(dtd, id)?;
                let interned = ws.query(id)?;
                let route = xpsat_core::Solver::predict_route(
                    &ws.artifacts(dtd)?.compiled,
                    &interned.canon_path,
                );
                Some(vec![
                    ("query", Json::Str(interned.canonical.clone())),
                    ("canonical_query", Json::Str(interned.canon_text.clone())),
                    (
                        "canonical_hash",
                        Json::Str(format!("{:016x}", interned.canonical_hash)),
                    ),
                    (
                        "structural_hash",
                        Json::Str(format!("{:016x}", interned.structural_hash)),
                    ),
                    ("compiled", Json::Bool(program.is_some())),
                    (
                        "program_ops",
                        program
                            .map(|p| Json::Num(p.size() as f64))
                            .unwrap_or(Json::Null),
                    ),
                    // Features × DTD-properties routing: may the compiled VM
                    // cover this query here, and which AST engine backs it up?
                    ("vm_eligible", Json::Bool(route.vm_eligible)),
                    (
                        "predicted_engine",
                        Json::Str(engine_slug(route.ast_engine).to_string()),
                    ),
                ])
            }
        };
        let artifacts = ws.artifacts(dtd)?;
        let class = &artifacts.class;
        let mut response = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("classify".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("root", Json::Str(artifacts.dtd.root().to_string())),
            (
                "elements",
                Json::Num(artifacts.dtd.element_names().len() as f64),
            ),
            ("size", Json::Num(artifacts.dtd.size() as f64)),
            ("recursive", Json::Bool(class.recursive)),
            ("disjunction_free", Json::Bool(class.disjunction_free)),
            ("has_star", Json::Bool(class.has_star)),
            ("normalized", Json::Bool(class.normalized)),
            // The 1308.0769 property bundle the compiled-VM fragment widens on.
            (
                "duplicate_free",
                Self::props_field(&artifacts.compiled, |p| p.duplicate_free),
            ),
            (
                "disjunction_capsuled",
                Self::props_field(&artifacts.compiled, |p| p.disjunction_capsuled),
            ),
            (
                "covering",
                Self::props_field(&artifacts.compiled, |p| p.covering),
            ),
            (
                "depth_bound",
                class
                    .depth_bound
                    .map(|d| Json::Num(d as f64))
                    .unwrap_or(Json::Null),
            ),
            (
                "normalization_new_types",
                Json::Num(artifacts.normalization.new_types.len() as f64),
            ),
            (
                "automata",
                Json::Num(artifacts.compiled.automata_count() as f64),
            ),
        ]);
        if let (Json::Obj(fields), Some(extra)) = (&mut response, query_fields) {
            for (key, value) in extra {
                fields.push((key.to_string(), value));
            }
        }
        Ok(response)
    }

    fn op_stats(&self) -> Json {
        let ws = self.read_ws();
        let stats = ws.stats();
        let (memo_hits, memo_built) = ws.negation_memo_stats();
        let bailouts = Json::Obj(
            xpsat_plan::BailReason::ALL
                .iter()
                .zip(stats.compile_bailouts)
                .map(|(reason, count)| (reason.as_str().to_string(), Json::Num(count as f64)))
                .collect(),
        );
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            ("dtds_registered", Json::Num(stats.dtds_registered as f64)),
            ("dtds_reused", Json::Num(stats.dtds_reused as f64)),
            ("resident_dtds", Json::Num(stats.resident_dtds as f64)),
            ("dtd_evictions", Json::Num(stats.dtd_evictions as f64)),
            (
                "artifact_rebuilds",
                Json::Num(stats.artifact_rebuilds as f64),
            ),
            ("classifications", Json::Num(stats.classifications as f64)),
            ("normalizations", Json::Num(stats.normalizations as f64)),
            ("automata_built", Json::Num(stats.automata_built as f64)),
            ("queries_interned", Json::Num(stats.queries_interned as f64)),
            ("queries_reused", Json::Num(stats.queries_reused as f64)),
            (
                "decisions_computed",
                Json::Num(stats.decisions_computed as f64),
            ),
            (
                "decision_cache_hits",
                Json::Num(stats.decision_cache_hits as f64),
            ),
            (
                "artifact_store_hits",
                Json::Num(stats.artifact_store_hits as f64),
            ),
            (
                "artifact_store_misses",
                Json::Num(stats.artifact_store_misses as f64),
            ),
            (
                "artifact_store_writes",
                Json::Num(stats.artifact_store_writes as f64),
            ),
            (
                "artifact_store_corrupt",
                Json::Num(stats.artifact_store_corrupt as f64),
            ),
            (
                "deadline_exceeded",
                Json::Num(stats.deadline_exceeded as f64),
            ),
            (
                "resource_exhausted",
                Json::Num(stats.resource_exhausted as f64),
            ),
            ("canonical_hits", Json::Num(stats.canonical_hits as f64)),
            (
                "programs_compiled",
                Json::Num(stats.programs_compiled as f64),
            ),
            (
                "program_fallbacks",
                Json::Num(stats.program_fallbacks as f64),
            ),
            ("vm_decides", Json::Num(stats.vm_decides as f64)),
            (
                "vm_witness_fallbacks",
                Json::Num(stats.vm_witness_fallbacks as f64),
            ),
            ("vm_coverage", Json::Num(stats.vm_coverage())),
            (
                "program_store_hits",
                Json::Num(stats.program_store_hits as f64),
            ),
            (
                "program_store_misses",
                Json::Num(stats.program_store_misses as f64),
            ),
            (
                "program_store_writes",
                Json::Num(stats.program_store_writes as f64),
            ),
            (
                "program_store_corrupt",
                Json::Num(stats.program_store_corrupt as f64),
            ),
            ("compile_bailouts_by_reason", bailouts),
            ("negation_memo_hits", Json::Num(memo_hits as f64)),
            ("negation_memo_built", Json::Num(memo_built as f64)),
        ])
    }

    fn effective_threads(&self) -> usize {
        crate::workspace::effective_threads(self.default_threads)
    }
}

/// Render the shared decision fields of `check` and `batch` results.
fn decision_fields(served: &ServedDecision, with_witness: bool) -> Vec<(&'static str, Json)> {
    let decision = &served.decision;
    let mut fields = vec![
        (
            "result",
            Json::Str(
                match decision.result {
                    Satisfiability::Satisfiable(_) => "satisfiable",
                    Satisfiability::Unsatisfiable => "unsatisfiable",
                    Satisfiability::Unknown => "unknown",
                }
                .to_string(),
            ),
        ),
        (
            "engine",
            Json::Str(engine_slug(decision.engine).to_string()),
        ),
        ("complete", Json::Bool(decision.complete)),
        ("cached", Json::Bool(served.cached)),
    ];
    // Budget-exhausted batch results keep their slot (result "unknown") but say why.
    if decision.exhausted.is_some() {
        fields.push(("resource_exhausted", Json::Bool(true)));
    }
    if with_witness {
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            fields.push(("witness", Json::Str(xpsat_xmltree::serialize::to_xml(doc))));
        }
    }
    fields
}

/// Build the structured error object of an `"ok":false` response.
pub fn error_object(
    kind: &str,
    message: &str,
    span: Option<(usize, usize)>,
    retryable: bool,
) -> Json {
    let mut fields = vec![
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    if let Some((offset, len)) = span {
        fields.push((
            "span",
            Json::obj(vec![
                ("offset", Json::Num(offset as f64)),
                ("len", Json::Num(len as f64)),
            ]),
        ));
    }
    fields.push(("retryable", Json::Bool(retryable)));
    Json::obj(fields)
}

/// Build a complete `"ok":false` response around [`error_object`].
pub fn error_response(
    kind: &str,
    message: &str,
    span: Option<(usize, usize)>,
    retryable: bool,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", error_object(kind, message, span, retryable)),
    ])
}

/// The response for a request line exceeding the size cap.
pub fn oversized_response(max_line_bytes: usize) -> Json {
    let mut response = error_response(
        "oversized",
        &format!("request line exceeds the {max_line_bytes}-byte limit"),
        None,
        false,
    );
    if let Json::Obj(fields) = &mut response {
        // Legacy top-level marker, kept for older clients.
        fields.push(("oversized".to_string(), Json::Bool(true)));
    }
    response
}

/// Result of reading one length-capped line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// End of input before any byte of a new line.
    Eof,
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; it was consumed (through its newline or EOF) but
    /// only the first `max_bytes` are buffered.
    Oversized,
}

/// A resumable, length-capped line reader, shared by the stdio loop and the TCP/Unix
/// server so both enforce identical framing and caps.
///
/// An overlong line is drained from the input (so the stream stays framed on line
/// boundaries) but reported as [`LineRead::Oversized`] instead of being returned —
/// the caller answers with [`oversized_response`] and carries on.  If the underlying
/// reader fails with a *transient* error (`WouldBlock`/`TimedOut` from a socket read
/// timeout), all partial progress is kept and the next [`LineReader::read_from`] call
/// resumes mid-line — the network server relies on this to poll its shutdown flag
/// without ever corrupting framing.
#[derive(Debug)]
pub struct LineReader {
    buffer: Vec<u8>,
    overflowed: bool,
    finished: bool,
    max_bytes: usize,
}

impl LineReader {
    /// A reader enforcing the given per-line byte cap (newline excluded).
    pub fn new(max_bytes: usize) -> LineReader {
        LineReader {
            buffer: Vec::new(),
            overflowed: false,
            finished: true,
            max_bytes: max_bytes.max(1),
        }
    }

    /// The last completely read line (valid after [`LineRead::Line`]).
    pub fn line(&self) -> &[u8] {
        &self.buffer
    }

    /// Is the reader holding a *partial* line (bytes arrived, no newline yet)?
    ///
    /// Distinguishes a slow-loris client stalled mid-request (worth a timeout) from
    /// an idle keep-alive connection between requests (legitimate).
    pub fn mid_line(&self) -> bool {
        !self.finished && (!self.buffer.is_empty() || self.overflowed)
    }

    /// Read (or, after a transient error, continue reading) one line.
    pub fn read_from(&mut self, input: &mut impl BufRead) -> std::io::Result<LineRead> {
        if self.finished {
            self.buffer.clear();
            self.overflowed = false;
            self.finished = false;
        }
        loop {
            let chunk = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: a trailing unterminated line still counts as a line.
                self.finished = true;
                return Ok(if self.overflowed {
                    LineRead::Oversized
                } else if self.buffer.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let upto = newline.map(|p| p + 1).unwrap_or(chunk.len());
            if !self.overflowed {
                let body = newline.unwrap_or(chunk.len());
                if self.buffer.len() + body > self.max_bytes {
                    self.overflowed = true;
                } else {
                    self.buffer.extend_from_slice(&chunk[..body]);
                }
            }
            input.consume(upto);
            if newline.is_some() {
                self.finished = true;
                return Ok(if self.overflowed {
                    LineRead::Oversized
                } else {
                    LineRead::Line
                });
            }
        }
    }
}

/// A request-level failure (bad field, unknown id, parse error, spent budget) carrying
/// the structured-error fields of the protocol's taxonomy.
#[derive(Debug, Clone)]
pub struct ProtocolError {
    kind: &'static str,
    message: String,
    span: Option<(usize, usize)>,
    retryable: bool,
}

impl ProtocolError {
    fn new(kind: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind,
            message: message.into(),
            span: None,
            retryable: false,
        }
    }

    fn resource_exhausted(cause: Exhausted, engine: xpsat_core::EngineKind) -> ProtocolError {
        ProtocolError::new(
            "resource_exhausted",
            format!(
                "{cause} before the decision completed (engine: {})",
                engine_slug(engine)
            ),
        )
    }

    /// The machine-readable error tag.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Render as an `"ok":false` response object.
    pub fn into_response(self) -> Json {
        let mut response = error_response(self.kind, &self.message, self.span, self.retryable);
        if self.kind == "deadline_exceeded" {
            if let Json::Obj(fields) = &mut response {
                // Legacy top-level marker, kept for older clients.
                fields.push(("deadline_exceeded".to_string(), Json::Bool(true)));
            }
        }
        response
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ServiceError> for ProtocolError {
    fn from(e: ServiceError) -> ProtocolError {
        let message = e.to_string();
        let (kind, span, retryable) = match e {
            ServiceError::DtdParse { span, .. } => ("dtd_parse", Some(span), false),
            ServiceError::QueryParse { span, .. } => ("query_parse", Some(span), false),
            ServiceError::UnknownDtd(_) => ("unknown_dtd", None, false),
            ServiceError::UnknownQuery(_) => ("unknown_query", None, false),
            ServiceError::NoCurrentDtd => ("no_current_dtd", None, false),
            // Retrying a deadline-expired batch resumes from the published partial
            // progress, so it genuinely can succeed.
            ServiceError::DeadlineExceeded => ("deadline_exceeded", None, true),
        };
        ProtocolError {
            kind,
            message,
            span,
            retryable,
        }
    }
}

/// A present `deadline_ms` must be a positive integer.  `0` used to be accepted
/// and was indistinguishable from "no deadline" on the `check` fast path (which
/// skips the governed batch machinery when no deadline is set) while expiring
/// instantly on the governed path — now both transports refuse it identically
/// with a structured, non-retryable `invalid_request`.
fn validate_deadline_ms(request: &Json) -> Result<(), ProtocolError> {
    let Some(value) = request.get("deadline_ms") else {
        return Ok(());
    };
    match value.as_u64() {
        Some(ms) if ms > 0 => Ok(()),
        Some(_) => Err(ProtocolError::new(
            "invalid_request",
            "invalid field 'deadline_ms': must be a positive integer of milliseconds \
             (omit the field for no deadline)",
        )),
        None => Err(ProtocolError::new(
            "invalid_request",
            "invalid field 'deadline_ms': must be a positive integer of milliseconds",
        )),
    }
}

fn str_field<'a>(request: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    request.get(key).and_then(Json::as_str).ok_or_else(|| {
        ProtocolError::new("malformed_request", format!("missing string field '{key}'"))
    })
}

fn dtd_id_field(request: &Json) -> Result<DtdId, ProtocolError> {
    request
        .get("dtd_id")
        .and_then(Json::as_u64)
        .map(|n| DtdId(n as usize))
        .ok_or_else(|| ProtocolError::new("malformed_request", "missing numeric field 'dtd_id'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
        response
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {response}"))
    }

    #[test]
    fn register_check_batch_stats_round_trip() {
        let server = ProtocolServer::new(2);
        let reg = Json::parse(
            &server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a*; a -> b?; b -> #;"}"#),
        )
        .unwrap();
        assert_eq!(field(&reg, "ok").as_bool(), Some(true));
        assert_eq!(field(&reg, "dtd_id").as_u64(), Some(0));
        assert_eq!(field(&reg, "reused").as_bool(), Some(false));

        let check = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#),
        )
        .unwrap();
        assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
        assert!(field(&check, "witness")
            .as_str()
            .unwrap()
            .starts_with("<r>"));
        assert_eq!(field(&check, "cached").as_bool(), Some(false));

        let batch =
            Json::parse(&server.handle_line(
                r#"{"op":"batch","dtd_id":0,"queries":["a[b]","b/..","c"],"threads":2}"#,
            ))
            .unwrap();
        let results = field(&batch, "results").as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(field(&results[0], "cached").as_bool(), Some(true));
        assert_eq!(field(&results[2], "result").as_str(), Some("unsatisfiable"));

        let stats = Json::parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(field(&stats, "classifications").as_u64(), Some(1));
        assert!(field(&stats, "decision_cache_hits").as_u64().unwrap() >= 1);
        // The compiled fast path is visible in the stats op.
        assert!(field(&stats, "vm_decides").as_u64().unwrap() >= 1);
        assert!(stats.get("vm_coverage").is_some());
        assert!(stats.get("compile_bailouts_by_reason").is_some());
        assert!(field(&stats, "program_store_hits").as_u64().is_some());
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = ProtocolServer::new(1);
        for bad in [
            "not json",
            r#"{"op":"teleport"}"#,
            r#"{"op":"check","dtd_id":9,"query":"a"}"#,
            r#"{"op":"check","dtd_id":0}"#,
            r#"{"op":"register_dtd","dtd":"r -> ("}"#,
        ] {
            let response = Json::parse(&server.handle_line(bad)).unwrap();
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(false),
                "{bad}"
            );
            assert!(response.get("error").is_some(), "{bad}");
        }
        // The server still works afterwards.
        let reg = server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#);
        assert!(reg.contains(r#""ok":true"#));
    }

    #[test]
    fn parse_errors_are_structured_with_spans() {
        let server = ProtocolServer::new(1);
        let resp = Json::parse(&server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a/ |b"}"#))
            .unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("query_parse"));
        assert!(field(error, "message")
            .as_str()
            .unwrap()
            .contains("at byte 3"));
        let span = field(error, "span");
        assert_eq!(field(span, "offset").as_u64(), Some(3));
        assert_eq!(field(span, "len").as_u64(), Some(1));
        assert_eq!(field(error, "retryable").as_bool(), Some(false));

        let resp =
            Json::parse(&server.handle_line(r#"{"op":"register_dtd","dtd":"r -> (a; a -> #;"}"#))
                .unwrap();
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("dtd_parse"));
        assert!(error.get("span").is_some());
    }

    #[test]
    fn budget_capped_requests_report_resource_exhausted() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a*; a -> b | c; b -> #; c -> #;"}"#);
        let resp = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]","max_steps":1}"#),
        )
        .unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("resource_exhausted"));
        assert_eq!(field(error, "retryable").as_bool(), Some(false));

        // Batch results keep their slot with an exhaustion marker, while the cached
        // "a/b" (warmed without a cap) is served untouched by the budget.
        server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a/b"}"#);
        let batch = Json::parse(&server.handle_line(
            r#"{"op":"batch","dtd_id":0,"queries":["a[not(b)]","a/b"],"max_steps":1,"threads":1}"#,
        ))
        .unwrap();
        assert_eq!(field(&batch, "ok").as_bool(), Some(true));
        let results = field(&batch, "results").as_array().unwrap();
        assert_eq!(field(&results[0], "result").as_str(), Some("unknown"));
        assert_eq!(
            field(&results[0], "resource_exhausted").as_bool(),
            Some(true)
        );
        assert!(results[1].get("resource_exhausted").is_none());

        // The exhausted Unknown was never cached: the unconstrained retry decides.
        let retry =
            Json::parse(&server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]"}"#))
                .unwrap();
        assert_eq!(field(&retry, "result").as_str(), Some("satisfiable"));
        assert_eq!(field(&retry, "cached").as_bool(), Some(false));
    }

    #[test]
    fn classify_reports_canonical_query_and_program() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a; a -> b, c; b -> #; c -> #;"}"#);
        let one = Json::parse(
            &server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[b and c]"}"#),
        )
        .unwrap();
        let two =
            Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[c][b]"}"#))
                .unwrap();
        assert_eq!(field(&one, "ok").as_bool(), Some(true));
        assert_eq!(field(&one, "compiled").as_bool(), Some(true));
        assert!(field(&one, "program_ops").as_u64().unwrap() >= 1);
        // Structurally identical spellings agree on every canonical field.
        assert_eq!(
            field(&one, "canonical_query").as_str(),
            field(&two, "canonical_query").as_str()
        );
        assert_eq!(
            field(&one, "canonical_hash").as_str(),
            field(&two, "canonical_hash").as_str()
        );
        assert_eq!(
            field(&one, "structural_hash").as_str(),
            field(&two, "structural_hash").as_str()
        );
        // Local negation now compiles on duplicate-free DTDs; an upward axis stays
        // outside the compiled fragment: reported, not an error.
        let neg =
            Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[not(b)]"}"#))
                .unwrap();
        assert_eq!(field(&neg, "compiled").as_bool(), Some(true));
        // The routing prediction and the 1308.0769 DTD-property bundle are reported.
        assert_eq!(field(&neg, "duplicate_free").as_bool(), Some(true));
        assert_eq!(field(&neg, "vm_eligible").as_bool(), Some(true));
        assert_eq!(
            field(&neg, "predicted_engine").as_str(),
            Some("negation-fixpoint")
        );
        let up = Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"b/.."}"#))
            .unwrap();
        assert_eq!(field(&up, "compiled").as_bool(), Some(false));
        assert!(matches!(field(&up, "program_ops"), Json::Null));
        assert_eq!(field(&up, "vm_eligible").as_bool(), Some(false));
        // The bail was counted under its reason.
        let stats = Json::parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let by_reason = field(&stats, "compile_bailouts_by_reason");
        assert_eq!(field(by_reason, "upward_axis").as_u64(), Some(1));
    }

    #[test]
    fn zero_or_malformed_deadline_is_invalid_request() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#);
        for bad in [
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":0}"#,
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":-5}"#,
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":"soon"}"#,
            r#"{"op":"batch","dtd_id":0,"queries":["a"],"deadline_ms":0}"#,
            r#"{"op":"register_dtd","dtd":"r -> #;","deadline_ms":0}"#,
        ] {
            let resp = Json::parse(&server.handle_line(bad)).unwrap();
            assert_eq!(field(&resp, "ok").as_bool(), Some(false), "{bad}");
            let error = field(&resp, "error");
            assert_eq!(
                field(error, "kind").as_str(),
                Some("invalid_request"),
                "{bad}"
            );
            assert_eq!(field(error, "retryable").as_bool(), Some(false), "{bad}");
        }
        // A positive deadline still works.
        let ok = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":5000}"#),
        )
        .unwrap();
        assert_eq!(field(&ok, "ok").as_bool(), Some(true));
    }

    #[test]
    fn serve_survives_non_utf8_lines() {
        let server = ProtocolServer::new(1);
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\xff\xfe garbage bytes\n");
        input.extend_from_slice(b"{\"op\":\"register_dtd\",\"dtd\":\"r -> a?; a -> #;\"}\n");
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .unwrap()
            .trim()
            .lines()
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[1].contains(r#""dtd_id":0"#), "{}", lines[1]);
    }

    #[test]
    fn serve_loop_reads_and_writes_lines() {
        let server = ProtocolServer::new(1);
        let input = "\n{\"op\":\"register_dtd\",\"dtd\":\"r -> a?; a -> #;\"}\n{\"op\":\"check\",\"dtd_id\":0,\"query\":\"a\"}\n";
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .unwrap()
            .trim()
            .lines()
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""dtd_id":0"#));
        assert!(lines[1].contains(r#""result":"satisfiable""#));
    }
}
