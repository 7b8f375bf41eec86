//! The traced run: the served run's requests replayed in-process, once untraced
//! through `ProtocolServer::handle_line` and once layer by layer through each
//! crate's public functions, with every call recorded as a span.
//!
//! Spans carry a request id, a layer name, start and end, and a parent.  A layer's
//! self time is its span minus its children.  Layer names follow the ROADMAP
//! phases (framing, JSON decode, XPath parse, intern, canonicalise, cache tier,
//! compile, VM verdict, witness realisation, AST engine, JSON encode).

use crate::gen::{Request, Schema, MAX_STEPS};
use crate::stats::{median, share};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;
use xpsat_core::{Budget, EngineKind, Satisfiability, Solver};
use xpsat_plan::{compile_with_reason, vm, CanonicalQuery, CompileLimits, Scratch};
use xpsat_service::{
    effective_threads, engine_slug, ArtifactStore, BatchScratch, CanonicalCache, DtdId, Json,
    LineRead, LineReader, ProtocolServer, ServedDecision, Workspace, DEFAULT_MAX_LINE_BYTES,
};
use xpsat_xpath::parse_path;

/// Requests of the measured phase replayed: the first ones answered, in the order
/// their answers arrived.
pub const REPLAY_REQUESTS: usize = 3_000;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: usize,
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, request: usize, layer: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            request,
            layer: layer.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Record `f` as one span and return its result.
    pub fn time<T>(
        &mut self,
        request: usize,
        layer: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, layer, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn rename(&mut self, id: usize, layer: &str) {
        self.spans[id].layer = layer.to_string();
    }

    /// Self time, in nanoseconds, of every span from `first` on: its duration minus
    /// its children's (children of spans before `first` are ignored).
    pub fn self_times(&self, first: usize) -> Vec<u64> {
        let spans = &self.spans[first..];
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in spans {
            if let Some(p) = span.parent.filter(|&p| p >= first) {
                own[p - first] = own[p - first].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Inputs of the traced run that come from the served run.
#[derive(Debug)]
pub struct ServedView<'a> {
    /// Warm-up requests answered during set-up.
    pub warm: Vec<&'a Request>,
    /// Measured-phase requests answered, in order.
    pub measured: Vec<&'a Request>,
    /// Served request latencies (µs) and first-byte-to-newline spreads (µs).
    pub latencies_us: &'a [f64],
    pub spreads_us: &'a [f64],
    /// The server's `stats` after set-up and at the end of the run.
    pub setup_stats: &'a Json,
    pub end_stats: &'a Json,
    /// Server `VmRSS` after set-up, when every connection had finished its
    /// prefix, and at the end.
    pub setup_rss_mb: f64,
    pub prefix_rss_mb: f64,
    pub end_rss_mb: f64,
    pub restarts: usize,
    pub downtime_s: f64,
    /// Whether the served server had a `--cache-dir`; the replayed workspaces get a
    /// store exactly when it did.
    pub persistent_store: bool,
}

/// The per-layer report of one traced run.
#[derive(Debug)]
pub struct TraceReport {
    /// The metrics printed on stdout (the per-layer set every workload reports).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Every row of the per-layer table, including those a workload leaves at 0.
    pub table: Vec<(String, f64, &'static str, usize)>,
    /// Reconciliation lines.
    pub notes: Vec<String>,
}

/// The workspace configuration `xpathsat serve` gives a tenant, with a store in
/// `store_dir` when the served server had a `--cache-dir`.
fn tenant_workspace(view: &ServedView<'_>, store_dir: &Path) -> Result<Workspace, String> {
    let workspace = Workspace::default().with_canonical_cache(Arc::new(CanonicalCache::new()));
    if !view.persistent_store {
        return Ok(workspace);
    }
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("store: {e}"))?;
    Ok(workspace.with_store(store))
}

fn register_line(schema: &Schema) -> String {
    Json::obj(vec![
        ("op", Json::Str("register_dtd".into())),
        ("dtd", Json::Str(schema.text.clone())),
    ])
    .to_string()
}

/// Untraced: every request through `handle_line`; returns the measured requests'
/// durations in µs.
fn replay_untraced(
    schemas: &[Schema],
    view: &ServedView<'_>,
    dir: &Path,
) -> Result<Vec<f64>, String> {
    let server = ProtocolServer::with_workspace(tenant_workspace(view, dir)?, 0);
    for schema in schemas {
        server.handle_line(&register_line(schema));
    }
    for request in &view.warm {
        server.handle_line(&request.line);
    }
    let mut durations = Vec::with_capacity(view.measured.len());
    for request in &view.measured {
        let started = Instant::now();
        std::hint::black_box(server.handle_line(std::hint::black_box(&request.line)));
        durations.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(durations)
}

/// Per-layer samples gathered by the traced replay.
#[derive(Debug, Default)]
struct Samples {
    /// Pipeline layer → per-request self time (ns), measured requests only.
    per_request: BTreeMap<String, Vec<f64>>,
    /// Root span durations (ns) of measured requests.
    request_ns: Vec<f64>,
    /// Layer → per-call durations (ns), every request and probe.
    calls: BTreeMap<String, Vec<f64>>,
    compiled: u64,
    bailed: BTreeMap<&'static str, u64>,
    engine_exhausted: u64,
    engine_runs: u64,
    decide_hits: Vec<f64>,
}

/// Traced: the pipeline of one request as the protocol runs it, one span per public
/// call, then (outside the request's span) probes of the decide layers for every
/// decision that missed the caches.
fn replay_traced(
    schemas: &[Schema],
    view: &ServedView<'_>,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Samples, String> {
    let workspace = RwLock::new(tenant_workspace(view, &dir.join("ws"))?);
    let probe_store = ArtifactStore::open(dir.join("probe")).map_err(|e| e.to_string())?;
    let mut dtds = Vec::new();
    for schema in schemas {
        let outcome = workspace
            .write()
            .expect("replay lock")
            .register_dtd_report(&schema.text)
            .map_err(|e| e.to_string())?;
        dtds.push(outcome.id);
    }
    let mut samples = Samples::default();
    let mut scratch = BatchScratch::default();
    let mut vm_scratch = Scratch::new();
    let solver = Solver::default();
    let budget = Budget::steps(MAX_STEPS);
    let requests = view.warm.iter().map(|r| (r, false));
    let requests = requests.chain(view.measured.iter().map(|r| (r, true)));
    for (id, (request, measured)) in requests.enumerate() {
        let first_span = tracer.spans.len();
        let root = tracer.open(id, "request", None);
        let framed = tracer.time(id, "framing", Some(root), || {
            let mut reader = LineReader::new(DEFAULT_MAX_LINE_BYTES);
            let mut input = Cursor::new(format!("{}\n", request.line).into_bytes());
            match reader.read_from(&mut input) {
                Ok(LineRead::Line) => Some(String::from_utf8_lossy(reader.line()).into_owned()),
                _ => None,
            }
        });
        let line = framed.ok_or("framing failed")?;
        let parsed = tracer.time(id, "json.decode", Some(root), || {
            Json::parse(line.trim_end())
        });
        let parsed = parsed.map_err(|e| e.to_string())?;
        let texts: Vec<String> = match parsed.get("queries").and_then(Json::as_array) {
            Some(items) => items
                .iter()
                .filter_map(|q| q.as_str().map(str::to_string))
                .collect(),
            None => vec![parsed
                .get("query")
                .and_then(Json::as_str)
                .ok_or("no query")?
                .to_string()],
        };
        let dtd: DtdId = dtds[request.schema];
        let mut ids = Vec::with_capacity(texts.len());
        for text in &texts {
            let path = tracer
                .time(id, "xpath.parse", Some(root), || parse_path(text))
                .map_err(|e| e.to_string())?;
            let span = tracer.open(id, "workspace.intern", Some(root));
            let mut ws = workspace.write().expect("replay lock");
            let before = ws.query_count();
            let qid = ws.intern_path(path);
            let new = ws.query_count() > before;
            drop(ws);
            tracer.close(span);
            tracer.rename(
                span,
                if new {
                    "workspace.intern_new"
                } else {
                    "workspace.intern_reused"
                },
            );
            ids.push(qid);
        }
        let ws = workspace.read().expect("replay lock");
        let threads = if request.batch {
            effective_threads(0)
        } else {
            1
        };
        let decide_span = tracer.open(id, "workspace.decide", Some(root));
        let served = ws
            .decide_batch_governed(dtd, &ids, threads, None, Some(MAX_STEPS), &mut scratch)
            .map_err(|e| e.to_string())?;
        tracer.close(decide_span);
        let encoded = tracer.time(id, "json.encode", Some(root), || {
            encode(request, dtd, &ids, &served, &ws)
        });
        std::hint::black_box(encoded);
        tracer.close(root);
        if served.len() == 1 && served[0].cached {
            let s = &tracer.spans[decide_span];
            samples.decide_hits.push((s.end_ns - s.start_ns) as f64);
        }

        // Probes of the decide layers, for every decision computed afresh.
        for (qid, one) in ids.iter().zip(&served) {
            if one.cached {
                continue;
            }
            let artifacts = ws.artifacts(dtd).map_err(|e| e.to_string())?;
            let query = ws.query(*qid).map_err(|e| e.to_string())?;
            let probe = tracer.open(id, "probe", None);
            let canon = tracer.time(id, "plan.canon", Some(probe), || {
                CanonicalQuery::of(&query.path)
            });
            let compiled = tracer.time(id, "plan.compile", Some(probe), || {
                compile_with_reason(&artifacts.compiled, &canon.path, &CompileLimits::default())
            });
            match compiled {
                Ok(program) => {
                    samples.compiled += 1;
                    let meter = budget.meter();
                    let run = tracer.open(id, "plan.vm_verdict", Some(probe));
                    let verdict = vm::run(&program, &artifacts.compiled, &mut vm_scratch, &meter);
                    tracer.close(run);
                    std::hint::black_box(verdict.ok());
                    let full = tracer.open(id, "plan.vm_decide", Some(probe));
                    let decided =
                        vm::decide(&program, &artifacts.compiled, &mut vm_scratch, &budget);
                    tracer.close(full);
                    std::hint::black_box(decided);
                    let run_ns = tracer.spans[run].end_ns - tracer.spans[run].start_ns;
                    let full_ns = tracer.spans[full].end_ns - tracer.spans[full].start_ns;
                    samples
                        .calls
                        .entry("plan.witness".into())
                        .or_default()
                        .push(full_ns.saturating_sub(run_ns) as f64);
                    let saved = tracer.time(id, "store.save_program", Some(probe), || {
                        probe_store.save_program(
                            artifacts.fingerprint,
                            canon.canonical_hash,
                            &canon.text,
                            &program,
                        )
                    });
                    saved.map_err(|e| format!("probe store: {e}"))?;
                    let loaded = tracer.time(id, "store.load_program", Some(probe), || {
                        probe_store.load_program(
                            artifacts.fingerprint,
                            canon.canonical_hash,
                            &canon.text,
                            &artifacts.compiled,
                        )
                    });
                    loaded.map_err(|e| format!("probe store load: {e:?}"))?;
                }
                Err(reason) => *samples.bailed.entry(reason.as_str()).or_default() += 1,
            }
            let engine = tracer.open(id, "core.engine", Some(probe));
            let decision = solver.decide_budgeted(&artifacts.compiled, &canon.path, &budget);
            tracer.close(engine);
            tracer.rename(
                engine,
                &format!("core.engine.{}", engine_slug(decision.engine)),
            );
            samples.engine_runs += 1;
            if decision.exhausted.is_some() {
                samples.engine_exhausted += 1;
            }
            tracer.close(probe);
        }
        drop(ws);

        // Fold this request's spans into the samples.
        let own = tracer.self_times(first_span);
        if measured {
            let root_span = &tracer.spans[root];
            samples
                .request_ns
                .push((root_span.end_ns - root_span.start_ns) as f64);
            let mut per_layer: BTreeMap<String, f64> = BTreeMap::new();
            for (span, own) in tracer.spans[first_span..].iter().zip(&own) {
                if span.layer == "probe"
                    || span
                        .parent
                        .is_some_and(|p| tracer.spans[p].layer == "probe")
                {
                    continue;
                }
                *per_layer.entry(layer_group(&span.layer)).or_default() += *own as f64;
            }
            for (layer, ns) in per_layer {
                samples.per_request.entry(layer).or_default().push(ns);
            }
        }
        for (span, own) in tracer.spans[first_span..].iter().zip(&own) {
            samples
                .calls
                .entry(span.layer.clone())
                .or_default()
                .push(*own as f64);
        }
    }
    Ok(samples)
}

/// The pipeline group a span's self time counts towards in the reconciliation.
fn layer_group(layer: &str) -> String {
    match layer {
        "workspace.intern_new" | "workspace.intern_reused" => "workspace.intern".into(),
        "request" => "request.glue".into(),
        other => other.into(),
    }
}

/// The response object the protocol would send, rendered.
fn encode(
    request: &Request,
    dtd: DtdId,
    ids: &[xpsat_service::QueryId],
    served: &[ServedDecision],
    ws: &Workspace,
) -> String {
    let fields = |served: &ServedDecision| {
        let d = &served.decision;
        let mut f = vec![
            (
                "result",
                Json::Str(
                    match d.result {
                        Satisfiability::Satisfiable(_) => "satisfiable",
                        Satisfiability::Unsatisfiable => "unsatisfiable",
                        Satisfiability::Unknown => "unknown",
                    }
                    .into(),
                ),
            ),
            ("engine", Json::Str(engine_slug(d.engine).into())),
            ("complete", Json::Bool(d.complete)),
            ("cached", Json::Bool(served.cached)),
        ];
        if request.witness {
            if let Satisfiability::Satisfiable(doc) = &d.result {
                f.push(("witness", Json::Str(xpsat_xmltree::serialize::to_xml(doc))));
            }
        }
        f
    };
    let canonical = |id: &xpsat_service::QueryId| {
        Json::Str(
            ws.query(*id)
                .map(|q| q.canonical.clone())
                .unwrap_or_default(),
        )
    };
    let response = if request.batch {
        let results = ids
            .iter()
            .zip(served)
            .map(|(id, s)| {
                let mut f = vec![("query", canonical(id))];
                f.extend(fields(s));
                Json::obj(f)
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("batch".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("results", Json::Arr(results)),
        ])
    } else {
        let mut f = vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("check".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("query", canonical(&ids[0])),
        ];
        f.extend(fields(&served[0]));
        Json::obj(f)
    };
    response.to_string()
}

fn stat(json: &Json, key: &str) -> f64 {
    json.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Median of a layer's per-call self times, in the given unit divisor.
fn med(map: &BTreeMap<String, Vec<f64>>, layer: &str, per: f64) -> (f64, usize) {
    map.get(layer)
        .map(|v| (median(v).unwrap_or(0.0) / per, v.len()))
        .unwrap_or((0.0, 0))
}

/// Run both replays and build the per-layer table.
pub fn replay(
    schemas: &[Schema],
    view: &ServedView<'_>,
    dir: &Path,
) -> Result<TraceReport, String> {
    // DTD artifact builds, three each.
    let mut builds = Vec::new();
    for schema in schemas {
        let ms: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(xpsat_dtd::DtdArtifacts::build(&schema.dtd));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        builds.push((schema.name, median(&ms).unwrap_or(0.0)));
    }
    // Both replays run on a thread with the decide stack the server gives its
    // workers (and more), like the server's decide pool.
    let (untraced, traced) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(1 << 30)
            .spawn_scoped(scope, || -> Result<_, String> {
                // The first untraced pass only warms the process (allocator, page
                // cache, branch predictors), so neither measured pass runs cold.
                replay_untraced(schemas, view, &dir.join("untraced-warm"))?;
                let untraced = replay_untraced(schemas, view, &dir.join("untraced"))?;
                let mut tracer = Tracer::new();
                let samples = replay_traced(schemas, view, &dir.join("traced"), &mut tracer)?;
                Ok((untraced, samples))
            })
            .expect("spawn replay thread")
            .join()
            .expect("replay thread panicked")
    })?;

    let untraced_p50 = median(&untraced).unwrap_or(f64::NAN);
    let traced_p50 = median(&traced.request_ns).unwrap_or(f64::NAN) / 1e3;
    let served_p50 = median(view.latencies_us).unwrap_or(f64::NAN);
    let overhead_us = traced_p50 - untraced_p50;
    let dispatch_us = served_p50 - untraced_p50;
    let spread_us = median(view.spreads_us).unwrap_or(f64::NAN);

    let mut table: Vec<(String, f64, &'static str, usize)> = Vec::new();
    let mut row = |name: &str, value: f64, unit: &'static str, n: usize| {
        table.push((name.to_string(), value, unit, n))
    };
    let n_measured = view.measured.len();
    row("server.dispatch_us", dispatch_us, "us", n_measured);
    row(
        "server.response_spread_us",
        spread_us,
        "us",
        view.spreads_us.len(),
    );
    row("server.rss_mb", view.prefix_rss_mb, "MiB", 1);
    row("server.restarts", view.restarts as f64, "count", 1);
    row("server.downtime_s", view.downtime_s, "s", 1);
    row(
        "server.shed",
        stat(view.end_stats, "server_requests_shed"),
        "count",
        1,
    );
    row(
        "server.overloaded",
        stat(view.end_stats, "server_requests_overloaded"),
        "count",
        1,
    );
    let batch = view.measured.first().is_some_and(|r| r.batch);
    row(
        if batch {
            "protocol.batch_ms"
        } else {
            "protocol.check_us"
        },
        if batch {
            untraced_p50 / 1e3
        } else {
            untraced_p50
        },
        if batch { "ms" } else { "us" },
        untraced.len(),
    );
    for (layer, name, per, unit) in [
        ("framing", "server.framing_ns", 1.0, "ns"),
        ("json.decode", "json.decode_ns", 1.0, "ns"),
        ("json.encode", "json.encode_ns", 1.0, "ns"),
        ("xpath.parse", "xpath.parse_ns", 1.0, "ns"),
        ("workspace.intern_new", "workspace.intern_new_ns", 1.0, "ns"),
        (
            "workspace.intern_reused",
            "workspace.intern_reused_ns",
            1.0,
            "ns",
        ),
        ("workspace.decide", "workspace.decide_us", 1e3, "us"),
        ("plan.canon", "plan.canon_ns", 1.0, "ns"),
        ("plan.compile", "plan.compile_us", 1e3, "us"),
        ("plan.vm_verdict", "plan.vm_verdict_ns", 1.0, "ns"),
        ("plan.witness", "plan.witness_us", 1e3, "us"),
        ("store.save_program", "store.save_program_us", 1e3, "us"),
        ("store.load_program", "store.load_program_us", 1e3, "us"),
    ] {
        let (value, n) = med(&traced.calls, layer, per);
        row(name, value, unit, n);
    }
    let hits = &traced.decide_hits;
    row(
        "workspace.decide_hit_ns",
        median(hits).unwrap_or(0.0),
        "ns",
        hits.len(),
    );
    let cache_hits = stat(view.end_stats, "decision_cache_hits");
    let computed = stat(view.end_stats, "decisions_computed");
    row(
        "workspace.cache_hit_ratio",
        share(cache_hits as u64, (cache_hits + computed) as u64).unwrap_or(0.0),
        "share",
        1,
    );
    let interned =
        stat(view.end_stats, "queries_interned") - stat(view.setup_stats, "queries_interned");
    row(
        "workspace.bytes_per_query",
        if interned > 0.0 {
            (view.end_rss_mb - view.setup_rss_mb) * 1_048_576.0 / interned
        } else {
            0.0
        },
        "B",
        interned as usize,
    );
    let attempts = traced.compiled + traced.bailed.values().sum::<u64>();
    row(
        "plan.compiled_share",
        share(traced.compiled, attempts).unwrap_or(0.0),
        "share",
        attempts as usize,
    );
    for reason in xpsat_plan::BailReason::ALL {
        let n = traced.bailed.get(reason.as_str()).copied().unwrap_or(0);
        row(
            &format!("plan.bail.{}", reason.as_str()),
            n as f64,
            "count",
            1,
        );
    }
    let mut all_engine = Vec::new();
    for kind in [
        EngineKind::Downward,
        EngineKind::Sibling,
        EngineKind::DisjunctionFree,
        EngineKind::Positive,
        EngineKind::NegationFixpoint,
        EngineKind::Rewritten,
        EngineKind::Enumeration,
    ] {
        let layer = format!("core.engine.{}", engine_slug(kind));
        let (value, n) = med(&traced.calls, &layer, 1e3);
        if let Some(v) = traced.calls.get(&layer) {
            all_engine.extend(v.iter().copied());
        }
        row(&format!("{layer}_us"), value, "us", n);
    }
    row(
        "core.engine_us",
        median(&all_engine).unwrap_or(0.0) / 1e3,
        "us",
        all_engine.len(),
    );
    row(
        "core.exhausted_share",
        share(traced.engine_exhausted, traced.engine_runs).unwrap_or(0.0),
        "share",
        traced.engine_runs as usize,
    );
    let total_build: f64 = builds.iter().map(|(_, ms)| ms).sum();
    for (name, ms) in &builds {
        row(&format!("dtd.build_ms.{name}"), *ms, "ms", 3);
    }
    row("dtd.build_ms", total_build, "ms", 3 * builds.len());
    for key in [
        "decision_cache_hits",
        "canonical_hits",
        "programs_compiled",
        "vm_decides",
        "queries_interned",
    ] {
        row(
            &format!("stats.{key}"),
            stat(view.end_stats, key),
            "count",
            1,
        );
    }
    row(
        "stats.vm_coverage",
        view.end_stats
            .get("vm_coverage")
            .and_then(|v| match v {
                Json::Num(n) => Some(*n),
                _ => None,
            })
            .unwrap_or(0.0),
        "share",
        1,
    );
    if let Some(Json::Obj(reasons)) = view.end_stats.get("compile_bailouts_by_reason") {
        for (reason, count) in reasons {
            let n = match count {
                Json::Num(n) => *n,
                _ => 0.0,
            };
            row(&format!("stats.compile_bailouts.{reason}"), n, "count", 1);
        }
    }
    row("trace.overhead_us", overhead_us, "us", n_measured);

    // Reconciliation: the pipeline layers' self-time medians, plus the dispatch
    // residue, against the untraced served p50.
    let mut notes = Vec::new();
    let mut sum_us = 0.0;
    for (layer, v) in &traced.per_request {
        let p50 = median(v).unwrap_or(0.0) / 1e3;
        sum_us += p50;
        notes.push(format!(
            "self p50 {layer}: {p50:.3} us over {} requests",
            v.len()
        ));
    }
    let residual = served_p50 - (sum_us + dispatch_us);
    notes.push(format!(
        "served p50 {served_p50:.3} us = layer self-time p50s {sum_us:.3} us + dispatch \
         {dispatch_us:.3} us + residual {residual:.3} us; tracing overhead {overhead_us:.3} us \
         (traced request p50 {traced_p50:.3} us, untraced handle_line p50 {untraced_p50:.3} us); \
         holds within overhead: {}",
        residual.abs() <= overhead_us.abs()
    ));

    const PRINTED: [&str; 19] = [
        "server.dispatch_us",
        "server.response_spread_us",
        "server.rss_mb",
        "server.framing_ns",
        "json.decode_ns",
        "json.encode_ns",
        "xpath.parse_ns",
        "workspace.intern_new_ns",
        "workspace.decide_us",
        "plan.canon_ns",
        "plan.compile_us",
        "plan.compiled_share",
        "plan.vm_verdict_ns",
        "plan.witness_us",
        "store.save_program_us",
        "store.load_program_us",
        "core.engine_us",
        "dtd.build_ms",
        "trace.overhead_us",
    ];
    let mut metrics: Vec<(String, f64, &'static str)> = PRINTED
        .iter()
        .filter_map(|name| {
            table
                .iter()
                .find(|(n, ..)| n == name)
                .map(|(n, v, u, _)| (n.clone(), *v, *u))
        })
        .collect();
    let protocol = table
        .iter()
        .find(|(n, ..)| n.starts_with("protocol."))
        .expect("protocol row");
    metrics.push((
        "protocol.request_us".into(),
        if batch { protocol.1 * 1e3 } else { protocol.1 },
        "us",
    ));
    Ok(TraceReport {
        metrics,
        table,
        notes,
    })
}

/// Write the report as Markdown under `.bench_out/` and echo it on stderr.
pub fn write_report(workload: &str, seed: u64, report: &TraceReport) -> Result<(), String> {
    let mut md = format!(
        "# Traced run: `{workload}`, seed {seed}\n\n| per-layer metric | value | unit | samples |\n|---|---|---|---|\n"
    );
    for (name, value, unit, n) in &report.table {
        md.push_str(&format!("| `{name}` | {value:.3} | {unit} | {n} |\n"));
    }
    md.push_str("\n## Reconciliation\n\n");
    for note in &report.notes {
        md.push_str(&format!("- {note}\n"));
    }
    eprint!("{md}");
    std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
    std::fs::write(format!(".bench_out/trace-{workload}-{seed}.md"), md).map_err(|e| e.to_string())
}
