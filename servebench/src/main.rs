//! `servebench --workload NAME --seed N --seconds S --trace 0|1 --server PATH`
//!
//! Prints diagnostics on stderr and, as the last stdout line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! also replays its requests in-process and reports the per-layer ones instead.

use servebench::gen::{self, Request, Workload};
use servebench::oracle::{self, Answer};
use servebench::served::{self, Fleet, Phase, Record};
use servebench::stats::{median, percentile, samples_beyond, share};
use servebench::trace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use xpsat_service::Json;

/// Length of the windows the measured phase is cut into.  Latency percentiles and
/// throughput are computed per window, and the run reports the window at the
/// quiet quartile: the lower quartile of the windows' latencies and the upper
/// quartile of their throughputs.  Interference from outside the benchmark only
/// ever slows a window, so the quiet quartile tracks what the program costs, and a
/// slowdown of the program itself still moves every window.
const WINDOW_S: f64 = 1.0;

/// Where among the windows, sorted from quiet to busy, the reported one sits.
const QUIET_QUARTILE: f64 = 0.25;

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const _: () = assert!(SETUP_REPS > 1);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.server.is_file() {
        eprintln!("servebench: no server binary at {}", args.server.display());
        return ExitCode::from(2);
    }
    let runs = Path::new(".bench_out").join("runs");
    let run_dir = runs.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = clear_earlier_runs(&runs, &run_dir) {
        eprintln!("servebench: clearing {}: {e}", runs.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &run_dir) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Delete the directories earlier runs left in `runs` (their server cache
/// directories hold thousands of program files), so the benchmark keeps at most one
/// run's files on disk, and create `run_dir` for this run.
///
/// On a disk mounted with online discard, deleting many files can slow fsyncs for
/// a while afterwards, and the server fsyncs every program file it stores.
/// So fsync latency is probed before the deletion, and after it the run waits, before
/// any timed phase, until the latency is back at that level.  The probe files stay
/// in `run_dir` for the next run to delete.
fn clear_earlier_runs(runs: &Path, run_dir: &Path) -> std::io::Result<()> {
    let earlier: Vec<PathBuf> = match std::fs::read_dir(runs) {
        Ok(entries) => entries
            .map(|e| e.map(|e| e.path()))
            .filter(|p| p.as_ref().map_or(true, |p| p != run_dir))
            .collect::<Result<_, _>>()?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let probe_dir = run_dir.join("fsync-probe");
    std::fs::create_dir_all(&probe_dir)?;
    if earlier.is_empty() {
        return Ok(());
    }
    let mut probe = FsyncProbe::new(probe_dir);
    let before: Vec<f64> = (0..SETTLE_WINDOWS)
        .map(|_| probe.window())
        .collect::<Result<_, _>>()?;
    let baseline = median(&before).expect("SETTLE_WINDOWS > 0");
    let started = Instant::now();
    for dir in &earlier {
        std::fs::remove_dir_all(dir)?;
    }
    std::process::Command::new("sync").status()?;
    let deleted_s = started.elapsed().as_secs_f64();
    let mut after = Vec::new();
    loop {
        after.push(probe.window()?);
        let recent = &after[after.len().saturating_sub(SETTLE_WINDOWS)..];
        let settled = recent.len() == SETTLE_WINDOWS
            && median(recent).unwrap_or(f64::MAX) <= baseline * SETTLE_RATIO;
        if settled || after.len() >= SETTLE_MAX_WINDOWS {
            eprintln!(
                "servebench: deleted {} earlier run dirs in {deleted_s:.2} s; fsync p50 {baseline:.0} us \
                 before, {}settled after {:.2} s (window p50s {:?} us)",
                earlier.len(),
                if settled { "" } else { "NOT " },
                started.elapsed().as_secs_f64() - deleted_s,
                after.iter().map(|v| v.round()).collect::<Vec<_>>()
            );
            return Ok(());
        }
    }
}

/// Probe windows compared before and after the deletion; the run goes on once the
/// median of the last ones is within [`SETTLE_RATIO`] of the median before.
const SETTLE_WINDOWS: usize = 4;
const SETTLE_RATIO: f64 = 1.25;
/// Longest settle wait, in probe windows (30 s).
const SETTLE_MAX_WINDOWS: usize = 120;
const PROBE_WINDOW: std::time::Duration = std::time::Duration::from_millis(250);

/// Creates and fsyncs small files, as the server's program store does, a few dozen
/// per window.
struct FsyncProbe {
    dir: PathBuf,
    files: usize,
}

impl FsyncProbe {
    fn new(dir: PathBuf) -> FsyncProbe {
        FsyncProbe { dir, files: 0 }
    }

    /// One window of [`PROBE_WINDOW`]; returns its median fsync latency in µs.
    fn window(&mut self) -> std::io::Result<f64> {
        use std::io::Write;
        let started = Instant::now();
        let mut latencies = Vec::new();
        while started.elapsed() < PROBE_WINDOW {
            let t = Instant::now();
            let mut f = std::fs::File::create(self.dir.join(format!("p{}", self.files)))?;
            f.write_all(&[b'x'; 3000])?;
            f.sync_all()?;
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            self.files += 1;
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        Ok(median(&latencies).expect("one probe per window"))
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let workload = args.workload;
    let schemas = gen::schemas(workload);
    let pool = if workload == Workload::HotCheck {
        gen::hot_pool(&schemas)
    } else {
        Vec::new()
    };
    let warm_requests: Vec<Request> = pool
        .iter()
        .map(|(schema, query)| Request::check(*schema, query.clone()))
        .collect();
    std::fs::create_dir_all(run_dir).map_err(|e| e.to_string())?;

    // Set-up, SETUP_REPS times: spawn, ready line, registrations, warm-up.  The
    // first set-up warms the whole pool; its answers define the hot set, which the
    // later set-ups warm and the measured phase samples.  A pool query that failed
    // its warm-up (it aborted the server, or spent its step budget) has no cached
    // verdict to serve: it was sent, and its failure counted, in the first set-up.
    let (first, warm, first_s) = set_up(args, run_dir, 0, &schemas, &warm_requests)?;
    let setup_restarts = first.restarts();
    drop(first);
    let hot_requests: Vec<Request> = warm_requests
        .iter()
        .zip(&warm)
        .filter(|(_, record)| oracle::answers(record).is_some_and(|a| a[0].definite()))
        .map(|(request, _)| request.clone())
        .collect();
    let hot: Vec<(usize, String)> = hot_requests
        .iter()
        .map(|r| (r.schema, r.queries[0].clone()))
        .collect();
    let mut setup_s = vec![first_s];
    let mut fleet = None;
    for rep in 1..SETUP_REPS {
        drop(fleet.take());
        let (f, _, seconds) = set_up(args, run_dir, rep, &schemas, &hot_requests)?;
        setup_s.push(seconds);
        fleet = Some(f);
    }
    let fleet = fleet.expect("SETUP_REPS > 1");
    // What the streams draw from: the hot set, or unique_flood's whole sequence of
    // distinct queries.  The sequence is generated after set-up, outside every
    // timed phase, so the set-ups run beside a small client.
    let streamed: Vec<(usize, String)> = match workload {
        Workload::HotCheck => hot,
        Workload::UniqueFlood => gen::flood_queries(args.seed, &schemas[0], gen::FLOOD_QUERIES)?
            .into_iter()
            .map(|query| (0, query))
            .collect(),
        Workload::ColdSchema => Vec::new(),
    };
    let setup_rss_mb = fleet.rss_mb().unwrap_or(0.0);
    let setup_stats = fleet.stats().map_err(|e| format!("stats: {e}"))?;
    let phase = served::closed_loop(&fleet, workload, args.seed, &streamed, args.seconds)
        .map_err(|e| format!("measured phase: {e}"))?;
    let stats = fleet.stats().map_err(|e| format!("stats: {e}"))?;
    let restarts = setup_restarts + fleet.restarts();
    let end_rss_mb = fleet.rss_mb().unwrap_or(0.0);
    let downtime_s = fleet.downtime_s();
    let serving_s = phase.elapsed_s - downtime_s;
    drop(fleet);

    let summary = summarise(&phase, &warm);
    let oracle_started = Instant::now();
    let oracle = oracle::verify(&schemas, &summary.all_answers);
    eprintln!(
        "servebench: set-ups took {:.3?} s, the oracle {:.2} s",
        setup_s,
        oracle_started.elapsed().as_secs_f64()
    );
    eprintln!(
        "servebench: {} seed {}: {} requests ({} failed, {} restarts), {:.2} s ({:.2} s serving, \
         {:.1} verdicts/s); whole-run latency p50/p90/p99 {:.1}/{:.1}/{:.1} us over {} samples \
         ({} beyond p90, {} beyond p99), quiet-quartile window of {} p50/p90 {:.1}/{:.1} us; \
         prefix verdict digest {:016x}; oracle: {} tier-checked ({} on the canonical path), \
         {} unchecked, {} witnesses, {} mismatches",
        workload.name(),
        args.seed,
        phase.records.len(),
        summary.failed,
        restarts,
        phase.elapsed_s,
        serving_s,
        summary.decided as f64 / serving_s,
        summary.p50_us,
        summary.p90_us,
        summary.p99_us,
        summary.samples,
        samples_beyond(summary.samples, 0.9),
        samples_beyond(summary.samples, 0.99),
        summary.windows,
        summary.window_p50_us,
        summary.window_p90_us,
        summary.prefix_digest,
        oracle.tier_checked,
        oracle.canonical_fallbacks,
        oracle.tier_unchecked,
        oracle.witnesses_checked,
        oracle.mismatches.len()
    );
    let mut failures: Vec<String> = phase
        .records
        .iter()
        .chain(&warm)
        .filter(|r| oracle::answers(r).is_none())
        .map(|r| {
            let why = r
                .reply
                .as_deref()
                .unwrap_or("connection lost (server died)");
            format!("{} -> {why}", r.request.line)
        })
        .collect();
    failures.sort();
    failures.dedup();
    for f in failures.iter().take(10) {
        eprintln!("servebench: failed: {f}");
    }
    eprintln!(
        "servebench: window p50s {:?}",
        summary
            .window_p50s
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>()
    );
    for m in oracle.mismatches.iter().take(20) {
        eprintln!("servebench: MISMATCH {m}");
    }
    let correct = oracle.mismatches.is_empty() && summary.malformed == 0;

    let metrics: Vec<Metric> = if args.trace {
        let answered = |r: &&Record| oracle::answers(r).is_some();
        // The records are kept per connection; the replay takes them in the order
        // their answers arrived, so both connections' traffic is in it.
        let mut served_order: Vec<&Record> = phase.records.iter().filter(answered).collect();
        served_order.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let view = trace::ServedView {
            warm: warm.iter().filter(answered).map(|r| &r.request).collect(),
            measured: served_order
                .into_iter()
                .take(trace::REPLAY_REQUESTS)
                .map(|r| &r.request)
                .collect(),
            latencies_us: &summary.latencies_us,
            spreads_us: &summary.spreads_us,
            setup_stats: &setup_stats,
            end_stats: &stats,
            setup_rss_mb,
            prefix_rss_mb: phase.prefix_rss_mb.ok_or("no VmRSS reading")?,
            end_rss_mb,
            restarts,
            downtime_s,
            persistent_store: workload.persistent_store(),
        };
        let report = trace::replay(&schemas, &view, &run_dir.join("replay"))?;
        trace::write_report(workload.name(), args.seed, &report)?;
        report.metrics
    } else {
        vec![
            (
                "setup_s".into(),
                median(&setup_s).expect("set-ups ran"),
                "s",
            ),
            ("request_p50_us".into(), summary.window_p50_us, "us"),
            ("request_p90_us".into(), summary.window_p90_us, "us"),
            (
                "verdicts_per_s".into(),
                summary.window_verdicts_per_s,
                "1/s",
            ),
            ("decided_share".into(), summary.decided_share, "share"),
            ("ok_share".into(), summary.ok_share, "share"),
        ]
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        return Err(format!(
            "{name} could not be measured (no answered requests?)"
        ));
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        phase.records.len(),
        summary.failed,
        metrics_json.join(",")
    ))
}

/// One timed set-up in `run_dir/setup-<rep>`: the server, its warm-up records and
/// the seconds it took.
fn set_up<'a>(
    args: &Args,
    run_dir: &Path,
    rep: usize,
    schemas: &'a [gen::Schema],
    warm: &'a [Request],
) -> Result<(Fleet<'a>, Vec<Record>, f64), String> {
    let dir = run_dir.join(format!("setup-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let cache_dir = dir.join("cache");
    let cache_dir = args
        .workload
        .persistent_store()
        .then_some(cache_dir.as_path());
    let started = Instant::now();
    let (fleet, records) = Fleet::start(&args.server, cache_dir, &dir, schemas, warm)
        .map_err(|e| format!("server set-up: {e}"))?;
    Ok((fleet, records, started.elapsed().as_secs_f64()))
}

/// What the measured phase's records add up to.
#[derive(Debug)]
struct Summary {
    /// Window count, and the quiet-quartile windows' p50, p90 and throughput.
    windows: usize,
    window_p50s: Vec<f64>,
    window_p50_us: f64,
    window_p90_us: f64,
    window_verdicts_per_s: f64,
    latencies_us: Vec<f64>,
    spreads_us: Vec<f64>,
    samples: usize,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    failed: usize,
    /// `"ok":true` replies whose verdicts could not be read.
    malformed: usize,
    decided: usize,
    decided_share: f64,
    ok_share: f64,
    prefix_digest: u64,
    all_answers: Vec<Answer>,
}

fn summarise(phase: &Phase, warm: &[Record]) -> Summary {
    let windows = ((phase.elapsed_s / WINDOW_S).floor() as usize).max(1);
    let mut window_latencies: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut window_verdicts = vec![0usize; windows];
    let (mut latencies_us, mut spreads_us) = (Vec::new(), Vec::new());
    let (mut failed, mut malformed, mut decided) = (0, 0, 0);
    let (mut prefix_sent, mut prefix_decided) = (0u64, 0u64);
    let mut prefix_verdicts = Vec::new();
    let mut all_answers = Vec::new();
    for record in &phase.records {
        let answers = oracle::answers(record);
        let ok = record
            .reply
            .as_deref()
            .and_then(|r| Json::parse(r).ok())
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            == Some(true);
        if ok {
            latencies_us.push(record.latency_us);
            spreads_us.push(record.spread_us);
        } else {
            failed += 1;
        }
        if ok && answers.is_none() {
            malformed += 1;
        }
        let answers = answers.unwrap_or_default();
        let definite = answers.iter().filter(|a| a.definite()).count();
        decided += definite;
        let window = (record.done_s / WINDOW_S) as usize;
        if window < windows {
            window_verdicts[window] += definite;
            if ok {
                window_latencies[window].push(record.latency_us);
            }
        }
        if record.in_prefix {
            prefix_sent += record.request.queries.len() as u64;
            prefix_decided += definite as u64;
            for (i, q) in record.request.queries.iter().enumerate() {
                let verdict = answers.get(i).map_or("failed", |a| a.result.as_str());
                prefix_verdicts.push(format!("{}\t{q}\t{verdict}", record.request.schema));
            }
        }
        all_answers.extend(answers);
    }
    for record in warm {
        all_answers.extend(oracle::answers(record).unwrap_or_default());
    }
    prefix_verdicts.sort();
    let prefix_digest = xpsat_plan::fnv64(&prefix_verdicts.join("\n"));
    let pct = |q| percentile(&latencies_us, q).unwrap_or(f64::NAN);
    let per_window = |q| {
        let v: Vec<f64> = window_latencies
            .iter()
            .filter_map(|w| percentile(w, q))
            .collect();
        percentile(&v, QUIET_QUARTILE).unwrap_or(f64::NAN)
    };
    let throughputs: Vec<f64> = window_verdicts
        .iter()
        .map(|&n| n as f64 / WINDOW_S)
        .collect();
    Summary {
        window_p50s: window_latencies
            .iter()
            .filter_map(|w| percentile(w, 0.5))
            .collect(),
        samples: latencies_us.len(),
        windows,
        window_p50_us: per_window(0.5),
        window_p90_us: per_window(0.9),
        window_verdicts_per_s: percentile(&throughputs, 1.0 - QUIET_QUARTILE).unwrap_or(f64::NAN),
        p50_us: pct(0.5),
        p90_us: pct(0.9),
        p99_us: pct(0.99),
        latencies_us,
        spreads_us,
        failed,
        malformed,
        decided,
        decided_share: share(prefix_decided, prefix_sent).unwrap_or(f64::NAN),
        ok_share: share(
            (phase.records.len() - failed) as u64,
            phase.records.len() as u64,
        )
        .unwrap_or(f64::NAN),
        prefix_digest,
        all_answers,
    }
}
