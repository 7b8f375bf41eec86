//! Self-tests of the benchmark: seeded inputs repeat byte for byte, verdicts repeat
//! exactly, and the percentile and share arithmetic is right on fixed inputs.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use servebench::gen::{flood_queries, hot_pool, schemas, Request, Stream, Workload};
use servebench::stats::{median, nearest_rank, percentile, samples_beyond, share};
use servebench::trace::{Span, Tracer};
use xpsat_service::{Json, ProtocolServer};

/// What a workload's streams draw from, with `unique_flood`'s sequence cut down to
/// what `n` requests per connection use.
fn inputs(workload: Workload, seed: u64, n: usize) -> Vec<(usize, String)> {
    let schemas = schemas(workload);
    match workload {
        Workload::HotCheck => hot_pool(&schemas),
        Workload::UniqueFlood => flood_queries(seed, &schemas[0], n * workload.connections())
            .expect("the layered DTD has enough distinct queries")
            .into_iter()
            .map(|q| (0, q))
            .collect(),
        Workload::ColdSchema => Vec::new(),
    }
}

/// The first `n` requests of every connection, connection by connection.
fn requests(workload: Workload, seed: u64, n: usize) -> Vec<Request> {
    let schemas = schemas(workload);
    let inputs = inputs(workload, seed, n);
    let mut out = Vec::new();
    for conn in 0..workload.connections() {
        let mut s = Stream::new(workload, seed, conn, &inputs);
        out.extend((0..n).map(|_| s.next(&schemas).expect("inputs cover n requests")));
    }
    out
}

fn stream(workload: Workload, seed: u64, n: usize) -> Vec<String> {
    requests(workload, seed, n)
        .into_iter()
        .map(|r| r.line)
        .collect()
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for workload in Workload::ALL {
        assert_eq!(
            stream(workload, 11, 40),
            stream(workload, 11, 40),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn the_hot_pool_is_one_fixed_corpus() {
    let schemas = schemas(Workload::HotCheck);
    let pool = hot_pool(&schemas);
    assert_eq!(pool, hot_pool(&schemas));
    assert_eq!(pool.len(), servebench::gen::POOL_SIZE);
    let distinct: std::collections::HashSet<_> = pool.iter().collect();
    assert_eq!(distinct.len(), pool.len());
}

#[test]
fn different_seeds_give_different_streams() {
    for workload in Workload::ALL {
        assert_ne!(
            stream(workload, 11, 40),
            stream(workload, 12, 40),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn connections_of_one_run_send_different_streams() {
    let lines = stream(Workload::UniqueFlood, 3, 50);
    assert_ne!(lines[..50], lines[50..]);
}

#[test]
fn unique_flood_never_repeats_a_canonical_query_across_connections() {
    let requests = requests(Workload::UniqueFlood, 5, 2_000);
    assert_eq!(requests.len(), 4_000);
    let mut seen = std::collections::HashSet::new();
    for request in &requests {
        let query = &request.queries[0];
        let path = xpsat_xpath::parse_path(query).expect("generated queries parse");
        assert!(
            seen.insert(xpsat_plan::CanonicalQuery::of(&path).text),
            "{query}"
        );
    }
}

#[test]
fn a_unique_flood_connection_stops_at_the_end_of_its_share() {
    let schemas = schemas(Workload::UniqueFlood);
    let inputs = inputs(Workload::UniqueFlood, 5, 3);
    for conn in 0..2 {
        let mut s = Stream::new(Workload::UniqueFlood, 5, conn, &inputs);
        assert!((0..3).all(|_| s.next(&schemas).is_some()));
        assert!(s.next(&schemas).is_none());
    }
}

#[test]
fn cold_schema_sends_the_known_defect_once_in_batch_three() {
    let schemas = schemas(Workload::ColdSchema);
    let mut s = Stream::new(Workload::ColdSchema, 9, 0, &[]);
    let batches: Vec<Request> = (0..8).map(|_| s.next(&schemas).expect("a batch")).collect();
    let carrying: Vec<usize> = batches
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            b.queries
                .iter()
                .any(|q| q == servebench::gen::KNOWN_DEFECT_QUERY)
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(carrying, vec![3]);
    assert_eq!(schemas[batches[3].schema].name, "xhtml");
    assert!(batches
        .iter()
        .all(|b| b.queries.len() == servebench::gen::BATCH_SIZE));
}

/// The verdicts of a unique_flood prefix, decided in-process on a fresh server.
fn verdicts(seed: u64) -> Vec<String> {
    let schemas = schemas(Workload::UniqueFlood);
    let server = ProtocolServer::new(1);
    for schema in &schemas {
        let line = Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(schema.text.clone())),
        ])
        .to_string();
        assert!(server.handle_line(&line).contains("\"ok\":true"));
    }
    let mut out = Vec::new();
    for request in requests(Workload::UniqueFlood, seed, 150) {
        let reply = Json::parse(&server.handle_line(&request.line)).expect("json reply");
        let result = reply
            .get("result")
            .and_then(Json::as_str)
            .unwrap_or("failed");
        out.push(format!("{}\t{result}", request.queries[0]));
    }
    out.sort();
    out
}

#[test]
fn same_seed_gives_an_identical_verdict_multiset() {
    let first = verdicts(21);
    assert_eq!(first, verdicts(21));
    assert!(first.iter().any(|v| v.ends_with("\tsatisfiable")));
    assert!(first.iter().any(|v| v.ends_with("\tunsatisfiable")));
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(5.0));
    assert_eq!(percentile(&v, 0.9), Some(9.0));
    assert_eq!(percentile(&v, 0.99), Some(10.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(nearest_rank(1, 0.9), 1);
    assert_eq!(nearest_rank(1_000, 0.9), 900);
}

#[test]
fn sample_counts_beyond_a_percentile() {
    assert_eq!(samples_beyond(1_000, 0.9), 100);
    assert_eq!(samples_beyond(1_000, 0.99), 10);
    assert_eq!(samples_beyond(10, 0.9), 1);
    assert_eq!(samples_beyond(0, 0.9), 0);
}

#[test]
fn shares_divide_by_the_attempts() {
    assert_eq!(share(3, 4), Some(0.75));
    assert_eq!(share(0, 5), Some(0.0));
    assert_eq!(share(1, 0), None);
}

#[test]
fn self_time_is_the_span_minus_its_children() {
    let mut tracer = Tracer::new();
    let span = |layer: &str, start_ns, end_ns, parent| Span {
        request: 0,
        layer: layer.into(),
        start_ns,
        end_ns,
        parent,
    };
    tracer.spans = vec![
        span("request", 0, 100, None),
        span("json.decode", 10, 30, Some(0)),
        span("workspace.decide", 40, 90, Some(0)),
        span("plan.compile", 50, 60, Some(2)),
    ];
    assert_eq!(tracer.self_times(0), vec![30, 20, 40, 10]);
}
