//! Seeded inputs: the schemas each workload registers and the request streams its
//! connections send.  Everything here is a pure function of the workload and the
//! seed, so one seed always yields byte-identical request lines.

use std::collections::HashSet;
use xpsat_core::corpus::{docbook_dtd, layered_dtd, xhtml_dtd};
use xpsat_dtd::{Dtd, DtdGraph};
use xpsat_plan::CanonicalQuery;
use xpsat_service::Json;
use xpsat_xpath::{Path, Qualifier};

/// Step budget carried by every `check` and `batch`.  No request carries a
/// `deadline_ms`, so a verdict depends only on the instance and this budget.
/// 200 000 is the smallest round budget under which [`KNOWN_DEFECT_QUERY`] still
/// aborts the server (at 150 000 it answers `resource_exhausted`).
pub const MAX_STEPS: u64 = 200_000;

/// Against XHTML this check overflows the 64 MiB decide stack and aborts the whole
/// server process.  `cold_schema` sends it once per run (see [`Stream::next`]), so the
/// abort, the restart and the failed request show in every run until it is fixed.
pub const KNOWN_DEFECT_QUERY: &str = "(span[link] | **)/area[a/script]";

/// Queries per `batch` request in `cold_schema`.
pub const BATCH_SIZE: usize = 16;

/// Queries in the `hot_check` pool.
pub const POOL_SIZE: usize = 256;

/// SplitMix64: small, fast and fully specified here, so streams never depend on an
/// external generator's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    fn pick<'a>(&mut self, items: &'a [usize]) -> Option<&'a usize> {
        (!items.is_empty()).then(|| &items[self.below(items.len())])
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections re-sending warmed single-query checks: all cache hits.
    HotCheck,
    /// One connection sending 16-query batches of new queries to fresh schemas.
    ColdSchema,
    /// Two connections sending never-repeating checks into one tenant.
    UniqueFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotCheck,
        Workload::ColdSchema,
        Workload::UniqueFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCheck => "hot_check",
            Workload::ColdSchema => "cold_schema",
            Workload::UniqueFlood => "unique_flood",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (and threads) driving the server.
    pub fn connections(self) -> usize {
        match self {
            Workload::ColdSchema => 1,
            Workload::HotCheck | Workload::UniqueFlood => 2,
        }
    }

    /// Does the server get a `--cache-dir`, and with it the persistent artifact and
    /// program store?  Not for `unique_flood`: every one of its requests compiles a
    /// new program, and the store fsyncs each one.  With the store its p90 and
    /// throughput followed the host's disk, which slowed fsyncs two- to threefold
    /// for minutes at a time (see `NOTES.md`).  `store.save_program_us` still
    /// measures the store in the traced run.
    pub fn persistent_store(self) -> bool {
        self != Workload::UniqueFlood
    }

    /// Requests per connection that every run completes, however long they take.
    /// Verdict counts, `decided_share` and `rss_mb` are taken over this prefix, so
    /// they do not depend on how many requests fit into the timed window.
    pub fn prefix(self) -> usize {
        match self {
            Workload::HotCheck => 2_000,
            Workload::ColdSchema => 24,
            Workload::UniqueFlood => 1_500,
        }
    }
}

/// A schema a workload registers, with the child relation the generator walks.
#[derive(Debug)]
pub struct Schema {
    pub name: &'static str,
    pub dtd: Dtd,
    /// The DTD text sent in `register_dtd`.
    pub text: String,
    labels: Vec<String>,
    /// `children[t]` = element types allowed as children of type `t` (indices into
    /// `labels`).
    children: Vec<Vec<usize>>,
    attributes: Vec<Vec<String>>,
    root: usize,
    /// Whether `cold_schema` sends queries outside the compiled fragment over this
    /// schema.  Not on DocBook: there, sibling steps, upward axes, nested negation
    /// and attribute comparisons run on far past the step budget (over 8 s each at
    /// [`MAX_STEPS`]; see `NOTES.md`), so one such query would stall a whole run.
    outside_fragment: bool,
}

impl Schema {
    fn new(name: &'static str, dtd: Dtd) -> Schema {
        let graph = DtdGraph::new(&dtd);
        let labels: Vec<String> = (0..graph.num_types())
            .map(|i| graph.name(xpsat_dtd::Sym::from_index(i)).to_string())
            .collect();
        let children = (0..labels.len())
            .map(|i| {
                graph
                    .succ_syms(xpsat_dtd::Sym::from_index(i))
                    .iter()
                    .map(|s| s.index())
                    .collect()
            })
            .collect();
        let attributes = labels
            .iter()
            .map(|l| dtd.attributes(l).into_iter().collect())
            .collect();
        let root = graph.root_sym().index();
        Schema {
            name,
            text: dtd.to_string(),
            dtd,
            labels,
            children,
            attributes,
            root,
            outside_fragment: name != "docbook",
        }
    }
}

/// The schemas a workload registers, in `dtd_id` order.
pub fn schemas(workload: Workload) -> Vec<Schema> {
    match workload {
        Workload::HotCheck => vec![
            Schema::new("layered_4x3", layered_dtd(4, 3)),
            Schema::new("xhtml", xhtml_dtd()),
        ],
        Workload::ColdSchema => vec![
            Schema::new("xhtml", xhtml_dtd()),
            Schema::new("docbook", docbook_dtd()),
            Schema::new("layered_3x3", layered_dtd(3, 3)),
        ],
        Workload::UniqueFlood => vec![Schema::new("layered_3x3", layered_dtd(3, 3))],
    }
}

/// One request line and what the oracle needs to check its answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub line: String,
    pub batch: bool,
    /// Index into the workload's schemas (= the `dtd_id` the server assigns).
    pub schema: usize,
    pub queries: Vec<String>,
    pub witness: bool,
}

impl Request {
    pub fn check(schema: usize, query: String) -> Request {
        let line = Json::obj(vec![
            ("op", Json::Str("check".into())),
            ("dtd_id", Json::Num(schema as f64)),
            ("query", Json::Str(query.clone())),
            ("max_steps", Json::Num(MAX_STEPS as f64)),
        ])
        .to_string();
        Request {
            line,
            batch: false,
            schema,
            queries: vec![query],
            witness: false,
        }
    }

    /// A batch at the server's default `threads`.
    pub fn batch(schema: usize, queries: Vec<String>, witness: bool) -> Request {
        let line = Json::obj(vec![
            ("op", Json::Str("batch".into())),
            ("dtd_id", Json::Num(schema as f64)),
            (
                "queries",
                Json::Arr(queries.iter().map(|q| Json::Str(q.clone())).collect()),
            ),
            ("witness", Json::Bool(witness)),
            ("max_steps", Json::Num(MAX_STEPS as f64)),
        ])
        .to_string();
        Request {
            line,
            batch: true,
            schema,
            queries,
            witness,
        }
    }
}

/// A random downward query over `schema` and the element type its last step
/// selects: child labels, `*`, `**`, label unions, qualifiers and local negation,
/// the fragment the compiled VM covers on these schemas.
///
/// The generator walks the DTD's child relation, so most steps are allowed and a
/// useful share of queries is satisfiable; a random label now and then makes
/// unsatisfiable ones.
fn random_path(rng: &mut Rng, schema: &Schema) -> (Path, usize) {
    let mut at = schema.root;
    let mut steps: Vec<Path> = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let Some(&next) = rng.pick(&schema.children[at]) else {
            break;
        };
        let roll = rng.below(100);
        let mut step = if roll < 12 {
            // `**`: jump to some descendant by a few hidden moves.
            for _ in 0..1 + rng.below(3) {
                match rng.pick(&schema.children[at]) {
                    Some(&t) => at = t,
                    None => break,
                }
            }
            steps.push(Path::DescendantOrSelf);
            at = *rng.pick(&schema.children[at]).unwrap_or(&at);
            Path::label(schema.labels[at].clone())
        } else if roll < 20 {
            at = next;
            Path::Wildcard
        } else if roll < 26 {
            // A label union: one allowed child and one arbitrary label.
            let other = rng.below(schema.labels.len());
            at = next;
            Path::union(
                Path::label(schema.labels[next].clone()),
                Path::label(schema.labels[other].clone()),
            )
        } else if roll < 30 {
            // An arbitrary label: often not a child here, so often unsatisfiable.
            at = rng.below(schema.labels.len());
            Path::label(schema.labels[at].clone())
        } else {
            at = next;
            Path::label(schema.labels[next].clone())
        };
        if rng.percent(30) {
            step = step.filter(qualifier(rng, schema, at));
        }
        steps.push(step);
    }
    if steps.is_empty() {
        steps.push(Path::label(schema.labels[schema.root].clone()));
    }
    (Path::seq_all(steps), at)
}

/// A child of type `at`, now and then an arbitrary label instead.
fn child_of(rng: &mut Rng, schema: &Schema, at: usize) -> usize {
    match rng.pick(&schema.children[at]) {
        Some(&t) if rng.percent(80) => t,
        _ => rng.below(schema.labels.len()),
    }
}

/// A qualifier on a node of type `at`: a child label, a two-step path, or the
/// local negation of a child label.
fn qualifier(rng: &mut Rng, schema: &Schema, at: usize) -> Qualifier {
    let c = child_of(rng, schema, at);
    let label = |t: usize| Path::label(schema.labels[t].clone());
    match rng.below(100) {
        0..=29 => Qualifier::Not(Box::new(Qualifier::path(label(c)))),
        30..=49 => Qualifier::path(Path::seq(label(c), label(child_of(rng, schema, c)))),
        _ => Qualifier::path(label(c)),
    }
}

/// The number of shapes [`outside_fragment`] rotates through.
const OUTSIDE_SHAPES: usize = 4;

/// A random query with one shape the compiled fragment leaves to the AST engines:
/// `shape` 0 a following-sibling step, 1 an upward axis, 2 nested negation, 3 an
/// attribute comparison (or, on a type without attributes, a union of two whole
/// paths).
fn outside_fragment(rng: &mut Rng, schema: &Schema, shape: usize) -> Path {
    let (path, at) = random_path(rng, schema);
    let label = |t: usize| Path::label(schema.labels[t].clone());
    let any = |rng: &mut Rng| rng.below(schema.labels.len());
    match shape % OUTSIDE_SHAPES {
        0 => {
            let x = any(rng);
            let sibling = if rng.percent(50) {
                Path::FollowingSiblingOrSelf
            } else {
                Path::NextSibling
            };
            Path::seq(
                path,
                sibling.filter(Qualifier::LabelIs(schema.labels[x].clone())),
            )
        }
        1 => {
            let up = if rng.percent(70) {
                Path::Parent
            } else {
                Path::AncestorOrSelf
            };
            Path::seq(path, up)
        }
        2 => {
            let c = child_of(rng, schema, at);
            let d = child_of(rng, schema, c);
            path.filter(Qualifier::Not(Box::new(Qualifier::path(
                label(c).filter(Qualifier::Not(Box::new(Qualifier::path(label(d))))),
            ))))
        }
        _ if !schema.attributes[at].is_empty() => {
            let attrs = &schema.attributes[at];
            path.filter(Qualifier::AttrCmp {
                path: Path::Empty,
                attr: attrs[rng.below(attrs.len())].clone(),
                op: if rng.percent(50) {
                    xpsat_xpath::CmpOp::Eq
                } else {
                    xpsat_xpath::CmpOp::Ne
                },
                value: format!("v{}", rng.below(4)),
            })
        }
        _ => Path::union(path, random_path(rng, schema).0),
    }
}

/// Seed of connection `conn`'s stream (and of the pool), derived so streams of
/// one run never share a generator state.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Seed of the `hot_check` pool.  The pool is one fixed corpus, the same for every
/// `--seed`: warming it is the bulk of `hot_check`'s set-up, and a few of its
/// queries cost hundreds of milliseconds cold (`body[fieldset]/**/col`, 270 ms), so
/// a pool drawn per seed would make `setup_s` follow whichever of them it drew.
/// The seed picks the order in which the connections sample the pool.
const POOL_SEED: u64 = 0;

/// Queries `unique_flood` generates before its measured phase, shared out among
/// its connections.  At about 3 000 checks/s a 20 s run sends about 60 000; a
/// connection that runs out fails the run (see [`Stream::next`]).
pub const FLOOD_QUERIES: usize = 300_000;

/// Consecutive candidates whose canonical form was already produced after which a
/// generator gives up: its query space is as good as exhausted.
const MAX_REJECTIONS: usize = 10_000;

/// The `hot_check` pool: [`POOL_SIZE`] distinct queries, half per schema.
pub fn hot_pool(schemas: &[Schema]) -> Vec<(usize, String)> {
    let mut rng = Rng::new(sub_seed(POOL_SEED, 0x9001));
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL_SIZE);
    while pool.len() < POOL_SIZE {
        let schema = pool.len() % schemas.len();
        let query = random_path(&mut rng, &schemas[schema]).0.to_string();
        if seen.insert((schema, query.clone())) {
            pool.push((schema, query));
        }
    }
    pool
}

/// `unique_flood`'s queries over `schema`: one sequence per seed in which no two
/// queries share a canonical form.  Connection `c` of `n` sends items
/// `c, c + n, c + 2n, …`, so no request of the run, on either connection, can be
/// answered from a cache an earlier request filled.
pub fn flood_queries(seed: u64, schema: &Schema, count: usize) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(sub_seed(seed, 0xF100D));
    let mut seen = HashSet::new();
    (0..count)
        .map(|_| {
            fresh_query(&mut rng, &mut seen, schema, None).ok_or_else(|| {
                format!(
                    "{} has fewer than {count} distinct canonical queries in reach",
                    schema.name
                )
            })
        })
        .collect()
}

/// A query over `schema` whose canonical form is not in `seen` (and is added to
/// it): outside the compiled fragment when `outside` names a shape, else inside it.
/// `None` after [`MAX_REJECTIONS`] candidates in a row were already seen.
fn fresh_query(
    rng: &mut Rng,
    seen: &mut HashSet<String>,
    schema: &Schema,
    outside: Option<usize>,
) -> Option<String> {
    for _ in 0..MAX_REJECTIONS {
        let path = match outside {
            Some(shape) => outside_fragment(rng, schema, shape),
            None => random_path(rng, schema).0,
        };
        if seen.insert(CanonicalQuery::of(&path).text) {
            return Some(path.to_string());
        }
    }
    None
}

/// The requests one connection sends, in order, for as long as the run lasts.
#[derive(Debug)]
pub struct Stream<'a> {
    workload: Workload,
    conn: usize,
    rng: Rng,
    sent: usize,
    /// What the stream draws from: the warmed hot set `hot_check` samples, or the
    /// [`flood_queries`] `unique_flood` deals out.
    inputs: &'a [(usize, String)],
    /// `cold_schema`: the canonical form of every query this stream produced.  No
    /// two of its queries share one, so no request can be answered from a cache
    /// filled by an earlier request of the stream.
    seen: HashSet<String>,
    /// `cold_schema`: which slot of batch 3 carries [`KNOWN_DEFECT_QUERY`].
    defect_slot: usize,
}

impl<'a> Stream<'a> {
    pub fn new(
        workload: Workload,
        seed: u64,
        conn: usize,
        inputs: &'a [(usize, String)],
    ) -> Stream<'a> {
        let mut rng = Rng::new(sub_seed(seed, 1 + conn as u64));
        let defect_slot = rng.below(BATCH_SIZE);
        Stream {
            workload,
            conn,
            rng,
            sent: 0,
            inputs,
            seen: HashSet::new(),
            defect_slot,
        }
    }

    /// The next request, or `None` when the stream has run out of queries: a
    /// `unique_flood` connection that sent its whole share of [`FLOOD_QUERIES`], or
    /// a `cold_schema` stream that found no new canonical form.
    pub fn next(&mut self, schemas: &[Schema]) -> Option<Request> {
        let index = self.sent;
        self.sent += 1;
        match self.workload {
            Workload::HotCheck => {
                let (schema, query) = self.inputs[self.rng.below(self.inputs.len())].clone();
                Some(Request::check(schema, query))
            }
            Workload::UniqueFlood => {
                let item = self.conn + index * self.workload.connections();
                let (schema, query) = self.inputs.get(item)?.clone();
                Some(Request::check(schema, query))
            }
            Workload::ColdSchema => {
                // Schemas in turn (xhtml, docbook, layered); every fourth batch asks
                // for witnesses.  The last slot of a batch holds a query outside the
                // compiled fragment, its shape rotating from batch to batch, so every
                // batch gives the AST engines the same share of work.
                let schema = index % schemas.len();
                let target = &schemas[schema];
                let mut queries = (0..BATCH_SIZE)
                    .map(|slot| {
                        let outside = slot + 1 == BATCH_SIZE && target.outside_fragment;
                        fresh_query(
                            &mut self.rng,
                            &mut self.seen,
                            target,
                            outside.then_some(index),
                        )
                    })
                    .collect::<Option<Vec<String>>>()?;
                if index == 3 {
                    debug_assert_eq!(schemas[schema].name, "xhtml");
                    queries[self.defect_slot] = KNOWN_DEFECT_QUERY.to_string();
                }
                Some(Request::batch(schema, queries, index % 4 == 3))
            }
        }
    }
}
