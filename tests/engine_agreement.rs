//! Cross-engine agreement: every specialised decision procedure must agree with the
//! exhaustive enumeration oracle on randomly generated (DTD, query) instances drawn from
//! its fragment, and every witness it returns must verify.
//!
//! These tests are the workspace-level counterpart of the per-engine unit tests: they
//! use only the public API.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpathsat::prelude::*;
use xpathsat::sat::engines::enumeration::{self, EnumerationLimits};

/// A small pool of star-free, nonrecursive DTDs over which the enumeration oracle is
/// exhaustive, so that oracle disagreement is always a genuine bug.
fn oracle_dtds() -> Vec<Dtd> {
    [
        "r -> a?, b?; a -> c?; b -> c?, d?; c -> #; d -> #;",
        "r -> a, b; a -> (c | d); b -> c?; c -> #; d -> #;",
        "r -> x1, x2; x1 -> t | f; x2 -> t | f; t -> #; f -> #;",
        "r -> a, a?; a -> b?, b?; b -> #;",
    ]
    .iter()
    .map(|text| parse_dtd(text).unwrap())
    .collect()
}

/// A random positive downward query over the given label alphabet.
fn random_positive_query(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
    let pick_label = |rng: &mut StdRng| labels[rng.gen_range(0..labels.len())].clone();
    if depth == 0 {
        return Path::label(pick_label(rng));
    }
    match rng.gen_range(0..6) {
        0 => Path::label(pick_label(rng)),
        1 => Path::Wildcard,
        2 => Path::DescendantOrSelf,
        3 => Path::seq(
            random_positive_query(rng, labels, depth - 1),
            random_positive_query(rng, labels, depth - 1),
        ),
        4 => Path::union(
            random_positive_query(rng, labels, depth - 1),
            random_positive_query(rng, labels, depth - 1),
        ),
        _ => random_positive_query(rng, labels, depth - 1).filter(Qualifier::path(
            random_positive_query(rng, labels, depth - 1),
        )),
    }
}

/// A random downward query that may also use negation, conjunction and label tests.
fn random_negation_query(rng: &mut StdRng, labels: &[String], depth: usize) -> Path {
    let base = random_positive_query(rng, labels, depth);
    if rng.gen_bool(0.5) {
        let qual = if rng.gen_bool(0.5) {
            Qualifier::not(Qualifier::path(random_positive_query(rng, labels, depth)))
        } else {
            Qualifier::And(
                Box::new(Qualifier::path(random_positive_query(rng, labels, depth))),
                Box::new(Qualifier::not(Qualifier::LabelIs(
                    labels[rng.gen_range(0..labels.len())].clone(),
                ))),
            )
        };
        Path::Empty.filter(Qualifier::And(
            Box::new(Qualifier::path(base)),
            Box::new(qual),
        ))
    } else {
        base
    }
}

fn oracle(dtd: &Dtd, query: &Path) -> Option<bool> {
    let limits = EnumerationLimits::default();
    enumeration::decide(dtd, query, &limits).is_satisfiable()
}

/// `per_dtd` seeded random queries over each oracle DTD.
fn seeded_corpus(
    seed: u64,
    per_dtd: usize,
    depth: usize,
    generate: fn(&mut StdRng, &[String], usize) -> Path,
) -> Vec<(Dtd, Path)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus = Vec::new();
    for dtd in oracle_dtds() {
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        for _ in 0..per_dtd {
            corpus.push((dtd.clone(), generate(&mut rng, &labels, depth)));
        }
    }
    corpus
}

/// The seeded positive corpus.
fn positive_corpus() -> Vec<(Dtd, Path)> {
    seeded_corpus(2024, 40, 3, random_positive_query)
}

/// The seeded negation corpus.
fn negation_corpus() -> Vec<(Dtd, Path)> {
    seeded_corpus(4096, 30, 2, random_negation_query)
}

fn assert_solver_agrees_with_oracle(corpus: &[(Dtd, Path)]) {
    let solver = Solver::default();
    for (dtd, query) in corpus {
        let expected = oracle(dtd, query).expect("oracle is exhaustive on these DTDs");
        let decision = solver.decide(dtd, query);
        assert_eq!(
            decision.result.is_satisfiable(),
            Some(expected),
            "query {query} under\n{dtd}"
        );
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            verify_witness(doc, dtd, query).unwrap();
        }
    }
}

#[test]
fn solver_agrees_with_oracle_on_random_positive_queries() {
    assert_solver_agrees_with_oracle(&positive_corpus());
}

#[test]
fn solver_agrees_with_oracle_on_random_negation_queries() {
    assert_solver_agrees_with_oracle(&negation_corpus());
}

#[test]
fn sibling_engine_agrees_with_oracle() {
    let solver = Solver::default();
    let dtd = parse_dtd("r -> a, (b | c), d?; a -> #; b -> #; c -> #; d -> #;").unwrap();
    let queries = [
        "a/>", "a/>/>", "a/>/>/>", "b/>", "c/<", "d/</<", "a/<", "b/>/>", "c/>/>",
    ];
    for text in queries {
        let query = parse_path(text).unwrap();
        let expected = oracle(&dtd, &query).expect("exhaustive");
        let decision = solver.decide(&dtd, &query);
        assert_eq!(decision.engine, EngineKind::Sibling, "query {text}");
        assert_eq!(
            decision.result.is_satisfiable(),
            Some(expected),
            "query {text}"
        );
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            verify_witness(doc, &dtd, &query).unwrap();
        }
    }
}

/// Proposition 3.3 (normalisation) and Proposition 3.1 (no-DTD reduction), checked
/// against the solver on random positive queries.
///
/// Formerly a proptest block over `seed in 0u64..5_000` with 64 cases; the build
/// environment has no crates.io access, so the same coverage is drawn as 64 fixed
/// seeds through the deterministic workspace RNG.
#[test]
fn normalization_preserves_satisfiability() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dtd =
            parse_dtd("r -> (a | b)*, c?; a -> (d, d) | #; b -> d?; c -> #; d -> #;").unwrap();
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        let query = random_positive_query(&mut rng, &labels, 2);
        let solver = Solver::default();
        let direct = solver.decide(&dtd, &query).result.is_satisfiable();
        let (norm, rewritten) = xpathsat::sat::transform::normalize_instance(&dtd, &query);
        let normalized = solver.decide(&norm.dtd, &rewritten).result.is_satisfiable();
        assert_eq!(
            direct, normalized,
            "query {} rewritten {}",
            query, rewritten
        );
    }
}

/// The recursion-elimination rewriting of Proposition 6.1 is equivalence-preserving
/// on every document of a nonrecursive DTD.  (Formerly proptest; see above.)
#[test]
fn recursion_elimination_is_equivalent_on_documents() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dtd = parse_dtd("r -> a?, b; a -> c*; b -> c?; c -> d?; d -> #;").unwrap();
        let labels: Vec<String> = dtd
            .element_names()
            .into_iter()
            .filter(|l| l != "r")
            .collect();
        let query = random_positive_query(&mut rng, &labels, 2);
        let rewritten = xpathsat::sat::transform::eliminate_recursion_for(&dtd, &query)
            .expect("the DTD is nonrecursive");
        let generator = TreeGenerator::new(&dtd);
        for _ in 0..5 {
            let doc = generator.random_tree(&mut rng, 4, 3);
            assert_eq!(
                eval::satisfies(&doc, &query),
                eval::satisfies(&doc, &rewritten),
                "query {} on {}",
                query,
                doc
            );
        }
    }
}

/// `(predicted, decided)` engine pairs where the dispatch legitimately leaves the
/// route its prediction names.  Any other disagreement means `Solver::predict_route`
/// and `Solver::decide_budgeted` no longer walk the same route table.
const KNOWN_FALL_THROUGHS: &[(EngineKind, EngineKind)] = &[
    // Theorem 6.8's PTIME unsat short-cut runs inside the positive route under
    // disjunction-free DTDs; a prediction cannot know the verdict.
    (EngineKind::Positive, EngineKind::DisjunctionFree),
];

/// Every query of the seeded corpora above, plus upward and recursive shapes that
/// reach the rewriting and enumeration routes, is decided by the engine its route
/// prediction names (up to [`KNOWN_FALL_THROUGHS`]).
#[test]
fn route_prediction_matches_dispatch() {
    let solver = Solver::default();
    let mut instances = positive_corpus();
    instances.extend(negation_corpus());
    let fixed = [
        (
            "r -> a, (b | c), d?; a -> #; b -> #; c -> #; d -> #;",
            &["a/>", "a/>/>", "c/<", "d/</<", "b/>/>"][..],
        ),
        (
            "r -> a; a -> b?; b -> #;",
            &[
                "a/b/..",
                "a/../..",
                "**[lab() = b]/..[not(lab() = r)]",
                "a[not(@x = @y)]",
            ][..],
        ),
        (
            "r -> a*; a -> a?, b; b -> #;",
            &["a/../a/b", "**/b/..", "a[b]/..[not(a)]"][..],
        ),
        (
            "r -> book*; book -> title, author; title -> #; author -> #;",
            &["book[price]", "book[title and author]"][..],
        ),
    ];
    for (dtd, queries) in fixed {
        let dtd = parse_dtd(dtd).unwrap();
        for q in queries {
            instances.push((dtd.clone(), parse_path(q).unwrap()));
        }
    }

    let mut engines = std::collections::BTreeSet::new();
    for (dtd, query) in &instances {
        let artifacts = xpathsat::dtd::DtdArtifacts::build(dtd);
        let predicted = Solver::predict_route(&artifacts, query).ast_engine;
        let decided = solver.decide_with_artifacts(&artifacts, query).engine;
        assert!(
            predicted == decided || KNOWN_FALL_THROUGHS.contains(&(predicted, decided)),
            "query {query}: predicted {predicted:?}, decided {decided:?} under\n{dtd}"
        );
        engines.insert(format!("{decided:?}"));
    }
    // The corpus must exercise the table, not one corner of it.
    for engine in [
        "Downward",
        "Sibling",
        "DisjunctionFree",
        "Positive",
        "NegationFixpoint",
        "Rewritten",
        "Enumeration",
    ] {
        assert!(
            engines.contains(engine),
            "no {engine} instance in {engines:?}"
        );
    }
}
