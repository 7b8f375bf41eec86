//! Reading served answers and checking them against an independent tier.

use crate::gen::{Schema, MAX_STEPS};
use crate::served::Record;
use std::collections::BTreeMap;
use xpsat_core::{Budget, Solver};
use xpsat_plan::{canonicalize, compile_with_reason, vm, CompileLimits, Scratch};
use xpsat_service::Json;
use xpsat_xpath::parse_path;

/// One query's served verdict.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Answer {
    pub schema: usize,
    /// The query text as sent.
    pub query: String,
    /// `satisfiable`, `unsatisfiable` or `unknown`.
    pub result: String,
    pub engine: String,
    pub witness: Option<String>,
}

impl Answer {
    pub fn definite(&self) -> bool {
        self.result == "satisfiable" || self.result == "unsatisfiable"
    }
}

/// The answers of one record: `None` when the request failed (no reply, or a reply
/// other than `"ok":true`).
pub fn answers(record: &Record) -> Option<Vec<Answer>> {
    let json = Json::parse(record.reply.as_deref()?).ok()?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let request = &record.request;
    let one = |query: &str, fields: &Json| Answer {
        schema: request.schema,
        query: query.to_string(),
        result: fields
            .get("result")
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string(),
        engine: fields
            .get("engine")
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string(),
        witness: fields
            .get("witness")
            .and_then(Json::as_str)
            .map(str::to_string),
    };
    if request.batch {
        let results = json.get("results").and_then(Json::as_array)?;
        if results.len() != request.queries.len() {
            return None;
        }
        Some(
            request
                .queries
                .iter()
                .zip(results)
                .map(|(q, r)| one(q, r))
                .collect(),
        )
    } else {
        Some(vec![one(&request.queries[0], &json)])
    }
}

/// What the oracle compared.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Verdicts compared with a second tier that completed.
    pub tier_checked: u64,
    /// Verdicts whose second tier did not complete within the budget.
    pub tier_unchecked: u64,
    /// Of `tier_checked`: verdicts whose second tier spent its budget on the query
    /// as sent and was completed on the canonical path instead.
    pub canonical_fallbacks: u64,
    /// Witnesses parsed and re-validated.
    pub witnesses_checked: u64,
    pub mismatches: Vec<String>,
}

/// Check every distinct served verdict.
///
/// * A `compiled-vm` verdict is re-decided by the AST solver
///   (`Solver::decide_budgeted`) on the query as sent, before canonicalisation.
/// * An AST verdict is compiled from the query as sent and replayed in the VM when
///   it compiles; otherwise the AST solver decides the query as sent.
/// * Only where the query as sent spends the step budget is the second tier run on
///   the canonical path instead (counted in `canonical_fallbacks`).
/// * Every returned witness is parsed and checked with `verify_witness`.
///
/// Runs on threads with a 1 GiB stack reservation, so a deep engine recursion in a
/// reference decide cannot abort the benchmark.
pub fn verify(schemas: &[Schema], answers: &[Answer]) -> OracleReport {
    // Every answer to the same query must agree; each distinct one is checked once.
    let mut distinct: BTreeMap<(usize, &str, bool), &Answer> = BTreeMap::new();
    let mut inconsistent = Vec::new();
    for a in answers.iter().filter(|a| a.definite()) {
        let first = distinct
            .entry((a.schema, a.query.as_str(), a.witness.is_some()))
            .or_insert(a);
        if first.result != a.result {
            inconsistent.push(format!(
                "{}: {:?} answered both {} and {}",
                schemas[a.schema].name, a.query, first.result, a.result
            ));
        }
    }
    let work: Vec<&Answer> = distinct.into_values().collect();
    let artifacts: Vec<xpsat_dtd::DtdArtifacts> = schemas
        .iter()
        .map(|s| xpsat_dtd::DtdArtifacts::build(&s.dtd))
        .collect();
    let threads = 2;
    let chunk = work.len().div_ceil(threads).max(1);
    let parts: Vec<OracleReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                let artifacts = &artifacts;
                std::thread::Builder::new()
                    .stack_size(1 << 30)
                    .spawn_scoped(scope, move || {
                        let mut report = OracleReport::default();
                        for a in part {
                            check_one(schemas, artifacts, a, &mut report);
                        }
                        report
                    })
                    .expect("spawn oracle thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut report = OracleReport {
        mismatches: inconsistent,
        ..OracleReport::default()
    };
    for part in parts {
        report.tier_checked += part.tier_checked;
        report.tier_unchecked += part.tier_unchecked;
        report.canonical_fallbacks += part.canonical_fallbacks;
        report.witnesses_checked += part.witnesses_checked;
        report.mismatches.extend(part.mismatches);
    }
    report
}

fn check_one(
    schemas: &[Schema],
    artifacts: &[xpsat_dtd::DtdArtifacts],
    a: &Answer,
    report: &mut OracleReport,
) {
    let schema = &schemas[a.schema];
    let art = &artifacts[a.schema];
    let path = match parse_path(&a.query) {
        Ok(p) => p,
        Err(e) => {
            report.mismatches.push(format!(
                "{}: served a verdict for unparsable {:?}: {e}",
                schema.name, a.query
            ));
            return;
        }
    };
    let served_sat = a.result == "satisfiable";
    // The second tier decides the query as sent, so a canonicaliser bug cannot give
    // both tiers the same wrong input.  Only when that spends the budget does it fall
    // back to the canonical path the server decided, if that is a different path.
    let budget = Budget::steps(MAX_STEPS);
    let by_vm = a.engine == "compiled-vm";
    let mut reference = second_tier(art, &path, by_vm, &budget);
    if reference.is_none() {
        let canon = canonicalize(&path);
        if canon != path {
            reference = second_tier(art, &canon, by_vm, &budget);
            if reference.is_some() {
                report.canonical_fallbacks += 1;
            }
        }
    }
    match reference {
        Some(sat) if sat == served_sat => report.tier_checked += 1,
        Some(sat) => {
            report.tier_checked += 1;
            report.mismatches.push(format!(
                "{}: {:?} served {} by {}, second tier says {}",
                schema.name,
                a.query,
                a.result,
                a.engine,
                if sat { "satisfiable" } else { "unsatisfiable" }
            ));
        }
        None => report.tier_unchecked += 1,
    }
    if let Some(witness) = &a.witness {
        report.witnesses_checked += 1;
        let verdict = if !served_sat {
            Err("witness on a non-satisfiable verdict".to_string())
        } else {
            verify_witness_text(witness, &schema.dtd, &path)
        };
        if let Err(e) = verdict {
            report.mismatches.push(format!(
                "{}: {:?} witness rejected: {e}",
                schema.name, a.query
            ));
        }
    }
}

/// The tier that did not serve the verdict, on `path`: the AST solver for a
/// `compiled-vm` verdict; for an AST verdict the VM where `path` compiles, else the
/// AST solver.  `None` when it spends the step budget.
fn second_tier(
    art: &xpsat_dtd::DtdArtifacts,
    path: &xpsat_xpath::Path,
    served_by_vm: bool,
    budget: &Budget,
) -> Option<bool> {
    if !served_by_vm {
        if let Ok(program) = compile_with_reason(art, path, &CompileLimits::default()) {
            return vm::run(&program, art, &mut Scratch::new(), &budget.meter()).ok();
        }
    }
    Solver::default()
        .decide_budgeted(art, path, budget)
        .result
        .is_satisfiable()
}

/// Parse a served witness document and check it against the DTD and the query.
fn verify_witness_text(
    xml: &str,
    dtd: &xpsat_dtd::Dtd,
    query: &xpsat_xpath::Path,
) -> Result<(), String> {
    let doc = xpsat_xmltree::serialize::parse(xml).map_err(|e| format!("unparsable: {e}"))?;
    xpsat_core::sat::verify_witness(&doc, dtd, query)
}
