//! The FO query pipeline: parse → preflight → plan → guard limits →
//! guarded evaluation, with EXPLAIN optional.
//!
//! [`query`] is the one entry point every caller shares — the `dco`
//! facade, the store's QUERY and EXPLAIN verbs, the tests — so every
//! caller gets the same policy:
//!
//! 1. **Parse** the text (or take the caller's formula as is).
//! 2. **Preflight**: the `dco-analysis` formula passes. Any error-severity
//!    finding rejects the query before it costs anything; warnings ride
//!    along on the answer.
//! 3. **Plan** by the database statistics (an equivalence-preserving
//!    reorder of conjuncts and quantified variables), and derive the guard
//!    budgets from the planner's estimate. The caller's limits can only
//!    tighten those defaults, never loosen them.
//! 4. **Evaluate** the planned formula under the guard. Every fault —
//!    budget, deadline, cancellation, overflow, a contained panic — comes
//!    back as a typed [`QueryError::Fault`], with the phase timings.
//!
//! With [`QueryOptions::explain`] set, the evaluator also records the plan
//! tree of what it ran: estimated and actual cardinality per node. The
//! phases are timed on the answer and, when a trace is active on the
//! calling thread, recorded as its `preflight`/`plan`/`eval` spans.

use crate::eval::{eval_node, EvalError, QueryResult};
use dco_analysis::explain::QueryPlan;
use dco_analysis::stats::DbStats;
use dco_analysis::{cost, plan_formula, preflight_formula, AnalysisOptions, Diagnostic};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, GuardStats};
use dco_core::prelude::Database;
use dco_logic::{FormulaSource, ParseError};
use dco_obs::trace;
use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

/// How to run a query.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Deadline and budgets; intersected with the statistics-derived
    /// defaults, so they can only tighten them. A fault plan armed here
    /// (chaos testing) is kept.
    pub limits: GuardLimits,
    /// Record the plan tree of the evaluation ([`QueryAnswer::plan`]).
    pub explain: bool,
}

/// Why a query produced no answer.
#[derive(Debug)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// Static analysis found error-severity problems; nothing was
    /// evaluated. Carries the errors only.
    Rejected(Vec<Diagnostic>),
    /// A semantic error the evaluator found (unknown predicate, arity
    /// mismatch, not in the dense-order fragment).
    Invalid {
        /// The evaluator's error.
        error: EvalError,
        /// Wall time of the phases that ran, evaluation included.
        timings: PhaseTimings,
    },
    /// The guard tripped or a panic was contained.
    Fault {
        /// The typed fault and the partial-progress statistics.
        error: GuardError,
        /// Wall time of the phases that ran, evaluation included.
        timings: PhaseTimings,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Rejected(diags) => {
                writeln!(f, "query rejected by static analysis:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            QueryError::Invalid { error, .. } => write!(f, "invalid query: {error}"),
            QueryError::Fault { error, .. } => write!(f, "evaluation fault: {error}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Wall time of each pipeline phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimings {
    /// Static analysis.
    pub preflight: Duration,
    /// Planning and guard-limit derivation.
    pub plan: Duration,
    /// Guarded evaluation.
    pub eval: Duration,
}

/// A query's answer and what it cost.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The result: equivalent to [`crate::eval`] of the query.
    pub result: QueryResult,
    /// Non-fatal analyzer findings (never error severity).
    pub warnings: Vec<Diagnostic>,
    /// The guard's final progress counters.
    pub guard: GuardStats,
    /// Wall time per phase.
    pub timings: PhaseTimings,
    /// The measured plan, when [`QueryOptions::explain`] was set.
    pub plan: Option<QueryPlan>,
}

/// Run the query `source` against `db` through the pipeline described in
/// the module docs. `stats` are the database statistics the planner and
/// the budgets use; `None` computes them from `db` (a server that
/// maintains them per generation passes its own).
pub fn query(
    db: &Database,
    stats: Option<&DbStats>,
    source: &(impl FormulaSource + ?Sized),
    opts: &QueryOptions,
) -> Result<QueryAnswer, QueryError> {
    let formula = source.formula().map_err(QueryError::Parse)?;

    let phase = Instant::now();
    let preflight = preflight_formula(&formula, Some(db.schema()), &AnalysisOptions::default());
    let preflight_time = phase.elapsed();
    trace::child("preflight", preflight_time);
    let warnings = preflight.map_err(QueryError::Rejected)?;

    let phase = Instant::now();
    let stats = stats.map_or_else(|| Cow::Owned(DbStats::of_database(db)), Cow::Borrowed);
    let defaults = cost::suggested_limits_with_stats(&formula, &stats, db.constants());
    let limits = opts.limits.clone().tightened(&defaults);
    let planned = plan_formula(&formula, &stats);
    let plan_time = phase.elapsed();
    trace::child("plan", plan_time);

    let phase = Instant::now();
    let columns: Vec<String> = planned.free_vars().into_iter().collect();
    let explain = opts.explain.then_some(&*stats);
    let outcome = run_guarded(limits, || eval_node(db, &planned, &columns, explain));
    let eval_time = phase.elapsed();
    trace::child("eval", eval_time);

    let timings = PhaseTimings {
        preflight: preflight_time,
        plan: plan_time,
        eval: eval_time,
    };
    let guarded = outcome.map_err(|error| QueryError::Fault { error, timings })?;
    let (relation, root) = guarded
        .value
        .map_err(|error| QueryError::Invalid { error, timings })?;
    Ok(QueryAnswer {
        result: QueryResult { columns, relation },
        warnings,
        guard: guarded.stats,
        timings,
        plan: root.map(|root| QueryPlan {
            planned: planned.to_string(),
            root,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;

    fn edges() -> Database {
        let e = GeneralizedRelation::from_points(
            2,
            vec![vec![rat(1, 1), rat(2, 1)], vec![rat(2, 1), rat(3, 1)]],
        );
        Database::new(Schema::new().with("e", 2)).with("e", e)
    }

    /// The paper's triangle 0 ≤ x ≤ y ≤ 10 as relation R.
    fn triangle() -> Database {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        );
        Database::new(Schema::new().with("R", 2)).with("R", tri)
    }

    fn run(db: &Database, src: &str, opts: &QueryOptions) -> Result<QueryAnswer, QueryError> {
        query(db, None, src, opts)
    }

    fn limited(limits: GuardLimits) -> QueryOptions {
        QueryOptions {
            limits,
            explain: false,
        }
    }

    fn explained() -> QueryOptions {
        QueryOptions {
            explain: true,
            ..QueryOptions::default()
        }
    }

    fn rejection_codes(err: QueryError) -> Vec<&'static str> {
        let QueryError::Rejected(diags) = err else {
            panic!("expected a rejection, got {err}");
        };
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn good_query_evaluates_with_no_diagnostics() {
        let out = run(&edges(), "exists y . e(x, y)", &QueryOptions::default()).unwrap();
        assert!(out.warnings.is_empty());
        assert_eq!(out.result.columns, vec!["x".to_string()]);
        assert!(out.plan.is_none(), "explain is off by default");
    }

    #[test]
    fn arity_mismatch_is_rejected_not_evaluated() {
        let err = run(&edges(), "e(x, y, z)", &QueryOptions::default()).unwrap_err();
        assert_eq!(rejection_codes(err), vec!["DCO102"]);
    }

    #[test]
    fn unknown_predicate_is_rejected() {
        let err = run(&edges(), "r(x)", &QueryOptions::default()).unwrap_err();
        assert_eq!(rejection_codes(err), vec!["DCO101"]);
    }

    #[test]
    fn dead_conjunction_warns_but_evaluates_empty() {
        let out = run(
            &edges(),
            "e(x, y) & x < y & y < x",
            &QueryOptions::default(),
        )
        .unwrap();
        assert!(out.warnings.iter().any(|d| d.code == "DCO402"));
        assert!(out.result.relation.is_empty());
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let err = run(&edges(), "exists . (", &QueryOptions::default()).unwrap_err();
        assert!(matches!(err, QueryError::Parse(_)));
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        // The pipeline evaluates the planned formula with the bare
        // evaluator's recursion; the guard only observes, so the answer is
        // structurally identical to the unguarded run of that formula.
        let db = triangle();
        let src = "exists y . (R(x, y) & x < y)";
        let f = dco_logic::parse_formula(src).unwrap();
        let unguarded = crate::eval(&db, &plan_formula(&f, &DbStats::of_database(&db))).unwrap();
        for opts in [QueryOptions::default(), explained()] {
            let out = run(&db, src, &opts).unwrap();
            assert_eq!(out.result.columns, unguarded.columns);
            assert_eq!(out.result.relation, unguarded.relation);
            assert!(out.guard.probes > 0, "evaluation must hit probes");
        }
    }

    #[test]
    fn tight_budget_returns_typed_error_with_stats() {
        let opts = limited(GuardLimits::none().with_max_tuples(1));
        let err = run(&triangle(), "!(R(x, y) | R(y, x) | x < y)", &opts).unwrap_err();
        let QueryError::Fault { error: f, .. } = err else {
            panic!("expected a guard fault, got {err}");
        };
        assert!(matches!(f.kind, EvalErrorKind::BudgetExceeded { .. }));
        assert!(f.stats.tuples_materialized >= 2);
    }

    #[test]
    fn zero_deadline_trips_fast() {
        let opts = limited(GuardLimits::none().with_deadline(Duration::ZERO));
        let err = run(&triangle(), "!(R(x, y) | R(y, x))", &opts).unwrap_err();
        let QueryError::Fault { error: f, .. } = err else {
            panic!("expected a guard fault, got {err}");
        };
        assert!(matches!(f.kind, EvalErrorKind::DeadlineExceeded { .. }));
    }

    #[test]
    fn semantic_errors_stay_typed_not_faults() {
        // Preflight catches every semantic error the evaluator would
        // raise, so it surfaces typed and before any evaluation.
        let err = run(&triangle(), "Zap(x)", &QueryOptions::default()).unwrap_err();
        assert_eq!(rejection_codes(err), vec!["DCO101"]);
        let err = run(&triangle(), "R(x) & x + y < 1", &QueryOptions::default()).unwrap_err();
        assert_eq!(rejection_codes(err), vec!["DCO102", "DCO104"]);
    }

    #[test]
    fn explain_matches_eval_of_planned_formula() {
        let db = triangle();
        let src = "exists y . (R(x, y) & x < 5 & !R(y, x))";
        let out = run(&db, src, &explained()).unwrap();
        assert!(out.plan.is_some(), "explain was requested");
        let f = dco_logic::parse_formula(src).unwrap();
        let planned = plan_formula(&f, &DbStats::of_database(&db));
        let direct = crate::eval(&db, &planned).unwrap();
        assert_eq!(out.result.columns, direct.columns);
        assert!(out.result.relation.equivalent(&direct.relation));
    }

    #[test]
    fn every_node_carries_actual_cardinality() {
        let out = run(&triangle(), "forall y . (R(x, y) -> y >= 5)", &explained()).unwrap();
        let plan = out.plan.expect("explain was requested");
        assert!(
            plan.root.fully_measured(),
            "unmeasured node in:\n{}",
            plan.render()
        );
        for line in plan.render().lines().skip(1) {
            assert!(line.contains("est=") && line.contains("act="), "{line}");
        }
        // ∀ is evaluated as ¬∃¬, and the plan shows the rewrite.
        assert_eq!(plan.root.label, "forall");
        assert_eq!(plan.root.children[0].label, "exists");
        assert_eq!(plan.root.children[0].children[0].label, "not");
    }

    #[test]
    fn explain_errors_match_eval_errors() {
        let db = triangle();
        for src in ["Zap(x)", "exists . ("] {
            let off = run(&db, src, &QueryOptions::default()).unwrap_err();
            let on = run(&db, src, &explained()).unwrap_err();
            assert_eq!(off.to_string(), on.to_string());
        }
        let opts = QueryOptions {
            limits: GuardLimits::none().with_max_tuples(1),
            explain: true,
        };
        let err = run(&db, "!(R(x, y) | R(y, x) | x < y)", &opts).unwrap_err();
        assert!(
            matches!(err, QueryError::Fault { .. }),
            "explain is guarded too"
        );
    }
}
