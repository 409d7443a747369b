//! The FO+ query pipeline: parse → preflight → plan → guard limits →
//! guarded Fourier–Motzkin evaluation.
//!
//! The same policy as `dco_fo::query`: the analyzer's formula passes
//! reject bad queries before any evaluation (linear comparisons are
//! warnings here, not errors — they are the point of FO+); the
//! statistics-driven planner picks the conjunct and elimination order (an
//! equivalence-preserving rewrite) and sizes the guard budgets from its
//! estimate; the caller's limits can only tighten those budgets. Every
//! fault comes back typed. The linear layer is where arithmetic overflow
//! is a live failure mode — Fourier–Motzkin combination multiplies
//! coefficients, so adversarial inputs can push exact rationals past
//! `i128` even when the input representation is small.

use crate::eval::{eval_linear, LinEvalError, LinQueryResult};
use dco_analysis::stats::DbStats;
use dco_analysis::{cost, plan_formula, preflight_formula, AnalysisOptions, Diagnostic};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, GuardStats};
use dco_core::prelude::Database;
use dco_logic::{FormulaSource, ParseError};
use std::fmt;

/// How to run an FO+ query.
#[derive(Debug, Clone, Default)]
pub struct LinQueryOptions {
    /// Deadline and budgets; intersected with the statistics-derived
    /// defaults, so they can only tighten them. A fault plan armed here
    /// (chaos testing) is kept.
    pub limits: GuardLimits,
}

/// Why an FO+ query produced no answer.
#[derive(Debug)]
pub enum LinQueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// Static analysis found error-severity problems; nothing was
    /// evaluated. Carries the errors only.
    Rejected(Vec<Diagnostic>),
    /// A semantic error the evaluator found.
    Invalid(LinEvalError),
    /// The guard tripped or a panic was contained.
    Fault(GuardError),
}

impl fmt::Display for LinQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinQueryError::Parse(e) => write!(f, "parse error: {e}"),
            LinQueryError::Rejected(diags) => {
                writeln!(f, "query rejected by static analysis:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            LinQueryError::Invalid(e) => write!(f, "invalid query: {e}"),
            LinQueryError::Fault(e) => write!(f, "evaluation fault: {e}"),
        }
    }
}

impl std::error::Error for LinQueryError {}

/// An FO+ query's answer.
#[derive(Debug, Clone)]
pub struct LinAnswer {
    /// The result: equivalent to [`crate::eval_linear`] of the query.
    pub result: LinQueryResult,
    /// Non-fatal analyzer findings (never error severity).
    pub warnings: Vec<Diagnostic>,
    /// The guard's final progress counters.
    pub guard: GuardStats,
}

/// Run the FO+ query `source` against `db` through the pipeline described
/// in the module docs.
pub fn query_linear(
    db: &Database,
    source: &(impl FormulaSource + ?Sized),
    opts: &LinQueryOptions,
) -> Result<LinAnswer, LinQueryError> {
    let formula = source.formula().map_err(LinQueryError::Parse)?;
    let analysis = AnalysisOptions {
        require_dense_order: false,
        ..AnalysisOptions::default()
    };
    let warnings = preflight_formula(&formula, Some(db.schema()), &analysis)
        .map_err(LinQueryError::Rejected)?;
    let stats = DbStats::of_database(db);
    let defaults = cost::suggested_limits_with_stats(&formula, &stats, db.constants());
    let limits = opts.limits.clone().tightened(&defaults);
    let planned = plan_formula(&formula, &stats);
    let guarded =
        run_guarded(limits, || eval_linear(db, &planned)).map_err(LinQueryError::Fault)?;
    Ok(LinAnswer {
        result: guarded.value.map_err(LinQueryError::Invalid)?,
        warnings,
        guard: guarded.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;

    fn empty_db() -> Database {
        Database::new(Schema::new())
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let src = "forall x y . exists m . m + m = x + y";
        let unguarded = crate::eval_linear_str(&empty_db(), src).unwrap();
        let out = query_linear(&empty_db(), src, &LinQueryOptions::default()).unwrap();
        assert_eq!(out.result.as_bool(), unguarded.as_bool());
        assert!(out.guard.probes > 0, "FM steps must hit probes");
        assert!(
            out.warnings.iter().all(|d| d.code == "DCO104"),
            "linear atoms are warnings in FO+: {:?}",
            out.warnings
        );
    }

    #[test]
    fn overflow_is_a_typed_fault_not_a_panic() {
        // Repeated doubling through Fourier–Motzkin substitution: each
        // equality x_{i+1} = big * x_i multiplies the running coefficient,
        // overflowing i128 well before 30 steps.
        let big = i64::MAX / 3;
        let mut src = format!("x1 = {big} & x2 = {big} * x1");
        for i in 3..=8 {
            src.push_str(&format!(" & x{i} = {big} * x{}", i - 1));
        }
        match query_linear(&empty_db(), &src, &LinQueryOptions::default()) {
            Err(LinQueryError::Fault(f)) => {
                assert!(matches!(f.kind, EvalErrorKind::Overflow(_)), "{:?}", f.kind);
            }
            Ok(_) => panic!("expected the doubling chain to overflow i128"),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn semantic_errors_stay_typed() {
        // Preflight catches the evaluator's semantic errors first.
        let err = query_linear(&empty_db(), "Zap(x)", &LinQueryOptions::default()).unwrap_err();
        let LinQueryError::Rejected(diags) = err else {
            panic!("expected a rejection, got {err}");
        };
        assert_eq!(diags[0].code, "DCO101");
        let err = query_linear(&empty_db(), "x + ", &LinQueryOptions::default()).unwrap_err();
        assert!(matches!(err, LinQueryError::Parse(_)));
    }
}
