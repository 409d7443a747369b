//! The Datalog¬ pipeline: parse → preflight → prune → plan → guard limits
//! → guarded fixpoint.
//!
//! [`run_program`] is the one entry point for analyzed, guarded runs; the
//! bare engines ([`crate::run`], [`crate::run_with`],
//! [`crate::run_stratified`]) stay as the reference oracle.
//!
//! 1. **Preflight**: the `dco-analysis` program passes. The semantics fix
//!    the analyzer profile: the inflationary semantics is well defined
//!    without stratification, so unstratifiable programs and dead rules
//!    are warnings there; the stratified semantics makes both errors.
//! 2. **Prune** (inflationary only): rules whose bodies are statically
//!    unsatisfiable can never fire, so they are dropped — fewer body
//!    evaluations per stage, same fixpoint.
//! 3. **Plan** every rule body by the input's statistics (literal order is
//!    join order under the bottom-up engine; a permutation, so the
//!    fixpoint is unchanged).
//! 4. **Run** under the guard: budgets from the static cost model,
//!    tightened by the caller's limits. Every fault comes back typed,
//!    with `stages_completed` among its partial-progress statistics.

use crate::ast::{Literal, Program};
use crate::engine::{run_with, EngineConfig, EngineError, EngineStats};
use crate::stratified::{run_stratified_with, StratifyError};
use dco_analysis::stats::DbStats;
use dco_analysis::{analyze_program, cost, has_errors, plan_rule, unsat};
use dco_analysis::{AnalysisOptions, Diagnostic, Severity};
use dco_core::guard::{run_guarded, EvalError as GuardError, GuardLimits, GuardStats};
use dco_core::prelude::Database;
use dco_logic::{DatalogParseError, Formula, ProgramSource};
use std::collections::BTreeSet;
use std::fmt;

/// How to run a program.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deadline and budgets; intersected with the cost model's defaults,
    /// so they can only tighten them. A fault plan armed here (chaos
    /// testing) is kept.
    pub limits: GuardLimits,
    /// Stratified instead of inflationary semantics.
    pub stratified: bool,
    /// Engine configuration.
    pub engine: EngineConfig,
}

/// Why a run produced no fixpoint.
#[derive(Debug)]
pub enum RunError {
    /// The program text did not parse.
    Parse(DatalogParseError),
    /// Static analysis found error-severity problems; nothing was
    /// evaluated. Carries every diagnostic, warnings included.
    Rejected(Vec<Diagnostic>),
    /// A semantic error the engine found (bad input, stage limit).
    Invalid(EngineError),
    /// The guard tripped or a panic was contained.
    Fault(GuardError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "parse error: {e}"),
            RunError::Rejected(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                writeln!(
                    f,
                    "program rejected by static analysis ({errors} error(s)):"
                )?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            RunError::Invalid(e) => write!(f, "invalid program or input: {e}"),
            RunError::Fault(e) => write!(f, "evaluation fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A fixpoint and what it cost.
#[derive(Debug, Clone)]
pub struct RunAnswer {
    /// The fixpoint database over EDB ∪ IDB.
    pub database: Database,
    /// Engine statistics, one entry per stratum (one entry in all under
    /// the inflationary semantics).
    pub strata: Vec<EngineStats>,
    /// Non-fatal analyzer findings.
    pub warnings: Vec<Diagnostic>,
    /// Number of statically dead rules dropped before evaluation.
    pub pruned_rules: usize,
    /// The guard's final progress counters.
    pub guard: GuardStats,
}

/// Run `program` on `input` through the pipeline described in the module
/// docs.
pub fn run_program(
    program: &(impl ProgramSource + ?Sized),
    input: &Database,
    opts: &RunOptions,
) -> Result<RunAnswer, RunError> {
    let program = program.program().map_err(RunError::Parse)?;
    let analysis = if opts.stratified {
        AnalysisOptions::default()
    } else {
        AnalysisOptions::inflationary()
    };
    let warnings = analyze_program(&program, Some(input.schema()), &analysis);
    if has_errors(&warnings) {
        return Err(RunError::Rejected(warnings));
    }
    let (program, pruned_rules) = if opts.stratified {
        (program.into_owned(), 0)
    } else {
        prune_dead_rules(&program)
    };
    let program = plan_program(&program, input);
    let limits = opts
        .limits
        .clone()
        .tightened(&default_limits(&program, input));
    let guarded = run_guarded(limits, || {
        if opts.stratified {
            run_stratified_with(&program, input, &opts.engine).map(|r| (r.database, r.stats))
        } else {
            run_with(&program, input, &opts.engine)
                .map(|r| (r.database, vec![r.stats]))
                .map_err(StratifyError::Engine)
        }
    })
    .map_err(RunError::Fault)?;
    let (database, strata) = guarded.value.map_err(|e| match e {
        StratifyError::Engine(e) => RunError::Invalid(e),
        // The strict analyzer profile rejects negation cycles (DCO301)
        // before the engine could find one.
        cycle @ StratifyError::NegativeCycle(_) => {
            RunError::Invalid(EngineError::BadInput(cycle.to_string()))
        }
    })?;
    Ok(RunAnswer {
        database,
        strata,
        warnings,
        pruned_rules,
        guard: guarded.stats,
    })
}

/// Drop rules with statically-unsatisfiable bodies. A head predicate is
/// never dropped entirely: if *all* its rules are dead they are kept, so
/// the predicate stays defined (as empty) for rules that reference it.
fn prune_dead_rules(program: &Program) -> (Program, usize) {
    let dead: Vec<bool> = program
        .rules
        .iter()
        .map(unsat::rule_body_is_unsat)
        .collect();
    let live_heads: BTreeSet<&str> = program
        .rules
        .iter()
        .zip(&dead)
        .filter(|(_, &d)| !d)
        .map(|(r, _)| r.head.as_str())
        .collect();
    let kept: Vec<_> = program
        .rules
        .iter()
        .zip(&dead)
        .filter(|(r, &d)| !d || !live_heads.contains(r.head.as_str()))
        .map(|(r, _)| r.clone())
        .collect();
    let pruned = program.rules.len() - kept.len();
    if pruned == 0 {
        return (program.clone(), 0);
    }
    match Program::new(kept) {
        Ok(p) => (p, pruned),
        // Validation of a subset of a valid program cannot fail, but fall
        // back to the original rather than panic.
        Err(_) => (program.clone(), 0),
    }
}

/// Reorder every rule body by the input database's statistics (literal
/// order is join order under the bottom-up engine). Planning permutes
/// literals only — heads, variables, and source lines are untouched — so
/// the fixpoint is unchanged; the property test in `dco-bench` holds the
/// engines to that.
fn plan_program(program: &Program, input: &Database) -> Program {
    let stats = DbStats::of_database(input);
    let rules: Vec<_> = program.rules.iter().map(|r| plan_rule(r, &stats)).collect();
    // A permutation of valid rules revalidates; keep the original if not.
    Program::new(rules).unwrap_or_else(|_| program.clone())
}

/// Guard budgets from the static cost model: the predicted cell count over
/// the combined constant set of database and program, with the widest
/// rule body's variable count.
fn default_limits(program: &Program, input: &Database) -> GuardLimits {
    let mut constants = input.constants();
    let mut widest = 0usize;
    for r in &program.rules {
        let body = Formula::And(r.body.iter().map(Literal::to_formula).collect());
        constants.extend(cost::constants_of_formula(&body));
        widest = widest.max(cost::all_vars(&body).len().max(r.head_vars.len()));
    }
    cost::suggested_limits(constants.len(), widest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use dco_core::guard::EvalErrorKind;
    use dco_core::prelude::*;
    use std::time::Duration;

    const TC: &str = "tc(x, y) :- e(x, y).\ntc(x, y) :- tc(x, z), e(z, y).\n";

    fn edges() -> Database {
        chain_db(3)
    }

    fn chain_db(n: i64) -> Database {
        let e = GeneralizedRelation::from_points(
            2,
            (1..n)
                .map(|i| vec![rat(i as i128, 1), rat((i + 1) as i128, 1)])
                .collect::<Vec<_>>(),
        );
        Database::new(Schema::new().with("e", 2)).with("e", e)
    }

    fn v_db() -> Database {
        let v = GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)]]);
        Database::new(Schema::new().with("v", 1)).with("v", v)
    }

    fn limited(limits: GuardLimits) -> RunOptions {
        RunOptions {
            limits,
            ..RunOptions::default()
        }
    }

    fn stratified() -> RunOptions {
        RunOptions {
            stratified: true,
            ..RunOptions::default()
        }
    }

    fn rejection(err: RunError) -> Vec<Diagnostic> {
        let RunError::Rejected(diags) = err else {
            panic!("expected a rejection, got {err}");
        };
        diags
    }

    #[test]
    fn clean_program_runs() {
        let out = run_program(TC, &edges(), &RunOptions::default()).unwrap();
        assert_eq!(out.pruned_rules, 0);
        assert!(out.warnings.is_empty());
        assert!(out
            .database
            .get("tc")
            .unwrap()
            .contains_point(&[rat(1, 1), rat(3, 1)]));
    }

    #[test]
    fn arity_mismatch_rejected_before_evaluation() {
        let err = run_program("p(x) :- e(x, x, x).\n", &edges(), &RunOptions::default());
        let diags = rejection(err.unwrap_err());
        assert!(diags.iter().any(|d| d.code == "DCO102"));
    }

    #[test]
    fn dead_rule_is_pruned_without_changing_the_fixpoint() {
        let p = parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- e(x, y), x < y, y < x.\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap();
        let out = run_program(&p, &edges(), &RunOptions::default()).unwrap();
        assert_eq!(out.pruned_rules, 1);
        assert!(out.warnings.iter().any(|d| d.code == "DCO401"));
        let plain = crate::engine::run(&p, &edges()).unwrap();
        assert!(out.database.equivalent(&plain.database));
    }

    #[test]
    fn fully_dead_predicate_stays_defined() {
        // Both q rules are dead; q must still exist (empty) for p's body.
        let p = "q(x) :- v(x), x < 0, x > 1.\np(x) :- v(x), not q(x).\n";
        let out = run_program(p, &v_db(), &RunOptions::default()).unwrap();
        assert_eq!(out.pruned_rules, 0, "sole rule of q must be kept");
        assert!(out.database.get("p").unwrap().contains_point(&[rat(1, 1)]));
    }

    #[test]
    fn stratified_mode_rejects_unstratifiable_with_path() {
        let p = "a(x) :- v(x), not b(x).\nb(x) :- v(x), not a(x).\n";
        let diags = rejection(run_program(p, &v_db(), &stratified()).unwrap_err());
        let d = diags.iter().find(|d| d.code == "DCO301").unwrap();
        assert!(d.message.contains(" -> "), "cycle path: {}", d.message);
        // The inflationary semantics accepts the same program.
        assert!(run_program(p, &v_db(), &RunOptions::default()).is_ok());
    }

    #[test]
    fn unstratifiable_is_not_a_fault() {
        let p = "a(x) :- v(x), not b(x).\nb(x) :- v(x), not a(x).\n";
        let err = run_program(p, &v_db(), &stratified()).unwrap_err();
        assert!(matches!(err, RunError::Rejected(_)), "got {err}");
    }

    #[test]
    fn fault_free_guarded_run_matches_unguarded() {
        let db = chain_db(6);
        let unguarded = crate::run(&parse_program(TC).unwrap(), &db).unwrap();
        let out = run_program(TC, &db, &RunOptions::default()).unwrap();
        assert!(out.database.equivalent(&unguarded.database));
        assert_eq!(out.strata, vec![unguarded.stats]);
        assert!(out.guard.probes > 0, "fixpoint stages must hit probes");
        assert!(out.guard.stages_completed > 0);
    }

    #[test]
    fn stratified_guarded_matches_unguarded() {
        let p = "r(x, y) :- e(x, y).\n\
                 r(x, y) :- r(x, z), e(z, y).\n\
                 unreach(x, y) :- v(x), v(y), not r(x, y).\n";
        let v = GeneralizedRelation::from_points(
            1,
            (1..=3).map(|i| vec![rat(i, 1)]).collect::<Vec<_>>(),
        );
        let db = Database::new(Schema::new().with("e", 2).with("v", 1))
            .with("e", edges().get("e").unwrap().clone())
            .with("v", v);
        let unguarded = crate::run_stratified(&parse_program(p).unwrap(), &db).unwrap();
        let out = run_program(p, &db, &stratified()).unwrap();
        assert!(out.database.equivalent(&unguarded.database));
        assert_eq!(out.strata.len(), unguarded.stats.len());
    }

    #[test]
    fn tuple_budget_trips_with_partial_progress() {
        let opts = limited(GuardLimits::none().with_max_tuples(3));
        let err = run_program(TC, &chain_db(10), &opts).unwrap_err();
        let RunError::Fault(f) = err else {
            panic!("expected a fault, got {err}");
        };
        assert!(matches!(f.kind, EvalErrorKind::BudgetExceeded { .. }));
        assert!(f.stats.tuples_materialized >= 3);
    }

    #[test]
    fn deadline_trips_as_typed_fault() {
        let opts = limited(GuardLimits::none().with_deadline(Duration::ZERO));
        let err = run_program(TC, &chain_db(10), &opts).unwrap_err();
        assert!(matches!(
            err,
            RunError::Fault(GuardError {
                kind: EvalErrorKind::DeadlineExceeded { .. },
                ..
            })
        ));
    }

    #[test]
    fn semantic_errors_stay_typed() {
        // Analysis passes, but the engine's stage valve closes first.
        let opts = RunOptions {
            engine: EngineConfig {
                max_stages: 1,
                ..EngineConfig::default()
            },
            ..RunOptions::default()
        };
        let err = run_program(TC, &chain_db(6), &opts).unwrap_err();
        assert!(
            matches!(err, RunError::Invalid(EngineError::StageLimit(1))),
            "got {err}"
        );
        let err = run_program("p(x) :- ", &edges(), &RunOptions::default()).unwrap_err();
        assert!(matches!(err, RunError::Parse(_)), "got {err}");
    }
}
