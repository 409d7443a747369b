//! # dco — Dense-Order Constraint Databases
//!
//! A from-scratch Rust implementation of the system described in
//! *Dense-Order Constraint Databases* (Stéphane Grumbach and Jianwen Su,
//! PODS 1995): infinite databases finitely represented by dense-order
//! constraints over the rationals, with the full query-language stack the
//! paper studies.
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | Rationals, generalized relations, QE, cells, algebra | [`core`] | §2–§3 |
//! | Formula AST and parser | [`logic`] | §4 |
//! | FO evaluation (closed form, AC⁰ data complexity) | [`fo`] | §4 |
//! | FO+ with linear constraints (Fourier–Motzkin) | [`linear`] | §4, Thm 4.1–4.3 |
//! | Inflationary Datalog¬ (= PTIME, Thm 4.4) | [`datalog`] | §4 |
//! | Complex objects and C-CALC | [`complex`] | §5 |
//! | EF games for the inexpressibility results | [`ef`] | Thm 4.2–4.3 |
//! | Standard encodings, integer homeomorphism | [`encoding`] | §3–§4 |
//! | Regions, topology, region connectivity | [`geo`] | §2, Thm 4.3 |
//! | Static query analysis & lint pass | [`analysis`] | — |
//! | Metrics, per-query tracing, slow-query log | [`obs`] | — |
//! | Durable store: WAL, snapshots, query server | [`store`] | §3 |
//!
//! ## Quickstart
//!
//! ```
//! use dco::prelude::*;
//!
//! // The paper's running example: a triangle as one generalized tuple.
//! let triangle = GeneralizedRelation::from_raw(2, vec![
//!     RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
//!     RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
//!     RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
//! ]);
//! let db = Database::new(Schema::new().with("R", 2)).with("R", triangle);
//!
//! // FO query, evaluated bottom-up in closed form:
//! let q = dco::fo::eval_str(&db, "exists y . (R(x, y) & x < y)").unwrap();
//! assert!(q.relation.contains_point(&[rat(3, 1)]));
//! ```
//!
//! ## Query pipelines
//!
//! Each language has one analyzed, guarded entry point — [`fo::query`],
//! [`linear::query_linear`], [`datalog::run_program`] — that runs the
//! [`analysis`] lint pass first, plans by the database statistics, and
//! evaluates under a runtime guard ([`core::guard`]) whose budgets come
//! from the statistics and can only be tightened by the caller. Bad
//! queries are rejected with span-carrying diagnostics; deadlines,
//! budgets, cancellation, overflow and contained panics come back as a
//! typed fault, never a process abort. A fault-free run returns exactly
//! the bare evaluator's result plus [`core::guard::GuardStats`]:
//!
//! ```
//! use dco::prelude::*;
//! use std::time::Duration;
//!
//! let db = Database::new(Schema::new().with("e", 2));
//!
//! // Arity mismatch: rejected up front, never evaluated.
//! let err = query_fo(&db, None, "e(x, y, z)", &QueryOptions::default()).unwrap_err();
//! let QueryError::Rejected(diags) = err else { unreachable!() };
//! assert_eq!(diags[0].code, "DCO102");
//!
//! // Fault-free: the bare evaluator's answer, plus the guard's counters.
//! let out = query_fo(&db, None, "exists x . (0 < x & x < 1)", &QueryOptions::default()).unwrap();
//! assert_eq!(out.result.as_bool(), Some(true));
//!
//! // A zero deadline trips deterministically with a typed error.
//! let opts = QueryOptions {
//!     limits: GuardLimits::none().with_deadline(Duration::ZERO),
//!     ..QueryOptions::default()
//! };
//! let err = query_fo(&db, None, "exists x . (0 < x & x < 1)", &opts).unwrap_err();
//! assert!(matches!(
//!     err,
//!     QueryError::Fault {
//!         error: GuardError {
//!             kind: GuardErrorKind::DeadlineExceeded { .. },
//!             ..
//!         },
//!         ..
//!     }
//! ));
//!
//! // A statically-dead rule body is pruned before the fixpoint runs.
//! let p = "tc(x,y) :- e(x,y).\n\
//!          tc(x,y) :- e(x,y), x < y, y < x.\n";
//! let out = run_program(p, &db, &RunOptions::default()).unwrap();
//! assert_eq!(out.pruned_rules, 1); // warning DCO401, line 2
//! ```

#![warn(missing_docs)]

pub use dco_analysis as analysis;
pub use dco_complex as complex;
pub use dco_core as core;
pub use dco_datalog as datalog;
pub use dco_ef as ef;
pub use dco_encoding as encoding;
pub use dco_fo as fo;
pub use dco_geo as geo;
pub use dco_linear as linear;
pub use dco_logic as logic;
pub use dco_obs as obs;
pub use dco_store as store;

/// One-stop import surface for applications.
pub mod prelude {
    pub use dco_analysis::{
        analyze_formula, analyze_program, has_errors, AnalysisOptions, Diagnostic, Severity,
    };
    pub use dco_core::prelude::*;
    pub use dco_datalog::{parse_program, run as run_datalog, run_program, RunError, RunOptions};
    pub use dco_fo::{
        eval as eval_fo, eval_str as eval_fo_str, query as query_fo, EvalError, QueryError,
        QueryOptions,
    };
    pub use dco_linear::{
        eval_linear, eval_linear_str, query_linear, LinQueryError, LinQueryOptions,
    };
    pub use dco_logic::{parse_formula, Formula};
    pub use dco_store::{serve, Client, Store, StoreError, StoreOptions};
}
