//! # dco-linear — FO+ over dense-order constraint databases
//!
//! The linear-constraint layer of *Dense-Order Constraint Databases*
//! (Grumbach & Su, PODS 1995): FO with a built-in addition (`FO+`),
//! evaluated bottom-up in closed form via Fourier–Motzkin elimination.
//! §4 of the paper: FO+ has NC data complexity in general and uniform AC⁰
//! over integer-defined inputs (Theorem 4.1), yet cannot express graph or
//! region connectivity (Theorems 4.2–4.3).
//!
//! ```
//! use dco_core::prelude::*;
//! use dco_linear::eval_linear_str;
//!
//! let db = Database::new(Schema::new());
//! // Density of Q in FO+ clothing: every pair has a midpoint.
//! let q = eval_linear_str(&db, "forall x y . exists m . m + m = x + y").unwrap();
//! assert_eq!(q.as_bool(), Some(true));
//! ```

#![warn(missing_docs)]

pub mod atom;
pub mod eval;
pub mod pipeline;
pub mod relation;
pub mod tuple;

pub use atom::{LinAtom, NormalizedAtom};
pub use eval::{eval_linear, eval_linear_str, LinEvalError, LinQueryResult};
pub use pipeline::{query_linear, LinAnswer, LinQueryError, LinQueryOptions};
pub use relation::LinRelation;
pub use tuple::LinTuple;
