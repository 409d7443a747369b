//! # dco-logic — formula AST and parser
//!
//! The shared first-order syntax for the query languages of *Dense-Order
//! Constraint Databases* (Grumbach & Su, PODS 1995): FO (dense-order atoms)
//! and FO+ (linear atoms with built-in addition). Datalog¬ rule bodies and
//! the C-CALC calculus reuse these atoms and terms.
//!
//! ```
//! use dco_logic::parse_formula;
//!
//! let f = parse_formula("exists y . (R(x, y) & x < y)").unwrap();
//! assert!(f.is_dense_order());
//! assert_eq!(f.quantifier_rank(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod datalog;
pub mod parser;
pub mod source;
pub mod transform;

pub use ast::{ArgTerm, Formula, LinExpr};
pub use datalog::{parse_program, DatalogParseError, Literal, Program, ProgramError, Rule};
pub use parser::{parse_formula, ParseError};
pub use source::{FormulaSource, ProgramSource};
pub use transform::{from_prenex, prenex_rank, to_nnf, to_prenex, Quantifier};
