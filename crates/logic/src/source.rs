//! What the query pipelines accept: query text, or the AST it parses to.
//!
//! A caller that already holds the AST (the store keys its prepared cache
//! on the parsed formula) hands it over as is; text is parsed on the way
//! in, and a parse failure becomes the pipeline's `Parse` error.

use crate::datalog::{parse_program, DatalogParseError, Program};
use crate::parser::{parse_formula, ParseError};
use crate::Formula;
use std::borrow::Cow;

/// A formula, or text that parses to one.
pub trait FormulaSource {
    /// The formula, parsed if need be.
    fn formula(&self) -> Result<Cow<'_, Formula>, ParseError>;
}

impl FormulaSource for str {
    fn formula(&self) -> Result<Cow<'_, Formula>, ParseError> {
        parse_formula(self).map(Cow::Owned)
    }
}

impl FormulaSource for String {
    fn formula(&self) -> Result<Cow<'_, Formula>, ParseError> {
        self.as_str().formula()
    }
}

impl FormulaSource for Formula {
    fn formula(&self) -> Result<Cow<'_, Formula>, ParseError> {
        Ok(Cow::Borrowed(self))
    }
}

/// A Datalog¬ program, or text that parses to one.
pub trait ProgramSource {
    /// The program, parsed if need be.
    fn program(&self) -> Result<Cow<'_, Program>, DatalogParseError>;
}

impl ProgramSource for str {
    fn program(&self) -> Result<Cow<'_, Program>, DatalogParseError> {
        parse_program(self).map(Cow::Owned)
    }
}

impl ProgramSource for String {
    fn program(&self) -> Result<Cow<'_, Program>, DatalogParseError> {
        self.as_str().program()
    }
}

impl ProgramSource for Program {
    fn program(&self) -> Result<Cow<'_, Program>, DatalogParseError> {
        Ok(Cow::Borrowed(self))
    }
}
