//! The SQL frontend: lexer, parser, AST and planner.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::{Query, SelectStmt, SourceAnnotation, SqlExpr, TableRef};
pub use parser::{parse, ParseError, MAX_NESTING_DEPTH};
pub use planner::{lower_scalar, plan_query, plan_schema, RejectAnnotations, SourceResolver};
