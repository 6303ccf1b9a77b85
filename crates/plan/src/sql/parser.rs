//! Recursive-descent SQL parser.

use crate::plan::SortOrder;
use crate::sql::ast::*;
use crate::sql::lexer::{lex, LexError, Token};
use std::fmt;

/// A parse failure.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Words that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "order", "limit", "on", "join", "inner", "cross", "union",
    "all", "is", "as", "and", "or", "not", "by", "having", "asc", "desc", "when", "then", "else",
    "end", "case", "between", "in", "null", "distinct", "with", "except", "left", "right", "outer",
    "exists",
];

/// How deep a query may nest: parenthesised, `NOT`, unary-sign, `CASE` and
/// function-argument expressions, subqueries, and operator chains (`a AND b
/// AND …`, `a + b + …`) by the height of the tree they build. The planner,
/// the optimizer and both executors recurse over what the parser hands
/// them, so an unbounded tree is a stack overflow — a process abort, not
/// an error. Deeper input is a [`ParseError`] naming this limit. Sized for
/// the worst consumer: a debug build's row executor on a 2 MiB test-thread
/// stack survives ~40 nested `NOT IN (SELECT …)` (two levels each).
pub const MAX_NESTING_DEPTH: usize = 32;

/// Parse one SQL query.
pub fn parse(sql: &str) -> Result<Query, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    let q = p.query()?;
    p.eat_semicolons();
    if !p.at_end() {
        return Err(ParseError::new(format!(
            "trailing input starting at `{}`",
            p.peek_text()
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current position (see [`Parser::nested`]).
    depth: usize,
    /// The deepest `depth` reached since an operator chain last reset it:
    /// how tall the subtree just parsed is ([`Parser::chain`]).
    peak: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_text(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "<eof>".into())
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Whether the next token is the given keyword (case-insensitive).
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn peek_kw_at(&self, offset: usize, kw: &str) -> bool {
        matches!(self.tokens.get(self.pos + offset), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the keyword if present.
    fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected `{}`, found `{}`",
                kw.to_uppercase(),
                self.peek_text()
            )))
        }
    }

    fn accept(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.accept(tok) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected `{tok}`, found `{}`",
                self.peek_text()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected identifier, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<eof>".into())
            ))),
        }
    }

    fn eat_semicolons(&mut self) {
        while self.accept(&Token::Semicolon) {}
    }

    fn too_deep() -> ParseError {
        ParseError::new(format!(
            "query nests deeper than {MAX_NESTING_DEPTH} levels"
        ))
    }

    /// Parse one nesting level down — every recursive descent of the
    /// grammar goes through here, so [`MAX_NESTING_DEPTH`] bounds both the
    /// parser's own recursion and the height of the tree it returns. An
    /// error aborts the whole parse, so `depth` is only restored on success.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        if self.depth > MAX_NESTING_DEPTH {
            return Err(Parser::too_deep());
        }
        let parsed = parse(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    /// A left-associative operator chain `operand (op operand)*`. The loop
    /// does not recurse, but each link puts one more node on top of the
    /// tree built so far, so the chain tracks that tree's height (in
    /// nesting levels, read off `peak`) and caps it like any other nesting.
    fn chain(
        &mut self,
        operand: fn(&mut Parser) -> Result<SqlExpr, ParseError>,
        next_op: fn(&mut Parser) -> Option<BinOp>,
    ) -> Result<SqlExpr, ParseError> {
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let mut left = operand(self)?;
        let mut height = self.peak - self.depth;
        while let Some(op) = next_op(self) {
            self.peak = self.depth;
            let right = operand(self)?;
            height = 1 + height.max(self.peak - self.depth);
            if self.depth + height > MAX_NESTING_DEPTH {
                return Err(Parser::too_deep());
            }
            left = SqlExpr::Binary(op, Box::new(left), Box::new(right));
        }
        self.peak = outer_peak.max(self.depth + height);
        Ok(left)
    }

    // ---- grammar ---------------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        self.nested(Parser::query_body)
    }

    fn query_body(&mut self) -> Result<Query, ParseError> {
        let mut selects = vec![self.select_stmt()?];
        let mut set_ops = Vec::new();
        loop {
            if self.peek_kw("union") {
                self.pos += 1;
                self.expect_kw("all")?;
                set_ops.push(SetOp::UnionAll);
            } else if self.accept_kw("except") {
                set_ops.push(if self.accept_kw("all") {
                    SetOp::ExceptAll
                } else {
                    SetOp::Except
                });
            } else {
                break;
            }
            selects.push(self.select_stmt()?);
        }
        let mut order_by = Vec::new();
        if self.accept_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let dir = if self.accept_kw("desc") {
                    SortOrder::Desc
                } else {
                    self.accept_kw("asc");
                    SortOrder::Asc
                };
                order_by.push((e, dir));
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.accept_kw("limit") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => limit = Some(n as usize),
                other => {
                    return Err(ParseError::new(format!(
                        "LIMIT expects a non-negative integer, found `{}`",
                        other
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "<eof>".into())
                    )))
                }
            }
        }
        Ok(Query {
            selects,
            set_ops,
            order_by,
            limit,
        })
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("select")?;
        let distinct = self.accept_kw("distinct");
        let mut items = vec![self.select_item()?];
        while self.accept(&Token::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.from_item()?];
        while self.accept(&Token::Comma) {
            from.push(self.from_item()?);
        }
        let where_clause = if self.accept_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.accept_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept(&Token::Comma) {
                    break;
                }
            }
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        // `*` and `t.*`
        if self.accept(&Token::Star) {
            return Ok(SelectItem {
                expr: SqlExpr::Star,
                alias: None,
            });
        }
        if let (Some(Token::Ident(q)), Some(Token::Dot), Some(Token::Star)) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem {
                expr: SqlExpr::QualifiedStar(q),
                alias: None,
            });
        }
        let expr = self.expr()?;
        let alias = self.optional_alias();
        Ok(SelectItem { expr, alias })
    }

    fn optional_alias(&mut self) -> Option<String> {
        if self.accept_kw("as") {
            return self.ident().ok();
        }
        if let Some(Token::Ident(s)) = self.peek() {
            if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                let s = s.clone();
                self.pos += 1;
                return Some(s);
            }
        }
        None
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item; not a conversion
    fn from_item(&mut self) -> Result<(TableRef, Vec<JoinClause>), ParseError> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.peek_kw("join") || (self.peek_kw("inner") && self.peek_kw_at(1, "join")) {
                self.accept_kw("inner");
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(JoinClause {
                    table,
                    on: Some(on),
                    kind: JoinKind::Inner,
                });
            } else if self.peek_kw("left") || self.peek_kw("right") {
                let kind = if self.accept_kw("left") {
                    JoinKind::Left
                } else {
                    self.pos += 1;
                    JoinKind::Right
                };
                self.accept_kw("outer");
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(JoinClause {
                    table,
                    on: Some(on),
                    kind,
                });
            } else if self.peek_kw("cross") && self.peek_kw_at(1, "join") {
                self.pos += 2;
                let table = self.table_ref()?;
                joins.push(JoinClause {
                    table,
                    on: None,
                    kind: JoinKind::Inner,
                });
            } else {
                break;
            }
        }
        Ok((base, joins))
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        if self.accept(&Token::LParen) {
            let query = self.query()?;
            self.expect(&Token::RParen)?;
            self.accept_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let annotation = if self.peek_kw("is") && !self.peek_kw_at(1, "null") {
            self.pos += 1;
            Some(self.source_annotation()?)
        } else {
            None
        };
        let alias = self.optional_alias();
        Ok(TableRef::Named {
            name,
            alias,
            annotation,
        })
    }

    fn parenthesized_ident(&mut self) -> Result<String, ParseError> {
        self.expect(&Token::LParen)?;
        let id = self.ident()?;
        self.expect(&Token::RParen)?;
        Ok(id)
    }

    fn source_annotation(&mut self) -> Result<SourceAnnotation, ParseError> {
        if self.accept_kw("ti") {
            self.expect_kw("with")?;
            self.expect_kw("probability")?;
            let probability = self.parenthesized_ident()?;
            Ok(SourceAnnotation::Ti { probability })
        } else if self.accept_kw("x") {
            self.expect_kw("with")?;
            self.expect_kw("xid")?;
            let xid = self.parenthesized_ident()?;
            self.expect_kw("altid")?;
            let altid = self.parenthesized_ident()?;
            self.expect_kw("probability")?;
            let probability = self.parenthesized_ident()?;
            Ok(SourceAnnotation::X {
                xid,
                altid,
                probability,
            })
        } else if self.accept_kw("ctable") {
            self.expect_kw("with")?;
            self.expect_kw("variables")?;
            self.expect(&Token::LParen)?;
            let mut variables = vec![self.ident()?];
            while self.accept(&Token::Comma) {
                variables.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            self.expect_kw("local")?;
            self.expect_kw("condition")?;
            let condition = self.parenthesized_ident()?;
            Ok(SourceAnnotation::CTable {
                variables,
                condition,
            })
        } else {
            Err(ParseError::new(format!(
                "expected TI, X or CTABLE after IS, found `{}`",
                self.peek_text()
            )))
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.nested(Parser::or_expr)
    }

    fn or_expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.chain(Parser::and_expr, |p| p.accept_kw("or").then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.chain(Parser::not_expr, |p| {
            p.accept_kw("and").then_some(BinOp::And)
        })
    }

    fn not_expr(&mut self) -> Result<SqlExpr, ParseError> {
        if self.accept_kw("not") {
            Ok(SqlExpr::Not(Box::new(self.nested(Parser::not_expr)?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<SqlExpr, ParseError> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.peek_kw("is") {
            self.pos += 1;
            let negated = self.accept_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN
        let negated =
            if self.peek_kw("not") && (self.peek_kw_at(1, "between") || self.peek_kw_at(1, "in")) {
                self.pos += 1;
                true
            } else {
                false
            };
        if self.accept_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(SqlExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_kw("in") {
            self.expect(&Token::LParen)?;
            if self.peek_kw("select") {
                let query = self.query()?;
                self.expect(&Token::RParen)?;
                return Ok(SqlExpr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.accept(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(ParseError::new("dangling NOT before predicate"));
        }
        // Comparison operators.
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(SqlExpr::Binary(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr, ParseError> {
        self.chain(Parser::multiplicative, |p| {
            let op = match p.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => return None,
            };
            p.pos += 1;
            Some(op)
        })
    }

    fn multiplicative(&mut self) -> Result<SqlExpr, ParseError> {
        self.chain(Parser::unary, |p| {
            let op = match p.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => return None,
            };
            p.pos += 1;
            Some(op)
        })
    }

    fn unary(&mut self) -> Result<SqlExpr, ParseError> {
        if self.accept(&Token::Minus) {
            let inner = self.nested(Parser::unary)?;
            return Ok(match inner {
                SqlExpr::Int(i) => SqlExpr::Int(-i),
                SqlExpr::Float(x) => SqlExpr::Float(-x),
                other => SqlExpr::Binary(BinOp::Sub, Box::new(SqlExpr::Int(0)), Box::new(other)),
            });
        }
        if self.accept(&Token::Plus) {
            return self.nested(Parser::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(SqlExpr::Int(i))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(SqlExpr::Float(x))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Str(s))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Star) => {
                self.pos += 1;
                Ok(SqlExpr::Star)
            }
            Some(Token::Ident(word)) => {
                let lower = word.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.pos += 1;
                        Ok(SqlExpr::Null)
                    }
                    "true" => {
                        self.pos += 1;
                        Ok(SqlExpr::Bool(true))
                    }
                    "false" => {
                        self.pos += 1;
                        Ok(SqlExpr::Bool(false))
                    }
                    "case" => self.case_expr(),
                    // `EXISTS (SELECT ...)` — before the function-call
                    // check, which the `(` would otherwise trigger.
                    "exists" if self.tokens.get(self.pos + 1) == Some(&Token::LParen) => {
                        self.pos += 2;
                        let query = self.query()?;
                        self.expect(&Token::RParen)?;
                        Ok(SqlExpr::Exists(Box::new(query)))
                    }
                    _ => {
                        // Function call?
                        if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                            self.pos += 2;
                            let mut args = Vec::new();
                            if !self.accept(&Token::RParen) {
                                loop {
                                    if self.accept(&Token::Star) {
                                        args.push(SqlExpr::Star);
                                    } else {
                                        args.push(self.expr()?);
                                    }
                                    if !self.accept(&Token::Comma) {
                                        break;
                                    }
                                }
                                self.expect(&Token::RParen)?;
                            }
                            return Ok(SqlExpr::Func { name: lower, args });
                        }
                        // Column reference, possibly qualified.
                        self.pos += 1;
                        if self.accept(&Token::Dot) {
                            let col = self.ident()?;
                            Ok(SqlExpr::Column(format!("{word}.{col}")))
                        } else {
                            Ok(SqlExpr::Column(word))
                        }
                    }
                }
            }
            other => Err(ParseError::new(format!(
                "expected expression, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<eof>".into())
            ))),
        }
    }

    fn case_expr(&mut self) -> Result<SqlExpr, ParseError> {
        self.expect_kw("case")?;
        let operand = if self.peek_kw("when") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.accept_kw("when") {
            let w = self.expr()?;
            self.expect_kw("then")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(ParseError::new("CASE requires at least one WHEN branch"));
        }
        let otherwise = if self.accept_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(SqlExpr::Case {
            operand,
            branches,
            otherwise,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, b FROM t WHERE a < 10").unwrap();
        assert_eq!(q.selects.len(), 1);
        let s = &q.selects[0];
        assert_eq!(s.items.len(), 2);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn paper_query_q1() {
        // Figure: the paper's Q1 with CASE over IUCR codes.
        let q = parse(
            "SELECT id, case_number, \
             CASE iucr WHEN 820 THEN 'Theft' WHEN 486 THEN 'Domestic Battery' \
                       WHEN 1320 THEN 'Criminal Damage' END AS crime_type \
             FROM crime WHERE iucr = 820 OR iucr = 486 OR iucr = 1320",
        )
        .unwrap();
        let s = &q.selects[0];
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.items[2].alias.as_deref(), Some("crime_type"));
        assert!(matches!(s.items[2].expr, SqlExpr::Case { .. }));
    }

    #[test]
    fn paper_query_q2_between() {
        let q = parse(
            "SELECT id FROM crime WHERE longitude BETWEEN -87.674 AND -87.619 \
             AND latitude BETWEEN 41.892 AND 41.903",
        )
        .unwrap();
        assert!(q.selects[0].where_clause.is_some());
    }

    #[test]
    fn subqueries_and_aliases() {
        // The paper's Q5 shape: subqueries with aliases, θ-join in WHERE.
        let q = parse(
            "SELECT c.id, g.status FROM \
             (SELECT * FROM graffiti WHERE police_district = 8) g, \
             (SELECT * FROM crime WHERE district = '008') c \
             WHERE c.x < g.x + 100 AND c.x > g.x - 100",
        )
        .unwrap();
        let s = &q.selects[0];
        assert_eq!(s.from.len(), 2);
        assert!(matches!(s.from[0].0, TableRef::Subquery { .. }));
    }

    #[test]
    fn ti_annotation() {
        let q = parse("SELECT * FROM r IS TI WITH PROBABILITY (p)").unwrap();
        match &q.selects[0].from[0].0 {
            TableRef::Named {
                annotation: Some(SourceAnnotation::Ti { probability }),
                ..
            } => assert_eq!(probability, "p"),
            other => panic!("expected TI annotation, got {other:?}"),
        }
    }

    #[test]
    fn x_annotation() {
        let q =
            parse("SELECT * FROM r IS X WITH XID (tid) ALTID (aid) PROBABILITY (p) r2").unwrap();
        match &q.selects[0].from[0].0 {
            TableRef::Named {
                alias,
                annotation:
                    Some(SourceAnnotation::X {
                        xid,
                        altid,
                        probability,
                    }),
                ..
            } => {
                assert_eq!(
                    (xid.as_str(), altid.as_str(), probability.as_str()),
                    ("tid", "aid", "p")
                );
                assert_eq!(alias.as_deref(), Some("r2"));
            }
            other => panic!("expected X annotation, got {other:?}"),
        }
    }

    #[test]
    fn ctable_annotation() {
        let q = parse("SELECT * FROM r IS CTABLE WITH VARIABLES (v1, v2) LOCAL CONDITION (lc)")
            .unwrap();
        match &q.selects[0].from[0].0 {
            TableRef::Named {
                annotation:
                    Some(SourceAnnotation::CTable {
                        variables,
                        condition,
                    }),
                ..
            } => {
                assert_eq!(variables, &["v1", "v2"]);
                assert_eq!(condition, "lc");
            }
            other => panic!("expected CTABLE annotation, got {other:?}"),
        }
    }

    #[test]
    fn is_null_vs_is_ti() {
        let q = parse("SELECT * FROM r WHERE a IS NOT NULL AND b IS NULL").unwrap();
        assert!(q.selects[0].from.iter().all(|(t, _)| matches!(
            t,
            TableRef::Named {
                annotation: None,
                ..
            }
        )));
    }

    #[test]
    fn joins() {
        let q = parse("SELECT * FROM a JOIN b ON a.x = b.y CROSS JOIN c WHERE a.z > 0").unwrap();
        let (_, joins) = &q.selects[0].from[0];
        assert_eq!(joins.len(), 2);
        assert!(joins[0].on.is_some());
        assert!(joins[1].on.is_none());
    }

    #[test]
    fn union_all_order_limit() {
        let q =
            parse("SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a DESC, b LIMIT 10").unwrap();
        assert_eq!(q.selects.len(), 2);
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].1, SortOrder::Desc);
        assert_eq!(q.order_by[1].1, SortOrder::Asc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn group_by_and_aggregates() {
        let q =
            parse("SELECT dept, count(*), sum(salary) AS total FROM emp GROUP BY dept").unwrap();
        let s = &q.selects[0];
        assert_eq!(s.group_by.len(), 1);
        assert!(s.items[1].expr.contains_aggregate());
        assert_eq!(s.items[2].alias.as_deref(), Some("total"));
    }

    #[test]
    fn distinct_and_stars() {
        let q = parse("SELECT DISTINCT t.*, u.a FROM t, u").unwrap();
        let s = &q.selects[0];
        assert!(s.distinct);
        assert!(matches!(s.items[0].expr, SqlExpr::QualifiedStar(_)));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT a + b * 2 FROM t").unwrap();
        match &q.selects[0].items[0].expr {
            SqlExpr::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(**rhs, SqlExpr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn unary_minus() {
        let q = parse("SELECT -5, -a FROM t").unwrap();
        assert_eq!(q.selects[0].items[0].expr, SqlExpr::Int(-5));
        assert!(matches!(
            q.selects[0].items[1].expr,
            SqlExpr::Binary(BinOp::Sub, _, _)
        ));
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t GROUP a").is_err());
        assert!(parse("SELECT a FROM t extra garbage !").is_err());
        assert!(parse("SELECT a FROM r IS Q WITH NONSENSE (p)").is_err());
    }

    #[test]
    fn nesting_is_capped_by_tree_height() {
        let too_deep = |sql: &str| match parse(sql) {
            Err(e) => e.message.contains(&MAX_NESTING_DEPTH.to_string()),
            Ok(_) => false,
        };
        // Recursive constructs: one level each.
        let n = MAX_NESTING_DEPTH;
        assert!(too_deep(&format!(
            "SELECT {}1{} FROM t",
            "(".repeat(n),
            ")".repeat(n)
        )));
        assert!(too_deep(&format!(
            "SELECT a FROM t WHERE {}a",
            "NOT ".repeat(n)
        )));
        assert!(too_deep(&format!("SELECT {}a FROM t", "- ".repeat(n))));
        // Operator chains do not recurse in the parser, but each link adds
        // a level to the (left-deep) tree …
        let chain = |links: usize| format!("a = 1{}", " AND a = 1".repeat(links));
        assert!(parse(&format!("SELECT a FROM t WHERE {}", chain(n / 2))).is_ok());
        assert!(too_deep(&format!("SELECT a FROM t WHERE {}", chain(n))));
        assert!(too_deep(&format!("SELECT a{} FROM t", " + 1".repeat(n))));
        // … also when no single chain or parenthesis run is long: four
        // nested chains of n/2 links are 2n levels tall.
        let mut nested = chain(n / 2);
        for _ in 0..3 {
            nested = format!("({nested}){}", " AND a = 1".repeat(n / 2));
        }
        assert!(too_deep(&format!("SELECT a FROM t WHERE {nested}")));
        // Grouping the same conjuncts into a balanced tree stays shallow.
        let balanced = format!("({}) AND ({})", chain(n / 2), chain(n / 2));
        assert!(parse(&format!("SELECT a FROM t WHERE {balanced}")).is_ok());
    }
}
