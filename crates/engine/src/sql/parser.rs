//! Recursive-descent SQL parser.

use crate::error::{EngineError, Result};
use crate::sql::ast::*;
use crate::sql::token::{tokenize, Sym, Token};
use crate::value::Value;

/// Parse a single SELECT statement (optionally terminated by `;`).
pub fn parse_query(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.eat_symbol(Sym::Semicolon); // optional trailing semicolon
    if !p.at_end() {
        return Err(EngineError::parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume a keyword (case-insensitive) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(EngineError::parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(EngineError::parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => {
                if is_reserved(&s) {
                    Err(EngineError::parse(format!(
                        "reserved word '{s}' used as identifier"
                    )))
                } else {
                    Ok(s.to_ascii_lowercase())
                }
            }
            other => Err(EngineError::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let select = self.select_list()?;
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        if self.eat_symbol(Sym::Comma) || self.peek_kw("join") || self.peek_kw("inner") {
            return Err(EngineError::parse(
                "a query block reads one table: comma and JOIN forms are not supported",
            ));
        }
        let predicates = if self.eat_kw("where") {
            split_conjuncts(self.expr()?)
        } else {
            Vec::new()
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(EngineError::parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            select,
            from,
            predicates,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.eat_symbol(Sym::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else if let Some(Token::Ident(s)) = self.peek() {
                    // bare alias, unless it is a clause keyword
                    if !is_reserved(s) {
                        Some(self.ident()?)
                    } else {
                        None
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let alias = if self.eat_kw("as") {
            self.ident()?
        } else if let Some(Token::Ident(s)) = self.peek() {
            if !is_reserved(s) {
                self.ident()?
            } else {
                table.clone()
            }
        } else {
            table.clone()
        };
        Ok(TableRef { table, alias })
    }

    // ----- expression grammar, lowest to highest precedence -----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            })
        } else if self.peek_kw("in")
            || self.peek_kw("between")
            || self.peek_kw("like")
            || (self.peek_kw("not")
                && matches!(self.peek2(), Some(Token::Ident(s))
                    if s.eq_ignore_ascii_case("in")
                        || s.eq_ignore_ascii_case("between")
                        || s.eq_ignore_ascii_case("like")))
        {
            let negated = self.eat_kw("not");
            if self.eat_kw("in") {
                self.expect_symbol(Sym::LParen)?;
                if self.peek_kw("select") {
                    let q = self.query()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok(Expr::InSubquery {
                        expr: Box::new(left),
                        query: Box::new(q),
                        negated,
                    })
                } else {
                    // Value list: desugar to an OR chain (SQL three-valued
                    // logic falls out of OR/EQ semantics).
                    let mut items = Vec::new();
                    loop {
                        items.push(self.expr()?);
                        if !self.eat_symbol(Sym::Comma) {
                            break;
                        }
                    }
                    self.expect_symbol(Sym::RParen)?;
                    let mut chain: Option<Expr> = None;
                    for item in items {
                        let eq = Expr::Binary {
                            op: BinOp::Eq,
                            left: Box::new(left.clone()),
                            right: Box::new(item),
                        };
                        chain = Some(match chain {
                            None => eq,
                            Some(c) => Expr::Binary {
                                op: BinOp::Or,
                                left: Box::new(c),
                                right: Box::new(eq),
                            },
                        });
                    }
                    let e = chain
                        .ok_or_else(|| EngineError::parse("IN () requires at least one value"))?;
                    Ok(if negated {
                        Expr::Unary {
                            op: UnaryOp::Not,
                            expr: Box::new(e),
                        }
                    } else {
                        e
                    })
                }
            } else if self.eat_kw("between") {
                // e BETWEEN a AND b  ⇒  e >= a AND e <= b
                let lo = self.add_expr()?;
                self.expect_kw("and")?;
                let hi = self.add_expr()?;
                let ge = Expr::Binary {
                    op: BinOp::GtEq,
                    left: Box::new(left.clone()),
                    right: Box::new(lo),
                };
                let le = Expr::Binary {
                    op: BinOp::LtEq,
                    left: Box::new(left),
                    right: Box::new(hi),
                };
                let both = Expr::Binary {
                    op: BinOp::And,
                    left: Box::new(ge),
                    right: Box::new(le),
                };
                Ok(if negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                })
            } else {
                self.expect_kw("like")?;
                match self.advance() {
                    Some(Token::Str(pattern)) => Ok(Expr::Like {
                        expr: Box::new(left),
                        pattern,
                        negated,
                    }),
                    other => Err(EngineError::parse(format!(
                        "LIKE expects a string literal pattern, found {other:?}"
                    ))),
                }
            }
        } else if self.peek_kw("is") {
            // IS [NOT] NULL sugar: rewritten to equality against NULL is not
            // possible under three-valued logic, so expose a function form.
            self.pos += 1;
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let f = Expr::Func {
                name: "is_null".into(),
                args: vec![left],
                star: false,
                distinct: false,
            };
            Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(f),
                }
            } else {
                f
            })
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_symbol(Sym::Minus) {
            let inner = self.unary_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            })
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                if self.peek_kw("select") {
                    let q = self.query()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok(Expr::Subquery(Box::new(q)))
                } else {
                    let e = self.expr()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("exists") => {
                self.pos += 1;
                self.expect_symbol(Sym::LParen)?;
                let q = self.query()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(Expr::Exists(Box::new(q)))
            }
            Some(Token::Ident(_)) => {
                // function call, qualified column, or bare column
                if self.peek2() == Some(&Token::Symbol(Sym::LParen)) {
                    let name = match self.advance() {
                        Some(Token::Ident(s)) => s.to_ascii_lowercase(),
                        _ => unreachable!(),
                    };
                    self.expect_symbol(Sym::LParen)?;
                    if self.eat_symbol(Sym::Star) {
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(Expr::Func {
                            name,
                            args: vec![],
                            star: true,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.eat_symbol(Sym::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(Sym::Comma) {
                                break;
                            }
                        }
                        self.expect_symbol(Sym::RParen)?;
                    }
                    Ok(Expr::Func {
                        name,
                        args,
                        star: false,
                        distinct,
                    })
                } else {
                    let first = self.ident()?;
                    if self.eat_symbol(Sym::Dot) {
                        let col = self.ident()?;
                        Ok(Expr::Column {
                            table: Some(first),
                            name: col,
                        })
                    } else {
                        Ok(Expr::Column {
                            table: None,
                            name: first,
                        })
                    }
                }
            }
            other => Err(EngineError::parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

/// Split a predicate on top-level AND into conjuncts.
pub fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut v = split_conjuncts(*left);
            v.extend(split_conjuncts(*right));
            v
        }
        other => vec![other],
    }
}

fn is_reserved(word: &str) -> bool {
    matches!(
        word.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "having"
            | "order"
            | "limit"
            | "join"
            | "inner"
            | "on"
            | "as"
            | "and"
            | "or"
            | "not"
            | "null"
            | "is"
            | "asc"
            | "desc"
            | "in"
            | "between"
            | "like"
            | "exists"
            | "distinct"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let q = parse_query(
            "select * from part_1 p where p.retailprice*0.75 > \
             (select sum(l.extendedprice)/sum(l.quantity) from lineitem l \
              where l.partkey = p.partkey)",
        )
        .unwrap();
        assert_eq!(q.select, vec![SelectItem::Star]);
        assert_eq!(
            q.from,
            TableRef {
                table: "part_1".into(),
                alias: "p".into()
            }
        );
        assert_eq!(q.predicates.len(), 1);
        // The predicate is `expr > subquery`.
        match &q.predicates[0] {
            Expr::Binary {
                op: BinOp::Gt,
                right,
                ..
            } => {
                assert!(matches!(**right, Expr::Subquery(_)));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn subquery_is_correlated() {
        let q = parse_query(
            "select * from part_1 p where 1 > \
             (select count(*) from lineitem l where l.partkey = p.partkey)",
        )
        .unwrap();
        let Expr::Binary { right, .. } = &q.predicates[0] else {
            panic!()
        };
        let Expr::Subquery(sub) = &**right else {
            panic!()
        };
        // Inner predicate references outer alias p.
        let pred = &sub.predicates[0];
        let mut refs_p = false;
        pred.walk(&mut |e| {
            if let Expr::Column { table: Some(t), .. } = e {
                if t == "p" {
                    refs_p = true;
                }
            }
        });
        assert!(refs_p);
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = parse_query(
            "select k, sum(v) total from t group by k having sum(v) > 10 \
             order by total desc, k limit 5",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(5));
        match &q.select[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!(),
        }
    }

    #[test]
    fn operator_precedence() {
        let q = parse_query("select 1 + 2 * 3 from t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.select[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        match expr {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("bad tree {other:?}"),
        }
    }

    #[test]
    fn not_and_or_precedence() {
        let q = parse_query("select * from t where not a = 1 and b = 2 or c = 3").unwrap();
        // predicates from where-clause splitting: OR at top ⇒ single predicate
        assert_eq!(q.predicates.len(), 1);
        assert!(matches!(
            q.predicates[0],
            Expr::Binary { op: BinOp::Or, .. }
        ));
    }

    #[test]
    fn is_null_sugar() {
        let q = parse_query("select * from t where x is null and y is not null").unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert!(matches!(
            &q.predicates[0],
            Expr::Func { name, .. } if name == "is_null"
        ));
        assert!(matches!(
            &q.predicates[1],
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn count_star() {
        let q = parse_query("select count(*) from t").unwrap();
        match &q.select[0] {
            SelectItem::Expr {
                expr: Expr::Func { name, star, .. },
                ..
            } => {
                assert_eq!(name, "count");
                assert!(*star);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_reserved_aliases() {
        assert!(parse_query("select * from t extra stuff here").is_err());
        assert!(parse_query("select * from").is_err());
        assert!(parse_query("select from t").is_err());
    }

    #[test]
    fn allows_trailing_semicolon() {
        assert!(parse_query("select * from t;").is_ok());
    }

    #[test]
    fn negative_numbers_and_unary_minus() {
        let q = parse_query("select -x, -(1.5) from t where x > -3").unwrap();
        assert_eq!(q.select.len(), 2);
        assert!(matches!(
            &q.predicates[0],
            Expr::Binary { op: BinOp::Gt, .. }
        ));
    }
}
