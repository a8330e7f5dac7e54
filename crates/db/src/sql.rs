//! SQL front end: tokenizer, AST and recursive-descent parser.
//!
//! Covers the dialect the paper's workloads need: CREATE/DROP TABLE and
//! INDEX, INSERT (with OR REPLACE and multi-row VALUES), SELECT with
//! joins, WHERE, ORDER BY, LIMIT and simple aggregates, UPDATE, DELETE,
//! and explicit transactions. `?` placeholders bind positional parameters.

use crate::error::{DbError, Result};
use crate::value::Value;

// --- tokens -----------------------------------------------------------------

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Bare or quoted identifier (keywords included).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Real(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// Blob literal `x'…'`.
    Blob(Vec<u8>),
    /// Positional bind parameter `?`.
    Param,
    /// Single-character symbol.
    Sym(char),
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `!=` or `<>`.
    Ne,
    /// End of input.
    Eof,
}

/// Splits SQL text into tokens. Keywords stay `Ident`s (the parser matches
/// them case-insensitively).
pub fn tokenize(sql: &str) -> Result<Vec<Tok>> {
    let b = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= b.len() {
                        return Err(DbError::Parse("unterminated string".into()));
                    }
                    if b[i] == b'\'' {
                        if i + 1 < b.len() && b[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(b[i] as char);
                        i += 1;
                    }
                }
                out.push(Tok::Str(s));
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    s.push(b[i] as char);
                    i += 1;
                }
                if i >= b.len() {
                    return Err(DbError::Parse("unterminated quoted identifier".into()));
                }
                i += 1;
                out.push(Tok::Ident(s));
            }
            'x' | 'X' if i + 1 < b.len() && b[i + 1] == b'\'' => {
                i += 2;
                let start = i;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err(DbError::Parse("unterminated blob literal".into()));
                }
                let hex = &sql[start..i];
                i += 1;
                if !hex.len().is_multiple_of(2) {
                    return Err(DbError::Parse("odd-length blob literal".into()));
                }
                let mut bytes = Vec::with_capacity(hex.len() / 2);
                for j in (0..hex.len()).step_by(2) {
                    bytes.push(
                        u8::from_str_radix(&hex[j..j + 2], 16)
                            .map_err(|_| DbError::Parse("bad hex in blob literal".into()))?,
                    );
                }
                out.push(Tok::Blob(bytes));
            }
            '0'..='9' => {
                let start = i;
                let mut is_real = false;
                while i < b.len()
                    && (b[i].is_ascii_digit() || b[i] == b'.' || b[i] == b'e' || b[i] == b'E')
                {
                    if b[i] == b'.' || b[i] == b'e' || b[i] == b'E' {
                        is_real = true;
                    }
                    i += 1;
                }
                let text = &sql[start..i];
                if is_real {
                    out.push(Tok::Real(
                        text.parse()
                            .map_err(|_| DbError::Parse(format!("bad number {text}")))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        text.parse()
                            .map_err(|_| DbError::Parse(format!("bad number {text}")))?,
                    ));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(sql[start..i].to_string()));
            }
            '?' => {
                out.push(Tok::Param);
                i += 1;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Le);
                i += 2;
            }
            '>' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Ge);
                i += 2;
            }
            '<' if i + 1 < b.len() && b[i + 1] == b'>' => {
                out.push(Tok::Ne);
                i += 2;
            }
            '!' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Ne);
                i += 2;
            }
            '=' if i + 1 < b.len() && b[i + 1] == b'=' => {
                out.push(Tok::Sym('='));
                i += 2;
            }
            '(' | ')' | ',' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | '.' | ';' => {
                out.push(Tok::Sym(c));
                i += 1;
            }
            other => return Err(DbError::Parse(format!("unexpected character {other:?}"))),
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

// --- AST --------------------------------------------------------------------

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "operator names are their own documentation")]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Like,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Positional bind parameter (0-based).
    Param(usize),
    /// Column reference, optionally qualified (`t.col`).
    Col(Option<String>, String),
    /// A column reference resolved against a statement's relations:
    /// `(relation, column)` positions. The parser never produces it;
    /// planning rewrites every resolvable [`Expr::Col`] into one.
    Slot(usize, usize),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr BETWEEN lo AND hi`.
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr IN (e1, e2, ...)`.
    InList(Box<Expr>, Vec<Expr>),
    /// Aggregate call: COUNT/SUM/AVG/MIN/MAX. `None` arg = `*`,
    /// bool = DISTINCT.
    Agg(AggFn, Option<Box<Expr>>, bool),
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, reason = "function names are their own documentation")]
pub enum AggFn {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// An expression with an optional `AS` alias.
    Expr(Expr, Option<String>),
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// `AS` alias, if any.
    pub alias: Option<String>,
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColDef {
    /// Column name.
    pub name: String,
    /// Declared type text (informational, like SQLite's type affinity).
    pub decl_type: String,
    /// Declared `INTEGER PRIMARY KEY` (a rowid alias, as in SQLite).
    pub is_pk: bool,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(
    missing_docs,
    reason = "mirror of the grammar; fields named after clauses"
)]
pub enum Stmt {
    CreateTable {
        name: String,
        if_not_exists: bool,
        cols: Vec<ColDef>,
    },
    CreateIndex {
        name: String,
        if_not_exists: bool,
        table: String,
        cols: Vec<String>,
    },
    DropTable {
        name: String,
    },
    DropIndex {
        name: String,
    },
    Insert {
        table: String,
        cols: Vec<String>,
        rows: Vec<Vec<Expr>>,
        or_replace: bool,
    },
    Select {
        items: Vec<SelectItem>,
        from: Option<TableRef>,
        joins: Vec<(TableRef, Expr)>,
        where_: Option<Expr>,
        group_by: Vec<String>,
        having: Option<Expr>,
        order_by: Option<(String, bool)>, // (column, descending)
        limit: Option<u64>,
        offset: u64,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_: Option<Expr>,
    },
    Delete {
        table: String,
        where_: Option<Expr>,
    },
    Begin,
    /// `BEGIN CONCURRENT`: snapshot transaction with first-committer-wins
    /// validation at COMMIT (journal mode Off only).
    BeginConcurrent,
    Commit,
    Rollback,
}

// --- parser -----------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    params: usize,
}

/// Parses one statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Stmt> {
    let toks = tokenize(sql)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_sym(';');
    p.expect_eof()?;
    Ok(stmt)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn kw(&mut self, word: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(word) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, word: &str) -> Result<()> {
        if self.kw(word) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {word}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Sym(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {c:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            t => Err(DbError::Parse(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "trailing tokens at {:?}",
                self.peek()
            )))
        }
    }

    fn statement(&mut self) -> Result<Stmt> {
        if self.kw("CREATE") {
            if self.kw("TABLE") {
                return self.create_table();
            }
            if self.kw("INDEX") || (self.kw("UNIQUE") && self.kw("INDEX")) {
                return self.create_index();
            }
            return Err(DbError::Parse(
                "expected TABLE or INDEX after CREATE".into(),
            ));
        }
        if self.kw("DROP") {
            if self.kw("TABLE") {
                return Ok(Stmt::DropTable {
                    name: self.ident()?,
                });
            }
            if self.kw("INDEX") {
                return Ok(Stmt::DropIndex {
                    name: self.ident()?,
                });
            }
            return Err(DbError::Parse("expected TABLE or INDEX after DROP".into()));
        }
        if self.kw("INSERT") {
            return self.insert();
        }
        if self.kw("SELECT") {
            return self.select();
        }
        if self.kw("UPDATE") {
            return self.update();
        }
        if self.kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let where_ = if self.kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Delete { table, where_ });
        }
        if self.kw("BEGIN") {
            if self.kw("CONCURRENT") {
                return Ok(Stmt::BeginConcurrent);
            }
            let _ = self.kw("TRANSACTION") || self.kw("IMMEDIATE") || self.kw("EXCLUSIVE");
            return Ok(Stmt::Begin);
        }
        if self.kw("COMMIT") || self.kw("END") {
            let _ = self.kw("TRANSACTION");
            return Ok(Stmt::Commit);
        }
        if self.kw("ROLLBACK") {
            return Ok(Stmt::Rollback);
        }
        Err(DbError::Parse(format!(
            "unexpected statement start: {:?}",
            self.peek()
        )))
    }

    fn if_not_exists(&mut self) -> bool {
        let save = self.pos;
        if self.kw("IF") && self.kw("NOT") && self.kw("EXISTS") {
            true
        } else {
            self.pos = save;
            false
        }
    }

    fn create_table(&mut self) -> Result<Stmt> {
        let if_not_exists = self.if_not_exists();
        let name = self.ident()?;
        self.expect_sym('(')?;
        let mut cols = Vec::new();
        loop {
            let col_name = self.ident()?;
            let mut decl_type = String::new();
            let mut is_pk = false;
            // Soak up type tokens and constraints until , or ).
            loop {
                match self.peek() {
                    Tok::Sym(',') | Tok::Sym(')') => break,
                    Tok::Ident(s) if s.eq_ignore_ascii_case("PRIMARY") => {
                        self.pos += 1;
                        self.expect_kw("KEY")?;
                        is_pk = true;
                    }
                    Tok::Ident(s)
                        if s.eq_ignore_ascii_case("NOT")
                            || s.eq_ignore_ascii_case("NULL")
                            || s.eq_ignore_ascii_case("UNIQUE")
                            || s.eq_ignore_ascii_case("DEFAULT")
                            || s.eq_ignore_ascii_case("AUTOINCREMENT") =>
                    {
                        // Constraints we accept and ignore (DEFAULT eats
                        // one following literal).
                        let is_default = s.eq_ignore_ascii_case("DEFAULT");
                        self.pos += 1;
                        if is_default {
                            self.next();
                        }
                    }
                    Tok::Ident(s) => {
                        if !decl_type.is_empty() {
                            decl_type.push(' ');
                        }
                        decl_type.push_str(s);
                        self.pos += 1;
                    }
                    Tok::Sym('(') => {
                        // Type size qualifier, e.g. VARCHAR(30).
                        self.pos += 1;
                        while !self.eat_sym(')') {
                            self.pos += 1;
                        }
                    }
                    t => return Err(DbError::Parse(format!("bad column definition at {t:?}"))),
                }
            }
            let pk_is_rowid_alias = is_pk && decl_type.eq_ignore_ascii_case("INTEGER");
            cols.push(ColDef {
                name: col_name,
                decl_type,
                is_pk: pk_is_rowid_alias,
            });
            if !self.eat_sym(',') {
                break;
            }
        }
        self.expect_sym(')')?;
        Ok(Stmt::CreateTable {
            name,
            if_not_exists,
            cols,
        })
    }

    fn create_index(&mut self) -> Result<Stmt> {
        let if_not_exists = self.if_not_exists();
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym('(')?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            let _ = self.kw("ASC") || self.kw("DESC");
            if !self.eat_sym(',') {
                break;
            }
        }
        self.expect_sym(')')?;
        Ok(Stmt::CreateIndex {
            name,
            if_not_exists,
            table,
            cols,
        })
    }

    fn insert(&mut self) -> Result<Stmt> {
        let or_replace = {
            let save = self.pos;
            if self.kw("OR") && self.kw("REPLACE") {
                true
            } else {
                self.pos = save;
                false
            }
        };
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut cols = Vec::new();
        if self.eat_sym('(') {
            loop {
                cols.push(self.ident()?);
                if !self.eat_sym(',') {
                    break;
                }
            }
            self.expect_sym(')')?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym('(')?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(',') {
                    break;
                }
            }
            self.expect_sym(')')?;
            rows.push(row);
            if !self.eat_sym(',') {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            cols,
            rows,
            or_replace,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let has_alias = self.kw("AS") || matches!(self.peek(), Tok::Ident(s) if !is_clause_kw(s));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(TableRef { table, alias })
    }

    fn select(&mut self) -> Result<Stmt> {
        let mut items = Vec::new();
        loop {
            if self.eat_sym('*') {
                items.push(SelectItem::Star);
            } else {
                let e = self.expr()?;
                let alias = if self.kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr(e, alias));
            }
            if !self.eat_sym(',') {
                break;
            }
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.kw("FROM") {
            from = Some(self.table_ref()?);
            loop {
                let save = self.pos;
                let inner = self.kw("INNER");
                if self.kw("JOIN") {
                    let t = self.table_ref()?;
                    self.expect_kw("ON")?;
                    let on = self.expr()?;
                    joins.push((t, on));
                } else if self.eat_sym(',') {
                    // Comma join with the condition in WHERE.
                    let t = self.table_ref()?;
                    joins.push((t, Expr::Lit(Value::Int(1))));
                } else {
                    if inner {
                        self.pos = save;
                    }
                    break;
                }
            }
        }
        let where_ = if self.kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.ident()?);
                if !self.eat_sym(',') {
                    break;
                }
            }
        }
        let having = if self.kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.ident()?;
            let desc = self.kw("DESC");
            let _ = self.kw("ASC");
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.kw("LIMIT") {
            match self.next() {
                Tok::Int(n) if n >= 0 => Some(n as u64),
                t => return Err(DbError::Parse(format!("bad LIMIT {t:?}"))),
            }
        } else {
            None
        };
        let offset = if self.kw("OFFSET") {
            match self.next() {
                Tok::Int(n) if n >= 0 => n as u64,
                t => return Err(DbError::Parse(format!("bad OFFSET {t:?}"))),
            }
        } else {
            0
        };
        Ok(Stmt::Select {
            items,
            from,
            joins,
            where_,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn update(&mut self) -> Result<Stmt> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym('=')?;
            sets.push((col, self.expr()?));
            if !self.eat_sym(',') {
                break;
            }
        }
        let where_ = if self.kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_,
        })
    }

    // Expression precedence: OR < AND < NOT < cmp/LIKE/BETWEEN < add < mul < unary.
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Sym('=') => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Sym('<') => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Sym('>') => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            Tok::Ident(s) if s.eq_ignore_ascii_case("LIKE") => Some(BinOp::Like),
            Tok::Ident(s) if s.eq_ignore_ascii_case("IN") => {
                self.pos += 1;
                return self.in_list(lhs, false);
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("NOT") => {
                let save = self.pos;
                self.pos += 1;
                if self.kw("IN") {
                    return self.in_list(lhs, true);
                }
                self.pos = save;
                None
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("BETWEEN") => {
                self.pos += 1;
                let lo = self.add_expr()?;
                self.expect_kw("AND")?;
                let hi = self.add_expr()?;
                return Ok(Expr::Between(Box::new(lhs), Box::new(lo), Box::new(hi)));
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let rhs = self.add_expr()?;
                Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
            }
            None => Ok(lhs),
        }
    }

    fn in_list(&mut self, lhs: Expr, negated: bool) -> Result<Expr> {
        self.expect_sym('(')?;
        let mut list = Vec::new();
        loop {
            list.push(self.expr()?);
            if !self.eat_sym(',') {
                break;
            }
        }
        self.expect_sym(')')?;
        let e = Expr::InList(Box::new(lhs), list);
        Ok(if negated { Expr::Not(Box::new(e)) } else { e })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym('+') => BinOp::Add,
                Tok::Sym('-') => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Sym('*') => BinOp::Mul,
                Tok::Sym('/') => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_sym('-') {
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn agg_fn(name: &str) -> Option<AggFn> {
        if name.eq_ignore_ascii_case("COUNT") {
            Some(AggFn::Count)
        } else if name.eq_ignore_ascii_case("SUM") {
            Some(AggFn::Sum)
        } else if name.eq_ignore_ascii_case("AVG") {
            Some(AggFn::Avg)
        } else if name.eq_ignore_ascii_case("MIN") {
            Some(AggFn::Min)
        } else if name.eq_ignore_ascii_case("MAX") {
            Some(AggFn::Max)
        } else {
            None
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Tok::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Tok::Real(r) => Ok(Expr::Lit(Value::Real(r))),
            Tok::Str(s) => Ok(Expr::Lit(Value::Text(s))),
            Tok::Blob(b) => Ok(Expr::Lit(Value::Blob(b))),
            Tok::Param => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Tok::Sym('(') => {
                let e = self.expr()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Expr::Lit(Value::Null)),
            Tok::Ident(name) => {
                if let Some(f) = Self::agg_fn(&name) {
                    if self.eat_sym('(') {
                        if self.eat_sym('*') {
                            self.expect_sym(')')?;
                            return Ok(Expr::Agg(f, None, false));
                        }
                        let distinct = self.kw("DISTINCT");
                        let arg = self.expr()?;
                        self.expect_sym(')')?;
                        return Ok(Expr::Agg(f, Some(Box::new(arg)), distinct));
                    }
                }
                if self.eat_sym('.') {
                    let col = self.ident()?;
                    Ok(Expr::Col(Some(name), col))
                } else {
                    Ok(Expr::Col(None, name))
                }
            }
            t => Err(DbError::Parse(format!(
                "unexpected token {t:?} in expression"
            ))),
        }
    }
}

#[cfg(test)]
mod group_by_tests {
    use super::*;

    #[test]
    fn parses_group_by() {
        let s = parse("SELECT tag, COUNT(*) FROM t GROUP BY tag ORDER BY tag").unwrap();
        match s {
            Stmt::Select {
                group_by, order_by, ..
            } => {
                assert_eq!(group_by, vec!["tag".to_string()]);
                assert_eq!(order_by, Some(("tag".into(), false)));
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_in_having_offset() {
        let s = parse(
            "SELECT g, COUNT(*) FROM t WHERE g IN (1, 2, 3) AND v NOT IN (9)              GROUP BY g HAVING COUNT(*) > 1 ORDER BY g LIMIT 5 OFFSET 2",
        )
        .unwrap();
        match s {
            Stmt::Select {
                where_,
                having,
                limit,
                offset,
                ..
            } => {
                assert!(having.is_some());
                assert_eq!(limit, Some(5));
                assert_eq!(offset, 2);
                let w = where_.unwrap();
                assert!(matches!(w, Expr::Bin(BinOp::And, _, _)));
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_multi_column_group_by() {
        let s = parse("SELECT a, b, SUM(v) FROM t GROUP BY a, b").unwrap();
        match s {
            Stmt::Select { group_by, .. } => {
                assert_eq!(group_by, vec!["a".to_string(), "b".to_string()]);
            }
            _ => panic!("wrong stmt"),
        }
    }
}

fn is_clause_kw(s: &str) -> bool {
    [
        "WHERE", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "SET", "VALUES", "GROUP", "AS",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

/// Simple SQL `LIKE` with `%` and `_`.
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[u8], t: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => (0..=t.len()).any(|i| rec(&p[1..], &t[i..])),
            Some(b'_') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(&c) => !t.is_empty() && t[0].eq_ignore_ascii_case(&c) && rec(&p[1..], &t[1..]),
        }
    }
    rec(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_basics() {
        let t = tokenize("SELECT a, 'it''s', 3.5, x'0aFF', ? FROM t;").unwrap();
        assert!(t.contains(&Tok::Str("it's".into())));
        assert!(t.contains(&Tok::Real(3.5)));
        assert!(t.contains(&Tok::Blob(vec![0x0A, 0xFF])));
        assert!(t.contains(&Tok::Param));
    }

    #[test]
    fn comments_are_skipped() {
        let t = tokenize("SELECT 1 -- the rest is noise\n, 2").unwrap();
        assert_eq!(t.iter().filter(|x| matches!(x, Tok::Int(_))).count(), 2);
    }

    #[test]
    fn parses_create_table() {
        let s = parse(
            "CREATE TABLE parts (id INTEGER PRIMARY KEY, name VARCHAR(30) NOT NULL, cost REAL)",
        )
        .unwrap();
        match s {
            Stmt::CreateTable { name, cols, .. } => {
                assert_eq!(name, "parts");
                assert_eq!(cols.len(), 3);
                assert!(cols[0].is_pk);
                assert_eq!(cols[1].name, "name");
                assert!(!cols[1].is_pk);
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn text_primary_key_is_not_rowid_alias() {
        let s = parse("CREATE TABLE t (k TEXT PRIMARY KEY, v INT)").unwrap();
        match s {
            Stmt::CreateTable { cols, .. } => assert!(!cols[0].is_pk),
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, ?)").unwrap();
        match s {
            Stmt::Insert {
                table,
                cols,
                rows,
                or_replace,
            } => {
                assert_eq!(table, "t");
                assert_eq!(cols, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert!(!or_replace);
                assert_eq!(rows[1][1], Expr::Param(0));
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_select_with_join_where_order_limit() {
        let s = parse(
            "SELECT t.a, u.b FROM t JOIN u ON t.id = u.tid \
             WHERE t.a > 5 AND u.b LIKE 'x%' ORDER BY a DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Stmt::Select {
                items,
                from,
                joins,
                where_,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(items.len(), 2);
                assert_eq!(from.unwrap().table, "t");
                assert_eq!(joins.len(), 1);
                assert!(where_.is_some());
                assert_eq!(order_by, Some(("a".into(), true)));
                assert_eq!(limit, Some(10));
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_aggregates() {
        let s = parse("SELECT COUNT(*), SUM(x), COUNT(DISTINCT y) FROM t").unwrap();
        match s {
            Stmt::Select { items, .. } => {
                assert_eq!(items.len(), 3);
                assert!(matches!(
                    items[0],
                    SelectItem::Expr(Expr::Agg(AggFn::Count, None, false), _)
                ));
                assert!(matches!(
                    items[2],
                    SelectItem::Expr(Expr::Agg(AggFn::Count, Some(_), true), _)
                ));
            }
            _ => panic!("wrong stmt"),
        }
    }

    #[test]
    fn parses_update_delete_tx() {
        assert!(matches!(
            parse("UPDATE t SET a = a + 1 WHERE id = 3").unwrap(),
            Stmt::Update { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM t WHERE a BETWEEN 1 AND 5").unwrap(),
            Stmt::Delete { .. }
        ));
        assert!(matches!(parse("BEGIN TRANSACTION").unwrap(), Stmt::Begin));
        assert!(matches!(parse("COMMIT;").unwrap(), Stmt::Commit));
        assert!(matches!(parse("ROLLBACK").unwrap(), Stmt::Rollback));
    }

    #[test]
    fn parses_begin_concurrent() {
        assert!(matches!(
            parse("BEGIN CONCURRENT").unwrap(),
            Stmt::BeginConcurrent
        ));
        assert!(matches!(
            parse("begin concurrent;").unwrap(),
            Stmt::BeginConcurrent
        ));
        // The modifier must not swallow plain BEGIN variants.
        assert!(matches!(parse("BEGIN IMMEDIATE").unwrap(), Stmt::Begin));
        assert!(matches!(parse("BEGIN").unwrap(), Stmt::Begin));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELEC 1").is_err());
        assert!(parse("INSERT INTO").is_err());
        assert!(parse("CREATE TABLE t (").is_err());
        assert!(tokenize("SELECT 'oops").is_err());
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  ==  a = 1 OR ((b = 2) AND (c = 3))
        let e = match parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap() {
            Stmt::Select { where_, .. } => where_.unwrap(),
            _ => panic!(),
        };
        match e {
            Expr::Bin(BinOp::Or, _, rhs) => {
                assert!(matches!(*rhs, Expr::Bin(BinOp::And, _, _)));
            }
            _ => panic!("OR should be the top operator"),
        }
    }

    #[test]
    fn like_matching() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "ABC"));
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(!like_match("a%", "b"));
    }
}
