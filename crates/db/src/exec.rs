//! Statement execution, in two steps.
//!
//! [`plan`] compiles a parsed `SELECT`/`INSERT`/`UPDATE`/`DELETE` against
//! the catalog, once per SQL text and schema generation (the connection
//! caches the result): table and index handles are taken, every column
//! reference that resolves becomes an [`Expr::Slot`] — `(relation,
//! column)` positions, so evaluating a row compares no names — the
//! sargable conjuncts of `WHERE` are set aside for the access path, and an
//! `outer.col = inner.col` conjunct of a join's `ON` is set aside for the
//! probe. A reference that does not resolve stays an [`Expr::Col`] and is
//! an error only if a row ever evaluates it, as it always was.
//!
//! [`run`] executes a plan: access-path choice per table (rowid lookup,
//! rowid range, index prefix scan, full scan), joins, filtering,
//! grouping and aggregates, ordering, projection, and the DML write paths
//! with index maintenance. It allocates per result row, not per cell and
//! not per candidate pair.
//!
//! A join scans its inner relation exactly once, in full, whatever `ON`
//! says — the pager sees the same pages in the same order for every join
//! shape. With an equality conjunct the inner rows are sorted by join
//! key once, each outer tuple looks its key up, and `ON` runs on the rows
//! found. Without one, `ON` runs on the cross product: SQLite's nested
//! loop (§6.3.2), the same loop over every row. Both emit the same tuples
//! in the same order: outer-major, inner rows in scan order.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use xftl_ftl::BlockDevice;

use crate::btree;
use crate::catalog::{Catalog, IndexInfo, TableInfo};
use crate::error::{DbError, Result};
use crate::pager::Pager;
use crate::record::{
    decode_record, encode_index_key, encode_index_prefix, encode_record, index_key_rowid,
};
use crate::sql::{like_match, AggFn, BinOp, Expr, SelectItem, Stmt, TableRef};
use crate::value::Value;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT output.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Vec<Value>>,
    },
    /// DML/DDL completion.
    Done {
        /// Rows inserted/updated/deleted.
        rows_affected: u64,
    },
}

impl ExecOutcome {
    /// Rows affected by DML (0 for SELECT).
    pub fn affected(&self) -> u64 {
        match self {
            ExecOutcome::Rows { .. } => 0,
            ExecOutcome::Done { rows_affected } => *rows_affected,
        }
    }
}

const DONE: ExecOutcome = ExecOutcome::Done { rows_affected: 0 };

// --- expressions ----------------------------------------------------------------

/// One row per joined relation.
type Tuple = Vec<Vec<Value>>;

/// Row context of an expression: the relations joined so far and, while
/// a join weighs a candidate, the inner row as one relation more.
#[derive(Clone, Copy)]
struct Row<'a> {
    head: &'a [Vec<Value>],
    tail: &'a [Value],
}

impl<'a> Row<'a> {
    const EMPTY: Row<'static> = Row {
        head: &[],
        tail: &[],
    };

    fn of(tuple: &'a [Vec<Value>]) -> Self {
        Row {
            head: tuple,
            tail: &[],
        }
    }

    fn slot(self, rel: usize, col: usize) -> Option<&'a Value> {
        match self.head.get(rel) {
            Some(row) => row.get(col),
            None if rel == self.head.len() => self.tail.get(col),
            None => None,
        }
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if matches!(a, Value::Null) || matches!(b, Value::Null) {
        return Ok(Value::Null);
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(match op {
            BinOp::Add => Value::Int(x.wrapping_add(*y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(*y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(*y)),
            BinOp::Div => {
                if *y == 0 {
                    Value::Null
                } else {
                    Value::Int(x / y)
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let num = |v: &Value| {
                v.as_f64()
                    .ok_or_else(|| DbError::Type("arithmetic on non-number".into()))
            };
            let (x, y) = (num(a)?, num(b)?);
            Ok(match op {
                BinOp::Add => Value::Real(x + y),
                BinOp::Sub => Value::Real(x - y),
                BinOp::Mul => Value::Real(x * y),
                BinOp::Div => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Real(x / y)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

fn eval(expr: &Expr, row: Row<'_>, params: &[Value]) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(i) => params
            .get(*i)
            .cloned()
            .ok_or_else(|| DbError::Schema(format!("missing bind parameter {}", i + 1))),
        Expr::Slot(rel, col) => row
            .slot(*rel, *col)
            .cloned()
            .ok_or_else(|| DbError::Schema("column outside its row context".into())),
        Expr::Col(qual, name) => Err(DbError::Unknown(match qual {
            Some(q) => format!("column {q}.{name}"),
            None => format!("column {name}"),
        })),
        Expr::Neg(e) => match eval(e, row, params)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Real(r) => Ok(Value::Real(-r)),
            Value::Null => Ok(Value::Null),
            _ => Err(DbError::Type("negation of non-number".into())),
        },
        Expr::Not(e) => Ok(Value::Int(!eval(e, row, params)?.is_truthy() as i64)),
        Expr::InList(e, list) => {
            let v = eval(e, row, params)?;
            if matches!(v, Value::Null) {
                return Ok(Value::Null);
            }
            for item in list {
                if v.sql_eq(&eval(item, row, params)?) {
                    return Ok(Value::Int(1));
                }
            }
            Ok(Value::Int(0))
        }
        Expr::Between(e, lo, hi) => {
            let v = eval(e, row, params)?;
            let lo = eval(lo, row, params)?;
            let hi = eval(hi, row, params)?;
            if matches!(v, Value::Null) {
                return Ok(Value::Null);
            }
            let ok = v.sort_cmp(&lo) != Ordering::Less && v.sort_cmp(&hi) != Ordering::Greater;
            Ok(Value::Int(ok as i64))
        }
        Expr::Bin(BinOp::And, l, r) => Ok(Value::Int(
            (eval(l, row, params)?.is_truthy() && eval(r, row, params)?.is_truthy()) as i64,
        )),
        Expr::Bin(BinOp::Or, l, r) => Ok(Value::Int(
            (eval(l, row, params)?.is_truthy() || eval(r, row, params)?.is_truthy()) as i64,
        )),
        Expr::Bin(op, l, r) => {
            let a = eval(l, row, params)?;
            let b = eval(r, row, params)?;
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &a, &b),
                BinOp::Like => match (&a, &b) {
                    (Value::Text(t), Value::Text(p)) => Ok(Value::Int(like_match(p, t) as i64)),
                    _ => Ok(Value::Int(0)),
                },
                cmp => {
                    if matches!(a, Value::Null) || matches!(b, Value::Null) {
                        return Ok(Value::Null);
                    }
                    let ord = a.sort_cmp(&b);
                    let ok = match cmp {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(ok as i64))
                }
            }
        }
        Expr::Agg(..) => Err(DbError::Schema("aggregate in row context".into())),
    }
}

// --- planning -------------------------------------------------------------------

/// A table with what a scan of it needs: the handles, and the sargable
/// `column <op> constant` conjuncts of the statement's WHERE.
#[derive(Debug)]
pub struct Access {
    info: Rc<TableInfo>,
    indexes: Vec<Rc<IndexInfo>>,
    sargs: Vec<(usize, BinOp, Expr)>,
}

/// One `JOIN`: the inner table, its `ON`, and the equality to probe by.
#[derive(Debug)]
struct Join {
    info: Rc<TableInfo>,
    on: Expr,
    equi: Option<Equi>,
}

/// An `outer.col = inner.col` conjunct of an `ON`: the outer side's
/// `(relation, column)` and the inner column.
#[derive(Debug)]
struct Equi {
    outer: (usize, usize),
    inner: usize,
}

/// ORDER BY: the sort key over a joined tuple, or — under GROUP BY — the
/// output column of that name (none: the groups keep their key order).
#[derive(Debug)]
struct Order {
    key: Expr,
    output: Option<usize>,
    desc: bool,
}

/// A compiled SELECT.
#[derive(Debug)]
pub struct Select {
    from: Option<Access>,
    joins: Vec<Join>,
    where_: Option<Expr>,
    items: Vec<SelectItem>,
    /// Output column names (`*` expanded).
    columns: Vec<String>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    order_by: Option<Order>,
    limit: Option<u64>,
    offset: u64,
}

/// A DML statement compiled against one schema generation.
#[derive(Debug)]
#[allow(
    missing_docs,
    reason = "one variant per statement kind, fields named after clauses"
)]
pub enum Plan {
    Select(Box<Select>),
    Insert {
        table: Access,
        /// Table column of each VALUES position.
        positions: Vec<usize>,
        rows: Vec<Vec<Expr>>,
        or_replace: bool,
    },
    Update {
        table: Access,
        sets: Vec<(usize, Expr)>,
        where_: Option<Expr>,
    },
    Delete {
        table: Access,
        where_: Option<Expr>,
    },
}

/// A relation as column references see it.
struct Binding<'a> {
    alias: &'a str,
    info: &'a TableInfo,
}

impl<'a> Binding<'a> {
    /// UPDATE and DELETE see their one table under its own name.
    fn of(info: &'a TableInfo) -> Self {
        Binding {
            alias: &info.name,
            info,
        }
    }
}

/// The first relation (of the named one, if qualified) with the column.
fn resolve(bindings: &[Binding<'_>], qual: Option<&str>, name: &str) -> Option<(usize, usize)> {
    for (rel, b) in bindings.iter().enumerate() {
        if qual.is_some_and(|q| !b.alias.eq_ignore_ascii_case(q)) {
            continue;
        }
        if let Some(col) = b.info.col_index(name) {
            return Some((rel, col));
        }
        if qual.is_some() {
            break;
        }
    }
    None
}

/// `expr` with every resolvable column reference turned into a slot.
fn bind(expr: &Expr, bindings: &[Binding<'_>]) -> Expr {
    let sub = |e: &Expr| Box::new(bind(e, bindings));
    match expr {
        Expr::Col(qual, name) => match resolve(bindings, qual.as_deref(), name) {
            Some((rel, col)) => Expr::Slot(rel, col),
            None => expr.clone(),
        },
        Expr::Lit(_) | Expr::Param(_) | Expr::Slot(..) => expr.clone(),
        Expr::Bin(op, l, r) => Expr::Bin(*op, sub(l), sub(r)),
        Expr::Not(e) => Expr::Not(sub(e)),
        Expr::Neg(e) => Expr::Neg(sub(e)),
        Expr::Between(e, lo, hi) => Expr::Between(sub(e), sub(lo), sub(hi)),
        Expr::InList(e, list) => {
            Expr::InList(sub(e), list.iter().map(|e| bind(e, bindings)).collect())
        }
        Expr::Agg(f, arg, distinct) => Expr::Agg(*f, arg.as_deref().map(sub), *distinct),
    }
}

/// Flattens an AND tree into its conjuncts, left to right.
fn conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Bin(BinOp::And, l, r) => {
            conjuncts(l, out);
            conjuncts(r, out);
        }
        other => out.push(other),
    }
}

fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Neg(i) => is_const(i),
        Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, l, r) => {
            is_const(l) && is_const(r)
        }
        _ => false,
    }
}

/// True if evaluating `e` can only succeed: comparisons and logic over
/// slots and literals. (Arithmetic and negation reject non-numbers, a
/// parameter may be missing, an unresolved column is an error.)
fn cannot_fail(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Slot(..) => true,
        Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, ..) => false,
        Expr::Bin(_, l, r) => cannot_fail(l) && cannot_fail(r),
        Expr::Not(e) => cannot_fail(e),
        Expr::Between(e, lo, hi) => cannot_fail(e) && cannot_fail(lo) && cannot_fail(hi),
        Expr::InList(e, list) => cannot_fail(e) && list.iter().all(cannot_fail),
        Expr::Param(_) | Expr::Col(..) | Expr::Neg(_) | Expr::Agg(..) => false,
    }
}

/// The access to `info` under a WHERE bound with `info` as relation 0.
fn access(catalog: &Catalog, info: &Rc<TableInfo>, where_: Option<&Expr>) -> Access {
    // Sargable: `column <op> constant`, either way round.
    let mut conj = Vec::new();
    if let Some(w) = where_ {
        conjuncts(w, &mut conj);
    }
    let mut sargs = Vec::new();
    for c in conj {
        let Expr::Bin(op, l, r) = c else { continue };
        let flip = |op: BinOp| match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        };
        let (col, op, value) = match (l.as_ref(), r.as_ref()) {
            (Expr::Slot(0, col), v) if is_const(v) => (*col, *op, v),
            (v, Expr::Slot(0, col)) if is_const(v) => (*col, flip(*op), v),
            _ => continue,
        };
        if matches!(
            op,
            BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ) {
            sargs.push((col, op, value.clone()));
        }
    }
    Access {
        info: Rc::clone(info),
        indexes: catalog.indexes_of(&info.name),
        sargs,
    }
}

/// The first `outer.col = inner.col` conjunct of an `ON`, if skipping
/// the pairs that fail it cannot skip an error: the conjuncts before it
/// must be unable to fail (those after it only ever ran on pairs that
/// passed it).
fn equi_of(on: &Expr, inner_rel: usize) -> Option<Equi> {
    let mut conj = Vec::new();
    conjuncts(on, &mut conj);
    for c in conj {
        if let Expr::Bin(BinOp::Eq, l, r) = c {
            if let (Expr::Slot(a, ac), Expr::Slot(b, bc)) = (l.as_ref(), r.as_ref()) {
                for (outer, inner) in [((*a, *ac), (*b, *bc)), ((*b, *bc), (*a, *ac))] {
                    if outer.0 < inner_rel && inner.0 == inner_rel {
                        return Some(Equi {
                            outer,
                            inner: inner.1,
                        });
                    }
                }
            }
        }
        if !cannot_fail(c) {
            return None;
        }
    }
    None
}

fn item_name(item: &SelectItem, idx: usize) -> String {
    match item {
        SelectItem::Star => "*".into(),
        SelectItem::Expr(Expr::Col(_, name), None) => name.clone(),
        SelectItem::Expr(_, Some(alias)) => alias.clone(),
        SelectItem::Expr(..) => format!("col{idx}"),
    }
}

/// UPDATE and DELETE: the one table and the WHERE bound to it.
fn single_table(
    catalog: &Catalog,
    table: &str,
    where_: Option<&Expr>,
) -> Result<(Access, Option<Expr>)> {
    let info = catalog.table(table)?;
    let where_ = where_.map(|w| bind(w, &[Binding::of(info)]));
    Ok((access(catalog, info, where_.as_ref()), where_))
}

fn plan_select(stmt: &Stmt, catalog: &Catalog) -> Result<Select> {
    let Stmt::Select {
        items,
        from,
        joins,
        where_,
        group_by,
        having,
        order_by,
        limit,
        offset,
    } = stmt
    else {
        unreachable!("caller matched a SELECT")
    };
    let trefs: Vec<&TableRef> = from.iter().chain(joins.iter().map(|(t, _)| t)).collect();
    let infos = trefs
        .iter()
        .map(|t| catalog.table(&t.table))
        .collect::<Result<Vec<_>>>()?;
    let bindings: Vec<Binding<'_>> = trefs
        .iter()
        .zip(&infos)
        .map(|(t, info)| Binding {
            alias: t.alias.as_deref().unwrap_or(&t.table),
            info,
        })
        .collect();
    let mut columns = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                columns.extend(infos.iter().flat_map(|t| &t.cols).map(|c| c.name.clone()));
            }
            _ => columns.push(item_name(item, i)),
        }
    }
    let where_ = where_.as_ref().map(|w| bind(w, &bindings));
    let column = |name: &String| bind(&Expr::Col(None, name.clone()), &bindings);
    Ok(Select {
        from: infos
            .first()
            .map(|info| access(catalog, info, where_.as_ref())),
        joins: joins
            .iter()
            .enumerate()
            .map(|(j, (_, on))| {
                // ON sees the relations joined so far and its own.
                let on = bind(on, &bindings[..j + 2]);
                Join {
                    info: Rc::clone(infos[j + 1]),
                    equi: equi_of(&on, j + 1),
                    on,
                }
            })
            .collect(),
        where_,
        items: items
            .iter()
            .map(|item| match item {
                SelectItem::Star => SelectItem::Star,
                SelectItem::Expr(e, alias) => SelectItem::Expr(bind(e, &bindings), alias.clone()),
            })
            .collect(),
        group_by: group_by.iter().map(column).collect(),
        having: having.as_ref().map(|h| bind(h, &bindings)),
        order_by: order_by.as_ref().map(|(col, desc)| Order {
            key: column(col),
            output: columns.iter().position(|c| c.eq_ignore_ascii_case(col)),
            desc: *desc,
        }),
        columns,
        limit: *limit,
        offset: *offset,
    })
}

fn column_of(info: &TableInfo, table: &str, col: &str) -> Result<usize> {
    info.col_index(col)
        .ok_or_else(|| DbError::Unknown(format!("{table}.{col}")))
}

/// Compiles a DML statement against `catalog`; `None` for DDL (which
/// [`run_ddl`] executes from the parse tree).
pub fn plan(stmt: &Stmt, catalog: &Catalog) -> Result<Option<Plan>> {
    Ok(Some(match stmt {
        Stmt::Select { .. } => Plan::Select(Box::new(plan_select(stmt, catalog)?)),
        Stmt::Insert {
            table,
            cols,
            rows,
            or_replace,
        } => {
            let info = catalog.table(table)?;
            let positions = if cols.is_empty() {
                (0..info.cols.len()).collect()
            } else {
                cols.iter()
                    .map(|c| column_of(info, table, c))
                    .collect::<Result<Vec<_>>>()?
            };
            Plan::Insert {
                table: access(catalog, info, None),
                positions,
                rows: rows.clone(),
                or_replace: *or_replace,
            }
        }
        Stmt::Update {
            table,
            sets,
            where_,
        } => {
            let (access, where_) = single_table(catalog, table, where_.as_ref())?;
            let bindings = [Binding::of(&access.info)];
            let sets = sets
                .iter()
                .map(|(c, e)| Ok((column_of(&access.info, table, c)?, bind(e, &bindings))))
                .collect::<Result<Vec<_>>>()?;
            Plan::Update {
                table: access,
                sets,
                where_,
            }
        }
        Stmt::Delete { table, where_ } => {
            let (table, where_) = single_table(catalog, table, where_.as_ref())?;
            Plan::Delete { table, where_ }
        }
        _ => return Ok(None),
    }))
}

// --- access paths -------------------------------------------------------------

/// Materializes a row: record columns, rowid alias filled from the key.
fn materialize(info: &TableInfo, rowid: i64, rec: &[u8]) -> Result<Vec<Value>> {
    let mut vals = decode_record(rec)?;
    vals.resize(info.cols.len(), Value::Null);
    if let Some(i) = info.rowid_alias {
        vals[i] = Value::Int(rowid);
    }
    Ok(vals)
}

/// Every row of the table with rowid in `lo..=hi`, in rowid order.
fn scan_range<D: BlockDevice>(
    pager: &mut Pager<D>,
    info: &TableInfo,
    lo: i64,
    hi: i64,
) -> Result<Vec<(i64, Vec<Value>)>> {
    let mut out = Vec::new();
    btree::table_scan_from(pager, info.root, lo, &mut |_, rowid, rec| {
        if rowid > hi {
            return Ok(false);
        }
        out.push((rowid, materialize(info, rowid, rec)?));
        Ok(true)
    })?;
    Ok(out)
}

/// Scans the table's rows using the cheapest access path the sargs
/// allow. Residual filtering is always applied by the caller.
fn scan<D: BlockDevice>(
    pager: &mut Pager<D>,
    table: &Access,
    params: &[Value],
) -> Result<Vec<(i64, Vec<Value>)>> {
    let info = &*table.info;
    // A sarg whose constant does not evaluate is no sarg.
    let sargs: Vec<(usize, BinOp, Value)> = table
        .sargs
        .iter()
        .filter_map(|(col, op, e)| Some((*col, *op, eval(e, Row::EMPTY, params).ok()?)))
        .collect();
    // 1. Rowid-alias point lookup.
    if let Some(pk) = info.rowid_alias {
        if let Some((_, _, v)) = sargs.iter().find(|s| s.0 == pk && s.1 == BinOp::Eq) {
            if let Some(rowid) = v.as_i64() {
                return match btree::table_get(pager, info.root, rowid)? {
                    Some(rec) => Ok(vec![(rowid, materialize(info, rowid, &rec)?)]),
                    None => Ok(Vec::new()),
                };
            }
        }
        // Rowid range scan.
        let mut lo = i64::MIN;
        let mut hi = i64::MAX;
        let mut ranged = false;
        for (col, op, v) in &sargs {
            let Some(v) = v.as_i64().filter(|_| *col == pk) else {
                continue;
            };
            match op {
                BinOp::Gt => lo = lo.max(v.saturating_add(1)),
                BinOp::Ge => lo = lo.max(v),
                BinOp::Lt => hi = hi.min(v.saturating_sub(1)),
                BinOp::Le => hi = hi.min(v),
                _ => continue,
            }
            ranged = true;
        }
        if ranged {
            return scan_range(pager, info, lo, hi);
        }
    }
    // 2. Index equality-prefix scan: the longest prefix wins, the oldest
    // index among equals.
    let mut best: Option<(&IndexInfo, Vec<&Value>)> = None;
    for ix in &table.indexes {
        let mut prefix = Vec::new();
        for col in &ix.col_idxs {
            match sargs.iter().find(|s| s.0 == *col && s.1 == BinOp::Eq) {
                Some((_, _, v)) => prefix.push(v),
                None => break,
            }
        }
        if !prefix.is_empty() && best.as_ref().is_none_or(|(_, p)| prefix.len() > p.len()) {
            best = Some((ix, prefix));
        }
    }
    if let Some((ix, prefix)) = best {
        let prefix = encode_index_prefix(prefix);
        let mut rowids = Vec::new();
        btree::index_scan_from(pager, ix.root, &prefix, &mut |key| {
            if !key.starts_with(&prefix) {
                return Ok(false);
            }
            rowids.push(index_key_rowid(key)?);
            Ok(true)
        })?;
        let mut out = Vec::with_capacity(rowids.len());
        for rowid in rowids {
            if let Some(rec) = btree::table_get(pager, info.root, rowid)? {
                out.push((rowid, materialize(info, rowid, &rec)?));
            }
        }
        return Ok(out);
    }
    // 3. Full scan.
    scan_range(pager, info, i64::MIN, i64::MAX)
}

// --- DML ----------------------------------------------------------------------

fn index_key(ix: &IndexInfo, row: &[Value], rowid: i64) -> Vec<u8> {
    encode_index_key(ix.col_idxs.iter().map(|&i| &row[i]), rowid)
}

/// The record stored for `row`: Null in place of the rowid alias (read
/// back from the key).
fn stored_record(info: &TableInfo, row: &mut [Value]) -> Vec<u8> {
    match info.rowid_alias {
        Some(i) => {
            let alias = std::mem::replace(&mut row[i], Value::Null);
            let rec = encode_record(row);
            row[i] = alias;
            rec
        }
        None => encode_record(row),
    }
}

fn insert_row<D: BlockDevice>(
    pager: &mut Pager<D>,
    table: &Access,
    mut row: Vec<Value>,
    or_replace: bool,
) -> Result<()> {
    let info = &*table.info;
    // Pick the rowid.
    let rowid = match info.rowid_alias.and_then(|i| row[i].as_i64()) {
        Some(explicit) => explicit,
        None => info.next_rowid.get(),
    };
    let existing = btree::table_get(pager, info.root, rowid)?;
    if existing.is_some() && !or_replace {
        return Err(DbError::Constraint(format!("{} rowid {rowid}", info.name)));
    }
    if let Some(old_rec) = existing {
        let old_row = materialize(info, rowid, &old_rec)?;
        for ix in &table.indexes {
            btree::index_delete(pager, ix.root, &index_key(ix, &old_row, rowid))?;
        }
    }
    let rec = stored_record(info, &mut row);
    btree::table_insert(pager, info.root, rowid, &rec)?;
    for ix in &table.indexes {
        btree::index_insert(pager, ix.root, &index_key(ix, &row, rowid))?;
    }
    info.next_rowid.set(info.next_rowid.get().max(rowid + 1));
    Ok(())
}

fn delete_row<D: BlockDevice>(
    pager: &mut Pager<D>,
    table: &Access,
    rowid: i64,
    row: &[Value],
) -> Result<()> {
    for ix in &table.indexes {
        btree::index_delete(pager, ix.root, &index_key(ix, row, rowid))?;
    }
    btree::table_delete(pager, table.info.root, rowid)?;
    Ok(())
}

/// The residual filter: a scan applies sargs only.
fn passes(where_: &Option<Expr>, tuple: &[Vec<Value>], params: &[Value]) -> Result<bool> {
    match where_ {
        Some(w) => Ok(eval(w, Row::of(tuple), params)?.is_truthy()),
        None => Ok(true),
    }
}

// --- SELECT -------------------------------------------------------------------

/// A join key as something to sort and group by: values equal under `=`
/// get equal keys (not the converse — two integers may share a float —
/// so `ON` still runs on every candidate). The order itself means nothing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum JoinKey<'a> {
    /// NULL equals nothing.
    Null,
    /// NaN: `sort_cmp` has no answer and says Equal, to every number. No
    /// grouping captures that; such a key is compared with every row.
    Wild,
    /// Storage class, float bits of a number, bytes of a text or blob.
    Key(u8, u64, &'a [u8]),
}

impl<'a> JoinKey<'a> {
    fn of(v: &'a Value) -> Self {
        let num = |x: f64| {
            if x.is_nan() {
                JoinKey::Wild
            } else {
                JoinKey::Key(1, (x + 0.0).to_bits(), &[]) // -0.0 = 0.0
            }
        };
        match v {
            Value::Null => JoinKey::Null,
            Value::Int(i) => num(*i as f64),
            Value::Real(r) => num(*r),
            Value::Text(s) => JoinKey::Key(2, 0, s.as_bytes()),
            Value::Blob(b) => JoinKey::Key(3, 0, b),
        }
    }
}

/// The inner rows of an equi-join sorted by join key, scan order kept
/// within a key.
struct Probe<'a> {
    order: Vec<(JoinKey<'a>, usize)>,
}

impl<'a> Probe<'a> {
    /// `None` if some inner key is [`JoinKey::Wild`].
    fn build(col: usize, rows: &'a [(i64, Vec<Value>)]) -> Option<Self> {
        let mut order = Vec::with_capacity(rows.len());
        for (i, (_, row)) in rows.iter().enumerate() {
            match JoinKey::of(&row[col]) {
                JoinKey::Null => {}
                JoinKey::Wild => return None,
                key => order.push((key, i)),
            }
        }
        order.sort_unstable();
        Some(Probe { order })
    }

    /// Positions (in scan order) of the inner rows `v` may equal; `None`
    /// if only comparing with every row can tell.
    fn candidates<'b>(&'b self, v: &'b Value) -> Option<impl Iterator<Item = usize> + 'b> {
        let key = JoinKey::of(v);
        if key == JoinKey::Wild {
            return None;
        }
        let from = self.order.partition_point(|(k, _)| *k < key);
        let same = self.order[from..]
            .iter()
            .take_while(move |(k, _)| *k == key);
        Some(same.map(|(_, i)| *i))
    }
}

#[cfg(test)]
thread_local! {
    /// (outer, inner) pairs the joins of this thread looked at, by
    /// either path.
    pub(crate) static JOIN_PAIRS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_pair() {
    #[cfg(test)]
    JOIN_PAIRS.with(|n| n.set(n.get() + 1));
}

fn join_tables<D: BlockDevice>(
    pager: &mut Pager<D>,
    base: &Access,
    joins: &[Join],
    params: &[Value],
) -> Result<Vec<Tuple>> {
    let mut tuples: Vec<Tuple> = scan(pager, base, params)?
        .into_iter()
        .map(|(_, row)| vec![row])
        .collect();
    for join in joins {
        let inner_rows = scan_range(pager, &join.info, i64::MIN, i64::MAX)?;
        let probe = join
            .equi
            .as_ref()
            .and_then(|e| Some((e, Probe::build(e.inner, &inner_rows)?)));
        let mut next = Vec::new();
        for tuple in tuples {
            // ON decides, on the rows the key can equal or on all of them.
            let mut weigh = |i: usize| -> Result<()> {
                count_pair();
                let inner = &inner_rows[i].1;
                let row = Row {
                    head: &tuple,
                    tail: inner,
                };
                if eval(&join.on, row, params)?.is_truthy() {
                    let mut t = Vec::with_capacity(tuple.len() + 1);
                    t.extend(tuple.iter().cloned());
                    t.push(inner.clone());
                    next.push(t);
                }
                Ok(())
            };
            let candidates = probe
                .as_ref()
                .and_then(|(e, p)| p.candidates(&tuple[e.outer.0][e.outer.1]));
            match candidates {
                Some(mut candidates) => candidates.try_for_each(&mut weigh)?,
                None => (0..inner_rows.len()).try_for_each(&mut weigh)?,
            }
        }
        tuples = next;
    }
    Ok(tuples)
}

fn has_aggregate(items: &[SelectItem]) -> bool {
    items
        .iter()
        .any(|it| matches!(it, SelectItem::Expr(Expr::Agg(..), _)))
}

fn sort_rows<T>(rows: &mut [T], desc: bool, key: impl Fn(&T) -> &Value) {
    rows.sort_by(|a, b| key(a).sort_cmp(key(b)));
    if desc {
        rows.reverse();
    }
}

fn window<T>(rows: &mut Vec<T>, offset: u64, limit: Option<u64>) {
    if offset > 0 {
        rows.drain(..(offset as usize).min(rows.len()));
    }
    if let Some(n) = limit {
        rows.truncate(n as usize);
    }
}

fn run_select<D: BlockDevice>(
    pager: &mut Pager<D>,
    s: &Select,
    params: &[Value],
) -> Result<ExecOutcome> {
    let tuples = match &s.from {
        Some(base) => join_tables(pager, base, &s.joins, params)?,
        None => vec![Vec::new()],
    };
    let mut kept = Vec::with_capacity(tuples.len());
    for tuple in tuples {
        if passes(&s.where_, &tuple, params)? {
            kept.push(tuple);
        }
    }

    if !s.group_by.is_empty() {
        return run_grouped(s, kept, params);
    }

    if has_aggregate(&s.items) {
        let mut out_row = Vec::with_capacity(s.items.len());
        for item in &s.items {
            let SelectItem::Expr(expr, _) = item else {
                return Err(DbError::Schema("* mixed with aggregates".into()));
            };
            out_row.push(eval_aggregate(expr, &kept, params)?);
        }
        return Ok(ExecOutcome::Rows {
            columns: s.columns.clone(),
            rows: vec![out_row],
        });
    }

    // ORDER BY before projection (the sort key may not be projected).
    if let Some(order) = &s.order_by {
        let mut keyed = Vec::with_capacity(kept.len());
        for tuple in kept {
            keyed.push((eval(&order.key, Row::of(&tuple), params)?, tuple));
        }
        sort_rows(&mut keyed, order.desc, |(key, _)| key);
        kept = keyed.into_iter().map(|(_, t)| t).collect();
    }
    window(&mut kept, s.offset, s.limit);

    // Projection.
    let mut rows = Vec::with_capacity(kept.len());
    for tuple in &kept {
        let mut out = Vec::with_capacity(s.columns.len());
        for item in &s.items {
            match item {
                SelectItem::Star => out.extend(tuple.iter().flatten().cloned()),
                SelectItem::Expr(e, _) => out.push(eval(e, Row::of(tuple), params)?),
            }
        }
        rows.push(out);
    }
    Ok(ExecOutcome::Rows {
        columns: s.columns.clone(),
        rows,
    })
}

/// GROUP BY execution: partition the kept tuples by the grouping key,
/// evaluate each select item per group (aggregates over the group's
/// tuples, other expressions against its first tuple — SQLite's
/// permissive bare-column semantics).
fn run_grouped(s: &Select, kept: Vec<Tuple>, params: &[Value]) -> Result<ExecOutcome> {
    // Stable grouping via the order-preserving key encoding.
    let mut groups: BTreeMap<Vec<u8>, Vec<Tuple>> = BTreeMap::new();
    for tuple in kept {
        let key_vals = s
            .group_by
            .iter()
            .map(|c| eval(c, Row::of(&tuple), params))
            .collect::<Result<Vec<_>>>()?;
        groups
            .entry(encode_index_prefix(&key_vals))
            .or_default()
            .push(tuple);
    }
    if s.items.iter().any(|it| matches!(it, SelectItem::Star)) {
        return Err(DbError::Schema("* in a GROUP BY select list".into()));
    }
    let mut rows = Vec::with_capacity(groups.len());
    for tuples in groups.into_values() {
        if let Some(h) = &s.having {
            if !eval_aggregate(h, &tuples, params)?.is_truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(s.items.len());
        for item in &s.items {
            let SelectItem::Expr(expr, _) = item else {
                unreachable!()
            };
            out.push(eval_aggregate(expr, &tuples, params)?);
        }
        rows.push(out);
    }
    // ORDER BY over the projected output (by column name / alias).
    if let Some((idx, desc)) = s.order_by.as_ref().and_then(|o| Some((o.output?, o.desc))) {
        sort_rows(&mut rows, desc, |row| &row[idx]);
    }
    window(&mut rows, s.offset, s.limit);
    Ok(ExecOutcome::Rows {
        columns: s.columns.clone(),
        rows,
    })
}

fn eval_aggregate(expr: &Expr, tuples: &[Tuple], params: &[Value]) -> Result<Value> {
    let Expr::Agg(f, arg, distinct) = expr else {
        // Comparisons and arithmetic over aggregates (e.g. HAVING
        // COUNT(*) > 1) recurse; bare columns evaluate against the first
        // tuple (SQLite's permissive behaviour).
        if let Expr::Bin(op, l, r) = expr {
            let a = eval_aggregate(l, tuples, params)?;
            let b = eval_aggregate(r, tuples, params)?;
            return eval(
                &Expr::Bin(*op, Box::new(Expr::Lit(a)), Box::new(Expr::Lit(b))),
                Row::EMPTY,
                params,
            );
        }
        return match tuples.first() {
            Some(t) => eval(expr, Row::of(t), params),
            None => Ok(Value::Null),
        };
    };
    let mut vals = Vec::new();
    for tuple in tuples {
        match arg {
            None => vals.push(Value::Int(1)),
            Some(a) => {
                let v = eval(a, Row::of(tuple), params)?;
                if !matches!(v, Value::Null) {
                    vals.push(v);
                }
            }
        }
    }
    if *distinct {
        let mut seen = HashSet::new();
        vals.retain(|v| seen.insert(format!("{v:?}")));
    }
    Ok(match f {
        AggFn::Count => Value::Int(vals.len() as i64),
        AggFn::Sum => {
            if vals.is_empty() {
                Value::Null
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                Value::Int(vals.iter().filter_map(Value::as_i64).sum())
            } else {
                Value::Real(vals.iter().filter_map(Value::as_f64).sum())
            }
        }
        AggFn::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let sum: f64 = vals.iter().filter_map(Value::as_f64).sum();
                Value::Real(sum / vals.len() as f64)
            }
        }
        AggFn::Min => vals
            .iter()
            .cloned()
            .min_by(Value::sort_cmp)
            .unwrap_or(Value::Null),
        AggFn::Max => vals
            .iter()
            .cloned()
            .max_by(Value::sort_cmp)
            .unwrap_or(Value::Null),
    })
}

// --- entry points ------------------------------------------------------------------

/// Executes a compiled DML statement.
pub fn run<D: BlockDevice>(
    pager: &mut Pager<D>,
    plan: &Plan,
    params: &[Value],
) -> Result<ExecOutcome> {
    match plan {
        Plan::Select(select) => run_select(pager, select, params),
        Plan::Insert {
            table,
            positions,
            rows,
            or_replace,
        } => {
            let mut n = 0;
            for row_exprs in rows {
                if row_exprs.len() != positions.len() {
                    return Err(DbError::Schema(format!(
                        "{} values for {} columns",
                        row_exprs.len(),
                        positions.len()
                    )));
                }
                let mut row = vec![Value::Null; table.info.cols.len()];
                for (pos, e) in positions.iter().zip(row_exprs) {
                    row[*pos] = eval(e, Row::EMPTY, params)?;
                }
                insert_row(pager, table, row, *or_replace)?;
                n += 1;
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
        Plan::Update {
            table,
            sets,
            where_,
        } => {
            let info = &*table.info;
            let mut n = 0;
            for (rowid, old_row) in scan(pager, table, params)? {
                let old = [old_row];
                if !passes(where_, &old, params)? {
                    continue;
                }
                let mut new_row = old[0].clone();
                for (i, e) in sets {
                    new_row[*i] = eval(e, Row::of(&old), params)?;
                }
                let [old_row] = old;
                let new_rowid = info
                    .rowid_alias
                    .and_then(|i| new_row[i].as_i64())
                    .unwrap_or(rowid);
                if new_rowid == rowid {
                    // In-place update: touch only the indexes whose key
                    // actually changed (as SQLite does).
                    for ix in &table.indexes {
                        let old_key = index_key(ix, &old_row, rowid);
                        let new_key = index_key(ix, &new_row, rowid);
                        if old_key != new_key {
                            btree::index_delete(pager, ix.root, &old_key)?;
                            btree::index_insert(pager, ix.root, &new_key)?;
                        }
                    }
                    let rec = stored_record(info, &mut new_row);
                    btree::table_insert(pager, info.root, rowid, &rec)?;
                } else {
                    delete_row(pager, table, rowid, &old_row)?;
                    if let Some(i) = info.rowid_alias {
                        new_row[i] = Value::Int(new_rowid);
                    }
                    insert_row(pager, table, new_row, true)?;
                }
                n += 1;
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
        Plan::Delete { table, where_ } => {
            let mut n = 0;
            for (rowid, row) in scan(pager, table, params)? {
                let tuple = [row];
                if passes(where_, &tuple, params)? {
                    delete_row(pager, table, rowid, &tuple[0])?;
                    n += 1;
                }
            }
            Ok(ExecOutcome::Done { rows_affected: n })
        }
    }
}

/// Executes a DDL statement from its parse tree.
pub fn run_ddl<D: BlockDevice>(
    pager: &mut Pager<D>,
    catalog: &mut Catalog,
    stmt: &Stmt,
    raw_sql: &str,
) -> Result<ExecOutcome> {
    match stmt {
        Stmt::CreateTable {
            name,
            if_not_exists,
            cols,
        } => {
            if !(*if_not_exists && catalog.has_table(name)) {
                catalog.create_table(pager, name, cols, raw_sql)?;
            }
            Ok(DONE)
        }
        Stmt::CreateIndex {
            name,
            if_not_exists,
            table,
            cols,
        } => {
            match catalog.create_index(pager, name, table, cols, raw_sql) {
                Err(DbError::Exists(_)) if *if_not_exists => return Ok(DONE),
                other => other?,
            }
            // Populate the index from existing rows.
            let info = Rc::clone(catalog.table(table)?);
            let rows = scan_range(pager, &info, i64::MIN, i64::MAX)?;
            let ix = catalog
                .indexes_of(table)
                .into_iter()
                .find(|i| i.name.eq_ignore_ascii_case(name))
                .ok_or(DbError::Corrupt("index vanished after creation"))?;
            for (rowid, row) in rows {
                btree::index_insert(pager, ix.root, &index_key(&ix, &row, rowid))?;
            }
            Ok(DONE)
        }
        Stmt::DropTable { name } => {
            catalog.drop_table(pager, name)?;
            Ok(DONE)
        }
        Stmt::DropIndex { name } => {
            catalog.drop_index(pager, name)?;
            Ok(DONE)
        }
        _ => Err(DbError::TxState(
            "transaction control handled by the connection",
        )),
    }
}
