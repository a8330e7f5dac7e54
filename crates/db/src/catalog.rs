//! The schema catalog, persisted SQLite-style: a master table (rooted at
//! the header's `schema_root`) stores one record per object —
//! `(type, name, tbl_name, rootpage, sql)` — and the in-RAM catalog is
//! rebuilt by re-parsing the stored `CREATE` statements at open time.
//!
//! Table and index descriptions are handed out as shared handles so a
//! compiled statement can keep them; [`Catalog::generation`] changes
//! whenever a handle taken earlier may no longer describe the schema.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use xftl_ftl::BlockDevice;

use crate::btree;
use crate::error::{DbError, Result};
use crate::pager::{PageNo, Pager};
use crate::record::{decode_record, encode_record};
use crate::sql::{self, ColDef, Stmt};
use crate::value::Value;

/// In-RAM description of a table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table name as declared.
    pub name: String,
    /// Column definitions in declaration order.
    pub cols: Vec<ColDef>,
    /// Root page of the table's B-tree.
    pub root: PageNo,
    /// Column index of the `INTEGER PRIMARY KEY` rowid alias, if any.
    pub rowid_alias: Option<usize>,
    /// Next auto-assigned rowid (cached; seeded from the tree's max). A
    /// cell, so inserts advance it through a shared handle.
    pub next_rowid: Cell<i64>,
    /// Master-table rowid of this object's record.
    pub master_rowid: i64,
}

impl TableInfo {
    /// Index of a column by name (case-insensitive).
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.cols
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// In-RAM description of an index.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Index name.
    pub name: String,
    /// Owning table (normalized lowercase).
    pub table: String,
    /// Indexed column names, in order.
    pub cols: Vec<String>,
    /// Column positions in the table, aligned with `cols`.
    pub col_idxs: Vec<usize>,
    /// Root page of the index B-tree.
    pub root: PageNo,
    /// Master-table rowid of this object's record.
    pub master_rowid: i64,
}

/// The schema catalog of one database.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Rc<TableInfo>>,
    indexes: HashMap<String, Rc<IndexInfo>>,
    next_master_rowid: i64,
    generation: u64,
}

fn norm(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    /// Loads the catalog from the master table (if one exists).
    pub fn load<D: BlockDevice>(pager: &mut Pager<D>) -> Result<Catalog> {
        let mut cat = Catalog {
            next_master_rowid: 1,
            ..Default::default()
        };
        let root = pager.schema_root();
        if root == 0 {
            return Ok(cat);
        }
        let mut records: Vec<(i64, Vec<Value>)> = Vec::new();
        btree::table_scan_from(pager, root, i64::MIN, &mut |_, rowid, rec| {
            records.push((rowid, decode_record(rec)?));
            Ok(true)
        })?;
        for (rowid, rec) in records {
            cat.next_master_rowid = cat.next_master_rowid.max(rowid + 1);
            let [Value::Text(kind), Value::Text(_name), Value::Text(_tbl), Value::Int(rootpage), Value::Text(sql_text)] =
                rec.as_slice()
            else {
                return Err(DbError::Corrupt("malformed master record"));
            };
            match (kind.as_str(), sql::parse(sql_text)?) {
                ("table", Stmt::CreateTable { name, cols, .. }) => {
                    let root = *rootpage as PageNo;
                    let next_rowid = btree::table_last_rowid(pager, root)?.unwrap_or(0) + 1;
                    cat.add_table(name, cols, root, next_rowid, rowid);
                }
                (
                    "index",
                    Stmt::CreateIndex {
                        name, table, cols, ..
                    },
                ) => {
                    let ix = cat
                        .index_info(name, &table, cols, *rootpage as PageNo, rowid)
                        .map_err(|_| DbError::Corrupt("index on a missing table or column"))?;
                    cat.indexes.insert(norm(&ix.name), Rc::new(ix));
                }
                _ => return Err(DbError::Corrupt("master record kind/sql mismatch")),
            }
        }
        Ok(cat)
    }

    /// Re-reads the schema from storage (after a rollback, a lost
    /// `BEGIN CONCURRENT` race, or under a fresh snapshot) as a new
    /// generation.
    pub fn reload<D: BlockDevice>(&mut self, pager: &mut Pager<D>) -> Result<()> {
        let generation = self.generation + 1;
        *self = Catalog::load(pager)?;
        self.generation = generation;
        Ok(())
    }

    /// Counter that moves on every DDL statement and every
    /// [`Catalog::reload`]: handles and column positions taken under one
    /// value are valid exactly while it stands.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn add_table(
        &mut self,
        name: String,
        cols: Vec<ColDef>,
        root: PageNo,
        next_rowid: i64,
        master_rowid: i64,
    ) {
        let info = TableInfo {
            rowid_alias: cols.iter().position(|c| c.is_pk),
            next_rowid: Cell::new(next_rowid),
            name,
            cols,
            root,
            master_rowid,
        };
        self.tables.insert(norm(&info.name), Rc::new(info));
    }

    /// Describes an index on `table`; fails with the name of what is
    /// missing (the table, or `table.column`).
    fn index_info(
        &self,
        name: String,
        table: &str,
        cols: Vec<String>,
        root: PageNo,
        master_rowid: i64,
    ) -> std::result::Result<IndexInfo, String> {
        let tinfo = self.tables.get(&norm(table)).ok_or(table)?;
        let col_idxs = cols
            .iter()
            .map(|c| tinfo.col_index(c).ok_or_else(|| format!("{table}.{c}")))
            .collect::<std::result::Result<_, _>>()?;
        Ok(IndexInfo {
            name,
            table: norm(table),
            cols,
            col_idxs,
            root,
            master_rowid,
        })
    }

    /// Creates the object's tree and records its CREATE statement in the
    /// master table (creating that first, if this is the first object);
    /// returns the tree's root and the record's rowid.
    fn persist<D: BlockDevice>(
        &mut self,
        pager: &mut Pager<D>,
        create_tree: fn(&mut Pager<D>) -> Result<PageNo>,
        [kind, name, table, raw_sql]: [&str; 4],
    ) -> Result<(PageNo, i64)> {
        self.generation += 1;
        let mut master = pager.schema_root();
        if master == 0 {
            master = btree::create_table_tree(pager)?;
            pager.set_schema_root(master)?;
        }
        let root = create_tree(pager)?;
        let master_rowid = self.next_master_rowid;
        self.next_master_rowid += 1;
        let rec = encode_record(&[
            Value::Text(kind.into()),
            Value::Text(name.into()),
            Value::Text(table.into()),
            Value::Int(root as i64),
            Value::Text(raw_sql.into()),
        ]);
        btree::table_insert(pager, master, master_rowid, &rec)?;
        Ok((root, master_rowid))
    }

    /// Registers a new table from its parsed definition, persisting the
    /// CREATE statement in the master table.
    pub fn create_table<D: BlockDevice>(
        &mut self,
        pager: &mut Pager<D>,
        name: &str,
        cols: &[ColDef],
        raw_sql: &str,
    ) -> Result<()> {
        if self.tables.contains_key(&norm(name)) {
            return Err(DbError::Exists(name.to_string()));
        }
        let (root, master_rowid) = self.persist(
            pager,
            btree::create_table_tree,
            ["table", name, name, raw_sql],
        )?;
        self.add_table(name.to_string(), cols.to_vec(), root, 1, master_rowid);
        Ok(())
    }

    /// Registers a new index, persisting its CREATE statement.
    pub fn create_index<D: BlockDevice>(
        &mut self,
        pager: &mut Pager<D>,
        name: &str,
        table: &str,
        cols: &[String],
        raw_sql: &str,
    ) -> Result<()> {
        if self.indexes.contains_key(&norm(name)) {
            return Err(DbError::Exists(name.to_string()));
        }
        // Validate before anything is written; the root comes after.
        let mut ix = self
            .index_info(name.to_string(), table, cols.to_vec(), 0, 0)
            .map_err(DbError::Unknown)?;
        (ix.root, ix.master_rowid) = self.persist(
            pager,
            btree::create_index_tree,
            ["index", name, table, raw_sql],
        )?;
        self.indexes.insert(norm(name), Rc::new(ix));
        Ok(())
    }

    /// Drops a table, its indexes, and their pages.
    pub fn drop_table<D: BlockDevice>(&mut self, pager: &mut Pager<D>, name: &str) -> Result<()> {
        let info = self
            .tables
            .remove(&norm(name))
            .ok_or_else(|| DbError::Unknown(name.to_string()))?;
        self.generation += 1;
        let master = pager.schema_root();
        btree::clear_tree(pager, info.root, true)?;
        pager.free_page(info.root)?;
        btree::table_delete(pager, master, info.master_rowid)?;
        for ix in self.indexes_of(name) {
            self.drop_index(pager, &ix.name)?;
        }
        Ok(())
    }

    /// Drops one index.
    pub fn drop_index<D: BlockDevice>(&mut self, pager: &mut Pager<D>, name: &str) -> Result<()> {
        let info = self
            .indexes
            .remove(&norm(name))
            .ok_or_else(|| DbError::Unknown(name.to_string()))?;
        self.generation += 1;
        btree::clear_tree(pager, info.root, false)?;
        pager.free_page(info.root)?;
        btree::table_delete(pager, pager.schema_root(), info.master_rowid)?;
        Ok(())
    }

    /// The table named `name`.
    pub fn table(&self, name: &str) -> Result<&Rc<TableInfo>> {
        self.tables
            .get(&norm(name))
            .ok_or_else(|| DbError::Unknown(name.to_string()))
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&norm(name))
    }

    /// The indexes defined on `table`, oldest first.
    pub fn indexes_of(&self, table: &str) -> Vec<Rc<IndexInfo>> {
        let table = norm(table);
        let mut out: Vec<_> = self
            .indexes
            .values()
            .filter(|ix| ix.table == table)
            .cloned()
            .collect();
        out.sort_by_key(|ix| ix.master_rowid);
        out
    }
}
