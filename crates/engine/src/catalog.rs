//! Catalog: schemas, table definitions, and their column BATs.
//!
//! MonetDB stores every column as a BAT; `sql.bind(mvc, schema, table,
//! column, access)` hands the interpreter a reference to it and
//! `sql.tid(mvc, schema, table)` hands out the candidate list of live
//! rows. The catalog is shared read-only between concurrent queries, so
//! columns live behind `Arc`.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use stetho_mal::MalType;

use crate::bat::Bat;
use crate::error::EngineError;
use crate::Result;

/// One column's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name, e.g. `l_partkey`.
    pub name: String,
    /// Scalar tail type.
    pub ty: MalType,
}

/// One table: definition plus column storage.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name, e.g. `lineitem`.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    storage: Vec<Arc<Bat>>,
    rows: usize,
    /// Dense candidate list `0..rows`, built on the first `sql.tid`.
    tid: OnceLock<Arc<Bat>>,
}

impl TableDef {
    /// Build a table from (name, type, data) triples. All columns must
    /// have equal length.
    pub fn new(name: impl Into<String>, cols: Vec<(String, MalType, Bat)>) -> Result<Self> {
        let name = name.into();
        let rows = cols.first().map(|(_, _, b)| b.len()).unwrap_or(0);
        let mut columns = Vec::with_capacity(cols.len());
        let mut storage = Vec::with_capacity(cols.len());
        for (cname, ty, bat) in cols {
            if bat.len() != rows {
                return Err(EngineError::LengthMismatch {
                    op: format!("create table {name}"),
                    left: rows,
                    right: bat.len(),
                });
            }
            if bat.tail_type() != ty {
                return Err(EngineError::TypeMismatch {
                    op: format!("create table {name}.{cname}"),
                    expected: ty.to_string(),
                    got: bat.tail_type().to_string(),
                });
            }
            columns.push(ColumnDef { name: cname, ty });
            storage.push(Arc::new(bat));
        }
        Ok(TableDef {
            name,
            columns,
            storage,
            rows,
            tid: OnceLock::new(),
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The candidate list of all rows (`sql.tid`): one dense oid column
    /// per table, built once and shared by every query.
    pub fn tid(&self) -> Arc<Bat> {
        Arc::clone(
            self.tid
                .get_or_init(|| Arc::new(Bat::dense_oids(self.rows))),
        )
    }

    /// Column BAT by name.
    pub fn column(&self, name: &str) -> Option<Arc<Bat>> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| Arc::clone(&self.storage[i]))
    }

    /// Column definition by name.
    pub fn column_def(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// The database catalog: one schema namespace of tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, TableDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table (replaces an existing one of the same name).
    pub fn add_table(&mut self, table: TableDef) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Table lookup.
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::NoSuchTable(name.to_string()))
    }

    /// Column lookup.
    pub fn column(&self, table: &str, column: &str) -> Result<Arc<Bat>> {
        let t = self.table(table)?;
        t.column(column).ok_or_else(|| EngineError::NoSuchColumn {
            table: table.to_string(),
            column: column.to_string(),
        })
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TableDef {
        TableDef::new(
            "t",
            vec![
                ("a".into(), MalType::Int, Bat::ints(vec![1, 2, 3])),
                ("b".into(), MalType::Dbl, Bat::dbls(vec![0.1, 0.2, 0.3])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn table_construction_and_lookup() {
        let t = table();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column("a").unwrap().as_ints().unwrap(), &[1, 2, 3]);
        assert!(t.column("z").is_none());
        assert_eq!(t.column_def("b").unwrap().ty, MalType::Dbl);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let r = TableDef::new(
            "t",
            vec![
                ("a".into(), MalType::Int, Bat::ints(vec![1])),
                ("b".into(), MalType::Int, Bat::ints(vec![1, 2])),
            ],
        );
        assert!(matches!(r, Err(EngineError::LengthMismatch { .. })));
    }

    #[test]
    fn mismatched_types_rejected() {
        let r = TableDef::new("t", vec![("a".into(), MalType::Dbl, Bat::ints(vec![1]))]);
        assert!(matches!(r, Err(EngineError::TypeMismatch { .. })));
    }

    #[test]
    fn catalog_lookups() {
        let mut c = Catalog::new();
        c.add_table(table());
        assert_eq!(c.table("t").unwrap().rows(), 3);
        assert!(matches!(c.table("x"), Err(EngineError::NoSuchTable(_))));
        assert!(c.column("t", "a").is_ok());
        assert!(matches!(
            c.column("t", "z"),
            Err(EngineError::NoSuchColumn { .. })
        ));
        assert_eq!(c.table_names(), vec!["t"]);
    }

    #[test]
    fn empty_table_allowed() {
        let t = TableDef::new("e", vec![]).unwrap();
        assert_eq!(t.rows(), 0);
    }
}
