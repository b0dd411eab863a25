//! DataFrame-style tables: the Analysis Agent's working representation.
//!
//! §4.1: "This initial run generates a Darshan log, which is further
//! processed into a set of pandas DataFrames, accompanied by a separate file
//! describing the meaning of each column." [`to_tables`] is that
//! preprocessing script. [`Table`] gives the code-executing Analysis Agent
//! what its table programs read: columns by name and column sums.

use crate::counters::{COUNTERS, FCOUNTERS};
use crate::log::DarshanLog;
use pfs::ops::Module;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A rectangular numeric table with named columns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name (e.g. "POSIX").
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Row-major data.
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Values of one column.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.col(name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Sum of a column (0 if the column is missing).
    pub fn sum(&self, name: &str) -> f64 {
        self.column(name).map(|v| v.iter().sum()).unwrap_or(0.0)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Column descriptions — the "separate file describing the meaning of each
/// column" shipped with the dataframes.
pub fn column_descriptions() -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("RANK".to_string(), "MPI rank issuing the I/O".to_string());
    m.insert(
        "FILE_ID".to_string(),
        "Darshan record id of the file".to_string(),
    );
    for c in COUNTERS {
        m.insert(c.name().to_string(), c.describe().to_string());
    }
    for c in FCOUNTERS {
        m.insert(c.name().to_string(), c.describe().to_string());
    }
    m
}

/// Convert a log into one table per module present, plus the header string.
pub fn to_tables(log: &DarshanLog) -> (String, Vec<Table>) {
    let mut tables = Vec::new();
    for module in [Module::Posix, Module::MpiIo, Module::Stdio] {
        let records: Vec<_> = log.module_records(module).collect();
        if records.is_empty() {
            continue;
        }
        let mut columns = vec!["RANK".to_string(), "FILE_ID".to_string()];
        columns.extend(COUNTERS.iter().map(|c| c.name().to_string()));
        columns.extend(FCOUNTERS.iter().map(|c| c.name().to_string()));
        let rows = records
            .iter()
            .map(|r| {
                let mut row = Vec::with_capacity(columns.len());
                row.push(r.rank as f64);
                row.push(r.file.0 as f64);
                row.extend(r.counters.iter().map(|&v| v as f64));
                row.extend(r.fcounters.iter().copied());
                row
            })
            .collect();
        tables.push(Table {
            name: module.name().to_string(),
            columns,
            rows,
        });
    }
    (log.header.render(), tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Counter, FCounter};
    use crate::log::{FileRecord, JobHeader};
    use pfs::ops::FileId;

    fn sample_log() -> DarshanLog {
        let mut a = FileRecord::new(0, FileId(1), Module::Posix);
        a.bump(Counter::Writes, 10);
        a.bump(Counter::BytesWritten, 1000);
        a.fadd(FCounter::WriteTime, 0.5);
        let mut b = FileRecord::new(1, FileId(1), Module::Posix);
        b.bump(Counter::Writes, 30);
        b.bump(Counter::BytesWritten, 3000);
        let mut c = FileRecord::new(0, FileId(2), Module::MpiIo);
        c.bump(Counter::Reads, 5);
        DarshanLog {
            header: JobHeader {
                exe: "x".into(),
                nprocs: 2,
                runtime_secs: 1.0,
                file_count: 2,
            },
            records: vec![a, b, c],
        }
    }

    #[test]
    fn tables_split_by_module() {
        let (header, tables) = to_tables(&sample_log());
        assert!(header.contains("nprocs: 2"));
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name, "POSIX");
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[1].name, "MPI-IO");
        assert_eq!(tables[1].len(), 1);
    }

    #[test]
    fn table_aggregations() {
        let (_, tables) = to_tables(&sample_log());
        let posix = &tables[0];
        assert_eq!(posix.sum("BYTES_WRITTEN"), 4000.0);
        assert_eq!(posix.sum("NO_SUCH_COLUMN"), 0.0);
    }

    #[test]
    fn descriptions_cover_all_columns() {
        let (_, tables) = to_tables(&sample_log());
        let desc = column_descriptions();
        for col in &tables[0].columns {
            assert!(desc.contains_key(col), "undocumented column {col}");
        }
    }

    #[test]
    fn empty_modules_omitted() {
        let (_, tables) = to_tables(&sample_log());
        assert!(tables.iter().all(|t| t.name != "STDIO"));
    }
}
