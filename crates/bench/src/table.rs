//! Text-table printing and CSV output for the experiment subcommands.

use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table accumulating one figure's series.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data row was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// The CSV serialization.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Write a table's CSV under `target/figures/<name>.csv`; returns the path.
pub fn write_csv(table: &Table, name: &str) -> PathBuf {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv()).expect("write figure csv");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["2".into(), "3.5".into()]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_csv(), "x,y\n1,2.5\n2,3.5\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn writes_csv_file() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["7".into()]);
        let path = write_csv(&t, "test_table");
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}
