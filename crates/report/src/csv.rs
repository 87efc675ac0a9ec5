//! Minimal CSV output.
//!
//! Only what the experiment binaries need: a header, rows of
//! `Display`-able cells, quoting of cells containing separators, and
//! file/String sinks. Reading CSV is out of scope.

use std::fmt::Display;
use std::path::Path;

/// An in-memory CSV document builder.
#[derive(Debug, Clone)]
pub struct CsvWriter {
    columns: usize,
    buf: String,
}

fn quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

impl CsvWriter {
    /// Starts a document with the given header.
    ///
    /// # Panics
    /// Panics on an empty header.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "CsvWriter: empty header");
        let mut buf = String::new();
        buf.push_str(
            &header
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        buf.push('\n');
        Self {
            columns: header.len(),
            buf,
        }
    }

    /// Appends a row of displayable cells.
    ///
    /// # Panics
    /// Panics when the arity differs from the header.
    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        assert_eq!(cells.len(), self.columns, "CsvWriter: row arity");
        let line = cells
            .iter()
            .map(|c| quote(&c.to_string()))
            .collect::<Vec<_>>()
            .join(",");
        self.buf.push_str(&line);
        self.buf.push('\n');
        self
    }

    /// Appends a row of pre-stringified cells (mixed types).
    ///
    /// # Panics
    /// Panics when the arity differs from the header.
    pub fn row_strings(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.columns, "CsvWriter: row arity");
        let line = cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",");
        self.buf.push_str(&line);
        self.buf.push('\n');
        self
    }

    /// The document text.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Writes the document to a file, creating parent directories.
    ///
    /// # Errors
    /// As [`crate::cli::write_artefact`].
    pub fn save(&self, path: &Path) -> Result<(), String> {
        crate::cli::write_artefact(path, &self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let mut w = CsvWriter::new(&["a", "b"]);
        w.row(&[1.5, 2.0]).row(&[3.0, 4.0]);
        assert_eq!(w.as_str(), "a,b\n1.5,2\n3,4\n");
    }

    #[test]
    fn quoting() {
        let mut w = CsvWriter::new(&["x,y", "plain"]);
        w.row_strings(&["has \"quotes\"".into(), "ok".into()]);
        assert_eq!(w.as_str(), "\"x,y\",plain\n\"has \"\"quotes\"\"\",ok\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        CsvWriter::new(&["a", "b"]).row(&[1.0]);
    }

    #[test]
    fn save_roundtrip() {
        let dir = std::env::temp_dir().join("asynciter_csv_test");
        let path = dir.join("sub").join("t.csv");
        let mut w = CsvWriter::new(&["v"]);
        w.row(&[42]);
        w.save(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "v\n42\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
