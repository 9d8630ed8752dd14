//! Text tables that print the same rows/series the paper's figures plot.

use std::fmt;

/// One row of a result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (e.g. `"t1=1.5 t2=3.0"` or `"MAJ5"`).
    pub label: String,
    /// One value per column.
    pub values: Vec<f64>,
}

/// A labelled numeric table: the textual equivalent of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (figure id + caption).
    pub title: String,
    /// A scale note (group population, reductions vs the paper).
    pub scale_note: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        scale_note: impl Into<String>,
        columns: Vec<String>,
    ) -> Self {
        Table {
            title: title.into(),
            scale_note: scale_note.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the {} columns",
            self.columns.len()
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// Looks up a value by row label and column header.
    pub fn get(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r.label == row_label)?;
        row.values.get(col).copied()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        if !self.scale_note.is_empty() {
            writeln!(f, "    [{}]", self.scale_note)?;
        }
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once(5))
            .max()
            .unwrap_or(5);
        write!(f, "{:label_w$}", "")?;
        for c in &self.columns {
            write!(f, " {c:>10}")?;
        }
        writeln!(f)?;
        for r in &self.rows {
            write!(f, "{:label_w$}", r.label)?;
            for v in &r.values {
                write!(f, " {v:>10.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Fig. X", "3 groups", vec!["N=2".into(), "N=4".into()]);
        t.push_row("t1=1.5", vec![99.0, 98.5]);
        t.push_row("t1=3.0", vec![99.9, 99.8]);
        t
    }

    #[test]
    fn get_by_labels() {
        let t = table();
        assert_eq!(t.get("t1=1.5", "N=4"), Some(98.5));
        assert_eq!(t.get("nope", "N=4"), None);
        assert_eq!(t.get("t1=1.5", "N=8"), None);
    }

    #[test]
    fn display_contains_title_and_values() {
        let s = table().to_string();
        assert!(s.contains("Fig. X"));
        assert!(s.contains("99.900"));
        assert!(s.contains("[3 groups]"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        table().push_row("bad", vec![1.0]);
    }
}
