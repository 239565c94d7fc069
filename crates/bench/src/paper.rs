//! The paper's figures as data: the `paper` bench runs one function per figure, table and
//! ablation, each returning a [`Section`], prints every section as Markdown and records
//! them all in the committed `BENCH_paper.json` ([`PaperReport`], schema
//! [`PAPER_SCHEMA`]).
//!
//! A table cell keeps the text it prints, and records the number that text shows, so the
//! JSON holds exactly the printed figures: a rerun writes the same bytes.

use serde::{Serialize, Value};
use slic::report::markdown_table;

/// The `schema` value of `BENCH_paper.json`.
pub const PAPER_SCHEMA: &str = "slic-bench/paper/v1";

/// The whole `BENCH_paper.json` record: results only, no timings or host details.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaperReport {
    /// Always [`PAPER_SCHEMA`].
    pub schema: &'static str,
    /// One section per figure, table and ablation, in the paper's order.
    pub sections: Vec<Section>,
}

/// One figure, table or ablation of the paper.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Section {
    /// Stable identifier, e.g. `fig6_nominal_14nm`.
    pub id: String,
    /// The paper artefact, e.g. `Fig. 6`.
    pub title: String,
    /// What the section measures.
    pub description: String,
    /// The result the paper reports for it.
    pub paper: String,
    /// The regenerated numbers.
    pub tables: Vec<Table>,
}

/// A titled table of numbers: a title, column headers, and rows of one entry per column.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Entry>>,
}

/// One table entry: printed as its text, recorded as the number the text shows (or as
/// the label, flag or `null` it is).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    text: String,
    value: Value,
}

impl Entry {
    /// A label.
    pub fn text(text: impl Into<String>) -> Self {
        let text = text.into();
        Self {
            value: Value::String(text.clone()),
            text,
        }
    }

    /// `value` with `decimals` digits after the point.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        Self::number(format!("{value:.decimals$}"))
    }

    /// `value` in scientific notation with `decimals` digits after the point.
    pub fn sci(value: f64, decimals: usize) -> Self {
        Self::number(format!("{value:.decimals$e}"))
    }

    /// An integer count.
    pub fn count(value: impl Into<u64>) -> Self {
        Self::number(value.into().to_string())
    }

    /// A yes/no flag.
    pub fn flag(value: bool) -> Self {
        Self {
            text: if value { "yes" } else { "no" }.to_string(),
            value: Value::Bool(value),
        }
    }

    /// A missing number: printed `n/a`, recorded `null`.
    fn none() -> Self {
        Self {
            text: "n/a".to_string(),
            value: Value::Null,
        }
    }

    /// `fixed(value, decimals)`, or `n/a` (recorded `null`) without a value.
    pub fn fixed_or_none(value: Option<f64>, decimals: usize) -> Self {
        value.map_or_else(Self::none, |v| Self::fixed(v, decimals))
    }

    fn number(text: String) -> Self {
        let value = match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Value::Number(n),
            _ => Value::Null,
        };
        Self { text, value }
    }
}

impl Serialize for Entry {
    fn to_value(&self) -> Value {
        self.value.clone()
    }
}

impl Table {
    /// An empty table with these column headers.
    pub fn new<S: Into<String>>(
        title: impl Into<String>,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        Self {
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics unless the row has one cell per column.
    pub fn row(&mut self, entries: Vec<Entry>) {
        assert_eq!(entries.len(), self.columns.len(), "{}", self.title);
        self.rows.push(entries);
    }

    /// The table as a Markdown block under its title.
    fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|c| c.text.clone()).collect())
            .collect();
        format!(
            "{}:\n\n{}",
            self.title,
            markdown_table(&self.columns, &rows)
        )
    }
}

impl Section {
    /// The section as Markdown: a heading, each table, then the paper's result.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {}: {}\n\n", self.title, self.description);
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        out.push_str(&format!("(paper: {})\n", self.paper));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_record_the_number_they_print() {
        let mut table = Table::new("t", ["label", "x", "y", "n", "ok", "gap"]);
        table.row(vec![
            Entry::text("INV"),
            Entry::fixed(4.196, 2),
            Entry::sci(1.2344e-15, 3),
            Entry::count(3u32),
            Entry::flag(true),
            Entry::fixed_or_none(None, 2),
        ]);
        let json = serde_json::to_string(&table).unwrap();
        assert!(
            json.contains(r#""rows":[["INV",4.2,1.234e-15,3,true,null]]"#),
            "{json}"
        );
        let md = table.to_markdown();
        assert!(
            md.contains("| INV | 4.20 | 1.234e-15 | 3 | yes | n/a |"),
            "{md}"
        );
        assert_eq!(Entry::fixed(f64::NAN, 2).to_value(), Value::Null);
    }
}
