//! Plain-text table rendering for the experiment harness.

use std::fmt;

use tsb_storage::IoSnapshot;

/// A printable experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and title, e.g. `"E1: total space by splitting policy"`.
    pub title: String,
    /// One short note line printed under the title (workload parameters).
    pub note: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, note: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            note: note.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "   {}", self.note)?;
        }
        let widths = self.widths();
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
            .collect();
        writeln!(f, "   {}", header_line.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "   {}", rule.join("  "))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect();
            writeln!(f, "   {}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a byte count as KiB with one decimal.
pub fn kib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats a ratio with three decimals.
pub fn ratio(r: f64) -> String {
    format!("{r:.3}")
}

/// Column headers matching [`node_cache_cells`].
pub const NODE_CACHE_HEADERS: [&str; 3] = ["nc hit rate", "nc hits/misses", "decodes"];

/// Formats the decoded-node cache columns of an experiment row from a
/// counter delta: hit rate, hit/miss counts, and the decodes actually paid.
/// Structures without a node cache (the WOBT) report `"-"` cells.
pub fn node_cache_cells(delta: &IoSnapshot) -> Vec<String> {
    match delta.node_cache_hit_rate() {
        Some(rate) => vec![
            ratio(rate),
            format!("{}/{}", delta.node_cache_hits, delta.node_cache_misses),
            delta.node_decodes.to_string(),
        ],
        None => vec!["-".into(), "-".into(), "-".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("E0: demo", "note line", &["policy", "space", "redundancy"]);
        t.push_row(vec!["wobt-like".into(), "123.4".into(), "1.280".into()]);
        t.push_row(vec![
            "key-preferring-long-name".into(),
            "5.0".into(),
            "0".into(),
        ]);
        let text = t.to_string();
        assert!(text.contains("E0: demo"));
        assert!(text.contains("note line"));
        assert!(text.contains("key-preferring-long-name"));
        // Header separator present.
        assert!(text.contains("---"));
        assert_eq!(kib(2048), "2.0");
        assert_eq!(ratio(0.5), "0.500");
    }

    #[test]
    fn node_cache_cells_format_hits_and_absence() {
        let delta = IoSnapshot {
            node_cache_hits: 30,
            node_cache_misses: 10,
            node_decodes: 10,
            ..IoSnapshot::default()
        };
        assert_eq!(node_cache_cells(&delta), vec!["0.750", "30/10", "10"]);
        let empty = IoSnapshot::default();
        assert_eq!(node_cache_cells(&empty), vec!["-", "-", "-"]);
        assert_eq!(NODE_CACHE_HEADERS.len(), node_cache_cells(&empty).len());
    }
}
