//! Tabular output: aligned text tables and CSV files.
//!
//! Each experiment binary prints a text table shaped like the paper's table
//! (Table II, the R² summary of Fig. 2, …) and can also persist the same
//! rows as CSV for downstream plotting ([`crate::write_artifact`]).

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub(crate) struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub(crate) fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        TextTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns and a header separator.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.extend(std::iter::repeat_n('-', total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Serializes the table as CSV (RFC 4180 quoting).
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let push_row = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        push_row(&self.headers, &mut out);
        for row in &self.rows {
            push_row(row, &mut out);
        }
        out
    }
}

/// Formats a float with a sensible number of digits for tables.
pub(crate) fn fmt_sig(value: f64, digits: usize) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs().log10().floor() as i32;
    let decimals = (digits as i32 - 1 - magnitude).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_simcore::SimRng;
    use kscope_testkit::{gen, Config};

    /// Reads RFC 4180 CSV text back into records: `,` separates fields,
    /// `\n` ends a record, and a quoted field may hold `,`, `\n` and `""`.
    fn parse_csv(text: &str) -> Vec<Vec<String>> {
        let mut records = Vec::new();
        let mut record = Vec::new();
        let mut field = String::new();
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (true, '"') if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                (true, '"') => quoted = false,
                (false, '"') => quoted = true,
                (false, ',') => record.push(std::mem::take(&mut field)),
                (false, '\n') => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                (_, c) => field.push(c),
            }
        }
        assert!(!quoted, "unterminated quoted field");
        assert!(field.is_empty() && record.is_empty(), "unterminated record");
        records
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a", "bee"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns aligned: 'bee' and '1' start at the same offset.
        let header_pos = lines[0].find("bee").unwrap();
        let cell_pos = lines[2].find('1').unwrap();
        assert_eq!(header_pos, cell_pos);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = TextTable::new(vec!["x"]);
        t.row(vec!["1".into()]);
        t.row(vec!["2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "x\n1\n2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_sig_scales_decimals() {
        assert_eq!(fmt_sig(0.0, 3), "0");
        assert_eq!(fmt_sig(1234.4, 3), "1234");
        assert_eq!(fmt_sig(0.001234, 3), "0.00123");
        assert_eq!(fmt_sig(9.87654, 4), "9.877");
    }

    /// Every cell, however it needs quoting, and every row survive a
    /// round trip through `to_csv` and an RFC 4180 reader.
    #[test]
    fn csv_round_trips_any_cells() {
        const PIECES: [&str; 6] = [",", "\"", "\n", "img-dnn", "0.97", " "];
        kscope_testkit::check!(
            Config::cases(256),
            |rng: &mut SimRng| {
                (
                    gen::usize_in(rng, 1, 4),
                    gen::vec_of(rng, 0, 24, |r| {
                        gen::vec_of(r, 0, 5, |r| gen::usize_in(r, 0, PIECES.len() - 1))
                    }),
                )
            },
            |case: &(usize, Vec<Vec<usize>>)| {
                let (width, ref codes) = *case;
                let width = width.max(1);
                let mut cells: Vec<String> = codes
                    .iter()
                    .map(|cell| cell.iter().map(|&i| PIECES[i]).collect())
                    .collect();
                // Pad to whole rows; the first row is the header.
                let whole = cells.len().max(1).div_ceil(width) * width;
                cells.resize(whole, String::new());
                let expected: Vec<Vec<String>> =
                    cells.chunks(width).map(<[String]>::to_vec).collect();
                let mut table = TextTable::new(expected[0].clone());
                for row in &expected[1..] {
                    table.row(row.clone());
                }
                let parsed = parse_csv(&table.to_csv());
                assert_eq!(parsed.len(), expected.len());
                assert_eq!(parsed, expected);
            }
        );
    }
}
