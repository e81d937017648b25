//! Terminal rendering of the paper's figures.
//!
//! The experiment binaries regenerate each figure as an ASCII chart so that
//! `cargo run --bin fig3_variance` produces something directly comparable to
//! the paper's plot. Charts are intentionally plain: one mark per series, a
//! labeled y-range, and an optional vertical marker for the QoS-failure line
//! the paper draws on Figs. 3 and 4.

/// An XY scatter/line chart rendered to a text grid.
///
/// # Examples
///
/// ```
/// use kscope_analysis::AsciiChart;
///
/// let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
/// let mut chart = AsciiChart::new(40, 10);
/// chart.series("x^2", &xs, &ys, '*');
/// let out = chart.render();
/// assert!(out.contains('*'));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    series: Vec<Series>,
    v_marker: Option<(f64, char)>,
    h_marker: Option<(f64, char)>,
    title: Option<String>,
    x_label: Option<String>,
    y_label: Option<String>,
}

#[derive(Debug, Clone)]
struct Series {
    name: String,
    points: Vec<(f64, f64)>,
    mark: char,
}

impl AsciiChart {
    /// Creates a chart with the given plot-area size in characters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    pub fn new(width: usize, height: usize) -> AsciiChart {
        assert!(width >= 2 && height >= 2, "chart area too small");
        AsciiChart {
            width,
            height,
            series: Vec::new(),
            v_marker: None,
            h_marker: None,
            title: None,
            x_label: None,
            y_label: None,
        }
    }

    /// Sets the chart title.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Sets the x-axis label.
    pub fn x_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.x_label = Some(label.into());
        self
    }

    /// Sets the y-axis label.
    pub fn y_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.y_label = Some(label.into());
        self
    }

    /// Adds a named series drawn with `mark`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length.
    pub fn series(
        &mut self,
        name: impl Into<String>,
        xs: &[f64],
        ys: &[f64],
        mark: char,
    ) -> &mut Self {
        assert_eq!(xs.len(), ys.len(), "series xs/ys must have equal length");
        self.series.push(Series {
            name: name.into(),
            points: xs.iter().copied().zip(ys.iter().copied()).collect(),
            mark,
        });
        self
    }

    /// Draws a vertical marker at `x` (the paper's QoS-failure line).
    pub fn vertical_marker(&mut self, x: f64, mark: char) -> &mut Self {
        self.v_marker = Some((x, mark));
        self
    }

    /// Draws a horizontal marker at `y`.
    pub fn horizontal_marker(&mut self, y: f64, mark: char) -> &mut Self {
        self.h_marker = Some((y, mark));
        self
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut pts = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .peekable();
        pts.peek()?;
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in pts {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        if let Some((x, _)) = self.v_marker {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        if let Some((y, _)) = self.h_marker {
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        // Widen degenerate ranges so every point lands inside the grid.
        if min_x == max_x {
            max_x += 1.0;
        }
        if min_y == max_y {
            max_y += 1.0;
        }
        Some((min_x, max_x, min_y, max_y))
    }

    /// Renders the chart to a multi-line string.
    ///
    /// An empty chart renders as a short placeholder rather than panicking.
    pub fn render(&self) -> String {
        let Some((min_x, max_x, min_y, max_y)) = self.bounds() else {
            return "(empty chart)\n".to_string();
        };
        let mut grid = vec![vec![' '; self.width]; self.height];

        let col_of = |x: f64| -> usize {
            let frac = (x - min_x) / (max_x - min_x);
            ((frac * (self.width - 1) as f64).round() as usize).min(self.width - 1)
        };
        let row_of = |y: f64| -> usize {
            let frac = (y - min_y) / (max_y - min_y);
            let from_bottom = (frac * (self.height - 1) as f64).round() as usize;
            self.height - 1 - from_bottom.min(self.height - 1)
        };

        if let Some((x, mark)) = self.v_marker {
            let col = col_of(x);
            for row in grid.iter_mut() {
                row[col] = mark;
            }
        }
        if let Some((y, mark)) = self.h_marker {
            let row = row_of(y);
            for cell in grid[row].iter_mut() {
                *cell = mark;
            }
        }
        for s in &self.series {
            for &(x, y) in &s.points {
                grid[row_of(y)][col_of(x)] = s.mark;
            }
        }

        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        if let Some(label) = &self.y_label {
            out.push_str(&format!("{label} (top={max_y:.4}, bottom={min_y:.4})\n"));
        }
        for row in &grid {
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', self.width));
        out.push('\n');
        if let Some(label) = &self.x_label {
            out.push_str(&format!(" {label} (left={min_x:.4}, right={max_x:.4})\n"));
        }
        if !self.series.is_empty() {
            let legend: Vec<String> = self
                .series
                .iter()
                .map(|s| format!("{} = {}", s.mark, s.name))
                .collect();
            out.push_str(&format!(" legend: {}\n", legend.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_within_grid() {
        let mut chart = AsciiChart::new(20, 5);
        chart.series("s", &[0.0, 1.0, 2.0], &[0.0, 1.0, 4.0], 'o');
        let out = chart.render();
        let grid_marks: usize = out
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.matches('o').count())
            .sum();
        assert_eq!(grid_marks, 3);
        // 5 grid rows, each prefixed with '|'.
        assert_eq!(out.lines().filter(|l| l.starts_with('|')).count(), 5);
    }

    #[test]
    fn empty_chart_has_placeholder() {
        let chart = AsciiChart::new(10, 4);
        assert!(chart.render().contains("empty chart"));
    }

    #[test]
    fn vertical_marker_spans_all_rows() {
        let mut chart = AsciiChart::new(10, 4);
        chart.series("s", &[0.0, 10.0], &[0.0, 1.0], '*');
        chart.vertical_marker(5.0, ';');
        let out = chart.render();
        assert_eq!(out.matches(';').count(), 4);
    }

    #[test]
    fn title_labels_and_legend_appear() {
        let mut chart = AsciiChart::new(10, 4);
        chart
            .title("Fig. 3")
            .x_label("normalized RPS")
            .y_label("normalized variance")
            .series("img-dnn", &[0.0, 1.0], &[0.0, 1.0], 'x');
        let out = chart.render();
        assert!(out.contains("Fig. 3"));
        assert!(out.contains("normalized RPS"));
        assert!(out.contains("normalized variance"));
        assert!(out.contains("x = img-dnn"));
    }

    #[test]
    fn degenerate_ranges_do_not_panic() {
        let mut chart = AsciiChart::new(10, 4);
        chart.series("s", &[5.0, 5.0], &[2.0, 2.0], '#');
        let out = chart.render();
        assert!(out.contains('#'));
    }
}
