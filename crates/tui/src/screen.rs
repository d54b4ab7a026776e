//! The frame/window engine — the terminal-independent substitute for
//! curses.
//!
//! A [`Frame`] is a fixed-size character grid. Drawing is by absolute
//! row/column, with helpers for the layouts the paper's screens share:
//! full-width boxes, centered headings, ruled separators, and column rows.
//! Scrolling is handled by the windows themselves: a [`ListWindow`] shows a
//! slice of its items and tracks the scroll offset (the paper: "some of
//! which can be scrolled to supply and display additional information").

use std::fmt;

/// Default screen width (a VT100-era terminal).
pub const WIDTH: usize = 78;
/// Default screen height.
pub const HEIGHT: usize = 24;

/// A rendered character grid.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    cells: Vec<char>,
}

impl Frame {
    /// Blank frame of the default size.
    pub fn new() -> Self {
        Self::sized(WIDTH, HEIGHT)
    }

    /// Blank frame of a custom size.
    pub fn sized(width: usize, height: usize) -> Self {
        Self {
            width,
            cells: vec![' '; width * height],
        }
    }

    /// Frame width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height.
    pub fn height(&self) -> usize {
        self.cells.len() / self.width
    }

    /// Write `text` starting at `(row, col)`, clipped to the frame.
    pub fn put(&mut self, row: usize, col: usize, text: &str) {
        if row >= self.height() {
            return;
        }
        for (i, c) in text.chars().enumerate() {
            let x = col + i;
            if x >= self.width {
                break;
            }
            self.cells[row * self.width + x] = c;
        }
    }

    /// Write `text` centered on `row`.
    pub fn put_centered(&mut self, row: usize, text: &str) {
        let len = text.chars().count().min(self.width);
        let col = (self.width - len) / 2;
        self.put(row, col, text);
    }

    /// Horizontal rule across the full width of `row`.
    pub fn hline(&mut self, row: usize) {
        let line: String = "-".repeat(self.width);
        self.put(row, 0, &line);
    }

    /// Draw a box border around the whole frame.
    pub fn border(&mut self) {
        let h = self.height();
        let w = self.width;
        for col in 0..w {
            self.cells[col] = '-';
            self.cells[(h - 1) * w + col] = '-';
        }
        for row in 0..h {
            self.cells[row * w] = '|';
            self.cells[row * w + w - 1] = '|';
        }
        for (r, c) in [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)] {
            self.cells[r * w + c] = '+';
        }
    }

    /// Write fields at the given column stops on `row`.
    pub fn columns(&mut self, row: usize, stops: &[usize], fields: &[&str]) {
        for (stop, field) in stops.iter().zip(fields) {
            self.put(row, *stop, field);
        }
    }

    /// The text of one row, right-trimmed.
    pub fn row_text(&self, row: usize) -> String {
        let start = row * self.width;
        let s: String = self.cells[start..start + self.width].iter().collect();
        s.trim_end().to_owned()
    }

    /// `true` when any row contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        (0..self.height()).any(|r| self.row_text(r).contains(needle))
    }

    /// Row index of the first row containing `needle`.
    pub fn find(&self, needle: &str) -> Option<usize> {
        (0..self.height()).find(|&r| self.row_text(r).contains(needle))
    }
}

impl Default for Frame {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in 0..self.height() {
            writeln!(f, "{}", self.row_text(row))?;
        }
        Ok(())
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({}x{})\n{self}", self.width, self.height())
    }
}

/// A scrollable list window: renders `page_size` items from `offset`, with
/// the paper's `(n)` length annotation and `(S)croll` affordance.
#[derive(Clone, Debug, Default)]
pub struct ListWindow {
    /// Scroll offset (index of the first visible item).
    pub offset: usize,
    /// Items per page.
    pub page_size: usize,
}

impl ListWindow {
    /// Window with the given page size.
    pub fn new(page_size: usize) -> Self {
        Self {
            offset: 0,
            page_size,
        }
    }

    /// Advance one page, wrapping to the top past the end — the behaviour
    /// of the paper's `(S)croll` menu choice.
    pub fn scroll(&mut self, total: usize) {
        if total == 0 {
            return;
        }
        self.offset += self.page_size;
        if self.offset >= total {
            self.offset = 0;
        }
    }

    /// The visible index range for `total` items.
    pub fn visible(&self, total: usize) -> std::ops::Range<usize> {
        let start = self.offset.min(total);
        let end = (start + self.page_size).min(total);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_read_back() {
        let mut f = Frame::new();
        f.put(3, 5, "hello");
        assert_eq!(f.row_text(3), "     hello");
        assert!(f.contains("hello"));
        assert_eq!(f.find("hello"), Some(3));
        assert!(f.find("absent").is_none());
    }

    #[test]
    fn clipping_at_edges() {
        let mut f = Frame::sized(10, 3);
        f.put(1, 7, "overflow");
        assert_eq!(f.row_text(1), "       ove");
        f.put(99, 0, "nowhere"); // silently ignored
        assert_eq!(f.height(), 3);
        assert_eq!(f.width(), 10);
    }

    #[test]
    fn centered_and_rules() {
        let mut f = Frame::sized(20, 4);
        f.put_centered(0, "TITLE");
        assert!(f.row_text(0).starts_with("       TITLE"));
        f.hline(1);
        assert_eq!(f.row_text(1), "-".repeat(20));
    }

    #[test]
    fn border_corners() {
        let mut f = Frame::sized(8, 4);
        f.border();
        assert_eq!(f.row_text(0), "+------+");
        assert_eq!(f.row_text(3), "+------+");
        assert!(f.row_text(1).starts_with('|'));
        assert!(f.row_text(1).ends_with('|'));
    }

    #[test]
    fn columns_layout() {
        let mut f = Frame::sized(40, 2);
        f.columns(0, &[0, 15, 30], &["Name", "Type", "Attrs"]);
        let row = f.row_text(0);
        assert_eq!(&row[0..4], "Name");
        assert_eq!(&row[15..19], "Type");
        assert_eq!(&row[30..35], "Attrs");
    }

    #[test]
    fn list_window_scrolls_and_wraps() {
        let mut w = ListWindow::new(3);
        assert_eq!(w.visible(8), 0..3);
        w.scroll(8);
        assert_eq!(w.visible(8), 3..6);
        w.scroll(8);
        assert_eq!(w.visible(8), 6..8);
        w.scroll(8);
        assert_eq!(w.visible(8), 0..3, "wraps");
        // Short lists need no scrolling and never move.
        let mut w = ListWindow::new(5);
        assert_eq!(w.visible(4), 0..4);
        w.scroll(0);
        assert_eq!(w.offset, 0);
    }
}
