package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned columns,
// in the style of the paper's result tables.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Render returns the table as an aligned ASCII string.
func (t *Table) Render() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range width {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
