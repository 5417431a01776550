// Package bench reproduces every table and figure of the paper's
// evaluation (§4.4 storage, §5.9 query costs, §6.3–6.4 update and mix
// costs) plus the running examples of §2–§3, and adds executable
// page-level experiments that validate the analytical model's shape.
// Each experiment renders the same rows/series the paper plots; absolute
// axis values depend on the model transcription, but the qualitative
// structure (who wins, by what factor, where crossovers fall) is the
// reproduction target recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's printable result.
type Table struct {
	ID      string // experiment id, e.g. "fig6"
	Title   string // what the paper calls it
	Ref     string // paper section/figure
	Note    string // observations, break-evens, caveats
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table aligned, with title and note.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s (%s) ==\n", t.ID, t.Title, t.Ref)
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes elided; cells
// contain no commas by construction).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment is one runnable reproduction unit.
type Experiment struct {
	ID          string
	Title       string
	Ref         string
	Description string
	Run         func() (*Table, error)
}

var registry = map[string]Experiment{}
var order []string

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// f0, f1, f2, f3 format floats with 0–3 decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
