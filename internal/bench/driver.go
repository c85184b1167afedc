package bench

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"zipg"
	"zipg/internal/gen"
)

// A Figure is one table or figure of the evaluation, as data.
type Figure struct {
	Name, Title string
	headers     []string
	// cases are the datasets the figure runs over, in row order; Figure 9
	// prefixes each with its workload ("tao/twitter").
	cases []string
	// systems are built over every case under the budget, and row is
	// called once for each; a figure with none builds its own in row.
	systems []string
	// budget is the DRAM budget as a multiple of the base dataset size:
	// MemoryRatio, distMemoryRatio or 0 for unlimited.
	budget float64
	row    func(c *cell) error
	notes  []string
	claims []Claim
}

// A Claim is one statement of the paper about a figure, worded as the
// paper words it, and a predicate over the figure's table that checks
// it.
type Claim struct {
	Name  string
	holds func(r *Result) bool
	// Deviation, if set, marks the claim expected to fail in this
	// reproduction and says why (EXPERIMENTS.md, "Summary of
	// deviations").
	Deviation string
}

// A Verdict is a claim checked against a run.
type Verdict struct {
	Claim
	Holds bool
}

// cell is what one call of a figure's row function measures: a case,
// and the system built for it if the figure lists systems.
type cell struct {
	opts  Options
	name  string // the case
	d     *gen.Dataset
	sys   *System
	r     *Result
	built []*System // every system built for the call; an op error on one fails it
}

// build builds a system over the case's dataset (budget in bytes; <0
// unlimited).
func (c *cell) build(name string, budget int64, zo zipg.Options) (*System, error) {
	if c.opts.Verbose {
		fmt.Printf("  building %s over %s...\n", name, c.name)
	}
	sys, err := BuildSystem(name, c.d, budget, zo)
	if err == nil {
		c.built = append(c.built, sys)
	}
	return sys, err
}

// add appends a row to the figure's table.
func (c *cell) add(cells ...any) {
	out := make([]string, len(cells))
	for i, v := range cells {
		out[i] = fmt.Sprint(v)
	}
	c.r.Rows = append(c.r.Rows, out)
}

// note adds lines under the figure's table.
func (c *cell) note(lines ...string) { c.r.Notes = append(c.r.Notes, lines...) }

// Run measures the figure at opts: one row function call per case and
// system, with identical inputs for every system. Then it checks the
// figure's claims against the table.
func (f *Figure) Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{Title: f.Title, Headers: f.headers, Notes: slices.Clone(f.notes)}
	budget := int64(-1)
	if f.budget > 0 {
		budget = int64(float64(opts.BaseBytes) * f.budget)
	}
	systems := f.systems
	if systems == nil {
		systems = []string{""}
	}
	for _, name := range f.cases {
		d, err := datasetByName(name[strings.LastIndex(name, "/")+1:], opts.BaseBytes)
		for _, sys := range systems {
			c := &cell{opts: opts, name: name, d: d, r: r}
			if err == nil && sys != "" {
				c.sys, err = c.build(sys, budget, zipg.Options{})
			}
			if err == nil {
				err = f.row(c)
			}
			for _, s := range c.built {
				err = errors.Join(err, s.err)
			}
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %s %s: %w", f.Name, name, sys, err)
			}
		}
	}
	for _, cl := range f.claims {
		r.Verdicts = append(r.Verdicts, Verdict{cl, cl.holds(r)})
	}
	return r, nil
}

// Result is one figure's printable output.
type Result struct {
	Title    string
	Headers  []string
	Rows     [][]string
	Notes    []string
	Verdicts []Verdict
}

// Format renders the result as an aligned text table, then its notes,
// then ✔ or ✘ for each claim.
func (r *Result) Format() string {
	lines := append([][]string{r.Headers, make([]string, len(r.Headers))}, r.Rows...)
	widths := make([]int, len(r.Headers))
	for _, l := range lines {
		for i, c := range l {
			widths[i] = max(widths[i], len(c))
		}
	}
	for i, w := range widths {
		lines[1][i] = strings.Repeat("-", w)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s ===\n", r.Title)
	for _, l := range lines {
		for i, c := range l {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&sb, "%s %s\n", map[bool]string{true: "✔", false: "✘"}[v.Holds], v.Name)
		if v.Deviation != "" {
			fmt.Fprintf(&sb, "  expected to fail: %s\n", v.Deviation)
		}
	}
	return sb.String()
}

// cellOf returns column col of the first row whose leading cells are
// keys, or "".
func (r *Result) cellOf(col string, keys ...string) string {
	c := slices.Index(r.Headers, col)
	for _, row := range r.Rows {
		if c >= 0 && c < len(row) && len(keys) <= len(row) && slices.Equal(row[:len(keys)], keys) {
			return row[c]
		}
	}
	return ""
}

// num is cellOf as a number.
func (r *Result) num(col string, keys ...string) float64 { return number(r.cellOf(col, keys...)) }

// column returns column col of every row as numbers, in row order.
func (r *Result) column(col string) []float64 {
	c := slices.Index(r.Headers, col)
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = math.NaN()
		if c >= 0 && c < len(row) {
			out[i] = number(row[c])
		}
	}
	return out
}

// number parses a cell ("2.5x" reads 2.5); anything else is NaN, which
// fails every comparison a claim makes.
func number(cell string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// steps reports whether ok holds for every consecutive pair of xs.
func steps(xs []float64, ok func(prev, next float64) bool) bool {
	for i := 1; i < len(xs); i++ {
		if !ok(xs[i-1], xs[i]) {
			return false
		}
	}
	return len(xs) > 0
}

// every reports whether ok holds for every x.
func every[T any](xs []T, ok func(x T) bool) bool {
	for _, x := range xs {
		if !ok(x) {
			return false
		}
	}
	return true
}

// kops formats a throughput as thousands of operations per second.
func kops(v float64) string { return fmt.Sprintf("%.2f", v/1000) }
