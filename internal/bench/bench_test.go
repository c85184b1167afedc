package bench

import (
	"testing"

	"zipg"
)

// TestPaperClaims runs every figure at its scale in claimScales and
// asserts each of its claims but those marked expected to fail. -short
// runs the cheap figures only.
func TestPaperClaims(t *testing.T) {
	for i, tc := range claimScales {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("short mode")
			}
			if i >= len(Figures) || Figures[i].Name != tc.name {
				t.Fatal("Figures is not in claimScales's order (see TestExperimentNames)")
			}
			r, err := Figures[i].Run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", r.Format())
			if len(r.Rows) != tc.rows {
				t.Errorf("%d rows, want %d", len(r.Rows), tc.rows)
			}
			for _, v := range r.Verdicts {
				if !v.Holds && v.Deviation == "" {
					t.Errorf("claim does not hold: %s", v.Name)
				}
			}
		})
	}
}

var (
	tiny = Options{BaseBytes: 48 << 10, Ops: 300}
	// At a 256 KiB base the datasets straddle the budget as in the
	// paper: orkut and lb-small fit every system, twitter and lb-medium
	// spill the uncompressed ones, uk and lb-large spill all.
	full = Options{BaseBytes: 256 << 10, Ops: 300}
	// The scale of EXPERIMENTS.md: where a figure is cheap, its claims
	// are checked on the numbers the results file shows, and measurement
	// windows long enough that one slow pass does not decide a claim.
	paper = Options{BaseBytes: 256 << 10, Ops: 1200}
)

// claimScales is TestPaperClaims's table: every figure, in the paper's
// order, with the scale it runs at and the rows it must produce.
var claimScales = []struct {
	name  string
	opts  Options
	rows  int
	heavy bool // skipped by -short
}{
	{"table4", full, 6, false},
	{"fig5", full, 6, false},
	{"table5", full, 6, false},
	{"fig6", full, 15, true},
	{"fig7", Options{BaseBytes: 256 << 10, Ops: 600}, 15, true},
	{"fig8", Options{BaseBytes: 48 << 10, Ops: 150}, 15, true},
	{"fig9", full, 18, true},
	{"fig10", paper, 3, false},
	{"fig11", paper, 5, false},
	{"fig12", paper, 50, true},
	{"fig13", tiny, 4, true},
	// The join-vs-filter crossover needs enough nodes that the
	// single-property result set outnumbers a node's neighbors (the
	// paper's "more people in Ithaca than Alice has friends").
	{"fig14", Options{BaseBytes: 384 << 10, Ops: 200}, 6, true},
	{"ablation-alpha", paper, 6, false},
	{"ablation-fanned", paper, 2, false},
	{"ablation-logstore", paper, 4, false},
	{"ablation-shards", paper, 5, false},
}

// TestExperimentNames pins Figures to the paper's order, the order
// -list prints.
func TestExperimentNames(t *testing.T) {
	if len(Figures) != len(claimScales) {
		t.Fatalf("%d figures, %d in claimScales", len(Figures), len(claimScales))
	}
	for i, f := range Figures {
		if f.Name != claimScales[i].name {
			t.Errorf("figure %d is %s, want %s", i, f.Name, claimScales[i].name)
		}
	}
}

func TestBuildSystemUnknown(t *testing.T) {
	d, err := datasetByName("orkut", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSystem("mystery", d, -1, zipg.Options{}); err == nil {
		t.Error("unknown system should fail")
	}
	if _, err := datasetByName("nope", 1); err == nil {
		t.Error("unknown dataset should fail")
	}
}
