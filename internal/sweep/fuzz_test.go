package sweep

import (
	"encoding/json"
	"testing"
)

// FuzzParseGrid feeds arbitrary bytes to the sweep-grid parser, seeded with
// the default grid's JSON and one file per badGrids case. A file it rejects
// must come back as an error, never a panic; a grid it accepts must expand
// to one job per cell and seed.
func FuzzParseGrid(f *testing.F) {
	def := DefaultGrid(2)
	for _, mutate := range append([]func(*Grid){func(*Grid) {}}, badGrids...) {
		g := def
		mutate(&g)
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data, def)
		if err != nil {
			return
		}
		// Axes a few hundred values long multiply to more jobs than a fuzz
		// worker should hold; the expansion is linear, so a small one
		// checks it as well as a big one.
		n := 1
		for _, axis := range []int{len(g.Distances), len(g.Alphas), len(g.Factors), len(g.Ks), len(g.Seeds)} {
			if n *= axis; n > 1<<16 {
				return
			}
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatalf("an accepted grid does not expand: %v", err)
		}
		if want := len(g.Cells()) * len(g.Seeds); len(jobs) != want || want != n {
			t.Fatalf("%d jobs from %d cells × %d seeds, want %d", len(jobs), len(g.Cells()), len(g.Seeds), n)
		}
	})
}
