package harness

import (
	"strings"
	"sync"
	"testing"

	"axmemo/internal/workloads"
)

// TestSweepCellsDedup checks that figures sharing a sweep share cells:
// Fig7a/7b/8/9/10a all read the same baseline + StandardConfigs grid, so
// requesting all five must enumerate it exactly once.
func TestSweepCellsDedup(t *testing.T) {
	one, err := SweepCells("Fig7a")
	if err != nil {
		t.Fatal(err)
	}
	want := len(workloads.All()) * (1 + len(StandardConfigs()))
	if len(one) != want {
		t.Fatalf("Fig7a cells = %d, want %d", len(one), want)
	}
	five, err := SweepCells("Fig7a", "Fig7b", "Fig8", "Fig9", "Fig10a")
	if err != nil {
		t.Fatal(err)
	}
	if len(five) != want {
		t.Fatalf("five-figure sweep = %d cells, want %d (fully deduplicated)", len(five), want)
	}
	// ATM shares its BestConfig column and baselines with the standard
	// grid: only the ATM-mode cells are new.
	withATM, err := SweepCells("Fig7a", "ATM")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(withATM), want+len(workloads.All()); got != want {
		t.Fatalf("Fig7a+ATM sweep = %d cells, want %d", got, want)
	}
	seen := make(map[cellKey]bool)
	for _, c := range withATM {
		if seen[c.key()] {
			t.Fatalf("duplicate cell %+v", c.key())
		}
		seen[c.key()] = true
	}
}

// TestSweepCellNamesAreKeys: across the whole evaluation a (workload,
// configuration name) pair always comes with the same knobs, so keying
// cells on the knobs as well shares exactly the cells the name alone
// did, and the figures are unchanged by it.
func TestSweepCellNamesAreKeys(t *testing.T) {
	cells, err := SweepCells()
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[[2]string]bool)
	for _, c := range cells {
		k := c.key()
		names[[2]string{k.workload, k.config}] = true
	}
	if len(names) != len(cells) {
		t.Fatalf("%d cells under %d (workload, name) pairs: a name is reused with different knobs", len(cells), len(names))
	}
}

// TestSweepCellsCoverEveryFigure checks the enumeration knows every
// scheduler figure and rejects unknown ones.
func TestSweepCellsCoverEveryFigure(t *testing.T) {
	for _, id := range FigureIDs() {
		cells, err := SweepCells(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(cells) == 0 {
			t.Fatalf("%s: no cells enumerated", id)
		}
	}
	if _, err := SweepCells("Fig99"); err == nil {
		t.Fatal("unknown figure did not error")
	}
	if _, err := (&Suite{}).Figure("Fig99"); err == nil {
		t.Fatal("unknown figure did not error in Figure")
	}
}

// TestCellOnceSemantics races many goroutines at one cache cell and
// checks they all observe the identical *Result — i.e. the simulation
// ran exactly once.
func TestCellOnceSemantics(t *testing.T) {
	s := NewSuite(1)
	cfg := BestConfig()
	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := workloads.ByName("sobel")
			if err != nil {
				t.Error(err)
				return
			}
			r, err := s.Under(w, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different *Result: cell ran more than once", i)
		}
	}
	if got := s.CachedCells(); got != 1 {
		t.Fatalf("CachedCells = %d, want 1", got)
	}
}

// TestParallelSweepMatchesSerial is the scheduler's determinism
// contract: a worker-pool sweep must render byte-identical figures to a
// serial one.  Every Run carries all of its state (locally seeded RNGs,
// fault plans, memo units), so execution order cannot leak into results.
func TestParallelSweepMatchesSerial(t *testing.T) {
	figs := []string{"Fig7a", "Fig7b", "Fig8", "Fig10b", "ATM"}

	render := func(s *Suite) string {
		var sb strings.Builder
		out, err := s.GenerateAll(figs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	serial := NewSuite(1)
	serial.Parallel = 1
	want := render(serial)

	par := NewSuite(1)
	par.Parallel = 4
	got := render(par)

	if got != want {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if serial.CachedCells() != par.CachedCells() {
		t.Fatalf("cached cells differ: serial %d, parallel %d",
			serial.CachedCells(), par.CachedCells())
	}
}

// TestGenerateMatchesDirectFigure checks that the prewarmed path renders
// the same bytes as calling the figure generator cold.
func TestGenerateMatchesDirectFigure(t *testing.T) {
	cold := NewSuite(1)
	direct, err := cold.Fig10b()
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSuite(1)
	warm.Parallel = 2
	gen, err := warm.Generate("Fig10b")
	if err != nil {
		t.Fatal(err)
	}
	if gen.String() != direct.String() {
		t.Fatalf("Generate(Fig10b) differs from direct Fig10b:\n%s\nvs\n%s", gen.String(), direct.String())
	}
}
