package harness

import (
	"strings"
	"testing"

	"axmemo/internal/workloads"
)

func TestStandardConfigsMatchPaperSweep(t *testing.T) {
	cfgs := StandardConfigs()
	want := []string{"L1 (4KB)", "L1 (8KB)", "L1 (8KB)+L2 (256KB)", "L1 (8KB)+L2 (512KB)", "Software LUT"}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Errorf("config %d = %q, want %q", i, c.Name, want[i])
		}
	}
	if cfgs[4].Mode != ModeSoftLUT {
		t.Error("last config is not the software LUT")
	}
}

func TestRunBaselineVsHardware(t *testing.T) {
	w, err := workloads.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(w, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if base.HitRate != 0 || base.MemoInsns != 0 {
		t.Errorf("baseline reports memo activity: %+v", base)
	}
	hw, err := Run(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hw.Cycles >= base.Cycles {
		t.Errorf("hardware config not faster: %d vs %d", hw.Cycles, base.Cycles)
	}
	if hw.EnergyPJ >= base.EnergyPJ {
		t.Errorf("hardware config not cheaper: %.3g vs %.3g pJ", hw.EnergyPJ, base.EnergyPJ)
	}
	if hw.HitRate < 0.8 {
		t.Errorf("hit rate = %.3f", hw.HitRate)
	}
}

func TestRunATMAndSoft(t *testing.T) {
	w, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSoftLUT, ModeATM} {
		r, err := Run(w, Config{Name: "m", Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if r.HitRate <= 0 {
			t.Errorf("mode %d: no software hits", mode)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(1)
	w, _ := workloads.ByName("fft")
	a, err := s.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Baseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("baseline not cached")
	}
	c1, err := s.Under(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Under(w, BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("config run not cached")
	}
	if names := s.SortedConfigNames("fft"); len(names) != 1 {
		t.Errorf("cached configs = %v", names)
	}
}

// TestSuiteResponse: Response answers only for cells that resolved
// without error, and encodes each cell once.
func TestSuiteResponse(t *testing.T) {
	s := NewSuite(1)
	encodes := 0
	encode := func(r *Result) []byte {
		encodes++
		return []byte(r.Config)
	}
	c := SweepCell{Workload: "fft", Config: HW("L1 (4KB)", 4, 0)}
	if _, ok := s.Response(c, encode); ok {
		t.Fatal("unknown cell answered")
	}
	if _, _, err := s.RunCell(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if b, ok := s.Response(c, encode); !ok || string(b) != "L1 (4KB)" {
			t.Fatalf("resolved cell: %q, %v", b, ok)
		}
	}
	if encodes != 1 {
		t.Fatalf("encoded %d times, want 1", encodes)
	}
	bad := c
	bad.Config.MaxCycles = 1000
	if _, _, err := s.RunCell(bad); err == nil {
		t.Fatal("cycle budget not enforced")
	}
	if _, ok := s.Response(bad, encode); ok {
		t.Fatal("failed cell answered")
	}
}

// TestFig7aShape asserts the qualitative claims of Fig. 7a on the full
// sweep: larger hardware configurations win on average, jmeint never
// does, blackscholes leads, and the software LUT trails the hardware.
func TestFig7aShape(t *testing.T) {
	s := NewSuite(1)
	speed := func(w *workloads.Workload, cfg Config) float64 {
		base, err := s.Baseline(w)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Under(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(base.Cycles) / float64(r.Cycles)
	}
	var bestSum, smallSum float64
	for _, w := range workloads.All() {
		sBest := speed(w, BestConfig())
		sSmall := speed(w, HW("L1 (4KB)", 4, 0))
		sSoft := speed(w, Config{Name: "Software LUT", Mode: ModeSoftLUT})
		bestSum += sBest
		smallSum += sSmall
		switch w.Name {
		case "jmeint":
			if sBest > 1.05 {
				t.Errorf("jmeint speedup %.2f, want ~none", sBest)
			}
		case "blackscholes":
			if sBest < 3 {
				t.Errorf("blackscholes speedup %.2f, want the largest", sBest)
			}
			if sSoft >= sBest {
				t.Errorf("software LUT (%.2f) should trail hardware (%.2f) on blackscholes", sSoft, sBest)
			}
		case "sobel", "jpeg":
			if sSoft >= 1.0 {
				t.Errorf("%s: software LUT speedup %.2f, paper reports a slowdown", w.Name, sSoft)
			}
		}
	}
	if bestSum <= smallSum {
		t.Errorf("largest config (avg %.2f) not better than smallest (avg %.2f)", bestSum/10, smallSum/10)
	}
}

// TestFig9Monotonic asserts hit rate grows (or holds) with LUT capacity.
func TestFig9Monotonic(t *testing.T) {
	s := NewSuite(1)
	for _, w := range workloads.All() {
		small, err := s.Under(w, HW("L1 (4KB)", 4, 0))
		if err != nil {
			t.Fatal(err)
		}
		big, err := s.Under(w, BestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if big.HitRate+0.01 < small.HitRate {
			t.Errorf("%s: hit rate fell with capacity: %.3f -> %.3f", w.Name, small.HitRate, big.HitRate)
		}
	}
}

// TestFig10aQualityBounds asserts the paper's quality claim: output error
// below ~1% everywhere with the Table 2 truncations, and the monitor
// never trips.
func TestFig10aQualityBounds(t *testing.T) {
	s := NewSuite(1)
	for _, w := range workloads.All() {
		r, err := s.Under(w, BestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Quality > 0.012 {
			t.Errorf("%s quality loss %.4f, want ≤ ~1%%", w.Name, r.Quality)
		}
		if r.Monitor.Disabled {
			t.Errorf("%s: quality monitor tripped at Table 2 settings", w.Name)
		}
	}
}

func TestFigureFormatting(t *testing.T) {
	fig := &Figure{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"r1", "v"}, {"longer-name", "w"}},
		Notes:  []string{"hello"},
	}
	out := fig.String()
	for _, want := range []string{"X — demo", "longer-name", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Static(t *testing.T) {
	fig := Table2()
	if len(fig.Rows) != 10 {
		t.Fatalf("Table 2 has %d rows", len(fig.Rows))
	}
	if fig.Rows[0][0] != "blackscholes" || fig.Rows[9][0] != "srad" {
		t.Error("Table 2 order wrong")
	}
}

func TestTable5Static(t *testing.T) {
	fig := Table5()
	if len(fig.Rows) != 5 {
		t.Fatalf("Table 5 has %d rows", len(fig.Rows))
	}
	if !strings.Contains(fig.Notes[0], "2.08%") {
		t.Errorf("Table 5 note missing the paper's area overhead: %v", fig.Notes)
	}
}

func TestTable1RunsOnAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 traces every benchmark")
	}
	fig, err := Table1(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 10 {
		t.Fatalf("Table 1 has %d rows", len(fig.Rows))
	}
	// Every benchmark must expose at least one candidate region.
	for _, row := range fig.Rows {
		if row[1] == "0" {
			t.Errorf("%s: no dynamic candidate subgraphs found", row[0])
		}
	}
}

func TestCRCWidthOverride(t *testing.T) {
	w, _ := workloads.ByName("fft")
	cfg := BestConfig()
	cfg.CRCWidth = 16
	cfg.TrackCollisions = true
	if _, err := Run(w, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.CRCWidth = 13
	if _, err := Run(w, cfg); err == nil {
		t.Error("invalid CRC width accepted")
	}
}

func TestAblationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	s := NewSuite(1)
	crcFig, err := s.AblationCRCWidth()
	if err != nil {
		t.Fatal(err)
	}
	if len(crcFig.Rows) != 9 {
		t.Fatalf("CRC ablation rows = %d, want 9", len(crcFig.Rows))
	}
	// CRC-16 must show collisions somewhere; CRC-32/64 must show none.
	saw16 := false
	for _, row := range crcFig.Rows {
		if row[1] == "16" && row[2] != "0" {
			saw16 = true
		}
		if (row[1] == "32" || row[1] == "64") && row[2] != "0" {
			t.Errorf("CRC-%s collided: %v", row[1], row)
		}
	}
	if !saw16 {
		t.Error("CRC-16 never collided; ablation shows nothing")
	}

	adFig, err := s.AblationAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if len(adFig.Rows) != 3 {
		t.Fatalf("adaptive ablation rows = %d", len(adFig.Rows))
	}

	rateFig, err := s.AblationCRCRate()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rateFig.Rows {
		if row[3] < "1" {
			t.Errorf("unrolling slowed %s down: %v", row[0], row)
		}
	}
}

func TestFigureBars(t *testing.T) {
	fig := &Figure{
		ID:     "B",
		Title:  "bars",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "2.00x"}, {"beta", "1.00x"}, {"bad", "n/a"}},
	}
	out := fig.Bars(1, 10)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "##########") {
		t.Errorf("bars missing full-scale row:\n%s", out)
	}
	if !strings.Contains(out, "#####") {
		t.Errorf("bars missing half-scale row:\n%s", out)
	}
	if strings.Contains(out, "bad") {
		t.Errorf("unparsable row rendered:\n%s", out)
	}
	if (&Figure{Header: []string{"x"}}).Bars(0, 10) != "" {
		t.Error("empty figure rendered bars")
	}
}
