package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"axmemo/internal/memo"
	"axmemo/internal/obs"
	"axmemo/internal/quality"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

// Figure is one reproduced table or figure, as rows of text cells.
type Figure struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	widths := make([]int, len(f.Header))
	for i, h := range f.Header {
		widths[i] = len(h)
	}
	for _, row := range f.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(f.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range f.Rows {
		line(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Bars renders one column of the figure as a horizontal ASCII bar chart,
// scaled to the column's maximum.  Cells are parsed as leading floats
// ("2.42x", "67.17%"); unparsable rows are skipped.
func (f *Figure) Bars(col int, width int) string {
	if width <= 0 {
		width = 40
	}
	type bar struct {
		label string
		v     float64
	}
	var bars []bar
	maxV := 0.0
	for _, row := range f.Rows {
		if col >= len(row) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(row[col], "%f", &v); err != nil {
			continue
		}
		bars = append(bars, bar{row[0], v})
		if v > maxV {
			maxV = v
		}
	}
	if len(bars) == 0 || maxV == 0 {
		return ""
	}
	labelW := 0
	for _, b := range bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s [%s]\n", f.ID, f.Title, f.Header[col])
	for _, b := range bars {
		n := int(b.v / maxV * float64(width))
		fmt.Fprintf(&sb, "%-*s | %-*s %.3g\n", labelW, b.label, width, strings.Repeat("#", n), b.v)
	}
	return sb.String()
}

// Suite caches runs so that multiple figures share the same sweep.  The
// cache is safe for concurrent use: every (workload, config) cell is
// executed exactly once, even when the parallel sweep scheduler
// (scheduler.go) and figure generators race for it.
type Suite struct {
	Scale int
	// Parallel bounds the scheduler's worker pool (0 = GOMAXPROCS, 1 =
	// serial).  Cell results are independent of this setting — each
	// simulation carries all of its state (RNG seeds, fault plans, memo
	// units) per Run, so only wall-clock changes.
	Parallel int
	// Obs, if non-nil, collects every cell's metrics and timeline
	// events.  Deterministic families stay byte-identical between serial
	// and parallel sweeps: counters are additive, per-run gauges have one
	// writer, trace process lanes are pre-assigned in enumeration order
	// (pidFor), and the racy scheduler telemetry is Volatile.
	Obs *obs.Sink
	// Store, if non-nil, backs the in-memory cell cache with the
	// disk-backed content-addressed result store, so cells computed by
	// other processes (the axmemod daemon, earlier CLI runs) are reused
	// byte-identically instead of recomputed.
	Store *store.Store
	// Engine, if non-empty, selects the simulator execution engine for
	// every cell ("tree" or "bytecode"; see cpu.ParseEngine).  The
	// engines are result-identical by contract, so this changes
	// wall-clock only — cell keys, figures and obs snapshots are
	// byte-identical either way.
	Engine string
	// Remote, if non-nil, is consulted after the in-memory cell cache
	// but before the store/execute tiers: a cluster coordinator forwards
	// the cell to its owning peer here.  ok=false means "not handled"
	// (no owner, owner dead, retries exhausted) and the cell falls back
	// to the local tiers — degraded, never down.  Because every cell is
	// a pure function of its content-addressed key, a remote result is
	// byte-identical to a local recompute.  The delegate receives the
	// fully resolved cell (baseline expanded, Scale set, obs cleared
	// from the wire by the caller's own serialization).  executed
	// reports whether the remote peer ran the simulation for this call
	// (false = it answered from its cache), keeping the API's cached
	// flag truthful across the cluster.
	Remote func(c SweepCell) (res *Result, executed, ok bool)

	mu      sync.Mutex
	cells   map[cellKey]*cell
	cellPID map[cellKey]int
	nextPID int
}

// cellKey addresses one cached simulation: figures share baselines and
// standard-config runs through this key.  The name stands for the
// truncation override and the fault plan (a slice and a pointer, not
// comparable); every other result-affecting knob is a field, because a
// name need not change with, say, a cycle or guard budget.  The key is a
// comparable struct, so a lookup hashes nothing beyond what the map does.
type cellKey struct {
	workload string
	config   string

	mode             Mode
	l1KB, l2KB       int
	totalL2CacheKB   int
	crcWidth         uint
	crcBytesPerCycle int
	monitorOff       bool
	trackCollisions  bool
	dataBytes8       bool
	collectElemErrs  bool
	adaptive         bool
	guardBudget      uint64 // math.Float64bits: NaN-safe map equality
	guardCooldown    uint64
	maxCycles        uint64
}

// keyOf returns the cache key of workload under cfg.
func keyOf(workload string, cfg Config) cellKey {
	return cellKey{
		workload:         workload,
		config:           cfg.Name,
		mode:             cfg.Mode,
		l1KB:             cfg.L1KB,
		l2KB:             cfg.L2KB,
		totalL2CacheKB:   cfg.TotalL2CacheKB,
		crcWidth:         cfg.CRCWidth,
		crcBytesPerCycle: cfg.CRCBytesPerCycle,
		monitorOff:       cfg.MonitorOff,
		trackCollisions:  cfg.TrackCollisions,
		dataBytes8:       cfg.DataBytes8,
		collectElemErrs:  cfg.CollectElemErrors,
		adaptive:         cfg.Adaptive,
		guardBudget:      math.Float64bits(cfg.GuardBudget),
		guardCooldown:    cfg.GuardCooldown,
		maxCycles:        cfg.MaxCycles,
	}
}

// cell is one cached simulation with once-semantics: whichever caller
// arrives first runs it, everyone else blocks on the Once and reads the
// same result.
type cell struct {
	once sync.Once
	res  *Result
	err  error
	// ok is set once the cell has resolved without error: the
	// non-blocking check behind Response.
	ok atomic.Bool
	// resp is the serving layer's encoding of res, rendered at most once
	// (respOnce) and kept for the cell's lifetime.
	respOnce sync.Once
	resp     []byte
}

// NewSuite prepares a suite at the given input scale.
func NewSuite(scale int) *Suite {
	if scale <= 0 {
		scale = 1
	}
	return &Suite{
		Scale:   scale,
		cells:   make(map[cellKey]*cell),
		cellPID: make(map[cellKey]int),
		nextPID: 1, // lane 0 is the harness/scheduler itself
	}
}

// pidFor returns the cell's stable trace process lane, assigning the
// next one on first request.  Prewarm pre-assigns every enumerated cell
// before its workers start, so lanes are identical between serial and
// parallel sweeps.
func (s *Suite) pidFor(key cellKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pid, ok := s.cellPID[key]; ok {
		return pid
	}
	pid := s.nextPID
	s.nextPID++
	s.cellPID[key] = pid
	return pid
}

// getCell returns the cache cell for key, creating it if needed.
func (s *Suite) getCell(key cellKey) *cell {
	s.mu.Lock()
	c, ok := s.cells[key]
	if !ok {
		c = &cell{}
		s.cells[key] = c
	}
	s.mu.Unlock()
	return c
}

// runCell executes (or waits for) the cached simulation of w under cfg.
func (s *Suite) runCell(w *workloads.Workload, cfg Config, baseline bool) (*Result, error) {
	res, _, err := s.runCellDetail(w, cfg, baseline)
	return res, err
}

// runCellDetail additionally reports whether THIS call executed the
// simulation (false = served from the in-memory cell, the disk store,
// or another caller already in flight).
func (s *Suite) runCellDetail(w *workloads.Workload, cfg Config, baseline bool) (*Result, bool, error) {
	cfg.Scale = s.Scale
	if s.Engine != "" {
		cfg.Engine = s.Engine
	}
	key := keyOf(w.Name, cfg)
	if s.Obs != nil {
		cfg.Obs = s.Obs
		cfg.ObsPID = s.pidFor(key)
	}
	c := s.getCell(key)
	executed := false
	c.once.Do(func() {
		c.res, executed, c.err = s.resolve(w, cfg, baseline)
		c.ok.Store(c.err == nil)
	})
	return c.res, executed, c.err
}

// resolve produces a cell's result from the tiers below the in-memory
// cache: the remote delegate first, then the store or a local run.
func (s *Suite) resolve(w *workloads.Workload, cfg Config, baseline bool) (*Result, bool, error) {
	if s.Remote != nil {
		outcomes := s.Obs.Reg().NewCounterVec("harness_remote_cells_total",
			obs.Opts{Help: "cells offered to the remote tier, by outcome (served = a replica answered, fallback = all replicas unavailable, local tiers took over)"},
			"outcome")
		if res, rexec, ok := s.Remote(SweepCell{Workload: w.Name, Config: cfg, Baseline: baseline}); ok {
			outcomes.With("served").Inc()
			return res, rexec, nil
		}
		outcomes.With("fallback").Inc()
	}
	return s.loadOrRun(w, cfg)
}

// Response returns the serving layer's encoding of cell c, provided the
// cell has already resolved without error.  It never blocks and never
// simulates: ok is false while the cell is unknown, in flight or
// failed, and the caller takes the RunCell path instead.  The first
// call for a cell renders the bytes with encode; every later call
// returns those same bytes, which live as long as the cell does.  All
// callers of one suite must therefore pass equivalent encoders: a pure
// function of the result and the cell.
func (s *Suite) Response(c SweepCell, encode func(*Result) []byte) (b []byte, ok bool) {
	s.mu.Lock()
	ce := s.cells[c.key()]
	s.mu.Unlock()
	if ce == nil || !ce.ok.Load() {
		return nil, false
	}
	ce.respOnce.Do(func() { ce.resp = encode(ce.res) })
	return ce.resp, true
}

// Baseline runs (and caches) the unmemoized configuration.
func (s *Suite) Baseline(w *workloads.Workload) (*Result, error) {
	return s.runCell(w, Baseline(), true)
}

// Under runs (and caches) one standard configuration.
func (s *Suite) Under(w *workloads.Workload, cfg Config) (*Result, error) {
	return s.runCell(w, cfg, false)
}

func f2x(v float64) string { return fmt.Sprintf("%.2fx", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// perConfigFigure sweeps workloads × configs and formats cell(result,
// baseline) per cell, with an average row.
func (s *Suite) perConfigFigure(id, title string, configs []Config,
	cell func(r, base *Result) (string, float64)) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, Header: []string{"benchmark"}}
	for _, c := range configs {
		fig.Header = append(fig.Header, c.Name)
	}
	sums := make([][]float64, len(configs))
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		row := []string{w.Name}
		for ci, c := range configs {
			r, err := s.Under(w, c)
			if err != nil {
				return nil, err
			}
			text, val := cell(r, base)
			row = append(row, text)
			sums[ci] = append(sums[ci], val)
		}
		fig.Rows = append(fig.Rows, row)
	}
	avg := []string{"average"}
	for ci := range configs {
		avg = append(avg, fmt.Sprintf("%.4g", mean(sums[ci])))
	}
	fig.Rows = append(fig.Rows, avg)
	return fig, nil
}

// Fig7a reproduces Fig. 7a: whole-application speedup per LUT
// configuration, normalized to the unmemoized baseline.
func (s *Suite) Fig7a() (*Figure, error) {
	fig, err := s.perConfigFigure("Fig7a", "speedup over baseline (higher is better)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			v := float64(base.Cycles) / float64(r.Cycles)
			return f2x(v), v
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 1.40x avg for L1(4KB), 2.82x avg for L1(8KB)+L2(512KB), 0.94x for software LUT")
	return fig, nil
}

// Fig7b reproduces Fig. 7b: energy saving E_baseline/E_config.
func (s *Suite) Fig7b() (*Figure, error) {
	fig, err := s.perConfigFigure("Fig7b", "energy saving over baseline (higher is better)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			v := base.EnergyPJ / r.EnergyPJ
			return f2x(v), v
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 1.37x avg for L1(4KB), 2.72x avg for L1(8KB)+L2(512KB), ~1x for software LUT")
	return fig, nil
}

// Fig8 reproduces Fig. 8: normalized dynamic instruction count, with the
// memoization-instruction share in parentheses.
func (s *Suite) Fig8() (*Figure, error) {
	fig, err := s.perConfigFigure("Fig8", "dynamic instructions normalized to baseline (memo share in parens)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			norm := float64(r.Insns) / float64(base.Insns)
			share := float64(r.MemoInsns) / float64(base.Insns)
			return fmt.Sprintf("%.3f (%.3f)", norm, share), norm
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: 20.0% reduction for L1(4KB), 50.1% for L1(8KB)+L2(512KB); software implementation ~2x increase")
	return fig, nil
}

// Fig9 reproduces Fig. 9: total LUT hit rate per configuration.
func (s *Suite) Fig9() (*Figure, error) {
	fig, err := s.perConfigFigure("Fig9", "LUT hit rate",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			return pct(r.HitRate), r.HitRate
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes, "paper: 37.1% avg for L1(4KB), 76.1% for L1(8KB)+L2(512KB), 81.1% software LUT")
	return fig, nil
}

// Fig10a reproduces Fig. 10a: whole-application quality loss per
// configuration (E_r, or misclassification rate for jmeint).
func (s *Suite) Fig10a() (*Figure, error) {
	fig, err := s.perConfigFigure("Fig10a", "output quality loss (E_r; misclassification for jmeint)",
		StandardConfigs(), func(r, base *Result) (string, float64) {
			return fmt.Sprintf("%.4f%%", 100*r.Quality), r.Quality
		})
	if err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"paper: average output error below 1% in all configurations; software LUT higher due to collisions")
	return fig, nil
}

// fig10bConfig is the element-error-collecting variant of the best
// configuration used by Fig. 10b (also enumerated by the scheduler).
func fig10bConfig() Config {
	cfg := BestConfig()
	cfg.CollectElemErrors = true
	cfg.Name = cfg.Name + " +cdf"
	return cfg
}

// fig11NoApproxConfig is Fig. 11's approximation-disabled run for w.
func fig11NoApproxConfig(w *workloads.Workload) Config {
	cfg := BestConfig()
	cfg.Name = "L1 (8KB)+L2 (512KB) no-approx"
	cfg.Trunc = make([]uint8, len(w.TruncBits))
	return cfg
}

// atmConfig is the §6.2 prior-work runtime configuration.
func atmConfig() Config { return Config{Name: "ATM", Mode: ModeATM} }

// l2SensitivityConfigs returns the §6.2 sensitivity pair: a 256KB L2 LUT
// over the default 1MB shared L2 and over a 512KB one.
func l2SensitivityConfigs() (big, small Config) {
	big = HW("L1 (8KB)+L2 (256KB)", 8, 256)
	small = HW("L1 (8KB)+L2 (256KB) @512KB-L2", 8, 256)
	small.TotalL2CacheKB = 512
	return big, small
}

// Fig10b reproduces Fig. 10b: the CDF of element-wise relative error at
// the largest configuration, sampled at fixed error points.
func (s *Suite) Fig10b() (*Figure, error) {
	points := []float64{0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	fig := &Figure{
		ID:     "Fig10b",
		Title:  "CDF of element-wise relative error, L1(8KB)+L2(512KB)",
		Header: []string{"benchmark"},
	}
	for _, p := range points {
		fig.Header = append(fig.Header, fmt.Sprintf("≤%.0e", p))
	}
	for _, w := range workloads.All() {
		if w.Misclass {
			continue // boolean outputs have no element-wise error CDF
		}
		r, err := s.Under(w, fig10bConfig())
		if err != nil {
			return nil, err
		}
		cdf := quality.NewCDF(r.ElemErrors)
		row := []string{w.Name}
		for _, v := range cdf.Points(points) {
			row = append(row, pct(v))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Fig11 reproduces Fig. 11: speedup and energy saving with the Table 2
// truncation versus with approximation disabled, both on the largest
// configuration.
func (s *Suite) Fig11() (*Figure, error) {
	fig := &Figure{
		ID:    "Fig11",
		Title: "effect of approximation (input truncation), L1(8KB)+L2(512KB)",
		Header: []string{"benchmark", "speedup w/ approx", "speedup w/o approx",
			"energy w/ approx", "energy w/o approx", "hit w/", "hit w/o"},
	}
	var hitW, hitWo []float64
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		with, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		without, err := s.Under(w, fig11NoApproxConfig(w))
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, []string{
			w.Name,
			f2x(float64(base.Cycles) / float64(with.Cycles)),
			f2x(float64(base.Cycles) / float64(without.Cycles)),
			f2x(base.EnergyPJ / with.EnergyPJ),
			f2x(base.EnergyPJ / without.EnergyPJ),
			pct(with.HitRate),
			pct(without.HitRate),
		})
		hitW = append(hitW, with.HitRate)
		hitWo = append(hitWo, without.HitRate)
	}
	fig.Rows = append(fig.Rows, []string{"average", "", "", "", "", pct(mean(hitW)), pct(mean(hitWo))})
	fig.Notes = append(fig.Notes,
		"paper: disabling approximation drops average hit rate from 76.1% to 47.2%; JPEG, Sobel and SRAD lose their gains")
	return fig, nil
}

// ATMComparison reproduces the §6.2 prior-work comparison.
func (s *Suite) ATMComparison() (*Figure, error) {
	fig := &Figure{
		ID:     "ATM",
		Title:  "comparison with Approximate Task Memoization (software prior work)",
		Header: []string{"benchmark", "ATM speedup", "ATM hit rate", "AxMemo speedup"},
	}
	var atmSp []float64
	for _, w := range workloads.All() {
		base, err := s.Baseline(w)
		if err != nil {
			return nil, err
		}
		atmRes, err := s.Under(w, atmConfig())
		if err != nil {
			return nil, err
		}
		hw, err := s.Under(w, BestConfig())
		if err != nil {
			return nil, err
		}
		sp := float64(base.Cycles) / float64(atmRes.Cycles)
		atmSp = append(atmSp, sp)
		fig.Rows = append(fig.Rows, []string{
			w.Name, f2x(sp), pct(atmRes.HitRate),
			f2x(float64(base.Cycles) / float64(hw.Cycles)),
		})
	}
	fig.Rows = append(fig.Rows, []string{"geomean", f2x(geomean(atmSp)), "", ""})
	fig.Notes = append(fig.Notes,
		"paper: ATM speeds up only blackscholes (5.8x), fft (2.6x), inversek2j (1.3x) and k-means (1.3x); geomean 0.8x")
	return fig, nil
}

// L2Sensitivity reproduces the §6.2 study: shrink the shared L2 cache
// from 1MB to 512KB while keeping a 256KB L2 LUT, and report the
// performance degradation of the memoized configuration.
func (s *Suite) L2Sensitivity() (*Figure, error) {
	fig := &Figure{
		ID:     "SENS",
		Title:  "sensitivity to total L2 size (256KB L2 LUT; 1MB vs 512KB shared L2)",
		Header: []string{"benchmark", "cycles @1MB", "cycles @512KB", "degradation"},
	}
	var degs []float64
	bigCfg, smallCfg := l2SensitivityConfigs()
	for _, w := range workloads.All() {
		big, err := s.Under(w, bigCfg)
		if err != nil {
			return nil, err
		}
		small, err := s.Under(w, smallCfg)
		if err != nil {
			return nil, err
		}
		deg := float64(small.Cycles)/float64(big.Cycles) - 1
		degs = append(degs, deg)
		fig.Rows = append(fig.Rows, []string{
			w.Name,
			fmt.Sprintf("%d", big.Cycles),
			fmt.Sprintf("%d", small.Cycles),
			pct(deg),
		})
	}
	fig.Rows = append(fig.Rows, []string{"average", "", "", pct(mean(degs))})
	fig.Notes = append(fig.Notes, "paper: 0.44% average degradation, 1.55% worst (hotspot)")
	return fig, nil
}

// Table2 reproduces Table 2's configuration columns.
func Table2() *Figure {
	fig := &Figure{
		ID:     "Table2",
		Title:  "evaluated benchmarks",
		Header: []string{"benchmark", "domain", "description", "memo input (bytes)", "truncated bits"},
	}
	for _, w := range workloads.All() {
		tr := make([]string, len(w.TruncBits))
		for i, t := range w.TruncBits {
			tr[i] = fmt.Sprintf("%d", t)
		}
		fig.Rows = append(fig.Rows, []string{
			w.Name, w.Domain, w.Description, w.InputBytes, strings.Join(tr, ", "),
		})
	}
	return fig
}

// Table4 reproduces the ISA-extension timing parameters as modeled.
func Table4() *Figure {
	mc := memo.DefaultConfig()
	fig := &Figure{
		ID:     "Table4",
		Title:  "timing parameters of the AxMemo ISA extensions (as modeled)",
		Header: []string{"instruction", "latency"},
	}
	fig.Rows = [][]string{
		{"ld_crc dst,[addr],LUT_ID,n", fmt.Sprintf("load latency; CRC unit absorbs %d B/cycle in the background", mc.CRCBytesPerCycle)},
		{"reg_crc src,LUT_ID,n", fmt.Sprintf("1 cycle issue; CRC unit absorbs %d B/cycle in the background", mc.CRCBytesPerCycle)},
		{"lookup dst,LUT_ID", fmt.Sprintf("%d cycles L1 LUT, +13 cycles L2 LUT; waits for the CRC queue to drain", mc.L1.HitLatency)},
		{"update src,LUT_ID", fmt.Sprintf("%d cycles", mc.UpdateLatency)},
		{"invalidate LUT_ID", "1 cycle per way in a set (dedicated hardware)"},
	}
	fig.Notes = append(fig.Notes,
		"paper Table 4 charges one cycle per byte for the feeds; the evaluated unit is unrolled 4x (§6.1), which the model defaults to — set CRCBytesPerCycle=1 for the byte-serial unit (BenchmarkAblationCRCRate)")
	return fig
}

// Table5 reproduces the synthesized unit costs adopted as model
// constants.
func Table5() *Figure {
	fig := &Figure{
		ID:     "Table5",
		Title:  "area, energy and timing of the memoization units (32nm model constants)",
		Header: []string{"unit", "area (mm^2)", "energy (pJ)", "latency (ns)"},
	}
	rows := []struct {
		name string
		c    memo.UnitCosts
	}{
		{"CRC32 unit", memo.CostCRC32Unit},
		{"Hash register", memo.CostHashReg},
		{"LUT (4KB)", memo.CostLUT4KB},
		{"LUT (8KB)", memo.CostLUT8KB},
		{"LUT (16KB)", memo.CostLUT16KB},
	}
	for _, r := range rows {
		fig.Rows = append(fig.Rows, []string{
			r.name,
			fmt.Sprintf("%.4f", r.c.AreaMM2),
			fmt.Sprintf("%.4f", r.c.EnergyPJ),
			fmt.Sprintf("%.4f", r.c.LatencyNS),
		})
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("area overhead with 16KB L1 LUT on two cores: %.2f%% of the %.2f mm^2 HPI processor",
			100*memo.AreaOverhead(16<<10, 2), memo.HPIProcessorAreaMM2))
	return fig
}

// SortedConfigNames lists the cached (non-baseline) configurations of a
// workload, for diagnostics.
func (s *Suite) SortedConfigNames(workload string) []string {
	s.mu.Lock()
	var names []string
	for k := range s.cells {
		if k.workload == workload && k.mode != ModeBaseline {
			names = append(names, k.config)
		}
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// CachedCells reports how many simulations the suite has cached.
func (s *Suite) CachedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}
