package main

// The per-layer probes of a traced run.  Each calls one layer's public
// functions through the benchmark's own timing wrappers, with the same
// inputs the workloads use:
//
//   - harness, cpu, bytecode, memo, mem: the sweep's cells, run
//     serially, to the first cycle only, and with an obs.Sink attached;
//   - server: the serve-hot cells and zipf sequence through
//     Server.Handler in-process;
//   - client: the timed open loop of serve-hot (the other workloads run
//     a short serve-hot probe for it);
//   - store: the results the workload produced, Put and Get on a fresh
//     store, and the replay of the store the workload filled;
//   - axmemod: the daemons the workload (or the probe) ran.  Their tier
//     counts are printed, not reported as metrics: the tier gate pins
//     each of them exactly, and several are always 0.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"axmemo/internal/cpu"
	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/server"
	"axmemo/internal/store"
	"axmemo/internal/workloads"
)

const (
	// hotLoopInsns is the instruction budget of one hot-loop measurement.
	hotLoopInsns = 2_000_000
	// hotLoopRepeats is how many hot-loop measurements are taken.
	hotLoopRepeats = 5
	// handlerRequests is how many in-process handler calls are timed.
	handlerRequests = 10_000
	// clientProbe is the timed window of the serve-hot probe that sweep
	// and serve-cold traced runs use for the client metrics.
	clientProbe = 3 * time.Second
	// storeOpens is how many times store.open_ms reopens the store.
	storeOpens = 5
	// saltHandler seeds the in-process handler sequence.
	saltHandler = 0x68616e64
)

func runLayers(e *env, traced *measurement, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	sweepTiers, err := sweepLayers(m, tr)
	if err != nil {
		return nil, err
	}
	if err := serverLayers(e, m, tr); err != nil {
		return nil, err
	}

	// Client, boot and tier metrics come from the workload's own daemons
	// where it has them.
	hot := traced
	if hot.timed == nil {
		if hot, err = serveHot(e, tr, 0, clientProbe); err != nil {
			return nil, fmt.Errorf("client probe: %w", err)
		}
		m.merge(hot)
	}
	late := make([]float64, len(hot.timed))
	for i, r := range hot.timed {
		late[i] = ms(r.sent.Sub(r.due))
	}
	n := len(hot.timed)
	due := latencies(hot.timed, dueTime)
	m.set("client.open_p50_ms", median(due), n)
	m.set("client.open_p90_ms", quantile(due, 0.9), n)
	m.set("client.late_ms.p50", median(late), n)
	m.set("client.late_ms.p90", quantile(late, 0.9), n)
	sent := latencies(hot.timed, sentTime)
	m.set("client.net_us", 1000*median(sent)-m.values["server.handler_us.p50"], n)
	boots := traced.boots
	if len(boots) == 0 {
		boots = hot.boots
	}
	m.set("axmemod.boot_ms", median(boots), len(boots))

	t := sweepTiers
	if traced.tiers != nil {
		t = *traced.tiers
	}
	m.tiers = &t

	if err := storeLayers(e, m, traced, tr); err != nil {
		return nil, err
	}
	return m, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// sweepLayers measures the simulator layers on the sweep's cells and
// returns the tier counts of the instrumented pass.
func sweepLayers(m *measurement, tr *tracer) (tiers, error) {
	cells, err := harness.SweepCells()
	if err != nil {
		return tiers{}, err
	}
	root := tr.id()
	defer func(start time.Time) { tr.record(root, 0, "layers.sweep", start, time.Now()) }(time.Now())

	// Serial cells on a fresh suite: time, allocation and GC share.
	var (
		cellMs        []float64
		insns, cycles uint64
		ms0, ms1      runtime.MemStats
	)
	s := harness.NewSuite(1)
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	for _, c := range cells {
		var (
			res *harness.Result
			err error
		)
		d := tr.call(root, "harness.RunCell", func() { res, _, err = s.RunCell(c) })
		m.attempted++
		if err != nil {
			m.fail("serial %s/%s: %v", c.Workload, c.Config.Name, err)
			continue
		}
		cellMs = append(cellMs, ms(d))
		insns += res.Insns
		cycles += res.Cycles
	}
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	n := len(cells)
	m.set("harness.cell_ms.p50", median(cellMs), len(cellMs))
	m.set("harness.cell_ms.p90", quantile(cellMs, 0.9), len(cellMs))
	m.set("harness.alloc_kb_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(n), n)
	m.set("harness.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0), n)
	m.set("sim.insns", float64(insns), 0)
	m.set("sim.cycles", float64(cycles), 0)

	// The same cells stopped at the first cycle: all per-run set-up.
	var setupMs []float64
	for _, c := range cells {
		cfg := c.Config
		if c.Baseline {
			cfg = harness.Baseline()
		}
		cfg.Scale, cfg.MaxCycles = 1, 1
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return tiers{}, err
		}
		d := tr.call(root, "harness.Run.setup", func() { _, err = harness.Run(w, cfg) })
		m.attempted++
		if !errors.Is(err, cpu.ErrCycleBudget) {
			m.fail("setup %s/%s: want a cycle-budget error, got %v", c.Workload, cfg.Name, err)
			continue
		}
		setupMs = append(setupMs, ms(d))
	}
	m.set("harness.setup_ms.p50", median(setupMs), len(setupMs))
	var cellSum, setupSum float64
	for i := range cellMs {
		cellSum += cellMs[i]
	}
	for i := range setupMs {
		setupSum += setupMs[i]
	}
	m.set("cpu.exec_ns_per_insn", (cellSum-setupSum)*1e6/float64(insns), n)

	// One plain parallel pass: how much of the pool sits idle.
	var passErr error
	wall := tr.call(root, "harness.GenerateAll", func() { _, passErr = harness.NewSuite(1).GenerateAll() })
	m.attempted++
	if passErr != nil {
		m.fail("parallel pass: %v", passErr)
	}
	m.set("harness.sched_idle_frac", 1-cellSum/(float64(runtime.GOMAXPROCS(0))*ms(wall)), 0)

	// Warm RunCell: the in-memory cell cache lookup.
	var hits []float64
	for i := 0; i < 20; i++ {
		for _, c := range cells {
			d := tr.call(root, "harness.RunCell.hit", func() { _, _, err = s.RunCell(c) })
			hits = append(hits, 1000*ms(d))
		}
	}
	m.set("harness.runcell_hit_us", median(hits), len(hits))

	// An instrumented pass: the deterministic memo and cache counters.
	sink := obs.NewSink()
	is := harness.NewSuite(1)
	is.Obs = sink
	tr.call(root, "harness.GenerateAll.obs", func() { _, passErr = is.GenerateAll() })
	m.attempted++
	if passErr != nil {
		m.fail("instrumented pass: %v", passErr)
	}
	snap, err := obs.ParseSnapshot(sink.Reg().SnapshotJSON(obs.Deterministic))
	if err != nil {
		return tiers{}, err
	}
	memo := snap.Family("memo_events_total")
	event := func(ev string) float64 { return memo.SumValues(map[string]string{"event": ev}) }
	lookups := event("lookup")
	simInsns := snap.Family("cpu_insns_total").SumValues(nil)
	m.set("memo.lookups_per_kinsn", 1000*lookups/simInsns, 0)
	m.set("memo.hit_ratio", (event("l1_hit")+event("l2_hit"))/lookups, 0)
	cache := snap.Family("mem_cache_events_total")
	missRatio := func(level string) float64 {
		miss := cache.SumValues(map[string]string{"level": level, "event": "miss"})
		hit := cache.SumValues(map[string]string{"level": level, "event": "hit"})
		return miss / (miss + hit)
	}
	m.set("mem.l1d_miss_ratio", missRatio("L1D"), 0)
	m.set("mem.l2_miss_ratio", missRatio("L2"), 0)

	// The bytecode engine alone, on its hot loop.
	var hot []float64
	for i := 0; i < hotLoopRepeats; i++ {
		var v float64
		tr.call(root, "cpu.MeasureHotLoop", func() { v, err = cpu.MeasureHotLoop(cpu.EngineBytecode, hotLoopInsns) })
		if err != nil {
			return tiers{}, err
		}
		hot = append(hot, v)
	}
	m.set("bytecode.hotloop_ns_per_insn", median(hot), len(hot))
	// Each of the pass's cells was asked for once and executed.
	t := tiersOf(snap)
	t.Requests = t.Exec
	return t, nil
}

// serverLayers times Server.Handler in-process on the serve-hot
// sequence, after warming the hot cells, with a server assembled like
// axmemod's (obs sink, result store).
func serverLayers(e *env, m *measurement, tr *tracer) error {
	root := tr.id()
	defer func(start time.Time) { tr.record(root, 0, "layers.server", start, time.Now()) }(time.Now())
	st, err := store.Open(filepath.Join(e.scratch, "handler-store"), 0)
	if err != nil {
		return err
	}
	defer st.Close()
	sink := obs.NewSink()
	st.Attach(sink)
	s := harness.NewSuite(1)
	s.Obs, s.Store = sink, st
	h := server.New(server.Config{Suite: s}).Handler()
	serve := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		return rec.Code
	}
	cells := hotCells()
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		bodies[i] = c.body()
		m.attempted++
		if code := serve(bodies[i]); code != http.StatusOK {
			m.fail("in-process warm-up %+v: status %d", c, code)
		}
	}
	var handler []float64
	for _, c := range zipfSequence(e.seed^saltHandler, len(cells), handlerRequests) {
		var code int
		d := tr.call(root, "server.Handler", func() { code = serve(bodies[c]) })
		handler = append(handler, 1000*ms(d))
		m.attempted++
		if code != http.StatusOK {
			m.fail("in-process %+v: status %d", cells[c], code)
		}
	}
	p50 := median(handler)
	m.set("server.handler_us.p50", p50, len(handler))
	m.set("server.self_us", p50-m.values["harness.runcell_hit_us"], len(handler))
	return nil
}

// storeLayers times store.Put and store.Get on the workload's results
// and the replay of a filled store at Open.
func storeLayers(e *env, m *measurement, traced *measurement, tr *tracer) error {
	root := tr.id()
	defer func(start time.Time) { tr.record(root, 0, "layers.store", start, time.Now()) }(time.Now())
	dir := filepath.Join(e.scratch, "probe-store")
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	keys := make([]store.Key, len(traced.results))
	var puts, gets []float64
	for i, res := range traced.results {
		keys[i] = store.KeyOf("perfbench/probe", fmt.Sprint(i))
		d := tr.call(root, "store.Put", func() { err = st.Put(keys[i], res) })
		m.attempted++
		if err != nil {
			m.fail("store.Put: %v", err)
		}
		puts = append(puts, ms(d))
	}
	for i := range keys {
		var (
			got harness.Result
			ok  bool
		)
		d := tr.call(root, "store.Get", func() { ok = st.Get(keys[i], &got) })
		m.attempted++
		if !ok || got.Insns != traced.results[i].Insns || got.Cycles != traced.results[i].Cycles {
			m.fail("store.Get %d: missing or different", i)
		}
		gets = append(gets, 1000*ms(d))
	}
	if err := st.Close(); err != nil {
		return err
	}
	m.set("store.put_ms.p50", median(puts), len(puts))
	m.set("store.get_us.p50", median(gets), len(gets))

	// Replay: the store the workload filled, else the probe's.
	if traced.storeDir != "" {
		dir = traced.storeDir
	}
	var opens []float64
	for i := 0; i < storeOpens; i++ {
		var s *store.Store
		d := tr.call(root, "store.Open", func() { s, err = store.Open(dir, 0) })
		if err != nil {
			return err
		}
		opens = append(opens, ms(d))
		if err := s.Close(); err != nil {
			return err
		}
	}
	m.set("store.open_ms", median(opens), len(opens))
	return os.RemoveAll(filepath.Join(e.scratch, "probe-store"))
}
