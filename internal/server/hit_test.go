package server

// Tests for the memory-tier hit path of /v1/simulate: a resolved cell is
// answered inline from bytes encoded once per cell, and those bytes must
// be exactly what writeJSON would have written.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/workloads"
)

// serve runs one /v1/simulate request through h in-process.
func serve(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
	return rec
}

// wantBody is the answer writeJSON writes for a hardware cell, with the
// key derived here rather than by the handler.
func wantBody(t *testing.T, bench string, cfg harness.Config, res *harness.Result, cached bool) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, simulateResponse{
		Workload: bench,
		Config:   cfg.Name,
		Key:      harness.CellStoreKey(bench, cfg).String(),
		Cached:   cached,
		Result:   res,
	})
	return rec.Body.Bytes()
}

// decodeCached reads the "cached" flag of a simulate answer.
func decodeCached(t *testing.T, body []byte) bool {
	t.Helper()
	var out simulateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	return out.Cached
}

// TestHitBytesHotCells: for every cell of the 30-cell hot population
// (each benchmark at L1 4, 8 and 16 KB, no L2), the executing request
// answers "cached": false and every later one answers the inline bytes,
// which equal writeJSON's encoding of the cached answer.
func TestHitBytesHotCells(t *testing.T) {
	suite := testSuite(t, "")
	h := New(Config{Suite: suite}).Handler()
	for _, l1 := range []int{4, 8, 16} {
		for _, w := range workloads.All() {
			body := fmt.Sprintf(`{"benchmark":%q,"l1_kb":%d}`, w.Name, l1)
			first := serve(h, body)
			if cached := decodeCached(t, first.Body.Bytes()); first.Code != http.StatusOK || cached {
				t.Fatalf("%s: first answer %d cached=%v, want 200 executed", body, first.Code, cached)
			}
			cfg := harness.HW(fmt.Sprintf("L1 (%dKB)", l1), l1, 0)
			res, executed, err := suite.RunCell(harness.SweepCell{Workload: w.Name, Config: cfg})
			if err != nil || executed {
				t.Fatalf("%s: cell not cached after its request (executed=%v, err=%v)", body, executed, err)
			}
			if want := wantBody(t, w.Name, cfg, res, false); !bytes.Equal(first.Body.Bytes(), want) {
				t.Fatalf("%s: executing answer differs from writeJSON:\n%s\nwant\n%s", body, first.Body, want)
			}
			want := wantBody(t, w.Name, cfg, res, true)
			for i := 0; i < 2; i++ {
				hit := serve(h, body)
				if hit.Code != http.StatusOK || !bytes.Equal(hit.Body.Bytes(), want) {
					t.Fatalf("%s: hit %d = %d\n%s\nwant\n%s", body, i, hit.Code, hit.Body, want)
				}
				if ct := hit.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s: hit Content-Type %q", body, ct)
				}
			}
		}
	}
	if got := execCount(suite); got != 30 {
		t.Fatalf("executed %d cells, want 30", got)
	}
}

// TestHitAfterRestart: a fresh server over a warm store answers its first
// request for a cell from the store with "cached": true, and that answer
// is the same bytes every later hit serves.
func TestHitAfterRestart(t *testing.T) {
	dir := t.TempDir()
	const body = `{"benchmark":"sobel","l1_kb":4}`
	cold := testSuite(t, dir)
	if rec := serve(New(Config{Suite: cold}).Handler(), body); rec.Code != http.StatusOK {
		t.Fatalf("cold run: %d", rec.Code)
	}
	cold.Store.Close()

	warm := testSuite(t, dir)
	h := New(Config{Suite: warm}).Handler()
	first := serve(h, body)
	cfg := harness.HW("L1 (4KB)", 4, 0)
	res, _, err := warm.RunCell(harness.SweepCell{Workload: "sobel", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	want := wantBody(t, "sobel", cfg, res, true)
	if first.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), want) {
		t.Fatalf("store-hit answer = %d\n%s\nwant\n%s", first.Code, first.Body, want)
	}
	if again := serve(h, body); !bytes.Equal(again.Body.Bytes(), want) {
		t.Fatalf("memory hit after store hit differs:\n%s\nwant\n%s", again.Body, want)
	}
	if got := execCount(warm); got != 0 {
		t.Fatalf("warm server executed %d cells, want 0", got)
	}
}

// TestErrorCellNeverHits: a cell that failed (cycle budget) is not
// resolved for the hit path; every request answers 500.
func TestErrorCellNeverHits(t *testing.T) {
	suite := testSuite(t, "")
	h := New(Config{Suite: suite}).Handler()
	for i := 0; i < 3; i++ {
		rec := serve(h, `{"benchmark":"sobel","max_cycles":1000}`)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "cycle budget") {
			t.Fatalf("request %d: %d %s, want 500 cycle budget", i, rec.Code, rec.Body)
		}
	}
}

// TestConcurrentHitsRaceExecution: many requests for one cold cell race
// its execution.  Exactly one executes; every other answer is the
// cached bytes, whether it waited on the run or found the cell
// resolved.  Run under -race.
func TestConcurrentHitsRaceExecution(t *testing.T) {
	suite := testSuite(t, "")
	h := New(Config{Suite: suite, Workers: 4, QueueDepth: 64}).Handler()
	const n = 16
	const body = `{"benchmark":"blackscholes","l1_kb":8}`
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				time.Sleep(time.Duration(i) * time.Millisecond) // some arrive after it resolves
			}
			rec := serve(h, body)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d", i, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	cfg := harness.HW("L1 (8KB)", 8, 0)
	res, _, err := suite.RunCell(harness.SweepCell{Workload: "blackscholes", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	executing, cached := wantBody(t, "blackscholes", cfg, res, false), wantBody(t, "blackscholes", cfg, res, true)
	executed := 0
	for i, b := range bodies {
		switch {
		case bytes.Equal(b, executing):
			executed++
		case !bytes.Equal(b, cached):
			t.Fatalf("request %d: unexpected body\n%s", i, b)
		}
	}
	if executed != 1 || execCount(suite) != 1 {
		t.Fatalf("%d executing answers, %d executions; want 1 each", executed, execCount(suite))
	}
}

// TestHitAdmission: a hit takes a read slot like any other request.
// With the only slot held it queues and, once the slot frees, answers
// the cached bytes; with the queue full it gets 429.  Every verdict is
// counted once.
func TestHitAdmission(t *testing.T) {
	suite := testSuite(t, "")
	srv := New(Config{Suite: suite, Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	h := srv.Handler()
	const body = `{"benchmark":"sobel","l1_kb":4}`
	serve(h, body)
	want := serve(h, body).Body.Bytes()

	srv.readC.sem <- struct{}{}
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- serve(h, body) }()
	for i := 0; srv.readC.waiting.Load() == 0; i++ {
		if i > 5000 {
			t.Fatal("hit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if rec := serve(h, body); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("hit over a full queue: status %d, want 429", rec.Code)
	}
	<-srv.readC.sem
	if rec := <-queued; rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("queued hit: %d\n%s\nwant\n%s", rec.Code, rec.Body, want)
	}
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseSnapshot(suite.Obs.Reg().SnapshotJSON(obs.Deterministic))
	if err != nil {
		t.Fatal(err)
	}
	adm := snap.Family("server_admission_total")
	for verdict, want := range map[string]float64{"accepted": 3, "rejected": 1} {
		if got, _ := adm.Value(map[string]string{"route": "simulate", "verdict": verdict}); got != want {
			t.Errorf("simulate %s = %v, want %v", verdict, got, want)
		}
	}
}

// TestCellKeyKnobs: a configuration's name does not carry max_cycles or
// guard_budget, yet requests that differ only in them are different
// cells.  Each pair is tried in both orders; neither request may be
// answered from the other's cell.
func TestCellKeyKnobs(t *testing.T) {
	plain := func(bench string) *harness.Result {
		w, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(w, harness.BestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sobel, fft := plain("sobel"), plain("fft")
	type answer struct {
		code int
		out  simulateResponse
	}
	ask := func(h http.Handler, body string) answer {
		rec := serve(h, body)
		var out simulateResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
		}
		return answer{rec.Code, out}
	}
	checkPlain := func(name string, a answer, want *harness.Result) {
		t.Helper()
		if a.code != http.StatusOK || a.out.Cached || a.out.Result.Cycles != want.Cycles || a.out.Result.Quality != want.Quality {
			t.Errorf("%s: plain request got %d cached=%v %+v, want a fresh plain run", name, a.code, a.out.Cached, a.out.Result)
		}
	}

	t.Run("max_cycles first", func(t *testing.T) {
		h := New(Config{Suite: testSuite(t, "")}).Handler()
		if a := ask(h, `{"benchmark":"sobel","max_cycles":1000}`); a.code != http.StatusInternalServerError {
			t.Fatalf("budgeted run: status %d, want 500", a.code)
		}
		checkPlain("max_cycles first", ask(h, `{"benchmark":"sobel"}`), sobel)
	})
	t.Run("max_cycles second", func(t *testing.T) {
		h := New(Config{Suite: testSuite(t, "")}).Handler()
		checkPlain("max_cycles second", ask(h, `{"benchmark":"sobel"}`), sobel)
		if a := ask(h, `{"benchmark":"sobel","max_cycles":1000}`); a.code != http.StatusInternalServerError {
			t.Fatalf("budgeted run after a plain one: status %d, want 500", a.code)
		}
	})
	t.Run("guard_budget first", func(t *testing.T) {
		h := New(Config{Suite: testSuite(t, "")}).Handler()
		g := ask(h, `{"benchmark":"fft","guard_budget":0.01}`)
		if g.code != http.StatusOK || g.out.Cached {
			t.Fatalf("guarded run: %d cached=%v", g.code, g.out.Cached)
		}
		p := ask(h, `{"benchmark":"fft"}`)
		checkPlain("guard_budget first", p, fft)
		if p.out.Key == g.out.Key {
			t.Error("guarded and plain runs report the same key")
		}
	})
	t.Run("guard_budget second", func(t *testing.T) {
		h := New(Config{Suite: testSuite(t, "")}).Handler()
		checkPlain("guard_budget second", ask(h, `{"benchmark":"fft"}`), fft)
		if g := ask(h, `{"benchmark":"fft","guard_budget":0.01}`); g.code != http.StatusOK || g.out.Cached {
			t.Fatalf("guarded run after a plain one: %d cached=%v, want executed", g.code, g.out.Cached)
		}
	})
}

// BenchmarkSimulate measures a memory-tier hit through the whole handler
// (hot) against writeJSON's encoding of the same answer alone (encode).
// CI gates on hot allocating fewer bytes than encode: the hit path does
// not encode.
func BenchmarkSimulate(b *testing.B) {
	suite := harness.NewSuite(1)
	suite.Obs = obs.NewSink()
	h := New(Config{Suite: suite}).Handler()
	body := []byte(`{"benchmark":"sobel","l1_kb":4}`)
	req, err := http.NewRequest(http.MethodPost, "/v1/simulate", nil)
	if err != nil {
		b.Fatal(err)
	}
	w := &bufferWriter{header: http.Header{}}
	hit := func() {
		w.reset()
		req.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.buf.Bytes())
		}
	}
	hit() // executes the cell
	hit() // encodes its cached answer
	cfg := harness.HW("L1 (4KB)", 4, 0)
	res, _, err := suite.RunCell(harness.SweepCell{Workload: "sobel", Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	resp := simulateResponse{Workload: "sobel", Config: cfg.Name,
		Key: harness.CellStoreKey("sobel", cfg).String(), Cached: true, Result: res}

	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hit()
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.reset()
			writeJSON(w, http.StatusOK, resp)
		}
	})
}

// bufferWriter is a reusable in-memory ResponseWriter, so the benchmark
// measures the handler and not the recorder's buffer growth.
type bufferWriter struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func (w *bufferWriter) Header() http.Header         { return w.header }
func (w *bufferWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *bufferWriter) WriteHeader(code int)        { w.code = code }

func (w *bufferWriter) reset() {
	w.buf.Reset()
	w.code = http.StatusOK
}
