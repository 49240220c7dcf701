package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/server"
)

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{0.3}); got != 0.3 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	// Raw samples, not buckets: a 0.3 ms median stays 0.3 ms.
	if got := median([]float64{0.31, 0.29, 0.3, 2.5, 0.28}); got != 0.3 {
		t.Errorf("median = %v, want 0.3", got)
	}
}

func TestSeededOrder(t *testing.T) {
	a := seededOrder(7, saltColdOrder, 560)
	if !slices.Equal(a, seededOrder(7, saltColdOrder, 560)) {
		t.Fatal("same seed gave different orders")
	}
	if slices.Equal(a, seededOrder(8, saltColdOrder, 560)) {
		t.Error("different seeds gave the same order")
	}
	if slices.Equal(a, seededOrder(7, saltColdCheck, 560)) {
		t.Error("different salts gave the same order")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order is not a permutation of 0..559 (position %d holds %d)", i, v)
		}
	}
	z := zipfSequence(3, 30, 5000)
	if !slices.Equal(z, zipfSequence(3, 30, 5000)) {
		t.Fatal("same seed gave different zipf sequences")
	}
	counts := make([]int, 30)
	for _, r := range z {
		counts[r]++
	}
	if counts[0] <= counts[29] || counts[0] < len(z)/10 {
		t.Errorf("zipf sequence is not head-heavy: rank 0 drawn %d times, rank 29 %d", counts[0], counts[29])
	}
}

func TestCells(t *testing.T) {
	hw := hardwareCells()
	if len(hw) != 560 {
		t.Fatalf("%d hardware cells, want 560", len(hw))
	}
	keys, err := cellKeys(hw)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate cell key %s", k)
		}
		seen[k] = true
	}
	if hot := hotCells(); len(hot) != 30 || hot[0] != (cellSpec{Benchmark: "sobel", L1KB: 4}) {
		t.Errorf("hot population %d cells starting %+v", len(hot), hot[0])
	}
	if got := string(cellSpec{Benchmark: "fft", L1KB: 2, L2KB: 128, TruncOff: true}.body()); got != `{"benchmark":"fft","l1_kb":2,"l2_kb":128,"trunc_off":true}` {
		t.Errorf("body = %s", got)
	}
}

// The benchmark's own key derivation agrees with the daemon's answer.
func TestCellKeyMatchesServer(t *testing.T) {
	h := server.New(server.Config{Suite: harness.NewSuite(1)}).Handler()
	for _, c := range []cellSpec{
		{Benchmark: "blackscholes", L1KB: 4},
		{Benchmark: "blackscholes", L1KB: 1, L2KB: 256, TruncOff: true},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(c.body()))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", c, rec.Code, rec.Body)
		}
		var resp simResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want, err := c.key()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Key != want {
			t.Errorf("%+v: daemon key %s, benchmark derives %s", c, resp.Key, want)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and parentheses.
	stat := "4242 (ax (memo) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 25 0 0 20 0 7 0 99 123456 789 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 175 {
		t.Errorf("parseStatCPU = %d, %v; want 175", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\taxmemod\nVmPeak:\t  812340 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   19000 kB\nThreads:\t7\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || got != 20480 {
		t.Errorf("VmHWM = %d, %v; want 20480", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("wrong unit accepted")
	}
}

func TestTierGate(t *testing.T) {
	before := tiers{Requests: 30, Exec: 30, StoreMisses: 30, StoreWrites: 30}
	for _, tc := range []struct {
		name  string
		after tiers
		want  tiers
		ok    bool
	}{
		{"hot reads from memory", tiers{Requests: 1030, Exec: 30, StoreMisses: 30, StoreWrites: 30}, hotTiers(1000), true},
		{"hot read executed", tiers{Requests: 1030, Exec: 31, StoreMisses: 31, StoreWrites: 31}, hotTiers(1000), false},
		{"cold writes once each", tiers{Requests: 590, Exec: 590, StoreMisses: 590, StoreWrites: 590}, coldTiers(560), true},
		{"cold write lost", tiers{Requests: 590, Exec: 590, StoreMisses: 590, StoreWrites: 589}, coldTiers(560), false},
		{"reread from store", tiers{Requests: 590, Exec: 30, StoreHits: 560, StoreMisses: 30, StoreWrites: 30}, rereadTiers(560), true},
		{"reread recomputed", tiers{Requests: 590, Exec: 31, StoreHits: 559, StoreMisses: 31, StoreWrites: 31}, rereadTiers(560), false},
	} {
		err := gateTiers(tc.name, before, tc.after, tc.want)
		if (err == nil) != tc.ok {
			t.Errorf("%s: gate error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTiersOfSnapshot(t *testing.T) {
	reg := obs.NewSink().Reg()
	reg.NewCounterVec("server_requests_total", obs.Opts{}, "route", "code").With("simulate", "200").Add(7)
	reg.NewCounterVec("server_requests_total", obs.Opts{}, "route", "code").With("simulate", "400").Add(2)
	reg.NewCounterVec("server_requests_total", obs.Opts{}, "route", "code").With("healthz", "200").Add(5)
	reg.NewCounter("harness_cell_exec_total", obs.Opts{}).Add(3)
	reg.NewCounter("store_hits_total", obs.Opts{}).Add(4)
	reg.NewCounter("store_misses_total", obs.Opts{}).Add(3)
	reg.NewGauge("store_entries", obs.Opts{}).Set(3)
	snap, err := obs.ParseSnapshot(reg.SnapshotJSON(obs.Everything))
	if err != nil {
		t.Fatal(err)
	}
	want := tiers{Requests: 7, Exec: 3, StoreHits: 4, StoreMisses: 3, StoreWrites: 3}
	if got := tiersOf(snap); got != want {
		t.Errorf("tiersOf = %+v, want %+v", got, want)
	}
}

// Both loops answer every request once, through the callback, with
// consistent timestamps; run under -race they also check the senders'
// sharing of the reply slice and the tracer.
func TestLoops(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	defer ts.Close()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	cells := hotCells()
	seq := zipfSequence(1, len(cells), 400)
	reqs := requests(cells, seq)
	for _, tc := range []struct {
		name string
		run  func(handle onReply, tr *tracer) []reply
	}{
		{"closed", func(h onReply, tr *tracer) []reply { return closedLoop(client, ts.URL, reqs, conns, h, tr, "t") }},
		{"open", func(h onReply, tr *tracer) []reply { return openLoop(client, ts.URL, reqs, 4000, h, tr) }},
	} {
		seen := make([]int, len(reqs))
		tr := newTracer()
		rs := tc.run(func(k int, body []byte) error {
			seen[k]++
			if string(body) != string(reqs[k]) {
				return fmt.Errorf("answer %d is %s", k, body)
			}
			return nil
		}, tr)
		for k, r := range rs {
			if r.err != nil || seen[k] != 1 {
				t.Fatalf("%s: request %d: err %v, handled %d times", tc.name, k, r.err, seen[k])
			}
			if r.sent.Before(r.due) || r.done.Before(r.sent) {
				t.Fatalf("%s: request %d: due %v sent %v done %v", tc.name, k, r.due, r.sent, r.done)
			}
		}
		if tr.len() < len(reqs) {
			t.Errorf("%s: %d spans for %d requests", tc.name, tr.len(), len(reqs))
		}
		if tc.name == "open" {
			if gap := rs[len(rs)-1].due.Sub(rs[0].due); gap != time.Duration(len(rs)-1)*250*time.Microsecond {
				t.Errorf("open loop schedule spans %v", gap)
			}
		}
	}
}
