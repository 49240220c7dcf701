package main

// The cells the serve workloads request, and the seeded orders they
// are requested in.  The request → configuration mapping mirrors the
// daemon's documented /v1/simulate contract, so the benchmark derives
// each cell's content address itself and can check the daemon's "key".

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

// benchmarks in the hot-key rank order of the loadgen hotkey mix.
var benchmarks = []string{
	"sobel", "fft", "kmeans", "blackscholes", "jpeg",
	"inversek2j", "jmeint", "hotspot", "srad", "lavamd",
}

// cellSpec is one hardware-mode /v1/simulate request.
type cellSpec struct {
	Benchmark string `json:"benchmark"`
	L1KB      int    `json:"l1_kb"`
	L2KB      int    `json:"l2_kb,omitempty"`
	TruncOff  bool   `json:"trunc_off,omitempty"`
}

// body is the request's JSON body.
func (c cellSpec) body() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // plain value struct
	}
	return b
}

// sweepCell is the harness cell the daemon resolves the request to:
// hardware LUTs named "L1 (nKB)[+L2 (mKB)]", and with trunc_off every
// region's truncation zeroed and " no-approx" appended.
func (c cellSpec) sweepCell() (harness.SweepCell, error) {
	w, err := workloads.ByName(c.Benchmark)
	if err != nil {
		return harness.SweepCell{}, err
	}
	cfg := harness.HW(fmt.Sprintf("L1 (%dKB)", c.L1KB), c.L1KB, 0)
	if c.L2KB > 0 {
		cfg = harness.HW(fmt.Sprintf("L1 (%dKB)+L2 (%dKB)", c.L1KB, c.L2KB), c.L1KB, c.L2KB)
	}
	if c.TruncOff {
		cfg.Trunc = make([]uint8, len(w.TruncBits))
		cfg.Name += " no-approx"
	}
	return harness.SweepCell{Workload: c.Benchmark, Config: cfg}, nil
}

// key is the cell's result-store key as the daemon reports it.
func (c cellSpec) key() (string, error) {
	sc, err := c.sweepCell()
	if err != nil {
		return "", err
	}
	return harness.CellStoreKey(sc.Workload, sc.Config).String(), nil
}

// hotCells is the 30-cell hot-key population, in zipf rank order:
// every benchmark at L1 4, 8 and 16 KB without an L2.
func hotCells() []cellSpec {
	var cs []cellSpec
	for _, l1 := range []int{4, 8, 16} {
		for _, b := range benchmarks {
			cs = append(cs, cellSpec{Benchmark: b, L1KB: l1})
		}
	}
	return cs
}

// hardwareCells is every hardware cell the API accepts: each benchmark
// at L1 1–64 KB in powers of two, L2 0/128/256/512 KB, with and
// without approximation (10 × 7 × 4 × 2 = 560).
func hardwareCells() []cellSpec {
	var cs []cellSpec
	for _, b := range benchmarks {
		for l1 := 1; l1 <= 64; l1 *= 2 {
			for _, l2 := range []int{0, 128, 256, 512} {
				for _, off := range []bool{false, true} {
					cs = append(cs, cellSpec{Benchmark: b, L1KB: l1, L2KB: l2, TruncOff: off})
				}
			}
		}
	}
	return cs
}

// zipfSequence draws n ranks into a population of size pop with the
// loadgen hotkey distribution (s = 1.3, v = 2), seeded.
func zipfSequence(seed int64, pop, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 2, uint64(pop-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// seededOrder is a seeded permutation of 0..n-1; salt separates the
// independent orders one seed drives (request order, check sample).
func seededOrder(seed, salt int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ salt)).Perm(n)
}
