package main

// Raw-sample statistics, /proc readers and the tier-gate arithmetic.
// Every percentile the benchmark prints comes from quantile over the raw
// per-operation samples, never from histogram buckets.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"axmemo/internal/obs"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·len(xs) samples at or below it.  It
// returns an observed value, never an interpolation, and NaN for no
// samples.  xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// userHZ is the unit of the /proc/<pid>/stat CPU fields.  Linux fixes
// it at 100 for every architecture the toolchain targets.
const userHZ = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat.  The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ") " come field 3 (state) onwards; utime and stime are
	// fields 14 and 15, i.e. the 12th and 13th after the command.
	f := strings.Fields(string(data[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	var total uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu field %q: %w", s, err)
		}
		total += v
	}
	return total, nil
}

// parseStatusKB returns the value, in kB, of the named field (such as
// "VmHWM") of /proc/<pid>/status.
func parseStatusKB(data []byte, field string) (uint64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", field, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// procCPU returns the user+system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// procPeakRSSMB returns process pid's peak resident set size (VmHWM)
// in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// tiers counts a daemon's simulate requests and which cache tier
// served them, read from its /metrics snapshot.  Requests counts 200
// answers on the simulate route.  Writes is the growth of the store's
// entry gauge: every key is new and the store has no size budget, so
// each store write adds exactly one entry.
type tiers struct {
	Requests, Exec, StoreHits, StoreMisses, StoreWrites int64
}

// tiersOf reads the tier counters from a metrics snapshot.
func tiersOf(snap *obs.Snapshot) tiers {
	get := func(name string, labels map[string]string) int64 {
		return int64(snap.Family(name).SumValues(labels))
	}
	return tiers{
		Requests:    get("server_requests_total", map[string]string{"route": "simulate", "code": "200"}),
		Exec:        get("harness_cell_exec_total", nil),
		StoreHits:   get("store_hits_total", nil),
		StoreMisses: get("store_misses_total", nil),
		StoreWrites: get("store_entries", nil),
	}
}

func (t tiers) sub(u tiers) tiers {
	return tiers{t.Requests - u.Requests, t.Exec - u.Exec, t.StoreHits - u.StoreHits,
		t.StoreMisses - u.StoreMisses, t.StoreWrites - u.StoreWrites}
}

func (t tiers) add(u tiers) tiers {
	return tiers{t.Requests + u.Requests, t.Exec + u.Exec, t.StoreHits + u.StoreHits,
		t.StoreMisses + u.StoreMisses, t.StoreWrites + u.StoreWrites}
}

// Expected tier deltas for a phase of n successful requests: hot reads
// come from memory; cold requests execute, miss the store and write it
// once; rereads are store hits.
func hotTiers(n int64) tiers    { return tiers{Requests: n} }
func coldTiers(n int64) tiers   { return tiers{Requests: n, Exec: n, StoreMisses: n, StoreWrites: n} }
func rereadTiers(n int64) tiers { return tiers{Requests: n, StoreHits: n} }

// gateTiers checks that a phase moved the tier counters by exactly
// want, so a workload cannot quietly measure a tier other than the one
// it claims.
func gateTiers(phase string, before, after, want tiers) error {
	if got := after.sub(before); got != want {
		return fmt.Errorf("%s: tier counters moved by %+v, want %+v", phase, got, want)
	}
	return nil
}
