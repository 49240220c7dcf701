// Package workloads re-implements the ten benchmarks of the paper's
// evaluation (Table 2): seven from AxBench (Blackscholes, FFT,
// Inversek2j, Jmeint, JPEG, K-means, Sobel) and three from Rodinia
// (Hotspot, LavaMD, SRAD).  Each workload provides
//
//   - an unmemoized IR program (driver loops + kernel functions),
//   - the memoization-region specs matching Table 2's input sizes and
//     truncation levels,
//   - a deterministic synthetic input generator (the original suites'
//     datasets are not redistributable; see DESIGN.md for the per-input
//     substitutions and why they preserve the value-locality that
//     memoization exploits), and
//   - a pure-Go golden implementation whose float32 arithmetic mirrors
//     the IR kernel operation-for-operation, used for output-quality
//     scoring (Eq. 2 or misclassification rate).
package workloads

import (
	"fmt"

	"axmemo/internal/compiler"
	"axmemo/internal/cpu"
	"axmemo/internal/ir"
)

// Instance is one staged run of a workload: a populated memory image plus
// everything the harness needs to launch the program and score its output.
type Instance struct {
	// Args are the entry-function arguments.
	Args []uint64
	// N is the number of kernel invocations the run performs (used to
	// sanity-check lookup counts).
	N int
	// Outputs reads the program's output elements after a run.
	Outputs func(img *cpu.Memory) []float64
	// Golden holds the pure-Go exact outputs.
	Golden []float64
	// OutputsBool/GoldenBool replace Outputs/Golden for workloads
	// scored by misclassification rate (Jmeint).
	OutputsBool func(img *cpu.Memory) []bool
	GoldenBool  []bool
}

// Workload is one benchmark.
type Workload struct {
	// Name, Domain, Description reproduce the Table 2 metadata.
	Name        string
	Domain      string
	Description string
	// InputBytes is Table 2's total memoization input size per LUT,
	// formatted as in the paper (e.g. "24" or "(16, 16)").
	InputBytes string
	// TruncBits is the default per-region truncation (Table 2's last
	// column).
	TruncBits []uint8
	// ImageOutput selects the 1% error bound of §5 instead of 0.1%.
	ImageOutput bool
	// Misclass selects the misclassification-rate quality metric.
	Misclass bool
	// Build constructs the unmemoized program.
	Build func() *ir.Program
	// Regions returns the memoization-region specs; trunc overrides
	// the per-region truncation when non-nil (one entry per region).
	Regions func(trunc []uint8) []compiler.Region
	// Setup stages inputs for the given problem scale (1 = test scale)
	// into img and returns the run instance.
	Setup func(img *cpu.Memory, scale int) *Instance
	// MemBytes is the memory-image size needed at a scale.
	MemBytes func(scale int) int
	// PaperScale is the scale at which the synthetic input reaches the
	// paper's dataset size (Table 2, column 4), for -scale sweeps.
	PaperScale int
}

// regionTrunc resolves the effective truncation vector: override if
// provided, defaults otherwise.
func regionTrunc(defaults []uint8, override []uint8) []uint8 {
	if override == nil {
		return defaults
	}
	if len(override) != len(defaults) {
		panic(fmt.Sprintf("workloads: %d truncation overrides for %d regions", len(override), len(defaults)))
	}
	return override
}

// catalog pairs every benchmark's name with its constructor, in Table 2
// order, so ByName builds only the workload it is asked for.
var catalog = []struct {
	name  string
	build func() *Workload
}{
	{"blackscholes", Blackscholes},
	{"fft", FFT},
	{"inversek2j", Inversek2j},
	{"jmeint", Jmeint},
	{"jpeg", JPEG},
	{"kmeans", KMeans},
	{"sobel", Sobel},
	{"hotspot", Hotspot},
	{"lavamd", LavaMD},
	{"srad", SRAD},
}

// All returns the ten benchmarks in Table 2 order.
func All() []*Workload {
	ws := make([]*Workload, len(catalog))
	for i, e := range catalog {
		ws[i] = e.build()
	}
	return ws
}

// ByName returns the named workload or an error listing valid names.
func ByName(name string) (*Workload, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build(), nil
		}
	}
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, names)
}
