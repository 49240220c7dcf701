package main

// The sweep workload: full passes over every figure, in-process, each
// on a fresh Suite with no store and the default worker pool — what
// `axmemo -figures` does.  The sweep has no random input; the seed
// changes nothing here.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"axmemo/internal/harness"
)

const (
	// minPasses is the fewest timed passes a sweep run makes.
	minPasses = 5
	// probesPerPass is how many fresh processes measure setup_s after
	// each timed pass, so the probes spread over the whole run.
	probesPerPass = 3
	// rerendersPerPass is how many warm-cache renders follow each timed
	// pass; they measure reread_p50_ms.
	rerendersPerPass = 20
	// probeFirstCellArg runs the first-cell set-up probe in a child.
	probeFirstCellArg = "-probe-first-cell"
)

// goldenFigures are the rendered figures checked against the
// repository's golden files.
var goldenFigures = map[string]string{"Fig7a": "fig7a.txt", "Fig9": "fig9.txt"}

// render concatenates every figure's text, in order.
func render(figs []*harness.Figure) string {
	var sb strings.Builder
	for _, f := range figs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// probeFirstCell is the child side of the setup_s probe: start, build
// a suite, run the sweep's first cell, say so and exit.
func probeFirstCell() int {
	cells, err := harness.SweepCells()
	if err == nil {
		_, _, err = harness.NewSuite(1).RunCell(cells[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "first cell:", err)
		return 1
	}
	fmt.Println("first cell done")
	return 0
}

// timeFirstCell spawns this binary as a first-cell probe and returns the
// time from spawn to its report.
func timeFirstCell() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, probeFirstCellArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	took := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("first-cell probe: %w", err)
	}
	if line != "first cell done\n" {
		return 0, fmt.Errorf("first-cell probe said %q", line)
	}
	return took, nil
}

// selfCPU returns the user+system CPU time this process has used, to
// the microsecond.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkGoldens compares the golden figures of one pass with the files.
func checkGoldens(e *env, figs []*harness.Figure) error {
	for _, f := range figs {
		name, ok := goldenFigures[f.ID]
		if !ok {
			continue
		}
		want, err := os.ReadFile(filepath.Join(e.root, "internal", "harness", "testdata", "golden", name))
		if err != nil {
			return err
		}
		if f.String() != string(want) {
			return fmt.Errorf("%s differs from golden %s", f.ID, name)
		}
	}
	return nil
}

// sweepPass runs one full figure pass on a fresh suite: GenerateAll,
// which schedules the cells on the default pool.  A traced pass wraps
// the call in one span; per-cell timings come from the serial probe of
// the per-layer run.
func sweepPass(tr *tracer, parent int64) (*harness.Suite, []*harness.Figure, error) {
	var (
		s    = harness.NewSuite(1)
		figs []*harness.Figure
		err  error
	)
	tr.call(parent, "harness.GenerateAll", func() { figs, err = s.GenerateAll() })
	return s, figs, err
}

func runSweep(e *env, tr *tracer) (*measurement, error) {
	m := newMeasurement()

	// An untimed warm-up pass gives the reference output.
	_, figs, err := sweepPass(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	ref := render(figs)
	m.attempted++
	if err := checkGoldens(e, figs); err != nil {
		m.fail("warm-up pass: %v", err)
	}

	// Timed passes; after each, warm re-renders of that pass's suite and
	// first-cell probes, so their samples spread over the whole run.
	var (
		walls, renders []float64
		setups         []float64
		cpu            time.Duration
		last           *harness.Suite
	)
	start := time.Now()
	for len(walls) < minPasses || time.Since(start) < e.seconds {
		id := tr.id()
		cpu0, t0 := selfCPU(), time.Now()
		s, figs, err := sweepPass(tr, id)
		t1, cpu1 := time.Now(), selfCPU()
		tr.record(id, 0, "sweep.pass", t0, t1)
		walls = append(walls, ms(t1.Sub(t0)))
		cpu += cpu1 - cpu0
		m.attempted++
		switch {
		case err != nil:
			m.fail("pass %d: %v", len(walls), err)
			continue
		case render(figs) != ref:
			m.fail("pass %d: figures differ from the first pass", len(walls))
		}
		last = s
		for i := 0; i < rerendersPerPass; i++ {
			var got []*harness.Figure
			d := tr.call(0, "sweep.rerender", func() { got, err = s.GenerateAll() })
			renders = append(renders, ms(d))
			m.attempted++
			if err != nil || render(got) != ref {
				m.fail("pass %d rerender %d: %v", len(walls), i, err)
			}
		}
		for i := 0; i < probesPerPass; i++ {
			d, err := timeFirstCell()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	if last == nil {
		return nil, errors.New("no pass succeeded")
	}
	n := len(walls)
	var total float64
	for _, w := range walls {
		total += w
	}
	m.set("wall_s", total/1000/float64(n), n)
	m.set("cpu_ms_per_op", ms(cpu)/float64(n), n)
	m.set("p50_ms", median(walls), n)
	m.set("p90_ms", quantile(walls, 0.9), n)
	m.set("reread_p50_ms", median(renders), len(renders))
	m.set("setup_s", median(setups), len(setups))

	cells, err := harness.SweepCells()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res, _, err := last.RunCell(c)
		if err != nil {
			return nil, err
		}
		m.results = append(m.results, res)
	}

	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, 0)
	return m, nil
}
