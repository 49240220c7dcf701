package main

// The serve workloads: a spawned axmemod driven over loopback HTTP.
//
// serve-hot: warm the 30-cell hot-key population, then two closed-loop
// clients send seeded zipf /v1/simulate requests; every timed request
// is a memory-tier hit.  The traced run adds an open loop at a fixed
// rate, each request timed from when it was due.
//
// serve-cold: two closed-loop clients request each of the 560 hardware
// cells once from a daemon on an empty store (execute + store write),
// then restarted daemons on the same store serve them again (store
// read).

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"syscall"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/workloads"
)

const (
	// conns bounds the client's connections and request goroutines
	// (the benchmark host has two CPUs).
	conns = 2
	// hotSetups is how many times serve-hot boots and warms a daemon
	// for setup_s; the last one is measured.
	hotSetups = 7
	// hotChunk is the number of requests per closed-loop chunk of
	// serve-hot's timed phase; wall_s is a chunk's wall time.
	hotChunk = 10_000
	// hotRate is the open loop's arrival rate, below saturation on two
	// CPUs, and hotOpenMax caps its length.
	hotRate    = 2000
	hotOpenMax = 10 * time.Second
	// coldBoots is how many fresh-store boots per round measure the
	// first part of serve-cold's setup_s; coldRestarts is how many
	// restarts on the full store measure the second, each serving one
	// reread pass.
	coldBoots    = 7
	coldRestarts = 5
	// coldChecked is how many cold cells per round are compared with an
	// in-process harness.Run.
	coldChecked = 8
)

// Seed salts for the independent seeded orders.
const (
	saltColdOrder = 0x636f6c64
	saltColdCheck = 0x63686b
	saltChunk     = 0x63686e6b
	saltOpen      = 0x6f70656e
)

// reply is one request's timing and outcome.  Answers are handed to a
// callback as they arrive and not kept, so the client's heap, and the
// garbage collection it costs, stays small.
type reply struct {
	err             error
	due, sent, done time.Time
}

// onReply receives the k-th request's answer; body is valid only during
// the call.  An error marks the request failed.
type onReply func(k int, body []byte) error

// requests returns the request bodies for cells[order[k]].
func requests(cells []cellSpec, order []int) [][]byte {
	bodies := make([][]byte, len(cells))
	for i, c := range cells {
		bodies[i] = c.body()
	}
	reqs := make([][]byte, len(order))
	for k, c := range order {
		reqs[k] = bodies[c]
	}
	return reqs
}

// decodeInto is an onReply that decodes answer k into got[k].
func decodeInto(got []simResponse) onReply {
	return func(k int, body []byte) error { return json.Unmarshal(body, &got[k]) }
}

// senders starts n goroutines, each sending, one at a time, the
// requests whose index it receives on the returned channel and
// recording the reply in out.  Close the channel, then call wait.
func senders(n int, client *http.Client, base string, reqs [][]byte, out []reply, handle onReply,
	tr *tracer, name string) (next chan<- int, wait func()) {
	ch := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := range ch {
				r := &out[k]
				r.sent = time.Now()
				r.err = postInto(client, base, reqs[k], &buf)
				r.done = time.Now()
				if r.due.IsZero() {
					r.due = r.sent
				}
				if r.err == nil && handle != nil {
					r.err = handle(k, buf.Bytes())
				}
				if tr != nil {
					id := tr.id()
					tr.record(id, 0, name, r.due, r.done)
					if r.due != r.sent {
						tr.record(tr.id(), id, "client.http", r.sent, r.done)
					}
				}
			}
		}()
	}
	return ch, wg.Wait
}

// closedLoop sends reqs from the given number of clients, each sending
// its next request when the previous one returns.
func closedLoop(client *http.Client, base string, reqs [][]byte, clients int, handle onReply, tr *tracer, name string) []reply {
	out := make([]reply, len(reqs))
	next, wait := senders(clients, client, base, reqs, out, handle, tr, name)
	for k := range reqs {
		next <- k
	}
	close(next)
	wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t.  Go's
// timers wake an idle process with millisecond granularity; nanosleep
// keeps the open loop's dispatch lateness to tens of microseconds
// without spinning a CPU the daemon needs.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends reqs[k] due at start + k/rate, whether or not earlier
// ones have returned.  A dispatcher releases each arrival at its due
// time to whichever of the conns senders is free; an arrival that finds
// both busy is sent late, and its latency, measured from the due time,
// includes that wait.  The dispatcher sleeps inside a system call on
// one of the process's two Ps; what that costs the senders shows in
// client.late_ms.
func openLoop(client *http.Client, base string, reqs [][]byte, rate float64, handle onReply, tr *tracer) []reply {
	out := make([]reply, len(reqs))
	next, wait := senders(conns, client, base, reqs, out, handle, tr, "serve-hot.open")
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for k := range reqs {
		out[k].due = start.Add(time.Duration(k) * interval)
		sleepUntil(out[k].due)
		next <- k
	}
	close(next)
	wait()
	return out
}

// compact re-encodes JSON without insignificant whitespace.
func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// inProcess runs the cell with harness.Run in this process and returns
// the result JSON-encoded as the daemon encodes it (compacted).
func inProcess(c cellSpec) ([]byte, *harness.Result, error) {
	sc, err := c.sweepCell()
	if err != nil {
		return nil, nil, err
	}
	w, err := workloads.ByName(sc.Workload)
	if err != nil {
		return nil, nil, err
	}
	res, err := harness.Run(w, sc.Config)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(res)
	return b, res, err
}

// checkReply verifies one reply's status and key.
func checkReply(m *measurement, phase string, c cellSpec, key string, r *reply, got *simResponse) bool {
	switch {
	case r.err != nil:
		m.fail("%s %+v: %v", phase, c, r.err)
	case got.Key != key:
		m.fail("%s %+v: key %s, want %s", phase, c, got.Key, key)
	default:
		return true
	}
	return false
}

// cellKeys derives every cell's store key.
func cellKeys(cells []cellSpec) ([]string, error) {
	keys := make([]string, len(cells))
	for i, c := range cells {
		k, err := c.key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// latencies returns done − from for each reply, in ms; from selects the
// due or the sent time.
func latencies(rs []reply, from func(*reply) time.Time) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = ms(rs[i].done.Sub(from(&rs[i])))
	}
	return out
}

func dueTime(r *reply) time.Time  { return r.due }
func sentTime(r *reply) time.Time { return r.sent }

func runServeHot(e *env, tr *tracer) (*measurement, error) {
	open := time.Duration(0)
	if tr != nil {
		open = min(e.seconds, hotOpenMax)
	}
	return serveHot(e, tr, e.seconds, open)
}

// serveHot runs the serve-hot workload: a closed-loop timed phase of
// about closed, then, if open > 0, an open loop at hotRate for open.
func serveHot(e *env, tr *tracer, closed, open time.Duration) (*measurement, error) {
	m := newMeasurement()
	cells := hotCells()
	keys, err := cellKeys(cells)
	if err != nil {
		return nil, err
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	warmOrder := make([]int, len(cells))
	for i := range warmOrder {
		warmOrder[i] = i
	}
	warmReqs := requests(cells, warmOrder)

	// Set-up, several times: boot on an empty store, then one request
	// per hot cell.  The last daemon is measured.
	var (
		d      *daemon
		warm   []reply
		got    []simResponse
		setups []float64
	)
	for i := 0; i < hotSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = e.startDaemon(e.freshStore("hot"), client); err != nil {
			return nil, err
		}
		m.boots = append(m.boots, ms(d.boot))
		got = make([]simResponse, len(cells))
		warm = closedLoop(client, d.base, warmReqs, conns, decodeInto(got), tr, "serve-hot.warm")
		setups = append(setups, time.Since(start).Seconds())
	}
	m.set("setup_s", median(setups), len(setups))

	// Outside the timed window: every hot result equals an in-process
	// run, and a second request for the cell answers the same result
	// from the cache.  That answer is what every timed reply must equal.
	expect := make([][]byte, len(cells))
	gotCached := make([]simResponse, len(cells))
	cached := closedLoop(client, d.base, warmReqs, 1, func(k int, body []byte) error {
		expect[k] = bytes.Clone(body)
		return json.Unmarshal(body, &gotCached[k])
	}, nil, "")
	for i, c := range cells {
		m.attempted += 2
		if !checkReply(m, "warm-up", c, keys[i], &warm[i], &got[i]) ||
			!checkReply(m, "cached", c, keys[i], &cached[i], &gotCached[i]) {
			expect[i] = nil
			continue
		}
		want, res, err := inProcess(c)
		if err != nil {
			return nil, err
		}
		m.results = append(m.results, res)
		if !bytes.Equal(compact(got[i].Result), want) || !bytes.Equal(compact(gotCached[i].Result), want) {
			m.fail("warm-up %+v: result differs from in-process harness.Run", c)
			expect[i] = nil
		}
	}
	// check compares answer k of a sequence with its cell's checked answer.
	check := func(seq []int) onReply {
		return func(k int, body []byte) error {
			if !bytes.Equal(body, expect[seq[k]]) {
				return errors.New("answer differs from the checked cached answer")
			}
			return nil
		}
	}
	countFailures := func(phase string, seq []int, rs []reply) {
		for k := range rs {
			m.attempted++
			if rs[k].err != nil {
				m.fail("%s %+v: %v", phase, cells[seq[k]], rs[k].err)
			}
		}
	}

	// Timed phase: chunks of the seeded zipf sequence, closed loop.
	before, err := d.tiers(client)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	var lat, walls []float64
	for chunk, start := int64(0), time.Now(); chunk == 0 || time.Since(start) < closed; chunk++ {
		seq := zipfSequence(e.seed+chunk*saltChunk, len(cells), hotChunk)
		reqs := requests(cells, seq)
		t0 := time.Now()
		rs := closedLoop(client, d.base, reqs, conns, check(seq), tr, "serve-hot.request")
		walls = append(walls, time.Since(t0).Seconds())
		countFailures("timed", seq, rs)
		lat = append(lat, latencies(rs, sentTime)...)
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.tiers(client)
	if err != nil {
		return nil, err
	}
	n := len(lat)
	if err := gateTiers("serve-hot timed phase", before, after, hotTiers(int64(n))); err != nil {
		m.fail("%v", err)
	}
	m.set("wall_s", median(walls), len(walls))
	m.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(n), n)
	m.set("p50_ms", median(lat), n)
	m.set("p90_ms", quantile(lat, 0.9), n)
	// Every timed request rereads a warm cell.
	m.set("reread_p50_ms", median(lat), n)

	// Open loop: the independent-users view, timed from the due time.
	if open > 0 {
		seq := zipfSequence(e.seed^saltOpen, len(cells), int(hotRate*open.Seconds()))
		m.timed = openLoop(client, d.base, requests(cells, seq), hotRate, check(seq), tr)
		countFailures("open loop", seq, m.timed)
		final, err := d.tiers(client)
		if err != nil {
			return nil, err
		}
		if err := gateTiers("serve-hot open loop", after, final, hotTiers(int64(len(seq)))); err != nil {
			m.fail("%v", err)
		}
		after = final
	}
	m.tiers = &after

	rss, err := procPeakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, 0)
	if err := d.stop(); err != nil {
		m.fail("%v", err)
	}
	return m, nil
}

// runServeCold runs rounds of the serve-cold workload until the timed
// phases add up to e.seconds (at least one round).
func runServeCold(e *env, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	cells := hardwareCells()
	keys, err := cellKeys(cells)
	if err != nil {
		return nil, err
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	order := seededOrder(e.seed, saltColdOrder, len(cells))
	reqs := requests(cells, order)
	n := int64(len(cells))

	var (
		setups, walls, coldLat, rereadP50, rss []float64
		cpu, measured                          time.Duration
	)
	for round := 0; round == 0 || measured < e.seconds; round++ {
		// Fresh-store boots; the last one runs the cold phase.
		var (
			fresh []float64
			d     *daemon
		)
		for i := 0; i < coldBoots; i++ {
			if d, err = e.startDaemon(e.freshStore("cold"), client); err != nil {
				return nil, err
			}
			fresh = append(fresh, ms(d.boot))
			if i < coldBoots-1 {
				if err := d.stop(); err != nil {
					return nil, err
				}
			}
		}
		m.boots = append(m.boots, fresh...)
		dir := d.storeDir

		before, err := d.tiers(client)
		if err != nil {
			return nil, err
		}
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		got := make([]simResponse, len(cells))
		start := time.Now()
		cold := closedLoop(client, d.base, reqs, conns, decodeInto(got), tr, "serve-cold.cold")
		wall := time.Since(start)
		cpu1, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		coldTotals, err := d.tiers(client)
		if err != nil {
			return nil, err
		}
		if err := gateTiers("serve-cold cold phase", before, coldTotals, coldTiers(n)); err != nil {
			m.fail("%v", err)
		}
		peak, err := procPeakRSSMB(d.pid())
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			m.fail("%v", err)
		}
		coldRaw := make([][]byte, len(cells))
		for k, c := range order {
			m.attempted++
			if checkReply(m, "cold", cells[c], keys[c], &cold[k], &got[k]) {
				coldRaw[c] = compact(got[k].Result)
			}
		}
		walls = append(walls, wall.Seconds())
		coldLat = append(coldLat, latencies(cold, sentTime)...)
		cpu += cpu1 - cpu0
		rss = append(rss, peak)

		// Restarts on the same store, each serving one reread pass: the
		// first pass of a daemon reads the store, later ones would hit
		// its memory tier.
		var (
			restarts     []float64
			rereadTotals tiers
		)
		for i := 0; i < coldRestarts; i++ {
			if d, err = e.startDaemon(dir, client); err != nil {
				return nil, err
			}
			restarts = append(restarts, ms(d.boot))
			before, err := d.tiers(client)
			if err != nil {
				return nil, err
			}
			got := make([]simResponse, len(cells))
			start := time.Now()
			reread := closedLoop(client, d.base, reqs, conns, decodeInto(got), tr, "serve-cold.reread")
			measured += time.Since(start)
			if rereadTotals, err = d.tiers(client); err != nil {
				return nil, err
			}
			if err := gateTiers("serve-cold reread phase", before, rereadTotals, rereadTiers(n)); err != nil {
				m.fail("%v", err)
			}
			if err := d.stop(); err != nil {
				m.fail("%v", err)
			}
			for k, c := range order {
				m.attempted++
				if checkReply(m, "reread", cells[c], keys[c], &reread[k], &got[k]) &&
					!bytes.Equal(compact(got[k].Result), coldRaw[c]) {
					m.fail("reread %+v: result differs from the cold phase", cells[c])
				}
			}
			rereadP50 = append(rereadP50, median(latencies(reread, sentTime)))
		}
		measured += wall
		setups = append(setups, (median(fresh)+median(restarts))/1000)

		// Outside the timed phases: a seeded sample equals harness.Run.
		for _, c := range seededOrder(e.seed, saltColdCheck+int64(round), len(cells))[:coldChecked] {
			want, _, err := inProcess(cells[c])
			if err != nil {
				return nil, err
			}
			if coldRaw[c] != nil && !bytes.Equal(coldRaw[c], want) {
				m.fail("cold %+v: result differs from in-process harness.Run", cells[c])
			}
		}

		totals := coldTotals.add(rereadTotals)
		m.tiers = &totals
		m.storeDir = d.storeDir
		m.results = m.results[:0]
		for _, raw := range coldRaw {
			var r harness.Result
			if raw != nil && json.Unmarshal(raw, &r) == nil {
				m.results = append(m.results, &r)
			}
		}
	}
	m.set("setup_s", median(setups), len(setups))
	m.set("wall_s", median(walls), len(walls))
	m.set("cpu_ms_per_op", ms(cpu)/float64(len(walls)*len(cells)), len(walls)*len(cells))
	m.set("p50_ms", median(coldLat), len(coldLat))
	m.set("p90_ms", quantile(coldLat, 0.9), len(coldLat))
	// The median over passes: a pass hit by a host stall moves one value.
	m.set("reread_p50_ms", median(rereadP50), len(rereadP50)*len(cells))
	m.set("peak_rss_mb", median(rss), len(rss))
	return m, nil
}
