package main

// A spawned axmemod child and the HTTP client the serve workloads drive
// it with.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"axmemo/internal/obs"
)

// daemon is one running axmemod process listening on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	storeDir string
	boot     time.Duration // spawn to the first /healthz 200
	done     chan struct{} // closed once the process is reaped
	err      error         // its Wait result, valid after done
	stderr   *tailBuffer
}

// tailBuffer keeps the last lines a daemon wrote to stderr, for error
// messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lines = append(t.lines, line); len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// freshStore names a new, empty store directory in the run's scratch.
func (e *env) freshStore(prefix string) string {
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, len(e.daemons)))
}

// startDaemon spawns axmemod on a loopback port over the given store
// directory and waits until /healthz answers 200.  Every daemon started
// is killed, if still running, when the run ends.
func (e *env) startDaemon(storeDir string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(e.axmemod, "-addr", "127.0.0.1:0", "-store-dir", storeDir)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting axmemod: %w", err)
	}
	d := &daemon{cmd: cmd, storeDir: storeDir, done: make(chan struct{}), stderr: &tailBuffer{}}
	e.daemons = append(e.daemons, d)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.add(line)
			if a, ok := strings.CutPrefix(line, "axmemod: serving on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		d.err = cmd.Wait() // only after stderr is fully read
		close(d.done)
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		return nil, fmt.Errorf("axmemod exited during boot (%v): %s", d.err, d.stderr)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("axmemod did not report its address within 60s")
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("axmemod /healthz not ok within 60s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.boot = time.Since(start)
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon hard, if it still runs, and reaps it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // it may exit on its own meanwhile
		<-d.done
	}
}

// stop sends SIGTERM, waits for the drain, and reports a non-zero exit.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return fmt.Errorf("axmemod exited early (%v): %s", d.err, d.stderr)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling axmemod: %w", err)
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("axmemod exit: %w: %s", d.err, d.stderr)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("axmemod did not drain within 60s")
	}
}

// metrics scrapes and parses the daemon's /metrics snapshot.
func (d *daemon) metrics(client *http.Client) (*obs.Snapshot, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseSnapshot(data)
}

// tiers reads the daemon's tier counters.
func (d *daemon) tiers(client *http.Client) (tiers, error) {
	snap, err := d.metrics(client)
	if err != nil {
		return tiers{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	return tiersOf(snap), nil
}

// newClient returns a keep-alive client holding at most conns loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// simResponse is the part of a /v1/simulate answer the checks read.
type simResponse struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// postInto sends one /v1/simulate request and reads the answer into
// buf, which it resets first, so a sender reuses one buffer for all its
// requests.  Any status other than 200 is an error.
func postInto(client *http.Client, base string, body []byte, buf *bytes.Buffer) error {
	resp, err := client.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}
