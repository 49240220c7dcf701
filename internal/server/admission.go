package server

// Per-class admission control.  The axload capacity runs showed the
// failure mode directly: with one shared worker pool, a burst of
// figure renders (seconds each) fills every slot and the queue, and
// /v1/simulate — milliseconds when cached — starves behind them at
// 429/504.  The fix is two independent budgets:
//
//   - "read":  /v1/simulate and /v1/cells — cheap, latency-sensitive,
//     usually cache hits.
//   - "sweep": /v1/figures/{name} synchronous renders and async sweep
//     jobs — expensive, throughput work.
//
// Each class has its own slot semaphore and bounded wait queue, so a
// sweep storm saturates only the sweep budget and reads keep their
// whole allocation.  Every admission decision lands on
// server_admission_total{route,verdict} (accepted / rejected /
// timeout), the deterministic family the starvation e2e test asserts
// on.

import (
	"context"
	"errors"
	"sync/atomic"
)

// errBusy reports queue overflow (429 upstream).
var errBusy = errors.New("server at capacity")

// admitClass is one admission budget: a slot semaphore plus a bounded
// wait queue.
type admitClass struct {
	name    string
	sem     chan struct{}
	queue   int
	waiting atomic.Int64
}

func newAdmitClass(name string, workers, queue int) *admitClass {
	return &admitClass{name: name, sem: make(chan struct{}, workers), queue: queue}
}

// acquire claims an execution slot in class c for the given route,
// waiting in the class's bounded queue, and records the verdict.  The
// returned release must be called exactly once.
func (s *Server) acquire(ctx context.Context, c *admitClass, route string) (release func(), err error) {
	if release, ok := s.tryAcquire(c, route); ok {
		return release, nil
	}
	if n := c.waiting.Add(1); n > int64(c.queue) {
		c.waiting.Add(-1)
		s.m.admission.With(route, "rejected").Inc()
		return nil, errBusy
	}
	s.publishQueueDepth()
	defer func() {
		c.waiting.Add(-1)
		s.publishQueueDepth()
	}()
	select {
	case c.sem <- struct{}{}:
		s.m.admission.With(route, "accepted").Inc()
		return func() { <-c.sem }, nil
	case <-ctx.Done():
		s.m.admission.With(route, "timeout").Inc()
		return nil, ctx.Err()
	}
}

// tryAcquire claims a free slot in class c without queueing; ok=false
// records no verdict, leaving the decision to a later acquire.
func (s *Server) tryAcquire(c *admitClass, route string) (release func(), ok bool) {
	select {
	case c.sem <- struct{}{}:
		s.m.admission.With(route, "accepted").Inc()
		return func() { <-c.sem }, true
	default:
		return nil, false
	}
}

// acquireJob claims a sweep-class slot for an already-accepted async
// job.  Jobs are bounded by MaxJobs, not the wait queue — a job that
// got its 202 must run, not bounce — so this blocks until a slot
// frees.
func (s *Server) acquireJob() (release func()) {
	select {
	case s.sweepC.sem <- struct{}{}:
	default:
		s.sweepC.waiting.Add(1)
		s.publishQueueDepth()
		s.sweepC.sem <- struct{}{}
		s.sweepC.waiting.Add(-1)
		s.publishQueueDepth()
	}
	s.m.admission.With("sweep", "accepted").Inc()
	return func() { <-s.sweepC.sem }
}

// publishQueueDepth exports the total waiters across both classes.
func (s *Server) publishQueueDepth() {
	s.m.queueDepth.Set(float64(s.readC.waiting.Load() + s.sweepC.waiting.Load()))
}
