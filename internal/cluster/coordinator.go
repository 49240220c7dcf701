package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"axmemo/internal/harness"
	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// Config assembles a Coordinator.
type Config struct {
	// Peers are the shard daemons the ring hashes over.  Required
	// non-empty.
	Peers []Peer
	// Replicas is the replica-set size R: every cell lives on the top-R
	// peers by rendezvous score (0 or 1 = single-owner, PR 5 behavior).
	// Reads walk the set in rendezvous order; fresh results fan out to
	// the other R-1 members, so a dead peer's cells survive it.
	Replicas int
	// Version is the ResultsVersion peers must match (0 =
	// harness.ResultsVersion).
	Version int
	// FailThreshold demotes a peer after this many consecutive failures
	// (0 = 3).
	FailThreshold int
	// Client forwards cells (nil = a default resilient client).  Supply
	// one to tune retries/backoff/hedging or to splice in a chaos
	// transport.
	Client *Client
	// WriteClient carries replica-write fan-outs and rejoin repair
	// passes (nil = a non-hedging two-attempt client sharing Client's
	// transport).  Kept separate from the read client so write traffic
	// never competes for read retries — and so the chaos determinism
	// tests can keep the seeded fault plan pinned to the read path.
	WriteClient *Client
	// Probe checks /healthz (nil = a single-attempt client sharing
	// Client's transport).
	Probe *Client
	// CellTimeout bounds one replica's whole forward, retries included
	// (0 = 5m); past it the walk moves to the next replica.
	CellTimeout time.Duration
	// Logf, if non-nil, receives membership transitions and degrade
	// warnings.
	Logf func(format string, args ...any)
}

// Coordinator owns the cluster's data path: it rendezvous-hashes every
// cell's store key onto its replica set, walks the set in rendezvous
// order with the resilient client, verifies response checksums, fans
// fresh results out to the remaining alive replicas, and reports
// ok=false — falling back to the suite's local tiers — only when every
// replica of the cell is unreachable.  A peer that membership
// re-admits as alive gets one anti-entropy pass that copies in the
// cells it missed.  Install RunCell as harness.Suite.Remote.
type Coordinator struct {
	members     *Membership
	client      *Client
	writeClient *Client
	replicas    int
	timeout     time.Duration
	logf        func(format string, args ...any)

	mu       sync.Mutex
	closed   bool
	replCh   chan replJob
	workerWG sync.WaitGroup // replica-write workers and rejoin passes
	stop     context.CancelFunc
	stopCtx  context.Context // canceled by Close: ends rejoin passes

	forwards   *obs.CounterVec // peer
	fallbacks  *obs.CounterVec // reason
	badPayload *obs.Counter

	replWrites   *obs.CounterVec // peer (volatile: async timing)
	replErrors   *obs.Counter    // volatile
	replDrops    *obs.Counter    // volatile
	readRepairs  *obs.Counter    // volatile
	repairPulled *obs.Counter    // volatile
}

// replJob is one queued replica write.
type replJob struct {
	peer Peer
	w    ReplicaWrite
}

// replQueueDepth bounds queued-but-undelivered replica writes; beyond
// it new fan-outs are dropped (and counted) rather than blocking the
// read path — read-repair or the next anti-entropy pass re-converges
// whatever is dropped.
const replQueueDepth = 256

// NewCoordinator builds the coordinator and its membership tracker.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	version := cfg.Version
	if version == 0 {
		version = harness.ResultsVersion
	}
	client := cfg.Client
	if client == nil {
		client = &Client{}
	}
	writeClient := cfg.WriteClient
	if writeClient == nil {
		writeClient = &Client{Transport: client.Transport, Attempts: 2}
	}
	probe := cfg.Probe
	if probe == nil {
		probe = &Client{Transport: client.Transport, AttemptTimeout: 10 * time.Second}
	}
	timeout := cfg.CellTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(cfg.Peers) {
		replicas = len(cfg.Peers)
	}
	members := NewMembership(cfg.Peers, version, probe)
	members.FailThreshold = cfg.FailThreshold
	members.Logf = cfg.Logf
	co := &Coordinator{
		members:     members,
		client:      client,
		writeClient: writeClient,
		replicas:    replicas,
		timeout:     timeout,
		logf:        cfg.Logf,
	}
	co.stopCtx, co.stop = context.WithCancel(context.Background())
	members.OnTransition = co.onTransition
	if replicas > 1 {
		co.replCh = make(chan replJob, replQueueDepth)
		for i := 0; i < 2; i++ {
			co.workerWG.Add(1)
			go co.replWorker()
		}
	}
	return co, nil
}

// Attach registers the coordinator's obs families.  Forward, retry and
// fallback counts depend only on the key set and the (possibly
// chaotic) transport verdicts, so they are deterministic for a fixed
// seed under a serial sweep; hedge launches, replica-write fan-outs
// and rejoin repair passes are asynchronous wall-clock races and live
// in Volatile families.
func (co *Coordinator) Attach(sink *obs.Sink) {
	reg := sink.Reg()
	if reg == nil {
		return
	}
	co.forwards = reg.NewCounterVec("cluster_forward_total",
		obs.Opts{Help: "cells served by a replica peer"}, "peer")
	co.fallbacks = reg.NewCounterVec("cluster_fallback_total",
		obs.Opts{Help: "cells recomputed locally because every replica was unreachable, by reason"}, "reason")
	co.badPayload = reg.NewCounter("cluster_bad_payload_total",
		obs.Opts{Help: "forwarded responses rejected by checksum or decode validation"})
	co.client.Retries = reg.NewCounter("cluster_retries_total",
		obs.Opts{Help: "forward attempts beyond the first"})
	co.client.Hedges = reg.NewCounter("cluster_hedges_total",
		obs.Opts{Help: "hedged attempts launched for slow forwards", Volatile: true})
	co.replWrites = reg.NewCounterVec("cluster_replica_writes_total",
		obs.Opts{Help: "fresh results fanned out to replica peers", Volatile: true}, "peer")
	co.replErrors = reg.NewCounter("cluster_replica_write_errors_total",
		obs.Opts{Help: "replica write fan-outs that failed delivery", Volatile: true})
	co.replDrops = reg.NewCounter("cluster_replica_write_drops_total",
		obs.Opts{Help: "replica writes dropped because the fan-out queue was full", Volatile: true})
	co.readRepairs = reg.NewCounter("cluster_read_repair_total",
		obs.Opts{Help: "failed replicas backfilled with a cached result a later replica served", Volatile: true})
	co.repairPulled = AttachRepair(sink)
	co.writeClient.Retries = reg.NewCounter("cluster_replica_write_retries_total",
		obs.Opts{Help: "replica write attempts beyond the first", Volatile: true})
	co.members.Attach(sink)
}

// Members exposes the membership tracker (probing, health reporting).
func (co *Coordinator) Members() *Membership { return co.members }

// Replicas reports the effective replica-set size.
func (co *Coordinator) Replicas() int { return co.replicas }

// Run starts the background probe loop until ctx ends.
func (co *Coordinator) Run(ctx context.Context, probeInterval time.Duration) {
	co.members.ProbeAll(ctx) // correct the optimistic initial state immediately
	co.members.Run(ctx, probeInterval)
}

// Health reports the cluster's membership view for /healthz.
func (co *Coordinator) Health() *Health { return co.members.Health() }

// Close drains the replica-write fan-out: queued writes are delivered
// before it returns.  Further fan-outs are dropped, running rejoin
// passes are canceled and no new ones start.  Reads keep working —
// Close stops replication, not the coordinator.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if !co.closed {
		co.closed = true
		if co.replCh != nil {
			close(co.replCh)
		}
		co.stop()
	}
	co.mu.Unlock()
	co.workerWG.Wait()
}

// RunCell is the harness.Suite.Remote delegate: walk the cell's
// replica set in rendezvous order, or report ok=false so the suite
// recomputes locally.  cluster_fallback_total therefore fires only
// when every replica of the cell is dead or erroring — with R > 1 a
// single crashed shard costs zero local recomputes.  The executed flag
// relays whether the serving peer actually ran the simulation (as
// opposed to answering from its cache).
func (co *Coordinator) RunCell(c harness.SweepCell) (res *harness.Result, executed, ok bool) {
	// Resolve exactly as the suite's local path would, then strip the
	// process-local observability wiring: it never affects results and
	// must not ride the wire (CellStoreKey ignores it too).
	cfg := c.Config
	if c.Baseline {
		scale := cfg.Scale
		cfg = harness.Baseline()
		cfg.Scale = scale
	}
	cfg.Obs = nil
	cfg.ObsPID = 0

	key := harness.CellStoreKey(c.Workload, cfg)
	peers := co.members.Peers()
	set := Owners(peers, key, co.replicas)
	if len(set) == 0 {
		co.fallbacks.With("no_peers").Inc()
		return nil, false, false
	}

	req := CellRequest{Version: co.members.Version, Scale: cfg.Scale,
		Cell: harness.SweepCell{Workload: c.Workload, Config: cfg, Baseline: c.Baseline}}
	var failed []int // replicas that errored earlier in this walk
	for _, idx := range set {
		if !co.members.ReplicaEligible(idx) {
			continue
		}
		var resp CellResponse
		ctx, cancel := context.WithTimeout(context.Background(), co.timeout)
		err := co.client.Do(ctx, Request{
			Method: http.MethodPost,
			URL:    peers[idx].URL() + "/v1/cells",
			Body:   req,
			Out:    &resp,
			Key:    key.String(),
			Hedge:  true,
			Check: func() error {
				sum := sha256.Sum256(resp.Result)
				if hex.EncodeToString(sum[:]) != resp.SHA256 {
					co.badPayload.Inc()
					return Retryable(fmt.Errorf("cluster: result checksum mismatch from %s", peers[idx].ID))
				}
				return nil
			},
		})
		cancel()
		if err != nil {
			co.members.ReportFailure(idx)
			failed = append(failed, idx)
			continue
		}
		co.members.ReportSuccess(idx)
		var out harness.Result
		if err := json.Unmarshal(resp.Result, &out); err != nil {
			// The peer answered but the payload does not decode: count
			// it against payload validation, not against liveness, and
			// try the next replica.
			co.badPayload.Inc()
			failed = append(failed, idx)
			continue
		}
		co.forwards.With(peers[idx].ID).Inc()
		if !resp.Cached {
			co.replicate(key.String(), resp, set, idx)
		} else if len(failed) > 0 {
			co.readRepair(key.String(), resp, failed)
		}
		return &out, !resp.Cached, true
	}
	reason := "dead"
	if len(failed) > 0 {
		reason = "error"
	}
	co.fallbacks.With(reason).Inc()
	return nil, false, false
}

// readRepair backfills the replicas that failed earlier in a read walk
// with the cached result a later replica served, so the next read of
// the key can succeed at its first-choice replica again.  It is the
// only path that reaches a replica which stayed alive yet missed a
// fan-out (dropped at replQueueDepth, or failed delivery), since no
// rejoin happens for it.  Fresh results need no extra pass — replicate
// already fans them out to the whole set — and dead peers are skipped:
// their recovery path is the anti-entropy pass on rejoin.
func (co *Coordinator) readRepair(key string, resp CellResponse, failed []int) {
	peers := co.members.Peers()
	w := ReplicaWrite{Version: co.members.Version, Key: key,
		SHA256: resp.SHA256, Result: resp.Result}
	for _, idx := range failed {
		if co.members.State(idx) != StateAlive {
			continue
		}
		co.readRepairs.Inc()
		co.enqueueWrite(peers[idx], w)
	}
}

// replicate fans a freshly computed cell out to the other alive
// members of its replica set as asynchronous replica writes.  Dead
// peers get the cell from the anti-entropy pass when they rejoin;
// incompatible peers get nothing — their version-skewed stores could
// never serve the key.
func (co *Coordinator) replicate(key string, resp CellResponse, set []int, served int) {
	peers := co.members.Peers()
	w := ReplicaWrite{Version: co.members.Version, Key: key,
		SHA256: resp.SHA256, Result: resp.Result}
	for _, idx := range set {
		if idx != served && co.members.ReplicaEligible(idx) {
			co.enqueueWrite(peers[idx], w)
		}
	}
}

// enqueueWrite hands one replica write to the worker pool, dropping
// (and counting) it when the queue is full or replication is closed.
func (co *Coordinator) enqueueWrite(p Peer, w ReplicaWrite) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed || co.replCh == nil {
		co.replDrops.Inc()
		return
	}
	select {
	case co.replCh <- replJob{peer: p, w: w}:
	default:
		co.replDrops.Inc()
	}
}

// replWorker delivers queued replica writes until the channel closes.
// A failed write is counted and dropped: if the peer died, its rejoin
// pass copies the cell in; if it stayed alive, read-repair does.
func (co *Coordinator) replWorker() {
	defer co.workerWG.Done()
	for job := range co.replCh {
		if err := co.deliverWrite(context.Background(), job.peer, job.w); err != nil {
			co.replErrors.Inc()
			continue
		}
		co.replWrites.With(job.peer.ID).Inc()
	}
}

// deliverWrite PUTs one cell into a replica's store.
func (co *Coordinator) deliverWrite(ctx context.Context, p Peer, w ReplicaWrite) error {
	ctx, cancel := context.WithTimeout(ctx, co.timeout)
	defer cancel()
	return co.writeClient.Do(ctx, Request{
		Method: http.MethodPut,
		URL:    p.URL() + "/v1/store/cells/" + w.Key,
		Body:   w,
		Key:    w.Key,
	})
}

// onTransition is the membership hook: a peer re-admitted as alive —
// from dead or from incompatible — gets one anti-entropy pass.
// Incompatible peers get nothing: the version-skew exclusion the
// membership tests pin down.
func (co *Coordinator) onTransition(i int, p Peer, state string) {
	if state != StateAlive {
		return
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.workerWG.Add(1)
	co.mu.Unlock()
	defer co.workerWG.Done()
	co.rejoinRepair(co.stopCtx, i, p)
}

// rejoinRepair copies into peer i every cell it lacks whose replica
// set includes it, from the other alive peers: the same diff, placement
// and pull loop a restarted shard runs at boot (Repair), with the
// rejoined peer's manifest as the have set and a replica write as the
// put.  Nothing executes anywhere; a cell the pass misses is a future
// read-repair or recompute, never a wrong answer.
func (co *Coordinator) rejoinRepair(ctx context.Context, i int, p Peer) {
	mf, err := fetchManifest(ctx, co.writeClient, p, co.members.Version)
	if err != nil {
		if co.logf != nil {
			co.logf("cluster: rejoin repair of %s: manifest: %v", p.ID, err)
		}
		return
	}
	have := make(map[string]bool, len(mf.Entries))
	for _, e := range mf.Entries {
		have[e.Key] = true
	}
	peers := co.members.Peers()
	var donors []Peer
	for j, q := range peers {
		if j != i && co.members.ReplicaEligible(j) {
			donors = append(donors, q)
		}
	}
	cfg := RepairConfig{Peers: donors, Replicas: co.replicas,
		Version: co.members.Version, Client: co.writeClient, Logf: co.logf}
	// The only error is ctx's, from Close; the partial stats still count.
	stats, _ := pullMissing(ctx, cfg, peers, i, have, func(key store.Key, cell CellResponse) error {
		return co.deliverWrite(ctx, p, ReplicaWrite{Version: co.members.Version,
			Key: key.String(), SHA256: cell.SHA256, Result: cell.Result})
	})
	co.repairPulled.Add(uint64(stats.Pulled))
	if co.logf != nil && (stats.Pulled > 0 || stats.Failed > 0) {
		co.logf("cluster: rejoin repair of %s: copied %d cells (%d donors diffed, %d skipped, %d failed)",
			p.ID, stats.Pulled, stats.PeersDiffed, stats.PeersSkipped, stats.Failed)
	}
}
