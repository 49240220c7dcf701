package cluster

// Anti-entropy repair: a peer that was dead (or version-skewed) missed
// every cell computed meanwhile.  Repair brings it back into
// convergence by diffing manifests: it fetches each donor peer's store
// manifest (GET /v1/store/manifest, the sorted-by-key segment index),
// and for every key the rejoiner lacks whose top-R replica set
// includes the rejoiner, fetches the cell (GET /v1/store/cells/{key}),
// verifies its checksum, and stores it.  Two callers run the same
// loop: a restarted shard pulls into its own store at boot (Repair),
// and the coordinator pushes into a peer that membership re-admits as
// alive (Coordinator.rejoinRepair).
//
// Version-skewed peers are skipped outright: their ResultsVersion is
// baked into every one of their keys, so nothing they hold could ever
// serve one of ours.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"

	"axmemo/internal/obs"
	"axmemo/internal/store"
)

// RepairConfig assembles one rejoin-repair pass.
type RepairConfig struct {
	// Self is this shard's peer ID (used for the rendezvous placement
	// check; the addr is irrelevant — scores hash IDs only).
	Self string
	// Peers are the OTHER members of the cluster to diff against.
	Peers []Peer
	// Replicas is the cluster's replica-set size R; only keys whose
	// top-R set includes Self are pulled (0/1 = pull nothing beyond
	// primaries we own).
	Replicas int
	// Store receives the pulled cells.  Required.
	Store *store.Store
	// Version is the ResultsVersion manifests must report (0 =
	// harness version is the caller's job to pass; peers reporting
	// anything else are skipped).
	Version int
	// Client performs the manifest and cell fetches (nil = default).
	Client *Client
	// Logf, if non-nil, receives per-peer progress.
	Logf func(format string, args ...any)
}

// RepairStats reports what one repair pass did.
type RepairStats struct {
	// PeersDiffed counts peers whose manifest was fetched and compared.
	PeersDiffed int
	// PeersSkipped counts peers skipped for unreachability or version
	// skew.
	PeersSkipped int
	// Pulled counts cells fetched and stored.
	Pulled int
	// Failed counts cells that could not be fetched or verified; they
	// stay missing (a later read recomputes or the next repair retries).
	Failed int
}

// Repair runs one anti-entropy pass into cfg.Store and returns its
// stats.  It is incremental-safe: pulling a cell twice just overwrites
// the identical bytes, and any failure leaves the store no worse than
// before — a missing cell is always a recompute, never an error.
func Repair(ctx context.Context, cfg RepairConfig) (RepairStats, error) {
	if cfg.Store == nil {
		return RepairStats{}, fmt.Errorf("cluster: repair needs a store")
	}
	// The placement universe is the full peer set including ourselves;
	// rendezvous scores depend only on IDs, so this matches what every
	// coordinator computes.
	ring := append(append([]Peer{}, cfg.Peers...), Peer{ID: cfg.Self})
	have := make(map[string]bool)
	for _, e := range cfg.Store.Manifest() {
		have[e.Key] = true
	}
	return pullMissing(ctx, cfg, ring, len(ring)-1, have,
		func(key store.Key, cell CellResponse) error {
			return cfg.Store.Put(key, cell.Result)
		})
}

// pullMissing is the diff/placement/pull loop every anti-entropy pass
// runs: for each donor in cfg.Peers, fetch its manifest, and for every
// key not in have whose top-R set over ring includes ring[self], fetch
// and verify the cell from that donor and hand it to put.  have gains
// each key put accepts, so later donors skip it.  ring and self stand
// in for cfg.Self, and put for cfg.Store.
func pullMissing(ctx context.Context, cfg RepairConfig, ring []Peer, self int,
	have map[string]bool, put func(store.Key, CellResponse) error) (RepairStats, error) {
	var st RepairStats
	client := cfg.Client
	if client == nil {
		client = &Client{}
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	for _, p := range cfg.Peers {
		mf, err := fetchManifest(ctx, client, p, cfg.Version)
		if err != nil {
			st.PeersSkipped++
			if cfg.Logf != nil {
				cfg.Logf("cluster: repair: skipping %s: %v", p.ID, err)
			}
			continue
		}
		st.PeersDiffed++
		for _, e := range mf.Entries {
			if have[e.Key] {
				continue
			}
			key, err := store.ParseKey(e.Key)
			if err != nil {
				continue
			}
			if !containsIndex(Owners(ring, key, replicas), self) {
				continue // not our cell: its replicas keep it
			}
			cell, err := fetchCell(ctx, client, p, key)
			if err == nil {
				err = put(key, cell)
			}
			if err != nil {
				st.Failed++
				if cfg.Logf != nil {
					cfg.Logf("cluster: repair: pulling %.16s from %s: %v", e.Key, p.ID, err)
				}
				continue
			}
			have[e.Key] = true
			st.Pulled++
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
	}
	return st, nil
}

// fetchManifest GETs a peer's store manifest, rejecting one stamped
// with a ResultsVersion other than version (0 = accept any).
func fetchManifest(ctx context.Context, client *Client, p Peer, version int) (Manifest, error) {
	var mf Manifest
	err := client.Do(ctx, Request{
		Method: http.MethodGet,
		URL:    p.URL() + "/v1/store/manifest",
		Out:    &mf,
		Key:    "manifest/" + p.ID,
	})
	if err == nil && version != 0 && mf.ResultsVersion != version {
		err = fmt.Errorf("ResultsVersion %d, want %d", mf.ResultsVersion, version)
	}
	return mf, err
}

// fetchCell GETs one stored cell from a peer and verifies its
// checksum; Result is the origin's raw payload, byte for byte.
func fetchCell(ctx context.Context, client *Client, p Peer, key store.Key) (CellResponse, error) {
	var resp CellResponse
	err := client.Do(ctx, Request{
		Method: http.MethodGet,
		URL:    p.URL() + "/v1/store/cells/" + key.String(),
		Out:    &resp,
		Key:    key.String(),
		Check: func() error {
			sum := sha256.Sum256(resp.Result)
			if hex.EncodeToString(sum[:]) != resp.SHA256 {
				return Retryable(fmt.Errorf("cluster: cell checksum mismatch from %s", p.ID))
			}
			return nil
		},
	})
	return resp, err
}

// AttachRepair registers the repair metric family and returns the
// counter a daemon or coordinator bumps after each pass (Volatile: what
// a repair pulls depends on crash/restart timing, never on the seeded
// sweep).
func AttachRepair(sink *obs.Sink) *obs.Counter {
	reg := sink.Reg()
	if reg == nil {
		return nil
	}
	return reg.NewCounter("cluster_repair_pulled_total",
		obs.Opts{Help: "cells copied to a rejoining peer by anti-entropy repair", Volatile: true})
}

// containsIndex reports whether set contains i.
func containsIndex(set []int, i int) bool {
	for _, v := range set {
		if v == i {
			return true
		}
	}
	return false
}
