package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/cluster"
	"spoofscope/internal/core"
	"spoofscope/internal/obs"
)

// single is a compiled single-process system: what setup produces for the
// file-replay and live-flood workloads.
type single struct {
	pipeline *core.Pipeline
	mrtLoad  time.Duration // bgp: RIB.LoadMRT
	build    time.Duration // core: cold NewPipeline
	setup    time.Duration // MRT load + build + runtime start
}

// setupSingle loads the MRT image, compiles a cold pipeline, and starts
// (then stops) a runtime over it: the path from inputs in memory to a
// process ready to classify.
func setupSingle(in *Inputs) (*single, error) {
	t0 := time.Now()
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(bytes.NewReader(in.MRT)); err != nil {
		return nil, fmt.Errorf("loading MRT: %w", err)
	}
	t1 := time.Now()
	p, err := core.NewPipeline(rib, in.Members, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("compiling pipeline: %w", err)
	}
	t2 := time.Now()
	rt, err := core.NewRuntime(core.RuntimeConfig{Pipeline: p, Start: in.Start, Bucket: in.Bucket,
		Queue: core.QueueConfig{Capacity: queueCapacity}})
	if err != nil {
		return nil, fmt.Errorf("starting runtime: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run(context.Background(), nil) }()
	t3 := time.Now()
	rt.Close()
	if err := <-done; err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return &single{pipeline: p, mrtLoad: t1.Sub(t0), build: t2.Sub(t1), setup: t3.Sub(t0)}, nil
}

// queueCapacity is the ingest queue of both single-process workloads,
// cmd/classify's and examples/livefeed's size.
const queueCapacity = 8192

// Cluster liveness settings: the 20ms beat is the repository's cluster
// benchmark pace (it also paces report re-solicitation, so a slower beat
// would quantize barrier latency); 50 misses give a one-second dead-link
// deadline, so a scheduling stall on a loaded host is not read as a
// failure.
const (
	clusterBeat   = 20 * time.Millisecond
	clusterMisses = 50
	clusterShards = 4
)

// countingConn counts the bytes its side of the cluster link writes: the
// benchmark's listener wraps the coordinator's side, WorkerConfig.Dial the
// worker's, so each direction is counted where it is sent.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.written.Add(int64(n))
	return n, err
}

type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (cl countingListener) Accept() (net.Conn, error) {
	conn, err := cl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, cl.written}, nil
}

// clusterSys is one coordinator feeding one worker over loopback TCP.
type clusterSys struct {
	coord    *cluster.Coordinator
	down, up atomic.Int64 // bytes written coordinator→worker, worker→coordinator
	mrtLoad  time.Duration
	epoch    time.Duration // DistributeEpoch until the worker compiled
	setup    time.Duration
	stop     func()
}

// setupCluster brings up the coordinator and its worker, waits for the
// join, and distributes the epoch until the worker has compiled it.
func setupCluster(in *Inputs) (*clusterSys, error) {
	t0 := time.Now()
	rib := bgp.NewRIB()
	if err := rib.LoadMRT(bytes.NewReader(in.MRT)); err != nil {
		return nil, fmt.Errorf("loading MRT: %w", err)
	}
	t1 := time.Now()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &clusterSys{mrtLoad: t1.Sub(t0)}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Shards: clusterShards, Members: in.Members, Start: in.Start, Bucket: in.Bucket,
		HeartbeatInterval: clusterBeat, HeartbeatMisses: clusterMisses,
	})
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); coord.Serve(countingListener{inner, &s.down}) }()
	// The worker's journal is how the benchmark sees, from outside, that
	// the epoch compiled.
	wtel := obs.NewTelemetry()
	addr := inner.Addr().String()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "bench-worker",
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, &s.up}, nil
		},
		DrainWorkers:      1,
		HeartbeatInterval: clusterBeat, HeartbeatMisses: clusterMisses,
		Telemetry: wtel,
	})
	if err != nil {
		coord.Close()
		inner.Close()
		<-serveDone
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	wctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(wctx) }()
	s.coord = coord
	s.stop = func() {
		cancel()
		<-workerDone
		coord.Close()
		inner.Close()
		<-serveDone
	}
	if err := waitFor(func() bool { return coord.Stats().Workers == 1 }); err != nil {
		s.stop()
		return nil, fmt.Errorf("worker join: %w", err)
	}
	t2 := time.Now()
	if _, err := coord.DistributeEpoch(rib); err != nil {
		s.stop()
		return nil, fmt.Errorf("distributing epoch: %w", err)
	}
	if err := waitFor(func() bool { return compiled(wtel) }); err != nil {
		s.stop()
		return nil, fmt.Errorf("worker compile: %w", err)
	}
	t3 := time.Now()
	s.epoch, s.setup = t3.Sub(t2), t3.Sub(t0)
	return s, nil
}

// compiled reports whether the worker journal records a compiled epoch.
func compiled(tel *obs.Telemetry) bool {
	for _, e := range tel.Journal.Events() {
		if e.Kind == obs.EventClusterEpoch && strings.Contains(e.Msg, "compiled epoch") {
			return true
		}
	}
	return false
}

var errTimeout = errors.New("timed out")

// waitFor polls cond every 100µs for up to 10 seconds.
func waitFor(cond func() bool) error {
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}
