package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/fleet"
	"sortlast/internal/harness"
	"sortlast/internal/server"
)

// The dashboard workload: a fleet gateway over two in-process replicas
// of two ranks each. Two viewers send three quarters of their requests
// to eight fixed cameras and the rest to cameras never seen before, so
// most requests are answered from the gateway's frame cache and never
// reach a world: the workload is bound by the gateway and its cache.
const (
	dashSize     = 256
	dashP        = 2
	dashReplicas = 2
	dashViewers  = 2
	dashFixed    = 8
	dashRotX     = 15
)

var dashBase = harness.Config{
	Dataset: dataset, Width: dashSize, Height: dashSize, P: dashP, Method: server.DefaultMethod,
}

type dashSys struct {
	g       *fleet.Gateway
	clients []*client.Client
}

func (s *dashSys) close() {
	closeAll(s.clients)
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	s.g.Shutdown(ctx)
}

// startDashboard starts the gateway and fills its cache with the fixed
// cameras; the fills are the references every later hit must equal.
func startDashboard(fixed []cam) (*dashSys, setupTimes, [][]byte, error) {
	var st setupTimes
	var err error
	if _, st.dataset, err = generateDataset(); err != nil {
		return nil, st, nil, err
	}
	t := time.Now()
	rcs := make([]fleet.ReplicaConfig, dashReplicas)
	for i := range rcs {
		rcs[i] = fleet.ReplicaConfig{Server: &server.Config{P: dashP}}
	}
	g, err := fleet.Start(fleet.Config{Addr: "127.0.0.1:0", Replicas: rcs})
	if err != nil {
		return nil, st, nil, fmt.Errorf("start gateway: %w", err)
	}
	st.world = time.Since(t)
	s := &dashSys{g: g, clients: dial(g.Addr().String(), dashViewers)}
	t = time.Now()
	refs := make([][]byte, len(fixed))
	for i, c := range fixed {
		f, err := s.clients[i%dashViewers].Render(context.Background(), request(c, dashSize))
		if err != nil {
			s.close()
			return nil, st, nil, fmt.Errorf("cache fill: %w", err)
		}
		refs[i] = f.Gray
	}
	st.warm = time.Since(t)
	return s, st, refs, nil
}

func runDashboard(o options) (*outcome, error) {
	if err := warmProgramDataset(); err != nil {
		return nil, err
	}
	fixed := evenCams(o.seed, dashFixed, dashRotX)
	out := &outcome{}
	var sys *dashSys
	var refs [][]byte
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		s, st, r, err := startDashboard(fixed)
		if err != nil {
			return nil, err
		}
		sys, refs = s, r
		out.setups = append(out.setups, st)
	}
	defer sys.close()

	viewers := make([]*dashViewer, dashViewers)
	asked := make([]int, dashViewers) // fixed index of each viewer's request in flight
	bad := make([]error, dashViewers)
	var traced [][]reply
	next := func(v, _ int) server.Request {
		c, i := viewers[v].next()
		asked[v] = i
		return request(c, dashSize)
	}
	seen := func(v int, r reply) {
		if r.err != nil {
			return
		}
		i := asked[v]
		switch {
		case i < 0 && r.frame.Stats.Cached:
			bad[v] = fmt.Errorf("a never-requested camera was answered from the cache")
		case i >= 0 && !bytes.Equal(r.frame.Gray, refs[i]):
			bad[v] = fmt.Errorf("output mismatch: reply for fixed camera %+v (cached=%v) differs from the render that filled the cache",
				fixed[i], r.frame.Stats.Cached)
		}
		if traced != nil {
			traced[v] = append(traced[v], r)
		}
	}
	for v := range viewers {
		viewers[v] = newDashViewer(o.seed, v, fixed)
	}
	var before, after fleet.Stats
	var m0, m1 memMark
	if o.traced {
		out.plain = drive(sys.clients, o.seconds/2, next, seen)
		traced = make([][]reply, dashViewers)
		before, m0 = sys.g.Stats(), markMem()
		out.measured = drive(sys.clients, o.seconds/2, next, seen)
		after, m1 = sys.g.Stats(), markMem()
	} else {
		out.measured = drive(sys.clients, o.seconds, next, seen)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	for _, err := range bad {
		if err != nil {
			return nil, err
		}
	}
	for i, c := range fixed {
		if err := checkGray(dashBase, c, refs[i]); err != nil {
			return nil, err
		}
	}

	cams := append([]cam(nil), fixed...)
	for u := 0; u < dashFixed; u++ {
		cams = append(cams, uniqueCam(0, u))
	}
	plans, err := plansFor(dashBase, cams)
	if err != nil {
		return nil, err
	}
	obs, err := replay(plans, false)
	if err != nil {
		return nil, err
	}
	out.nonblank, out.rect = occupancy(obs)
	if !o.traced {
		return out, nil
	}

	m := map[string]float64{}
	renderLayer(obs, m)
	coreLayer(obs, m)
	var hits, misses []reply
	for _, rs := range traced {
		for _, r := range rs {
			if r.frame.Stats.Cached {
				hits = append(hits, r)
			} else {
				misses = append(misses, r)
			}
		}
	}
	servedLayers(misses, hits, m)
	m["fleet.hit_p50_ms"] = median(latencies(hits))
	m["fleet.miss_p50_ms"] = median(latencies(misses))
	fleetLayer(before, after, m)
	m["server.refused"] = float64(out.measured.tally.refused)
	procLayer(m0, m1, len(out.measured.lats), m)
	out.layers = m
	out.budget = budget{
		wholeName: "server.exec_ms (misses)",
		whole:     m["server.exec_ms"], render: m["render.crit_ms"], core: m["core.wall_ms"], gather: m["gather.ms"],
	}
	return out, nil
}

// fleetLayer reduces the gateway's counters over the traced loop: the
// cache hit ratio, hedges that lost the race per request, retries, and
// how unevenly the replicas shared the renders.
func fleetLayer(before, after fleet.Stats, m map[string]float64) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		m["fleet.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if req := after.Requests - before.Requests; req > 0 {
		lost := (after.HedgesIssued - before.HedgesIssued) - (after.HedgeWins - before.HedgeWins)
		m["fleet.hedge_waste"] = float64(lost) / float64(req)
	}
	m["fleet.retries"] = float64(after.Retries - before.Retries)
	var frames []float64
	var restarts int64
	for i, r := range after.Replicas {
		f := r.Frames
		if i < len(before.Replicas) {
			f -= before.Replicas[i].Frames
		}
		frames = append(frames, float64(f))
		restarts += r.WorldRestarts
	}
	m["fleet.replica_skew"] = maxOverMean(frames)
	m["server.world_restarts"] = float64(restarts)
}
