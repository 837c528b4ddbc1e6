package main

import (
	"context"
	"fmt"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/harness"
	"sortlast/internal/server"
)

// The orbit workload: two viewers, each with one frame outstanding,
// turn about the volume on an in-process renderd at program defaults.
// One frame's ray casting costs tens of milliseconds against about one
// of compositing, so the workload is render-bound.
const (
	orbitSize    = 256
	orbitP       = 4
	orbitViewers = 2
	// orbitCheckEvery: frame 0 of each viewer and every this many frames
	// after it are byte-compared with the one-shot harness.
	orbitCheckEvery = 16
	// orbitReplayStride picks the replayed cameras: every this many
	// frames of each viewer's first turn.
	orbitReplayStride = 8
)

var orbitBase = harness.Config{
	Dataset: dataset, Width: orbitSize, Height: orbitSize, P: orbitP, Method: server.DefaultMethod,
}

type orbitSys struct {
	srv     *server.Server
	clients []*client.Client
}

func (s *orbitSys) close() {
	closeAll(s.clients)
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	s.srv.Shutdown(ctx)
}

func startOrbit(starts []float64) (*orbitSys, setupTimes, error) {
	var st setupTimes
	var err error
	if _, st.dataset, err = generateDataset(); err != nil {
		return nil, st, err
	}
	t := time.Now()
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", P: orbitP})
	if err != nil {
		return nil, st, fmt.Errorf("start renderd: %w", err)
	}
	st.world = time.Since(t)
	s := &orbitSys{srv: srv, clients: dial(srv.Addr().String(), orbitViewers)}
	t = time.Now()
	for v, cl := range s.clients {
		if _, err := cl.Render(context.Background(), request(orbitCam(starts[v], 0), orbitSize)); err != nil {
			s.close()
			return nil, st, fmt.Errorf("warm-up frame: %w", err)
		}
	}
	st.warm = time.Since(t)
	return s, st, nil
}

// kept is a served frame held back for the byte check.
type kept struct {
	cam  cam
	gray []byte
}

func runOrbit(o options) (*outcome, error) {
	if err := warmProgramDataset(); err != nil {
		return nil, err
	}
	starts := orbitStarts(o.seed, orbitViewers)
	out := &outcome{}
	var sys *orbitSys
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		s, st, err := startOrbit(starts)
		if err != nil {
			return nil, err
		}
		sys = s
		out.setups = append(out.setups, st)
	}
	defer sys.close()

	checks := make([][]kept, orbitViewers)
	var traced [][]reply // per viewer, traced half only
	next := func(v, k int) server.Request { return request(orbitCam(starts[v], k), orbitSize) }
	seen := func(v int, r reply) {
		if r.err == nil && r.k%orbitCheckEvery == 0 {
			checks[v] = append(checks[v], kept{orbitCam(starts[v], r.k), r.frame.Gray})
		}
		if traced != nil && r.err == nil {
			traced[v] = append(traced[v], r)
		}
	}
	var m0, m1 memMark
	if o.traced {
		out.plain = drive(sys.clients, o.seconds/2, next, seen)
		traced = make([][]reply, orbitViewers)
		m0 = markMem()
		out.measured = drive(sys.clients, o.seconds/2, next, seen)
		m1 = markMem()
	} else {
		out.measured = drive(sys.clients, o.seconds, next, seen)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.rssMB = rss

	for _, ks := range checks {
		for _, k := range ks {
			if err := checkGray(orbitBase, k.cam, k.gray); err != nil {
				return nil, err
			}
		}
	}

	var cams []cam
	for _, s := range starts {
		for k := 0; k < orbitSteps; k += orbitReplayStride {
			cams = append(cams, orbitCam(s, k))
		}
	}
	plans, err := plansFor(orbitBase, cams)
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
	var all []reply
	for _, rs := range traced {
		all = append(all, rs...)
	}
	servedLayers(all, all, m)
	m["server.refused"] = float64(out.measured.tally.refused)
	m["server.world_restarts"] = float64(sys.srv.WorldRestarts())
	procLayer(m0, m1, len(out.measured.lats), m)
	out.layers = m
	out.budget = budget{
		wholeName: "server.exec_ms",
		whole:     m["server.exec_ms"], render: m["render.crit_ms"], core: m["core.wall_ms"], gather: m["gather.ms"],
	}
	return out, nil
}
