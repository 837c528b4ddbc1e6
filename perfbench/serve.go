package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/harness"
	"sortlast/internal/server"
	"sortlast/internal/volume"
)

// dataset is the volume every workload renders.
const dataset = "engine_low"

// generateDataset generates the dataset's volume as a fresh process
// does and warms its macro-cell grid. The program caches volumes per
// process, so repeated set-ups time the generation here directly.
func generateDataset() (*volume.Volume, time.Duration, error) {
	t := time.Now()
	vol, err := volume.Generate(volume.DatasetEngine)
	if err != nil {
		return nil, 0, fmt.Errorf("generate dataset: %w", err)
	}
	vol.MacroCells()
	return vol, time.Since(t), nil
}

// warmProgramDataset fills the program's own per-process volume cache
// once, before the timed set-ups, so that starting a server does not
// regenerate the volume inside the first set-up only.
func warmProgramDataset() error {
	vol, _, err := harness.Dataset(dataset)
	if err != nil {
		return fmt.Errorf("warm dataset: %w", err)
	}
	vol.MacroCells()
	return nil
}

func request(c cam, size int) server.Request {
	return server.Request{Dataset: dataset, Width: size, Height: size, RotX: c.RotX, RotY: c.RotY}
}

// shutdownTimeout bounds tearing a server or gateway down.
const shutdownTimeout = 30 * time.Second

// dial opens one single-connection client per viewer, so the load
// comes from exactly that many connections.
func dial(addr string, viewers int) []*client.Client {
	cls := make([]*client.Client, viewers)
	for i := range cls {
		cls[i] = client.NewPooled(addr, 1)
	}
	return cls
}

func closeAll(cls []*client.Client) {
	for _, c := range cls {
		c.Close()
	}
}

// reply is one finished request of a closed-loop viewer.
type reply struct {
	k     int // the viewer's request number
	frame *client.Frame
	err   error
	lat   time.Duration
}

// drive runs one closed loop per client for d: viewer v sends request
// next(v, k) only once reply k-1 has arrived, and hands every reply to
// seen(v, r) on its own goroutine. Requests in flight when d runs out
// complete and count.
func drive(clients []*client.Client, d time.Duration,
	next func(v, k int) server.Request, seen func(v int, r reply)) loop {
	ctx := context.Background()
	runtime.GC() // start every loop from a collected heap, not set-up garbage
	tallies := make([]tally, len(clients))
	lats := make([][]float64, len(clients))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for v, cl := range clients {
		wg.Add(1)
		go func(v int, cl *client.Client) {
			defer wg.Done()
			for k := 0; time.Now().Before(end); k++ {
				req := next(v, k)
				t := time.Now()
				f, err := cl.Render(ctx, req)
				r := reply{k: k, frame: f, err: err, lat: time.Since(t)}
				tallies[v].record(err)
				if err == nil {
					lats[v] = append(lats[v], msOf(r.lat))
				}
				seen(v, r)
			}
		}(v, cl)
	}
	wg.Wait()
	l := loop{elapsed: time.Since(start)}
	for v := range clients {
		l.tally.add(tallies[v])
		l.lats = append(l.lats, lats[v]...)
	}
	return l
}

// checkGray byte-compares a served frame with the one-shot harness
// render of the same camera, converted for the wire as the server does.
func checkGray(base harness.Config, c cam, got []byte) error {
	cfg := base
	cfg.RotX, cfg.RotY = c.RotX, c.RotY
	_, img, err := harness.RunWithImage(cfg)
	if err != nil {
		return fmt.Errorf("one-shot render: %w", err)
	}
	if !bytes.Equal(got, img.AppendGray(nil)) {
		return fmt.Errorf("output mismatch: served frame for camera %+v differs from the one-shot harness render", c)
	}
	return nil
}

// servedLayers reduces per-frame serving stats: the server's queue wait
// and execution (total minus queue) over rendered frames, and the
// client's own share of a call (client latency minus the reply's total)
// over the frames given as pure protocol.
func servedLayers(rendered, protocol []reply, m map[string]float64) {
	var queue, exec, overhead []float64
	for _, r := range rendered {
		queue = append(queue, r.frame.Stats.QueueMS)
		exec = append(exec, r.frame.Stats.TotalMS-r.frame.Stats.QueueMS)
	}
	for _, r := range protocol {
		overhead = append(overhead, msOf(r.lat)-r.frame.Stats.TotalMS)
	}
	m["server.queue_ms"] = median(queue)
	m["server.exec_ms"] = median(exec)
	m["client.overhead_ms"] = median(overhead)
}

// latencies is the client-side latency of each reply, in milliseconds.
func latencies(rs []reply) []float64 {
	ms := make([]float64, len(rs))
	for i, r := range rs {
		ms[i] = msOf(r.lat)
	}
	return ms
}
