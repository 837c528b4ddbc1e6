package main

import (
	"fmt"
	"runtime"
	"time"

	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/stats"
)

// The composite workload is the paper's experiment: every rank's
// subimage is rendered during set-up, then composite+gather rounds
// repeat on a standing 16-rank world. Ray casting is absent from the
// loop, so it is bound by compositing, message passing and the gather.
//
// The rounds run on one P. A round is a few milliseconds of 16 ranks in
// lock step; spread over two Ps it stalls whenever either CPU is taken
// away, so on a shared host its tail measured the neighbours rather
// than the compositing. On one P it is a sequential program whose time
// is the work of all 16 ranks plus the message passing between them.
const (
	compositeSize   = 512
	compositeP      = 16
	compositeScenes = 8
	loopProcs       = 1 // Ps the timed rounds run on
	// warmPasses is how many untimed passes over the scenes precede
	// the timed rounds: the first touches buffers and caches cold.
	warmPasses = 2
)

var compositeBase = harness.Config{
	Dataset: dataset, Width: compositeSize, Height: compositeSize, P: compositeP, Method: "bsbrc",
}

// roundObs is one rank's view of one traced round.
type roundObs struct {
	scene  int
	comp   time.Duration
	core   *stats.Rank
	gBytes int           // bytes shipped to rank 0 in the gather
	gather time.Duration // rank 0 only
}

// stopRound is the scene number rank 0 broadcasts to end the loop.
const stopRound = 255

// rounds runs composite+gather rounds over the pre-rendered subimages
// (subs[scene][rank]) for d, the scenes taken in turn, after warmPasses
// untimed passes over the scenes. Rank 0 times each round from its
// barrier release to its gather's return. It returns the
// loop, the first gathered image of each scene, and per rank the
// traced rounds (nil unless traced).
func rounds(plans []*harness.Plan, subs [][]*frame.Image, d time.Duration, traced bool) (loop, []*frame.Image, [][]roundObs, error) {
	var l loop
	first := make([]*frame.Image, len(plans))
	per := make([][]roundObs, compositeP)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loopProcs))
	runtime.GC() // start every loop from a collected heap, not set-up garbage
	err := mp.Run(compositeP, mp.Options{}, func(c mp.Comm) error {
		me := c.Rank()
		work := frame.NewImage(compositeSize, compositeSize)
		var start time.Time
		warm := warmPasses * len(plans)
		for round := 0; ; round++ {
			timed := round >= warm
			var msg []byte
			if me == 0 {
				if round == warm {
					start = time.Now()
				}
				next := byte(round % len(plans))
				if timed && time.Since(start) >= d {
					next = stopRound
				}
				msg = []byte{next}
			}
			msg, err := c.Bcast(0, msg)
			if err != nil {
				return err
			}
			if msg[0] == stopRound {
				if me == 0 {
					l.elapsed = time.Since(start)
				}
				return nil
			}
			s := int(msg[0])
			pl := plans[s]
			work.CopyFrom(subs[s][me])
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			res, err := pl.CompositeRank(c, work)
			if err != nil {
				return err
			}
			t1 := time.Now()
			img, err := pl.GatherRank(c, res)
			if err != nil {
				return err
			}
			if me == 0 && first[s] == nil {
				first[s] = img
			}
			if !timed {
				continue
			}
			if me == 0 {
				l.lats = append(l.lats, msOf(time.Since(t0)))
				l.tally.record(nil)
			}
			if traced {
				ro := roundObs{scene: s, comp: t1.Sub(t0), core: res.Stats}
				if me == 0 {
					ro.gather = time.Since(t1)
				} else {
					ro.gBytes = gatherBytes(res)
				}
				per[me] = append(per[me], ro)
			}
		}
	})
	if err != nil {
		return loop{}, nil, nil, fmt.Errorf("composite world: %w", err)
	}
	if !traced {
		per = nil
	}
	return l, first, per, nil
}

// roundLayers reduces traced rounds to the core and gather layers:
// timings as medians over rounds, exact counts from the first round of
// each scene (every round of a scene counts the same), averaged over
// scenes.
func roundLayers(per [][]roundObs, m map[string]float64) {
	n := len(per[0])
	var wall, compute, wait, gms []float64
	counts := map[string][]float64{}
	var gb []float64
	seen := map[int]bool{}
	for r := 0; r < n; r++ {
		comp := make([]time.Duration, len(per))
		ranks := make([]*stats.Rank, len(per))
		gsum := 0
		for me := range per {
			comp[me], ranks[me] = per[me][r].comp, per[me][r].core
			gsum += per[me][r].gBytes
		}
		w, c, wt := compositeTimes(comp, ranks)
		wall, compute, wait = append(wall, w), append(compute, c), append(wait, wt)
		gms = append(gms, msOf(per[0][r].gather))
		if s := per[0][r].scene; !seen[s] {
			seen[s] = true
			for k, v := range coreCounts(ranks) {
				counts[k] = append(counts[k], v)
			}
			gb = append(gb, float64(gsum))
		}
	}
	m["core.wall_ms"] = median(wall)
	m["core.compute_ms"] = median(compute)
	m["core.wait_ms"] = median(wait)
	for k, v := range counts {
		m[k] = mean(v)
	}
	m["gather.ms"] = median(gms)
	m["gather.bytes"] = mean(gb)
}

func runComposite(o options) (*outcome, error) {
	cams := evenCams(o.seed, compositeScenes, 0)
	out := &outcome{}
	var plans []*harness.Plan
	var pre []frameObs
	for i := 0; i < setupRepeats; i++ {
		plans, pre = nil, nil
		runtime.GC() // drop the previous set-up's subimages before the next one
		var st setupTimes
		vol, dt, err := generateDataset()
		if err != nil {
			return nil, err
		}
		st.dataset = dt
		t := time.Now()
		base := compositeBase
		base.Volume = vol
		if plans, err = plansFor(base, cams); err != nil {
			return nil, err
		}
		st.world = time.Since(t)
		t = time.Now()
		if pre, err = replay(plans, true); err != nil {
			return nil, err
		}
		st.prerender = time.Since(t)
		out.setups = append(out.setups, st)
	}
	out.nonblank, out.rect = occupancy(pre)
	subs := make([][]*frame.Image, len(pre))
	for s := range pre {
		subs[s] = pre[s].subs
	}

	var first []*frame.Image
	var per [][]roundObs
	var m0, m1 memMark
	var err error
	if o.traced {
		if out.plain, _, _, err = rounds(plans, subs, o.seconds/2, false); err != nil {
			return nil, err
		}
		m0 = markMem()
		out.measured, first, per, err = rounds(plans, subs, o.seconds/2, true)
		m1 = markMem()
	} else {
		out.measured, first, _, err = rounds(plans, subs, o.seconds, false)
	}
	if err != nil {
		return nil, err
	}
	if out.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	for s, c := range cams {
		if first[s] == nil {
			return nil, fmt.Errorf("scene %d was never composited", s)
		}
		cfg := compositeBase
		cfg.RotX, cfg.RotY = c.RotX, c.RotY
		_, want, err := harness.RunWithImage(cfg)
		if err != nil {
			return nil, fmt.Errorf("one-shot render: %w", err)
		}
		if d := first[s].MaxAbsDiff(want, want.Full()); d != 0 {
			return nil, fmt.Errorf("output mismatch: gathered image for camera %+v differs from the one-shot harness render by %g", c, d)
		}
	}
	if !o.traced {
		return out, nil
	}

	m := map[string]float64{}
	renderLayer(pre, m)
	roundLayers(per, m)
	procLayer(m0, m1, len(out.measured.lats), m)
	p50, err := percentile(out.measured.lats, 0.5)
	if err != nil {
		return nil, err
	}
	out.layers = m
	out.budget = budget{
		wholeName: "round p50",
		whole:     p50, core: m["core.wall_ms"], gather: m["gather.ms"],
	}
	return out, nil
}
