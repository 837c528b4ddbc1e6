package main

import (
	"fmt"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/render"
	"sortlast/internal/stats"
)

// plansFor resolves one plan per camera. base carries everything but
// the camera.
func plansFor(base harness.Config, cams []cam) ([]*harness.Plan, error) {
	plans := make([]*harness.Plan, len(cams))
	for i, c := range cams {
		cfg := base
		cfg.RotX, cfg.RotY = c.RotX, c.RotY
		p, err := harness.NewPlan(cfg)
		if err != nil {
			return nil, fmt.Errorf("plan for camera %+v: %w", c, err)
		}
		plans[i] = p
	}
	return plans, nil
}

// frameObs is one frame run through a benchmark-owned world, one frame
// at a time: each rank's render and composite timings and counters, the
// rank-0 gather, and the gathered image.
type frameObs struct {
	render  []time.Duration // per rank: RenderRankObserved
	samples []render.StatsSnapshot
	rectPx  []int           // per rank: area of the subimage's non-blank bounding rectangle
	comp    []time.Duration // per rank: CompositeRank
	core    []*stats.Rank   // per rank: the compositor's exact counters
	gather  time.Duration   // rank 0: GatherRank
	gBytes  []int           // per rank: bytes shipped to rank 0 in the gather (0 at rank 0)
	img     *frame.Image    // gathered at rank 0
	subs    []*frame.Image  // per rank: the pristine subimage, when kept
}

// replay renders, composites and gathers each plan's frame in turn on a
// fresh in-process world, timing every rank's calls; no rank starts a
// frame before every rank has finished the previous one. keepSubs keeps a
// copy of each rank's pristine subimage for later compositing rounds.
func replay(plans []*harness.Plan, keepSubs bool) ([]frameObs, error) {
	p := plans[0].Cfg.P
	obs := make([]frameObs, len(plans))
	for i := range obs {
		obs[i] = frameObs{
			render:  make([]time.Duration, p),
			samples: make([]render.StatsSnapshot, p),
			rectPx:  make([]int, p),
			comp:    make([]time.Duration, p),
			core:    make([]*stats.Rank, p),
			gBytes:  make([]int, p),
			subs:    make([]*frame.Image, p),
		}
	}
	err := mp.Run(p, mp.Options{}, func(c mp.Comm) error {
		me := c.Rank()
		for i, pl := range plans {
			o := &obs[i]
			var rs render.Stats
			t := time.Now()
			img := pl.RenderRankObserved(me, nil, &rs)
			o.render[me] = time.Since(t)
			o.samples[me] = rs.Snapshot()
			r, _ := img.BoundingRect(img.Full())
			o.rectPx[me] = r.Area()
			if keepSubs {
				o.subs[me] = img.Clone()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t = time.Now()
			res, err := pl.CompositeRank(c, img)
			o.comp[me] = time.Since(t)
			if err != nil {
				return err
			}
			o.core[me] = res.Stats
			if me != 0 {
				o.gBytes[me] = gatherBytes(res)
			}
			t = time.Now()
			out, err := pl.GatherRank(c, res)
			if err != nil {
				return err
			}
			if me == 0 {
				o.gather = time.Since(t)
				o.img = out
			}
			// One frame at a time: a rank that finished early must not
			// start rendering the next frame while others still composite.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay world: %w", err)
	}
	return obs, nil
}

// gatherBytes is what a rank ships to the root in GatherImage: its
// ownership descriptor and the owned pixels.
func gatherBytes(res *core.Result) int {
	return len(res.Own.AppendWire(nil)) + res.Own.Area()*frame.PixelBytes
}

// occupancy measures how much of the frame a workload fills: the mean
// non-blank share of the gathered images and the mean per-rank
// bounding-rectangle area over the frame area.
func occupancy(obs []frameObs) (nonblank, rect float64) {
	var nb, rc []float64
	for _, o := range obs {
		full := o.img.Full()
		area := float64(full.Area())
		nb = append(nb, float64(o.img.CountNonBlank(full))/area)
		for _, px := range o.rectPx {
			rc = append(rc, float64(px)/area)
		}
	}
	return mean(nb), mean(rc)
}

// renderLayer reduces per-rank render observations to the render
// layer's metrics: the slowest rank and the imbalance per frame
// (median over frames), exact sample counts per frame (mean), and wall
// time per sample and skip share over all ranks and frames.
func renderLayer(obs []frameObs, m map[string]float64) {
	var crit, imb, samples []float64
	var wall time.Duration
	var n, skipped int64
	for _, o := range obs {
		per := make([]float64, len(o.render))
		var fs int64
		for r, d := range o.render {
			per[r] = msOf(d)
			wall += d
			fs += o.samples[r].Samples
			skipped += o.samples[r].SamplesSkipped
		}
		n += fs
		crit = append(crit, maxOf(per))
		imb = append(imb, maxOverMean(per))
		samples = append(samples, float64(fs))
	}
	m["render.crit_ms"] = median(crit)
	m["render.imbalance"] = median(imb)
	m["render.samples"] = mean(samples)
	if n > 0 {
		m["render.ns_per_sample"] = float64(wall) / float64(n)
	}
	if n+skipped > 0 {
		m["render.skip_frac"] = float64(skipped) / float64(n+skipped)
	}
}

// coreCounts reduces one frame's per-rank compositor counters to the
// core layer's exact counts and the paper's modeled time (Eq. 1–8 at
// the SP2 constants).
func coreCounts(ranks []*stats.Rank) map[string]float64 {
	msgs := 0
	for _, r := range ranks {
		msgs += r.Fold.MsgsRecv
		for _, s := range r.Stages {
			msgs += s.MsgsRecv
		}
	}
	bytes, px := 0, 0
	for _, r := range ranks {
		bytes += r.BytesReceived()
		px += r.TotalComposited()
	}
	return map[string]float64{
		"core.bytes":         float64(bytes),
		"core.msgs":          float64(msgs),
		"core.mmax_bytes":    float64(stats.MaxMessageBytes(ranks)),
		"core.composited_px": float64(px),
		"core.model_ms":      msOf(costmodel.SP2().World(ranks).Total()),
	}
}

// compositeTimes reduces one frame's per-rank composite walls to the
// slowest rank's wall, its compute, and the largest wait (wall minus
// compute) of any rank.
func compositeTimes(comp []time.Duration, ranks []*stats.Rank) (wall, compute, wait float64) {
	for r, d := range comp {
		wall = max(wall, msOf(d))
		compute = max(compute, msOf(ranks[r].CompWall))
		wait = max(wait, msOf(d-ranks[r].CompWall))
	}
	return wall, compute, wait
}

// coreLayer fills the core and gather layers from replayed frames:
// timings as medians over frames, counts as means over frames (exact
// for a fixed camera list).
func coreLayer(obs []frameObs, m map[string]float64) {
	var wall, compute, wait, gms, gb []float64
	counts := map[string][]float64{}
	for _, o := range obs {
		w, c, wt := compositeTimes(o.comp, o.core)
		wall, compute, wait = append(wall, w), append(compute, c), append(wait, wt)
		gms = append(gms, msOf(o.gather))
		sum := 0
		for _, b := range o.gBytes {
			sum += b
		}
		gb = append(gb, float64(sum))
		for k, v := range coreCounts(o.core) {
			counts[k] = append(counts[k], v)
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
