package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/server"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json at the repository
// root lists the same names and units (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload in an untraced run.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ok_frac", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"render.crit_ms", "ms"},
	{"render.imbalance", "ratio"},
	{"render.samples", "count"},
	{"render.ns_per_sample", "ns"},
	{"render.skip_frac", "ratio"},
	{"core.wall_ms", "ms"},
	{"core.compute_ms", "ms"},
	{"core.wait_ms", "ms"},
	{"core.bytes", "bytes"},
	{"core.msgs", "count"},
	{"core.mmax_bytes", "bytes"},
	{"core.composited_px", "count"},
	{"core.model_ms", "model_ms"},
	{"gather.ms", "ms"},
	{"gather.bytes", "bytes"},
	{"server.queue_ms", "ms"},
	{"server.exec_ms", "ms"},
	{"server.refused", "count"},
	{"server.world_restarts", "count"},
	{"client.overhead_ms", "ms"},
	{"fleet.hit_ratio", "ratio"},
	{"fleet.hit_p50_ms", "ms"},
	{"fleet.miss_p50_ms", "ms"},
	{"fleet.hedge_waste", "ratio"},
	{"fleet.retries", "count"},
	{"fleet.replica_skew", "ratio"},
	{"proc.alloc_bytes_per_frame", "bytes"},
	{"proc.gc_per_frame", "count"},
	{"frame.nonblank_frac", "ratio"},
	{"frame.rect_frac", "ratio"},
	{"setup.dataset_s", "s"},
	{"setup.world_s", "s"},
	{"setup.prerender_s", "s"},
	{"budget.residual_ms", "ms"},
}

// minTail is how many samples must lie beyond a reported percentile:
// a percentile resting on fewer is noise, so it is refused instead.
const minTail = 10

// percentile returns the q-quantile (nearest rank) of xs, which need not
// be sorted. It refuses a q whose tail holds fewer than minTail samples:
// p95 needs at least 200, p50 at least 20.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if float64(n)*(1-q) < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all",
			100*q, minTail, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[max(i, 0)], nil
}

// median is the 0.5 quantile of a small set, with no tail rule (setup
// repetitions, per-frame layer timings); 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOverMean is the imbalance ratio of a set of per-rank (or
// per-replica) quantities: 1 when all are equal, 0 for an empty or
// all-zero set.
func maxOverMean(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	return maxOf(xs) / m
}

// maxOf is the largest of xs; 0 for an empty set.
func maxOf(xs []float64) float64 {
	hi := 0.0
	for _, x := range xs {
		hi = max(hi, x)
	}
	return hi
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// tally counts requests against what was attempted. Every error counts
// as failed; a request the server refused at admission (overloaded)
// counts as failed too, and additionally as refused.
type tally struct {
	attempted, failed, refused int
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var ce *client.Error
	if errors.As(err, &ce) && ce.Code == server.CodeOverloaded {
		t.refused++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
}

// okFrac is the share of attempted requests that completed; 0 when
// nothing was attempted.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// budgetResidual is the part of a frame's whole time that the measured
// layers do not account for: whole − (render + composite + gather). On
// a pipelined server it is the contention between frames in flight.
func budgetResidual(whole, renderMS, coreMS, gatherMS float64) float64 {
	return whole - (renderMS + coreMS + gatherMS)
}
