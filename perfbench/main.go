// Command perfbench is the repository's benchmark: one workload per run,
// driven only through the system's public entry points, its outputs
// checked against the one-shot harness, and its metrics printed as one
// JSON object on the last line of standard output.
//
//	perfbench --workload orbit|composite|dashboard --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics, prints each layer
// budget, and compares an untraced and a traced half of its loop to
// show the tracing overhead. See README.md for the workloads and the
// metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options are a run's inputs; the workload's requests derive from seed
// alone.
type options struct {
	seed    int64
	seconds time.Duration // length of the measured loop
	traced  bool
}

// loop is one measured loop seen end to end.
type loop struct {
	tally   tally
	lats    []float64 // milliseconds, one per completed frame
	elapsed time.Duration
}

func (l loop) fps() float64 {
	if l.elapsed <= 0 {
		return 0
	}
	return float64(len(l.lats)) / l.elapsed.Seconds()
}

// setupTimes is one set-up of a workload's system: generating the
// dataset as a fresh process would, starting the world, server or
// gateway, warming it, and (composite) rendering the subimages.
type setupTimes struct{ dataset, world, warm, prerender time.Duration }

func (s setupTimes) total() time.Duration { return s.dataset + s.world + s.warm + s.prerender }

// setupRepeats is how many times a run sets its system up; the reported
// set-up time is the median, and the last set-up serves the loop.
const setupRepeats = 5

// budget is a traced run's layer budget: the whole a frame took and the
// layers measured inside it.
type budget struct {
	wholeName                   string
	whole, render, core, gather float64
}

// outcome is what a workload run hands back.
type outcome struct {
	measured loop // every frame of an untraced run; the traced half of a traced run
	plain    loop // traced runs: the untraced half, for the overhead comparison
	setups   []setupTimes
	rssMB    float64
	// nonblank and rect are the workload's measured occupancy.
	nonblank, rect float64
	layers         map[string]float64 // traced runs
	budget         budget             // traced runs
}

var workloads = map[string]func(options) (*outcome, error){
	"orbit":     runOrbit,
	"composite": runComposite,
	"dashboard": runDashboard,
}

// deadline bounds a whole run: a wedged system must not hang the caller.
const deadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: orbit, composite or dashboard")
	seed := flag.Int64("seed", 1, "workload seed: start angles and the request mix")
	seconds := flag.Float64("seconds", 20, "length of the measured loop in seconds")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload orbit|composite|dashboard, --seconds > 0, --trace 0|1\n")
		return 2
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, deadline)
		os.Exit(3)
	})
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	out, err := w(o)
	if err == nil {
		err = report(*name, o, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the record header, the human-readable metric lines (on
// standard error), and the result object as the last line of standard
// output. It prints nothing to standard output when a metric cannot be
// computed.
func report(name string, o options, out *outcome) error {
	values, err := metricValues(o, out)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
		printBudget(out)
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v := values[d.name]
		metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	header := map[string]any{"record": map[string]any{
		"workload": name, "seed": o.seed, "trace": o.traced, "host": fingerprint(),
		"frame":   map[string]float64{"nonblank_frac": out.nonblank, "rect_frac": out.rect},
		"frames":  len(out.measured.lats),
		"seconds": out.measured.elapsed.Seconds(),
	}}
	result := map[string]any{
		"correct":   true,
		"attempted": out.measured.tally.attempted,
		"failed":    out.measured.tally.failed,
		"metrics":   metrics,
	}
	for _, v := range []any{header, result} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// metricValues computes every metric of the run's kind. Only the
// workload's layer map may be missing names (layers it does not use
// read 0); an end-to-end metric that cannot be computed is an error.
func metricValues(o options, out *outcome) (map[string]float64, error) {
	if out.measured.tally.attempted == 0 {
		return nil, fmt.Errorf("no request was attempted")
	}
	var totals, dataset, world, prerender []float64
	for _, s := range out.setups {
		totals = append(totals, s.total().Seconds())
		dataset = append(dataset, s.dataset.Seconds())
		world = append(world, s.world.Seconds())
		prerender = append(prerender, s.prerender.Seconds())
	}
	if o.traced {
		m := map[string]float64{}
		for k, v := range out.layers {
			m[k] = v
		}
		m["frame.nonblank_frac"] = out.nonblank
		m["frame.rect_frac"] = out.rect
		m["setup.dataset_s"] = median(dataset)
		m["setup.world_s"] = median(world)
		m["setup.prerender_s"] = median(prerender)
		b := out.budget
		m["budget.residual_ms"] = budgetResidual(b.whole, b.render, b.core, b.gather)
		for k := range m {
			if !known(perLayer, k) {
				return nil, fmt.Errorf("layer metric %q is not in the per-layer table", k)
			}
		}
		return m, nil
	}
	p50, err := percentile(out.measured.lats, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(out.measured.lats, 0.95)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"frames_per_s":   out.measured.fps(),
		"latency_p50_ms": p50,
		"latency_p95_ms": p95,
		"ok_frac":        out.measured.tally.okFrac(),
		"setup_s":        median(totals),
		"rss_peak_mb":    out.rssMB,
	}, nil
}

func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// printBudget writes a traced run's layer budget and its tracing
// overhead (traced half against untraced half) to standard error.
func printBudget(out *outcome) {
	b := out.budget
	fmt.Fprintf(os.Stderr, "layer budget: %s %.3f ms = render %.3f + composite %.3f + gather %.3f + residual %.3f ms\n",
		b.wholeName, b.whole, b.render, b.core, b.gather, budgetResidual(b.whole, b.render, b.core, b.gather))
	p, t := out.plain, out.measured
	pp50, _ := percentile(p.lats, 0.5)
	tp50, _ := percentile(t.lats, 0.5)
	fmt.Fprintf(os.Stderr, "tracing overhead: frames/s %.2f untraced vs %.2f traced (%+.2f); p50 %.3f vs %.3f ms (%+.3f)\n",
		p.fps(), t.fps(), t.fps()-p.fps(), pp50, tp50, tp50-pp50)
}

// memMark is a point on the process's allocation and GC counters.
type memMark struct {
	alloc uint64
	gc    uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

// procLayer charges the allocation and collections between two marks
// to the frames completed between them.
func procLayer(a, b memMark, frames int, m map[string]float64) {
	if frames == 0 {
		return
	}
	m["proc.alloc_bytes_per_frame"] = float64(b.alloc-a.alloc) / float64(frames)
	m["proc.gc_per_frame"] = float64(b.gc-a.gc) / float64(frames)
}
