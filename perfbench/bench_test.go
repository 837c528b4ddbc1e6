package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"sortlast/internal/client"
	"sortlast/internal/server"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Fatal("p95 of 199 samples leaves fewer than 10 beyond it, want refusal")
	}
	got, err := percentile(seq(200), 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if got != 190 { // nearest rank: the 190th smallest of 1..200
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples, want refusal")
	}
	if got, err := percentile(seq(20), 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(&client.Error{Code: server.CodeOverloaded, Msg: "queue full"})
	tl.record(errors.New("connection reset"))
	tl.record(nil)
	if tl.attempted != 4 || tl.failed != 2 || tl.refused != 1 {
		t.Fatalf("tally = %+v, want 4 attempted, 2 failed, 1 refused", tl)
	}
	if got := tl.okFrac(); got != 0.5 {
		t.Fatalf("okFrac = %v, want 0.5", got)
	}
	var sum tally
	sum.add(tl)
	sum.add(tl)
	if sum != (tally{attempted: 8, failed: 4, refused: 2}) {
		t.Fatalf("sum of two tallies = %+v", sum)
	}
}

// dashRequests deals n requests from each of two viewers.
func dashRequests(seed int64, n int) [][]cam {
	fixed := evenCams(seed, dashFixed, dashRotX)
	out := make([][]cam, 2)
	for v := range out {
		d := newDashViewer(seed, v, fixed)
		for i := 0; i < n; i++ {
			c, _ := d.next()
			out[v] = append(out[v], c)
		}
	}
	return out
}

func TestSeedReproducesSequences(t *testing.T) {
	if !reflect.DeepEqual(orbitStarts(7, 2), orbitStarts(7, 2)) {
		t.Fatal("orbit start angles differ for one seed")
	}
	if reflect.DeepEqual(orbitStarts(7, 2), orbitStarts(8, 2)) {
		t.Fatal("orbit start angles equal for different seeds")
	}
	if !reflect.DeepEqual(evenCams(7, 4, 0), evenCams(7, 4, 0)) ||
		reflect.DeepEqual(evenCams(7, 4, 0), evenCams(8, 4, 0)) {
		t.Fatal("composite cameras do not follow the seed")
	}
	if !reflect.DeepEqual(dashRequests(7, 300), dashRequests(7, 300)) {
		t.Fatal("dashboard request sequences differ for one seed")
	}
	if reflect.DeepEqual(dashRequests(7, 300), dashRequests(8, 300)) {
		t.Fatal("dashboard request sequences equal for different seeds")
	}
}

func TestDashboardMixNeverRepeatsUniqueCameras(t *testing.T) {
	// The gateway's cache quantizes rotations to 0.25°, rounding.
	bucket := func(c cam) [2]int {
		q := func(d float64) int { return int(math.Round(math.Mod(d, 360)/0.25)) % 1440 }
		return [2]int{q(c.RotX), q(c.RotY)}
	}
	fixed := evenCams(3, dashFixed, dashRotX)
	seen := map[[2]int]bool{}
	for _, c := range fixed {
		seen[bucket(c)] = true
	}
	uniques := 0
	for v := 0; v < 2; v++ {
		d := newDashViewer(3, v, fixed)
		for i := 0; i < 4000; i++ {
			c, idx := d.next()
			if idx >= 0 {
				continue
			}
			uniques++
			if seen[bucket(c)] {
				t.Fatalf("viewer %d unique camera %+v shares a cache bucket", v, c)
			}
			seen[bucket(c)] = true
		}
	}
	if frac := float64(uniques) / 8000; frac != 1-dashRepeatFrac {
		t.Fatalf("unique share %v, want exactly %v", frac, 1-dashRepeatFrac)
	}
}

func TestBudgetResidual(t *testing.T) {
	if got := budgetResidual(80, 40, 0.5, 1.5); got != 38 {
		t.Fatalf("residual = %v, want 38", got)
	}
	// Medians of per-rank maxima need not add up: the residual may be
	// negative, and is reported as measured.
	if got := budgetResidual(7, 0, 5, 3); got != -1 {
		t.Fatalf("residual = %v, want -1", got)
	}
}

func TestImbalance(t *testing.T) {
	if got := maxOverMean([]float64{10, 20, 30, 40}); got != 1.6 {
		t.Fatalf("maxOverMean = %v, want 1.6", got)
	}
	if got := maxOverMean(nil); got != 0 {
		t.Fatalf("maxOverMean(nil) = %v, want 0", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables here and
// the repository's BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark reports %s/%s",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}
