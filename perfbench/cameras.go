package main

import (
	"math"
	"math/rand"
)

// cam is one camera pose in degrees: the only per-frame input the
// workloads vary. Everything a camera sequence depends on comes from the
// seed, so one seed replays the same requests.
type cam struct{ RotX, RotY float64 }

// orbitSteps is the number of frames in one full turn of an orbit
// viewer (6° per frame). A run covers several turns, so the views it
// averages over hardly depend on the seeded start angle.
const orbitSteps = 60

// orbitStarts returns each viewer's seeded start angle.
func orbitStarts(seed int64, viewers int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	starts := make([]float64, viewers)
	for i := range starts {
		starts[i] = 360 * rng.Float64()
	}
	return starts
}

// orbitCam is frame k of a viewer turning about the volume from start;
// after orbitSteps frames the turn repeats.
func orbitCam(start float64, k int) cam {
	return cam{RotY: math.Mod(start+float64(k)*360/orbitSteps, 360)}
}

// evenCams returns n cameras spaced evenly around the turn from a seeded
// phase, at elevation rotX. Spacing them evenly keeps the workload's
// average occupancy nearly independent of the seed.
func evenCams(seed int64, n int, rotX float64) []cam {
	phase := 360 / float64(n) * rand.New(rand.NewSource(seed)).Float64()
	cams := make([]cam, n)
	for i := range cams {
		cams[i] = cam{RotX: rotX, RotY: phase + float64(i)*360/float64(n)}
	}
	return cams
}

// dashBlock is the dashboard mix's unit: in every block of this many
// requests exactly one, at a seeded position, is a camera never seen
// before and the rest are seeded picks from the fixed set. Fixing the
// share per block (rather than drawing it per request) keeps the
// workload's miss count, and so its cost, the same for every seed.
const dashBlock = 4

// dashRepeatFrac is the share of dashboard requests aimed at the fixed
// cameras.
const dashRepeatFrac = 1 - 1.0/dashBlock

// dashViewer deals one dashboard viewer's request sequence: a seeded mix
// of the shared fixed cameras and cameras of its own that never repeat.
type dashViewer struct {
	rng    *rand.Rand
	fixed  []cam
	id     int
	n      int // requests dealt
	newAt  int // position of the unique camera in the current block
	unique int
}

func newDashViewer(seed int64, id int, fixed []cam) *dashViewer {
	return &dashViewer{rng: rand.New(rand.NewSource(seed*7919 + int64(id) + 1)), fixed: fixed, id: id}
}

// next returns the viewer's next camera and its index in the fixed set,
// -1 for a unique camera.
func (d *dashViewer) next() (cam, int) {
	pos := d.n % dashBlock
	if pos == 0 {
		d.newAt = d.rng.Intn(dashBlock)
	}
	d.n++
	if pos != d.newAt {
		i := d.rng.Intn(len(d.fixed))
		return d.fixed[i], i
	}
	c := uniqueCam(d.id, d.unique)
	d.unique++
	return c, -1
}

// uniqueCam is viewer id's u-th never-repeated camera. Consecutive ones
// are 0.5° apart, two steps of the gateway's 0.25° cache quantization,
// so no two share a cache key; the elevation (40° and up, one band per
// viewer, shifted each full turn) keeps them clear of the fixed cameras
// and of the other viewer's.
func uniqueCam(id, u int) cam {
	return cam{
		RotX: 40 + 5*float64(id) + 0.5*math.Floor(float64(u)/720),
		RotY: math.Mod(0.1+0.5*float64(u), 360),
	}
}
