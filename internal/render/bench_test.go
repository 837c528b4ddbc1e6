package render

import (
	"testing"

	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

func BenchmarkRaycastSerial(b *testing.B) {
	vol := volume.EngineBlock(128, 128, 55)
	tf := transfer.EngineLow()
	cam := NewCamera(192, 192, vol.Bounds(), 20, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Raycast(vol, vol.Bounds(), cam, tf, Options{})
	}
}

func BenchmarkRaycastSubvolume(b *testing.B) {
	vol := volume.EngineBlock(128, 128, 55)
	tf := transfer.EngineLow()
	cam := NewCamera(192, 192, vol.Bounds(), 20, 30)
	box := volume.Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{64, 64, 28}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Raycast(vol, box, cam, tf, Options{})
	}
}

func BenchmarkRaycastShaded(b *testing.B) {
	vol := volume.HeadPhantom(96, 96, 48)
	tf := transfer.Head()
	cam := NewCamera(128, 128, vol.Bounds(), 15, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Raycast(vol, vol.Bounds(), cam, tf, Options{Shaded: true})
	}
}

// raycastScenario is one kernel benchmark configuration; run times both
// the accelerated kernel and the reference, reporting ns/ray and a
// pinned allocation count per call.
type raycastScenario struct {
	vol *volume.Volume
	tf  *transfer.Func
	cam *Camera
	opt Options
}

func denseScenario() raycastScenario {
	vol := volume.EngineBlock(128, 128, 55)
	return raycastScenario{vol: vol, tf: transfer.EngineLow(),
		cam: NewCamera(192, 192, vol.Bounds(), 20, 30)}
}

func sparseScenario() raycastScenario {
	vol := volume.SolidCube(128, 128, 55)
	return raycastScenario{vol: vol, tf: transfer.Cube(),
		cam: NewCamera(192, 192, vol.Bounds(), 20, 30)}
}

func shadedScenario() raycastScenario {
	vol := volume.HeadPhantom(96, 96, 48)
	return raycastScenario{vol: vol, tf: transfer.Head(),
		cam: NewCamera(128, 128, vol.Bounds(), 15, 25), opt: Options{Shaded: true}}
}

func (s raycastScenario) run(b *testing.B, reference bool) {
	b.Helper()
	s.vol.MacroCells() // amortized once per dataset; keep it out of the pin
	var rs Stats
	opt := s.opt
	opt.Stats = &rs
	Raycast(s.vol, s.vol.Bounds(), s.cam, s.tf, opt)
	rays := rs.Snapshot().Rays
	if rays == 0 {
		b.Fatal("scenario casts no rays")
	}
	render := func() {
		if reference {
			RaycastReference(s.vol, s.vol.Bounds(), s.cam, s.tf, s.opt)
		} else {
			Raycast(s.vol, s.vol.Bounds(), s.cam, s.tf, s.opt)
		}
	}
	// Pinned with AllocsPerRun rather than -benchmem so the count is
	// exact and prints unconditionally ("allocs/op" would be hidden
	// behind the -benchmem flag). Measured before the timed loop,
	// reported after it: ResetTimer deletes user metrics.
	allocs := testing.AllocsPerRun(1, render)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render()
	}
	b.ReportMetric(allocs, "allocs/frame")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rays), "ns/ray")
}

func BenchmarkRaycastDense(b *testing.B)  { denseScenario().run(b, false) }
func BenchmarkRaycastSparse(b *testing.B) { sparseScenario().run(b, false) }
func BenchmarkRaycastShadedHead(b *testing.B) {
	shadedScenario().run(b, false)
}
func BenchmarkRaycastDenseReference(b *testing.B)  { denseScenario().run(b, true) }
func BenchmarkRaycastSparseReference(b *testing.B) { sparseScenario().run(b, true) }
func BenchmarkRaycastShadedHeadReference(b *testing.B) {
	shadedScenario().run(b, true)
}
