package render

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sortlast/internal/partition"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// sharpVolume is an nx×ny×nz volume of a few dense boxes and isolated
// voxels in empty space, placed at random voxel offsets.
func sharpVolume(rng *rand.Rand, nx, ny, nz int) *volume.Volume {
	v := volume.New(nx, ny, nz)
	for i := 0; i < 6; i++ {
		lo := [3]int{rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)}
		v.Fill(volume.Box{Lo: lo, Hi: [3]int{
			lo[0] + 1 + rng.Intn(12), lo[1] + 1 + rng.Intn(12), lo[2] + 1 + rng.Intn(24),
		}}, uint8(100+rng.Intn(156)))
	}
	for i := 0; i < 40; i++ {
		v.Set(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz), uint8(61+rng.Intn(195)))
	}
	return v
}

// namedCamera is one camera regime of the property test.
type namedCamera struct {
	name string
	cam  *Camera
}

// skipCameras returns the property test's camera regimes for a volume
// with the given bounds: seeded random rotations, axis-aligned rays
// (Dir components exactly zero), and 45°/90° rays through macro-cell
// edges and corners.
func skipCameras(rng *rand.Rand, b volume.Box) []namedCamera {
	const s2 = 1 / math.Sqrt2
	const w, h = 32, 32
	c := b.Center()
	// A macro-cell corner near the center: rays through it at 45° cross
	// two (or three) cell faces at one parameter.
	corner := [3]float64{
		float64(b.Dx() / 2 &^ (volume.MacroCell - 1)),
		float64(b.Dy() / 2 &^ (volume.MacroCell - 1)),
		float64(b.Dz() / 2 &^ (volume.MacroCell - 1)),
	}
	// With Scale 1 and even W and H, plane points sit at half-integer
	// offsets from the camera center; shifting it by half a voxel lands
	// whole rows of rays on cell faces and edges.
	onFace := [3]float64{corner[0] + 0.5, corner[1] + 0.5, corner[2] + 0.5}
	cams := []namedCamera{
		{"+x axis, rays on faces", axisCamera(w, h,
			[3]float64{0, 1, 0}, [3]float64{0, 0, 1}, [3]float64{1, 0, 0}, onFace)},
		{"-y axis", axisCamera(w, h,
			[3]float64{1, 0, 0}, [3]float64{0, 0, 1}, [3]float64{0, -1, 0}, c)},
		{"+z axis, rays on faces", axisCamera(w, h,
			[3]float64{1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1}, onFace)},
		// 45° in the xz plane through cell edges: for the rays through
		// the corner lattice every x-face crossing coincides with a
		// z-face crossing.
		{"45deg xz through edges", axisCamera(w, h,
			[3]float64{s2, 0, -s2}, [3]float64{0, 1, 0}, [3]float64{s2, 0, s2}, onFace)},
		{"45deg xy through edges", axisCamera(w, h,
			[3]float64{s2, -s2, 0}, [3]float64{0, 0, 1}, [3]float64{s2, s2, 0}, onFace)},
		{"diagonal through corners", axisCamera(w, h,
			[3]float64{s2, -s2, 0},
			[3]float64{1 / math.Sqrt(6), 1 / math.Sqrt(6), -2 / math.Sqrt(6)},
			[3]float64{1 / math.Sqrt(3), 1 / math.Sqrt(3), 1 / math.Sqrt(3)}, corner)},
		// 90° rotations through NewCamera: Dir components come out as
		// ±1e-17 rather than zero — near-axis rays whose crossings on
		// the other axes lie far beyond the box.
		{"NewCamera 90deg", NewCamera(w, h, b, 90, 90*float64(rng.Intn(4)))},
	}
	for i := 0; i < 10; i++ {
		rx, ry := rng.Float64()*360, rng.Float64()*360
		cams = append(cams, namedCamera{fmt.Sprintf("rotation %.1f,%.1f", rx, ry), NewCamera(w, h, b, rx, ry)})
	}
	return cams
}

// TestRaycastSkipRulesProperty checks the empty-cell skip rules — the
// isolated crossing between two empty cells and the empty final cell —
// against the reference kernel bit for bit, over seeded random cameras
// and the regimes where a skip window is most likely to be off: rays
// along or at 45° to the macro-cell faces, fold boxes whose faces are
// not multiples of the cell size (P = 3, 5, 6), the 110-voxel z extent
// of the paper's engine (a partial last cell), non-unit steps, shading,
// the subvolume path and several worker counts.
func TestRaycastSkipRulesProperty(t *testing.T) {
	if volume.MacroCell != 8 {
		t.Skip("camera lattice assumes 8-voxel macro cells")
	}
	rng := rand.New(rand.NewSource(13))
	vols := []struct {
		name string
		vol  *volume.Volume
		tf   *transfer.Func
	}{
		{"engine_low", volume.EngineBlock(48, 40, 110), transfer.EngineLow()},
		{"engine_high", volume.EngineBlock(48, 40, 110), transfer.EngineHigh()},
		// Random boxes and stray voxels: material faces at arbitrary
		// offsets from the cell faces, so empty cells border non-empty
		// ones at every distance.
		{"random boxes", sharpVolume(rng, 40, 48, 110), transfer.Ramp("sharp", 60, 160, 0.4)},
	}
	iters := 0
	for _, vc := range vols {
		b := vc.vol.Bounds()
		boxes := []volume.Box{b}
		for _, p := range []int{3, 5, 6} {
			fp, err := partition.PlanFold(b, p)
			if err != nil {
				t.Fatal(err)
			}
			boxes = append(boxes, fp.Box(rng.Intn(p)))
		}
		for _, nc := range skipCameras(rng, b) {
			for _, box := range boxes {
				opt := Options{
					Step:    []float64{1, 1, 0.5, 1.5, 2}[rng.Intn(5)],
					Shaded:  rng.Intn(3) == 0,
					Workers: []int{1, 0}[rng.Intn(2)],
				}
				var s Sampler = vc.vol
				src := "volume"
				if rng.Intn(2) == 0 {
					sub, err := volume.Extract(vc.vol, box, 2)
					if err != nil {
						t.Fatal(err)
					}
					s, src = sub, "subvolume"
				}
				label := fmt.Sprintf("%s %s box=%v %s step=%g shaded=%v workers=%d",
					vc.name, nc.name, box, src, opt.Step, opt.Shaded, opt.Workers)
				want := RaycastReference(s, box, nc.cam, vc.tf, opt)
				requireIdentical(t, label, Raycast(s, box, nc.cam, vc.tf, opt), want)
				iters++
			}
		}
	}
	t.Logf("%d camera × box × option cases", iters)
}

// TestRaycastPresetsTakeFastLoop pins that every preset transfer
// function keeps both tables in [0, 1], so Volume and Subvolume
// rendering runs the straight-line loop rather than the interface path.
func TestRaycastPresetsTakeFastLoop(t *testing.T) {
	v := volume.Sphere(16, 16, 16, 0.5, 200)
	cam := NewCamera(8, 8, v.Bounds(), 0, 0)
	for _, name := range []string{"engine_low", "engine_high", "head", "cube"} {
		tf, err := transfer.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if k := newKernel(v, v.Bounds(), cam, tf, Options{}); k.vol == nil {
			t.Errorf("preset %s renders through the interface path", name)
		}
	}
}

// TestRaycastOutOfRangeTablesMatchReference covers transfer tables the
// straight-line loop must not take — negative opacity, intensity above
// one — which render through the interface path with the reference's
// per-sample zero-opacity test.
func TestRaycastOutOfRangeTablesMatchReference(t *testing.T) {
	v := volume.EngineBlock(40, 40, 24)
	tf := transfer.Ramp("odd", 40, 110, 0.3)
	for j := 0; j < 40; j++ {
		tf.Opacity[j] = -0.2 // reference: skipped, never composited
	}
	for j := 200; j < 256; j++ {
		tf.Intensity[j] = 3
	}
	cam := NewCamera(32, 32, v.Bounds(), 25, 40)
	if k := newKernel(v, v.Bounds(), cam, tf, Options{}); k.vol != nil {
		t.Fatal("out-of-range tables took the straight-line loop")
	}
	for _, opt := range []Options{{}, {Step: 0.5}, {Shaded: true}, {EarlyTermination: -1}} {
		want := RaycastReference(v, v.Bounds(), cam, tf, opt)
		requireIdentical(t, fmt.Sprintf("opts %+v", opt), Raycast(v, v.Bounds(), cam, tf, opt), want)
	}
}
