package frame

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkBlankOutside fails when a stored pixel outside the logical bounds
// is not blank. Grow's reuse of over-allocated storage and CopyFrom's
// dirty-only clearing both rely on this invariant.
func checkBlankOutside(t *testing.T, im *Image, step string) {
	t.Helper()
	if len(im.pix) != im.store.Area() || !im.store.ContainsRect(im.bounds) {
		t.Fatalf("%s: store %v (%d pixels) does not back bounds %v",
			step, im.store, len(im.pix), im.bounds)
	}
	for y := im.store.Y0; y < im.store.Y1; y++ {
		for x := im.store.X0; x < im.store.X1; x++ {
			if !im.bounds.Contains(x, y) && !im.pix[im.index(x, y)].Blank() {
				t.Fatalf("%s: stored pixel (%d,%d) outside bounds %v is %v",
					step, x, y, im.bounds, im.pix[im.index(x, y)])
			}
		}
	}
}

// randRect returns a random rectangle inside full, empty one time in ten.
func randRect(r *rand.Rand, full Rect) Rect {
	if r.Intn(10) == 0 {
		return ZR
	}
	x0, y0 := r.Intn(full.Dx()), r.Intn(full.Dy())
	return Rect{x0, y0, x0 + 1 + r.Intn(full.Dx()-x0), y0 + 1 + r.Intn(full.Dy()-y0)}
}

// sparsePixel returns a random pixel with probability density, else a
// blank one.
func sparsePixel(r *rand.Rand, density float64) Pixel {
	if r.Float64() >= density {
		return Pixel{}
	}
	return randPixel(r)
}

// randWire returns region.Area() wire-format pixels, some blank.
func randWire(r *rand.Rand, region Rect) []byte {
	buf := make([]byte, region.Area()*PixelBytes)
	for i := 0; i < region.Area(); i++ {
		PutPixel(buf[i*PixelBytes:], sparsePixel(r, 0.6))
	}
	return buf
}

// randSource returns a w x h image with random content in a random
// sub-rectangle.
func randSource(r *rand.Rand, w, h int) *Image {
	im := NewImage(w, h)
	b := randRect(r, im.Full())
	for y := b.Y0; y < b.Y1; y++ {
		for x := b.X0; x < b.X1; x++ {
			if p := sparsePixel(r, 0.5); !p.Blank() {
				im.Set(x, y, p)
			}
		}
	}
	return im
}

// Random sequences of every operation that writes pixel storage must
// keep storage outside the logical bounds blank after each step, and
// CopyFrom must always yield an exact logical copy of its source.
func TestStorageOutsideBoundsStaysBlank(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for seq := 0; seq < 150; seq++ {
		im := NewImage(40, 30)
		for step := 0; step < 40; step++ {
			full := im.Full()
			var name string
			switch op := r.Intn(7); op {
			case 0:
				g := randRect(r, full)
				im.Grow(g)
				name = fmt.Sprintf("Grow(%v)", g)
			case 1:
				g := randRect(r, full)
				im.GrowExact(g)
				name = fmt.Sprintf("GrowExact(%v)", g)
			case 2:
				// Mostly the same frame; sometimes a different one.
				w, h := full.Dx(), full.Dy()
				if r.Intn(8) == 0 {
					w, h = 20+r.Intn(30), 15+r.Intn(25)
				}
				src := randSource(r, w, h)
				im.CopyFrom(src)
				name = fmt.Sprintf("CopyFrom(bounds %v of %dx%d)", src.Bounds(), w, h)
				if im.Bounds() != src.Bounds() || im.Full() != src.Full() {
					t.Fatalf("seq %d step %d %s: got bounds %v full %v", seq, step, name,
						im.Bounds(), im.Full())
				}
				if d := im.MaxAbsDiff(src, src.Full()); d != 0 {
					t.Fatalf("seq %d step %d %s: copy differs by %g", seq, step, name, d)
				}
			case 3:
				g := randRect(r, full)
				im.StoreWire(g, randWire(r, g))
				name = fmt.Sprintf("StoreWire(%v)", g)
			case 4:
				g := randRect(r, full)
				im.CompositeWire(g, randWire(r, g), r.Intn(2) == 0)
				name = fmt.Sprintf("CompositeWire(%v)", g)
			case 5:
				tau := r.Float64()
				im.DropBelow(tau)
				name = fmt.Sprintf("DropBelow(%.2f)", tau)
			case 6:
				x, y := r.Intn(full.Dx()), r.Intn(full.Dy())
				im.Set(x, y, randPixel(r))
				name = fmt.Sprintf("Set(%d,%d)", x, y)
			}
			checkBlankOutside(t, im, fmt.Sprintf("seq %d step %d %s", seq, step, name))
		}
	}
}
