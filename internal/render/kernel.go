package render

import (
	"math"

	"sortlast/internal/frame"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// skipSafety is the margin, in world units (voxels), by which a sample
// must clear a macro-cell boundary before the cell's classification may
// skip it. Samples inside the margin are evaluated normally —
// evaluating extra samples is always sound, only skipping needs proof —
// so the margin only has to dominate the ~1e-9 accumulated float error
// of the DDA's boundary parameters, which a quarter voxel does with
// eight orders of magnitude to spare. The one exception is a crossing
// between two empty cells that each span at least 2·skipSafety: every
// margin sample there lies in one of the two, so it is skipped too.
const skipSafety = 0.25

// kernel is one Raycast invocation's precomputed state: transfer tables
// and their derived skip/correction tables, the concrete-type sampling
// fast path, and the volume's macro-cell grid. Building it costs
// microseconds (plus the once-per-volume grid build, amortized by the
// cache on the volume) and removes the reference kernel's per-sample
// math.Pow, interface dispatch and box.Contains. Every shortcut is
// bit-exact — the identity argument lives in DESIGN.md §11 and is
// enforced against RaycastReference by tests and cmd/renderbench.
type kernel struct {
	box volume.Box
	cam *Camera
	s   Sampler
	tf  *transfer.Func

	dt      float64
	dtIsOne bool
	cutoff  float64
	shaded  bool
	light   [3]float64
	ambient float64

	// Concrete fast path; vol == nil falls back to the Sampler interface.
	vol        *volume.Volume
	data       []uint8
	nx, ny, nz int
	sub        bool       // s is a *volume.Subvolume
	subLo      [3]float64 // float64(Subvolume.Box.Lo[a])
	subGhost   float64    // float64(Subvolume.Ghost)

	grid    *volume.MacroGrid
	gridOrg [3]float64 // world position of the backing grid's voxel (0,0,0)

	opac, inten *[256]float64
	corr        [256]float64 // 1 − (1−Opacity[j])^dt; exact where the table is flat
	flat        [256]bool    // Opacity[j] == Opacity[j+1]
	nzBelow     [257]int32   // count of non-zero Opacity entries with index < j
}

func newKernel(s Sampler, box volume.Box, cam *Camera, tf *transfer.Func, opt Options) *kernel {
	k := &kernel{
		box: box, cam: cam, s: s, tf: tf,
		dt:      opt.step(),
		cutoff:  opt.cutoff(),
		shaded:  opt.Shaded,
		light:   opt.Light,
		ambient: opt.ambient(),
		opac:    &tf.Opacity,
		inten:   &tf.Intensity,
	}
	k.dtIsOne = k.dt == 1
	if k.light == ([3]float64{}) {
		k.light = [3]float64{-cam.Dir[0], -cam.Dir[1], -cam.Dir[2]}
	}
	switch src := s.(type) {
	case *volume.Volume:
		k.vol = src
		k.grid = src.MacroCells()
		// gridOrg stays (0,0,0): world == voxel coordinates.
	case *volume.Subvolume:
		inner, lo, ghost := src.Inner()
		k.vol = inner
		k.sub = true
		k.subLo = [3]float64{float64(lo[0]), float64(lo[1]), float64(lo[2])}
		k.subGhost = float64(ghost)
		k.grid = src.MacroCells()
		k.gridOrg = [3]float64{
			float64(lo[0] - ghost), float64(lo[1] - ghost), float64(lo[2] - ghost),
		}
	}
	if k.vol != nil && !unitTables(tf) {
		// The fast loop's zero-opacity argument (runFast) needs both
		// tables inside [0, 1], as transfer.Func documents; any other
		// table samples through the interface, which keeps the
		// reference's per-sample zero test. The grid stays: a skip is
		// sound for any table.
		k.vol = nil
	}
	if k.vol != nil {
		k.data = k.vol.Data
		k.nx, k.ny, k.nz = k.vol.NX, k.vol.NY, k.vol.NZ
	}
	var nz int32
	for j := 0; j < 256; j++ {
		k.nzBelow[j] = nz
		if tf.Opacity[j] != 0 {
			nz++
		}
		if k.dtIsOne {
			// math.Pow(x, 1) returns x exactly, so the correction
			// reduces to 1−(1−op) — which is NOT op in floats.
			k.corr[j] = 1 - (1 - tf.Opacity[j])
		} else {
			k.corr[j] = 1 - math.Pow(1-tf.Opacity[j], k.dt)
		}
		if j < 255 {
			k.flat[j] = tf.Opacity[j] == tf.Opacity[j+1]
		}
	}
	k.nzBelow[256] = nz
	return k
}

// cellEmpty reports whether every sample inside macro cell (cx, cy, cz)
// provably classifies to zero opacity. Trilinear values over the cell's
// support lie in [Min, Max]/255 (the grid expanded the support by one
// voxel per side); the classification's table index can stray one entry
// past that range through last-ulp rounding of v*255, so the zero test
// covers [Min−1, Max+1].
func (k *kernel) cellEmpty(cx, cy, cz int) bool {
	mn, mx, ok := k.grid.Range(cx, cy, cz)
	if !ok {
		return false // outside the summary: never skip
	}
	lo, hi := int(mn)-1, int(mx)+1
	if lo < 0 {
		lo = 0
	}
	if hi > 255 {
		hi = 255
	}
	return k.nzBelow[hi+1] == k.nzBelow[lo]
}

// contains tests sample index kk's world position against the box,
// with arithmetic identical to the reference kernel's.
func (k *kernel) contains(origin [3]float64, kk int) bool {
	t := (float64(kk) + 0.5) * k.dt
	return k.box.Contains(
		origin[0]+t*k.cam.Dir[0],
		origin[1]+t*k.cam.Dir[1],
		origin[2]+t*k.cam.Dir[2])
}

// castRay casts the ray through pixel (px, py) and returns the
// accumulated pixel, bit-identical to the reference kernel's.
func (k *kernel) castRay(px, py int, st *tileStats) frame.Pixel {
	var acc frame.Pixel
	origin := k.cam.PlanePoint(px, py)
	tMin, tMax, ok := k.cam.rayBox(origin, k.box)
	if !ok {
		return acc
	}
	kLo := int(math.Floor(tMin/k.dt - 0.5))
	kHi := int(math.Ceil(tMax/k.dt - 0.5))

	// The per-axis sample position origin[a] + t·Dir[a] is monotone in
	// the sample index (IEEE rounding preserves order, each axis's
	// direction sign is fixed), so per axis the in-slab indices form an
	// interval and their three-way intersection — the in-box indices —
	// is one contiguous interval [kA, kB]. Membership is decided by
	// scanning in from the ends; the interior never pays the reference
	// kernel's per-sample box.Contains.
	kA := kLo
	for ; kA <= kHi; kA++ {
		if k.contains(origin, kA) {
			break
		}
	}
	if kA > kHi {
		return acc
	}
	kB := kHi
	for ; kB > kA; kB-- {
		if k.contains(origin, kB) {
			break
		}
	}
	st.rays++

	if k.grid == nil {
		k.processRun(origin, kA, kB, &acc, st)
		return acc
	}
	k.traverse(origin, kA, kB, &acc, st)
	return acc
}

// traverse walks the macro-cell grid along the ray with a 3D-DDA over
// the sample interval [kA, kB]. Cells that classify to zero opacity
// have their interior samples skipped wholesale; samples within
// skipSafety of a cell boundary, and every sample of a non-empty cell,
// are evaluated exactly as the reference kernel would — except at an
// isolated crossing between two empty cells, whose margin samples all
// lie in one of the two and are skipped too. The kNext cursor is
// monotone, so no sample is evaluated twice.
func (k *kernel) traverse(origin [3]float64, kA, kB int, acc *frame.Pixel, st *tileStats) {
	d := k.cam.Dir
	tA := (float64(kA) + 0.5) * k.dt
	tB := (float64(kB) + 0.5) * k.dt

	// Cell holding the first sample, and per-axis DDA state: tNext[a]
	// is the ray parameter of the next cell boundary crossing on axis
	// a, tDelta[a] the parameter distance between crossings.
	var c [3]int
	var tNext, tDelta [3]float64
	var step [3]int
	for a := 0; a < 3; a++ {
		p := origin[a] + tA*d[a]
		c[a] = int(math.Floor((p - k.gridOrg[a]) / volume.MacroCell))
		switch {
		case d[a] > 0:
			step[a] = 1
			tDelta[a] = volume.MacroCell / d[a]
			bound := k.gridOrg[a] + float64((c[a]+1)*volume.MacroCell)
			tNext[a] = tA + (bound-p)/d[a]
		case d[a] < 0:
			step[a] = -1
			tDelta[a] = -volume.MacroCell / d[a]
			bound := k.gridOrg[a] + float64(c[a]*volume.MacroCell)
			tNext[a] = tA + (bound-p)/d[a]
		default:
			tNext[a] = math.Inf(1)
			tDelta[a] = math.Inf(1)
		}
	}

	kNext := kA  // first sample neither evaluated nor skipped yet
	tEnter := tA // parameter at which the DDA entered the current cell
	// prevLong: the previous cell was empty and its DDA interval spans
	// at least 2·skipSafety, so no other boundary lies within the margin
	// before the current cell's entry.
	prevLong := false
	for kNext <= kB {
		tExit := tNext[0]
		if tNext[1] < tExit {
			tExit = tNext[1]
		}
		if tNext[2] < tExit {
			tExit = tNext[2]
		}
		last := tExit >= tB // final cell the sample interval reaches
		st.cellsVisited++
		if k.cellEmpty(c[0], c[1], c[2]) {
			st.cellsSkipped++
			long := tExit-tEnter >= 2*skipSafety
			// Indices whose parameters clear both boundaries by the
			// safety margin are provably transparent; stragglers below
			// the window (this cell's entry zone plus any boundary
			// samples earlier cells left behind) are evaluated — unless
			// the crossing is isolated between two empty cells: then
			// every sample from the cursor on lies in the previous cell
			// or this one, and the window opens at the cursor.
			kSkipLo := kNext
			if !(prevLong && long) {
				kSkipLo = int(math.Ceil((tEnter+skipSafety)/k.dt - 0.5))
			}
			kSkipHi := int(math.Floor((tExit-skipSafety)/k.dt - 0.5))
			if kSkipHi > kB {
				kSkipHi = kB
			}
			if kSkipLo > kNext {
				hi := min(kSkipLo-1, kB)
				if k.processRun(origin, kNext, hi, acc, st) {
					return
				}
				kNext = hi + 1
			}
			if kSkipHi >= kNext {
				st.samplesSkipped += int64(kSkipHi - kNext + 1)
				kNext = kSkipHi + 1
			}
			prevLong = long
		} else {
			prevLong = false
			kCellHi := min(int(math.Floor(tExit/k.dt-0.5)), kB)
			if kCellHi >= kNext {
				if k.processRun(origin, kNext, kCellHi, acc, st) {
					return
				}
				kNext = kCellHi + 1
			}
		}
		if last {
			// Whatever the final cell left — its exit margin, if the
			// interval reaches into it — is evaluated; that bounds the
			// loop without stepping past the interval.
			k.processRun(origin, kNext, kB, acc, st)
			return
		}
		// Step across the nearest boundary into the neighboring cell.
		ax := 0
		if tNext[1] < tNext[ax] {
			ax = 1
		}
		if tNext[2] < tNext[ax] {
			ax = 2
		}
		tEnter = tNext[ax]
		c[ax] += step[ax]
		tNext[ax] += tDelta[ax]
	}
}

// processRun evaluates sample indices k0..k1 exactly as the reference
// kernel does and reports whether the ray hit the early-termination
// cutoff. Positions stay closed-form ((k+0.5)·dt from the plane point,
// never incrementally accumulated) so they are bit-identical to the
// reference kernel's.
func (k *kernel) processRun(origin [3]float64, k0, k1 int, acc *frame.Pixel, st *tileStats) bool {
	if k1 < k0 {
		return false
	}
	if k.vol != nil {
		return k.runFast(origin, k0, k1, acc, st)
	}
	d := k.cam.Dir
	for kk := k0; kk <= k1; kk++ {
		t := (float64(kk) + 0.5) * k.dt
		if k.accumulateGeneric(origin[0]+t*d[0], origin[1]+t*d[1], origin[2]+t*d[2], acc) {
			st.samples += int64(kk - k0 + 1)
			return true
		}
	}
	st.samples += int64(k1 - k0 + 1)
	return false
}

// runFast is processRun's straight-line loop for the concrete samplers:
// the subvolume mapping, trilinear sample, classification, opacity
// correction and composite of every sample, inlined, with the
// loop-invariant choices (subvolume, shading, dt == 1) hoisted into
// predictable branches. Each step reproduces the reference arithmetic
// bit for bit (DESIGN.md §11):
//
//   - subvolume coordinates map with the same two rounded operations,
//     in the same order, as Subvolume.Sample;
//   - a non-negative coordinate truncates with int(), which equals
//     math.Floor there; negative ones (only at the lower volume edge)
//     still call math.Floor, and the At fallback serves the boundary;
//   - the transfer lookup inlines transfer.Func.Classify. Its v <= 0
//     case needs no branch: values are non-negative, and at v == 0 the
//     general lerp (i = 0, t = 0) returns Opacity[0] and Intensity[0];
//   - for dt == 1, math.Pow(x, 1) == x collapses the correction to
//     1−(1−op); otherwise, where the opacity table is flat across the
//     interpolation span, the lerp returns the table entry exactly and
//     the precomputed corr[i] applies, and only a varying entry still
//     pays math.Pow;
//   - unshaded, a zero-opacity sample is composited instead of skipped:
//     its correction is exactly 0 (1−(1−0) and 1−Pow(1, dt) both are),
//     so w = 0 and I and A keep their bits (newKernel routes tables
//     outside [0, 1], where that could fail, to the generic path). The
//     termination test then repeats a result already false. Shaded,
//     the skip stays, so transparent samples never pay for a gradient.
func (k *kernel) runFast(origin [3]float64, k0, k1 int, acc *frame.Pixel, st *tileStats) bool {
	ox, oy, oz := origin[0], origin[1], origin[2]
	dx, dy, dz := k.cam.Dir[0], k.cam.Dir[1], k.cam.Dir[2]
	dt := k.dt
	sub, shaded, dtIsOne := k.sub, k.shaded, k.dtIsOne
	lo, g := k.subLo, k.subGhost
	data := k.data
	nx, ny, nz := k.nx, k.ny, k.nz
	nxy := nx * ny
	opac, inten := k.opac, k.inten
	cutoff := k.cutoff
	accI, accA := acc.I, acc.A

	for kk := k0; kk <= k1; kk++ {
		t := (float64(kk) + 0.5) * dt
		lx := ox + t*dx
		ly := oy + t*dy
		lz := oz + t*dz
		if sub {
			lx = lx - lo[0] + g
			ly = ly - lo[1] + g
			lz = lz - lo[2] + g
		}

		// Trilinear sample: sampleLocal, inlined by hand.
		x, y, z := lx-0.5, ly-0.5, lz-0.5
		x0, y0, z0 := int(x), int(y), int(z)
		if x < 0 {
			x0 = int(math.Floor(x))
		}
		if y < 0 {
			y0 = int(math.Floor(y))
		}
		if z < 0 {
			z0 = int(math.Floor(z))
		}
		fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
		var c000, c100, c010, c110, c001, c101, c011, c111 float64
		if uint(x0) < uint(nx-1) && uint(y0) < uint(ny-1) && uint(z0) < uint(nz-1) {
			base := (z0*ny+y0)*nx + x0
			c000 = float64(data[base])
			c100 = float64(data[base+1])
			c010 = float64(data[base+nx])
			c110 = float64(data[base+nx+1])
			c001 = float64(data[base+nxy])
			c101 = float64(data[base+nxy+1])
			c011 = float64(data[base+nxy+nx])
			c111 = float64(data[base+nxy+nx+1])
		} else {
			c000, c100, c010, c110, c001, c101, c011, c111 = k.cornersAt(x0, y0, z0)
		}
		v := trilerp(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz)

		// Classification and opacity correction.
		var op, in, a float64
		if v < 1 {
			xf := v * 255
			i := int(xf)
			ti := xf - float64(i)
			o0 := opac[i]
			op = o0 + ti*(opac[i+1]-o0)
			in0 := inten[i]
			in = in0 + ti*(inten[i+1]-in0)
			switch {
			case dtIsOne:
				a = 1 - (1 - op)
			case k.flat[i]:
				a = k.corr[i]
			default:
				a = 1 - math.Pow(1-op, dt)
			}
		} else {
			op, in, a = opac[255], inten[255], k.corr[255]
		}
		if shaded {
			if op <= 0 {
				continue
			}
			in *= k.shadeLocal(lx, ly, lz)
		}

		w := (1 - accA) * a
		accI += w * in
		accA += w
		if accA >= cutoff {
			acc.I, acc.A = accI, accA
			st.samples += int64(kk - k0 + 1)
			return true
		}
	}
	acc.I, acc.A = accI, accA
	st.samples += int64(k1 - k0 + 1)
	return false
}

// accumulateGeneric is the Sampler-interface fallback for custom
// sampler implementations; same structure, no table shortcuts beyond
// the dt == 1 Pow elision (which is sampler-independent).
func (k *kernel) accumulateGeneric(x, y, z float64, acc *frame.Pixel) bool {
	v := k.s.Sample(x, y, z)
	op, in := k.tf.Classify(v)
	if op <= 0 {
		return false
	}
	if k.shaded {
		in *= shade(k.s, x, y, z, k.light, k.ambient)
	}
	var a float64
	if k.dtIsOne {
		a = 1 - (1 - op)
	} else {
		a = 1 - math.Pow(1-op, k.dt)
	}
	w := (1 - acc.A) * a
	acc.I += w * in
	acc.A += w
	return acc.A >= k.cutoff
}

// sampleLocal reproduces volume.Volume.Sample bit for bit: direct
// strided loads in the interior, an At-based fallback at the boundary
// (where the reference zero-extends), and the identical lerp chain.
// runFast carries the same code inlined by hand.
func (k *kernel) sampleLocal(lx, ly, lz float64) float64 {
	x, y, z := lx-0.5, ly-0.5, lz-0.5
	x0, y0, z0 := int(x), int(y), int(z)
	if x < 0 {
		x0 = int(math.Floor(x))
	}
	if y < 0 {
		y0 = int(math.Floor(y))
	}
	if z < 0 {
		z0 = int(math.Floor(z))
	}
	fx, fy, fz := x-float64(x0), y-float64(y0), z-float64(z0)
	nx, ny, nz := k.nx, k.ny, k.nz
	var c000, c100, c010, c110, c001, c101, c011, c111 float64
	if uint(x0) < uint(nx-1) && uint(y0) < uint(ny-1) && uint(z0) < uint(nz-1) {
		data, nxy := k.data, nx*ny
		base := (z0*ny+y0)*nx + x0
		c000 = float64(data[base])
		c100 = float64(data[base+1])
		c010 = float64(data[base+nx])
		c110 = float64(data[base+nx+1])
		c001 = float64(data[base+nxy])
		c101 = float64(data[base+nxy+1])
		c011 = float64(data[base+nxy+nx])
		c111 = float64(data[base+nxy+nx+1])
	} else {
		c000, c100, c010, c110, c001, c101, c011, c111 = k.cornersAt(x0, y0, z0)
	}
	return trilerp(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz)
}

// cornersAt loads the eight voxels around (x0, y0, z0) through
// Volume.At, which zero-extends outside the volume — the boundary case
// of the trilinear sample.
func (k *kernel) cornersAt(x0, y0, z0 int) (c000, c100, c010, c110, c001, c101, c011, c111 float64) {
	v := k.vol
	return float64(v.At(x0, y0, z0)), float64(v.At(x0+1, y0, z0)),
		float64(v.At(x0, y0+1, z0)), float64(v.At(x0+1, y0+1, z0)),
		float64(v.At(x0, y0, z0+1)), float64(v.At(x0+1, y0, z0+1)),
		float64(v.At(x0, y0+1, z0+1)), float64(v.At(x0+1, y0+1, z0+1))
}

// trilerp is volume.Volume.Sample's lerp chain and normalization,
// operation for operation.
func trilerp(c000, c100, c010, c110, c001, c101, c011, c111, fx, fy, fz float64) float64 {
	c00 := c000 + fx*(c100-c000)
	c10 := c010 + fx*(c110-c010)
	c01 := c001 + fx*(c101-c001)
	c11 := c011 + fx*(c111-c011)
	c0 := c00 + fy*(c10-c00)
	c1 := c01 + fy*(c11-c01)
	return (c0 + fz*(c1-c0)) / 255
}

// shadeLocal reproduces shade() over the concrete path. The gradient is
// taken in already-mapped local coordinates — matching Subvolume.
// Gradient, which maps the position once and then offsets by ±h locally
// (mapping each offset position separately would round differently).
func (k *kernel) shadeLocal(lx, ly, lz float64) float64 {
	const h = 1.0
	gx := (k.sampleLocal(lx+h, ly, lz) - k.sampleLocal(lx-h, ly, lz)) / (2 * h)
	gy := (k.sampleLocal(lx, ly+h, lz) - k.sampleLocal(lx, ly-h, lz)) / (2 * h)
	gz := (k.sampleLocal(lx, ly, lz+h) - k.sampleLocal(lx, ly, lz-h)) / (2 * h)
	n := math.Sqrt(gx*gx + gy*gy + gz*gz)
	if n < 1e-9 {
		return 1 // flat region: unshaded
	}
	d := -(gx*k.light[0] + gy*k.light[1] + gz*k.light[2]) / n
	if d < 0 {
		d = 0
	}
	return k.ambient + (1-k.ambient)*d
}

// unitTables reports whether every opacity and intensity entry of tf
// lies in [0, 1] (NaN does not).
func unitTables(tf *transfer.Func) bool {
	for j := 0; j < 256; j++ {
		if !(tf.Opacity[j] >= 0 && tf.Opacity[j] <= 1 && tf.Intensity[j] >= 0 && tf.Intensity[j] <= 1) {
			return false
		}
	}
	return true
}
