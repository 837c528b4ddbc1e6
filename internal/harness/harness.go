// Package harness drives the full sort-last pipeline for one experiment
// configuration — partitioning, parallel rendering, compositing, final
// gather — and reduces the per-rank counters to the row format of the
// paper's tables: modeled T_comp / T_comm / T_total (ms), the maximum
// received message size M_max, and the empty-rectangle counts of §3.2.
package harness

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"

	"sortlast/internal/autotune"
	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/mesh"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/tilecomp"
	"sortlast/internal/trace"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// volumeSource is what the rendering phase needs from volume data: both
// the full volume and a ghosted subvolume provide it.
type volumeSource interface {
	render.Sampler
	mesh.Source
}

// Config describes one experiment: dataset x method x P x image size x
// viewpoint, plus model parameters.
type Config struct {
	// Dataset is one of the paper's four workloads: engine_low,
	// engine_high, head, cube. Volume/TF override it when set.
	Dataset string
	Volume  *volume.Volume
	TF      *transfer.Func

	Width, Height int
	P             int
	// Method is a core registry name (bs, bsbr, bslc, bsbrc, ds, dfb,
	// ...) or "auto": the cost model picks the cheapest model-backed
	// method per frame from the frame's sparsity features (see
	// internal/autotune).
	Method string

	// RotX and RotY rotate the viewpoint (degrees), the paper's §3.2
	// rotation study.
	RotX, RotY float64

	// Quality is the frame's quality contract: QualityFull (or empty,
	// byte-identical to an unconstrained render), QualityApprox (raised
	// early-termination cutoff and sub-ApproxDropAlpha pixels dropped
	// before encode, error bounded by Plan.ErrorBound), or
	// QualityPreview. Preview is geometric: callers pass the reduced
	// PreviewDims as Width/Height themselves — the harness renders
	// exactly the geometry it is given.
	Quality string

	// Params are the cost-model constants; zero value means the SP2
	// preset.
	Params costmodel.Params

	// Selector carries adaptive-selection state across frames when
	// Method is "auto". nil means each run selects from a fresh
	// pre-scan; animations and serving tiers share one selector so the
	// previous frame's counters and EWMA corrections inform the next.
	Selector *autotune.Selector

	// RenderOpts tune the ray caster (zero value: defaults).
	RenderOpts render.Options

	// Surface switches the rendering phase from ray casting to the
	// surface path (paper §1): marching-tetrahedra isosurface extraction
	// at IsoLevel followed by z-buffered rasterization. Surface images
	// are opaque (alpha 1), so the same compositors apply unchanged.
	Surface    bool
	IsoLevel   uint8 // default 128
	RasterOpts render.RasterOptions

	// Granularity is BSLC's interleave section size (0: one scanline).
	Granularity int

	// Tile is the dfb tile edge in pixels (0: tilecomp.DefaultTile).
	Tile int

	// DistributeVolume exercises the partitioning phase: rank 0 extracts
	// subvolumes with ghost cells and scatters them, and each rank
	// renders only from its own subvolume. Off by default because the
	// in-process transport can share the immutable volume.
	DistributeVolume bool

	// BalanceRender splits the volume at estimated-work medians instead
	// of spatial midpoints (the paper's §5 rendering-phase load
	// balancing). Requires a power-of-two P.
	BalanceRender bool

	// Validate gathers the pristine subimages at rank 0 after
	// compositing and compares the parallel result against the
	// sequential depth-order reference, recording the difference in
	// Row.ValidateDiff and failing the run if it exceeds 1e-9.
	Validate bool

	// Trace, when set, records wall-clock spans for every phase of the
	// run — render, per-stage encode/composite, comm waits, gather — on
	// the recorder's per-rank tracks. nil (the default) disables tracing
	// at zero cost.
	Trace *trace.Recorder

	// Options for the message-passing world (zero value: defaults).
	WorldOpts mp.Options
}

// Row is one line of a paper-style table.
type Row struct {
	Dataset       string
	Method        string
	P             int
	Width, Height int

	CompMS  float64 // modeled T_comp, max over ranks
	CommMS  float64 // modeled T_comm, max over ranks
	TotalMS float64 // CompMS + CommMS (the paper's per-processor sum)

	// MakespanMS is the schedule-aware completion time: stage-k
	// compositing waits for the partner's message, so slow partners
	// stall pairs. Only computed for the binary-swap family.
	MakespanMS float64

	MeasuredCompMS float64 // measured compositing compute, max over ranks
	// WallMS is the measured compositing wall time including
	// communication waits, max over ranks — what a frame actually paid.
	WallMS   float64
	RenderMS float64 // measured rendering wall, max over ranks

	// RenderSkipFrac is the fraction of candidate ray samples the
	// macro-cell empty-space skipping removed, aggregated over ranks
	// (0 for surface runs).
	RenderSkipFrac float64

	MMax       int // maximum received message size (bytes)
	EmptyRects int // empty receiving bounding rectangles, all ranks
	NonBlank   int // non-blank pixels in the final image

	// ValidateDiff is the max per-channel difference from the sequential
	// reference when Config.Validate is set (else 0).
	ValidateDiff float64

	// Auto records that Method was chosen by the adaptive selector
	// (the config requested "auto").
	Auto bool
}

// datasetCache avoids regenerating the procedural volumes for every
// experiment; they are immutable once built.
var datasetCache sync.Map // map[string]*volume.Volume

func datasetVolume(name string) (*volume.Volume, error) {
	base := ""
	switch name {
	case "engine_low", "engine_high":
		base = volume.DatasetEngine
	case "head":
		base = volume.DatasetHead
	case "cube":
		base = volume.DatasetCube
	default:
		return nil, fmt.Errorf("harness: unknown dataset %q", name)
	}
	if v, ok := datasetCache.Load(base); ok {
		return v.(*volume.Volume), nil
	}
	v, err := volume.Generate(base)
	if err != nil {
		return nil, err
	}
	actual, _ := datasetCache.LoadOrStore(base, v)
	return actual.(*volume.Volume), nil
}

// Dataset resolves one of the paper's workload names to its (cached)
// volume and transfer function.
func Dataset(name string) (*volume.Volume, *transfer.Func, error) {
	v, err := datasetVolume(name)
	if err != nil {
		return nil, nil, err
	}
	tf, err := transfer.Preset(name)
	if err != nil {
		return nil, nil, err
	}
	return v, tf, nil
}

func (cfg *Config) resolve() (*volume.Volume, *transfer.Func, error) {
	vol, tf := cfg.Volume, cfg.TF
	if vol == nil {
		v, err := datasetVolume(cfg.Dataset)
		if err != nil {
			return nil, nil, err
		}
		vol = v
	}
	if tf == nil {
		f, err := transfer.Preset(cfg.Dataset)
		if err != nil {
			return nil, nil, err
		}
		tf = f
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, nil, fmt.Errorf("harness: image size %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Width > MaxFramePixels/cfg.Height {
		return nil, nil, fmt.Errorf("harness: image size %dx%d exceeds the %d-pixel frame limit",
			cfg.Width, cfg.Height, MaxFramePixels)
	}
	if cfg.P <= 0 {
		return nil, nil, fmt.Errorf("harness: P = %d", cfg.P)
	}
	if err := cfg.checkRotation(); err != nil {
		return nil, nil, err
	}
	return vol, tf, nil
}

// checkRotation rejects a non-finite view rotation. NaN or ±Inf degrees
// give the camera non-finite axes: no ray meets the volume and the
// frame would come back silently blank.
func (cfg *Config) checkRotation() error {
	for _, r := range []struct {
		name string
		deg  float64
	}{{"RotX", cfg.RotX}, {"RotY", cfg.RotY}} {
		if math.IsNaN(r.deg) || math.IsInf(r.deg, 0) {
			return fmt.Errorf("harness: rotation %s = %v must be finite", r.name, r.deg)
		}
	}
	return nil
}

func (cfg *Config) params() costmodel.Params {
	if cfg.Params == (costmodel.Params{}) {
		return costmodel.SP2()
	}
	return cfg.Params
}

// Pow2MethodError reports a method that cannot serve the requested
// non-power-of-two rank count. Admission layers (renderd) detect it with
// errors.As so the rejection can name the any-P alternatives.
type Pow2MethodError struct {
	Method string
	P      int
}

func (e *Pow2MethodError) Error() string {
	return fmt.Sprintf("harness: method %q requires a power-of-two P, got %d (any-P methods: %s)",
		e.Method, e.P, strings.Join(core.AnyPMethods(), ", "))
}

// newCompositor builds the configured compositor plus the rank geometry
// it runs over. At non-power-of-two P, foldable binary-swap methods wrap
// in the core.Folded pre-stage, while natively any-P methods (the
// tile-routed family) take the fold plan as pure geometry — per-rank
// boxes and a global depth order, no fold messages.
func (cfg *Config) newCompositor(vol *volume.Volume) (core.Compositor, *partition.Decomposition, partition.Layout, error) {
	bounds := vol.Bounds()
	inner, err := core.New(cfg.Method)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, _ := core.Lookup(cfg.Method)
	if b, ok := inner.(core.BSLC); ok {
		b.Granularity = cfg.Granularity
		inner = b
	}
	if b, ok := inner.(core.BSBRLC); ok {
		b.Granularity = cfg.Granularity
		inner = b
	}
	if b, ok := inner.(tilecomp.DFB); ok {
		b.Tile = cfg.Tile
		inner = b
	}
	if IsPow2(cfg.P) {
		var dec *partition.Decomposition
		if cfg.BalanceRender {
			dec, err = partition.DecomposeWeighted(bounds, cfg.P,
				volume.VoxelWork{Vol: vol, Threshold: 20})
		} else {
			dec, err = partition.Decompose(bounds, cfg.P)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		return inner, dec, dec, nil
	}
	if cfg.BalanceRender {
		return nil, nil, nil, fmt.Errorf("harness: BalanceRender requires a power-of-two P, got %d", cfg.P)
	}
	if !spec.Caps.ServesAnyP() {
		return nil, nil, nil, &Pow2MethodError{Method: cfg.Method, P: cfg.P}
	}
	plan, err := partition.PlanFold(bounds, cfg.P)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Caps.NativeAnyP {
		switch v := inner.(type) {
		case tilecomp.DS:
			v.Lay = plan
			inner = v
		case tilecomp.DFB:
			v.Lay = plan
			inner = v
		}
		return inner, plan.Dec, plan, nil
	}
	return &core.Folded{Plan: plan, Inner: inner}, plan.Dec, plan, nil
}

// Run executes the experiment and returns its table row.
func Run(cfg Config) (*Row, error) {
	row, _, _, err := run(cfg, false)
	return row, err
}

// RunWithImage executes the experiment and also returns the final image
// gathered at rank 0.
func RunWithImage(cfg Config) (*Row, *frame.Image, error) {
	row, img, _, err := run(cfg, true)
	return row, img, err
}

// RunDetailed additionally returns the per-rank counters, for timeline
// and stage-breakdown reporting.
func RunDetailed(cfg Config) (*Row, []*stats.Rank, error) {
	row, _, rs, err := run(cfg, false)
	return row, rs, err
}

// RunFull returns the row, the final image, and the per-rank counters —
// everything a traced run needs for the measured-vs-modeled report.
func RunFull(cfg Config) (*Row, *frame.Image, []*stats.Rank, error) {
	return run(cfg, true)
}

func run(cfg Config, wantImage bool) (*Row, *frame.Image, []*stats.Rank, error) {
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, nil, nil, err
	}

	rankStats := make([]*stats.Rank, cfg.P)
	renderStats := make([]render.Stats, cfg.P)
	renderWall := make([]time.Duration, cfg.P)
	compositeWall := make([]time.Duration, cfg.P)
	var final *frame.Image
	var validateDiff float64

	err = mp.Run(cfg.P, cfg.WorldOpts, func(c mp.Comm) error {
		me := c.Rank()
		c.SetTracer(cfg.Trace.Rank(me))

		var src volumeSource = plan.Vol
		if cfg.DistributeVolume {
			sub, err := distribute(c, plan.Vol, plan.Box, cfg.RenderOpts.Shaded)
			if err != nil {
				return err
			}
			src = sub
		}

		start := time.Now()
		img := plan.renderFrom(src, me, c.Tracer(), &renderStats[me])
		renderWall[me] = time.Since(start)

		var pristine *frame.Image
		if cfg.Validate {
			pristine = img.Clone()
		}

		if err := c.Barrier(); err != nil { // compositing starts together
			return err
		}
		cstart := time.Now()
		res, err := plan.CompositeRank(c, img)
		compositeWall[me] = time.Since(cstart)
		if err != nil {
			return err
		}
		rankStats[me] = res.Stats

		out, err := plan.GatherRank(c, res)
		if err != nil {
			return err
		}
		if me == 0 {
			final = out
		}
		if cfg.Validate {
			d, err := validateAgainstSequential(c, plan.Lay, plan.Cam.Dir, pristine, out)
			if err != nil {
				return err
			}
			if me == 0 {
				validateDiff = d
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	p := cfg.params()
	cost := p.World(rankStats)
	makespan := p.Makespan(rankStats)
	row := &Row{
		Dataset: cfg.Dataset, Method: plan.Comp.Name(), P: cfg.P,
		Width: cfg.Width, Height: cfg.Height,
		CompMS:         ms(cost.Comp),
		CommMS:         ms(cost.Comm),
		TotalMS:        ms(cost.Comp) + ms(cost.Comm),
		MeasuredCompMS: ms(stats.MaxCompWall(rankStats)),
		MakespanMS:     ms(makespan),
		MMax:           stats.MaxMessageBytes(rankStats),
	}
	var skipNum, skipDen int
	for me, r := range rankStats {
		if r != nil {
			row.EmptyRects += r.EmptyRecvRects()
			r.Render = renderCounters(renderStats[me].Snapshot())
			skipNum += r.Render.SamplesSkipped
			skipDen += r.Render.Samples + r.Render.SamplesSkipped
		}
	}
	if skipDen > 0 {
		row.RenderSkipFrac = float64(skipNum) / float64(skipDen)
	}
	var maxRender, maxComposite time.Duration
	for _, d := range renderWall {
		if d > maxRender {
			maxRender = d
		}
	}
	for _, d := range compositeWall {
		if d > maxComposite {
			maxComposite = d
		}
	}
	row.RenderMS = ms(maxRender)
	row.WallMS = ms(maxComposite)
	row.ValidateDiff = validateDiff
	row.Auto = plan.Choice != nil
	// Close the adaptive loop: this frame's counters and measured
	// compositing wall become the selector's inputs for the next frame.
	plan.ObserveFrame(rankStats, maxComposite)
	if final != nil {
		row.NonBlank = final.CountNonBlank(final.Full())
	}
	if !wantImage {
		final = nil
	}
	return row, final, rankStats, nil
}

// validateAgainstSequential gathers every rank's pristine subimage at
// rank 0, composites them sequentially in the layout's depth order, and
// compares with the parallel result. One reference path serves every
// method at every rank count: folded worlds and the tile-routed methods
// alike resolve to a partition.Layout.
func validateAgainstSequential(c mp.Comm, lay partition.Layout, viewDir [3]float64,
	pristine, final *frame.Image) (float64, error) {
	b := pristine.Bounds()
	payload := make([]byte, frame.RectBytes, frame.RectBytes+b.Area()*frame.PixelBytes)
	frame.PutRect(payload, b)
	payload = frame.EncodeRegion(pristine, b, payload)
	parts, err := c.Gather(0, payload)
	if err != nil {
		return 0, err
	}
	if c.Rank() != 0 {
		return 0, nil
	}
	imgs := make([]*frame.Image, len(parts))
	full := pristine.Full()
	for r, part := range parts {
		if len(part) < frame.RectBytes {
			return 0, fmt.Errorf("harness: validate: short subimage from rank %d", r)
		}
		rb := frame.GetRect(part)
		img := frame.NewImage(full.Dx(), full.Dy())
		if !rb.Empty() {
			if len(part) != frame.RectBytes+rb.Area()*frame.PixelBytes {
				return 0, fmt.Errorf("harness: validate: bad subimage size from rank %d", r)
			}
			img.StoreWire(rb, part[frame.RectBytes:])
		}
		imgs[r] = img
	}
	ref := core.CompositeSequentialLayout(imgs, lay, viewDir)
	d := ref.MaxAbsDiff(final, full)
	if d > 1e-9 {
		return d, fmt.Errorf("harness: parallel result differs from sequential reference by %g", d)
	}
	return d, nil
}

// distribute implements the partitioning phase: rank 0 extracts every
// rank's subvolume (with enough ghost cells for the render options) and
// scatters them; each rank deserializes its own.
func distribute(c mp.Comm, vol *volume.Volume, boxOf func(int) volume.Box,
	shaded bool) (*volume.Subvolume, error) {
	ghost := 1
	if shaded {
		ghost = 2
	}
	var payloads [][]byte
	if c.Rank() == 0 {
		payloads = make([][]byte, c.Size())
		for r := 0; r < c.Size(); r++ {
			sub, err := volume.Extract(vol, boxOf(r), ghost)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := sub.Serialize(&buf); err != nil {
				return nil, err
			}
			payloads[r] = buf.Bytes()
		}
	}
	mine, err := c.Scatter(0, payloads)
	if err != nil {
		return nil, err
	}
	return volume.ReadSubvolume(bytes.NewReader(mine))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// renderCounters converts the ray caster's snapshot into the stats
// package's plain-int form carried on stats.Rank.
func renderCounters(s render.StatsSnapshot) stats.Render {
	return stats.Render{
		Rays:           int(s.Rays),
		Samples:        int(s.Samples),
		SamplesSkipped: int(s.SamplesSkipped),
		CellsVisited:   int(s.CellsVisited),
		CellsSkipped:   int(s.CellsSkipped),
	}
}

// PowersOfTwo returns {2, 4, ..., max} — the paper's processor-count
// sweep.
func PowersOfTwo(max int) []int {
	var out []int
	for p := 2; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}

// IsPow2 reports whether p is a positive power of two.
func IsPow2(p int) bool { return p > 0 && bits.OnesCount(uint(p)) == 1 }
