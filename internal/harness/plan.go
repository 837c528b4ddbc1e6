package harness

import (
	"fmt"
	"time"

	"sortlast/internal/autotune"
	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mesh"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/render"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
	"sortlast/internal/transfer"
	"sortlast/internal/volume"
)

// Plan is a Config resolved once: dataset volume, transfer function,
// compositor, decomposition and camera. It splits the one-shot setup
// from per-frame execution so a standing world (a resident rank pool
// serving many requests, as in internal/server) can amortize the setup
// across frames instead of paying it per render. A Plan is immutable
// after NewPlan and safe for concurrent use by all rank goroutines.
type Plan struct {
	Cfg  Config
	Vol  *volume.Volume
	TF   *transfer.Func
	Comp core.Compositor
	Dec  *partition.Decomposition
	// Lay is the rank geometry the world actually runs over: the
	// decomposition at power-of-two P, the fold plan otherwise. Box and
	// the sequential validation reference both read it.
	Lay partition.Layout
	Cam *render.Camera

	// Selector and Choice are set when the config requested Method
	// "auto": Choice is the per-frame selection decision (Cfg.Method
	// holds the resolved concrete method) and Selector is the stateful
	// tuner the run's measurements feed back into.
	Selector *autotune.Selector
	Choice   *autotune.Choice
}

// NewPlan resolves cfg into an executable per-frame plan. Method "auto"
// is resolved here, before the world starts, so every rank runs the
// same concrete compositor with no cross-rank coordination: the
// selector's stored features (previous frame) drive the choice, or a
// low-resolution pre-scan seeds them on the first frame.
func NewPlan(cfg Config) (*Plan, error) {
	vol, tf, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if q, err := NormalizeQuality(cfg.Quality); err != nil {
		return nil, err
	} else {
		cfg.Quality = q
	}
	if cfg.Quality == QualityApprox && !cfg.Surface && cfg.RenderOpts.EarlyTermination == 0 {
		// The approx contract's render-side knob: terminate rays earlier
		// than the 0.999 default. An explicit caller-set cutoff wins.
		cfg.RenderOpts.EarlyTermination = render.ApproxCutoff
	}
	var sel *autotune.Selector
	var choice *autotune.Choice
	if autotune.IsAuto(cfg.Method) {
		sel = cfg.Selector
		if sel == nil {
			sel = autotune.NewSelector(cfg.params(), autotune.TransportMP)
		}
		ch, ok, err := sel.ChooseForQuality(cfg.Width, cfg.Height, cfg.P, cfg.Quality)
		if err != nil {
			return nil, err
		}
		if !ok {
			f := autotune.Prescan(vol, tf, cfg.Width, cfg.Height, cfg.P, cfg.RotX, cfg.RotY)
			f.Quality = cfg.Quality
			sel.Seed(f)
			if ch, err = sel.Choose(f); err != nil {
				return nil, err
			}
		}
		cfg.Method = ch.Method
		choice = &ch
	}
	comp, dec, lay, err := cfg.newCompositor(vol)
	if err != nil {
		return nil, err
	}
	if !cfg.Surface {
		// Warm the volume's macro-cell grid during setup so the rank
		// goroutines never serialize on its sync.Once inside the first
		// frame (the grid is cached on the volume, shared across plans
		// through the dataset cache).
		vol.MacroCells()
	}
	return &Plan{
		Cfg: cfg, Vol: vol, TF: tf,
		Comp: comp, Dec: dec, Lay: lay,
		Cam:      render.NewCamera(cfg.Width, cfg.Height, vol.Bounds(), cfg.RotX, cfg.RotY),
		Selector: sel,
		Choice:   choice,
	}, nil
}

// ObserveFrame feeds one completed frame back into the plan's selector:
// the exact per-rank counters become the next frame's feature vector,
// and the measured compositing wall time (slowest rank, communication
// waits included) corrects the chosen method's EWMA factor. A no-op for
// fixed-method plans.
func (p *Plan) ObserveFrame(ranks []*stats.Rank, compositeWall time.Duration) {
	if p.Selector == nil || p.Choice == nil {
		return
	}
	p.Selector.UpdateFromStats(p.Cfg.Width, p.Cfg.Height, p.Cfg.P, p.Cfg.Method, ranks)
	p.Selector.Observe(p.Choice.Method, p.Choice.Features, compositeWall)
}

// Box returns the subvolume assigned to rank me (the fold plan's box for
// non-power-of-two worlds).
func (p *Plan) Box(me int) volume.Box { return p.Lay.Box(me) }

// RenderRank runs the rendering phase for rank me from the shared
// volume and returns its subimage. Callers that distributed subvolumes
// through the message layer use RenderRankFrom instead.
func (p *Plan) RenderRank(me int) *frame.Image {
	return p.renderFrom(p.Vol, me, nil, nil)
}

// RenderRankTraced is RenderRank recording a "render" span (with a
// nested "raycast" span on the volume path) on the rank's track.
func (p *Plan) RenderRankTraced(me int, tr *trace.Rank) *frame.Image {
	return p.renderFrom(p.Vol, me, tr, nil)
}

// RenderRankObserved is RenderRankTraced additionally accumulating the
// ray caster's work counters (rays, samples, macro-cell skips) into rs.
// rs may be shared across ranks and frames; nil collects nothing.
func (p *Plan) RenderRankObserved(me int, tr *trace.Rank, rs *render.Stats) *frame.Image {
	return p.renderFrom(p.Vol, me, tr, rs)
}

// RenderRankFrom renders rank me's subimage from src, which must cover
// the rank's box (plus ghost cells when shading).
func (p *Plan) RenderRankFrom(src volumeSource, me int) *frame.Image {
	return p.renderFrom(src, me, nil, nil)
}

func (p *Plan) renderFrom(src volumeSource, me int, tr *trace.Rank, rs *render.Stats) *frame.Image {
	m := tr.Begin()
	defer tr.End(m, trace.SpanRender, "")
	box := p.Lay.Box(me)
	if p.Cfg.Surface {
		iso := p.Cfg.IsoLevel
		if iso == 0 {
			iso = 128
		}
		surf := mesh.Extract(src, mesh.CellsFor(box, p.Vol.Bounds()), iso)
		return render.Rasterize(surf, p.Cam, p.Cfg.RasterOpts)
	}
	opts := p.Cfg.RenderOpts
	opts.Trace = tr
	opts.Stats = rs
	img := render.Raycast(src, box, p.Cam, p.TF, opts)
	if p.Cfg.Quality == QualityApprox {
		// The approx contract's encode-side knob: sub-threshold
		// accumulations vanish before the bounding scan, so every
		// compositor downstream ships smaller rectangles and fewer codes.
		img.DropBelow(ApproxDropAlpha)
	}
	return img
}

// ErrorBound is the worst-case per-pixel 8-bit error of this plan's
// output against a full-quality render of the same geometry: zero for
// full (and for preview, whose degradation is resolution rather than
// pixel values), the cutoff+drop bound of ApproxErrorBound for approx.
func (p *Plan) ErrorBound() float64 {
	if p.Cfg.Quality != QualityApprox || p.Cfg.Surface {
		return 0
	}
	return ApproxErrorBound(p.Cfg.P, p.Cfg.RenderOpts.Cutoff(), ApproxDropAlpha)
}

// CompositeRank runs the compositing phase for one rank over a standing
// communicator. Successive frames may be composited back to back on the
// same communicator without barriers: per-(source, tag) FIFO ordering
// keeps consecutive frames' messages correctly paired, the same
// guarantee consecutive collectives rely on.
//
// When a tracer is attached to c, the whole phase is recorded as a
// "compositing" span containing the compositor's per-stage spans.
func (p *Plan) CompositeRank(c mp.Comm, img *frame.Image) (*core.Result, error) {
	tr := c.Tracer()
	m := tr.Begin()
	res, err := p.Comp.Composite(c, p.Dec, p.Cam.Dir, img)
	tr.End(m, trace.SpanCompositing, "")
	return res, err
}

// GatherRank assembles the distributed final image at rank 0 from this
// rank's compositing result; non-root ranks receive nil. Comm spans
// issued during the gather are labeled with the "gather" stage so the
// reports can separate them from binary-swap exchange waits.
func (p *Plan) GatherRank(c mp.Comm, res *core.Result) (*frame.Image, error) {
	tr := c.Tracer()
	c.SetStage(trace.StageGather)
	m := tr.Begin()
	img, err := core.GatherImage(c, 0, res)
	tr.End(m, trace.SpanGather, trace.StageGather)
	c.SetStage("")
	return img, err
}

// Datasets lists the built-in workload names accepted by Config.Dataset.
func Datasets() []string {
	return []string{"engine_low", "engine_high", "head", "cube"}
}

// KnownDataset reports whether name is a built-in workload.
func KnownDataset(name string) bool {
	switch name {
	case "engine_low", "engine_high", "head", "cube":
		return true
	}
	return false
}

// MaxFramePixels caps the pixel count of one frame. Every rank may hold
// a full-frame working image (16 bytes a pixel) plus message buffers of
// similar size, so without a cap a single request could make each rank
// try to allocate without limit. 4096x4096 is 256 MB per full-frame
// image, far above any frame the paper or the benchmarks use.
const MaxFramePixels = 4096 * 4096

// Check validates a Config without generating volumes or building a
// world, so admission layers (the renderd server, CLI flag parsing) can
// reject bad requests up front with a precise error. (Named Check
// because Validate is the Config field enabling the sequential-reference
// comparison.)
func (cfg *Config) Check() error {
	if cfg.Volume == nil && !KnownDataset(cfg.Dataset) {
		return fmt.Errorf("harness: unknown dataset %q (have %v)", cfg.Dataset, Datasets())
	}
	if cfg.Volume != nil && cfg.TF == nil {
		if _, err := transfer.Preset(cfg.Dataset); err != nil {
			return fmt.Errorf("harness: no transfer function for volume: %w", err)
		}
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return fmt.Errorf("harness: image size %dx%d must be positive", cfg.Width, cfg.Height)
	}
	if cfg.Width > MaxFramePixels/cfg.Height {
		return fmt.Errorf("harness: image size %dx%d exceeds the %d-pixel frame limit",
			cfg.Width, cfg.Height, MaxFramePixels)
	}
	if _, err := NormalizeQuality(cfg.Quality); err != nil {
		return err
	}
	if cfg.P <= 0 {
		return fmt.Errorf("harness: P = %d must be positive", cfg.P)
	}
	if err := cfg.checkRotation(); err != nil {
		return err
	}
	// "auto" resolves at plan time to one of the selector's candidates,
	// all of which serve any rank count (fold or natively).
	if !autotune.IsAuto(cfg.Method) {
		if _, err := core.New(cfg.Method); err != nil {
			return err
		}
	}
	if !IsPow2(cfg.P) {
		if cfg.BalanceRender {
			return fmt.Errorf("harness: BalanceRender requires a power-of-two P, got %d", cfg.P)
		}
		if !autotune.IsAuto(cfg.Method) && !core.ServesAnyP(cfg.Method) {
			return &Pow2MethodError{Method: cfg.Method, P: cfg.P}
		}
	}
	return nil
}
