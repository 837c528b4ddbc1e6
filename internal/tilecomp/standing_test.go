package tilecomp

import (
	"fmt"
	"math/rand"
	"testing"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
)

// standingCompositor builds the named method over a fold plan the way
// the harness does: tile-routed methods take the plan as their layout,
// binary-swap methods fold only when the plan has extra ranks.
func standingCompositor(t *testing.T, name string, plan *partition.FoldPlan) core.Compositor {
	t.Helper()
	switch name {
	case "ds":
		return DS{Lay: plan}
	case "dfb":
		return DFB{Lay: plan, Tile: 16}
	}
	inner, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Size() == plan.Core {
		return inner
	}
	return &core.Folded{Plan: plan, Inner: inner}
}

// Consecutive frames on one standing world run on message buffers that
// receivers recycled in earlier frames (and earlier stages). A payload
// recycled while something still aliased it — a parsed rle.Wire view, a
// gather part not yet stored — would be overwritten by a later message
// and corrupt the image. Every frame must equal the sequential
// compositor byte for byte; the binary-swap family associates the over
// operations differently, so it must instead equal its own one-shot
// result on a fresh world exactly and the sequential one within the
// suite's usual tolerance. Run under -race as well.
func TestStandingWorldRecycledBuffers(t *testing.T) {
	const w, h = 48, 40
	densities := []float64{0.08, 0.35, 1, 0.2}
	order := []int{0, 1, 2, 3, 0, 2, 1}
	for _, p := range []int{3, 8} {
		plan, err := partition.PlanFold(testRoot(), p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(31 * p)))
		imgs := make([][]*frame.Image, len(densities))
		dirs := make([][3]float64, len(densities))
		for f, d := range densities {
			imgs[f] = make([]*frame.Image, p)
			for r := range imgs[f] {
				imgs[f][r] = randImage(rng, w, h, d)
			}
			dirs[f] = [3]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, 0.1 + rng.Float64()}
		}
		for _, name := range []string{"bs", "bsbr", "bslc", "bsbrc", "ds", "dfb"} {
			comp := standingCompositor(t, name, plan)
			got := make([]*frame.Image, len(order))
			err := mp.Run(p, testOpts(), func(c mp.Comm) error {
				var work frame.Image
				for k, f := range order {
					work.CopyFrom(imgs[f][c.Rank()])
					res, err := comp.Composite(c, plan.Dec, dirs[f], &work)
					if err != nil {
						return fmt.Errorf("frame %d: %w", k, err)
					}
					out, err := core.GatherImage(c, 0, res)
					if err != nil {
						return fmt.Errorf("frame %d gather: %w", k, err)
					}
					if c.Rank() == 0 {
						got[k] = out
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			for k, f := range order {
				label := fmt.Sprintf("%s P=%d frame %d (scene %d)", name, p, k, f)
				ref := core.CompositeSequentialLayout(imgs[f], plan, dirs[f])
				if name == "ds" || name == "dfb" {
					requireIdentical(t, label, got[k], ref)
					continue
				}
				if d := ref.MaxAbsDiff(got[k], ref.Full()); d > 1e-11 {
					t.Fatalf("%s: differs from sequential by %g", label, d)
				}
				clones := make([]*frame.Image, p)
				for r := range clones {
					clones[r] = imgs[f][r].Clone()
				}
				requireIdentical(t, label+" vs one-shot",
					got[k], runFold(t, comp, plan, dirs[f], clones))
			}
		}
	}
}

// runFold composites imgs once on a fresh world over the plan's
// decomposition and returns the image gathered at rank 0.
func runFold(t *testing.T, comp core.Compositor, plan *partition.FoldPlan, viewDir [3]float64,
	imgs []*frame.Image) *frame.Image {
	t.Helper()
	var final *frame.Image
	err := mp.Run(plan.Size(), testOpts(), func(c mp.Comm) error {
		res, err := comp.Composite(c, plan.Dec, viewDir, imgs[c.Rank()])
		if err != nil {
			return err
		}
		out, err := core.GatherImage(c, 0, res)
		if c.Rank() == 0 {
			final = out
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s one-shot: %v", comp.Name(), err)
	}
	return final
}
