package sortlast

import (
	"runtime"
	"testing"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
)

// compositeGatherRound is one frame on a standing world: restore the
// rank's rendered subimage into its working image, composite, and gather
// the final image at rank 0 (returned there, nil elsewhere).
func compositeGatherRound(c mp.Comm, env *benchEnv, comp core.Compositor, work *frame.Image) (*frame.Image, error) {
	work.CopyFrom(env.imgs[c.Rank()])
	res, err := comp.Composite(c, env.dec, env.cam.Dir, work)
	if err != nil {
		return nil, err
	}
	return core.GatherImage(c, 0, res)
}

// roundSlackBytes is what a steady-state round may allocate beyond the
// final image: per-rank stats and results, ownership descriptors and
// small messages (about 12 KB), plus the occasional re-warming of pooled
// scratch after a garbage collection — nothing that scales with the
// number of rounds.
const roundSlackBytes = 256 << 10

// A steady-state compositing round allocates little beyond the final
// image: working images keep their storage, outgoing payloads are built
// in pooled scratch, message copies come from recycled buffers, and the
// gather sizes its image once.
func TestCompositeRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation")
	}
	const size, warm, rounds = 384, 5, 30
	env := getEnv(t, "engine_high", size, 8, paperRotX, paperRotY)
	comp, err := core.New("bsbrc")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	// Rank 0 reads the counters while every other rank waits between two
	// barriers, so no rank allocates during the read.
	mark := func(c mp.Comm, ms *runtime.MemStats) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(ms)
		}
		return c.Barrier()
	}
	err = mp.Run(env.p, benchWorldOpts(), func(c mp.Comm) error {
		var work frame.Image
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				if err := mark(c, &before); err != nil {
					return err
				}
			}
			if _, err := compositeGatherRound(c, env, comp, &work); err != nil {
				return err
			}
		}
		return mark(c, &after)
	})
	if err != nil {
		t.Fatal(err)
	}
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	final := uint64(size * size * frame.PixelBytes)
	t.Logf("%d bytes per round; final image %d bytes", perRound, final)
	if perRound > final+roundSlackBytes {
		t.Errorf("steady-state round allocates %d bytes, want at most the final image (%d) + %d",
			perRound, final, roundSlackBytes)
	}
}
