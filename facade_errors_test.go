package sortlast_test

import (
	"math"
	"strings"
	"testing"

	"sortlast"
)

// The facade must reject bad configurations with descriptive errors
// before any rank is spawned, not panic mid-pipeline.
func TestRenderErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		dataset string
		opt     sortlast.Options
		want    string // substring of the error
	}{
		{"unknown dataset", "voxelzilla",
			sortlast.Options{Processors: 4, Width: 32, Height: 32}, "voxelzilla"},
		{"unknown method", "cube",
			sortlast.Options{Processors: 4, Method: "quantum", Width: 32, Height: 32}, "quantum"},
		{"negative width", "cube",
			sortlast.Options{Processors: 4, Width: -8, Height: 32}, "image size"},
		{"negative height", "cube",
			sortlast.Options{Processors: 4, Width: 32, Height: -8}, "image size"},
		{"negative processors", "cube",
			sortlast.Options{Processors: -2, Width: 32, Height: 32}, "P = -2"},
		{"NaN rotation", "cube",
			sortlast.Options{Processors: 2, Width: 32, Height: 32, RotX: math.NaN()}, "RotX = NaN must be finite"},
		{"infinite rotation", "cube",
			sortlast.Options{Processors: 2, Width: 32, Height: 32, RotY: math.Inf(-1)}, "RotY = -Inf must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sortlast.Render(tc.dataset, tc.opt)
			if err == nil {
				t.Fatalf("Render(%q, %+v) succeeded, want error", tc.dataset, tc.opt)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRenderRawRejectsWrongLength(t *testing.T) {
	data := make([]uint8, 10)
	_, err := sortlast.RenderRaw(data, 4, 4, 4, "linear",
		sortlast.Options{Processors: 2, Width: 32, Height: 32})
	if err == nil {
		t.Fatal("RenderRaw with 10 samples for a 4x4x4 volume succeeded, want error")
	}
}

func TestRenderRawRejectsUnknownPreset(t *testing.T) {
	data := make([]uint8, 4*4*4)
	_, err := sortlast.RenderRaw(data, 4, 4, 4, "nope",
		sortlast.Options{Processors: 2, Width: 32, Height: 32})
	if err == nil {
		t.Fatal("RenderRaw with unknown transfer preset succeeded, want error")
	}
}
