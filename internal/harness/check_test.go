package harness

import (
	"math"
	"strings"
	"testing"
)

// Check must mirror the errors run() would hit, without generating
// volumes or building a world — it is the admission filter the serving
// tier and the CLIs use.
func TestConfigCheck(t *testing.T) {
	ok := Config{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, P: 4}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error; empty means valid
	}{
		{"valid", func(*Config) {}, ""},
		{"unknown dataset", func(c *Config) { c.Dataset = "nope" }, "unknown dataset"},
		{"zero width", func(c *Config) { c.Width = 0 }, "image size"},
		{"negative height", func(c *Config) { c.Height = -1 }, "image size"},
		{"frame at pixel cap", func(c *Config) { c.Width, c.Height = 4096, MaxFramePixels/4096 }, ""},
		{"frame over pixel cap", func(c *Config) { c.Width, c.Height = 1<<20, 1<<20 }, "frame limit"},
		{"one huge side", func(c *Config) { c.Width, c.Height = MaxFramePixels+1, 1 }, "frame limit"},
		{"zero P", func(c *Config) { c.P = 0 }, "P = 0"},
		{"unknown method", func(c *Config) { c.Method = "nope" }, "nope"},
		{"non-pow2 binary swap ok", func(c *Config) { c.P = 6 }, ""},
		{"non-pow2 direct send", func(c *Config) { c.P = 6; c.Method = "direct" }, "power-of-two"},
		{"non-pow2 ds ok", func(c *Config) { c.P = 6; c.Method = "ds" }, ""},
		{"non-pow2 dfb ok", func(c *Config) { c.P = 6; c.Method = "dfb" }, ""},
		{"non-pow2 balanced render", func(c *Config) { c.P = 6; c.BalanceRender = true }, "power-of-two"},
		{"NaN RotX", func(c *Config) { c.RotX = math.NaN() }, "RotX = NaN must be finite"},
		{"+Inf RotY", func(c *Config) { c.RotY = math.Inf(1) }, "RotY = +Inf must be finite"},
		{"-Inf RotX", func(c *Config) { c.RotX = math.Inf(-1) }, "RotX = -Inf must be finite"},
		{"large finite rotation ok", func(c *Config) { c.RotX, c.RotY = -1e6, 720.5 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mutate(&cfg)
			err := cfg.Check()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Check() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Check() = nil, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A caller-provided volume skips the dataset lookup but still needs a
// resolvable transfer function.
func TestConfigCheckCallerVolume(t *testing.T) {
	vol, tf, err := Dataset("cube")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: "custom", Method: "bs", Width: 16, Height: 16, P: 2}
	cfg.Volume = vol
	if err := cfg.Check(); err == nil {
		t.Error("caller volume with unresolvable transfer preset must fail Check")
	}
	cfg.TF = tf
	if err := cfg.Check(); err != nil {
		t.Errorf("caller volume with explicit TF: Check() = %v, want nil", err)
	}
}
