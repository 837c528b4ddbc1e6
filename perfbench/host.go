package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host is the fingerprint every record carries, so a number can be
// traced to the machine and the code that produced it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GitSHA:     "unknown", // built outside a git checkout
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.GitSHA = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.GitSHA != "unknown" {
			h.GitSHA += "+dirty"
		}
	}
	return h
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
