//go:build !race

package sortlast

// raceEnabled gates allocation assertions; see race_test.go.
const raceEnabled = false
