//go:build race

package sortlast

// raceEnabled gates allocation assertions: the race detector instruments
// memory operations and inflates allocation counts.
const raceEnabled = true
