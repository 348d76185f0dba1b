//go:build race

package stats

// raceEnabled reports a -race build. Allocation counts mean nothing
// there: the detector disables the append-make optimisation that
// slices.Grow relies on, and sync.Pool drops items at random.
const raceEnabled = true
