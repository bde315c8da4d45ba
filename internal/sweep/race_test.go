//go:build race

package sweep

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own, so exact allocation counts are not checked under it.
const raceEnabled = true
