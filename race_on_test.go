//go:build race

package feww

// raceDetectorEnabled mirrors the -race build tag so allocation gates
// can skip: the race runtime allocates for its own synchronisation
// bookkeeping, which AllocsPerRun cannot tell apart from hot-path
// regressions.
const raceDetectorEnabled = true
