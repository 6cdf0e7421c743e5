//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation swamps the
// timing differences the positive control measures.
const raceEnabled = true
