//go:build race

package main

// raceDetector: the race detector slows the traced runs, which measure
// every layer, about fivefold; the smoke test leaves them to the
// build without it.
const raceDetector = true
