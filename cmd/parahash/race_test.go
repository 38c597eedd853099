//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow memory makes resident-set measurements meaningless.
const raceEnabled = true
