//go:build race

package main

// raceEnabled mirrors the race build tag: the race detector instruments
// allocations, so byte-count guards only hold on uninstrumented builds.
const raceEnabled = true
