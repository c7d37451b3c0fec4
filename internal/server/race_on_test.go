//go:build race

package server

// raceEnabled reports that the race detector is instrumenting this
// build; allocation-count assertions are meaningless under it.
const raceEnabled = true
