//go:build !race

package ohash

const raceEnabled = false
