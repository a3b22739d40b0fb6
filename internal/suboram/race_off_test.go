//go:build !race

package suboram

const raceEnabled = false
