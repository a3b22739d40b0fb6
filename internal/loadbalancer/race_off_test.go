//go:build !race

package loadbalancer

const raceEnabled = false
