package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile (p in [0,1]) of a sample; 0
// for an empty one.
func percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	v := append([]float64(nil), sample...)
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// quartiles cuts a sample as Python's statistics.quantiles(v, n=4) does
// (the driver's rule), so -repeat judges spreads the way the driver will.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
