package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. xs is not
// modified; an empty slice gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum returns the smallest value of xs (0 for none).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// quartiles returns the three cut points dividing xs into quarters, by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4). With fewer
// than two values every cut point is that value (0 for none).
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	switch len(xs) {
	case 0:
		return q
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
