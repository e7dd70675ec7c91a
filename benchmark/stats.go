package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medianBy is the median of f over xs.
func medianBy[T any](xs []T, f func(T) float64) float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return median(ys)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// compare prints match ones computed with that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// mannWhitneyP returns the two-sided p-value of the Mann–Whitney U test
// that samples a and b come from the same distribution. Without ties and
// with small samples it uses the exact null distribution of U; otherwise
// the normal approximation with tie and continuity corrections.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks; tieTerm accumulates sum(t^3 - t) over tie groups.
	var r1, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // ranks i+1..j averaged
		for k := i; k < j; k++ {
			if all[k].first {
				r1 += rank
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	u := r1 - float64(n1*(n1+1))/2
	if tieTerm == 0 && n1*n2 <= 400 {
		return exactUP(n1, n2, u)
	}
	mu := float64(n1*n2) / 2
	n := float64(n1 + n2)
	sigma := math.Sqrt(float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return 1
	}
	z := (math.Abs(u-mu) - 0.5) / sigma
	if z < 0 {
		z = 0
	}
	return math.Min(1, math.Erfc(z/math.Sqrt2))
}

// exactUP is the exact two-sided p-value of an observed U statistic for
// samples of sizes n1 and n2 without ties: twice the smaller tail of the
// null distribution. f[i][j][v] counts the orderings of i first-sample
// and j second-sample values whose U is v.
func exactUP(n1, n2 int, u float64) float64 {
	maxU := n1 * n2
	// f[i][j] holds the U distribution for sizes (i, j) over 0..i*j.
	f := make([][][]float64, n1+1)
	for i := range f {
		f[i] = make([][]float64, n2+1)
		for j := range f[i] {
			f[i][j] = make([]float64, i*j+1)
			if i == 0 || j == 0 {
				f[i][j][0] = 1
				continue
			}
			// The largest value belongs to the first sample (it then beats
			// all j second-sample values) or to the second sample.
			for v := 0; v <= i*j; v++ {
				if v-j >= 0 && v-j <= (i-1)*j {
					f[i][j][v] += f[i-1][j][v-j]
				}
				if v <= i*(j-1) {
					f[i][j][v] += f[i][j-1][v]
				}
			}
		}
	}
	dist := f[n1][n2]
	var total, lo, hi float64
	for v := 0; v <= maxU; v++ {
		total += dist[v]
		if float64(v) <= u {
			lo += dist[v]
		}
		if float64(v) >= u {
			hi += dist[v]
		}
	}
	return math.Min(1, 2*math.Min(lo, hi)/total)
}
