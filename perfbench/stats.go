package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subWindows is how many equal slices of the measured window the windowed
// metrics are taken over; reporting the median slice keeps a burst of load
// from another tenant of the machine out of the figure.
const subWindows = 6

// obs is one completed operation: when it completed (offset from the start
// of the measured window), how long it took and its weight (the work it
// did).
type obs struct {
	at time.Duration
	d  time.Duration
	w  float64
}

// windowedMedian splits the observations into subWindows equal slices of
// span by completion time, applies f to each non-empty slice (durations in
// seconds, and weights), and returns the median of the results.
func windowedMedian(xs []obs, span time.Duration, f func(secs, w []float64) float64) float64 {
	vs := make([][]float64, subWindows)
	ws := make([][]float64, subWindows)
	for _, o := range xs {
		i := int(int64(subWindows) * int64(o.at) / int64(span))
		i = min(max(i, 0), subWindows-1)
		vs[i] = append(vs[i], o.d.Seconds())
		ws[i] = append(ws[i], o.w)
	}
	var per []float64
	for i := range vs {
		if len(vs[i]) > 0 {
			per = append(per, f(vs[i], ws[i]))
		}
	}
	return quantile(per, 0.5)
}

// rate is f for throughput: total weight over total time.
func rate(secs, w []float64) float64 { return ratio(sum(w), sum(secs)) }

// pct returns f for the q-quantile of the durations, in ms.
func pct(q float64) func(secs, w []float64) float64 {
	return func(secs, _ []float64) float64 { return 1000 * quantile(secs, q) }
}

// msQuantile returns the q-quantile of the durations, in ms.
func msQuantile(xs []obs, q float64) float64 { return pct(q)(durations(xs), nil) }

// durations returns the durations in seconds.
func durations(xs []obs) []float64 {
	secs := make([]float64, len(xs))
	for i, o := range xs {
		secs[i] = o.d.Seconds()
	}
	return secs
}

// weight returns the total weight.
func weight(xs []obs) float64 {
	w := 0.0
	for _, o := range xs {
		w += o.w
	}
	return w
}

// totalRate returns the total weight over the total duration.
func totalRate(xs []obs) float64 {
	return ratio(weight(xs), sum(durations(xs)))
}
