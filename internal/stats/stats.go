// Package stats provides the small statistics kit used across the
// simulator: streaming summaries (count/mean/min/max), fixed-bucket
// duration histograms, and scalar aggregate helpers for the experiment
// harness (geometric mean, normalization).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cata/internal/sim"
)

// Summary accumulates a stream of float64 observations and reports
// count, sum, mean, min and max. The zero value is ready to use.
type Summary struct {
	n     int64
	sum   float64
	min   float64
	max   float64
	sumSq float64
}

// Observe adds one observation.
func (s *Summary) Observe(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += float64(v * v) // rounded: never fused into a multiply-add
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Sum returns the sum of observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean (0 with no observations).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation (0 with no observations).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 with no observations).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// StdDev returns the population standard deviation (0 with <2 observations).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - float64(m*m)
	if v < 0 {
		v = 0 // numerical noise
	}
	return math.Sqrt(v)
}

// Merge folds other into s.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.n == 0 || other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
	s.sum += other.sum
	s.sumSq += other.sumSq
}

// DurationSummary is a Summary over sim.Time observations.
type DurationSummary struct{ Summary }

// ObserveTime adds one duration observation.
func (d *DurationSummary) ObserveTime(t sim.Time) { d.Observe(float64(t)) }

// MeanTime returns the mean as a sim.Time.
func (d *DurationSummary) MeanTime() sim.Time { return sim.Time(d.Mean()) }

// MaxTime returns the max as a sim.Time.
func (d *DurationSummary) MaxTime() sim.Time { return sim.Time(d.Max()) }

// MinTime returns the min as a sim.Time.
func (d *DurationSummary) MinTime() sim.Time { return sim.Time(d.Min()) }

// SumTime returns the sum as a sim.Time.
func (d *DurationSummary) SumTime() sim.Time { return sim.Time(d.Sum()) }

// Reconfig is what a run's reconfiguration modules report (§V-C): each
// module fills the fields it owns after the run. The experiment
// harness embeds it in its per-run measurement, so the field names are
// part of the result-cache record and must not change.
type Reconfig struct {
	ReconfigOps         int64    // RSM or RSU start/end operations
	ReconfigLatencyAvg  sim.Time // software op latency (CATA only)
	ReconfigLatencyMax  sim.Time
	LockWaitMax         sim.Time // worst RSM-lock acquisition (CATA only)
	DriverLockWaitMax   sim.Time // worst kernel cpufreq-lock wait
	ReconfigOverheadPct float64  // reconfiguration core-time / total core-time
	TurboReassigns      int64    // TurboMode halt-driven handoffs

	// Acceleration-decision accounting (CATA's RSM; granted also for RSU).
	AccelsGranted     int64   // accelerations granted
	AccelsDenied      int64   // task starts denied acceleration (budget exhausted)
	BudgetUtilization float64 // time-averaged accelerated cores / budget, in [0,1]
}

// Hist is a log2-bucketed duration histogram: bucket i holds observations
// in [2^i, 2^(i+1)) picoseconds. It answers percentile queries
// approximately (bucket midpoint), which is enough for reporting latency
// distributions.
type Hist struct {
	buckets [64]int64
	n       int64
	sum     sim.Time
}

// Observe adds one duration (negative durations clamp to zero).
func (h *Hist) Observe(t sim.Time) {
	if t < 0 {
		t = 0
	}
	h.n++
	h.sum += t
	h.buckets[log2Bucket(int64(t))]++
}

func log2Bucket(v int64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the exact mean duration.
func (h *Hist) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Quantile returns an approximate q-quantile (q in [0,1]) as the geometric
// midpoint of the bucket containing it.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.n-1))
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			return bucketMid(i)
		}
	}
	return 0
}

// bucketMid returns the midpoint of bucket i's [2^i, 2^(i+1)) range.
// The arithmetic is done in uint64 halves because the naive
// int64(1)<<uint(i+1) upper bound overflows to negative at i=62 and to
// zero at i=63, which used to return negative quantiles for very large
// durations. Bucket 63's upper bound is not representable in int64, so
// it is clamped to MaxInt64; every bucket up to 62 keeps the exact
// midpoint the pre-clamp code produced (both bounds are even, so
// lo/2+hi/2 == (lo+hi)/2).
func bucketMid(i int) sim.Time {
	var lo uint64
	if i > 0 {
		lo = 1 << uint(i)
	}
	hi := uint64(math.MaxInt64)
	if i < 63 {
		hi = 1 << uint(i+1)
	}
	return sim.Time(lo/2 + hi/2)
}

// String renders the non-empty buckets, for debugging.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist(n=%d mean=%v)", h.n, h.Mean())
	for i, c := range h.buckets {
		if c > 0 {
			fmt.Fprintf(&b, " [%v:%d]", sim.Time(int64(1)<<uint(i)), c)
		}
	}
	return b.String()
}

// GeoMean returns the geometric mean of vs. Non-positive values are
// rejected with a panic: a speedup or EDP ratio of <= 0 is always a bug.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", v))
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Median returns the median of vs (0 for empty input). vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}
