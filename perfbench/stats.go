package main

import (
	"math"
	"sort"

	"plos/internal/transport"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMin is the number of samples that must lie beyond the reported tail.
const tailMin = 10

// tail is the highest percentile of a sample with at least tailMin samples
// beyond it.
type tail struct {
	Value float64
	// Percentile is the share of samples at or below Value, in percent
	// (floored), and Rank its 1-based position in ascending order.
	Percentile int
	Rank       int
	N          int
}

// tailPercentile picks, from n samples sorted ascending, the one with
// exactly tailMin samples above it: rank n−tailMin. ok is false when fewer
// than tailMin+1 samples exist, so no percentile has enough samples beyond
// it.
func tailPercentile(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailMin {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	rank := n - tailMin
	return tail{Value: s[rank-1], Percentile: 100 * rank / n, Rank: rank, N: n}, true
}

// failedRatio is failed trainings over attempted ones. A dropped device
// fails its training, so the ratio counts drops too.
func failedRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// perUserBytes attributes a coordinator's per-connection traffic to its
// users: what the coordinator sent a device is that device's downlink, what
// it received is its uplink. Both are averaged over the users.
func perUserBytes(perUser []transport.Stats) (uplink, downlink float64) {
	if len(perUser) == 0 {
		return 0, 0
	}
	var up, down int64
	for _, s := range perUser {
		up += s.BytesReceived
		down += s.BytesSent
	}
	n := float64(len(perUser))
	return float64(up) / n, float64(down) / n
}

// overheadRatio is the relative cost of tracing: the traced median training
// time over the untraced one, minus 1.
func overheadRatio(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return median(traced)/u - 1
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
