package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// tailLadder are the standard percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tail is the highest standard percentile of xs that still has at
// least tailBeyond samples above its nearest-rank value. It returns
// the value, the percentile and the sample count; ok is false when
// even the median has fewer than tailBeyond samples beyond it.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	s := sorted(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-indexed, clear of rounding in p
		if rank >= 1 && n-rank >= tailBeyond {
			return s[rank-1], p, n, true
		}
	}
	return 0, 0, n, false
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// failRatio is failed over attempted operations. Nothing attempted is
// an error, not a perfect score.
func failRatio(failed, attempted int) (float64, error) {
	if attempted <= 0 {
		return 0, fmt.Errorf("fail ratio: %d operations attempted", attempted)
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("fail ratio: %d failed of %d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}
