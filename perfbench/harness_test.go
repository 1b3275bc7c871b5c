package main

import (
	"strings"
	"testing"

	"repro/internal/fleet"
)

func TestTailIsHighestStandardPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: tail must sort
	}
	v, pct, n, ok := tail(xs)
	if !ok || v != 990 || pct != 99 || n != 1000 {
		t.Fatalf("tail = %v p%v n=%d ok=%v, want 990 p99 n=1000", v, pct, n, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	// 20 samples: the median is the only percentile with ten beyond.
	xs = xs[:20]
	for i := range xs {
		xs[i] = float64(20 - i)
	}
	if v, pct, _, ok := tail(xs); !ok || v != 10 || pct != 50 {
		t.Fatalf("20 samples: tail = %v p%v ok=%v, want 10 at p50", v, pct, ok)
	}
	// 600 samples: p99 has 6 beyond, so p95 (30 beyond) is reported.
	xs = make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct, _, ok := tail(xs); !ok || v != 570 || pct != 95 {
		t.Fatalf("600 samples: tail = %v p%v ok=%v, want 570 at p95", v, pct, ok)
	}
	if _, _, _, ok := tail(make([]float64, 19)); ok {
		t.Fatal("19 samples have no percentile with 10 beyond it")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimesSubtractNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "a.inner", parent: 1, start: 20, end: 30},
		{name: "b", parent: 0, start: 50, end: 90},
		{name: "c", parent: 0, start: 30, end: 55}, // overlaps a and b
		{name: "other", parent: -1, start: 100, end: 130},
	}
	got := selfTimes(spans)
	// root's children cover [10,90] once, overlaps counted once.
	want := []int64{20, 20, 10, 40, 25, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	// Without overlapping children the self times of a tree add up to
	// its root's duration.
	noOverlap := append([]span(nil), spans[:4]...)
	self := selfTimes(noOverlap)
	if s := self[0] + self[1] + self[2] + self[3]; s != 100 {
		t.Errorf("self times of a non-overlapping tree sum to %d, want the root's 100", s)
	}
}

func TestDescendantsFollowsParents(t *testing.T) {
	spans := []span{
		{parent: -1}, {parent: 0}, {parent: -1}, {parent: 1}, {parent: 2},
	}
	got := descendants(spans, 0)
	want := []bool{true, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("descendants[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFailRatio(t *testing.T) {
	if r, err := failRatio(0, 10); err != nil || r != 0 {
		t.Errorf("failRatio(0, 10) = %v, %v", r, err)
	}
	if r, err := failRatio(3, 12); err != nil || r != 0.25 {
		t.Errorf("failRatio(3, 12) = %v, %v", r, err)
	}
	for _, c := range [][2]int{{0, 0}, {5, 3}, {-1, 4}} {
		if _, err := failRatio(c[0], c[1]); err == nil {
			t.Errorf("failRatio(%d, %d) accepted", c[0], c[1])
		}
	}
}

func TestCappedScheduleDropsMidRound(t *testing.T) {
	for _, c := range []struct {
		r         int
		h0, h1    float64
		roundMean float64
	}{
		{0, cappedHigh, cappedHigh, cappedHigh},
		{29, cappedHigh, cappedHigh, cappedHigh},
		{30, cappedHigh, cappedLow, (cappedHigh + cappedLow) / 2},
		{35, cappedLow, cappedLow, cappedLow},
		{40, cappedLow, cappedHigh, (cappedHigh + cappedLow) / 2},
		{41, cappedHigh, cappedHigh, cappedHigh},
	} {
		if h0, h1 := cappedPerHost(c.r, 0), cappedPerHost(c.r, 1); h0 != c.h0 || h1 != c.h1 {
			t.Errorf("round %d halves = %v/%v, want %v/%v", c.r, h0, h1, c.h0, c.h1)
		}
		if got := newCapped(params{}).budget(c.r) / 128; got != c.roundMean {
			t.Errorf("round %d mean budget %v W/host, want %v", c.r, got, c.roundMean)
		}
	}
}

func TestFleetChecksCatchViolations(t *testing.T) {
	rep := fleet.Report{
		Completions: 7,
		Aborted:     1,
		Rounds: []fleet.RoundStats{
			{Round: 0, Arrivals: 6, PowerWatts: 100, Hosts: []fleet.HostStats{{State: 0}}},
			{Round: 1, Arrivals: 4, PowerWatts: 150, QueueDepth: 2, Hosts: []fleet.HostStats{{State: 0}}},
		},
	}
	var o outcome
	checkFleetReport(&o, rep, func(int) float64 { return 200 })
	if len(o.problems) != 0 {
		t.Fatalf("consistent report flagged: %v", o.problems)
	}
	rep.Completions = 6
	rep.Rounds[1].PowerWatts = 201
	checkFleetReport(&o, rep, func(int) float64 { return 200 })
	if len(o.problems) != 2 ||
		!strings.Contains(o.problems[0], "over budget") || !strings.Contains(o.problems[1], "conservation") {
		t.Fatalf("problems = %v, want one power and one conservation failure", o.problems)
	}
}

func phaseOf(t *testing.T, r runner) *phase {
	t.Helper()
	ph, err := runPhase(r, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.out.problems) > 0 {
		t.Fatalf("output checks failed: %v", ph.out.problems)
	}
	return ph
}

// The digest must not depend on how many workers run the fleet or the
// sweep, nor on whether spans are recorded.
func TestDigestsIndependentOfWorkersAndTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs short versions of three workloads")
	}
	cases := []struct {
		name string
		make func(workers int) runner
	}{
		{"capped-128", func(w int) runner { return newCapped(params{seed: 7, rounds: 45, workers: w}) }},
		{"fluid-1024", func(w int) runner { return newFluid(params{seed: 7, rounds: 3, workers: w}) }},
		{"sweep-arbiter", func(w int) runner { return newSweep(params{seed: 7, rounds: 2, procs: w}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one, two := phaseOf(t, c.make(1)), phaseOf(t, c.make(2))
			if one.out.digest != two.out.digest {
				t.Fatalf("digest %s at 1 worker, %s at 2", one.out.digest, two.out.digest)
			}
			traced, err := runPhase(c.make(2), newTracer(true))
			if err != nil {
				t.Fatal(err)
			}
			if traced.out.digest != two.out.digest {
				t.Fatalf("traced digest %s, untraced %s", traced.out.digest, two.out.digest)
			}
		})
	}
}

func TestServeRepeatsForASeedAndVariesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving loop")
	}
	a := phaseOf(t, newServe(params{seed: 3, rounds: 4, workers: 2}))
	b := phaseOf(t, newServe(params{seed: 3, rounds: 4, workers: 2}))
	c := phaseOf(t, newServe(params{seed: 4, rounds: 4, workers: 2}))
	if a.out.digest != b.out.digest {
		t.Fatalf("same seed, digests %s and %s", a.out.digest, b.out.digest)
	}
	if a.out.digest == c.out.digest {
		t.Fatal("seeds 3 and 4 served identical load")
	}
	if a.out.attempted == 0 || a.out.acceptRatio <= 0 {
		t.Fatalf("served nothing: attempted %d, accept ratio %v", a.out.attempted, a.out.acceptRatio)
	}
}
