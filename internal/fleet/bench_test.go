package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/workload"
)

// Benchmarks for the fleet engines: one iteration simulates a 10-round
// saturated 8-instance run (the demo shape), plus an open-loop
// work-item run exercising arrival events and queueing. CI's
// bench-smoke step records these into BENCH_fleet.json so the perf
// trajectory of the event scheduler is tracked over time.

func benchProfile(b *testing.B) *calibrate.Profile {
	b.Helper()
	prof, err := calibrate.Run(NewSynthetic(SyntheticOptions{}), calibrate.Options{Set: workload.Training})
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

func benchFleet(b *testing.B, prof *calibrate.Profile, gen *LoadGen, rounds int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sup, err := NewScenario(Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			Groups:          defaultGroup(func() (workload.App, error) { return NewSynthetic(SyntheticOptions{}), nil }, prof),
			Interference:    UniformShare{},
			Budget:          400,
			// Pin the single-heap engine so this series keeps its
			// historical meaning on multi-core runners; the sharded
			// engine has its own series (BenchmarkFleetScale).
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if _, err := sup.StartInstance(-1); err != nil {
				b.Fatal(err)
			}
		}
		if err := sup.Run(gen, rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetEventTimeline is the discrete-event scheduler under
// saturating load: every beat is an event.
func BenchmarkFleetEventTimeline(b *testing.B) {
	prof := benchProfile(b)
	b.ResetTimer()
	benchFleet(b, prof, NewSaturatingLoad(2), 10)
}

// BenchmarkFleetEventWorkItems drives Poisson work-item arrivals
// through the event engine: arrival events, queueing, and percentile
// accounting on top of beat events.
func BenchmarkFleetEventWorkItems(b *testing.B) {
	prof := benchProfile(b)
	b.ResetTimer()
	benchFleet(b, prof, NewConstantLoad(3, 12).WithRequestIters(10), 10)
}

// BenchmarkFleetScale is the hundred-host scaling benchmark: one
// saturated instance per host under a binding cluster budget, one
// iteration simulating 3 rounds, across fleet sizes and engines.
// workers=1 is the single-heap reference engine (one global heap over
// every beat of every instance); workers=4 is the sharded engine
// (per-host event queues, a 4-worker pool between barriers). CI's
// bench-smoke step records every variant into BENCH_fleet.json, so the
// single-heap vs sharded trajectory is tracked per commit at 8, 32,
// and 128 hosts. On a single-core runner the sharded engine's win is
// algorithmic only (tiny per-host queues and the peek-ahead fast path
// instead of a fleet-wide heap); with real cores the worker pool adds
// parallel speedup on top.
func BenchmarkFleetScale(b *testing.B) {
	prof := benchProfile(b)
	for _, hosts := range []int{8, 32, 128} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("hosts=%d/workers=%d", hosts, workers), func(b *testing.B) {
				// Fleet construction is identical for both engines and
				// would dilute the engine ratio, so it sits outside the
				// timer; one op is one steady-state saturated round.
				sup, err := NewScenario(Scenario{
					Machines:        hosts,
					CoresPerMachine: 1,
					Groups:          defaultGroup(func() (workload.App, error) { return NewSynthetic(SyntheticOptions{}), nil }, prof),
					Interference:    UniformShare{},
					Budget:          float64(hosts) * 190,
					Workers:         workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < hosts; j++ {
					if _, err := sup.StartInstance(-1); err != nil {
						b.Fatal(err)
					}
				}
				gen := NewSaturatingLoad(2)
				if err := sup.Run(gen, 2); err != nil { // warm to steady state
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sup.Step(gen); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The thousand-host leg runs the hybrid configuration (open-loop
	// load, epoch dispatch, fluid threshold — see BenchmarkFleetScaleFluid
	// for the 128-host discrete/fluid A/B): a saturated pure-discrete
	// fleet at this size would be benchmarking the event flood the fluid
	// engine exists to collapse.
	b.Run("hosts=1024/workers=4", func(b *testing.B) {
		benchFluidScale(b, prof, 1024, 4)
	})
}

// benchFluidScale drives one hybrid-engine scale leg: one open-loop
// instance per host at ~0.9 utilization (deep queues), join-shortest-
// queue routing batched per arbiter window (EpochDispatch — exact JSQ
// arrivals would make every arrival a global barrier), and the fluid
// threshold engaged, so backlogged hosts drain analytically instead of
// event by event. Allocations per round stay sub-linear in hosts
// because fluid completions never materialize sessions, and wall-clock
// per round scales with the discrete residue rather than the full
// event count.
func benchFluidScale(b *testing.B, prof *calibrate.Profile, hosts, workers int) {
	sup, err := NewScenario(Scenario{
		Machines:        hosts,
		CoresPerMachine: 1,
		Groups:          defaultGroup(func() (workload.App, error) { return NewSynthetic(SyntheticOptions{}), nil }, prof),
		Interference:    UniformShare{},
		Budget:          float64(hosts) * 210, // non-binding: steady DVFS keeps flows fluid
		Workers:         workers,
		ControlDisabled: true,
		EpochDispatch:   true,
		Fluid:           4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < hosts; j++ {
		if _, err := sup.StartInstance(-1); err != nil {
			b.Fatal(err)
		}
	}
	// ~0.9 rho per host at the 0.25 s work-item service time.
	gen := NewConstantLoad(17, 3.6*float64(hosts)).WithRequestIters(10)
	if err := sup.Run(gen, 2); err != nil { // warm to steady state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sup.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScaleFluid is the 128-host hybrid leg — the discrete/
// fluid A/B against BenchmarkFleetScale/hosts=128 (same host count,
// open-loop hybrid configuration; see benchFluidScale). CI's
// bench-smoke step records it into BENCH_fleet.json next to the
// discrete series.
func BenchmarkFleetScaleFluid(b *testing.B) {
	prof := benchProfile(b)
	b.Run("hosts=128/workers=4", func(b *testing.B) {
		benchFluidScale(b, prof, 128, 4)
	})
}

// BenchmarkFleetScenarioMix is the heterogeneous two-group benchmark:
// a fast open-loop service group and a slower saturating batch group
// share 8 hosts under a binding budget with contention-aware
// interference — per-group dispatch, pressure-vector share
// computation, and per-group round accounting all on the hot path.
// One op is one steady-state round; the workers=1/4 variants ride the
// CI bench matrix into BENCH_fleet.json alongside BenchmarkFleetScale,
// so the heterogeneous leg's trajectory is tracked per commit.
func BenchmarkFleetScenarioMix(b *testing.B) {
	slowProf := benchProfile(b)
	fastProf, err := calibrate.Run(NewSynthetic(SyntheticOptions{BaseCost: 3e6}), calibrate.Options{Set: workload.Training})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sup, err := NewScenario(Scenario{
				Machines:        8,
				CoresPerMachine: 1,
				Budget:          8 * 190,
				Workers:         workers,
				Groups: []WorkloadGroup{
					{Name: "serve", Instances: 6, Pressure: 0.3,
						NewApp:  func() (workload.App, error) { return NewSynthetic(SyntheticOptions{BaseCost: 3e6}), nil },
						Profile: fastProf,
						Load:    NewConstantLoad(21, 24).WithRequestIters(10)},
					{Name: "batch", Instances: 4, Pressure: 0.1,
						NewApp:  func() (workload.App, error) { return NewSynthetic(SyntheticOptions{}), nil },
						Profile: slowProf,
						Load:    NewSaturatingLoad(2)},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sup.Run(nil, 2); err != nil { // warm to steady state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sup.Step(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventQueue isolates the scheduler's heap: push/pop of a
// round's worth of interleaved events.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Supervisor{}
		base := time.Unix(0, 0)
		for j := 0; j < 1024; j++ {
			s.push(&event{at: base.Add(time.Duration((j * 7919) % 1000 * int(time.Millisecond))), kind: evServe})
		}
		for len(s.eq) > 0 {
			s.pop()
		}
	}
}
