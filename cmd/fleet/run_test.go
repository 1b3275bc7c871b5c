package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestPrepareSchedulesBudgetDrop builds a small flag-driven fleet, runs
// the shared post-build step with -drop-to/-drop-at, and checks the cap
// change lands: rounds before dropAt report the original budget, rounds
// from dropAt on report dropTo, whether the change lands on the round
// boundary or mid-quantum.
func TestPrepareSchedulesBudgetDrop(t *testing.T) {
	newApp, prof, err := workloadFor("synthetic", "small")
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, 0.5} {
		o := options{machines: 2, cores: 2, budget: 400, dropTo: 340, dropAt: 3, dropFrac: frac, workers: 1}
		sup, err := fleet.NewScenario(flagScenario(o, "default", newApp, prof, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := prepare(sup, o); err != nil {
			t.Fatal(err)
		}
		gen := fleet.NewSaturatingLoad(2)
		for r := 0; r < 6; r++ {
			rs, err := sup.Step(gen)
			if err != nil {
				t.Fatal(err)
			}
			want := o.budget
			if r >= o.dropAt {
				want = o.dropTo
			}
			if rs.Budget != want {
				t.Errorf("drop-frac %v: round %d budget = %v W, want %v W", frac, r, rs.Budget, want)
			}
		}
	}
}

// TestResilienceRequiresFaults checks that -resilience without -faults
// is rejected up front, naming both flags, instead of silently writing
// nothing.
func TestResilienceRequiresFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resilience.csv")
	err := run(options{
		app: "synthetic", scale: "small", load: "saturate",
		machines: 1, cores: 1, instances: 1, rounds: 1, budget: 400,
		resiliencePath: path,
	})
	if err == nil || !strings.Contains(err.Error(), "-resilience") || !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("want an error naming -resilience and -faults, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected run still touched %s (stat err %v)", path, err)
	}
}
