package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExampleFaultSpecsLoad holds the shipped chaos specs to the strict
// decoder: both must still load, into a schedule and a seeded model.
func TestExampleFaultSpecsLoad(t *testing.T) {
	for _, name := range []string{"faults.json", "seeded.json"} {
		opts, err := loadFaults(filepath.Join("..", "..", "examples", "chaos", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if opts.Model == nil {
			t.Errorf("%s: no fault model", name)
		}
	}
}

// TestReadmeScenarioSpecLoads extracts the README's mix.json heredoc and
// decodes it strictly, so the documented quickstart cannot drift onto a
// key the decoder rejects.
func TestReadmeScenarioSpecLoads(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const open = "cat > mix.json <<'EOF'\n"
	_, body, ok := strings.Cut(string(readme), open)
	if !ok {
		t.Fatal("README has no mix.json heredoc")
	}
	body, _, ok = strings.Cut(body, "\nEOF\n")
	if !ok {
		t.Fatal("README's mix.json heredoc is unterminated")
	}
	path := filepath.Join(t.TempDir(), "mix.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var spec scenarioSpec
	if err := readSpec("scenario", path, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Groups) != 2 || spec.Groups[0].Name != "fast" || spec.Groups[1].Name != "slow" {
		t.Errorf("decoded groups %+v, want fast and slow", spec.Groups)
	}
}

// TestSpecRejectsUnknownOrTrailing pins the strict decoding of both spec
// kinds: an unknown key (a stale "timeline", a misspelled rate) or data
// after the JSON object is an error naming the file.
func TestSpecRejectsUnknownOrTrailing(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, body, want string
		load             func(path string) error
	}{
		{"stale.json", `{"timeline": "event", "groups": [{"name": "a"}]}`, `"timeline"`, loadScenarioSpec},
		{"typo.json", `{"groups": [{"name": "a", "rte": 4}]}`, `"rte"`, loadScenarioSpec},
		{"trailing.json", `{"groups": [{"name": "a"}]} {}`, "trailing data", loadScenarioSpec},
		{"faults.json", `{"seed": 7, "crashRte": 0.1}`, `"crashRte"`, loadFaultSpec},
	}
	for _, c := range cases {
		path := write(c.name, c.body)
		err := c.load(path)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the file and %s", c.name, err, c.want)
		}
	}
}

func loadScenarioSpec(path string) error {
	var spec scenarioSpec
	return readSpec("scenario", path, &spec)
}

func loadFaultSpec(path string) error {
	_, err := loadFaults(path)
	return err
}
