package benchmark

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root describes this package's command;
// its workloads and metrics must be the ones the code reports, within the
// limits the benchmark contract sets.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	root := filepath.Join("..", "..")
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !equalStrings(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}

	if spec.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %d, but -seconds defaults to %d", spec.RunSeconds, DefaultSeconds)
	}
	for _, p := range spec.Paths {
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !equalStrings(workloads, Workloads) {
		t.Errorf("workloads %v, code runs %v", workloads, Workloads)
	}
	check := func(kind string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, catalog has %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d] = %s %s %s, catalog has %s %s %s", kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s has bound %v", kind, m.Name, m.Bound)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd, true)
	check("per_layer", spec.PerLayer, PerLayer, false)
	// setup_s carries the largest bound, so work moved into set-up shows.
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name != "setup_s" && *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
