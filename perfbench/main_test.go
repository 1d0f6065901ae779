package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSeedDeterminesImages(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three default-scale weeks")
	}
	gen := func(seed int64) *Inputs {
		in, err := Generate(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(3), gen(3), gen(4)
	images := func(in *Inputs) map[string][]byte {
		return map[string][]byte{"MRT": in.MRT, "IPFIX": in.Wire, "flood IPFIX": in.FloodWire}
	}
	for name, img := range images(a) {
		if !bytes.Equal(img, images(b)[name]) {
			t.Errorf("seed 3 twice: %s images differ", name)
		}
		if bytes.Equal(img, images(c)[name]) {
			t.Errorf("seeds 3 and 4: %s images are identical", name)
		}
	}
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Error("seed 3 twice: member tables differ")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric checks read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, listed []struct{ Name, Unit string }, declared map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, declared) {
			t.Errorf("%s metrics in BENCHMARK.json %v, perfbench prints %v", kind, got, declared)
		}
	}
	same("end-to-end", b.EndToEnd, endToEndUnits)
	same("per-layer", b.PerLayer, perLayerUnits)
	for _, w := range b.Workloads {
		if !strings.Contains(" "+strings.Join(workloads, " ")+" ", " "+w.Name+" ") {
			t.Errorf("BENCHMARK.json workload %q is not one perfbench runs", w.Name)
		}
	}
}

func TestPredictionsNameDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Seeds struct {
			Development int64 `json:"development"`
			HeldOut     int64 `json:"held_out"`
		}
		Predictions []struct{ Layer, Moves, Workload string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Seeds.Development == doc.Seeds.HeldOut {
		t.Errorf("held-out seed %d is the development seed", doc.Seeds.HeldOut)
	}
	for _, p := range doc.Predictions {
		if _, ok := perLayerUnits[p.Layer]; !ok {
			t.Errorf("prediction names undeclared layer metric %q", p.Layer)
		}
		if _, ok := endToEndUnits[p.Moves]; !ok && p.Moves != "none" && p.Moves != "failed" {
			t.Errorf("prediction for %s moves undeclared metric %q", p.Layer, p.Moves)
		}
		if !strings.Contains(strings.Join(workloads, " ")+" all", p.Workload) {
			t.Errorf("prediction for %s names unknown workload %q", p.Layer, p.Workload)
		}
	}
}

// lastResult runs perfbench and decodes its last output line.
func lastResult(t *testing.T, args ...string) (*result, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
	}
	return &res, code
}

func TestRunPrintsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the file-replay workload twice")
	}
	for trace, declared := range map[string]map[string]string{"0": endToEndUnits, "1": perLayerUnits} {
		res, code := lastResult(t, "--workload", wFileReplay, "--seed", "2", "--seconds", "1", "--trace", trace)
		if code != 0 || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("--trace %s: exit %d, result %+v", trace, code, res)
		}
		for name, unit := range declared {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %s", trace, name, m, unit)
			}
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("--trace %s: printed %d metrics, declared %d", trace, len(res.Metrics), len(declared))
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", wFileReplay, "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--workload", wFileReplay, "--seed", "1", "--seconds", "1", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
