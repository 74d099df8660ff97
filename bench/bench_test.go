package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivertc/bench/workload"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricsAndWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Fatalf("%s: bench reports %d metrics, BENCHMARK.json names %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s metric %d: bench reports %s [%s], BENCHMARK.json names %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workload.Specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, bench defines %d", len(bf.Workloads), len(workload.Specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workload.Specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json names %s, bench defines %s", i, w.Name, workload.Specs[i].Name)
		}
	}
}

// runBench runs the benchmark in process for a second at seed 1 with one
// set-up; traceRequests > 0 adds a traced replay of that many requests.
func runBench(t *testing.T, name string, traceRequests int) result {
	t.Helper()
	spec, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceRequests = traceRequests
	cfg := config{root: root, spec: spec, seed: 1, seconds: 1, trace: traceRequests > 0, setups: 1}
	var stdout, stderr bytes.Buffer
	res, err := bench(context.Background(), cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("bench %s: %v\nstdout:\n%s\nstderr:\n%s", name, err, stdout.String(), stderr.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("bench %s: result %+v", name, res)
	}
	return *res
}

func checkMetrics(t *testing.T, what string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", what, d.name, m, ok, d.unit)
		}
	}
}

// TestWorkloadsRun runs every workload for about a second plus a tiny
// traced replay, and checks that every metric BENCHMARK.json names is
// printed with its unit.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts adaserved")
	}
	for _, w := range workload.Specs {
		res := runBench(t, w.Name, 0)
		checkMetrics(t, w.Name, res, endToEnd)
	}
	res := runBench(t, "cold_bruteforce", 5)
	checkMetrics(t, "cold_bruteforce traced", res, perLayer)
}

func TestCheckCertificateRejectsBadBodies(t *testing.T) {
	const good = `{"version":1,"verdict":"stable","lower":0.97,"upper":0.974,"bracket":"[0.970000, 0.974000]","gap":0.004,"witness_word":[0,2],"matrices":3,"dim":9,"budget_exhausted":true}`
	if _, err := checkCertificate([]byte(good), 3, 9); err != nil {
		t.Fatalf("good certificate rejected: %v", err)
	}
	bad := map[string]string{
		"lower above upper": strings.Replace(good, `"lower":0.97`, `"lower":0.98`, 1),
		"wrong verdict":     strings.Replace(good, `"verdict":"stable"`, `"verdict":"unstable"`, 1),
		"wrong dimension":   strings.Replace(good, `"dim":9`, `"dim":8`, 1),
		"wrong count":       strings.Replace(good, `"matrices":3`, `"matrices":4`, 1),
		"witness range":     strings.Replace(good, `"witness_word":[0,2]`, `"witness_word":[0,3]`, 1),
		"no witness":        strings.Replace(good, `"witness_word":[0,2],`, ``, 1),
		"not json":          `{"verdict":`,
	}
	for name, body := range bad {
		if _, err := checkCertificate([]byte(body), 3, 9); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, spec := range workload.Specs {
		a, err := workload.New(spec, "testdata", 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.New(spec, "testdata", 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := workload.New(spec, "testdata", 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Body(3), b.Body(3)) || !bytes.Equal(a.WarmupBody(1), b.WarmupBody(1)) {
			t.Errorf("%s: same seed, different bodies", spec.Name)
		}
		if spec.Warm {
			if n := len(a.WorkingSet()); n != workload.WarmLiteral+workload.WarmScenarios {
				t.Errorf("%s: working set has %d keys", spec.Name, n)
			}
			continue
		}
		if bytes.Equal(a.Body(3), a.Body(4)) || bytes.Equal(a.Body(3), c.Body(3)) || bytes.Equal(a.Body(0), a.WarmupBody(0)) {
			t.Errorf("%s: distinct requests share a body", spec.Name)
		}
	}
}
