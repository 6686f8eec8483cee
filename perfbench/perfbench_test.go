package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// binDir holds the perfbench and privranged binaries the smoke tests
// run, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, b := range [][2]string{{"perfbench", "."}, {"privranged", "privrange/cmd/privranged"}} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, b[0]), b[1]).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic("build " + b[1] + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smoke runs the benchmark as the command line does, for one second.
// It returns the parsed last line, all of stderr and the exit error.
func smoke(t *testing.T, workload string, trace string, extra ...string) (result, string, error) {
	t.Helper()
	out := t.TempDir()
	args := append([]string{"-daemon", filepath.Join(binDir, "privranged"), "-out", out,
		"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace}, extra...)
	cmd := exec.Command(filepath.Join(binDir, "perfbench"), args...)
	cmd.Dir = out
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: last stdout line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, jerr, stdout, stderr.String())
	}
	return res, stderr.String(), err
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func printed(res result) []string {
	var names []string
	for k, m := range res.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func TestSmokePrintsEveryEndToEndMetric(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range []string{"buy-open", "trade-durable", "ingest-batch"} {
		res, stderr, err := smoke(t, w, "0")
		if err != nil || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: err %v, correct %v, attempted %d\n%s", w, err, res.Correct, res.Attempted, stderr)
		}
		if got := printed(res); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s printed %v, BENCHMARK.json declares %v", w, got, want)
		}
		for k, m := range res.Metrics {
			if m.Value == 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: %s = %v", w, k, m.Value)
			}
		}
	}
}

func TestSmokeTracedPrintsEveryPerLayerMetric(t *testing.T) {
	res, stderr, err := smoke(t, "ingest-batch", "1")
	if err != nil {
		// A one-second traced run is too short for its timing
		// reconciliations to be reliable; its checks are logged, not
		// asserted.
		t.Logf("traced smoke run reported: %v\n%s", err, stderr)
	}
	if got, want := printed(res), declared(t, "per_layer"); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("traced run printed %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestCorruptAnswersFailTheAccuracyCheck(t *testing.T) {
	for _, w := range []string{"buy-open", "ingest-batch"} {
		res, stderr, err := smoke(t, w, "0", "--corrupt")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%s: corrupted run exited with %v, want a non-zero code", w, err)
		}
		if res.Correct || !strings.Contains(stderr, "answers within αn") {
			t.Errorf("%s: corrupted run not caught by the accuracy check (correct %v)\n%s", w, res.Correct, stderr)
		}
	}
}

func TestBinomLowerTail(t *testing.T) {
	for _, c := range []struct {
		k, n int
		p    float64
		want float64
	}{
		{0, 1, 0.9, 0.1},
		{10, 10, 0.5, 1},
		{0, 10, 0.5, 1.0 / 1024},
		{5, 10, 0.5, 638.0 / 1024},
	} {
		if got := binomLowerTail(c.k, c.n, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Pr[Bin(%d, %v) ≤ %d] = %v, want %v", c.n, c.p, c.k, got, c.want)
		}
	}
}

func TestP99IgnoresOneStalledChunk(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 0; i < 200; i++ {
		xs[i] = 1000 // the first chunk stalls throughout
	}
	if got := p99(xs); got > 99 {
		t.Errorf("p99 = %v, a single stalled chunk leaked into the tail", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "market.buy", ID: 1, Start: 0, End: 100},
		{Name: "core.answer", ID: 2, Parent: 1, Start: 100, End: 190},
		{Name: "optimize.solve", ID: 3, Parent: 2, Start: 190, End: 270},
	}
	total, self := selfTimes(spans)
	if total["market.buy"][0] != 0.1 || self["market.buy"][0] != 0.01 || self["core.answer"][0] != 0.01 || self["optimize.solve"][0] != 0.08 {
		t.Errorf("total %v, self %v", total, self)
	}
}
