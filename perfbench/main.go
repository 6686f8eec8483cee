// Command perfbench is the repository's benchmark. One invocation runs
// one workload against the system as shipped — the privranged daemon
// for buy-open and trade-durable, the privrange library facade for
// ingest-batch — checks every released answer for correctness, and
// prints its metrics. With --trace 1 it instead runs the traced
// per-layer suite. See README.md in this directory.
//
// Usage (run.sh builds the binaries and passes -daemon and -out):
//
//	perfbench -daemon <privranged> -out <dir> --workload buy-open
//	          --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any correctness check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. A runner performs
// reps set-ups (keeping the last), measures for the given seconds and
// returns the pass with its correctness problems.
var workloads = map[string]func(cfg *config, traced bool, seconds float64, reps int) (*pass, error){
	"buy-open":      runBuyOpen,
	"trade-durable": runTradeDurable,
	"ingest-batch":  runIngestBatch,
}

// setupReps is how many set-ups an untraced run performs; setup_s is
// their median.
const setupReps = 7

type config struct {
	workload string
	seed     int64
	seconds  float64
	daemon   string // privranged binary
	out      string // results directory
	runDir   string // this invocation's scratch directory
	corrupt  bool
}

// pass is one measured phase of one workload.
type pass struct {
	workload          string
	setup             []float64 // seconds, one per set-up repetition
	release           []float64 // ms: buys, or CountBatch calls
	support           []float64 // ms: quotes, deposits, or Ingest calls
	late              []float64 // ms: open-loop send lateness
	eps               []float64 // ε′ of every released answer
	attempted, failed int
	elapsed           time.Duration
	rssMB             float64
	problems          []string
	layer             map[string]float64 // per-layer values measured in this pass
	scraped           scrape             // ops-endpoint metrics at the end of a traced pass
	spans             []span
	quoteRTT          []float64     // ms: buy-open quotes from send, not due, to reply
	stream            []op          // buy-open's generated requests, replayed in-process when traced
	inputs            *inputs       // the dataset a daemon workload served
	ingest            *ingestInputs // ingest-batch's generated inputs, replayed in-process when traced
}

func newPass(workload string) *pass {
	return &pass{workload: workload, layer: map[string]float64{}}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roleNames gives, per workload, the operation behind the release_* and
// support_* metrics.
var roleNames = map[string][2]string{
	"buy-open":      {"buy", "quote"},
	"trade-durable": {"buy", "deposit"},
	"ingest-batch":  {"batch", "ingest"},
}

// endToEnd derives the user-facing metrics of an untraced pass.
func endToEnd(p *pass) map[string]metric {
	completed := float64(p.attempted - p.failed)
	return map[string]metric{
		"setup_s":        {median(p.setup), "s"},
		"ops_per_s":      {completed / p.elapsed.Seconds(), "1/s"},
		"release_p50_ms": {quantile(p.release, 0.5), "ms"},
		"support_p50_ms": {quantile(p.support, 0.5), "ms"},
		"eps_per_answer": {mean(p.eps), "eps"},
		"peak_rss_mb":    {p.rssMB, "MB"},
	}
}

// namedMetrics restates the latencies under the operation names of
// this workload (buy_p50_ms, deposit_p99_ms, ...), adds the p90s, p99s,
// error_rate and the open loop's send lateness, for the human-readable
// table. The tails stay out of the JSON line: on a shared 2-core VM
// they spread too far between runs of the same code to gate a change.
func namedMetrics(p *pass) map[string]metric {
	out := map[string]metric{
		"error_rate": {float64(p.failed) / float64(p.attempted), "1"},
	}
	names := roleNames[p.workload]
	for i, xs := range [][]float64{p.release, p.support} {
		out[names[i]+"_p50_ms"] = metric{quantile(xs, 0.5), "ms"}
		out[names[i]+"_p90_ms"] = metric{quantile(xs, 0.9), "ms"}
		out[names[i]+"_p99_ms"] = metric{p99(xs), "ms"}
	}
	if len(p.late) > 0 {
		out["gen_late_p50_ms"] = metric{quantile(p.late, 0.5), "ms"}
		out["gen_late_p99_ms"] = metric{quantile(p.late, 0.99), "ms"}
		out["quote_rtt_p50_ms"] = metric{quantile(p.quoteRTT, 0.5), "ms"}
	}
	return out
}

// metadata describes the machine and build a result was measured on.
func metadata() map[string]any {
	meta := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		meta["kernel"] = strings.TrimSpace(string(raw))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		meta["commit"] = strings.TrimSpace(string(out))
	}
	meta["source_sha256"] = sourceDigest(".")
	return meta
}

// sourceDigest hashes the module's Go sources and go.mod files, so a
// result taken from a checkout without git history still names the code
// it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printTable(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "buy-open, trade-durable or ingest-batch")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed: dataset, request stream and ranges")
	fl.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced per-layer suite instead")
	fl.StringVar(&cfg.daemon, "daemon", "", "privranged binary")
	fl.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for result records, spans and scratch files")
	fl.BoolVar(&cfg.corrupt, "corrupt", false, "shift every released value by 10αn before checking it (must fail the run)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if workloads[cfg.workload] == nil || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload buy-open|trade-durable|ingest-batch, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if cfg.workload != "ingest-batch" || trace == 1 {
		if _, err := os.Stat(cfg.daemon); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: -daemon: %v\n", err)
			return 2
		}
	}
	cfg.runDir = filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.runDir)

	meta := metadata()
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = cfg.workload, cfg.seed, cfg.seconds, trace
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %gs, trace %d on %d CPUs (GOMAXPROCS %d), %s, kernel %v\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, meta["nproc"], meta["gomaxprocs"], meta["go"], meta["kernel"])

	var res result
	record := map[string]any{"meta": meta}
	if trace == 0 {
		steal0, total0 := cpuSteal()
		p, err := workloads[cfg.workload](cfg, false, cfg.seconds, setupReps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
			return 1
		}
		res = result{Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p)}
		named := namedMetrics(p)
		if steal1, total1 := cpuSteal(); total1 > total0 {
			// CPU time the hypervisor gave to other guests: the first
			// thing to check when a run reads slower than its
			// neighbours.
			named["host_steal_pct"] = metric{100 * float64(steal1-steal0) / float64(total1-total0), "%"}
		}
		res.Correct = len(p.problems) == 0
		printTable(cfg.workload+" end-to-end", res.Metrics)
		printTable(cfg.workload+" by operation", named)
		record["named"], record["problems"] = named, p.problems
		for _, pr := range p.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", pr)
		}
	} else {
		tr, err := runTraced(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", cfg.workload, err)
			return 1
		}
		res = result{Correct: len(tr.problems) == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.metrics}
		fmt.Print(tr.table)
		record["table"], record["problems"], record["overhead"] = tr.table, tr.problems, tr.overhead
		for _, pr := range tr.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", pr)
		}
		if err := writeJSON(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)), tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	record["result"] = res
	if err := writeJSON(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)), record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
