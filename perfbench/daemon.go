package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running privranged child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // trading endpoint
	ops     string // ops endpoint, empty unless started with -ops
	drained chan struct{}
}

// startDaemon launches bin with args and waits until it reports its
// trading endpoint (and ops endpoint when -ops is among args).
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	wantOps := false
	for _, a := range args {
		wantOps = wantOps || a == "-ops"
	}
	ready := make(chan error, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			if signalled {
				continue
			}
			if _, after, ok := strings.Cut(line, " records on "); ok && strings.Contains(line, "serving") {
				d.addr = strings.TrimSpace(after)
			}
			if _, after, ok := strings.Cut(line, "on http://"); ok && strings.Contains(line, "ops endpoint") {
				d.ops = strings.TrimSpace(after)
			}
			if d.addr != "" && (!wantOps || d.ops != "") {
				signalled = true
				ready <- nil
			}
		}
		if !signalled {
			ready <- fmt.Errorf("privranged exited before serving")
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case err := <-ready:
		if err != nil {
			_ = cmd.Wait()
			return nil, err
		}
		return d, nil
	case <-time.After(90 * time.Second):
		_ = cmd.Process.Kill()
		<-d.drained
		_ = cmd.Wait()
		return nil, fmt.Errorf("privranged did not start within 90s")
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// cpuSteal returns the machine's cumulative steal and total CPU time
// in clock ticks from /proc/stat (zeros when unavailable).
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest ...]; the
	// guest columns are already counted in user and nice.
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for _, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, _ = strconv.ParseUint(fields[8], 10, 64)
	return steal, total
}

// stop sends SIGTERM, which makes privranged close its listener and
// its WAL cleanly, and waits for the process to exit (killing it after
// 30s).
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("privranged ignored SIGTERM for 30s")
	}
}

// scrape is one parsed Prometheus exposition from the ops endpoint.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get("http://" + d.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name (all label sets).
func (s scrape) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// stageBucket returns the histogram bucket (lo, hi] holding the median
// of privrange_stage_seconds for one stage, merged over datasets and
// shards, and the observation count.
func (s scrape) stageBucket(stage string) (lo, hi float64, count float64) {
	cum := map[float64]float64{}
	label := `stage="` + stage + `"`
	for k, v := range s {
		if !strings.HasPrefix(k, "privrange_stage_seconds_bucket{") || !strings.Contains(k, label) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := strings.TrimSuffix(k[i+4:], `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0, 0, 0
	}
	count = cum[bounds[len(bounds)-1]]
	prev := 0.0
	for _, b := range bounds {
		if cum[b] >= count/2 {
			return prev, b, count
		}
		prev = b
	}
	return prev, math.Inf(1), count
}
