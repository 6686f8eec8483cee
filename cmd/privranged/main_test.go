package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv switches a re-executed test binary into the daemon: TestMain
// then runs main on the process arguments instead of the tests.
const daemonEnv = "PRIVRANGED_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterServing signals a durable daemon the moment it
// announces itself, as a supervisor restarting it would. Every time it
// must shut down cleanly: exit 0, say so, and compact its WAL.
func TestSIGTERMRightAfterServing(t *testing.T) {
	for i := 0; i < 8; i++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-nodes", "4", "-wal", dir)
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A daemon that ignores the signal must fail the test, not hang it.
		watchdog := time.AfterFunc(time.Minute, func() { _ = cmd.Process.Kill() })
		var lines []string
		signalled := false
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines = append(lines, sc.Text())
			if !signalled && strings.Contains(sc.Text(), "privranged: serving") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				signalled = true
			}
		}
		err = cmd.Wait()
		watchdog.Stop()
		out := strings.Join(lines, "\n")
		if err != nil || !signalled || !strings.Contains(out, "privranged: shutting down") {
			t.Fatalf("run %d: exit %v, signalled %v, output:\n%s", i, err, signalled, out)
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
			t.Fatalf("run %d: WAL not compacted: %v", i, err)
		}
	}
}
