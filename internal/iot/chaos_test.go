package iot

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// ingestAll loads a few fresh readings into every node so the next
// collection round has to attempt the whole deployment.
func ingestAll(t *testing.T, nw *Network, round int) {
	t.Helper()
	for id := 0; id < nw.NumNodes(); id++ {
		if err := nw.Ingest(id, []float64{float64(round), float64(round) + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
}

func contains(ids []int, want int) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestChaosScriptedScenario is the acceptance scenario: ≥25% per-node
// loss on a quarter of the nodes, two crash/recover windows, nonzero
// corruption. Collection rounds must keep completing with reports that
// show partial progress while the crashed node is out, and full
// recovery afterwards.
func TestChaosScriptedScenario(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 8, 4000, 31)
	faults := map[int]FaultProfile{
		0: {LossRate: 0.3, CorruptRate: 0.25},
		1: {LossRate: 0.25},
		2: {CrashWindows: []CrashWindow{{From: 2, Until: 4}, {From: 6, Until: 8}}},
	}
	nw, err := New(parts, Config{Seed: 33, MaxRetries: 8, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nw.EnsureRate(0.2)
	if err != nil {
		t.Fatalf("round 1 (no faults active yet) should complete: %v", err)
	}
	if !rep.Complete() || len(rep.Refreshed) != 8 {
		t.Fatalf("round 1 should refresh all nodes: %+v", rep)
	}
	crashed := func(round uint64) bool {
		return (round >= 2 && round < 4) || (round >= 6 && round < 8)
	}
	for round := 2; round <= 9; round++ {
		ingestAll(t, nw, round)
		rep, err := nw.EnsureRate(0.2)
		if rep == nil {
			t.Fatalf("round %d: no report", round)
		}
		if rep.Round != uint64(round) {
			t.Fatalf("round clock %d, want %d", rep.Round, round)
		}
		if crashed(rep.Round) {
			if !errors.Is(err, ErrPartialRound) {
				t.Fatalf("round %d: crashed node should make the round partial, got err=%v", round, err)
			}
			if _, ok := rep.Failed[2]; !ok {
				t.Fatalf("round %d: node 2 should be in Failed, got %v", round, rep.FailedIDs())
			}
			// Partial progress: the other seven nodes were still refreshed.
			if len(rep.Refreshed) != 7 {
				t.Fatalf("round %d: want 7 refreshed, got %v", round, rep.Refreshed)
			}
			if rep.Coverage >= 1 {
				t.Fatalf("round %d: coverage should reflect the crashed node, got %v", round, rep.Coverage)
			}
			// The crashed node's stale sample keeps serving at its old rate.
			if rep.Achieved != 0.2 {
				t.Fatalf("round %d: achieved rate %v, want 0.2", round, rep.Achieved)
			}
		} else {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !contains(rep.Refreshed, 2) {
				t.Fatalf("round %d: recovered node 2 should be re-collected, got %v", round, rep.Refreshed)
			}
			if rep.Coverage != 1 {
				t.Fatalf("round %d: full coverage expected, got %v", round, rep.Coverage)
			}
		}
	}
	if got := nw.Rate(); got != 0.2 {
		t.Errorf("final rate %v, want 0.2", got)
	}
	cost := nw.Cost()
	if cost.CorruptedMessages == 0 {
		t.Error("corruption was injected but never detected")
	}
	if cost.Retransmissions == 0 {
		t.Error("lossy links should have forced retransmissions")
	}
}

// TestChaosMatrix sweeps loss × corruption × churn and checks every cell
// stays serviceable: each round accounts for every node, only partial-
// round errors surface, and the deployment holds its rate guarantee.
func TestChaosMatrix(t *testing.T) {
	t.Parallel()
	for _, loss := range []float64{0, 0.3} {
		for _, corrupt := range []float64{0, 0.3} {
			for _, churn := range []bool{false, true} {
				loss, corrupt, churn := loss, corrupt, churn
				name := fmt.Sprintf("loss=%v/corrupt=%v/churn=%v", loss, corrupt, churn)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					parts, _ := buildParts(t, 4, 1200, 41)
					prof := FaultProfile{LossRate: loss, CorruptRate: corrupt}
					if churn {
						prof.CrashWindows = []CrashWindow{{From: 2, Until: 3}}
					}
					nw, err := New(parts, Config{Seed: 43, MaxRetries: 10, Faults: map[int]FaultProfile{1: prof}})
					if err != nil {
						t.Fatal(err)
					}
					for round := 1; round <= 4; round++ {
						ingestAll(t, nw, round)
						rep, err := nw.EnsureRate(0.25)
						if err != nil && !errors.Is(err, ErrPartialRound) {
							t.Fatalf("round %d: non-partial error %v", round, err)
						}
						if rep == nil {
							t.Fatalf("round %d: no report", round)
						}
						accounted := rep.Attempted() + len(rep.Satisfied) + len(rep.Skipped)
						if accounted != 4 {
							t.Fatalf("round %d accounts for %d of 4 nodes: %+v", round, accounted, rep)
						}
					}
					if got := nw.Rate(); got != 0.25 {
						t.Errorf("final rate %v, want 0.25 (deployment did not converge)", got)
					}
				})
			}
		}
	}
}

// TestCorruptionBilledAndCounted: corrupted deliveries crossed the wire,
// so every attempt must be billed and counted even though the exchange
// ultimately fails (satellite: transmit's corruption path returned
// before billing).
func TestCorruptionBilledAndCounted(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 1, 300, 51)
	nw, err := New(parts, Config{Seed: 53, MaxRetries: 2, Faults: map[int]FaultProfile{
		0: {CorruptRate: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := nw.EnsureRate(0.5)
	if !errors.Is(err, ErrPartialRound) {
		t.Fatalf("always-corrupting link should fail the round, got %v", err)
	}
	if _, ok := rep.Failed[0]; !ok {
		t.Fatalf("node 0 should have failed: %+v", rep)
	}
	cost := nw.Cost()
	// MaxRetries=2 means 3 attempts, each delivered corrupted.
	if cost.CorruptedMessages != 3 {
		t.Errorf("CorruptedMessages = %d, want 3", cost.CorruptedMessages)
	}
	if cost.Retransmissions != 2 {
		t.Errorf("Retransmissions = %d, want 2", cost.Retransmissions)
	}
	if cost.Bytes == 0 {
		t.Error("corrupted attempts crossed the wire and must be billed")
	}
	if cost.Messages != 0 {
		t.Errorf("no message was ever delivered intact, yet Messages = %d", cost.Messages)
	}
}

// TestCircuitBreakerTripsAndReinstates scripts the breaker lifecycle:
// consecutive failures trip it, tripped nodes are skipped without
// wasting bytes, reinstatement is half-open with exponential backoff,
// and a real recovery clears the state.
func TestCircuitBreakerTripsAndReinstates(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 600, 61)
	nw, err := New(parts, Config{
		Seed:             63,
		FailureThreshold: 2,
		BreakerBackoff:   2,
		Faults:           map[int]FaultProfile{1: {CrashWindows: []CrashWindow{{From: 1, Until: 6}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	round := func(wantRound uint64) *CollectionReport {
		t.Helper()
		rep, err := nw.EnsureRate(0.3)
		if err != nil && !errors.Is(err, ErrPartialRound) {
			t.Fatalf("round %d: %v", wantRound, err)
		}
		if rep.Round != wantRound {
			t.Fatalf("round clock %d, want %d", rep.Round, wantRound)
		}
		return rep
	}

	// Rounds 1-2: the crashed node fails twice; threshold 2 trips the
	// breaker at the end of round 2.
	for r := uint64(1); r <= 2; r++ {
		rep := round(r)
		if _, ok := rep.Failed[1]; !ok {
			t.Fatalf("round %d: node 1 should fail, got %+v", r, rep)
		}
	}
	if !nw.BreakerOpen(1) {
		t.Fatal("breaker should be open after 2 consecutive failures")
	}

	// Round 3: exiled — skipped, not attempted, no bytes wasted on it.
	bytesBefore := nw.Cost().Bytes
	rep := round(3)
	if !contains(rep.Skipped, 1) || !contains(rep.CircuitOpen, 1) {
		t.Fatalf("round 3: node 1 should be breaker-skipped: %+v", rep)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("round 3: nothing should be attempted and fail: %+v", rep)
	}
	if nw.Cost().Bytes != bytesBefore {
		t.Error("round 3 should not spend bytes on the exiled node")
	}

	// Round 4: backoff (2 rounds) expired — half-open retry, but the node
	// is still crashed: one failure re-trips immediately, backoff doubles.
	rep = round(4)
	if _, ok := rep.Failed[1]; !ok {
		t.Fatalf("round 4: half-open retry should fail, got %+v", rep)
	}
	if !nw.BreakerOpen(1) {
		t.Fatal("half-open failure must re-trip the breaker")
	}

	// Rounds 5-7: doubled backoff (4 rounds from round 4) keeps it exiled.
	for r := uint64(5); r <= 7; r++ {
		rep = round(r)
		if !contains(rep.Skipped, 1) {
			t.Fatalf("round %d: node 1 should still be exiled: %+v", r, rep)
		}
	}

	// Round 8: reinstated, crash window long over — recovery succeeds and
	// clears the breaker.
	rep = round(8)
	if !contains(rep.Refreshed, 1) {
		t.Fatalf("round 8: recovered node should be re-collected: %+v", rep)
	}
	if !rep.Complete() {
		t.Fatalf("round 8 should be complete: %+v", rep)
	}
	if nw.BreakerOpen(1) {
		t.Error("success must clear the breaker")
	}
	if got := nw.Rate(); got != 0.3 {
		t.Errorf("recovered deployment rate %v, want 0.3", got)
	}
	if got := nw.Coverage(); got != 1 {
		t.Errorf("recovered deployment coverage %v, want 1", got)
	}
}

// TestHeartbeatPartialRound: one silent node must not abort the round —
// the rest still check in and the report names the missing node
// (satellite: HeartbeatRound abort fix).
func TestHeartbeatPartialRound(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 800, 71)
	nw, err := New(parts, Config{Seed: 73, MaxRetries: 2, Faults: map[int]FaultProfile{
		2: {LossRate: 1}, // hard fault: every attempt dropped
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	rep, err := nw.HeartbeatRound()
	if !errors.Is(err, ErrPartialRound) {
		t.Fatalf("missed heartbeat should make the round partial, got %v", err)
	}
	if got := rep.MissedIDs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("MissedIDs = %v, want [2]", got)
	}
	if len(rep.Delivered) != 2 || !contains(rep.Delivered, 0) || !contains(rep.Delivered, 1) {
		t.Fatalf("nodes 0 and 1 should still heartbeat, got %v", rep.Delivered)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != 3 {
		t.Fatalf("down node 3 should be skipped, not missed: %+v", rep)
	}
}

// TestHeartbeatFeedsCircuitBreaker: repeated missed heartbeats exile a
// silent node between collections.
func TestHeartbeatFeedsCircuitBreaker(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 600, 81)
	nw, err := New(parts, Config{
		Seed:             83,
		MaxRetries:       1,
		FailureThreshold: 2,
		Faults:           map[int]FaultProfile{1: {LossRate: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := nw.HeartbeatRound(); !errors.Is(err, ErrPartialRound) {
			t.Fatalf("heartbeat round %d: want partial error, got %v", i+1, err)
		}
	}
	if !nw.BreakerOpen(1) {
		t.Fatal("two missed heartbeats at threshold 2 should trip the breaker")
	}
	// The next collection round skips the exiled node instead of burning
	// retries on it.
	rep, err := nw.EnsureRate(0.2)
	if !errors.Is(err, ErrPartialRound) && err != nil {
		t.Fatal(err)
	}
	if !contains(rep.CircuitOpen, 1) {
		t.Fatalf("collection should skip the breaker-exiled node: %+v", rep)
	}
}

// TestCrashRecoveryConsistency is the recovery-semantics satellite: a
// node that crashes mid-collection, recovers, and is re-collected must
// leave Rate(), Coverage(), and the sample-state version consistent.
func TestCrashRecoveryConsistency(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 2000, 91)
	nw, err := New(parts, Config{Seed: 93, Faults: map[int]FaultProfile{
		3: {CrashWindows: []CrashWindow{{From: 2, Until: 4}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: clean collection.
	if _, err := nw.EnsureRate(0.4); err != nil {
		t.Fatal(err)
	}
	v1 := nw.StateVersion()
	if got := nw.Coverage(); got != 1 {
		t.Fatalf("coverage before crash %v, want 1", got)
	}

	// Rounds 2-3: node 3 senses new data but is crashed; collection is
	// partial and the base station's state must not move.
	if err := nw.Ingest(3, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 3; r++ {
		rep, err := nw.EnsureRate(0.4)
		if !errors.Is(err, ErrPartialRound) {
			t.Fatalf("round %d: want partial error, got %v", r, err)
		}
		if _, ok := rep.Failed[3]; !ok {
			t.Fatalf("round %d: node 3 should fail: %+v", r, rep)
		}
		if rep.Achieved != 0.4 {
			t.Fatalf("round %d: stale sample keeps the 0.4 guarantee, got %v", r, rep.Achieved)
		}
		if rep.Coverage >= 1 {
			t.Fatalf("round %d: coverage should drop while crashed, got %v", r, rep.Coverage)
		}
	}
	if nw.StateVersion() != v1 {
		t.Fatalf("failed rounds must not move the sample-state version: %d -> %d", v1, nw.StateVersion())
	}
	if got := nw.Rate(); got != 0.4 {
		t.Fatalf("rate during outage %v, want 0.4 (stale guarantee)", got)
	}

	// Round 4: recovered — re-collection picks up the data sensed while
	// crashed, bumps the version, and restores full coverage.
	rep, err := nw.EnsureRate(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.Refreshed, 3) {
		t.Fatalf("recovered node should be re-collected: %+v", rep)
	}
	if nw.StateVersion() <= v1 {
		t.Error("recovery re-collection must bump the sample-state version")
	}
	if got := nw.Rate(); got != 0.4 {
		t.Errorf("rate after recovery %v, want 0.4", got)
	}
	if got := nw.Coverage(); got != 1 {
		t.Errorf("coverage after recovery %v, want 1", got)
	}
	if got := nw.base.TotalN(); got != nw.TotalN() {
		t.Errorf("base station sees %d records, network has %d", got, nw.TotalN())
	}
}

// TestFaultProfileValidation: malformed profiles are rejected at New.
func TestFaultProfileValidation(t *testing.T) {
	t.Parallel()
	cases := []FaultProfile{
		{LossRate: -0.1},
		{LossRate: 1.5},
		{CorruptRate: -1},
		{CorruptRate: 2},
		{LossRate: math.NaN()},
		{CorruptRate: math.NaN()},
		{CrashWindows: []CrashWindow{{From: 5, Until: 5}}},
		{CrashWindows: []CrashWindow{{From: 5, Until: 3}}},
	}
	for i, prof := range cases {
		if _, err := New([][]float64{{1, 2}}, Config{Faults: map[int]FaultProfile{0: prof}}); err == nil {
			t.Errorf("case %d: profile %+v should be rejected", i, prof)
		}
	}
	if _, err := New([][]float64{{1, 2}}, Config{FailureThreshold: -1}); err == nil {
		t.Error("negative failure threshold should be rejected")
	}
	if _, err := New([][]float64{{1, 2}}, Config{BreakerBackoff: -1}); err == nil {
		t.Error("negative breaker backoff should be rejected")
	}
}
