package lint_test

import (
	"testing"

	"privrange/internal/lint"
	"privrange/internal/lint/analysistest"
)

// Each analyzer's golden fixture contains at least one case it must
// flag and one sanctioned shape it must stay silent on; the harness
// fails on any mismatch in either direction.

func TestNoiseSource(t *testing.T)     { analysistest.Run(t, lint.NoiseSource, "noisesource") }
func TestPrivacyBoundary(t *testing.T) { analysistest.Run(t, lint.PrivacyBoundary, "privacyboundary") }
func TestBudgetFloat(t *testing.T)     { analysistest.Run(t, lint.BudgetFloat, "budgetfloat") }
func TestErrWrap(t *testing.T)         { analysistest.Run(t, lint.ErrWrap, "errwrap") }
func TestTelemetryTaint(t *testing.T)  { analysistest.Run(t, lint.PrivacyBoundary, "telemetrytaint") }
func TestLockOrder(t *testing.T)       { analysistest.Run(t, lint.LockOrder, "lockorder") }
func TestGoroutineScope(t *testing.T)  { analysistest.Run(t, lint.GoroutineScope, "goroutinescope") }

// TestSuiteCleanOnModule pins the invariant catalog to the tree: the
// full suite must report nothing on the module itself.
func TestSuiteCleanOnModule(t *testing.T) { analysistest.CleanModule(t) }
