package bench

import (
	"fmt"
	"sort"
)

// Runner produces one experiment's Result.
type Runner func(Config) (*Result, error)

// registry maps experiment ids to their runners.
var registry = map[string]Runner{
	"fig2":                Fig2,
	"fig3":                Fig3,
	"fig4":                Fig4,
	"fig5":                Fig5,
	"fig6":                Fig6,
	"ablation-baseline":   AblationBaseline,
	"ablation-estimators": AblationEstimators,
	"ablation-optimizer":  AblationOptimizer,
	"ablation-arbitrage":  AblationArbitrage,
	"ablation-topology":   AblationTopology,
	"ablation-workloads":  AblationWorkloads,
}

// Experiments lists all registered experiment ids in sorted order.
func Experiments() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, c Config) (*Result, error) {
	runner, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	return runner(c)
}
