package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
)

// This file implements the suite's modular facts layer, mirroring
// golang.org/x/tools/go/analysis facts: per-package summaries of
// exported functions are computed in dependency order, SERIALIZED to
// JSON, and consumed — decoded from those bytes, never shared as live
// pointers — by the passes analyzing dependent packages. The
// serialization round trip is deliberate: it keeps summaries
// self-contained (a fact can never smuggle a *types.Object across
// packages) and it is exactly what an on-disk fact cache would store,
// so the facts_test round-trip proves cross-package summaries survive
// the loader boundary.
//
// lockorder alone contributes and consumes facts: which locks each
// exported function may acquire (transitively), the held→acquired edges
// observed inside it, and which blocking operations it may perform. Its
// cross-package rules — a cycle spanning packages, a blocking
// operation reached through another package's function while a no-block
// lock is held — need them.

// LockMode records how a lock is held: exclusively (Lock) or shared
// (RLock).
type LockMode string

const (
	// ModeExclusive is a sync.Mutex.Lock or sync.RWMutex.Lock hold.
	ModeExclusive LockMode = "x"
	// ModeShared is a sync.RWMutex.RLock hold.
	ModeShared LockMode = "s"
)

// LockEdge is one observed "may acquire To while holding From" pair.
// Pos is a rendered file:line:col so an edge stays meaningful after
// serialization, where token.Pos values from another loader would not.
type LockEdge struct {
	From     string   `json:"from"`
	FromMode LockMode `json:"from_mode"`
	To       string   `json:"to"`
	ToMode   LockMode `json:"to_mode"`
	Pos      string   `json:"pos"`
}

// BlockOp is one potentially blocking operation a function may perform
// (directly or through callees): an fsync, a net.Conn write/read, a
// channel send.
type BlockOp struct {
	// Op names the operation class: "fsync", "net.Conn write",
	// "net.Conn read", "channel send", "time.Sleep".
	Op  string `json:"op"`
	Pos string `json:"pos"`
}

// FuncFact summarizes one exported function for dependent packages.
type FuncFact struct {
	// Acquires maps each lock the function may acquire — transitively,
	// through same-package and already-summarized cross-package calls —
	// to the strongest mode observed.
	Acquires map[string]LockMode `json:"acquires,omitempty"`
	// Blocks lists the blocking operations the function may perform,
	// transitively.
	Blocks []BlockOp `json:"blocks,omitempty"`
}

// PackageFacts is everything one package exports to its dependents.
type PackageFacts struct {
	Package string `json:"package"`
	// Funcs is keyed by "Name" or "Recv.Name" for exported functions and
	// methods.
	Funcs map[string]FuncFact `json:"funcs,omitempty"`
	// Edges is the package's full lock-order edge set, including edges
	// observed inside unexported functions: dependents need them to close
	// cycles that span packages.
	Edges []LockEdge `json:"edges,omitempty"`
}

// FactStore holds the serialized facts of every package processed so
// far, keyed by import path. Consumers decode on every read — the
// store intentionally never hands out shared mutable state.
type FactStore struct {
	encoded map[string][]byte
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{encoded: make(map[string][]byte)}
}

// Encoded returns the serialized facts for one package (nil when the
// package was never summarized). The bytes are the canonical exchange
// format; tests use this to prove the round trip.
func (s *FactStore) Encoded(pkgPath string) []byte {
	if s == nil {
		return nil
	}
	return s.encoded[pkgPath]
}

// ForPackage decodes the facts recorded for pkgPath.
func (s *FactStore) ForPackage(pkgPath string) (PackageFacts, bool) {
	if s == nil {
		return PackageFacts{}, false
	}
	raw, ok := s.encoded[pkgPath]
	if !ok {
		return PackageFacts{}, false
	}
	var pf PackageFacts
	if err := json.Unmarshal(raw, &pf); err != nil {
		return PackageFacts{}, false
	}
	return pf, true
}

// Packages lists the summarized import paths in sorted order.
func (s *FactStore) Packages() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.encoded))
	for p := range s.encoded {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AllEdges returns the union of every recorded package's lock-order
// edges. Cycle detection runs over this global graph.
func (s *FactStore) AllEdges() []LockEdge {
	var out []LockEdge
	for _, p := range s.Packages() {
		pf, ok := s.ForPackage(p)
		if !ok {
			continue
		}
		out = append(out, pf.Edges...)
	}
	return out
}

// Add computes and serializes facts for one package, assuming the facts
// of every import it needs are already in the store (callers establish
// that by processing packages in dependency order; ComputeFacts does).
func (s *FactStore) Add(pkg *Package, fset *token.FileSet) error {
	pf := PackageFacts{
		Package: pkg.PkgPath,
		Funcs:   make(map[string]FuncFact),
	}

	locks := analyzeLocks(pkg, fset, s)
	for name, sum := range locks.summaries {
		// Empty function facts are dropped so serialized facts stay
		// minimal. The summary is encoded below before anything can
		// mutate it, so the fact may share its map and slice.
		if !exportedFuncName(name) || (len(sum.acquires) == 0 && len(sum.blocks) == 0) {
			continue
		}
		pf.Funcs[name] = FuncFact{Acquires: sum.acquires, Blocks: sum.blocks}
	}
	pf.Edges = locks.edges

	raw, err := json.Marshal(&pf)
	if err != nil {
		return fmt.Errorf("lint: encoding facts for %s: %w", pkg.PkgPath, err)
	}
	s.encoded[pkg.PkgPath] = raw
	return nil
}

// ComputeFacts summarizes pkgs in dependency order (imports before
// importers) and returns the populated store. Packages outside pkgs —
// the standard library, fixtures' synthetic paths — simply have no
// facts; consumers treat absence as the empty summary.
func ComputeFacts(pkgs []*Package, fset *token.FileSet) (*FactStore, error) {
	store := NewFactStore()
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	done := make(map[string]bool, len(pkgs))
	var visit func(p *Package) error
	visit = func(p *Package) error {
		if done[p.PkgPath] {
			return nil
		}
		done[p.PkgPath] = true // pre-mark: import cycles are a compile error anyway
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		return store.Add(p, fset)
	}
	// Deterministic order for the roots keeps serialized facts stable.
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(byPath[path]); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// exportedFuncName reports whether a summary key ("Name" or
// "Recv.Name") denotes a function reachable from another package: the
// function name and, for methods, the receiver type must be exported.
func exportedFuncName(name string) bool {
	for i := 0; i < len(name); {
		c := name[i]
		if c < 'A' || c > 'Z' {
			return false
		}
		j := i
		for j < len(name) && name[j] != '.' {
			j++
		}
		if j == len(name) {
			return true
		}
		i = j + 1
	}
	return false
}
