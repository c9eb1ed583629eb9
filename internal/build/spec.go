// Package build turns BORA's primitives — Rebag's fast
// container-to-container filtering, declarative TransformSpec
// selections, and sealed containers with generation tokens — into an
// artifact-based dataset build system: the materialization layer of an
// ML training-data pipeline over bag recordings.
//
// A derivation names an output bag and describes it as a pure function
// of one source bag: (source name + the source's sealed generation
// token, canonical transform spec) hashed into a content address.
// Building materializes the derived container via BORA.Rebag and
// stamps the address into the output's meta; a later build whose
// address matches the stamp is a no-op. Because the address covers the
// source *generation*, touching a source (re-record, re-duplicate,
// repair) changes the addresses of exactly its derivations — and,
// since a rebuild mints the output a fresh generation, of their
// dependents transitively. That is the whole incremental story; no
// timestamps, no dirty bits.
//
// Derived containers are ordinary sealed containers: the pool serves
// them like any other bag, and rebuilding one under the same logical
// name is caught by the pool's existing generation-token staleness
// probes.
package build

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Derivation is one node of a build graph: materialize Transform over
// From as the logical bag Name. From may name a raw bag on the back
// end or another derivation's output (derivations of derivations).
type Derivation struct {
	Name string `json:"name"`
	From string `json:"from"`
	core.TransformSpec
}

// Graph is a validated, cycle-free set of derivations. Build order is
// the topological order computed at parse time.
type Graph struct {
	Derivations []Derivation

	order []int          // indexes into Derivations, dependencies first
	index map[string]int // output name -> Derivations index
}

// CycleError reports a dependency cycle in a build spec. It is a typed
// error so schedulers and tools can distinguish "this spec can never
// build" from transient build failures — and so the parser, not the
// scheduler, is the layer that refuses to hang.
type CycleError struct {
	// Names are the derivation outputs on the cycle, in spec order.
	Names []string
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("build: dependency cycle through %s", strings.Join(e.Names, " -> "))
}

// MaxDerivations bounds a spec file's graph size; hostile inputs
// beyond it are refused before any per-node work.
const MaxDerivations = 4096

// specFile is the on-disk JSON schema of `borabag build -f`.
type specFile struct {
	Derivations []Derivation `json:"derivations"`
}

// ParseSpec parses and validates a JSON build spec. It rejects —
// with errors, never panics or hangs — unknown fields, duplicate or
// file-system-hostile output names, self-references, invalid
// transforms (absurd windows, negative strides, non-finite bounds)
// and dependency cycles (*CycleError).
func ParseSpec(data []byte) (*Graph, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f specFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("build: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("build: trailing data after spec document")
	}
	return NewGraph(f.Derivations)
}

// NewGraph validates derivations and computes their build order.
func NewGraph(derivations []Derivation) (*Graph, error) {
	if len(derivations) == 0 {
		return nil, fmt.Errorf("build: spec declares no derivations")
	}
	if len(derivations) > MaxDerivations {
		return nil, fmt.Errorf("build: %d derivations exceeds the %d limit", len(derivations), MaxDerivations)
	}
	g := &Graph{Derivations: derivations, index: make(map[string]int, len(derivations))}
	for i, d := range derivations {
		if err := core.ValidBagName(d.Name); err != nil {
			return nil, fmt.Errorf("build: derivation %d: %w", i, err)
		}
		if dup, ok := g.index[d.Name]; ok {
			return nil, fmt.Errorf("build: duplicate output name %q (derivations %d and %d)", d.Name, dup, i)
		}
		g.index[d.Name] = i
		if err := core.ValidBagName(d.From); err != nil {
			return nil, fmt.Errorf("build: derivation %q: source: %w", d.Name, err)
		}
		if d.From == d.Name {
			return nil, &CycleError{Names: []string{d.Name}}
		}
		if _, err := d.TransformSpec.QuerySpec(); err != nil {
			return nil, fmt.Errorf("build: derivation %q: %w", d.Name, err)
		}
	}
	order, err := topoSort(g)
	if err != nil {
		return nil, err
	}
	g.order = order
	return g, nil
}

// topoSort is Kahn's algorithm over the single-parent dependency
// edges; anything left unordered is on a cycle.
func topoSort(g *Graph) ([]int, error) {
	n := len(g.Derivations)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, d := range g.Derivations {
		if p, ok := g.index[d.From]; ok {
			indeg[i]++
			dependents[p] = append(dependents[p], i)
		}
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range dependents[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) < n {
		cyc := &CycleError{}
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				cyc.Names = append(cyc.Names, g.Derivations[i].Name)
			}
		}
		return nil, cyc
	}
	return order, nil
}

// dependents returns the names of the derivations that consume name's
// output, directly or transitively — the set a rebuild of name forces.
func (g *Graph) dependents(name string) []string {
	forced := map[string]bool{name: true}
	var out []string
	// order is topological, so one pass propagates transitively.
	for _, i := range g.order {
		d := g.Derivations[i]
		if forced[d.From] && !forced[d.Name] {
			forced[d.Name] = true
			out = append(out, d.Name)
		}
	}
	return out
}

// Address computes a derivation's content address: the hash of the
// source identity (logical name + the sealed generation token of its
// current bytes) and the canonical transform encoding. Two builds
// compute the same address exactly when the source is untouched and
// the selection unchanged — the no-op-rebuild rule.
func Address(source string, sourceGen uint64, ts core.TransformSpec) (string, error) {
	canon, err := ts.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "bora-derivation v1\nsource=%s\ngen=%s\n", source, strconv.FormatUint(sourceGen, 10))
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}
