package build

import (
	"errors"
	"testing"
)

// FuzzParseSpec feeds the spec parser hostile JSON — cycles, duplicate
// output names, absurd windows and strides, traversal names, deep
// nesting — and pins the contract: ParseSpec terminates with either an
// error (cycles specifically a *CycleError) or a Graph whose build
// order is a complete, dependency-first permutation. It must never
// panic and never hang.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		`{"derivations": [{"name": "a", "from": "src", "topics": ["/imu"], "stride": 2}]}`,
		`{"derivations": [{"name": "a", "from": "b"}, {"name": "b", "from": "a"}]}`,
		`{"derivations": [{"name": "a", "from": "a"}]}`,
		`{"derivations": [{"name": "a", "from": "s"}, {"name": "a", "from": "s"}]}`,
		`{"derivations": [{"name": "a", "from": "s", "start_sec": 1e300, "end_sec": -5}]}`,
		`{"derivations": [{"name": "a", "from": "s", "stride": -9000000000000000000}]}`,
		`{"derivations": [{"name": "../../etc", "from": "s"}]}`,
		`{"derivations": [{"name": "a", "from": "s", "start_sec": null, "topics": []}]}`,
		"{\"derivations\": [{\"name\": \"a\\u0000b\", \"from\": \"x\\ny\"}]}",
		`{"derivations"`,
		`[]`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseSpec(data)
		if err != nil {
			if g != nil {
				t.Fatal("error with non-nil graph")
			}
			var cyc *CycleError
			if errors.As(err, &cyc) && len(cyc.Names) == 0 {
				t.Fatal("cycle error names no derivations")
			}
			return
		}
		// Accepted specs must be fully ordered, dependencies first.
		if len(g.order) != len(g.Derivations) {
			t.Fatalf("order covers %d of %d derivations", len(g.order), len(g.Derivations))
		}
		rank := map[string]int{}
		for pos, i := range g.order {
			name := g.Derivations[i].Name
			if _, dup := rank[name]; dup {
				t.Fatalf("duplicate output %q accepted", name)
			}
			rank[name] = pos
		}
		for _, d := range g.Derivations {
			if _, internal := g.index[d.From]; internal && rank[d.From] > rank[d.Name] {
				t.Fatalf("dependency %q ordered after %q", d.From, d.Name)
			}
			if _, err := d.TransformSpec.QuerySpec(); err != nil {
				t.Fatalf("invalid transform accepted: %v", err)
			}
			if _, err := Address(d.From, 1, d.TransformSpec); err != nil {
				t.Fatalf("accepted derivation cannot be addressed: %v", err)
			}
		}
	})
}
