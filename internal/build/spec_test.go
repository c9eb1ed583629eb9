package build

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseSpec(t *testing.T) {
	g, err := ParseSpec([]byte(`{
		"derivations": [
			{"name": "half", "from": "full", "stride": 2},
			{"name": "full", "from": "src", "topics": ["/imu", "/tf"]},
			{"name": "late", "from": "half", "start_sec": 100.5}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Derivations) != 3 {
		t.Fatalf("parsed %d derivations", len(g.Derivations))
	}
	// Build order puts dependencies first regardless of spec order.
	pos := map[string]int{}
	for rank, i := range g.order {
		pos[g.Derivations[i].Name] = rank
	}
	if !(pos["full"] < pos["half"] && pos["half"] < pos["late"]) {
		t.Errorf("build order %v", pos)
	}
	if deps := g.dependents("full"); len(deps) != 2 {
		t.Errorf("dependents(full) = %v", deps)
	}
	if deps := g.dependents("late"); len(deps) != 0 {
		t.Errorf("dependents(late) = %v", deps)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"empty graph", `{"derivations": []}`, "no derivations"},
		{"unknown field", `{"derivations": [{"name": "a", "from": "s", "strde": 2}]}`, "strde"},
		{"trailing data", `{"derivations": [{"name": "a", "from": "s"}]} {}`, "trailing"},
		{"duplicate name", `{"derivations": [{"name": "a", "from": "s"}, {"name": "a", "from": "s"}]}`, "duplicate"},
		{"empty name", `{"derivations": [{"name": "", "from": "s"}]}`, "empty"},
		{"path separator", `{"derivations": [{"name": "a/b", "from": "s"}]}`, "separator"},
		{"traversal", `{"derivations": [{"name": "..", "from": "s"}]}`, "traversal"},
		{"hidden name", `{"derivations": [{"name": ".sneaky", "from": "s"}]}`, "hidden"},
		{"empty from", `{"derivations": [{"name": "a", "from": ""}]}`, "empty"},
		{"negative stride", `{"derivations": [{"name": "a", "from": "s", "stride": -1}]}`, "stride"},
		{"inverted window", `{"derivations": [{"name": "a", "from": "s", "start_sec": 9, "end_sec": 1}]}`, "window"},
		{"absurd bound", `{"derivations": [{"name": "a", "from": "s", "end_sec": 1e30}]}`, "representable"},
		{"not json", `derivations:`, "parse"},
	}
	for _, tc := range cases {
		g, err := ParseSpec([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: accepted (%+v)", tc.name, g)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecCycles(t *testing.T) {
	cycles := []string{
		`{"derivations": [{"name": "a", "from": "a"}]}`,
		`{"derivations": [{"name": "a", "from": "b"}, {"name": "b", "from": "a"}]}`,
		`{"derivations": [
			{"name": "ok", "from": "src"},
			{"name": "a", "from": "c"}, {"name": "b", "from": "a"}, {"name": "c", "from": "b"}
		]}`,
	}
	for i, spec := range cycles {
		_, err := ParseSpec([]byte(spec))
		var cyc *CycleError
		if !errors.As(err, &cyc) {
			t.Errorf("cycle %d: error %v is not a *CycleError", i, err)
			continue
		}
		if len(cyc.Names) == 0 {
			t.Errorf("cycle %d: no names reported", i)
		}
		for _, name := range cyc.Names {
			if name == "ok" {
				t.Errorf("cycle %d blamed acyclic derivation %q", i, name)
			}
		}
	}
}

func TestAddress(t *testing.T) {
	ts := core.TransformSpec{Topics: []string{"/imu"}, Stride: 2}
	a1, err := Address("src", 41, ts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Address("src", 41, core.TransformSpec{Topics: []string{"/imu", "/imu"}, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != again {
		t.Error("equivalent transforms hash differently")
	}
	distinct := map[string]string{"same": a1}
	for label, addr := range map[string]func() (string, error){
		"other source": func() (string, error) { return Address("src2", 41, ts) },
		"other gen":    func() (string, error) { return Address("src", 42, ts) },
		"other stride": func() (string, error) { return Address("src", 41, core.TransformSpec{Topics: []string{"/imu"}}) },
	} {
		a, err := addr()
		if err != nil {
			t.Fatal(err)
		}
		for other, prev := range distinct {
			if a == prev {
				t.Errorf("%s collides with %s", label, other)
			}
		}
		distinct[label] = a
	}
	if _, err := Address("src", 1, core.TransformSpec{Stride: -1}); err == nil {
		t.Error("invalid transform addressed")
	}
}
