package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestWindowFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	window := windowFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if start, end := window(); start != nil || end != nil {
		t.Errorf("unset flags resolved to %v, %v", start, end)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	window = windowFlags(fs)
	if err := fs.Parse([]string{"-start", "0", "-end", "3.5"}); err != nil {
		t.Fatal(err)
	}
	start, end := window()
	if start == nil || *start != 0 {
		t.Errorf("explicit -start 0 resolved to %v", start)
	}
	if end == nil || *end != 3.5 {
		t.Errorf("-end 3.5 resolved to %v", end)
	}
}

// TestRebagExplicitZeroEnd is the regression for the old value-based
// flag guards: an explicit `-end 0` must never silently read as unset
// (which would copy the whole bag). An end at the epoch selects nothing
// a recorder writes, so it is refused, and no output bag is made.
func TestRebagExplicitZeroEnd(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")
	if err := cmdRecord([]string{"-o", "r.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "r.bag"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRebag([]string{"-backend", backend, "-name", "r", "-out", "none", "-end", "0"}); err == nil {
		t.Fatal("rebag -end 0 accepted")
	}
	b, err := openBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open("none"); err == nil {
		t.Error("rebag -end 0 made an output bag")
	}
	// Unset -end still means "to the bag's end".
	if err := cmdRebag([]string{"-backend", backend, "-name", "r", "-out", "all", "-topics", "/imu", "-stride", "2"}); err != nil {
		t.Fatalf("rebag: %v", err)
	}
	full, err := b.Open("r")
	if err != nil {
		t.Fatal(err)
	}
	imu, err := full.MessageCount("/imu")
	if err != nil {
		t.Fatal(err)
	}
	half, err := b.Open("all")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := half.MessageCount(); err != nil || n != (imu+1)/2 {
		t.Errorf("rebag -stride 2 kept %d of %d /imu messages (err %v)", n, imu, err)
	}
}

func TestBuildCommand(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")
	if err := cmdRecord([]string{"-o", "s.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "-name", "src", "s.bag"}); err != nil {
		t.Fatal(err)
	}
	spec := `{
		"derivations": [
			{"name": "imu", "from": "src", "topics": ["/imu"]},
			{"name": "imu-half", "from": "imu", "stride": 2}
		]
	}`
	if err := os.WriteFile("dataset.json", []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-backend", backend, "-f", "dataset.json"}); err != nil {
		t.Fatalf("cold build: %v", err)
	}
	// Second run is a pure cache hit and must leave outputs openable.
	if err := cmdBuild([]string{"-backend", backend, "-f", "dataset.json", "-q"}); err != nil {
		t.Fatalf("no-op build: %v", err)
	}
	b, err := openBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	imu, err := b.Open("imu")
	if err != nil {
		t.Fatal(err)
	}
	n, err := imu.MessageCount()
	if err != nil || n == 0 {
		t.Fatalf("derived imu bag has %d messages (err %v)", n, err)
	}
	half, err := b.Open("imu-half")
	if err != nil {
		t.Fatal(err)
	}
	if hn, err := half.MessageCount(); err != nil || hn != (n+1)/2 {
		t.Errorf("imu-half has %d messages of %d (err %v)", hn, n, err)
	}

	if err := cmdBuild([]string{"-backend", backend, "-f", "missing.json"}); err == nil {
		t.Error("build with missing spec accepted")
	}
	if err := os.WriteFile("cycle.json", []byte(`{"derivations": [{"name": "a", "from": "a"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-backend", backend, "-f", "cycle.json"}); err == nil {
		t.Error("cyclic spec accepted")
	}
}
