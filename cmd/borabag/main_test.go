package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// chdirTemp moves the test into a temp directory so relative output
// paths stay contained.
func chdirTemp(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// captureStdout runs cmd and returns what it printed to standard output,
// with its error.
func captureStdout(t *testing.T, cmd func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	cerr := cmd()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), cerr
}

func TestRecordInfoDuplicateQueryExport(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")

	if err := cmdRecord([]string{"-o", "demo.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := cmdInfo([]string{"demo.bag"}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "demo.bag"}); err != nil {
		t.Fatalf("duplicate: %v", err)
	}
	if err := cmdLs([]string{"-backend", backend}); err != nil {
		t.Fatalf("ls: %v", err)
	}
	if err := cmdTopics([]string{"-backend", backend, "-name", "demo"}); err != nil {
		t.Fatalf("topics: %v", err)
	}
	if err := cmdQuery([]string{"-backend", backend, "-name", "demo", "-topics", "/imu", "-q"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := cmdQuery([]string{"-backend", backend, "-name", "demo", "-topics", "/imu", "-q",
		"-start", "1500000000", "-end", "1500000000.5"}); err != nil {
		t.Fatalf("time query: %v", err)
	}
	if err := cmdExport([]string{"-backend", backend, "-name", "demo", "-o", "out.bag"}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := cmdInfo([]string{"out.bag"}); err != nil {
		t.Fatalf("info on export: %v", err)
	}
	if err := cmdRebag([]string{"-backend", backend, "-name", "demo", "-out", "sub", "-topics", "/tf"}); err != nil {
		t.Fatalf("rebag: %v", err)
	}
	if err := cmdQuery([]string{"-backend", backend, "-name", "sub", "-q"}); err != nil {
		t.Fatalf("query rebagged: %v", err)
	}
}

func TestReindexCommand(t *testing.T) {
	chdirTemp(t)
	if err := cmdRecord([]string{"-o", "full.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("full.bag")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("broken.bag", raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdReindex([]string{"-o", "fixed.bag", "broken.bag"}); err != nil {
		t.Fatalf("reindex: %v", err)
	}
	if err := cmdInfo([]string{"fixed.bag"}); err != nil {
		t.Fatalf("info on reindexed: %v", err)
	}
}

func TestCommandValidation(t *testing.T) {
	chdirTemp(t)
	if err := cmdInfo([]string{}); err == nil {
		t.Error("info with no args accepted")
	}
	if err := cmdInfo([]string{"missing.bag"}); err == nil {
		t.Error("info on missing file accepted")
	}
	if err := cmdDuplicate([]string{"-backend", "b"}); err == nil {
		t.Error("duplicate with no source accepted")
	}
	if err := cmdLs([]string{}); err == nil {
		t.Error("ls without backend accepted")
	}
	if err := cmdQuery([]string{"-backend", t.TempDir(), "-name", "missing"}); err == nil {
		t.Error("query on missing bag accepted")
	}
	if err := cmdRebag([]string{"-backend", t.TempDir(), "-name", "x"}); err == nil {
		t.Error("rebag without -out accepted")
	}
	if err := cmdReindex([]string{}); err == nil {
		t.Error("reindex with no args accepted")
	}
}

func TestVerifyCommand(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")
	if err := cmdRecord([]string{"-o", "v.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "v.bag"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-backend", backend, "-name", "v"}); err != nil {
		t.Fatalf("verify on clean bag: %v", err)
	}
	// Corrupt one data file, verification must fail.
	matches, err := filepath.Glob(filepath.Join(backend, "v", "*", "data"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no data files found: %v", err)
	}
	buf, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(matches[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-backend", backend, "-name", "v"}); err == nil {
		t.Error("verify passed on corrupted container")
	}
}

func TestBagInfoAndPlayCommands(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")
	if err := cmdRecord([]string{"-o", "p.bag", "-seconds", "1", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "p.bag"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBagInfo([]string{"-backend", backend, "-name", "p"}); err != nil {
		t.Fatalf("baginfo: %v", err)
	}
	if err := cmdPlay([]string{"-q", "-instant", "p.bag"}); err != nil {
		t.Fatalf("play: %v", err)
	}
	if err := cmdPlay([]string{"missing.bag"}); err == nil {
		t.Error("play on missing bag accepted")
	}
	if err := cmdBagInfo([]string{"-backend", backend, "-name", "missing"}); err == nil {
		t.Error("baginfo on missing bag accepted")
	}
}
