package main

import (
	"net"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/server"
)

// queryCounts runs `borabag query -q` with args and returns the
// "N messages, B bytes" of its summary line, or its error.
func queryCounts(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, qerr := captureStdout(t, func() error { return cmdQuery(append([]string{"-q"}, args...)) })
	return regexp.MustCompile(`\d+ messages, \d+ bytes`).FindString(out), qerr
}

// TestRemoteQueryWindowParity: `borabag -remote query` takes -start/-end
// through the same validation as the local path — the same windows are
// errors, the valid ones deliver the same messages — and refuses the one
// window the wire cannot express instead of widening it to the whole bag.
func TestRemoteQueryWindowParity(t *testing.T) {
	dir := chdirTemp(t)
	backend := filepath.Join(dir, "backend")
	if err := cmdRecord([]string{"-o", "w.bag", "-seconds", "2", "-scale", "4000"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDuplicate([]string{"-backend", backend, "w.bag"}); err != nil {
		t.Fatal(err)
	}
	b, err := openBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	all, err := queryCounts(t, "-backend", backend, "-name", "w", "-topics", "/imu")
	if err != nil || all == "" {
		t.Fatalf("unbounded local query: %q, %v", all, err)
	}
	for _, tt := range []struct {
		name       string
		window     []string
		wantErr    bool // on both paths
		remoteOnly bool // an error remotely, a valid (empty) window locally
	}{
		{name: "unbounded"},
		{name: "inside the recording", window: []string{"-start", "1500000000.5", "-end", "1500000001"}},
		{name: "explicit epoch start", window: []string{"-start", "0"}},
		{name: "end before the recording", window: []string{"-end", "5"}},
		{name: "negative start", window: []string{"-start", "-5"}, wantErr: true},
		{name: "negative end", window: []string{"-end", "-1"}, wantErr: true},
		{name: "start beyond u32 seconds", window: []string{"-start", "5e9"}, wantErr: true},
		{name: "NaN end", window: []string{"-end", "NaN"}, wantErr: true},
		{name: "end before start", window: []string{"-start", "1500000001", "-end", "1500000000"}, wantErr: true},
		{name: "explicit epoch end", window: []string{"-end", "0"}, remoteOnly: true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			args := append([]string{"-name", "w", "-topics", "/imu"}, tt.window...)
			local, lerr := queryCounts(t, append([]string{"-backend", backend}, args...)...)
			remoteAddr = ln.Addr().String()
			remote, rerr := queryCounts(t, args...)
			remoteAddr = ""
			if (lerr != nil) != tt.wantErr {
				t.Fatalf("local error = %v, want error: %v", lerr, tt.wantErr)
			}
			if (rerr != nil) != (tt.wantErr || tt.remoteOnly) {
				t.Fatalf("remote error = %v, want error: %v", rerr, tt.wantErr || tt.remoteOnly)
			}
			if tt.remoteOnly {
				if local != "0 messages, 0 bytes" {
					t.Errorf("local -end 0 delivered %q, want nothing", local)
				}
				return
			}
			if remote != local {
				t.Errorf("remote delivered %q, local %q", remote, local)
			}
			if tt.name == "inside the recording" && (local == all || local == "0 messages, 0 bytes") {
				t.Errorf("fixture: window %v delivered %q of %q, want a proper subset", tt.window, local, all)
			}
		})
	}
}
