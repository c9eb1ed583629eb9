package main

import (
	"net"
	"path/filepath"
	"regexp"
	"strings"
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

// TestRemoteQueryWindowParity: `borabag -remote query` builds the same
// selection as the local path — the same windows are errors, an explicit
// epoch end among them, and the valid ones deliver the same messages,
// strided or not, in either order.
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
		name    string
		window  []string
		wantErr bool // on both paths
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
		{name: "explicit epoch end", window: []string{"-end", "0"}, wantErr: true},
		{name: "stride 10", window: []string{"-stride", "10"}},
		{name: "stride 10 inside the recording", window: []string{"-stride", "10", "-start", "1500000000.5", "-end", "1500000001"}},
		{name: "stride 10 chrono", window: []string{"-stride", "10", "-chrono"}},
		{name: "negative stride", window: []string{"-stride", "-1"}, wantErr: true},
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
			if (rerr != nil) != tt.wantErr {
				t.Fatalf("remote error = %v, want error: %v", rerr, tt.wantErr)
			}
			if remote != local {
				t.Errorf("remote delivered %q, local %q", remote, local)
			}
			if (strings.HasPrefix(tt.name, "stride") || strings.HasSuffix(tt.name, "inside the recording")) && (local == all || local == "0 messages, 0 bytes") {
				t.Errorf("fixture: window %v delivered %q of %q, want a proper subset", tt.window, local, all)
			}
		})
	}
}
