package vfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

func mountTestFS(t *testing.T) *FS {
	t.Helper()
	dir := t.TempDir()
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(backend, filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// opCount reads how many front-end calls of one kind fs has served off
// its backend's registry (op is the vfs.* suffix: "create", "write" ...).
func opCount(fs *FS, op string) int64 {
	return fs.backend.Obs().Snapshot().Ops["vfs."+op].Count
}

// writeSourceBag produces a small real Handheld-SLAM-like bag on disk.
func writeSourceBag(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(path, workload.SyntheticOptions{Seconds: 1, ScaleDown: 4000}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWriteThroughFrontEnd(t *testing.T) {
	fs := mountTestFS(t)
	src := writeSourceBag(t, t.TempDir())

	// "Put bag file to the mount point": stream it through the front end.
	w, err := fs.Create("sample.bag")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw[len(raw)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close (organize): %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close accepted")
	}

	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "sample.bag" {
		t.Fatalf("List = %v", names)
	}
	if sz, err := fs.Stat("sample.bag"); err != nil || sz <= 0 {
		t.Errorf("Stat = %d, %v", sz, err)
	}
	if c, w, cl := opCount(fs, "create"), opCount(fs, "write"), opCount(fs, "close"); c != 1 || w != 2 || cl == 0 {
		t.Errorf("vfs ops: %d creates, %d writes, %d closes; want 1, 2, > 0", c, w, cl)
	}
}

// TestStatSumsEverySegment: Stat of a complete live bag counts the
// payload of every segment — a topic that spans two segments, and one
// that first appears in the second.
func TestStatSumsEverySegment(t *testing.T) {
	dir := t.TempDir()
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := backend.CreateLiveBag("two", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	write := func(topic string, ns int64, n int) {
		conn, err := rec.AddConnection(topic, "bora_test/Msg")
		if err == nil {
			err = rec.WriteMessage(conn, bagio.TimeFromNanos(ns), make([]byte, n))
		}
		if err != nil {
			t.Fatal(err)
		}
		want += int64(n)
	}
	write("/a", 1e18, 10)
	write("/a", 1e18+2e9, 20) // a new window: the second segment
	write("/b", 1e18+2e9+1, 40)
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	if bag, err := backend.Open("two"); err != nil || len(bag.Segments()) != 2 {
		t.Fatalf("the fixture is not a two-segment bag: %v", err)
	}
	fs, err := Mount(backend, filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Stat("two.bag"); err != nil || got != want {
		t.Errorf("Stat = %d, %v; want %d, the payload bytes of both segments", got, err, want)
	}
}

func TestReadBackThroughFrontEndWithStockReader(t *testing.T) {
	fs := mountTestFS(t)
	srcDir := t.TempDir()
	src := writeSourceBag(t, srcDir)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("roundtrip.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The reconstructed stream must parse with the stock reader and carry
	// the same messages.
	rf, err := fs.Open("roundtrip.bag")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if rf.Size() <= 0 {
		t.Fatal("empty reconstructed bag")
	}
	r, err := rosbag.OpenReader(rf, rf.Size())
	if err != nil {
		t.Fatalf("stock reader on reconstructed bag: %v", err)
	}
	orig, f, err := rosbag.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, want := r.MessageCount(), orig.MessageCount(); got != want {
		t.Errorf("reconstructed has %d messages, source %d", got, want)
	}
	if got, want := len(r.Topics()), len(orig.Topics()); got != want {
		t.Errorf("reconstructed has %d topics, source %d", got, want)
	}
	count := 0
	if err := r.ReadMessages(rosbag.Query{Topics: []string{workload.TopicIMU}}, func(m rosbag.MessageRef) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int(orig.MessageCount(workload.TopicIMU)); count != want {
		t.Errorf("imu messages = %d, want %d", count, want)
	}
}

// TestConcurrentOpensDoNotClobber is the regression test for the fixed
// snapshot path: Open used to materialize every reader's snapshot at
// workDir/snap-<base>.bag, so concurrent Opens of the same bag truncated
// each other's stream mid-read and a Close unlinked a snapshot another
// reader was still using. Each of the goroutines below must see a
// complete, parseable bag with the full message count; run with -race.
func TestConcurrentOpensDoNotClobber(t *testing.T) {
	fs := mountTestFS(t)
	src := writeSourceBag(t, t.TempDir())
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("shared.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	orig, f, err := rosbag.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	want := orig.MessageCount()
	f.Close()

	const readers = 6
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rf, err := fs.Open("shared.bag")
			if err != nil {
				errs <- err
				return
			}
			defer rf.Close()
			r, err := rosbag.OpenReader(rf, rf.Size())
			if err != nil {
				errs <- fmt.Errorf("parse snapshot: %w", err)
				return
			}
			var n uint64
			if err := r.ReadMessages(rosbag.Query{}, func(m rosbag.MessageRef) error {
				n++
				return nil
			}); err != nil {
				errs <- fmt.Errorf("read snapshot: %w", err)
				return
			}
			if n != want {
				errs <- fmt.Errorf("reader saw %d messages, want %d", n, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every Close unlinked its own snapshot: the spool dir is empty again.
	ents, err := os.ReadDir(fs.workDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spool dir not empty after all readers closed: %v", ents)
	}
}

// TestConcurrentCreatesDoNotClobberSpool is the write-side half of the
// same bug: two in-flight Creates of one bag name used to share
// workDir/spool-<base>.bag, interleaving their bytes into garbage. Now
// each spools privately; the name conflict surfaces at Close, when the
// back end refuses a second container, and the surviving bag must be
// intact.
func TestConcurrentCreatesDoNotClobberSpool(t *testing.T) {
	fs := mountTestFS(t)
	src := writeSourceBag(t, t.TempDir())
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	files := make([]*WriteFile, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		w, err := fs.Create("contended.bag")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = w
		wg.Add(1)
		go func(w *WriteFile) {
			defer wg.Done()
			// Chunked writes maximize interleaving windows.
			for off := 0; off < len(raw); off += 4096 {
				end := off + 4096
				if end > len(raw) {
					end = len(raw)
				}
				if _, err := w.Write(raw[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Closes are serialized: exactly the first organizes the container,
	// the rest must fail on the name conflict instead of corrupting it.
	if err := files[0].Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 1; i < writers; i++ {
		if err := files[i].Close(); err == nil {
			t.Errorf("Close %d should have failed on the name conflict", i)
		}
	}
	rf, err := fs.Open("contended.bag")
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r, err := rosbag.OpenReader(rf, rf.Size())
	if err != nil {
		t.Fatalf("surviving bag does not parse: %v", err)
	}
	orig, f, err := rosbag.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, want := r.MessageCount(), orig.MessageCount(); got != want {
		t.Errorf("surviving bag has %d messages, want %d", got, want)
	}
}

func TestFrontEndValidation(t *testing.T) {
	fs := mountTestFS(t)
	if _, err := fs.Create("noext"); err == nil {
		t.Error("non-.bag name accepted")
	}
	if _, err := fs.Open("missing.bag"); err == nil {
		t.Error("missing bag opened")
	}
	if _, err := fs.Stat("missing.bag"); err == nil {
		t.Error("missing bag statted")
	}
	if err := fs.Remove("missing.bag"); err == nil {
		t.Error("missing bag removed")
	}
	if _, err := fs.Create(".bag"); err == nil {
		t.Error("empty base name accepted")
	}
}

// TestFrontEndRefusesPaths: a .bag name with a directory in it is
// refused, not served as the bag its last element names.
func TestFrontEndRefusesPaths(t *testing.T) {
	fs := mountTestFS(t)
	raw, err := os.ReadFile(writeSourceBag(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("x.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err := fs.Create("dir/x.bag"); err == nil {
		w.Close()
		t.Error("Create(dir/x.bag) accepted")
	}
	if r, err := fs.Open("dir/x.bag"); err == nil {
		r.Close()
		t.Error("Open(dir/x.bag) served x")
	}
	if _, err := fs.Stat("dir/x.bag"); err == nil {
		t.Error("Stat(dir/x.bag) served x")
	}
}

func TestRemoveThroughFrontEnd(t *testing.T) {
	fs := mountTestFS(t)
	src := writeSourceBag(t, t.TempDir())
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("gone.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("gone.bag"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("List after remove = %v", names)
	}
	if n := opCount(fs, "remove"); n != 1 {
		t.Errorf("vfs.remove count = %d, want 1", n)
	}
}

// TestConcurrentOpenRemoveRace races Opens of a bag against its Remove
// (run under -race in CI). Every Open must either serve a complete
// snapshot — isolated from the concurrent unlink — or fail cleanly; no
// goroutine may observe a torn stream, and no snapshot or spool file
// may leak from the work directory afterwards.
func TestConcurrentOpenRemoveRace(t *testing.T) {
	fs := mountTestFS(t)
	src := writeSourceBag(t, t.TempDir())
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("contested.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := fs.Open("contested.bag")
			if err != nil {
				errs[i] = nil // clean failure: bag already removed
				return
			}
			defer r.Close()
			// A served snapshot must parse as a complete bag even though
			// the container is being unlinked underneath.
			br, err := rosbag.OpenReader(r, r.Size())
			if err != nil {
				errs[i] = fmt.Errorf("reader %d: snapshot does not parse: %w", i, err)
				return
			}
			if br.MessageCount() == 0 {
				errs[i] = fmt.Errorf("reader %d: snapshot has no messages", i)
			}
		}(i)
	}
	wg.Add(1)
	var removeErr error
	go func() {
		defer wg.Done()
		<-start
		removeErr = fs.Remove("contested.bag")
	}()
	close(start)
	wg.Wait()
	if removeErr != nil {
		t.Fatalf("Remove: %v", removeErr)
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	ents, err := os.ReadDir(fs.workDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		t.Errorf("work dir leaked %s", ent.Name())
	}
}

// TestSpoolNeverLeaksUnderInjectedFaults sweeps an injected I/O failure
// across every backend operation of a front-end write and asserts the
// spool file never outlives Close. This is the regression test for the
// lost-spool-file bug: Close used to register the spool unlink only
// after the spool's own Close error return, so a failing close leaked
// the file.
func TestSpoolNeverLeaksUnderInjectedFaults(t *testing.T) {
	src := writeSourceBag(t, t.TempDir())
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(plan faultfs.Plan) (*faultfs.Injector, string, error) {
		dir := t.TempDir()
		in := faultfs.NewInjector(faultfs.OS, plan)
		backend, err := core.New(filepath.Join(dir, "backend"), core.Options{FS: in})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(backend, filepath.Join(dir, "spool"))
		if err != nil {
			t.Fatal(err)
		}
		spoolDir := filepath.Join(dir, "spool")
		w, err := fs.Create("faulty.bag")
		if err != nil {
			return in, spoolDir, err
		}
		if _, err := w.Write(raw); err != nil {
			// A real caller closes on write error; the spool must go away.
			w.Close()
			return in, spoolDir, err
		}
		return in, spoolDir, w.Close()
	}

	in, _, err := run(faultfs.Plan{Seed: 1})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	total := in.Ops()
	if total < 10 {
		t.Fatalf("suspiciously few backend ops: %d", total)
	}
	stride := total/64 + 1
	for n := int64(1); n <= total; n += stride {
		_, spoolDir, runErr := run(faultfs.Plan{Seed: 11, FailAt: n})
		ents, err := os.ReadDir(spoolDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if strings.HasPrefix(ent.Name(), "spool-") {
				t.Fatalf("FailAt=%d (err=%v): leaked spool file %s", n, runErr, ent.Name())
			}
		}
	}
}

// TestReadFileCloseUnlinksOnCloseError: a snapshot whose close fails is
// still unlinked, and the close error is what Close returns.
func TestReadFileCloseUnlinksOnCloseError(t *testing.T) {
	fs := mountTestFS(t)
	w, err := fs.Create("snap.bag")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(writeSourceBag(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := fs.Open("snap.bag")
	if err != nil {
		t.Fatal(err)
	}
	path := rf.f.Name()
	if err := rf.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err == nil {
		t.Error("Close over an already-closed snapshot returned nil")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot %s survived Close: %v", path, err)
	}
}

// TestFailedOpsCountAsErrors: a front-end call that fails ends its span
// as an error in the obs snapshot, and one that succeeds does not.
func TestFailedOpsCountAsErrors(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(backend, filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("missing.bag"); err == nil {
		t.Fatal("Stat of a missing bag succeeded")
	}
	w, err := fs.Create("junk.bag")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("not a bag")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close of bytes that are not a bag succeeded")
	}
	ops := reg.Snapshot().Ops
	for _, c := range []struct {
		op            string
		count, errors int64
	}{{"vfs.stat", 1, 1}, {"vfs.close", 1, 1}, {"vfs.create", 1, 0}, {"vfs.write", 1, 0}} {
		if got := ops[c.op]; got.Count != c.count || got.Errors != c.errors {
			t.Errorf("%s: count %d, errors %d; want %d, %d", c.op, got.Count, got.Errors, c.count, c.errors)
		}
	}
}
