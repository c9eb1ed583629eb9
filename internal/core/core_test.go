package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/faultfs"
	"repro/internal/msgs"
	"repro/internal/rosbag"
)

// makeSourceBag writes a bag with three topics onto disk and returns its
// path. /imu at 10 Hz, /camera at 1 Hz, /tf at 5 Hz over `seconds`.
func makeSourceBag(t *testing.T, dir string, seconds int) string {
	t.Helper()
	path := filepath.Join(dir, "source.bag")
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000) // 1e18 ns ≈ year 2001
	for s := 0; s < seconds; s++ {
		for i := 0; i < 10; i++ {
			ts := bagio.TimeFromNanos(base + int64(s)*1e9 + int64(i)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(s*10 + i), Stamp: ts, FrameID: "/imu"}}
			if err := w.WriteMsg("/imu", ts, m); err != nil {
				t.Fatal(err)
			}
		}
		ts := bagio.TimeFromNanos(base + int64(s)*1e9 + 5e8)
		img := &msgs.Image{Header: msgs.Header{Seq: uint32(s), Stamp: ts}, Height: 8, Width: 8, Encoding: "rgb8", Step: 24, Data: bytes.Repeat([]byte{byte(s)}, 192)}
		if err := w.WriteMsg("/camera/rgb/image_color", ts, img); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			ts := bagio.TimeFromNanos(base + int64(s)*1e9 + int64(i)*2e8 + 1e7)
			tf := &msgs.TFMessage{Transforms: []msgs.TransformStamped{{Header: msgs.Header{Stamp: ts}, ChildFrameID: "/base"}}}
			if err := w.WriteMsg("/tf", ts, tf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func newBORA(t *testing.T) *BORA {
	t.Helper()
	b, err := New(filepath.Join(t.TempDir(), "backend"), Options{TimeWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDuplicateAndOpen(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 10)
	bag, stats, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatalf("Duplicate: %v", err)
	}
	if stats.Topics != 3 {
		t.Errorf("stats.Topics = %d", stats.Topics)
	}
	if stats.Messages != 160 { // 10s × (10 imu + 1 img + 5 tf)
		t.Errorf("stats.Messages = %d", stats.Messages)
	}
	if stats.Bytes <= 0 {
		t.Error("stats.Bytes not counted")
	}
	want := []string{"/camera/rgb/image_color", "/imu", "/tf"}
	if got := bag.Topics(); !reflect.DeepEqual(got, want) {
		t.Errorf("Topics = %v", got)
	}
	// Independent re-open.
	bag2, err := b.Open("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := bag2.MessageCount(); err != nil || n != 160 {
		t.Errorf("MessageCount = %d, %v", n, err)
	}
	if n, err := bag2.MessageCount("/imu"); err != nil || n != 100 {
		t.Errorf("MessageCount(/imu) = %d, %v", n, err)
	}
	names, err := b.List()
	if err != nil || !reflect.DeepEqual(names, []string{"bag1"}) {
		t.Errorf("List = %v, %v", names, err)
	}
}

func TestQueryByTopic(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	var perTopicOrdered = true
	var last bagio.Time
	err = bag.Query(QuerySpec{Topics: []string{"/imu", "/tf"}}, func(m MessageRef) error {
		if len(got) == 0 || got[len(got)-1] != m.Conn.Topic {
			got = append(got, m.Conn.Topic)
			last = bagio.Time{}
		}
		if m.Time.Before(last) {
			perTopicOrdered = false
		}
		last = m.Time
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Messages must arrive grouped per topic, in request order.
	if !reflect.DeepEqual(got, []string{"/imu", "/tf"}) {
		t.Errorf("topic grouping = %v", got)
	}
	if !perTopicOrdered {
		t.Error("per-topic timestamp order violated")
	}
	if bag.Stats().MessagesRead != 75 {
		t.Errorf("MessagesRead = %d, want 75", bag.Stats().MessagesRead)
	}
	if err := bag.Query(QuerySpec{Topics: []string{"/missing"}}, func(MessageRef) error { return nil }); err == nil {
		t.Error("unknown topic should fail via the tag table")
	}
}

func TestQueryDecodable(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 3)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = bag.Query(QuerySpec{Topics: []string{"/camera/rgb/image_color"}}, func(m MessageRef) error {
		var img msgs.Image
		if err := img.Unmarshal(m.Data); err != nil {
			t.Errorf("decode image: %v", err)
		}
		if img.Height != 8 || img.Width != 8 {
			t.Errorf("image decoded wrong: %dx%d", img.Height, img.Width)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("read %d images", count)
	}
}

func TestQueryTimeRange(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 20)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	start := bagio.TimeFromNanos(base + 5e9)
	end := bagio.TimeFromNanos(base + 10e9 - 1)
	var count int
	err = bag.Query(QuerySpec{Topics: []string{"/imu"}, Start: start, End: end}, func(m MessageRef) error {
		if m.Time.Before(start) || end.Before(m.Time) {
			t.Errorf("message at %v outside window", m.Time)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 { // 5 seconds × 10 Hz
		t.Errorf("count = %d, want 50", count)
	}
	st := bag.Stats()
	if st.WindowsScanned == 0 {
		t.Error("time query did not use the coarse index")
	}
	// The coarse index must have restricted the scan: 20s of IMU data is
	// 200 entries, the window covers ~50-60.
	if st.EntriesScanned > 80 {
		t.Errorf("EntriesScanned = %d; coarse index did not restrict the scan", st.EntriesScanned)
	}
	if err := bag.Query(QuerySpec{Start: end, End: start}, func(MessageRef) error { return nil }); err == nil {
		t.Error("inverted time range should fail")
	}
}

func TestQueryChrono(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	var last bagio.Time
	var count int
	err = bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		if m.Time.Before(last) {
			t.Errorf("chronological order violated: %v after %v", m.Time, last)
		}
		last = m.Time
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 80 { // 5 × 16
		t.Errorf("count = %d", count)
	}
}

func TestExportRoundTrip(t *testing.T) {
	b := newBORA(t)
	srcDir := t.TempDir()
	src := makeSourceBag(t, srcDir, 4)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	exported := filepath.Join(srcDir, "exported.bag")
	f, err := os.Create(exported)
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Export(f, rosbag.WriterOptions{ChunkThreshold: 4096}); err != nil {
		t.Fatalf("Export: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, rf, err := rosbag.Open(exported)
	if err != nil {
		t.Fatalf("open exported bag: %v", err)
	}
	defer rf.Close()
	if got := r.MessageCount(); got != 64 {
		t.Errorf("exported MessageCount = %d, want 64", got)
	}
	if got := r.Topics(); len(got) != 3 {
		t.Errorf("exported Topics = %v", got)
	}
	// Message payloads must survive the round trip bit-exactly.
	var original [][]byte
	if err := bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		original = append(original, append([]byte(nil), m.Data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = r.ReadMessages(rosbag.Query{}, func(m rosbag.MessageRef) error {
		if i < len(original) && !bytes.Equal(m.Data, original[i]) {
			t.Errorf("message %d payload mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(original) {
		t.Errorf("exported %d messages, original %d", i, len(original))
	}
}

func TestCopyContainer(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 3)
	if _, _, err := b.Duplicate(src, "bag1"); err != nil {
		t.Fatal(err)
	}
	b2, err := New(filepath.Join(t.TempDir(), "backend2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bag, err := b2.CopyContainer(filepath.Join(b.Root(), "bag1"), "bagcopy")
	if err != nil {
		t.Fatalf("CopyContainer: %v", err)
	}
	if n, err := bag.MessageCount(); err != nil || n != 48 {
		t.Errorf("copied MessageCount = %d, %v", n, err)
	}
	if _, err := b2.CopyContainer(filepath.Join(b.Root(), "nonexistent"), "x"); err == nil {
		t.Error("CopyContainer from non-container should fail")
	}
}

// TestCopyContainerCommitsLast crashes a container copy at every
// back-end operation: what is left behind either refuses to open, stays
// off the listing and repairs to a clean container, or is the whole
// source, topic file for topic file — never a sealed container with
// topics missing.
func TestCopyContainerCommitsLast(t *testing.T) {
	b := newBORA(t)
	if _, _, err := b.Duplicate(makeSourceBag(t, t.TempDir(), 3), "bag1"); err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Join(b.Root(), "bag1")
	want := topicFiles(t, srcRoot)
	// copyInto copies bag1 into a fresh back end through inj and returns
	// a plain view of what the copy left there.
	copyInto := func(inj *faultfs.Injector) (*BORA, error) {
		dir := filepath.Join(t.TempDir(), "backend2")
		dst, err := New(dir, Options{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		_, copyErr := dst.CopyContainer(srcRoot, "copy")
		after, err := New(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return after, copyErr
	}
	clean := faultfs.NewInjector(faultfs.OS, faultfs.Plan{})
	if _, err := copyInto(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	if total < int64(len(want)) {
		t.Fatalf("copying %d topic files took %d operations through Options.FS", len(want), total)
	}
	for at := int64(1); at <= total; at++ {
		after, err := copyInto(faultfs.NewInjector(faultfs.OS, faultfs.Plan{Seed: at, CrashAt: at}))
		if err == nil {
			t.Errorf("crash at op %d: the copy reported success", at)
		}
		names, lerr := after.List()
		if lerr != nil {
			t.Fatal(lerr)
		}
		if _, err := after.Open("copy"); err != nil {
			if len(names) != 0 {
				t.Errorf("crash at op %d: List shows %v though Open refuses: %v", at, names, err)
			}
			if _, err := os.Stat(filepath.Join(after.Root(), "copy")); err == nil {
				if reps, err := after.Repair("copy"); err != nil || len(reps) != 1 || !reps[0].Clean() {
					t.Errorf("crash at op %d: repair of the interrupted copy: %v, %v", at, reps, err)
				}
			}
			continue
		}
		if got := topicFiles(t, filepath.Join(after.Root(), "copy")); !reflect.DeepEqual(got, want) {
			t.Errorf("crash at op %d: the copy opens with %d of %d topic files intact", at, len(got), len(want))
		}
	}
}

// filesOpenUnder counts this process's open descriptors on files below
// dir; -1 when /proc/self/fd cannot be listed.
func filesOpenUnder(dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+"/") {
			n++
		}
	}
	return n
}

// TestDuplicateFailureStaysUnsealed injects one I/O failure into a
// duplicate: while a topic is being created, while a message is being
// appended, and — at the default cadence, where one data write carries
// many buffered messages — on a later data write. Every time Duplicate
// returns the injected cause, counts only the messages that reached a
// topic file, leaves the container building — refused by List and
// Open, reported stale by Fsck — and leaves no topic file open.
func TestDuplicateFailureStaysUnsealed(t *testing.T) {
	// cleanRun duplicates a source of the given length fault-free at
	// the given cadence: the source, the op trace, the sealed bag.
	cleanRun := func(t *testing.T, seconds, flushEvery int) (string, []string, *Bag) {
		src := makeSourceBag(t, t.TempDir(), seconds)
		clean := faultfs.NewInjector(faultfs.OS, faultfs.Plan{})
		b, err := New(filepath.Join(t.TempDir(), "backend"), Options{FS: clean, IndexFlushEvery: flushEvery})
		if err != nil {
			t.Fatal(err)
		}
		bag, _, err := b.Duplicate(src, "bag")
		if err != nil {
			t.Fatal(err)
		}
		return src, clean.Trace(), bag
	}
	// opOf returns the number of the nth clean-run op of kind on a file
	// named file, and how many message appends (data writes) came before
	// it.
	opOf := func(t *testing.T, trace []string, kind, file string, nth int) (at, appended int64) {
		for _, line := range trace {
			f := strings.Fields(line) // "N op path"
			if f[1] == kind && filepath.Base(f[2]) == file {
				if nth--; nth == 0 {
					at, _ = strconv.ParseInt(f[0], 10, 64)
					return at, appended
				}
			}
			if f[1] == "write" && filepath.Base(f[2]) == container.DataFileName {
				appended++
			}
		}
		t.Fatalf("the clean duplicate has too few %s ops on %s files", kind, file)
		return 0, 0
	}
	for _, tc := range []struct {
		name       string
		seconds    int
		flushEvery int // 1: one data write per message; 0: the default cadence
		kind, file string
		nth        int
	}{
		{"topic create", 3, 1, "create", container.IndexFileName, 2},
		{"append", 3, 1, "write", container.DataFileName, 10},
		{"buffered append", 60, 0, "write", container.DataFileName, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, trace, clean := cleanRun(t, tc.seconds, tc.flushEvery)
			at, appended := opOf(t, trace, tc.kind, tc.file, tc.nth)
			root := filepath.Join(t.TempDir(), "backend")
			b, err := New(root, Options{FS: faultfs.NewInjector(faultfs.OS, faultfs.Plan{FailAt: at}), IndexFlushEvery: tc.flushEvery})
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := b.Duplicate(src, "bag")
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("fail at op %d: Duplicate returned %v, want the injected error", at, err)
			}
			if tc.flushEvery == 1 && st.Messages != appended {
				t.Errorf("fail at op %d: DuplicateStats.Messages = %d, want the %d appended", at, st.Messages, appended)
			}
			if whole := wholeMessagesOnDisk(t, clean, filepath.Join(root, "bag")); st.Messages != whole {
				t.Errorf("fail at op %d: DuplicateStats.Messages = %d, want the %d whole messages in the data files", at, st.Messages, whole)
			}
			if names, err := b.List(); err != nil || len(names) != 0 {
				t.Errorf("List = %v, %v; the failed duplicate is listed", names, err)
			}
			if _, err := b.Open("bag"); err == nil {
				t.Error("the failed duplicate opens")
			}
			segs, _, err := b.Fsck("bag")
			if err != nil || len(segs) != 1 {
				t.Fatalf("Fsck = %v, %v", segs, err)
			}
			stale := false
			for _, f := range segs[0].Findings {
				stale = stale || f.Kind == container.FindingStaleMeta
			}
			if !stale {
				t.Errorf("Fsck findings %v lack %s", segs[0].Findings, container.FindingStaleMeta)
			}
			if n := filesOpenUnder(root); n != 0 {
				t.Errorf("%d files under the back end are still open", n)
			}
		})
	}
}

// wholeMessagesOnDisk counts the messages of clean, a sealed duplicate of
// the same source, whose bytes lie wholly inside the data files of the
// failed duplicate at root.
func wholeMessagesOnDisk(t *testing.T, clean *Bag, root string) int64 {
	t.Helper()
	var n int64
	for _, name := range clean.Topics() {
		st, err := os.Stat(filepath.Join(root, container.EncodeTopicDir(name), container.DataFileName))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tp, err := clean.Container().Topic(name)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := tp.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if int64(e.PhysicalOffset)+int64(e.Length) <= st.Size() {
				n++
			}
		}
	}
	return n
}

func TestRemove(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 2)
	if _, _, err := b.Duplicate(src, "bag1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("bag1"); err != nil {
		t.Fatal(err)
	}
	if names, _ := b.List(); len(names) != 0 {
		t.Errorf("List after Remove = %v", names)
	}
	if err := b.Remove("bag1"); err == nil {
		t.Error("Remove of missing bag should fail")
	}
	if err := b.Remove("."); err == nil {
		t.Error("Remove of non-container should fail")
	}
}

// TestRemoveIsAllOrNothing: a bag that lost one topic directory — what
// a delete in directory order leaves when it stops part-way — no longer
// opens with a topic missing, but fails with the typed error. Remove
// itself is one rename to a hidden name, then the delete: a crash at the
// rename leaves the whole bag listed and openable, and a bag renamed
// away whose delete never ran is not listed, and is gone once a back end
// opens the root again.
func TestRemoveIsAllOrNothing(t *testing.T) {
	src := makeSourceBag(t, t.TempDir(), 2)
	root := filepath.Join(t.TempDir(), "backend")
	b, err := New(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", 255) // NAME_MAX: the longest name ValidBagName accepts
	for _, name := range []string{"part", "whole", "gone", long} {
		if _, _, err := b.Duplicate(src, name); err != nil {
			t.Fatal(err)
		}
	}

	if err := b.Remove(long); err != nil {
		t.Errorf("Remove of a bag with a 255-byte name: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, long)); !os.IsNotExist(err) {
		t.Errorf("the bag with a 255-byte name survived Remove: %v", err)
	}

	if err := os.RemoveAll(filepath.Join(root, "part", container.EncodeTopicDir("/tf"))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open("part"); !errors.Is(err, container.ErrTopicDirMissing) {
		t.Errorf("Open of a bag missing a topic dir: %v, want ErrTopicDirMissing", err)
	}

	crashing, err := New(root, Options{FS: faultfs.NewInjector(faultfs.OS, faultfs.Plan{CrashAt: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if err := crashing.Remove("whole"); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Remove crashed at its rename: %v, want ErrCrashed", err)
	}
	if names, err := b.List(); err != nil || !slices.Contains(names, "whole") {
		t.Errorf("List after a Remove crashed at its rename = %v, %v; want the bag", names, err)
	}
	bag, err := b.Open("whole")
	if err != nil {
		t.Fatalf("Open after a Remove crashed at its rename: %v", err)
	}
	if n := len(bag.Topics()); n != 3 {
		t.Errorf("the bag a crashed Remove left has %d topics, want 3", n)
	}

	leftover := filepath.Join(root, removedPrefix+"1")
	if err := os.Rename(filepath.Join(root, "gone"), leftover); err != nil {
		t.Fatal(err)
	}
	if names, err := b.List(); err != nil || slices.Contains(names, filepath.Base(leftover)) {
		t.Errorf("List = %v, %v: it lists a bag Remove renamed away", names, err)
	}
	if _, err := New(root, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("a renamed-away bag survived New: %v", err)
	}
}

// TestBagNamesStayUnderRoot: every BORA method that takes a bag name
// refuses one that could leave the back-end root, and changes nothing
// beside it. "../x" names a real bag next to the root, so a method that
// joined it unchecked would open, repair or delete that bag.
func TestBagNamesStayUnderRoot(t *testing.T) {
	parent := t.TempDir()
	b, err := New(filepath.Join(parent, "backend"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := makeSourceBag(t, parent, 1)
	beside, err := New(parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := beside.Duplicate(src, "x"); err != nil {
		t.Fatal(err)
	}
	before := treeState(t, parent)
	names := []string{"", ".", "..", "../x", "a/b", `a\b`, ".hidden", strings.Repeat("n", 256)}
	calls := []struct {
		name string
		call func(name string) error
	}{
		{"CreateBag", func(n string) error { _, err := b.CreateBag(n); return err }},
		{"CreateLiveBag", func(n string) error { _, err := b.CreateLiveBag(n, time.Second); return err }},
		{"Duplicate", func(n string) error { _, _, err := b.Duplicate(src, n); return err }},
		{"Open", func(n string) error { _, err := b.Open(n); return err }},
		{"Remove", func(n string) error { return b.Remove(n) }},
		{"Fsck", func(n string) error { _, _, err := b.Fsck(n); return err }},
		{"Repair", func(n string) error { _, err := b.Repair(n); return err }},
		{"ProbeBag", func(n string) error { _, _, err := b.ProbeBag(n); return err }},
		{"CopyContainer", func(n string) error { _, err := b.CopyContainer(filepath.Join(parent, "x"), n); return err }},
	}
	for _, c := range calls {
		for _, name := range names {
			if err := c.call(name); err == nil {
				t.Errorf("%s(%.20q) accepted the name", c.name, name)
			}
			if after := treeState(t, parent); after != before {
				t.Fatalf("%s(%.20q) changed the tree:\n%s\nwant\n%s", c.name, name, after, before)
			}
		}
	}
}

// treeState lists every path under dir with its size, mode and mtime.
func treeState(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		fmt.Fprintf(&sb, "%s %d %v %d\n", rel, fi.Size(), fi.Mode(), fi.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestOpenMissing(t *testing.T) {
	b := newBORA(t)
	if _, err := b.Open("nope"); err == nil {
		t.Error("Open of missing bag should fail")
	}
}

func TestDuplicateErrors(t *testing.T) {
	b := newBORA(t)
	if _, _, err := b.Duplicate(filepath.Join(t.TempDir(), "missing.bag"), "x"); err == nil {
		t.Error("Duplicate of missing file should fail")
	}
	junk := filepath.Join(t.TempDir(), "junk.bag")
	if err := os.WriteFile(junk, []byte("not a bag at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Duplicate(junk, "y"); err == nil {
		t.Error("Duplicate of junk file should fail")
	}
	src := makeSourceBag(t, t.TempDir(), 1)
	if _, _, err := b.Duplicate(src, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Duplicate(src, "dup"); err == nil {
		t.Error("Duplicate onto an existing name should fail")
	}
}

func TestTagTableMatchesContainer(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 2)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	tags := bag.TagTable()
	if tags.Len() != 3 {
		t.Errorf("tag table has %d entries", tags.Len())
	}
	for _, topic := range bag.Topics() {
		path, ok := tags.Get(topic)
		if !ok {
			t.Errorf("tag table missing %s", topic)
			continue
		}
		want, err := bag.Container().TopicPath(topic)
		if err != nil || path != want {
			t.Errorf("tag path for %s = %s, want %s (%v)", topic, path, want, err)
		}
	}
}

func TestConnectionsSurviveDuplication(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 1)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	conns, err := bag.Connections()
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	for _, c := range conns {
		types[c.Topic] = c.Type
		if c.MD5Sum == "" {
			t.Errorf("connection %s lost its md5", c.Topic)
		}
	}
	if types["/imu"] != "sensor_msgs/Imu" || types["/tf"] != "tf2_msgs/TFMessage" {
		t.Errorf("types = %v", types)
	}
}

func TestConcurrentQueriesOnOneBag(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 10)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	// Re-open so the time indexes and entries load lazily under
	// concurrency.
	bag, err = b.Open("bag1")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				errs[i] = bag.Query(QuerySpec{Topics: []string{"/imu"}}, func(MessageRef) error { counts[i]++; return nil })
			case 1:
				errs[i] = bag.Query(QuerySpec{Topics: []string{"/tf"},
					Start: bagio.TimeFromNanos(base + 2e9), End: bagio.TimeFromNanos(base + 6e9)},
					func(MessageRef) error { counts[i]++; return nil })
			case 2:
				errs[i] = bag.Query(QuerySpec{Order: OrderTime},
					func(MessageRef) error { counts[i]++; return nil })
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
		if counts[i] == 0 {
			t.Errorf("goroutine %d read nothing", i)
		}
	}
	if st := bag.Stats(); st.MessagesRead == 0 {
		t.Error("stats empty after concurrent queries")
	}
}
