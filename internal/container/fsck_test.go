package container

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// buildSealedTopic writes a 20-message topic and seals the container.
func buildSealedTopic(t *testing.T) (string, string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "bag")
	c, err := Create(root)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/imu", Type: "sensor_msgs/Imu"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tw.Append(bagio.Time{Sec: uint32(i)}, []byte{byte(i), byte(i + 1), byte(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return root, filepath.Join(root, EncodeTopicDir("/imu"))
}

func findingKinds(rep *Report) []FindingKind {
	var out []FindingKind
	for _, f := range rep.Findings {
		out = append(out, f.Kind)
	}
	return out
}

func hasFinding(rep *Report, kind FindingKind) bool {
	for _, f := range rep.Findings {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

func TestFsckCleanContainer(t *testing.T) {
	root, _ := buildSealedTopic(t)
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean container has findings: %v", rep.Findings)
	}
	if rep.Topics != 1 {
		t.Fatalf("Topics = %d", rep.Topics)
	}
}

func TestFsckDetectsStaleMeta(t *testing.T) {
	root := filepath.Join(t.TempDir(), "bag")
	if _, err := Create(root); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingStaleMeta) {
		t.Fatalf("findings = %v, want stale-meta", findingKinds(rep))
	}
}

func TestFsckDetectsTruncatedIndexTailAndRepairs(t *testing.T) {
	root, dir := buildSealedTopic(t)
	ix := filepath.Join(dir, IndexFileName)
	fi, err := os.Stat(ix)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last entry: lop off 10 bytes.
	if err := os.Truncate(ix, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingTruncatedIndexTail) {
		t.Fatalf("findings = %v, want truncated-index-tail", findingKinds(rep))
	}
	// The 19 whole entries no longer cover the data file.
	if !hasFinding(rep, FindingIndexDataMismatch) {
		t.Fatalf("findings = %v, want index-data-mismatch", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	c, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c.Topic("/imu")
	if err != nil {
		t.Fatal(err)
	}
	n, err := topic.MessageCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 19 {
		t.Fatalf("repaired topic has %d messages, want 19", n)
	}
	if res, err := c.Verify(); err != nil || !res[0].OK {
		t.Fatalf("repaired topic fails verify: %v", err)
	}
}

func TestFsckDetectsUnindexedDataTail(t *testing.T) {
	root, dir := buildSealedTopic(t)
	f, err := os.OpenFile(filepath.Join(dir, DataFileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn payload never indexed")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingIndexDataMismatch) {
		t.Fatalf("findings = %v, want index-data-mismatch", findingKinds(rep))
	}
	if !hasFinding(rep, FindingChecksumMismatch) {
		t.Fatalf("findings = %v, want checksum-mismatch", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	c, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Verify(); err != nil || !res[0].OK || res[0].Messages != 20 {
		t.Fatalf("repair lost indexed messages: %+v, %v", res, err)
	}
}

func TestFsckDetectsMissingTopicDir(t *testing.T) {
	root, dir := buildSealedTopic(t)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingMissingTopicDir) {
		t.Fatalf("findings = %v, want missing-topic-dir", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	if _, err := Open(root); err != nil {
		t.Fatalf("repaired container does not open: %v", err)
	}
}

// TestFsckDetectsDebrisAndBadTimeIdx: a topic's time index is built
// from its index, so a bad time index is now a bad index — here one
// whose last entry a crash tore. Fsck flags it beside a temp file's
// debris; Repair removes the debris and cuts the index to its whole
// entries, and the time index the repaired topic builds names exactly
// the surviving messages.
func TestFsckDetectsDebrisAndBadTimeIdx(t *testing.T) {
	root, dir := buildSealedTopic(t)
	if err := os.WriteFile(filepath.Join(dir, "index.tmp-777"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(dir, IndexFileName)
	if err := os.Truncate(ixPath, 20*IndexEntrySize-IndexEntrySize/2); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingTempDebris) || !hasFinding(rep, FindingTruncatedIndexTail) {
		t.Fatalf("findings = %v, want temp-debris and truncated-index-tail", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.tmp-777")); !os.IsNotExist(err) {
		t.Error("debris survived repair")
	}
	c, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c.Topic("/imu")
	if err != nil {
		t.Fatal(err)
	}
	v, err := topic.Index(obs.Span{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pos := topic.TimeIndex(v).QuerySorted(bagio.Time{}, bagio.Time{Sec: 100}); len(pos) != 19 || pos[18] != 18 {
		t.Errorf("repaired topic's time index names %v, want 0..18", pos)
	}
}

// TestFsckTornInPlaceFiles tears the manifest a building container
// appends to in place — inside its container header ("../.bora_meta"),
// and inside the last topic's header ("conn") — as a crash mid-write
// leaves it: fsck flags it as damage of a container that never
// committed, and Repair converges to a clean container. A sealed
// manifest keeps the plain detail: there it is corruption. Repair
// recomputes a damaged checksum ("checksum") and refuses a torn
// manifest ("sealed"), since the topics' connections are in it alone.
func TestFsckTornInPlaceFiles(t *testing.T) {
	building := func(t *testing.T) (root string) {
		t.Helper()
		root = filepath.Join(t.TempDir(), "bag")
		c, err := Create(root)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := c.CreateTopic(&bagio.Connection{Topic: "/imu", Type: "sensor_msgs/Imu"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := tw.Append(bagio.Time{Sec: uint32(i)}, []byte{byte(i), byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return root
	}
	for _, tc := range []struct {
		name string
		keep func(size int64) int64 // the bytes of the manifest the crash leaves
		kind FindingKind
	}{
		{"../" + MetaFileName, func(int64) int64 { return int64(len(buildingHead)) / 2 }, FindingBadMeta},
		{"conn", func(size int64) int64 { return size - 10 }, FindingBadConn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := building(t)
			path := filepath.Join(root, MetaFileName)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, tc.keep(st.Size())); err != nil {
				t.Fatal(err)
			}
			rep, err := Fsck(root)
			if err != nil {
				t.Fatal(err)
			}
			var f *Finding
			for i := range rep.Findings {
				if rep.Findings[i].Kind == tc.kind {
					f = &rep.Findings[i]
				}
			}
			if f == nil || f.Path != path || !strings.HasPrefix(f.Detail, tornBeforeSeal+": ") {
				t.Fatalf("findings %v, want %s on %s reading %q", rep.Findings, tc.kind, path, tornBeforeSeal)
			}
			after, err := RepairFS(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !after.Clean() {
				t.Fatalf("post-repair findings: %v", after.Findings)
			}
			if _, err := Open(root); err != nil {
				t.Fatalf("repaired container does not open: %v", err)
			}
		})
	}
	// A building manifest records no checksum; a sealed one does, and
	// damage to it in place is corruption with the plain detail, which
	// Repair mends by recomputing the checksum over the data.
	t.Run("checksum", func(t *testing.T) {
		root, _ := buildSealedTopic(t)
		path := filepath.Join(root, MetaFileName)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(buf, []byte("crc="))
		if at < 0 {
			t.Fatal("sealed manifest records no crc")
		}
		buf[at+len("crc=")] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(root)
		if err != nil {
			t.Fatal(err)
		}
		if kinds := findingKinds(rep); !reflect.DeepEqual(kinds, []FindingKind{FindingChecksumMismatch}) ||
			rep.Findings[0].Path != path || strings.Contains(rep.Findings[0].Detail, tornBeforeSeal) {
			t.Fatalf("findings on a sealed manifest's damaged checksum: %v", rep.Findings)
		}
		after, err := RepairFS(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !after.Clean() {
			t.Fatalf("post-repair findings: %v", after.Findings)
		}
		if _, err := Open(root); err != nil {
			t.Fatalf("repaired container does not open: %v", err)
		}
	})
	t.Run("sealed", func(t *testing.T) {
		root, _ := buildSealedTopic(t)
		path := filepath.Join(root, MetaFileName)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-10); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(root)
		if err != nil {
			t.Fatal(err)
		}
		if !hasFinding(rep, FindingBadMeta) || strings.Contains(fmt.Sprint(rep.Findings), tornBeforeSeal) {
			t.Fatalf("findings on a sealed container's torn manifest: %v", rep.Findings)
		}
		before := readTree(t, root)
		if _, err := RepairFS(root, nil); err == nil {
			t.Error("Repair accepted a sealed manifest it cannot read")
		}
		if after := readTree(t, root); !reflect.DeepEqual(after, before) {
			t.Error("a refused Repair changed the container")
		}
	})
}

// olderBuild writes a container the way an older build did: a text
// meta, and topic directories holding their own conn files. With
// stripes > 0 its one topic, /cam, has its data striped across that
// many lane files.
func olderBuild(t *testing.T, meta string, stripes int) string {
	t.Helper()
	root := filepath.Join(t.TempDir(), "bag")
	dir := filepath.Join(root, EncodeTopicDir("/cam"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	h := bagio.Header{}
	h.PutU32("conn", 0)
	h.PutString("topic", "/cam")
	h.PutString("type", "sensor_msgs/Image")
	files := map[string][]byte{"data": []byte("hello")}
	if stripes > 0 {
		h.PutU32("stripes", uint32(stripes))
		h.PutU64("stripe_size", 4096)
		files = map[string][]byte{"data.0": []byte("hello")}
		for i := 1; i < stripes; i++ {
			files[fmt.Sprintf("data.%d", i)] = nil
		}
	}
	var entry [IndexEntrySize]byte
	IndexEntry{Length: 5}.encode(entry[:])
	files["conn"], files[IndexFileName] = h.Encode(), entry[:]
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, MetaFileName), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// refusedAsLegacy checks that the container at root is refused whole as
// an older build's: Open fails with ErrLegacyMeta, fsck reports exactly
// one bad-meta, and Repair refuses it and changes nothing.
func refusedAsLegacy(t *testing.T, root string) {
	t.Helper()
	before := readTree(t, root)
	if _, err := Open(root); !errors.Is(err, ErrLegacyMeta) {
		t.Errorf("Open: %v, want ErrLegacyMeta", err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if kinds := findingKinds(rep); !reflect.DeepEqual(kinds, []FindingKind{FindingBadMeta}) {
		t.Errorf("findings = %v, want exactly one bad-meta", rep.Findings)
	}
	if _, err := RepairFS(root, nil); !errors.Is(err, ErrLegacyMeta) {
		t.Errorf("Repair: %v, want ErrLegacyMeta", err)
	}
	if after := readTree(t, root); !reflect.DeepEqual(after, before) {
		t.Errorf("Repair changed the refused container:\n got %v\nwant %v", after, before)
	}
}

// TestStripedLayoutRefused: a container an older build wrote with a
// topic's data striped across lane files is refused by Open with the
// typed error, is one fsck finding, and is left alone by Repair — which
// must not "fix" the container by dropping a topic whose data it cannot
// read.
func TestStripedLayoutRefused(t *testing.T) {
	refusedAsLegacy(t, olderBuild(t, "bora-container v2\nstate=sealed\ngen=5\ntopic=cam\n", 4))
}

// readTree maps every file under root (by path below root) to its content.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		tree[strings.TrimPrefix(path, root)] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestFsckDeterministicReport(t *testing.T) {
	root, dir := buildSealedTopic(t)
	ix := filepath.Join(dir, IndexFileName)
	fi, _ := os.Stat(ix)
	if err := os.Truncate(ix, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	a, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fsck reports differ across runs:\n%v\n%v", a.Findings, b.Findings)
	}
}

func TestReadMetaLifecycle(t *testing.T) {
	root := filepath.Join(t.TempDir(), "bag")
	c, err := Create(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMeta(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sealed() || m.State != StateBuilding {
		t.Fatalf("fresh meta = %+v", m)
	}
	if _, err := Open(root); err == nil {
		t.Fatal("Open accepted an unsealed container")
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	m, err = ReadMeta(root)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Sealed() {
		t.Fatalf("sealed meta = %+v", m)
	}
	if _, err := Open(root); err != nil {
		t.Fatalf("Open after seal: %v", err)
	}
}

// TestReadMetaLegacyV1: a v1 meta is an older build's format, which
// this one neither reads nor migrates: Open refuses it with the typed
// error, fsck reports one bad-meta, and Repair leaves it alone.
func TestReadMetaLegacyV1(t *testing.T) {
	refusedAsLegacy(t, olderBuild(t, "bora-container v1\n", 0))
}
