package container

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bagio"
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

func TestFsckDetectsDebrisAndBadTimeIdx(t *testing.T) {
	root, dir := buildSealedTopic(t)
	if err := os.WriteFile(filepath.Join(dir, "checksum.tmp-777"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, TimeIdxFileName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingTempDebris) || !hasFinding(rep, FindingBadTimeIdx) {
		t.Fatalf("findings = %v, want temp-debris and bad-timeidx", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	if _, err := os.Stat(filepath.Join(dir, "checksum.tmp-777")); !os.IsNotExist(err) {
		t.Error("debris survived repair")
	}
}

// TestFsckTornInPlaceFiles tears each file a building container writes
// in place — the building meta, a topic's conn, checksum and timeidx —
// to a prefix, as a crash mid-write leaves it: fsck flags it as damage
// of a container that never committed, and Repair converges to a clean
// container. The same torn checksum in a sealed container keeps the
// plain detail: there it is corruption.
func TestFsckTornInPlaceFiles(t *testing.T) {
	building := func(t *testing.T) (root, dir string) {
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
		return root, filepath.Join(root, EncodeTopicDir("/imu"))
	}
	// tear cuts a file to its first half.
	tear := func(t *testing.T, path string) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		file string // relative to the topic directory; ".." names the root
		kind FindingKind
	}{
		{"../" + MetaFileName, FindingBadMeta},
		{ConnFileName, FindingBadConn},
		{ChecksumFileName, FindingChecksumMismatch},
		{TimeIdxFileName, FindingBadTimeIdx},
	} {
		t.Run(tc.file, func(t *testing.T) {
			root, dir := building(t)
			path := filepath.Join(dir, tc.file)
			tear(t, path)
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
	t.Run("sealed", func(t *testing.T) {
		root, dir := buildSealedTopic(t)
		tear(t, filepath.Join(dir, ChecksumFileName))
		rep, err := Fsck(root)
		if err != nil {
			t.Fatal(err)
		}
		if !hasFinding(rep, FindingChecksumMismatch) || strings.Contains(fmt.Sprint(rep.Findings), tornBeforeSeal) {
			t.Fatalf("findings on a sealed container's torn checksum: %v", rep.Findings)
		}
	})
}

// TestStripedLayoutRefused: a topic directory an older build wrote with
// its data striped across lane files (conn file: stripes=4) is refused
// by Open with the typed error, is one fsck finding, and is left alone
// by Repair — which must not "fix" the container by dropping a topic
// whose data it cannot read.
func TestStripedLayoutRefused(t *testing.T) {
	root, _ := buildSealedTopic(t)
	dir := filepath.Join(root, EncodeTopicDir("/cam"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	h, err := bagio.DecodeHeader(encodeConn(&bagio.Connection{Topic: "/cam", Type: "sensor_msgs/Image"}))
	if err != nil {
		t.Fatal(err)
	}
	h.PutU32("stripes", 4)
	h.PutU64("stripe_size", 4096)
	var entry [IndexEntrySize]byte
	IndexEntry{Length: 5}.encode(entry[:])
	for name, content := range map[string][]byte{
		ConnFileName: h.Encode(), IndexFileName: entry[:], "data.0": []byte("hello"),
		"data.1": nil, "data.2": nil, "data.3": nil,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := readTree(t, root)

	if _, err := Open(root); !errors.Is(err, ErrStripedLayout) {
		t.Errorf("Open: %v, want ErrStripedLayout", err)
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if kinds := findingKinds(rep); !reflect.DeepEqual(kinds, []FindingKind{FindingStripedLayout}) {
		t.Errorf("findings = %v, want exactly one striped-layout", rep.Findings)
	}
	if _, err := RepairFS(root, nil); !errors.Is(err, ErrStripedLayout) {
		t.Errorf("Repair: %v, want ErrStripedLayout", err)
	}
	if after := readTree(t, root); !reflect.DeepEqual(after, before) {
		t.Errorf("Repair changed the refused container:\n got %v\nwant %v", after, before)
	}
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

// TestReadMetaLegacyV1: a v1 meta is damage, not a format. Open
// refuses it, fsck reports bad-meta, and RepairFS reseals the container
// with every topic serving the messages it held before.
func TestReadMetaLegacyV1(t *testing.T) {
	root, _ := buildSealedTopic(t)
	messages := func() []string {
		t.Helper()
		c, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, name := range c.Topics() {
			topic, _ := c.Topic(name)
			entries, err := topic.Entries()
			if err != nil {
				t.Fatal(err)
			}
			df, err := topic.OpenData()
			if err != nil {
				t.Fatal(err)
			}
			var scratch []byte
			for _, e := range entries {
				data, err := topic.ReadMessageInto(df, e, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("%s %v %x", name, e.Time, data))
			}
			df.Close()
		}
		return out
	}
	before := messages()

	if err := os.WriteFile(filepath.Join(root, MetaFileName), []byte("bora-container v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root); err == nil {
		t.Fatal("Open accepted a v1 meta")
	}
	rep, err := Fsck(root)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, FindingBadMeta) {
		t.Fatalf("findings = %v, want bad-meta", findingKinds(rep))
	}
	after, err := RepairFS(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("post-repair findings: %v", after.Findings)
	}
	if got := messages(); !reflect.DeepEqual(got, before) {
		t.Errorf("repaired container serves %d messages, want the %d it held", len(got), len(before))
	}
}
