package container

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bagio"
	"repro/internal/faultfs"
)

// buildVerifiedTopic writes a small topic and reopens the container.
func buildVerifiedTopic(t *testing.T) (*Container, string) {
	t.Helper()
	c, err := Create(filepath.Join(t.TempDir(), "bag"))
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
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	return c2, filepath.Join(c.Root(), EncodeTopicDir("/imu"))
}

func TestVerifyCleanContainer(t *testing.T) {
	c, _ := buildVerifiedTopic(t)
	results, err := c.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(results) != 1 || !results[0].OK {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Messages != 20 || results[0].Bytes != 60 {
		t.Errorf("counts = %+v", results[0])
	}
	if results[0].Detail != "" {
		t.Errorf("clean verify has detail %q", results[0].Detail)
	}
}

func TestVerifyDetectsDataCorruption(t *testing.T) {
	c, dir := buildVerifiedTopic(t)
	data := filepath.Join(dir, DataFileName)
	buf, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xFF // flip one byte, length unchanged
	if err := os.WriteFile(data, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.Verify()
	if err == nil {
		t.Error("bit flip not detected")
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	c, dir := buildVerifiedTopic(t)
	data := filepath.Join(dir, DataFileName)
	buf, _ := os.ReadFile(data)
	if err := os.WriteFile(data, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); err == nil {
		t.Error("truncation not detected")
	}
}

func TestVerifyDetectsIndexGap(t *testing.T) {
	c, dir := buildVerifiedTopic(t)
	idx := filepath.Join(dir, IndexFileName)
	buf, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the second entry: a gap appears in the logical tiling.
	mut := append(append([]byte{}, buf[:IndexEntrySize]...), buf[2*IndexEntrySize:]...)
	if err := os.WriteFile(idx, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(); err == nil {
		t.Error("index gap not detected")
	}
}

// rewriteChecksum rewrites the sealed manifest of the container at root
// with edit applied to its one topic's header.
func rewriteChecksum(t *testing.T, root string, edit func(*topicMeta)) {
	t.Helper()
	m, err := ReadMeta(root)
	if err != nil {
		t.Fatal(err)
	}
	edit(&m.topics[0])
	if err := writeMeta(faultfs.OS, root, m); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyWithoutChecksumFile: a topic the sealed manifest records no
// checksum for fails Verify with fsck's checksum-missing finding.
func TestVerifyWithoutChecksumFile(t *testing.T) {
	c, _ := buildVerifiedTopic(t)
	rewriteChecksum(t, c.Root(), func(tm *topicMeta) { tm.summed = false })
	results, err := c.Verify()
	if err == nil {
		t.Fatal("topic without a checksum record verified")
	}
	if results[0].OK || !strings.Contains(results[0].Detail, string(FindingChecksumMissing)) {
		t.Errorf("expected a %s failure, got %+v", FindingChecksumMissing, results[0])
	}
	if results[0].Messages != 20 || results[0].Bytes != 60 {
		t.Errorf("counts = %+v", results[0])
	}
}

// TestVerifyDetectsBadChecksumFile: a checksum record the data does not
// match, in crc or in length, fails Verify.
func TestVerifyDetectsBadChecksumFile(t *testing.T) {
	for name, edit := range map[string]func(*topicMeta){
		"crc":    func(tm *topicMeta) { tm.sum ^= 1 },
		"length": func(tm *topicMeta) { tm.size-- },
	} {
		c, _ := buildVerifiedTopic(t)
		rewriteChecksum(t, c.Root(), edit)
		results, err := c.Verify()
		if err == nil || results[0].OK || !strings.Contains(results[0].Detail, string(FindingChecksumMismatch)) {
			t.Errorf("checksum record with a wrong %s: %v, %+v", name, err, results)
		}
	}
}

// TestVerifyFailsTopicsOnContainerFinding: a finding on the container
// itself (here a meta flipped back to building) fails every topic.
func TestVerifyFailsTopicsOnContainerFinding(t *testing.T) {
	c, _ := buildVerifiedTopic(t)
	if err := writeMeta(faultfs.OS, c.Root(), &Meta{State: StateBuilding}); err != nil {
		t.Fatal(err)
	}
	results, err := c.Verify()
	if err == nil {
		t.Fatal("container with a building meta verified")
	}
	if results[0].OK || !strings.Contains(results[0].Detail, string(FindingStaleMeta)) {
		t.Errorf("expected a %s failure, got %+v", FindingStaleMeta, results[0])
	}
}
