package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// ChecksumFileName stores a topic's data-file integrity record:
// crc32c(data) and the data length.
const ChecksumFileName = "checksum"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeChecksum persists the integrity record for a topic's data file,
// atomically so a crash can never leave a torn (wrong-length) record.
func writeChecksum(fs faultfs.Backend, dir string, sum uint32, length int64) error {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:4], sum)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(length))
	return faultfs.WriteFileAtomic(fs, filepath.Join(dir, ChecksumFileName), buf[:], 0o644)
}

// readChecksum loads a topic's integrity record.
func readChecksum(dir string) (sum uint32, length int64, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, ChecksumFileName))
	if err != nil {
		return 0, 0, err
	}
	if len(buf) != 12 {
		return 0, 0, fmt.Errorf("container: checksum file has %d bytes, want 12", len(buf))
	}
	return binary.LittleEndian.Uint32(buf[0:4]), int64(binary.LittleEndian.Uint64(buf[4:12])), nil
}

// VerifyResult reports one topic's integrity check.
type VerifyResult struct {
	Topic    string
	Messages int
	Bytes    int64
	OK       bool
	Detail   string
}

// Verify recomputes the data file's CRC and cross-checks the index: the
// entry list must tile the data file exactly and the stored checksum
// must match. Containers written before checksums existed verify
// structurally only (Detail notes the missing checksum).
func (t *Topic) Verify() VerifyResult {
	res := VerifyResult{Topic: t.topic}
	entries, err := t.Entries()
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	res.Messages = len(entries)
	var expectLen int64
	for i, e := range entries {
		if int64(e.LogicalOffset) != expectLen {
			res.Detail = fmt.Sprintf("index entry %d at logical offset %d, want %d (gap or overlap)", i, e.LogicalOffset, expectLen)
			return res
		}
		expectLen += int64(e.Length)
	}
	size, err := t.DataSize()
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	if size != expectLen {
		res.Detail = fmt.Sprintf("data is %d bytes, index accounts for %d", size, expectLen)
		return res
	}
	res.Bytes = size

	wantSum, wantLen, err := readChecksum(t.dir)
	if os.IsNotExist(err) {
		res.OK = true
		res.Detail = "no checksum file (pre-checksum container); structural check only"
		return res
	}
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	if wantLen != size {
		res.Detail = fmt.Sprintf("checksum records %d bytes, data has %d", wantLen, size)
		return res
	}
	got, err := crcData(t.dir, size)
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	if got != wantSum {
		res.Detail = fmt.Sprintf("crc mismatch: data %08x, recorded %08x", got, wantSum)
		return res
	}
	res.OK = true
	return res
}

// Verify checks every topic of the container, returning per-topic
// results and the first failure as error (nil when all pass).
func (c *Container) Verify() ([]VerifyResult, error) {
	var out []VerifyResult
	var firstErr error
	for _, name := range c.Topics() {
		t, err := c.Topic(name)
		if err != nil {
			return out, err
		}
		res := t.Verify()
		out = append(out, res)
		if !res.OK && firstErr == nil {
			firstErr = fmt.Errorf("container: topic %q failed verification: %s", name, res.Detail)
		}
	}
	return out, firstErr
}
