package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultfs"
)

// ChecksumFileName stores a topic's data-file integrity record:
// crc32c(data) and the data length.
const ChecksumFileName = "checksum"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writeChecksum writes the integrity record for a topic's data file in
// place: a commit (CommitFS) makes it durable, and a record a crash tore
// has the wrong length, which fsck reports.
func writeChecksum(fs faultfs.Backend, dir string, sum uint32, length int64) error {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:4], sum)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(length))
	return faultfs.WriteFile(fs, filepath.Join(dir, ChecksumFileName), buf[:])
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

// VerifyResult reports what fsck found on one topic of a container.
type VerifyResult struct {
	Topic    string
	Messages int   // the topic's consistent indexed prefix
	Bytes    int64 // the topic's data file size
	OK       bool  // no finding on the topic, none on the container
	Detail   string
}

// Verify runs fsck over the container and folds its findings into one
// result per topic; it checks nothing fsck does not. The error names
// the first finding, and is nil exactly when fsck finds the container
// clean.
func (c *Container) Verify() ([]VerifyResult, error) {
	rep, states, err := fsck(c.root)
	if err != nil {
		return nil, err
	}
	findings := map[string][]string{} // by topic; "" is the container
	for _, f := range rep.Findings {
		findings[f.Topic] = append(findings[f.Topic], f.String())
	}
	out := make([]VerifyResult, 0, len(c.topics))
	for _, name := range c.Topics() {
		res := VerifyResult{Topic: name}
		for _, st := range states {
			if st.name == name {
				res.Messages, res.Bytes = st.keep, max(st.dataSize, 0)
			}
		}
		detail := append(findings[name], findings[""]...)
		res.OK, res.Detail = len(detail) == 0, strings.Join(detail, "; ")
		out = append(out, res)
	}
	if !rep.Clean() {
		return out, fmt.Errorf("container: %s failed verification: %s", c.root, rep.Findings[0])
	}
	return out, nil
}
