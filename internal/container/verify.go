package container

import (
	"fmt"
	"hash/crc32"
	"strings"
)

// crcTable is the checksum of a topic's data file: crc32c, recorded
// with the data's length in the sealed manifest.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
