package core

import (
	"repro/internal/bagio"
	"repro/internal/container"
)

// segment is the one segment writer: a building container and the topic
// writers filling it. Every path into the back end appends through one —
// Duplicate's organize pass as it scans the source, CreateBag records
// into a single segment, a live recording into a fresh one per rotation
// window — so whoever feeds a container, the same three calls create,
// fill and seal it.
type segment struct {
	c      *container.Container
	opts   container.TopicOptions
	topics map[string]*container.TopicWriter
	// order holds the writers in creation order. close walks it, not the
	// map, so a seal issues the same back-end operations in the same
	// order on every run — a crash point is reproducible from its seed.
	order []*container.TopicWriter
	// unshared: no reader sees the topics before the seal (Duplicate),
	// so the writers keep no index view (container.TopicWriter.Unshared).
	unshared bool
}

// createSegment starts a building container at dir, written per the
// instance options.
func (b *BORA) createSegment(dir string) (*segment, error) {
	c, err := container.CreateFS(dir, b.opts.FS)
	if err != nil {
		return nil, err
	}
	c.SetObs(b.opts.Obs)
	return &segment{
		c:      c,
		opts:   container.TopicOptions{IndexFlushEvery: b.opts.IndexFlushEvery, TimeWindow: b.opts.TimeWindow},
		topics: map[string]*container.TopicWriter{},
	}, nil
}

// writer returns the writer of conn's topic, creating the topic (with
// conn's full metadata) on first use, with room for entries index
// entries. Not safe for concurrent callers: organize calls it from its
// scanning goroutine, a Recorder under its mutex.
func (s *segment) writer(conn *bagio.Connection, entries int) (*container.TopicWriter, error) {
	if tw, ok := s.topics[conn.Topic]; ok {
		return tw, nil
	}
	tw, err := s.c.CreateTopicOpts(conn, s.opts)
	if err != nil {
		return nil, err
	}
	tw.Grow(entries)
	if s.unshared {
		tw.Unshared()
	}
	s.topics[conn.Topic] = tw
	s.order = append(s.order, tw)
	return tw, nil
}

// close closes every topic writer, in creation order, and the building
// manifest, without sealing: a segment abandoned on an error stays
// building, which Open and List refuse and fsck reports. Every writer
// is closed even after one fails, so no file stays open; the first
// error is returned.
func (s *segment) close() error {
	var first error
	for _, tw := range s.order {
		if err := tw.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.c.Abandon(); err != nil && first == nil {
		first = err
	}
	return first
}

// seal commits the segment: every topic writer closes and the container
// meta flips building→sealed. The sealed segment's Topic objects stay
// live — followers and a wired Bag keep reading them. A live rotation
// does the same in two steps: close, then the container's IssueSeal.
func (s *segment) seal() error {
	if err := s.close(); err != nil {
		return err
	}
	return s.c.Seal()
}
