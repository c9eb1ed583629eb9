package core

import (
	"repro/internal/bagio"
	"repro/internal/container"
)

// segment is the one segment writer: a building container and the topic
// writers filling it. Every path into the back end appends through one —
// Duplicate hands writer to the organizer as its sink factory, CreateBag
// records into a single segment, a live recording into a fresh one per
// rotation window — so whoever feeds a container, the same three calls
// create, fill and seal it.
type segment struct {
	c      *container.Container
	opts   container.TopicOptions
	topics map[string]*container.TopicWriter
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
// conn's full metadata) on first use. Not safe for concurrent callers:
// the organizer calls it from its scanner goroutine only, a Recorder
// under its mutex.
func (s *segment) writer(conn *bagio.Connection) (*container.TopicWriter, error) {
	if tw, ok := s.topics[conn.Topic]; ok {
		return tw, nil
	}
	tw, err := s.c.CreateTopicOpts(conn, s.opts)
	if err != nil {
		return nil, err
	}
	s.topics[conn.Topic] = tw
	return tw, nil
}

// seal commits the segment: every topic writer closes (a no-op for
// those the organizer already closed) and the container meta flips
// building→sealed. The sealed segment's Topic objects stay live —
// followers and a wired Bag keep reading them.
func (s *segment) seal() error {
	for _, tw := range s.topics {
		if err := tw.Close(); err != nil {
			return err
		}
	}
	return s.c.Seal()
}
