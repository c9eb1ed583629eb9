// Package spec defines BORA's one query selection (PAPER §II, Figs 7–8):
// which topics, which [Start, End] window, in which order, every how
// many messages, and whether to tail a recording. It is a plain value,
// built once — from flags, a build spec file or a wire frame — and
// handed unchanged to core's executor, encoded into a QUERY frame, or
// hashed into a build address. How a query runs (worker pool, idle
// hook, parent span) is not part of it; core keeps that.
package spec

import (
	"fmt"
	"strings"

	"repro/internal/bagio"
)

// Order selects the cross-topic delivery order of a query.
type Order int

const (
	// OrderTopic (the default) yields messages grouped by topic in the
	// order requested, each topic in timestamp order — the
	// layout-friendly order that streams every topic file sequentially
	// (Fig 7). Only OrderTopic queries may run parallel plans.
	OrderTopic Order = iota
	// OrderTime yields messages in global timestamp order across
	// topics. It exists for consumers (e.g. SLAM replays) that need
	// cross-topic chronology; pure extraction workloads should prefer
	// OrderTopic.
	OrderTime
)

// Query is one selection over a bag. The zero value reads every
// message of every topic, grouped by topic.
type Query struct {
	// Topics to read; empty selects every topic in the bag.
	Topics []string
	// Start and End bound the query to [Start, End] inclusive. The
	// zero Start is the beginning of time; a zero End means
	// bagio.MaxTime, so a zero window is a full-axis scan.
	Start bagio.Time
	End   bagio.Time
	// Order selects the cross-topic delivery order.
	Order Order
	// Stride, when > 1, delivers every Stride-th message of each topic
	// — the topic's first in-window message, then every Stride-th after
	// it, counted in append order, so every order, plan and Follow
	// setting delivers the same messages. 0 and 1 deliver everything;
	// negative is an error.
	Stride int
	// Follow tails a bag that is still recording: the query first
	// delivers a consistent snapshot of everything recorded before it
	// subscribed (in timestamp order, like OrderTime), then streams
	// each new message in write order as it lands, until the recording
	// seals or the query is cancelled. On a bag that is not recording,
	// Follow delivers the chronological snapshot and returns. Order is
	// ignored.
	Follow bool
}

// Validate reports the first reason the selection is malformed: an
// empty topic name or one holding a newline (build addresses encode
// topics one per line), an inverted window, a negative stride, or an
// unknown order.
func (q Query) Validate() error {
	for _, t := range q.Topics {
		if t == "" {
			return fmt.Errorf("bora: query names an empty topic")
		}
		if strings.ContainsRune(t, '\n') {
			return fmt.Errorf("bora: topic %q contains a newline", t)
		}
	}
	if !q.End.IsZero() && q.End.Before(q.Start) {
		return fmt.Errorf("bora: query window is inverted: end time %v before start time %v", q.End, q.Start)
	}
	if q.Stride < 0 {
		return fmt.Errorf("bora: negative stride %d", q.Stride)
	}
	if q.Order != OrderTopic && q.Order != OrderTime {
		return fmt.Errorf("bora: unknown order %d", q.Order)
	}
	return nil
}
