package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bagio"
)

// TransformSpec is the spec-file and flag form of a query selection:
// what a dataset build hashes into a content address, and what the
// borabag CLI's -topics/-start/-end/-stride flags fill. It keeps what
// the selection (QuerySpec) cannot hold — bounds in float seconds, and
// whether each bound was given at all — and converts to the selection
// with QuerySpec. The JSON tags are the form internal/build derivations
// use.
//
// Start/End are pointers so an explicitly requested epoch bound
// (start_sec: 0) is distinguishable from an absent one — the
// distinction a float-zero sentinel silently destroys.
type TransformSpec struct {
	// Topics to keep; empty keeps every topic of the source.
	Topics []string `json:"topics,omitempty"`
	// StartSec/EndSec bound the selection to [StartSec, EndSec]
	// inclusive, in seconds since the epoch. Nil leaves the side
	// unbounded. Bounds must be finite, non-negative and within the
	// representable bagio.Time range, and an end bound must lie past
	// the epoch.
	StartSec *float64 `json:"start_sec,omitempty"`
	EndSec   *float64 `json:"end_sec,omitempty"`
	// Stride keeps every Stride-th message of each topic (the first,
	// then every Stride-th after it), counted inside the window. 0 and
	// 1 keep everything; negative is invalid.
	Stride int `json:"stride,omitempty"`
}

// bound converts a spec-file bound in seconds to a time, rejecting the
// values hostile inputs use to smuggle overflow past the float→int
// conversion: NaN, ±Inf, negatives, and beyond u32 seconds (Time.Sec).
func bound(v float64) (bagio.Time, error) {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return bagio.Time{}, fmt.Errorf("bora: time bound %v is not a finite number", v)
	case v < 0:
		return bagio.Time{}, fmt.Errorf("bora: time bound %v is negative (bag times start at the epoch)", v)
	case v > math.MaxUint32:
		return bagio.Time{}, fmt.Errorf("bora: time bound %v exceeds the representable range (%v s)", v, uint32(math.MaxUint32))
	}
	return bagio.TimeFromNanos(int64(v * 1e9)), nil
}

// QuerySpec validates the transform and returns the selection it
// describes, its topics sorted and deduplicated. It delivers grouped by
// topic (OrderTopic) — the order Rebag materializes under, where only
// per-topic order matters.
func (ts TransformSpec) QuerySpec() (q QuerySpec, err error) {
	seen := map[string]bool{}
	for _, t := range ts.Topics {
		if !seen[t] {
			seen[t] = true
			q.Topics = append(q.Topics, t)
		}
	}
	sort.Strings(q.Topics)
	q.Stride = ts.Stride
	if ts.StartSec != nil {
		if q.Start, err = bound(*ts.StartSec); err != nil {
			return QuerySpec{}, err
		}
	}
	if ts.EndSec != nil {
		if q.End, err = bound(*ts.EndSec); err != nil {
			return QuerySpec{}, err
		}
		if q.End.IsZero() {
			// A zero End means "no end bound": reading an end at the epoch
			// so would return everything the caller excluded. It would
			// select only messages stamped 0.000000000, which rosbag never
			// writes (ros::TIME_MIN is 1 ns).
			return QuerySpec{}, fmt.Errorf("bora: end bound %v is at the epoch, before any recorded message", *ts.EndSec)
		}
	}
	if err := q.Validate(); err != nil {
		return QuerySpec{}, err
	}
	return q, nil
}

// Canonical returns a deterministic byte encoding of the spec:
// identical selections — regardless of topic order, duplicate topics,
// or float formatting — produce identical bytes. Content-addressed
// builds hash this form (together with the source identity) into a
// derivation address.
func (ts TransformSpec) Canonical() ([]byte, error) {
	q, err := ts.QuerySpec()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("bora-transform v1\n")
	for _, t := range q.Topics {
		b.WriteString("topic=" + t + "\n")
	}
	if ts.StartSec != nil {
		b.WriteString("start=" + strconv.FormatInt(q.Start.Nanos(), 10) + "\n")
	}
	if ts.EndSec != nil {
		b.WriteString("end=" + strconv.FormatInt(q.End.Nanos(), 10) + "\n")
	}
	if q.Stride > 1 {
		b.WriteString("stride=" + strconv.Itoa(q.Stride) + "\n")
	}
	return []byte(b.String()), nil
}
