package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bagio"
)

// TopicInfo summarizes one topic of an open BORA bag.
type TopicInfo struct {
	Topic    string
	Type     string
	Messages int
	Bytes    int64
	Start    bagio.Time
	End      bagio.Time
	// RateHz is the average message rate over the topic's span (0 for
	// single-message topics).
	RateHz float64
}

// Info summarizes an open BORA bag, mirroring `rosbag info` over the
// container layout.
type Info struct {
	Name     string
	Messages int
	Bytes    int64
	Start    bagio.Time
	End      bagio.Time
	Topics   []TopicInfo
}

// Info gathers the summary. Unlike the stock reader's Info, this reads
// only index files (no message data is touched).
func (bag *Bag) Info() (Info, error) {
	info := Info{Name: bag.name}
	chains, err := bag.chains(nil, false)
	if err != nil {
		return info, err
	}
	for i, ch := range chains {
		ti := TopicInfo{Topic: ch.name, Type: ch.parts[0].Connection().Type}
		for _, t := range ch.parts {
			entries, err := t.Entries()
			if err != nil {
				return info, err
			}
			ti.Messages += len(entries)
			for _, e := range entries {
				ti.Bytes += int64(e.Length)
			}
			if len(entries) == 0 {
				continue
			}
			// Range from the entry scan rather than t.TimeRange(): the
			// latter memoizes, which would freeze a building segment's
			// still-growing range on live-wired handles.
			for _, e := range entries {
				if ti.Start.IsZero() || e.Time.Before(ti.Start) {
					ti.Start = e.Time
				}
				if ti.End.Before(e.Time) {
					ti.End = e.Time
				}
			}
		}
		if span := ti.End.Sub(ti.Start); span > 0 && ti.Messages > 1 {
			ti.RateHz = float64(ti.Messages-1) / span.Seconds()
		}
		info.Topics = append(info.Topics, ti)
		info.Messages += ti.Messages
		info.Bytes += ti.Bytes
		if ti.Messages > 0 {
			if i == 0 || info.Start.IsZero() || ti.Start.Before(info.Start) {
				info.Start = ti.Start
			}
			if info.End.Before(ti.End) {
				info.End = ti.End
			}
		}
	}
	return info, nil
}

// String renders the summary in a rosbag-info-like layout.
func (info Info) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bag:      %s (BORA container)\n", info.Name)
	fmt.Fprintf(&sb, "messages: %d\n", info.Messages)
	fmt.Fprintf(&sb, "size:     %d bytes of payload\n", info.Bytes)
	fmt.Fprintf(&sb, "start:    %s\n", info.Start)
	fmt.Fprintf(&sb, "end:      %s\n", info.End)
	if dur := info.End.Sub(info.Start); dur > 0 {
		fmt.Fprintf(&sb, "duration: %s\n", dur.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "topics:\n")
	for _, t := range info.Topics {
		fmt.Fprintf(&sb, "  %-32s %8d msgs  %10d B  %6.1f Hz  %s\n",
			t.Topic, t.Messages, t.Bytes, t.RateHz, t.Type)
	}
	return sb.String()
}
