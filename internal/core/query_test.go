package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bagio"
)

// queryRec is one delivered message, captured with a private copy of the
// payload so comparisons survive buffer reuse in the readers.
type queryRec struct {
	Topic string
	Time  bagio.Time
	Data  string
}

// collect runs one read entry point and captures every delivered
// message. The callback locks: parallel plans may deliver concurrently.
func collect(t *testing.T, read func(fn func(MessageRef) error) error) []queryRec {
	t.Helper()
	var mu sync.Mutex
	var out []queryRec
	err := read(func(m MessageRef) error {
		mu.Lock()
		out = append(out, queryRec{Topic: m.Conn.Topic, Time: m.Time, Data: string(m.Data)})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

// byTopic regroups a delivery into per-topic streams, the unit whose
// internal order every plan guarantees (cross-topic interleaving is
// arbitrary under parallel plans).
func byTopic(recs []queryRec) map[string][]queryRec {
	m := map[string][]queryRec{}
	for _, r := range recs {
		m[r.Topic] = append(m[r.Topic], r)
	}
	return m
}

// TestQueryPlanEquivalence is the plan matrix: across topic selections
// and time windows, every execution plan of Query (serial, chrono,
// parallel, parallel with default workers) must deliver byte-identical
// per-topic streams — and the serial plans an identical sequence — for
// the same spec.
func TestQueryPlanEquivalence(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 6)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	winStart := bagio.TimeFromNanos(base + 2e9)
	winEnd := bagio.TimeFromNanos(base + 4e9)

	topicSets := map[string][]string{
		"all":     nil,
		"imu":     {"/imu"},
		"imu+tf":  {"/imu", "/tf"},
		"reorder": {"/tf", "/camera/rgb/image_color", "/imu"},
	}
	type matrixCase struct {
		spec    func(topics []string) QuerySpec
		ex      Exec
		ordered bool // exact sequence must match the serial baseline
	}
	cases := map[string]matrixCase{
		"SerialTime": {
			spec: func(topics []string) QuerySpec {
				return QuerySpec{Topics: topics, Start: winStart, End: winEnd}
			},
			ordered: true,
		},
		"Chrono": {
			spec: func(topics []string) QuerySpec {
				return QuerySpec{Topics: topics, Start: winStart, End: winEnd, Order: OrderTime}
			},
		},
		"Parallel": {
			spec: func(topics []string) QuerySpec {
				return QuerySpec{Topics: topics, Start: winStart, End: winEnd}
			},
			ex: Exec{Workers: 2},
		},
		"ParallelDefaultWorkers": {
			spec: func(topics []string) QuerySpec {
				return QuerySpec{Topics: topics, Start: winStart, End: winEnd}
			},
			ex: Exec{Workers: -1},
		},
	}
	for setName, topics := range topicSets {
		want := collect(t, func(fn func(MessageRef) error) error {
			return bag.Query(QuerySpec{Topics: topics, Start: winStart, End: winEnd}, fn)
		})
		if len(want) == 0 {
			t.Fatal("serial baseline delivered no messages; matrix case is vacuous")
		}
		for caseName, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", caseName, setName), func(t *testing.T) {
				got := collect(t, func(fn func(MessageRef) error) error {
					return bag.Execute(context.Background(), c.spec(topics), c.ex, fn)
				})
				if c.ordered {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("plan delivery differs from serial: got %d msgs, want %d", len(got), len(want))
					}
					return
				}
				if !reflect.DeepEqual(byTopic(got), byTopic(want)) {
					t.Fatalf("plan per-topic streams differ from serial: got %d msgs, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestQuerySpecErrors pins the spec validation: an inverted window, a
// negative stride and a parallel chrono plan are rejected up front.
func TestQuerySpecErrors(t *testing.T) {
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), 2)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	late := bagio.TimeFromNanos(2_000_000_000_000_000_000)
	early := bagio.TimeFromNanos(1_000_000_000_000_000_000)
	err = bag.Query(QuerySpec{Start: late, End: early}, func(MessageRef) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "before start time") {
		t.Fatalf("inverted window: err = %v, want before-start error", err)
	}
	err = bag.Query(QuerySpec{Stride: -1}, func(MessageRef) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "negative stride") {
		t.Fatalf("negative stride: err = %v, want negative-stride error", err)
	}
	err = bag.Execute(context.Background(), QuerySpec{Order: OrderTime}, Exec{Workers: 4}, func(MessageRef) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "Workers must be 0") {
		t.Fatalf("OrderTime+Workers: err = %v, want serial-only error", err)
	}
}

// TestQueryIsTheOnlyReadEntryPoint pins the completed deprecation: the
// ReadMessages* wrappers and the span-taking QuerySpanContext are gone
// from Bag's method set, leaving Execute (and its Query/QueryContext
// wrappers) as the single read API.
func TestQueryIsTheOnlyReadEntryPoint(t *testing.T) {
	typ := reflect.TypeOf(&Bag{})
	for _, name := range []string{
		"ReadMessages", "ReadMessagesTime", "ReadMessagesChrono",
		"ReadMessagesParallel", "ReadMessagesTimeParallel", "QuerySpanContext",
	} {
		if _, ok := typ.MethodByName(name); ok {
			t.Errorf("*Bag still has legacy method %s; it should be removed", name)
		}
	}
	if _, ok := typ.MethodByName("Query"); !ok {
		t.Fatal("*Bag lost its Query method")
	}
}
