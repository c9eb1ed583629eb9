package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
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
// message.
func collect(t *testing.T, read func(fn func(MessageRef) error) error) []queryRec {
	t.Helper()
	var out []queryRec
	err := read(func(m MessageRef) error {
		out = append(out, queryRec{Topic: m.Conn.Topic, Time: m.Time, Data: string(m.Data)})
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

// byTopic regroups a delivery into per-topic streams, the unit whose
// internal order every plan guarantees (time order interleaves the
// topics).
func byTopic(recs []queryRec) map[string][]queryRec {
	m := map[string][]queryRec{}
	for _, r := range recs {
		m[r.Topic] = append(m[r.Topic], r)
	}
	return m
}

// TestQueryPlanEquivalence is the plan matrix: across topic selections
// and time windows, every execution plan of Query (serial, chrono) must
// deliver byte-identical per-topic streams — and the serial plan an
// identical sequence — for the same spec, also when several goroutines
// query the one bag at once, as borad's connections do (the Parallel
// cases; run under -race in CI).
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
	serial := func(topics []string) QuerySpec {
		return QuerySpec{Topics: topics, Start: winStart, End: winEnd}
	}
	type matrixCase struct {
		spec    func(topics []string) QuerySpec
		callers int  // goroutines running the spec at once, each checked alone (0 = one)
		ordered bool // exact sequence must match the serial baseline
	}
	cases := map[string]matrixCase{
		"SerialTime": {spec: serial, ordered: true},
		"Chrono": {
			spec: func(topics []string) QuerySpec {
				return QuerySpec{Topics: topics, Start: winStart, End: winEnd, Order: OrderTime}
			},
		},
		"Parallel":               {spec: serial, callers: 2, ordered: true},
		"ParallelDefaultWorkers": {spec: serial, callers: runtime.GOMAXPROCS(0), ordered: true},
	}
	for setName, topics := range topicSets {
		want := collect(t, func(fn func(MessageRef) error) error {
			return bag.Query(serial(topics), fn)
		})
		if len(want) == 0 {
			t.Fatal("serial baseline delivered no messages; matrix case is vacuous")
		}
		for caseName, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", caseName, setName), func(t *testing.T) {
				gots := make([][]queryRec, max(c.callers, 1))
				errs := make([]error, len(gots))
				var wg sync.WaitGroup
				for i := range gots {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = bag.Query(c.spec(topics), func(m MessageRef) error {
							gots[i] = append(gots[i], queryRec{Topic: m.Conn.Topic, Time: m.Time, Data: string(m.Data)})
							return nil
						})
					}(i)
				}
				wg.Wait()
				for i, got := range gots {
					if errs[i] != nil {
						t.Fatalf("caller %d: %v", i, errs[i])
					}
					if c.ordered {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("caller %d: plan delivery differs from serial: got %d msgs, want %d", i, len(got), len(want))
						}
						continue
					}
					if !reflect.DeepEqual(byTopic(got), byTopic(want)) {
						t.Fatalf("caller %d: plan per-topic streams differ from serial: got %d msgs, want %d", i, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestQuerySpecErrors pins the spec validation: an inverted window and a
// negative stride are rejected up front.
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
}

// TestReadTopicsFailFast: the topic-order plan ends at the first error.
// A poisoned first topic delivers nothing from any later topic and
// opens none of their parts, however many topics follow it.
func TestReadTopicsFailFast(t *testing.T) {
	const topics, perTopic = 12, 200
	b := newBORA(t)
	src := makeManyTopicBag(t, t.TempDir(), topics, perTopic)
	bag, _, err := b.Duplicate(src, "many")
	if err != nil {
		t.Fatal(err)
	}
	poison := errors.New("poisoned topic")
	before := bag.Stats()
	delivered := 0
	err = bag.Query(QuerySpec{}, func(m MessageRef) error {
		if m.Conn.Topic == "/t0" { // sorts first, so it streams first
			return poison
		}
		delivered++
		return nil
	})
	if !errors.Is(err, poison) {
		t.Fatalf("err = %v, want the poison error", err)
	}
	if delivered != 0 {
		t.Errorf("delivered %d messages of later topics, want 0", delivered)
	}
	after := bag.Stats()
	if got := after.Seeks - before.Seeks; got != 1 {
		t.Errorf("opened %d data files, want 1: only /t0's part", got)
	}
	if got := after.MessagesRead - before.MessagesRead; got != 1 {
		t.Errorf("read %d messages, want 1: /t0's first", got)
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
