package container

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"
	"unsafe"
)

// faultSink keeps a touch of a mapped byte from being optimized away.
var faultSink byte

// within reports whether b lies inside m's mapping.
func within(m *mapping, b []byte) bool {
	if len(b) == 0 {
		return true
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= base && p+uintptr(len(b)) <= base+uintptr(len(m.data))
}

// TestMappedTopicReadsSlicesOfOneMapping: a mapped topic hands every
// OpenData the same mapping; a full scan is a run of slices of it and a
// strided survivor one slice each, with no scratch grown and the same
// bytes the writer appended. A cut between queries is measured by the
// next OpenData, so an entry past it is refused by name, as over a
// plain file, and by Remeasure, which asks the length again.
func TestMappedTopicReadsSlicesOfOneMapping(t *testing.T) {
	const msgs, size = 2_000, 345
	payloads := make([][]byte, msgs)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size)[:size]
	}
	topic := sealedTopic(t, payloads)
	topic.mapped = true
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	r, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	m, ok := r.(*mapping)
	if !ok {
		t.Fatalf("a mapped topic opened %T, want its mapping", r)
	}
	if again, _ := topic.OpenData(); again != r {
		t.Error("a second OpenData mapped the part again; want the one mapping")
	}
	var scratch []byte
	for sel := entries; len(sel) > 0; {
		data, k, err := topic.ReadExtentInto(r, sel, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !within(m, data) {
			t.Fatal("a run was not a slice of the mapping")
		}
		sel = sel[k:]
	}
	got, err := drain(t, topic, r, entries, &scratch)
	if err != nil || !reflect.DeepEqual(got, payloads) {
		t.Fatalf("full scan through the mapping differs from what was appended (err %v)", err)
	}
	for i := 0; i < msgs; i += 10 {
		data, err := topic.ReadMessageInto(r, entries[i], &scratch)
		if err != nil || !within(m, data) || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("strided message %d: err %v, a slice of the mapping %v", i, err, within(m, data))
		}
	}
	if cap(scratch) != 0 {
		t.Errorf("mapped reads grew the scratch to %d bytes; want none", cap(scratch))
	}

	cut := entries[msgs/2].PhysicalOffset + 1
	if err := os.Truncate(filepath.Join(topic.Dir(), DataFileName), int64(cut)); err != nil {
		t.Fatal(err)
	}
	r, err = topic.OpenData()
	if err != nil || r != DataReader(m) {
		t.Fatalf("OpenData after the cut: %T, %v; want the same mapping", r, err)
	}
	if _, err := topic.ReadMessageInto(r, entries[msgs/2-1], &scratch); err != nil {
		t.Errorf("a message before the cut: %v", err)
	}
	if _, err := topic.ReadMessageInto(r, entries[msgs/2], &scratch); !errors.Is(err, ErrIndexBeyondData) {
		t.Errorf("a message across the cut: err = %v, want ErrIndexBeyondData", err)
	}
	// A query that delivered up to the cut read the part's data; one that
	// delivered past it read zeros the cut left in its page.
	if err := topic.Remeasure(r, cut); err != nil {
		t.Errorf("Remeasure up to the cut: %v", err)
	}
	if err := topic.Remeasure(r, cut+1); !errors.Is(err, ErrIndexBeyondData) {
		t.Errorf("Remeasure past the cut: err = %v, want ErrIndexBeyondData", err)
	}
}

// TestMappedTopicFallsBackToTheFile: a data file that cannot be mapped —
// an empty one — is read as a plain file, which answers as it does for
// any one-shot handle.
func TestMappedTopicFallsBackToTheFile(t *testing.T) {
	topic := sealedTopic(t, nil)
	topic.mapped = true
	r, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(*dataFile); !ok {
		t.Fatalf("an empty data file opened %T, want the plain file reader", r)
	}
	if topic.mapping != nil {
		t.Error("an empty data file was recorded as mapped")
	}
}

// TestMappedFaultIsTyped: a part cut under its mapping faults where the
// bytes are touched; on a goroutine that asked for faults as panics, the
// panic's value is the topic's ErrIndexBeyondData — and only for an
// address inside that mapping.
func TestMappedFaultIsTyped(t *testing.T) {
	payloads := [][]byte{bytes.Repeat([]byte("x"), 3*os.Getpagesize())}
	topic := sealedTopic(t, payloads)
	topic.mapped = true
	r, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	m := r.(*mapping)
	if err := os.Truncate(filepath.Join(topic.Dir(), DataFileName), 0); err != nil {
		t.Fatal(err)
	}
	touch := func(b []byte) (p any) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() { p = recover() }()
		faultSink = b[len(b)-1]
		return nil
	}
	p := touch(m.data)
	if p == nil {
		t.Fatal("touching a page past the cut did not fault")
	}
	if err := topic.Fault(r, p); !errors.Is(err, ErrIndexBeyondData) {
		t.Errorf("Fault(mapping, fault in it) = %v, want ErrIndexBeyondData", err)
	}
	other := sealedTopic(t, payloads)
	other.mapped = true
	r2, err := other.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Fault(r2, p); err != nil {
		t.Errorf("Fault(another mapping, the fault) = %v, want nil", err)
	}
	if err := topic.Fault(r, errors.New("not a fault")); err != nil {
		t.Errorf("Fault(mapping, a plain panic) = %v, want nil", err)
	}
}

// TestCutUnderAFileReadIsTyped: a plain file cut after it was opened,
// while a drain is under way, ends the drain with ErrIndexBeyondData
// naming the entry — not a bare EOF — after the messages wholly read.
func TestCutUnderAFileReadIsTyped(t *testing.T) {
	const msgs, size = 1_000, 345
	payloads := make([][]byte, msgs)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size)[:size]
	}
	topic := sealedTopic(t, payloads)
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	r, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var scratch []byte
	// The first extent is read whole; the cut lands inside the second.
	_, k, err := topic.ReadExtentInto(r, entries, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	cut := entries[k+k/2].PhysicalOffset + 1
	if err := os.Truncate(filepath.Join(topic.Dir(), DataFileName), int64(cut)); err != nil {
		t.Fatal(err)
	}
	got, err := drain(t, topic, r, entries[k:], &scratch)
	if !errors.Is(err, ErrIndexBeyondData) {
		t.Fatalf("drain across a cut made after the open: err = %v, want ErrIndexBeyondData", err)
	}
	if len(got) != k/2 {
		t.Errorf("drain delivered %d messages before the cut, want %d", len(got), k/2)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloads[k+i]) {
			t.Fatalf("message %d before the cut differs", k+i)
		}
	}
}
