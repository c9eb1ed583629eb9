package graph

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bagio"
)

// TestPublishBorrowedDelivery: a reused publish buffer reaches both
// synchronous (inline, borrowed) and asynchronous (queued, pooled copy)
// subscribers intact, even though the publisher scribbles over the
// buffer between publishes.
func TestPublishBorrowedDelivery(t *testing.T) {
	g := New()
	defer g.Shutdown()
	pubNode, _ := g.NewNode("pub")
	subNode, _ := g.NewNode("sub")

	var mu sync.Mutex
	var syncGot, asyncGot [][]byte
	if _, err := subNode.subscribeSync("/t", func(m Message) {
		// Borrowed: copy what we keep, per the contract.
		mu.Lock()
		syncGot = append(syncGot, append([]byte(nil), m.Data...))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	asub, err := subNode.Subscribe("/t", 64, func(m Message) {
		mu.Lock()
		asyncGot = append(asyncGot, append([]byte(nil), m.Data...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	pub, err := pubNode.Advertise("/t", "x/Y")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	buf := make([]byte, 0, 32)
	var want [][]byte
	for i := 0; i < n; i++ {
		buf = append(buf[:0], fmt.Sprintf("message-%03d", i)...)
		want = append(want, append([]byte(nil), buf...))
		if err := pub.PublishBorrowed(bagio.Time{Sec: uint32(i)}, buf); err != nil {
			t.Fatal(err)
		}
	}
	asub.Close() // drain the async queue

	mu.Lock()
	defer mu.Unlock()
	if len(syncGot) != n {
		t.Fatalf("sync subscriber got %d messages, want %d", len(syncGot), n)
	}
	if len(asyncGot) != n {
		t.Fatalf("async subscriber got %d messages, want %d", len(asyncGot), n)
	}
	for i := range want {
		if !bytes.Equal(syncGot[i], want[i]) {
			t.Errorf("sync message %d = %q, want %q", i, syncGot[i], want[i])
		}
		if !bytes.Equal(asyncGot[i], want[i]) {
			t.Errorf("async message %d = %q, want %q", i, asyncGot[i], want[i])
		}
	}
}

// TestPublishBorrowedLatch: the latch takes an owned copy, so a late
// subscriber sees the last published bytes even after the publisher
// reused its buffer.
func TestPublishBorrowedLatch(t *testing.T) {
	g := New()
	defer g.Shutdown()
	pubNode, _ := g.NewNode("pub")
	subNode, _ := g.NewNode("sub")
	pub, err := pubNode.advertise("/map", "x/Map", true)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("the latched map")
	if err := pub.PublishBorrowed(bagio.Time{Sec: 1}, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0 // publisher reuses its buffer
	}
	got := make(chan []byte, 1)
	if _, err := subNode.subscribeSync("/map", func(m Message) {
		got <- append([]byte(nil), m.Data...)
	}); err != nil {
		t.Fatal(err)
	}
	if data := <-got; !bytes.Equal(data, []byte("the latched map")) {
		t.Errorf("latched delivery = %q, want %q", data, "the latched map")
	}
}

// TestSubscribeSyncClose: close waits for in-flight inline callbacks
// and suppresses delivery afterwards.
func TestSubscribeSyncClose(t *testing.T) {
	g := New()
	defer g.Shutdown()
	pubNode, _ := g.NewNode("pub")
	subNode, _ := g.NewNode("sub")
	var n int
	var mu sync.Mutex
	sub, err := subNode.subscribeSync("/t", func(m Message) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubNode.Advertise("/t", "x/Y")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishBorrowed(bagio.Time{}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if err := pub.PublishBorrowed(bagio.Time{}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Errorf("delivered %d messages, want 1 (none after Close)", n)
	}
}
