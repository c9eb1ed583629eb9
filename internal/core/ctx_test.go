package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// testBag duplicates a 20-second source bag (320 messages across three
// topics — several cancellation batches deep) into a fresh backend.
func testBag(t *testing.T) *Bag {
	t.Helper()
	b := newBORA(t)
	bag, _, err := b.Duplicate(makeSourceBag(t, t.TempDir(), 20), "ctxbag")
	if err != nil {
		t.Fatal(err)
	}
	return bag
}

// TestQueryContextCancelMidStream: a context canceled from inside the
// callback must stop the stream within one cancellation batch and
// surface ctx.Err(), for every execution plan.
func TestQueryContextCancelMidStream(t *testing.T) {
	bag := testBag(t)
	total, err := bag.MessageCount()
	if err != nil {
		t.Fatal(err)
	}
	if total <= 2*cancelCheckBatch {
		t.Fatalf("test bag too small (%d messages) to observe batched cancellation", total)
	}
	for _, tc := range []struct {
		name string
		spec QuerySpec
	}{
		{"serial", QuerySpec{}},
		{"chrono", QuerySpec{Order: OrderTime}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var delivered atomic.Int64
			err := bag.QueryContext(ctx, tc.spec, func(MessageRef) error {
				if delivered.Add(1) == 1 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The batch check runs on messages read.
			limit := int64(cancelCheckBatch) * 2
			if n := delivered.Load(); n > limit {
				t.Errorf("delivered %d messages after cancel, want <= %d (batched check)", n, limit)
			}
			if n := delivered.Load(); int(n) >= total {
				t.Errorf("cancelled query delivered the full bag (%d messages)", n)
			}
		})
	}
}

// TestQueryContextPreCancelled: an already-canceled context never
// touches the disk and returns immediately.
func TestQueryContextPreCancelled(t *testing.T) {
	bag := testBag(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := bag.QueryContext(ctx, QuerySpec{}, func(MessageRef) error {
		t.Fatal("callback fired under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryContextNilAndBackground: the context-free wrappers behave as
// before (context.Background never cancels), and a nil ctx is tolerated.
func TestQueryContextNilAndBackground(t *testing.T) {
	bag := testBag(t)
	total, err := bag.MessageCount()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := bag.QueryContext(nil, QuerySpec{}, func(MessageRef) error { n++; return nil }); err != nil { //lint:ignore SA1012 nil ctx tolerance is part of the contract
		t.Fatal(err)
	}
	if n != total {
		t.Errorf("nil-ctx query delivered %d of %d messages", n, total)
	}
}
