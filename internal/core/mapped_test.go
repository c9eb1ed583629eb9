package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/container"
)

// mappedLines counts the lines of /proc/self/maps that name a file under
// dir: the process's live mappings of it. It skips the test where there
// is no /proc.
func mappedLines(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return strings.Count(string(maps), dir+"/")
}

// TestNoMappingOutlivesAOneShotQuery: a one-shot handle maps a part's
// data, and only its data, for the cursor that reads it and unmaps it
// when it closes — after a query that returns, and after one that fails
// mid-part, by its callback or by a cut — in every ordering policy. No
// garbage collection is involved.
func TestNoMappingOutlivesAOneShotQuery(t *testing.T) {
	const msgs = 2000
	b := newBORA(t)
	recordTopic(t, b, "bag", msgs, func(i int) int { return 100 + i%200 })
	root, err := filepath.EvalSymlinks(filepath.Join(b.Root(), "bag"))
	if err != nil {
		t.Fatal(err)
	}
	if n := mappedLines(t, root); n != 0 {
		t.Fatalf("%d mappings of the bag before any query", n)
	}
	dataPath := filepath.Join(root, container.EncodeTopicDir("/t"), container.DataFileName)
	orig, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	for _, p := range everyPolicy {
		for _, c := range []struct {
			name string
			at   func(n int) error // the callback's answer to its n-th message
			want error
		}{
			{"returns", func(int) error { return nil }, nil},
			{"fails mid-part", func(n int) error {
				if n == msgs/2 {
					return stop
				}
				return nil
			}, stop},
			{"is cut mid-part", func(n int) error {
				if n == 1 {
					return os.Truncate(dataPath, int64(len(orig)/2))
				}
				return nil
			}, container.ErrIndexBeyondData},
		} {
			if err := os.WriteFile(dataPath, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			bag, err := b.Open("bag")
			if err != nil {
				t.Fatal(err)
			}
			n, during := 0, 0
			err = bag.Execute(context.Background(), p.spec, p.ex, func(MessageRef) error {
				if n++; n == 1 {
					during = mappedLines(t, root)
				}
				return c.at(n)
			})
			if !errors.Is(err, c.want) {
				t.Errorf("%s, a query that %s: err = %v, want %v", p.name, c.name, err, c.want)
			}
			if during != 1 {
				t.Errorf("%s, a query that %s: %d mappings of the bag while it read, want the part's data alone", p.name, c.name, during)
			}
			if after := mappedLines(t, root); after != 0 {
				t.Errorf("%s, a query that %s: %d mappings of the bag after it, want none", p.name, c.name, after)
			}
		}
	}
}

// TestIndexCutUnderQueryChangesNothing: a query reads a part's index as
// it was when it selected the part, into bytes of its own, so a cut of
// the index file under it — by its first callback, wherever the cut
// falls — changes nothing it delivers: every original message, and no
// error, in every ordering policy, on a one-shot handle (read per
// cursor) and a pooled one (read once). The pooled handle goes on
// serving the index it read after a cut between queries, windowed
// queries included. A fresh one-shot handle reads the index as the cut
// left it: a torn final entry is refused, and a cut between entries
// serves exactly the whole entries before it.
func TestIndexCutUnderQueryChangesNothing(t *testing.T) {
	const msgs = 2000 // 56,000 bytes of index: 14 pages
	b := newBORA(t)
	bag := recordTopic(t, b, "bag", msgs, func(i int) int { return 100 + i%200 })
	topic, err := bag.Container().Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryPrefix(bag, QuerySpec{}, Exec{})
	if err != nil || len(want) != msgs {
		t.Fatalf("before any cut: %d messages, %v", len(want), err)
	}
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(topic.Dir(), container.IndexFileName)
	orig, err := os.ReadFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	pooled.MapData()
	oneShot := func() *Bag {
		bag, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		return bag
	}
	page := int64(os.Getpagesize())
	cuts := []struct {
		name string
		cut  int64
	}{
		{"at byte 0", 0},
		{"at the first page's end", page},
		{"at a page boundary mid-index", int64(len(orig)) / 2 &^ (page - 1)},
		{"mid-page", page + 100},
		{"in the last page, between entries", int64(len(orig)) - 10*container.IndexEntrySize},
		{"in the last page, mid-entry", int64(len(orig)) - 10*container.IndexEntrySize - 5},
	}
	same := func(name string, got, want []string, err error) {
		t.Helper()
		if err != nil || len(got) != len(want) {
			t.Errorf("%s: %d messages, err = %v; want %d and none", name, len(got), err, len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: message %d is not the original's", name, i)
				return
			}
		}
	}
	window := func(spec QuerySpec) QuerySpec {
		spec.Start, spec.End = entries[msgs/2].Time, entries[msgs-1].Time
		return spec
	}
	for _, h := range []struct {
		name string
		open func() *Bag
	}{
		{"one-shot", oneShot},
		{"pooled", func() *Bag { return pooled }},
	} {
		for _, c := range cuts {
			for _, p := range everyPolicy {
				if err := os.WriteFile(ixPath, orig, 0o644); err != nil {
					t.Fatal(err)
				}
				var got []string
				err := h.open().Execute(context.Background(), p.spec, p.ex, func(m MessageRef) error {
					if got = append(got, string(m.Data)); len(got) == 1 {
						return os.Truncate(ixPath, c.cut)
					}
					return nil
				})
				same(fmt.Sprintf("%s handle, index cut %s during the query, %s", h.name, c.name, p.name), got, want, err)
			}
		}
	}
	for _, c := range cuts {
		if err := os.WriteFile(ixPath, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(ixPath, c.cut); err != nil {
			t.Fatal(err)
		}
		for _, p := range everyPolicy {
			got, err := queryPrefix(pooled, p.spec, p.ex)
			same(fmt.Sprintf("pooled handle, index cut %s between queries, %s", c.name, p.name), got, want, err)
			got, err = queryPrefix(pooled, window(p.spec), p.ex)
			same(fmt.Sprintf("pooled handle, index cut %s between queries, windowed %s", c.name, p.name), got, want[msgs/2:], err)
			got, err = queryPrefix(oneShot(), p.spec, p.ex)
			if c.cut%container.IndexEntrySize != 0 {
				if err == nil || len(got) != 0 {
					t.Errorf("one-shot handle opened after an index cut %s, %s: %d messages, err = %v; want none and an error", c.name, p.name, len(got), err)
				}
				continue
			}
			same(fmt.Sprintf("one-shot handle opened after an index cut %s, %s", c.name, p.name), got, want[:c.cut/container.IndexEntrySize], err)
		}
	}
}

// TestCutByTheLastCallbackIsAnError: a mapped part whose data is cut by
// a query's last callback, below the pages that callback's message was
// read from, ends the query with the part's ErrIndexBeyondData — the
// callback may have read zeros where the message was — in every
// ordering policy, on a one-shot and a pooled handle. The window ends
// far below the file's last page, so its last message is a slice of the
// mapping, not a copy.
func TestCutByTheLastCallbackIsAnError(t *testing.T) {
	const msgs = 2000
	b := newBORA(t)
	bag := recordTopic(t, b, "bag", msgs, func(i int) int { return 100 + i%200 })
	topic, err := bag.Container().Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(topic.Dir(), container.DataFileName)
	orig, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	first, last := entries[100], entries[msgs/2]
	if page := uint64(os.Getpagesize()); last.PhysicalOffset+uint64(last.Length)+page > uint64(len(orig)) {
		t.Fatalf("the window's last message ends within a page of the file's end (%d bytes)", len(orig))
	}
	pooled, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	pooled.MapData()
	for _, h := range []struct {
		name string
		bag  func() *Bag
	}{
		{"one-shot", func() *Bag {
			bag, err := b.Open("bag")
			if err != nil {
				t.Fatal(err)
			}
			return bag
		}},
		{"pooled", func() *Bag { return pooled }},
	} {
		for _, p := range everyPolicy {
			if err := os.WriteFile(dataPath, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			spec := p.spec
			spec.Start, spec.End = first.Time, last.Time
			n := 0
			err := h.bag().Execute(context.Background(), spec, p.ex, func(m MessageRef) error {
				if n++; m.Time == last.Time {
					return os.Truncate(dataPath, int64(last.PhysicalOffset)+1)
				}
				return nil
			})
			if want := msgs/2 - 100 + 1; n != want || !errors.Is(err, container.ErrIndexBeyondData) {
				t.Errorf("%s handle, %s: %d messages, err = %v; want %d and ErrIndexBeyondData", h.name, p.name, n, err, want)
			}
		}
	}
}

// TestPinnedDataLastsUntilIdle: a pooled handle's query pins the
// payloads it hands out as slices of its shared mapping
// (Bag.Pinned), and calls Idle after each part's last delivery, so
// a callback that keeps pinned Data sees it checked, unchanged, before
// the query returns — in every policy. A one-shot handle, whose cursors
// unmap what they read, pins nothing.
func TestPinnedDataLastsUntilIdle(t *testing.T) {
	b := newBORA(t)
	recordTopic(t, b, "bag", 2000, func(i int) int { return 100 + i%200 })
	pooled, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	pooled.MapData()
	for _, p := range everyPolicy {
		oneShot, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		if err := oneShot.Execute(context.Background(), p.spec, p.ex, func(m MessageRef) error {
			if oneShot.Pinned(m) != (container.Guard{}) {
				return errors.New("a one-shot handle pinned a payload")
			}
			return nil
		}); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}

		var (
			kept, want       [][]byte
			pinned, verified int
		)
		ex := p.ex
		ex.Idle = func() error {
			for i := range kept {
				if !bytes.Equal(kept[i], want[i]) {
					return fmt.Errorf("pinned payload %d changed before Idle", verified+i)
				}
			}
			verified += len(kept)
			kept, want = kept[:0], want[:0]
			return nil
		}
		err = pooled.Execute(context.Background(), p.spec, ex, func(m MessageRef) error {
			if pooled.Pinned(m) == (container.Guard{}) {
				return nil
			}
			pinned++
			kept, want = append(kept, m.Data), append(want, m.Copy())
			return nil
		})
		if err != nil || pinned == 0 || verified != pinned {
			t.Errorf("%s: err %v; %d payloads pinned, %d checked at Idle; want some, all checked", p.name, err, pinned, verified)
		}
	}
}
