package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/obs"
)

// duplicate is the write side of the read/write/space trade (the
// paper's Fig 9): every op re-organizes the source bag into a fresh
// container — rosbag reader, organizer, topic writers, time-index
// build, meta and index flush — and removes it again. Reads are idle,
// so a read-path gain bought with a dearer container build shows here.
type duplicate struct {
	common
	b    *core.BORA
	src  string
	k    int
	disk int64 // bytes on disk of the last container verified
	reg0 obs.Snapshot
	ops  float64 // since mark
}

func (w *duplicate) setup(src string, orc *oracle) (err error) {
	w.src, w.orc = src, orc
	if w.b, err = core.New(filepath.Join(w.dir, "backend"), core.Options{Obs: w.tr.reg}); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		w.op(false)
	}
	return nil
}

func (w *duplicate) op(verify bool) (sum, time.Duration) {
	name := fmt.Sprintf("dup-%d", w.k)
	w.k++
	sp := w.tr.sp

	t0 := time.Now()
	op := sp.begin("bench.op")
	s := sp.begin("core.Duplicate")
	bag, st, err := w.b.Duplicate(w.src, name)
	sp.end(s, err)
	got := sum{n: st.Messages, bytes: st.Bytes}
	mismatch := ""
	if err == nil {
		mismatch = diff(got, sum{n: w.orc.total.n, bytes: w.orc.total.bytes})
		if verify && mismatch == "" {
			mismatch = w.verify(bag, name)
		}
		s = sp.begin("core.Remove")
		err = w.b.Remove(name)
		sp.end(s, err)
	}
	sp.end(op, err)
	d := time.Since(t0)

	w.tally.op("duplicate", err, mismatch)
	w.ops++
	return got, d
}

// verify checks a freshly built container three ways: its own checksum
// verification, its message count, and a full read compared with the
// oracle's digest. It also measures the container's size on disk.
func (w *duplicate) verify(bag *core.Bag, name string) string {
	results, err := bag.Container().Verify()
	if err != nil {
		return "container verify: " + err.Error()
	}
	for _, r := range results {
		if !r.OK {
			return fmt.Sprintf("container verify: topic %s: %s", r.Topic, r.Detail)
		}
	}
	n, err := bag.MessageCount()
	if err != nil {
		return "message count: " + err.Error()
	}
	if int64(n) != w.orc.total.n {
		return fmt.Sprintf("message count: got %d, want %d", n, w.orc.total.n)
	}
	col := newCollector(true, orderTopic)
	err = bag.Query(core.QuerySpec{}, func(m core.MessageRef) error {
		col.add(m.Conn.Topic, m.Time, m.Data)
		return nil
	})
	if err != nil {
		return "read back: " + err.Error()
	}
	if m := col.check(w.orc.total); m != "" {
		return "read back: " + m
	}
	if w.disk, err = dirBytes(filepath.Join(w.b.Root(), name)); err != nil {
		return "stored bytes: " + err.Error()
	}
	return ""
}

func (w *duplicate) round(verify bool) (int64, time.Duration, []float64) {
	return runOps(w.opsIn(verify, 1), func() (sum, time.Duration) { return w.op(verify) })
}

func (w *duplicate) mark() {
	w.ops = 0
	if w.tr.reg != nil {
		w.reg0 = w.tr.reg.Snapshot()
	}
}

func (w *duplicate) layers(out metrics) {
	w.spanMs(out, "core.duplicate_ms", "core.Duplicate", 1)
	w.spanMs(out, "core.remove_ms", "core.Remove", 1)
	if w.tr.reg != nil && w.ops > 0 {
		d := w.tr.reg.Snapshot().Delta(w.reg0)
		out["organizer.enqueue_stall_ms_per_op"] = float64(d.Ops["organizer.enqueue_stall"].TotalNs) / 1e6 / w.ops
		out["organizer.append_ms_per_op"] = float64(d.Ops["organizer.append"].TotalNs) / 1e6 / w.ops
	}
}

func (w *duplicate) stored() (int64, int64) { return w.disk, w.orc.total.bytes }
func (w *duplicate) close() error           { return nil }

// followTail is live ingest with a tailing reader: every round records
// into a fresh live bag while a local Follow query, attached from the
// start, receives every message. Phase A is what the end-to-end metrics
// see: an op is one batch of followBatch messages written and the
// follower's delivery of the last of them awaited, so there is one
// critical path and no lock race between a free-running writer and the
// follower, and the batch is large enough that the op is not mostly the
// two thread wake-ups at its ends. Phase B is the wake-up itself: paced
// single messages carrying their send time, reported per layer — one
// bound serves op_p50_ms on all workloads, and a 25 µs futex wake on a
// shared virtual machine does not repeat within it. The segment window
// is 10 s of message time and a round spans 30 s, so segments rotate
// inside the round.
type followTail struct {
	common
	b       *core.BORA
	k       int
	payload []byte

	disk, payloadBytes int64
	// Since mark: Recorder.WriteMessage time and write-to-delivery
	// latency per phase-B message, that latency's per-round tail
	// percentile, and the time of each Seal.
	writeUs, deliverUs, tailUs, sealMs []float64
	segments                           float64 // of the last round
}

const (
	followBatch   = 256                    // server.DefaultRecordWindow, the credit a remote recorder gets
	followPaced   = 600                    // phase-B messages per round
	followPayload = 345                    // the mix's /imu message size
	followPace    = 400 * time.Microsecond // idle time before each phase-B message
	followWindow  = 10 * time.Second
	followSpanNs  = int64(30 * time.Second) // message time one round covers
	followTimeout = 60 * time.Second
)

func (w *followTail) setup(string, *oracle) (err error) {
	if w.b, err = core.New(filepath.Join(w.dir, "backend"), core.Options{Obs: w.tr.reg}); err != nil {
		return err
	}
	w.payload = make([]byte, followPayload)
	rand.New(rand.NewSource(w.seed)).Read(w.payload)
	w.round(false)
	return nil
}

// delivery is what the follower goroutine hands back when its query
// returns.
type delivery struct {
	col *collector
	lat []float64 // µs, phase B only
	bad string    // first sequence violation
	err error
}

func (w *followTail) round(verify bool) (int64, time.Duration, []float64) {
	name := fmt.Sprintf("live-%d", w.k)
	w.k++
	batches := w.opsIn(verify, 100)
	nA, nB := batches*followBatch, min(followPaced, batches)
	sp := w.tr.sp

	rec, err := w.b.CreateLiveBag(name, followWindow)
	if !w.tally.op("follow_tail create", err, "") {
		return 0, 0, nil
	}
	conn, err := rec.AddConnection("/telemetry", "bora_bench/Telemetry")
	var bag *core.Bag
	if err == nil {
		bag, err = w.b.Open(name)
	}
	if !w.tally.op("follow_tail open", err, "") {
		return 0, 0, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), followTimeout)
	defer cancel()
	// Send times are stamped on the monotonic clock; 0 marks phase A.
	epoch := time.Now()
	stamp := func() int64 { return int64(time.Since(epoch)) + 1 }
	ack := make(chan struct{}, 1) // one token: the follower never runs more than one ack ahead
	done := make(chan delivery, 1)
	go func() {
		d := delivery{col: newCollector(verify, orderNone), lat: make([]float64, 0, nB)}
		var next uint64
		d.err = bag.QueryContext(ctx, core.QuerySpec{Follow: true}, func(m core.MessageRef) error {
			now := stamp()
			if len(m.Data) != followPayload {
				return fmt.Errorf("payload of %d bytes", len(m.Data))
			}
			if seq := binary.LittleEndian.Uint64(m.Data[8:]); seq != next && d.bad == "" {
				d.bad = fmt.Sprintf("sequence: got %d, want %d", seq, next)
			}
			next++
			d.col.add(m.Conn.Topic, m.Time, m.Data)
			if sent := int64(binary.LittleEndian.Uint64(m.Data)); sent != 0 {
				d.lat = append(d.lat, float64(now-sent)/1e3)
			} else if next%followBatch != 0 {
				return nil
			}
			select {
			case ack <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil
		})
		done <- d
	}()
	// await blocks until the follower acknowledges, or has given up.
	var early *delivery
	await := func() error {
		select {
		case <-ack:
			return nil
		case d := <-done:
			early = &d
			if d.err == nil {
				d.err = errors.New("follower ended before the recording sealed")
			}
			return d.err
		}
	}

	var written sum
	dt := followSpanNs / int64(nA+nB)
	write := func(seq int, sent int64) error {
		binary.LittleEndian.PutUint64(w.payload, uint64(sent))
		binary.LittleEndian.PutUint64(w.payload[8:], uint64(seq))
		t := bagio.TimeFromNanos(baseNs + int64(seq)*dt)
		if verify {
			written.digest += msgHash("/telemetry", t, w.payload)
		}
		written.n++
		written.bytes += followPayload
		return rec.WriteMessage(conn, t, w.payload)
	}

	// Phase A: one op per batch, the next batch written only once the
	// follower has delivered this one.
	lat := make([]float64, 0, batches)
	tA := time.Now()
	for b := 0; b < batches && err == nil; b++ {
		t0 := time.Now()
		op := sp.begin("bench.op")
		s := sp.begin("core.WriteMessage.batch")
		for i := 0; i < followBatch && err == nil; i++ {
			err = write(b*followBatch+i, 0)
		}
		sp.end(s, err)
		if err == nil {
			s = sp.begin("core.follow_deliver")
			err = await()
			sp.end(s, err)
		}
		sp.end(op, err)
		lat = append(lat, ms(time.Since(t0)))
		w.tally.op("follow_tail batch", err, "")
	}
	wallA := time.Since(tA)

	// Phase B: write-to-delivery latency of paced single messages.
	for i := 0; i < nB && err == nil; i++ {
		time.Sleep(followPace)
		sent := stamp()
		err = write(nA+i, sent)
		w.writeUs = append(w.writeUs, float64(stamp()-sent)/1e3)
		if err == nil {
			err = await()
		}
		w.tally.op("follow_tail message", err, "")
	}

	// Seal: the follower must drain to a clean end, having seen every
	// message exactly once and in order.
	t0 := time.Now()
	serr := rec.Seal()
	w.sealMs = append(w.sealMs, ms(time.Since(t0)))
	w.segments = float64(rec.Segments())
	if err != nil {
		cancel() // a follower still tailing would otherwise wait for a seal that failed
	}
	var d delivery
	if early != nil {
		d = *early
	} else {
		d = <-done
	}
	if err == nil {
		err = serr
	}
	if err == nil {
		err = d.err
	}
	mismatch := d.bad
	if mismatch == "" && d.col != nil {
		mismatch = d.col.check(written)
	}
	if err == nil && mismatch == "" && verify {
		mismatch = w.verify(name, written)
	}
	w.tally.op("follow_tail seal", err, mismatch)
	if rerr := w.b.Remove(name); rerr != nil {
		w.tally.op("follow_tail remove", rerr, "")
	}
	w.deliverUs = append(w.deliverUs, d.lat...)
	if _, v, ok := tailPercentile(d.lat); ok {
		w.tailUs = append(w.tailUs, v)
	}
	return int64(nA), wallA, lat
}

// verify reopens the sealed live bag cold and checks every segment's
// checksums and the total message count; it also measures the bag's
// size on disk.
func (w *followTail) verify(name string, written sum) string {
	bag, err := w.b.Open(name)
	if err != nil {
		return "reopen: " + err.Error()
	}
	for _, c := range bag.Segments() {
		results, err := c.Verify()
		if err != nil {
			return "segment verify: " + err.Error()
		}
		for _, r := range results {
			if !r.OK {
				return fmt.Sprintf("segment verify: topic %s: %s", r.Topic, r.Detail)
			}
		}
	}
	n, err := bag.MessageCount()
	if err != nil {
		return "message count: " + err.Error()
	}
	if int64(n) != written.n {
		return fmt.Sprintf("message count: got %d, want %d", n, written.n)
	}
	if w.disk, err = dirBytes(filepath.Join(w.b.Root(), name)); err != nil {
		return "stored bytes: " + err.Error()
	}
	w.payloadBytes = written.bytes
	return ""
}

func (w *followTail) mark() { w.writeUs, w.deliverUs, w.tailUs, w.sealMs = nil, nil, nil, nil }

func (w *followTail) layers(out metrics) {
	w.spanMs(out, "core.follow_batch_write_ms", "core.WriteMessage.batch", 1)
	w.spanMs(out, "core.follow_batch_wait_ms", "core.follow_deliver", 1)
	if len(w.sealMs) == 0 {
		return
	}
	out["core.record_write_us"] = median(w.writeUs)
	out["core.follow_deliver_us"] = median(w.deliverUs)
	out["core.follow_deliver_tail_us"] = median(w.tailUs)
	out["core.seal_ms"] = median(w.sealMs)
	out["core.follow_segments"] = w.segments
}

func (w *followTail) stored() (int64, int64) { return w.disk, w.payloadBytes }
func (w *followTail) close() error           { return nil }
