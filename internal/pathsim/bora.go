package pathsim

import (
	"time"

	"repro/internal/layout"
	"repro/internal/simio"
)

// manifestTopicBytes approximates one topic's record in the container
// manifest: its connection header and checksum.
const manifestTopicBytes = 300

// containerIndexEntryBytes is the on-disk width of one container index
// entry (matches container.IndexEntrySize).
const containerIndexEntryBytes = 28

// streamSwitchEvery models how often the organizer's interleaved
// multi-file appends cost the device a repositioning during duplication
// (each topic's writer buffers its appends, so switches are rare).
const streamSwitchEvery = 128

// captureSetup is the one-time cost of an initial capture: FUSE session
// establishment, container directory-tree creation and the write-back
// flush barriers between the scan and distribution phases. Fixed costs
// like this are why Fig 9's relative overhead shrinks as bags grow.
const captureSetup = 350 * time.Millisecond

// manifestBytes approximates the container manifest, the one file that
// holds every topic's connection.
func manifestBytes(bag *layout.Bag) int64 {
	return int64(len(bag.Topics)) * manifestTopicBytes
}

// indexBytes is a topic's index file, one entry per message. A time
// query derives the coarse time index from it, so no time-index file is
// stored.
func indexBytes(bag *layout.Bag, topic int) int64 {
	return int64(bag.Topics[topic].Count) * containerIndexEntryBytes
}

// windowsTouched counts coarse windows a [startNs, endNs] query visits.
func windowsTouched(startNs, endNs int64, window time.Duration) int64 {
	w := int64(window)
	if endNs < startNs {
		return 0
	}
	return (endNs/w - startNs/w) + 1
}

// BoraDuplicate replays the one-time data duplication (Fig 6): a single
// sequential scan of the source bag, with every message passing through
// the FUSE front end and being appended to its topic's data file on the
// scanning goroutine. The interleaved multi-stream appends cost periodic
// repositionings; each topic's index is written at the end. A container
// is the manifest plus two files per topic, data and index.
func BoraDuplicate(env simio.Env, bag *layout.Bag) time.Duration {
	start := env.Clock().Elapsed()
	sw := env.Software()
	sp := env.Clock().StartOp("core.duplicate")
	env.CPU(captureSetup)
	// Read the source sequentially, once.
	scan := sp.Child("rosbag.scan")
	env.Metadata()
	env.RandRead(bag.FileBytes())
	scan.EndBytes(bag.FileBytes())
	// Create the container and its manifest, then each topic's
	// sub-directory and its two files.
	env.Metadata()
	env.Metadata()
	env.SeqWrite(manifestBytes(bag))
	for range bag.Topics {
		env.Metadata() // mkdir
		env.Metadata() // create data file
		env.Metadata() // create index file
	}
	// Distribute messages.
	totalMsgs := bag.MessageCount()
	env.CPU(time.Duration(totalMsgs) * sw.FUSEOp)
	for i := range bag.Topics {
		t := &bag.Topics[i]
		app := sp.Child("organizer.append")
		env.SeqWrite(t.Bytes)
		switches := t.Count / streamSwitchEvery
		for s := 0; s < switches; s++ {
			env.Seek()
		}
		env.CPU(time.Duration(t.Count) * sw.IndexEntry)
		env.SeqWrite(indexBytes(bag, i))
		app.EndBytes(t.Bytes)
	}
	sp.EndBytes(bag.TotalBytes)
	return env.Clock().Elapsed() - start
}

// BoraCopyContainer replays a BORA-to-BORA copy: a straight tree copy
// with no re-organization, which is why it runs at native speed in
// Fig 9.
func BoraCopyContainer(env simio.Env, bag *layout.Bag) time.Duration {
	start := env.Clock().Elapsed()
	env.RandRead(manifestBytes(bag))
	env.SeqWrite(manifestBytes(bag))
	for i := range bag.Topics {
		env.Metadata()
		env.RandRead(bag.Topics[i].Bytes)
		env.Metadata()
		env.SeqWrite(bag.Topics[i].Bytes)
		env.RandRead(indexBytes(bag, i))
		env.SeqWrite(indexBytes(bag, i))
	}
	return env.Clock().Elapsed() - start
}

// BoraOpen replays the BORA-assisted open (Fig 4b): list the container
// root once, read its manifest, and build the tag manager's hash table
// on the fly. The manifest is a few hundred bytes per topic; reading it
// is a namespace-class operation (served from the MDS/inode path on
// cluster file systems), not a data-device repositioning.
func BoraOpen(env simio.Env, bag *layout.Bag) time.Duration {
	start := env.Clock().Elapsed()
	sw := env.Software()
	sp := env.Clock().StartOp("core.open")
	defer sp.End()
	env.CPU(sw.FUSEOp)
	env.Metadata() // readdir on the container root
	env.Metadata() // open the manifest
	env.SeqRead(manifestBytes(bag))
	for range bag.Topics {
		env.CPU(sw.HashInsert) // tag-table insert
	}
	return env.Clock().Elapsed() - start
}

// BoraQueryTopics replays BORA data acquisition (Fig 7): per requested
// topic, resolve the back-end path through the tag table, open the
// topic's contiguous data file, and stream it sequentially.
func BoraQueryTopics(env simio.Env, bag *layout.Bag, topics []string) time.Duration {
	start := env.Clock().Elapsed()
	want := topicSet(bag, topics)
	sw := env.Software()
	sp := env.Clock().StartOp("core.read")
	var total int64
	for ti := range bag.Topics {
		if !want[ti] {
			continue
		}
		t := &bag.Topics[ti]
		tsp := sp.Child("core.read_topic")
		env.CPU(sw.FUSEOp) // BORA-Lib call + tag lookup
		env.Metadata()     // open data file
		// Load the topic's index, then stream the data file.
		idx := tsp.Child("container.index_load")
		env.RandRead(indexBytes(bag, ti))
		env.CPU(time.Duration(t.Count) * sw.IndexEntry)
		idx.EndBytes(indexBytes(bag, ti))
		env.RandRead(t.Bytes)
		env.CPU(time.Duration(t.Count) * sw.MsgYield)
		tsp.EndBytes(t.Bytes)
		total += t.Bytes
	}
	sp.EndBytes(total)
	return env.Clock().Elapsed() - start
}

// BoraQueryTime replays the combined topics + start-end time query
// (Fig 8): per topic, load the index and the coarse time index derived
// from it, compute the window range arithmetically, and read only the
// byte range covered by the touched windows before the fine-grain
// filter.
func BoraQueryTime(env simio.Env, bag *layout.Bag, topics []string, startNs, endNs int64, window time.Duration) time.Duration {
	start := env.Clock().Elapsed()
	want := topicSet(bag, topics)
	sw := env.Software()
	if endNs > bag.DurationNs {
		endNs = bag.DurationNs
	}
	if endNs < startNs {
		return 0
	}
	sp := env.Clock().StartOp("core.read_time")
	var total int64
	for ti := range bag.Topics {
		if !want[ti] {
			continue
		}
		t := &bag.Topics[ti]
		tsp := sp.Child("core.read_topic")
		env.CPU(sw.FUSEOp)
		env.Metadata()
		// Index load (the coarse time index is derived from it) + window
		// arithmetic.
		env.RandRead(indexBytes(bag, ti))
		env.CPU(time.Duration(windowsTouched(startNs, endNs, window)) * sw.WindowLookup)
		// Entries and bytes covered by the touched windows: the queried
		// span plus up to one window of slack on each side.
		coveredNs := endNs - startNs + 2*int64(window)
		if coveredNs > bag.DurationNs {
			coveredNs = bag.DurationNs
		}
		frac := float64(coveredNs) / float64(bag.DurationNs)
		msgs := int(float64(t.Count) * frac)
		bytes := int64(float64(t.Bytes) * frac)
		env.CPU(time.Duration(msgs) * sw.IndexEntry) // fine-grain filter
		env.RandRead(bytes)                          // one seek + window-bounded sequential read
		env.CPU(time.Duration(msgs) * sw.MsgYield)
		tsp.EndBytes(bytes)
		total += bytes
	}
	sp.EndBytes(total)
	return env.Clock().Elapsed() - start
}
