package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/graph"
	"repro/internal/replay"
	"repro/internal/rosbag"
)

// cmdReindex salvages a damaged/unclosed bag into a fresh indexed one.
func cmdReindex(args []string) error {
	fs := flag.NewFlagSet("reindex", flag.ExitOnError)
	out := fs.String("o", "reindexed.bag", "output bag path")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("reindex: exactly one bag path required")
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	of, err := os.Create(*out)
	if err != nil {
		return err
	}
	stats, err := rosbag.Reindex(in, st.Size(), of, rosbag.WriterOptions{})
	if err != nil {
		of.Close()
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	status := "clean"
	if stats.Truncated {
		status = "truncated tail discarded"
	}
	fmt.Printf("salvaged %d messages on %d connections from %d chunks (%s) -> %s\n",
		stats.Messages, stats.Connections, stats.Chunks, status, *out)
	return nil
}

// cmdBagInfo prints the container-level summary of a BORA bag (the
// borabag analogue of `rosbag info`, without touching message data).
func cmdBagInfo(args []string) error {
	fs := flag.NewFlagSet("baginfo", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (required)")
	fs.Parse(args)
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	bag, err := b.Open(*name)
	if err != nil {
		return err
	}
	info, err := bag.Info()
	if err != nil {
		return err
	}
	fmt.Print(info)
	return nil
}

// cmdPlay replays a bag's messages into a logging computation graph —
// `rosbag play` with a console sink.
func cmdPlay(args []string) error {
	fs := flag.NewFlagSet("play", flag.ExitOnError)
	rate := fs.Float64("rate", 1, "playback speed multiplier")
	quiet := fs.Bool("q", false, "suppress per-message output")
	instant := fs.Bool("instant", false, "skip pacing (report virtual duration)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("play: exactly one bag path required")
	}
	r, f, err := rosbag.OpenObs(fs.Arg(0), metricsReg)
	if err != nil {
		return err
	}
	defer f.Close()

	g := graph.New()
	sink, err := g.NewNode("console")
	if err != nil {
		return err
	}
	var printed atomic.Int64
	for topic := range topicsOf(r) {
		if _, err := sink.Subscribe(topic, 256, func(m graph.Message) {
			printed.Add(1) // subscriber callbacks run on per-topic goroutines
			if !*quiet {
				fmt.Printf("%s %-32s %d bytes\n", m.Time, m.Topic, len(m.Data))
			}
		}); err != nil {
			return err
		}
	}
	opts := replay.Options{Rate: *rate}
	var fast *replay.FastClock
	if *instant {
		fast = &replay.FastClock{}
		opts.Clock = fast
	}
	stats, err := replay.Play(g, "player", replay.FromReader(r, nil), opts)
	if err != nil {
		return err
	}
	g.Shutdown()
	fmt.Printf("replayed %d messages across %d topics (recorded span %v)\n",
		stats.Messages, stats.Topics, stats.BagDuration)
	if fast != nil {
		fmt.Printf("virtual pacing at rate %.1f would have taken %v\n", *rate, fast.Elapsed)
	}
	return nil
}

func topicsOf(r *rosbag.Reader) map[string]bool {
	out := map[string]bool{}
	for _, t := range r.Topics() {
		out[t] = true
	}
	return out
}

// fsckWords is how one layout's fsck result reads: a classic bag counts
// topics, a live one segments.
type fsckWords struct{ what, clean, damaged, repaired string }

var (
	fsckClassic = fsckWords{"container", "%s: clean (%d topics)\n",
		"%s: %d findings across %d topics\n", "%s: repaired, now clean (%d topics)\n"}
	fsckLive = fsckWords{"live bag", "%s: clean (live layout, %d segments)\n",
		"%s: %d findings across %d segments (live layout)\n", "%s: repaired, now sealed and clean (%d segments)\n"}
)

// cmdFsck checks a logical bag's on-disk consistency and optionally
// repairs it (borabag's fsck: detect torn writes, truncated indexes,
// stale metadata and an unsealed live recording left by a crash, then
// truncate back to the last consistent state). Both layouts take the
// same path over core's Fsck and Repair — a classic bag is a
// one-segment bag — and differ only in how the result is worded.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (required)")
	repair := fs.Bool("repair", false, "repair the bag in place after checking")
	quiet := fs.Bool("q", false, "suppress per-finding output")
	fs.Parse(args)
	if *backend == "" || *name == "" {
		return fmt.Errorf("fsck: -backend and -name are required")
	}
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	root := filepath.Join(*backend, *name)

	sp := metricsReg.Op("fsck.scan").Start()
	segs, unsealed, err := b.Fsck(*name)
	if err != nil {
		sp.EndErr(err)
		return fmt.Errorf("fsck: %w", err)
	}
	sp.End()
	// A classic bag's one report is rooted at the bag directory itself;
	// live segments are sub-directories of it.
	live := len(segs) != 1 || segs[0].Root != root
	words, size := fsckClassic, func(segs []*container.Report) int { return segs[0].Topics }
	if live {
		words, size = fsckLive, func(segs []*container.Report) int { return len(segs) }
	}
	// report prints every finding (unless -q) and returns their number.
	report := func(segs []*container.Report) int {
		findings := 0
		for _, rep := range segs {
			findings += len(rep.Findings)
			for _, f := range rep.Findings {
				loc := f.Topic
				if loc == "" {
					loc = f.Path
				}
				switch {
				case *quiet:
				case live:
					fmt.Printf("%-22s %s %-32s %s\n", f.Kind, filepath.Base(rep.Root), loc, f.Detail)
				default:
					fmt.Printf("%-22s %-32s %s\n", f.Kind, loc, f.Detail)
				}
			}
		}
		return findings
	}
	findings := report(segs)
	if unsealed != nil {
		findings++
		if !*quiet {
			fmt.Printf("%-22s %-32s %s\n", unsealed.Kind, filepath.Base(unsealed.Path), unsealed.Detail)
		}
	}
	metricsReg.Counter("fsck.findings").Add(int64(findings))
	if findings == 0 {
		fmt.Printf(words.clean, root, size(segs))
		return nil
	}
	fmt.Printf(words.damaged, root, findings, size(segs))
	if !*repair {
		return fmt.Errorf("fsck: %s is damaged (re-run with -repair to fix)", words.what)
	}

	rsp := metricsReg.Op("fsck.repair").Start()
	after, err := b.Repair(*name)
	if err != nil {
		rsp.EndErr(err)
		return fmt.Errorf("fsck: repair: %w", err)
	}
	rsp.End()
	metricsReg.Counter("fsck.repaired").Add(1)
	if left := report(after); left > 0 {
		return fmt.Errorf("fsck: %s still damaged after repair (%d findings)", words.what, left)
	}
	fmt.Printf(words.repaired, root, size(after))
	return nil
}
