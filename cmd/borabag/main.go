// Command borabag is a rosbag-like CLI over the BORA middleware.
//
// Usage:
//
//	borabag [global flags] record -o out.bag -seconds 5 [-scale 1000]
//	borabag [global flags] record -backend DIR -name bag1 [-live [-segment-window 1m]]
//	borabag -remote ADDR record -name bag1 [-live]
//	borabag [global flags] info file.bag
//	borabag [global flags] duplicate -backend DIR -name bag1 file.bag
//	borabag [global flags] ls -backend DIR
//	borabag [global flags] topics -backend DIR -name bag1
//	borabag [global flags] query -backend DIR -name bag1 -topics /imu,/tf [-start S -end S]
//	borabag -remote ADDR query -name bag1 -follow
//	borabag [global flags] export -backend DIR -name bag1 -o out.bag
//	borabag [global flags] build -backend DIR -f dataset.json [-workers N]
//
// Global flags precede the subcommand:
//
//	-metrics          print an observability snapshot (per-op counts,
//	                  bytes and latency histograms from internal/obs) to
//	                  stderr after the subcommand finishes
//	-metrics-out FILE write the snapshot as JSON to FILE instead
//	-trace FILE       record span begin/end events and write them to FILE
//	                  as Chrome trace-event JSON (load in chrome://tracing
//	                  or Perfetto)
//	-remote ADDR      run query/topics/record against a borad daemon at ADDR
//	                  over the wire protocol instead of opening -backend
//	                  locally
//
// The flags compose: each independently enables the shared registry, so
// e.g. -trace alone collects metrics too (they are simply not printed),
// and -metrics -trace FILE prints the snapshot and writes the trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

// metricsReg is non-nil when any global observability flag is set
// (-metrics, -metrics-out, -trace); every subcommand threads it into the
// stack it drives. Nil keeps the whole obs layer inert.
var metricsReg *obs.Registry

func main() {
	args := os.Args[1:]
	// Global flags precede the subcommand.
	var (
		printMetrics bool
		metricsOut   string
		traceOut     string
		tracer       *obs.Tracer
	)
	ensureReg := func() {
		if metricsReg == nil {
			metricsReg = obs.NewRegistry()
		}
	}
globalFlags:
	for len(args) > 0 {
		switch {
		case args[0] == "-metrics":
			printMetrics = true
			ensureReg()
			args = args[1:]
		case args[0] == "-metrics-out" && len(args) > 1:
			metricsOut = args[1]
			ensureReg()
			args = args[2:]
		case args[0] == "-trace" && len(args) > 1:
			traceOut = args[1]
			ensureReg()
			tracer = obs.NewTracer(0)
			metricsReg.AttachTracer(tracer)
			args = args[2:]
		case args[0] == "-remote" && len(args) > 1:
			remoteAddr = args[1]
			args = args[2:]
		default:
			break globalFlags
		}
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "record":
		err = cmdRecord(args[1:])
	case "info":
		err = cmdInfo(args[1:])
	case "duplicate":
		err = cmdDuplicate(args[1:])
	case "ls":
		err = cmdLs(args[1:])
	case "topics":
		err = cmdTopics(args[1:])
	case "query":
		err = cmdQuery(args[1:])
	case "export":
		err = cmdExport(args[1:])
	case "reindex":
		err = cmdReindex(args[1:])
	case "rebag":
		err = cmdRebag(args[1:])
	case "build":
		err = cmdBuild(args[1:])
	case "fsck":
		err = cmdFsck(args[1:])
	case "verify":
		err = cmdVerify(args[1:])
	case "baginfo":
		err = cmdBagInfo(args[1:])
	case "play":
		err = cmdPlay(args[1:])
	case "trace-merge":
		err = cmdTraceMerge(args[1:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if printMetrics {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, "== obs snapshot ==")
		metricsReg.Snapshot().WriteText(os.Stderr)
	}
	if metricsOut != "" {
		if werr := writeSnapshotFile(metricsOut, metricsReg); werr != nil && err == nil {
			err = werr
		}
	}
	if traceOut != "" {
		if werr := writeTraceFile(traceOut, tracer); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "borabag:", err)
		os.Exit(1)
	}
}

// writeSnapshotFile dumps the registry snapshot as JSON to path.
func writeSnapshotFile(path string, reg *obs.Registry) error {
	data, err := reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeTraceFile dumps the recorded spans as Chrome trace-event JSON to
// path.
func writeTraceFile(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: borabag [-metrics] [-metrics-out FILE] [-trace FILE] [-remote ADDR] <command> [flags]

commands:
  record     synthesize a Handheld-SLAM-like recording (Table II mix) into a
             .bag file, a BORA container (-backend -name, -live for the
             segmented live layout), or a daemon (-remote, via RECORD upload)
  info       print a bag file summary (rosbag info)
  duplicate  re-organize a bag into a BORA container (Fig 6)
  ls         list bags on a BORA back end
  topics     list topics of a BORA bag
  query      read messages by topics and optional time range (Figs 7-8)
  export     reconstruct a standard .bag from a container
  reindex    salvage a damaged or unclosed bag (rosbag reindex)
  rebag      filter a BORA bag into a new logical bag
  build      materialize a dataset build spec (-f dataset.json): a DAG of
             content-addressed derivations; unchanged ones are no-ops
  verify     check a BORA bag's container integrity (CRC + index)
  fsck       check a container for crash damage and optionally repair it
  baginfo    summarize a BORA bag (rosbag info over the container)
  play       replay a bag's messages in timestamp order (rosbag play)
  trace-merge  stitch client and server Chrome traces into one timeline
`)
}

func backendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "", "BORA back-end directory (required)")
}

func openBackend(dir string) (*core.BORA, error) {
	if dir == "" {
		return nil, fmt.Errorf("-backend is required")
	}
	return core.New(dir, core.Options{Obs: metricsReg})
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "out.bag", "output bag path (file mode)")
	backend := fs.String("backend", "", "record into a BORA back end instead of a file")
	name := fs.String("name", "", "logical bag name (container and remote modes)")
	live := fs.Bool("live", false, "record the live segmented layout (tail with query -follow)")
	window := fs.Duration("segment-window", 0, "live segment rotation window (0 = default)")
	seconds := fs.Int("seconds", 5, "seconds of recording to synthesize")
	scale := fs.Int("scale", 1000, "image payload scale-down divisor (1 = paper sizes)")
	seed := fs.Int64("seed", 1, "payload random seed")
	fs.Parse(args)
	opts := workload.SyntheticOptions{Seconds: *seconds, ScaleDown: *scale, Seed: *seed}

	// Remote mode: upload over the wire through client.Record.
	if remoteAddr != "" {
		if *name == "" {
			return fmt.Errorf("record: -name is required with -remote")
		}
		return remoteRecord(*name, *live, *window, opts)
	}

	// Container mode: record straight into a BORA back end — the live
	// layout when -live (queryable mid-recording via Follow), a classic
	// single-container bag otherwise.
	if *backend != "" {
		if *name == "" {
			return fmt.Errorf("record: -name is required with -backend")
		}
		b, err := openBackend(*backend)
		if err != nil {
			return err
		}
		var rec *core.Recorder
		if *live {
			rec, err = b.CreateLiveBag(*name, *window)
		} else {
			rec, err = b.CreateBag(*name)
		}
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := workload.RecordHandheldSLAM(rec, opts)
		if err != nil {
			return err
		}
		if err := rec.Seal(); err != nil {
			return err
		}
		layout := "classic"
		if *live {
			layout = "live"
		}
		fmt.Printf("recorded %s/%s (%s layout): %d messages, %d synthetic seconds in %v\n",
			*backend, *name, layout, n, *seconds, time.Since(start))
		return nil
	}

	// File mode: the original synthetic .bag writer.
	n, err := workload.WriteHandheldSLAMBag(*out, opts)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d messages, %d seconds of the Table II topic mix\n", *out, n, *seconds)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: exactly one bag path required")
	}
	start := time.Now()
	r, f, err := rosbag.OpenObs(fs.Arg(0), metricsReg)
	if err != nil {
		return err
	}
	defer f.Close()
	openTime := time.Since(start)
	fmt.Print(r.Info())
	fmt.Printf("open:     %v (traversed %d chunk infos)\n", openTime, r.Stats().ChunkInfosScanned)
	return nil
}

func cmdDuplicate(args []string) error {
	fs := flag.NewFlagSet("duplicate", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (default: file base name)")
	window := fs.Duration("window", time.Second, "coarse time-index window")
	workers := fs.Int("workers", 0, "organizer worker count (0 = auto)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("duplicate: exactly one bag path required")
	}
	src := fs.Arg(0)
	if *name == "" {
		base := src
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		*name = strings.TrimSuffix(base, ".bag")
	}
	b, err := core.New(*backend, core.Options{TimeWindow: *window, Workers: *workers, Obs: metricsReg})
	if err != nil {
		return err
	}
	start := time.Now()
	_, stats, err := b.Duplicate(src, *name)
	if err != nil {
		return err
	}
	fmt.Printf("duplicated %s -> %s/%s: %d messages, %d topics, %d bytes in %v\n",
		src, *backend, *name, stats.Messages, stats.Topics, stats.Bytes, time.Since(start))
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	backend := backendFlag(fs)
	fs.Parse(args)
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	names, err := b.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

func cmdTopics(args []string) error {
	fs := flag.NewFlagSet("topics", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (required)")
	fs.Parse(args)
	if remoteAddr != "" {
		return remoteTopics(*name)
	}
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	bag, err := b.Open(*name)
	if err != nil {
		return err
	}
	conns, err := bag.Connections()
	if err != nil {
		return err
	}
	for _, c := range conns {
		n, err := bag.MessageCount(c.Topic)
		if err != nil {
			return err
		}
		fmt.Printf("%-32s %8d msgs  %s\n", c.Topic, n, c.Type)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (required)")
	topicsArg := fs.String("topics", "", "comma-separated topic names (empty = all)")
	window := windowFlags(fs)
	parallel := fs.Int("parallel", 0, "read topic streams concurrently with this many workers (0 = serial, -1 = GOMAXPROCS)")
	chrono := fs.Bool("chrono", false, "deliver messages in global timestamp order (serial)")
	follow := fs.Bool("follow", false, "tail a recording bag: stream the sealed prefix, then live messages until sealed or interrupted")
	quiet := fs.Bool("q", false, "suppress per-message output")
	fs.Parse(args)
	if *follow && *parallel != 0 {
		return fmt.Errorf("query: -follow streams serially; drop -parallel")
	}
	var topics []string
	if *topicsArg != "" {
		topics = strings.Split(*topicsArg, ",")
	}
	// The window flows through TransformSpec, locally and remotely, so a
	// NaN, negative or beyond-u32 bound is an error and an explicit
	// -end 0 is an epoch bound rather than silently reading as "no bound".
	var ts core.TransformSpec
	ts.StartSec, ts.EndSec = window()
	spec, err := ts.QuerySpec()
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if remoteAddr != "" {
		if *parallel != 0 {
			return fmt.Errorf("query: -parallel is not supported with -remote (the daemon streams serially per query)")
		}
		if spec.Predicate != nil {
			// The wire's zero End means end of bag; widening the window to
			// that would stream everything the caller excluded.
			return fmt.Errorf("query: -end 0 (only messages stamped at the epoch) cannot be expressed with -remote")
		}
		return remoteQuery(*name, client.QuerySpec{
			Topics: topics, Start: spec.Start, End: spec.End, Chrono: *chrono, Follow: *follow,
		}, *quiet)
	}
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	openStart := time.Now()
	bag, err := b.Open(*name)
	if err != nil {
		return err
	}
	openTime := time.Since(openStart)
	var mu sync.Mutex
	var count int
	var bytes int64
	emit := func(m core.MessageRef) error {
		mu.Lock() // parallel queries deliver from several goroutines
		count++
		bytes += int64(len(m.Data))
		if !*quiet {
			fmt.Printf("%s %-32s %d bytes\n", m.Time, m.Conn.Topic, len(m.Data))
		}
		mu.Unlock()
		return nil
	}
	queryStart := time.Now()
	spec.Topics = topics
	spec.Workers = *parallel
	if *chrono {
		spec.Order = core.OrderTime
	}
	spec.Follow = *follow
	// A follow of a still-recording bag has no natural end; ^C bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := bag.QueryContext(ctx, spec, emit); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Printf("open %v, query %v: %d messages, %d bytes (windows scanned: %d)\n",
		openTime, time.Since(queryStart), count, bytes, bag.Stats().WindowsScanned)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "logical bag name (required)")
	out := fs.String("o", "export.bag", "output bag path")
	fs.Parse(args)
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	bag, err := b.Open(*name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := bag.Export(f, rosbag.WriterOptions{}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("exported %s/%s -> %s\n", *backend, *name, *out)
	return nil
}
