package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/build"
	"repro/internal/core"
)

// windowFlags registers -start/-end on fs and returns a resolver that
// reports them as set-or-nil pointers (call it after fs.Parse). The
// pointer form matters: an explicit `-start 0` or `-end 0` is a real
// epoch bound, not "unset" — value-based `> 0` guards cannot tell the
// two apart, which is exactly the TransformSpec set-ness distinction
// the build spec file encodes with present-vs-absent JSON fields.
func windowFlags(fs *flag.FlagSet) func() (start, end *float64) {
	startSec := fs.Float64("start", 0, "start time (seconds since epoch; omit for bag start)")
	endSec := fs.Float64("end", 0, "end time (seconds since epoch; omit for bag end)")
	return func() (start, end *float64) {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "start":
				start = startSec
			case "end":
				end = endSec
			}
		})
		return start, end
	}
}

// cmdBuild materializes a declarative dataset build spec: a DAG of
// derivations over source bags, content-addressed so an unchanged
// derivation is a no-op.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	backend := backendFlag(fs)
	specPath := fs.String("f", "dataset.json", "build spec file (JSON derivation DAG)")
	workers := fs.Int("workers", 0, "concurrent derivations (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress per-derivation output")
	fs.Parse(args)
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	g, err := build.ParseSpec(data)
	if err != nil {
		return err
	}
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	bld := build.New(b, build.Options{Workers: *workers})
	start := time.Now()
	results, buildErr := bld.Build(g)
	var rebuilt, cached, failed int
	var bytes int64
	for _, r := range results {
		switch {
		case r.Err != nil:
			failed++
			fmt.Printf("failed   %-24s %v\n", r.Name, r.Err)
		case r.Rebuilt:
			rebuilt++
			bytes += r.Bytes
			if !*quiet {
				fmt.Printf("rebuilt  %-24s %d messages, %d bytes  addr %.12s\n", r.Name, r.Messages, r.Bytes, r.Address)
			}
		default:
			cached++
			if !*quiet {
				fmt.Printf("cached   %-24s addr %.12s\n", r.Name, r.Address)
			}
		}
	}
	fmt.Printf("built %d derivations: %d rebuilt, %d cached, %d failed (%d bytes materialized in %v)\n",
		len(results), rebuilt, cached, failed, bytes, time.Since(start))
	return buildErr
}

// cmdRebag filters a BORA bag into a new logical bag — the one-shot,
// un-addressed form of a build derivation, sharing its TransformSpec
// selection (topics, inclusive window, stride).
func cmdRebag(args []string) error {
	fs := flag.NewFlagSet("rebag", flag.ExitOnError)
	backend := backendFlag(fs)
	name := fs.String("name", "", "source logical bag name (required)")
	out := fs.String("out", "", "destination logical bag name (required)")
	topicsArg := fs.String("topics", "", "comma-separated topics to keep (empty = all)")
	window := windowFlags(fs)
	stride := fs.Int("stride", 0, "keep every Nth message per topic (0 or 1 = all)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("rebag: -out is required")
	}
	b, err := openBackend(*backend)
	if err != nil {
		return err
	}
	bag, err := b.Open(*name)
	if err != nil {
		return err
	}
	ts := core.TransformSpec{Stride: *stride}
	if *topicsArg != "" {
		ts.Topics = strings.Split(*topicsArg, ",")
	}
	ts.StartSec, ts.EndSec = window()
	spec, err := ts.QuerySpec()
	if err != nil {
		return fmt.Errorf("rebag: %w", err)
	}
	sub, kept, err := b.Rebag(bag, *out, spec)
	if err != nil {
		return err
	}
	fmt.Printf("rebagged %s -> %s: kept %d messages across topics %v\n",
		*name, *out, kept, sub.Topics())
	return nil
}
