package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the "one of each" rules (ROADMAP aim 2) over
// the module's parsed non-test Go source. Each row of archRules names
// the decision it protects; rules match identifiers, selectors, calls
// and import paths, never raw text, so a comment or a string cannot
// trip them. Every row also has seeded violations: in-memory files
// added to the parsed tree, each of which the row must reject.
func TestArchitecture(t *testing.T) {
	tr, err := loadTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			held, bad := r.check(tr)
			for _, b := range bad {
				t.Error(b)
			}
			if len(bad) > 0 {
				t.Log("the row protects: " + r.why)
			} else if held != "" {
				t.Log(held)
			}
			if len(r.seeds) == 0 {
				t.Fatal("the row has no seeded violation")
			}
			for _, s := range r.seeds {
				t.Run("seeded", func(t *testing.T) {
					seeded, err := tr.with(s)
					if err != nil {
						t.Fatal(err)
					}
					if _, bad := r.check(seeded); len(bad) == 0 {
						t.Errorf("%s does not fail the row:\n%s", s.path, s.src)
					}
				})
			}
		})
	}
}

// archRule is one row: check returns a line to log when the rule holds
// and one message per violation.
type archRule struct {
	name  string
	why   string
	check func(*tree) (held string, bad []string)
	seeds []seedFile
}

// seedFile is a source file parsed into the tree at a path that does not
// exist on disk.
type seedFile struct{ path, src string }

// tree is the module's non-test Go source, parsed, and DESIGN.md.
type tree struct {
	fset   *token.FileSet
	files  []*srcFile
	dirs   map[string]bool // every directory holding a .go file, test-only ones included
	design []byte
}

type srcFile struct {
	dir     string // slash-separated, relative to the module root: the package
	ast     *ast.File
	imports map[string]string // local name → import path, module prefix dropped
}

const module = "repro/"

var (
	majorVersion = regexp.MustCompile(`^v[0-9]+$`)
	striped      = regexp.MustCompile(`(?i)strip(e|ed|es)`)
	treeDir      = regexp.MustCompile(`(?m)^  (\S+)/ `) // a directory line of DESIGN §4's tree
)

func loadTree(root string) (*tree, error) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	tr := &tree{fset: token.NewFileSet(), dirs: map[string]bool{}, design: design}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		tr.dirs[path.Dir(rel)] = true
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return tr.add(rel, src)
	})
	return tr, err
}

func (tr *tree) add(rel string, src []byte) error {
	f, err := parser.ParseFile(tr.fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	sf := &srcFile{dir: path.Dir(rel), ast: f, imports: map[string]string{}}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		p = strings.TrimPrefix(p, module)
		name := path.Base(p)
		if majorVersion.MatchString(name) {
			name = path.Base(path.Dir(p))
		}
		if im.Name != nil {
			name = im.Name.Name
		}
		sf.imports[name] = p
	}
	tr.files = append(tr.files, sf)
	tr.dirs[sf.dir] = true
	return nil
}

// with returns a copy of the tree with s parsed into it.
func (tr *tree) with(s seedFile) (*tree, error) {
	dirs := map[string]bool{}
	for d := range tr.dirs {
		dirs[d] = true
	}
	c := &tree{fset: tr.fset, files: append([]*srcFile(nil), tr.files...), dirs: dirs, design: tr.design}
	return c, c.add(s.path, []byte(s.src))
}

func (tr *tree) pos(n ast.Node) string {
	p := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// inDirs reports whether dir is one of dirs or below one of them.
func inDirs(dir string, dirs ...string) bool {
	for _, d := range dirs {
		if d == "." || dir == d || strings.HasPrefix(dir, d+"/") {
			return true
		}
	}
	return false
}

// qualified resolves a pkg.Name selector through the file's imports.
func (f *srcFile) qualified(n ast.Node) (pkg, name string, ok bool) {
	sel, isSel := n.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pkg, ok = f.imports[x.Name]
	return pkg, sel.Sel.Name, ok
}

// refersTo reports whether n names pkg's exported name: qualified from
// another package, bare inside pkg itself.
func (f *srcFile) refersTo(n ast.Node, pkg, name string) bool {
	if p, nm, ok := f.qualified(n); ok {
		return p == pkg && nm == name
	}
	id, ok := n.(*ast.Ident)
	return ok && f.dir == pkg && id.Name == name
}

// sites lists the nodes of files under dirs that match.
func (tr *tree) sites(dirs []string, match func(*srcFile, ast.Node) bool) []string {
	var out []string
	for _, f := range tr.files {
		if !inDirs(f.dir, dirs...) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n != nil && match(f, n) {
				out = append(out, tr.pos(n))
			}
			return true
		})
	}
	return out
}

// calledMethod reports whether n is a call of a method or function
// named one of names, whatever its receiver or package.
func calledMethod(n ast.Node, names ...string) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	var got string
	switch fn := c.Fun.(type) {
	case *ast.SelectorExpr:
		got = fn.Sel.Name
	case *ast.Ident:
		got = fn.Name
	}
	for _, n := range names {
		if got == n {
			return true
		}
	}
	return false
}

// calledQualified reports whether n calls pkg.name.
func calledQualified(f *srcFile, n ast.Node, pkg, name string) bool {
	c, ok := n.(*ast.CallExpr)
	return ok && f.refersTo(c.Fun, pkg, name)
}

// none is a rule that no node under dirs matches.
func none(dirs []string, match func(*srcFile, ast.Node) bool, what string) func(*tree) (string, []string) {
	return func(tr *tree) (string, []string) {
		var bad []string
		for _, s := range tr.sites(dirs, match) {
			bad = append(bad, s+": "+what)
		}
		return "", bad
	}
}

// count is a rule that exactly want nodes under dirs match, each in a
// file named file when file is not empty.
func count(dirs []string, want int, file, what string, match func(*srcFile, ast.Node) bool) func(*tree) (string, []string) {
	return func(tr *tree) (string, []string) {
		got := tr.sites(dirs, match)
		var bad []string
		if len(got) != want {
			bad = append(bad, fmt.Sprintf("%d %s, want %d: %v", len(got), what, want, got))
		}
		for _, s := range got {
			if file != "" && path.Base(strings.SplitN(s, ":", 2)[0]) != file {
				bad = append(bad, fmt.Sprintf("%s: %s outside %s", s, what, file))
			}
		}
		return fmt.Sprintf("%d %s", len(got), what), bad
	}
}

var (
	realPath = []string{
		"internal/bagio", "internal/rosbag", "internal/container", "internal/timeindex",
		"internal/tagman", "internal/faultfs", "internal/obs", "internal/core", "internal/pool",
		"internal/server", "internal/client", "internal/cluster/ring", "internal/build",
		"internal/vfs",
	}
	substrate = []string{
		"internal/simio", "internal/layout", "internal/pathsim", "internal/plfsim",
		"internal/dbsim", "internal/cluster",
	}
	// retiredIdents maps each retired identifier to the rule that retired it.
	retiredIdents = map[string]string{
		"Synchronous": "one write order: Duplicate appends on its scanning goroutine",
		"usePool":     "one way to a bag handle per process kind",
		"topicSink":   "one container writer", "recordTopic": "one container writer", "sinkConn": "one container writer",
		"readSerial": "one query executor", "readMessagesChrono": "one query executor", "followQuery": "one query executor",
		"positionsInRange": "one query executor", "readTopicRange": "one query executor", "MultiBag": "one query executor",
		"cmdVerify": "fsck is the one judge of a container", "metaMagicV1": "fsck is the one judge of a container",
		"RateTracker": "no hot signal: no workload reaches it", "HotQPS": "no hot signal: no workload reaches it",
		"NoteQuery": "no hot signal: no workload reaches it", "HotBags": "no hot signal: no workload reaches it",
		"hotWiden":         "no hot signal: no workload reaches it",
		"QuerySpanContext": "one query selection: the parent span rides the context", "Predicate": "one query selection: a filter that cannot be shipped or hashed",
		"ConnFileName": "a topic is two files: the manifest holds its connection", "ChecksumFileName": "a topic is two files: the manifest holds its checksum",
		"TimeIdxFileName": "a topic is two files: the time index is derived", "readTimeIndex": "a topic is two files: the time index is derived",
		"writeTimeIndex": "a topic is two files: the time index is derived", "FindingBadTimeIdx": "a topic is two files: the time index is derived",
		"ForkOp": "one topic-order plan: every plan delivers on the caller's goroutine", "readPooled": "one topic-order plan: every plan delivers on the caller's goroutine",
	}
	retiredExperiments = []string{"validate-real", "pool-clients", "live-tail"}
	internalCmd        = []string{"internal", "cmd"}
	everywhere         = []string{"."}
)

// importGraph is the module's non-test import graph: package directory
// → the module packages it imports.
func (tr *tree) importGraph() map[string]map[string]bool {
	g := map[string]map[string]bool{}
	for _, f := range tr.files {
		if g[f.dir] == nil {
			g[f.dir] = map[string]bool{}
		}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if strings.HasPrefix(p, module) {
				g[f.dir][strings.TrimPrefix(p, module)] = true
			}
		}
	}
	return g
}

// edges checks every import edge of the code and of importTable.
func edges(tr *tree, bad func(from, to string) string) (string, []string) {
	var out []string
	seen := map[string]bool{}
	check := func(from, to string) {
		if msg := bad(from, to); msg != "" && !seen[from+" "+to] {
			seen[from+" "+to] = true
			out = append(out, fmt.Sprintf("%s imports %s: %s", from, to, msg))
		}
	}
	for from, tos := range tr.importGraph() {
		for to := range tos {
			check(from, to)
		}
	}
	for from, tos := range importTable {
		for _, to := range tos {
			check(from, to)
		}
	}
	sort.Strings(out)
	return "", out
}

var archRules = []archRule{
	{
		name: "imports/graph-is-the-table",
		why:  "the paper's stack, bag format → container, tag manager, time index → BORA-Lib → front end: a new edge is a decision",
		check: func(tr *tree) (string, []string) {
			var bad []string
			g := tr.importGraph()
			n := 0
			for from, tos := range g {
				want := map[string]bool{}
				for _, to := range importTable[from] {
					want[to] = true
				}
				for to := range tos {
					n++
					if !want[to] {
						bad = append(bad, fmt.Sprintf("%s imports %s, which importTable does not allow", from, to))
					}
				}
				for to := range want {
					if !tos[to] {
						bad = append(bad, fmt.Sprintf("importTable lets %s import %s, which it does not", from, to))
					}
				}
			}
			for from := range importTable {
				if g[from] == nil {
					bad = append(bad, fmt.Sprintf("importTable lists %s, which has no non-test Go file", from))
				}
			}
			sort.Strings(bad)
			return fmt.Sprintf("%d packages, %d module import edges", len(g), n), bad
		},
		seeds: []seedFile{{"internal/bagio/zz_seed.go", `package bagio; import _ "repro/internal/obs"`}},
	},
	{
		name: "imports/real-path-not-on-the-sim-substrate",
		why:  "the virtual-clock models stand beside the real path, never under it",
		check: func(tr *tree) (string, []string) {
			return edges(tr, func(from, to string) string {
				if inDirs(from, realPath...) && !inDirs(to, realPath...) && inDirs(to, substrate...) {
					return "a real-path package on the simulation substrate"
				}
				return ""
			})
		},
		seeds: []seedFile{
			{"internal/core/zz_seed.go", `package core; import _ "repro/internal/simio"`},
			{"internal/client/zz_seed.go", `package client; import _ "repro/internal/cluster"`},
		},
	},
	{
		name: "imports/pool-only-in-the-daemon",
		why:  "one way to a bag handle per process kind: the daemon serves through its pool, one-shot code opens cold",
		check: func(tr *tree) (string, []string) {
			return edges(tr, func(from, to string) string {
				if to == "internal/pool" && inDirs(from, internalCmd...) && from != "internal/server" {
					return "only internal/server may import internal/pool"
				}
				return ""
			})
		},
		seeds: []seedFile{{"internal/build/zz_seed.go", `package build; import _ "repro/internal/pool"`}},
	},
	{
		name: "imports/no-stripe-or-organizer",
		why:  "one data layout (no striped lanes) and one write order (no organizer pool)",
		check: func(tr *tree) (string, []string) {
			return edges(tr, func(from, to string) string {
				if to == "internal/stripe" || to == "internal/organizer" {
					return "a deleted package"
				}
				return ""
			})
		},
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; import _ "repro/internal/organizer"`}},
	},
	{
		name: "names/topic-files-are-container's",
		why:  "internal/container alone names a topic directory's files",
		check: none(everywhere, func(f *srcFile, n ast.Node) bool {
			return f.dir != "internal/container" &&
				(f.refersTo(n, "internal/container", "DataFileName") || f.refersTo(n, "internal/container", "IndexFileName"))
		}, "container.DataFileName or IndexFileName outside internal/container"),
		seeds: []seedFile{{"cmd/borabag/zz_seed.go", `package main; import "repro/internal/container"; var _ = container.IndexFileName`}},
	},
	{
		name: "names/live-layout-is-core's",
		why:  "internal/core alone names the live layout's files (.bora_live, seg-N/)",
		check: none(everywhere, func(f *srcFile, n ast.Node) bool {
			if f.dir == "internal/core" {
				return false
			}
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				return s == "seg-"
			}
			return f.refersTo(n, "internal/core", "LiveMetaFileName")
		}, `core.LiveMetaFileName or "seg-" outside internal/core`),
		seeds: []seedFile{
			{"cmd/borabag/zz_seed.go", `package main; import "repro/internal/core"; var _ = core.LiveMetaFileName`},
			{"internal/vfs/zz_seed.go", `package vfs; var _ = "seg-"`},
		},
	},
	{
		name: "names/no-os-create-in-the-fault-domain",
		why:  "every file a container gains is created through faultfs, so the crash sweeps see every writer",
		check: none([]string{"internal/container", "internal/core"}, func(f *srcFile, n ast.Node) bool {
			return calledQualified(f, n, "os", "Create") || calledQualified(f, n, "os", "OpenFile")
		}, "os.Create or os.OpenFile around faultfs"),
		seeds: []seedFile{{"internal/container/zz_seed.go", `package container; import "os"; func zz() { os.OpenFile("x", 0, 0) }`}},
	},
	{
		name: "sites/one-data-read-site-in-core",
		why:  "one executor: every ordering policy delivers through cursor.deliver",
		check: count([]string{"internal/core"}, 1, "cursor.go", "data-read site(s) in core", func(_ *srcFile, n ast.Node) bool {
			return calledMethod(n, "ReadExtentInto", "ReadMessageInto")
		}),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; func zz(t interface{ ReadMessageInto() }) { t.ReadMessageInto() }`}},
	},
	{
		name: "sites/core-starts-no-goroutine",
		why:  "every query plan delivers on the caller's goroutine (topic order is the paper's whole-file sequential reads; a pooled plan measured slower): checkCancel's plain counter and Exec.Idle's single caller rely on it",
		check: none([]string{"internal/core"}, func(_ *srcFile, n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			return ok
		}, "a go statement in core"),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; func zz() { go func() {}() }`}},
	},
	{
		name: "names/core-does-not-branch-on-reader",
		why:  "how a part is read is decided in container alone: core hands whatever OpenData returns to ReadExtentInto and never asks which reader it holds",
		check: none([]string{"internal/core"}, func(f *srcFile, n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeAssertExpr:
				return x.Type != nil && namesPkg(f, x.Type, "internal/container")
			case *ast.CaseClause:
				for _, e := range x.List {
					if namesPkg(f, e, "internal/container") {
						return true
					}
				}
			case *ast.Ident:
				return x.Name == "ZeroCopyReader" || x.Name == "zeroCopyReader"
			}
			return false
		}, "core asks which container reader it holds"),
		seeds: []seedFile{
			{"internal/core/zz_seed.go", `package core; import "repro/internal/container"; func zz(r container.DataReader) bool { _, ok := r.(container.ZeroCopyReader); return ok }`},
			{"internal/core/zz_seed.go", `package core; import c "repro/internal/container"; func zz(r c.DataReader) { switch r.(type) { case *c.Topic: } }`},
		},
	},
	{
		name: "sites/mapping-is-container's",
		why:  "a part is mapped in one file, internal/container/mapped.go, which alone knows a mapping's lifetime and which faults are its own",
		check: func(tr *tree) (string, []string) {
			got := tr.sites(everywhere, func(f *srcFile, n ast.Node) bool {
				return f.refersTo(n, "syscall", "Mmap") || f.refersTo(n, "syscall", "Munmap")
			})
			var bad []string
			for _, s := range got {
				if !strings.HasPrefix(s, "internal/container/mapped.go:") {
					bad = append(bad, s+": syscall.Mmap or Munmap outside internal/container/mapped.go")
				}
			}
			if len(got) == 0 {
				bad = append(bad, "no syscall.Mmap or Munmap in internal/container/mapped.go")
			}
			return fmt.Sprintf("%d syscall.Mmap/Munmap sites, in internal/container/mapped.go", len(got)), bad
		},
		seeds: []seedFile{
			{"internal/core/zz_seed.go", `package core; import "syscall"; var _ = syscall.Mmap`},
			{"internal/container/zz_seed.go", `package container; import "syscall"; func zz() { syscall.Munmap(nil) }`},
		},
	},
	{
		name: "sites/only-data-is-mapped",
		why:  "a part's data is mapped and its index is read into bytes the process owns, so no index view can fault or read zeros a cut left: mapFile's one caller is Topic.mapData, and an IndexView is its bytes alone",
		check: func(tr *tree) (string, []string) {
			var bad []string
			callers := map[string]bool{}
			var fields []int // per IndexView declaration
			for _, f := range tr.files {
				for _, d := range f.ast.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						ast.Inspect(d, func(n ast.Node) bool {
							if calledMethod(n, "mapFile") {
								callers[recvType(d)+"."+d.Name.Name] = true
								if f.dir != "internal/container" || recvType(d) != "Topic" || d.Name.Name != "mapData" {
									bad = append(bad, tr.pos(n)+": mapFile called outside Topic.mapData")
								}
							}
							return true
						})
					case *ast.GenDecl:
						for _, sp := range d.Specs {
							if ts, ok := sp.(*ast.TypeSpec); ok && f.dir == "internal/container" && ts.Name.Name == "IndexView" {
								n := -1
								if st, ok := ts.Type.(*ast.StructType); ok {
									n = st.Fields.NumFields()
								}
								fields = append(fields, n)
							}
						}
					}
				}
			}
			names := make([]string, 0, len(callers))
			for c := range callers {
				names = append(names, c)
			}
			sort.Strings(names)
			if len(names) != 1 {
				bad = append(bad, fmt.Sprintf("mapFile called from %d function(s), want 1, Topic.mapData: %v", len(names), names))
			}
			if len(fields) != 1 || fields[0] != 1 {
				bad = append(bad, fmt.Sprintf("IndexView declared with %v field(s), want one struct of 1: its bytes", fields))
			}
			return fmt.Sprintf("mapFile called from %v; IndexView's fields %v", names, fields), bad
		},
		seeds: []seedFile{
			{"internal/container/zz_seed.go", `package container; func (t *Topic) zz() { mapFile("index", true) }`},
			{"internal/container/zz_seed.go", `package container; type IndexView struct{ b []byte; m *mapping }`},
		},
	},
	{
		name: "sites/two-data-readers-in-container",
		why:  "a sealed part is read through a mapping and a growing one (or one mmap refuses) through its file; the block cache stays only because benchmark/ pins it. A reader type is one with the length method ReadExtentInto bounds reads by",
		check: func(tr *tree) (string, []string) {
			var got []string
			for _, f := range tr.files {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && f.dir == "internal/container" && fd.Name.Name == "length" && recvType(fd) != "" {
						got = append(got, recvType(fd))
					}
				}
			}
			sort.Strings(got)
			held := "container's data readers: " + strings.Join(got, ", ")
			if strings.Join(got, " ") != "cachedReader dataFile mapping" {
				return held, []string{held + "; want mapping and dataFile, and cachedReader while benchmark/ pins it"}
			}
			return held, nil
		},
		seeds: []seedFile{{"internal/container/zz_seed.go", `package container; type zz struct{}; func (zz) length(uint64) uint64 { return 0 }`}},
	},
	{
		name: "sites/the-view-decodes-the-index",
		why:  "one index representation: the encoded entries behind IndexView, which alone decodes them, one at a time",
		check: func(tr *tree) (string, []string) {
			var sites, bad []string
			for _, f := range tr.files {
				for _, d := range f.ast.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					ast.Inspect(fd, func(n ast.Node) bool {
						if calledMethod(n, "decodeIndexEntry") {
							sites = append(sites, tr.pos(n))
							if f.dir != "internal/container" || recvType(fd) != "IndexView" {
								bad = append(bad, tr.pos(n)+": decodeIndexEntry called outside IndexView's methods")
							}
						}
						return true
					})
				}
			}
			if len(sites) == 0 {
				bad = append(bad, "no decodeIndexEntry call in IndexView's methods")
			}
			return fmt.Sprintf("%d decodeIndexEntry call(s), in IndexView's methods", len(sites)), bad
		},
		seeds: []seedFile{{"internal/container/zz_seed.go", `package container; func (t *Topic) zz(b []byte) IndexEntry { return decodeIndexEntry(b) }`}},
	},
	{
		name: "names/no-decoded-index-in-read-state",
		why:  "a topic, its writer and a query's cursor hold the index as encoded bytes (IndexView), never as a decoded []IndexEntry",
		check: func(tr *tree) (string, []string) {
			holders := map[string]string{"internal/container.Topic": "", "internal/container.TopicWriter": "", "internal/core.cursor": ""}
			var bad []string
			for _, f := range tr.files {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					st, isStruct := ts.Type.(*ast.StructType)
					if _, held := holders[f.dir+"."+ts.Name.Name]; !isStruct || !held {
						return false
					}
					holders[f.dir+"."+ts.Name.Name] = "found"
					for _, fld := range st.Fields.List {
						if at, ok := fld.Type.(*ast.ArrayType); ok && f.refersTo(at.Elt, "internal/container", "IndexEntry") {
							bad = append(bad, tr.pos(fld)+": a decoded []IndexEntry in "+ts.Name.Name)
						}
					}
					return false
				})
			}
			for name, found := range holders {
				if found == "" {
					bad = append(bad, "no struct type "+name)
				}
			}
			sort.Strings(bad)
			return "Topic, TopicWriter and cursor hold no []IndexEntry", bad
		},
		seeds: []seedFile{
			{"internal/container/zz_seed.go", `package container; type TopicWriter struct{ zz []IndexEntry }`},
			{"internal/core/zz_seed.go", `package core; import "repro/internal/container"; type cursor struct{ zz []container.IndexEntry }`},
		},
	},
	{
		name: "sites/one-fault-switch-in-core",
		why:  "every ordering policy raises memory faults as panics through one helper (core's panicOnFault), so the policies' settle is the one place a cut mapping becomes an error",
		check: count(everywhere, 1, "cursor.go", "debug.SetPanicOnFault call(s)", func(f *srcFile, n ast.Node) bool {
			return calledQualified(f, n, "runtime/debug", "SetPanicOnFault")
		}),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; import "runtime/debug"; func zz() { debug.SetPanicOnFault(true) }`}},
	},
	{
		name: "sites/one-vectored-write-in-server",
		why:  "a pinned payload leaves its mapping by one writev of a query stream's batch, inside the query's fault guard, and the batch then checks the guards of the parts it sent from; a net.Buffers anywhere else would send mapped bytes that no guard checks",
		check: count(everywhere, 1, "server.go", "net.Buffers site(s)", func(f *srcFile, n ast.Node) bool {
			return f.refersTo(n, "net", "Buffers")
		}),
		seeds: []seedFile{{"internal/client/zz_seed.go", `package client; import "net"; var _ net.Buffers`}},
	},
	{
		name: "names/pool-plugs-no-block-cache",
		why:  "pooled handles read mapped parts: the pool building or plugging a block cache again would put a second copy of the page cache back on the serving path",
		check: none([]string{"internal/pool"}, func(_ *srcFile, n ast.Node) bool {
			return calledMethod(n, "SetBlockCache")
		}, "internal/pool plugs a block cache"),
		seeds: []seedFile{{"internal/pool/zz_seed.go", `package pool; func zz(c interface{ SetBlockCache(any) }) { c.SetBlockCache(nil) }`}},
	},
	{
		name: "names/core-does-not-recheck-order",
		why:  "a part's time order is kept by container (Topic.Ordered's prefix), so core never re-derives it per query",
		check: none([]string{"internal/core"}, func(f *srcFile, n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			pkg, name, ok := f.qualified(c.Fun)
			return ok && (pkg == "sort" && (name == "SliceIsSorted" || name == "IsSorted") ||
				pkg == "slices" && strings.HasPrefix(name, "IsSorted"))
		}, "core checks a selection's order itself"),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; import "slices"; func zz(s []int) bool { return slices.IsSortedFunc(s, func(a, b int) int { return a - b }) }`}},
	},
	{
		name: "sites/one-rotation-loop-in-client",
		why:  "the cluster client has one rotation loop",
		check: count([]string{"internal/client"}, 1, "", "rotation-budget read(s) (.rot.Attempts) in client", func(_ *srcFile, n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Attempts" {
				return false
			}
			rot, ok := sel.X.(*ast.SelectorExpr)
			return ok && rot.Sel.Name == "rot"
		}),
		seeds: []seedFile{{"internal/client/zz_seed.go", `package client; func zz(cl *Cluster) int { return cl.rot.Attempts }`}},
	},
	{
		name:  "sites/one-connection-retry-in-client",
		why:   "one connection retry (node.withConn)",
		check: count([]string{"internal/client"}, 1, "", "stale-connection retry(ies) (stale = err) in client", assigns("stale", "err")),
		seeds: []seedFile{{"internal/client/zz_seed.go", `package client; func zz(err error) { var stale error; stale = err; _ = stale }`}},
	},
	{
		name:  "sites/one-idle-drain-in-client",
		why:   "one idle-connection cache drain",
		check: count([]string{"internal/client"}, 1, "", "idle-cache drain(s) (.idle = nil) in client", assigns("idle", "nil")),
		seeds: []seedFile{{"internal/client/zz_seed.go", `package client; func zz(n *node) { n.idle = nil }`}},
	},
	{
		name: "sites/one-container-creation-in-core",
		why:  "one writer: every path into a container appends through core/segment.go",
		check: count([]string{"internal/core"}, 1, "segment.go", "container.CreateFS call(s) in core", func(f *srcFile, n ast.Node) bool {
			return calledQualified(f, n, "internal/container", "CreateFS")
		}),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; import "repro/internal/container"; func zz() { container.CreateFS("", nil) }`}},
	},
	{
		name: "sites/one-topic-writer-creation-in-core",
		why:  "one writer: every path into a container appends through core/segment.go",
		check: count([]string{"internal/core"}, 1, "segment.go", "CreateTopicOpts call(s) in core", func(_ *srcFile, n ast.Node) bool {
			return calledMethod(n, "CreateTopicOpts")
		}),
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; func zz(c interface{ CreateTopicOpts() }) { c.CreateTopicOpts() }`}},
	},
	{
		name: "sites/atomic-writes-only-rewrite-metas",
		why: "a building container's files are written in place and made durable by the one barrier of its seal (container.CommitFS); " +
			"a temp file and a rename are only for a meta a reader may hold: container.writeMeta (seal, Repair, StampDerivation) and the live meta writer",
		check: func(tr *tree) (string, []string) {
			allowed := map[string]bool{"internal/container.writeMeta": true, "internal/core.writeLiveMeta": true}
			var held, bad []string
			for _, f := range tr.files {
				for _, d := range f.ast.Decls {
					site := f.dir + "."
					if fd, ok := d.(*ast.FuncDecl); ok {
						site += fd.Name.Name
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if n != nil && calledQualified(f, n, "internal/faultfs", "WriteFileAtomic") {
							if allowed[site] {
								held = append(held, site)
							} else {
								bad = append(bad, tr.pos(n)+": faultfs.WriteFileAtomic called from "+site)
							}
						}
						return true
					})
				}
			}
			return fmt.Sprintf("faultfs.WriteFileAtomic called from %v", held), bad
		},
		seeds: []seedFile{{"internal/container/zz_seed.go", `package container; import "repro/internal/faultfs"; func zz() { faultfs.WriteFileAtomic(nil, "", nil, 0) }`}},
	},
	{
		name: "sites/two-type-registrations",
		why:  "msgdef fills a connection's md5sum and definition at two (topic, type) registrations: Recorder.typedConnLocked, rosbag Writer.AddConnection",
		check: func(tr *tree) (string, []string) {
			var held []string
			var bad []string
			for _, name := range []string{"MD5", "FullText"} {
				h, b := count([]string{"internal/core", "internal/rosbag"}, 2, "", "msgdef."+name+" calls in core and rosbag", func(f *srcFile, n ast.Node) bool {
					return calledQualified(f, n, "internal/msgdef", name)
				})(tr)
				held, bad = append(held, h), append(bad, b...)
			}
			return strings.Join(held, "; "), bad
		},
		seeds: []seedFile{{"internal/rosbag/zz_seed.go", `package rosbag; import "repro/internal/msgdef"; func zz() { msgdef.MD5("") }`}},
	},
	{
		name: "retired/identifiers",
		why:  "deleted modes and paths stay deleted",
		check: func(tr *tree) (string, []string) {
			var bad []string
			for _, f := range tr.files {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && retiredIdents[id.Name] != "" {
						bad = append(bad, fmt.Sprintf("%s: %s is retired (%s)", tr.pos(id), id.Name, retiredIdents[id.Name]))
					}
					return true
				})
			}
			return "", bad
		},
		seeds: []seedFile{
			{"internal/core/zz_seed.go", `package core; type zz struct{ Synchronous bool }`},
			{"internal/core/zz_seed.go", `package core; func readSerial() {}`},
			{"internal/pool/zz_seed.go", `package pool; func (p *Pool) NoteQuery(string) {}`},
		},
	},
	{
		name: "retired/is-there-a-pool",
		why:  "one way to a bag handle per process kind: nobody asks whether there is a pool",
		check: none(internalCmd, func(_ *srcFile, n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return false
			}
			return isNil(b.Y) && poolBranch(b.Op, b.X) || isNil(b.X) && poolBranch(b.Op, b.Y)
		}, "a nil comparison on a pool"),
		seeds: []seedFile{{"internal/server/zz_seed.go", `package server; func zz(o Options) bool { return o.Pool == nil }`}},
	},
	{
		name: "retired/real-clock-experiments",
		why:  "benchmark/ is the one real-clock instrument",
		check: none(internalCmd, func(_ *srcFile, n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || !calledMethod(n, "register") || len(c.Args) == 0 {
				return false
			}
			lit, ok := c.Args[0].(*ast.BasicLit)
			if !ok {
				return false
			}
			id, _ := strconv.Unquote(lit.Value)
			for _, r := range retiredExperiments {
				if id == r {
					return true
				}
			}
			return false
		}, "a retired real-clock experiment"),
		seeds: []seedFile{{"internal/bench/zz_seed.go", `package bench; func init() { register("live-tail", "", nil) }`}},
	},
	{
		name: "sites/init-only-in-bench",
		why: "the reach row roots every init, so whatever an init registers counts as reached even when nothing reads the registry; " +
			"that is how nine msgs types outlived every caller. cmd/borabench reads internal/bench's experiment registry, the one init-filled table",
		check: none([]string{"."}, func(f *srcFile, n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			return ok && fd.Recv == nil && fd.Name.Name == "init" && f.dir != "internal/bench"
		}, "a func init outside internal/bench"),
		seeds: []seedFile{{"internal/msgs/zz_seed.go", `package msgs; func init() {}`}},
	},
	{
		name: "retired/striped-layout",
		why:  "one data layout: an older build's striped container is refused whole, by its text meta (container.ErrLegacyMeta)",
		check: none([]string{"internal/container", "internal/core", "internal/bench", "cmd"}, func(_ *srcFile, n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && striped.MatchString(id.Name)
		}, "a striped-layout name"),
		seeds: []seedFile{{"internal/container/zz_seed.go", `package container; const DefaultStripes = 4`}},
	},
	{
		name: "ratchet/span-parameters",
		why:  "ROADMAP's span fold: the exported X/XSpan twins only shrink",
		check: func(tr *tree) (string, []string) {
			var names []string
			for _, f := range tr.files {
				for _, d := range f.ast.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					for _, p := range fd.Type.Params.List {
						if f.refersTo(p.Type, "internal/obs", "Span") {
							names = append(names, f.dir+"."+fd.Name.Name)
							break
						}
					}
				}
			}
			sort.Strings(names)
			held := fmt.Sprintf("%d exported functions take an obs.Span: %s", len(names), strings.Join(names, ", "))
			if len(names) > maxSpanParams {
				return held, []string{fmt.Sprintf("%d exported functions take an obs.Span, want ≤ %d: %v", len(names), maxSpanParams, names)}
			}
			return held, nil
		},
		seeds: []seedFile{{"internal/core/zz_seed.go", `package core; import "repro/internal/obs"; func ZZSpan(obs.Span) {}`}},
	},
	{
		name: "design/layout-tree-is-the-packages",
		why:  "DESIGN §4's tree is the map a reader starts from",
		check: func(tr *tree) (string, []string) {
			listed := map[string]bool{}
			for _, m := range treeDir.FindAllSubmatch(designSection(tr.design, "4"), -1) {
				listed[string(m[1])] = true
			}
			var bad []string
			for d := range tr.dirs {
				if d != "." && !listed[d] {
					bad = append(bad, d+"/ holds Go files but is not in DESIGN §4's tree")
				}
				delete(listed, d)
			}
			for d := range listed {
				bad = append(bad, "DESIGN §4's tree lists "+d+"/, which holds no Go file")
			}
			sort.Strings(bad)
			return fmt.Sprintf("%d package directories in DESIGN §4", len(tr.dirs)-1), bad
		},
		seeds: []seedFile{{"internal/zzseed/zz_seed.go", `package zzseed`}},
	},
	{
		name: "reach/every-exported-name-has-a-program",
		why:  "an exported name no program reaches is deleted, unexported, or kept for a reason in DESIGN §5's keep-list",
		check: func(tr *tree) (string, []string) {
			keep := map[string]bool{}
			for _, row := range designTable(designSection(tr.design, "5"), "name", "reason") {
				name := strings.Trim(row[0], "`")
				if len(row) < 2 || row[1] == "" {
					return "", []string{"DESIGN §5's keep-list row " + name + " gives no reason"}
				}
				keep[name] = true
			}
			unreached := tr.unreached()
			var bad []string
			for _, name := range unreached {
				if !keep[name] {
					bad = append(bad, name+": no program reaches it; delete it, unexport it, or keep-list it in DESIGN §5")
				}
				delete(keep, name)
			}
			for name := range keep {
				bad = append(bad, "DESIGN §5's keep-list lists "+name+", which a program reaches or which is gone")
			}
			sort.Strings(bad)
			return fmt.Sprintf("%d keep-listed names no program reaches", len(unreached)), bad
		},
		seeds: []seedFile{
			{"internal/core/zz_seed.go", `package core; func ZZUnreached() {}`},
			{"cmd/zzseed/main.go", `package main; import "repro/internal/raceenabled"; var _ = raceenabled.Enabled`},
		},
	},
}

// maxSpanParams only goes down: ROADMAP's span fold lowers it.
const maxSpanParams = 6

// assigns matches `lhs = rhs` and `x.lhs = rhs` for identifiers lhs, rhs.
func assigns(lhs, rhs string) func(*srcFile, ast.Node) bool {
	return func(_ *srcFile, n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || a.Tok != token.ASSIGN || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
			return false
		}
		r, ok := a.Rhs[0].(*ast.Ident)
		if !ok || r.Name != rhs {
			return false
		}
		switch l := a.Lhs[0].(type) {
		case *ast.Ident:
			return l.Name == lhs
		case *ast.SelectorExpr:
			return l.Sel.Name == lhs
		}
		return false
	}
}

// namesPkg reports whether e mentions a name of pkg (container.X,
// *container.X, []container.X, ...).
func namesPkg(f *srcFile, e ast.Expr, pkg string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if p, _, ok := f.qualified(n); ok && p == pkg {
			found = true
		}
		return !found
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// poolBranch matches the comparisons that fork on whether there is a
// pool: `pl != nil`, `pool != nil`, `Pool == nil`. server.New's
// defaulting of a nil Options.Pool (`pl == nil`) is not a fork.
func poolBranch(op token.Token, e ast.Expr) bool {
	name := ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	if op == token.NEQ {
		return name == "pl" || name == "pool"
	}
	return name == "Pool"
}

// designSection returns DESIGN.md's "## n." section.
func designSection(design []byte, n string) []byte {
	start := bytes.Index(design, []byte("\n## "+n+". "))
	if start < 0 {
		return nil
	}
	rest := design[start+1:]
	if end := bytes.Index(rest, []byte("\n## ")); end >= 0 {
		rest = rest[:end]
	}
	return rest
}

// designTable returns the body rows of the markdown table in section
// whose header row is header, each row's cells trimmed.
func designTable(section []byte, header ...string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(string(section), "\n") {
		if !strings.HasPrefix(line, "|") {
			if in {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case !in:
			in = strings.Join(cells, "|") == strings.Join(header, "|")
		case strings.HasPrefix(cells[0], "---"):
		default:
			rows = append(rows, cells)
		}
	}
	return rows
}

// importTable is the allowed non-test import graph between the module's
// packages: package directory → the module packages it may import.
// A package that imports none of them has no row.
var importTable = map[string][]string{
	"benchmark":              {"internal/bagio", "internal/client", "internal/container", "internal/core", "internal/obs", "internal/pool", "internal/rosbag", "internal/server", "internal/server/wire", "internal/tagman", "internal/timeindex", "internal/workload"},
	"cmd/borabag":            {"internal/build", "internal/client", "internal/container", "internal/core", "internal/graph", "internal/obs", "internal/replay", "internal/rosbag", "internal/workload"},
	"cmd/borabench":          {"internal/bench", "internal/obs"},
	"cmd/borad":              {"internal/cluster/ring", "internal/core", "internal/obs", "internal/server"},
	"examples/liverecord":    {"internal/bagio", "internal/core", "internal/graph", "internal/msgs", "internal/rosbag", "internal/workload"},
	"examples/objectdetect":  {"internal/bagio", "internal/core", "internal/msgs", "internal/workload"},
	"examples/quickstart":    {"internal/core", "internal/rosbag", "internal/workload"},
	"examples/slam":          {"internal/bagio", "internal/core", "internal/msgs", "internal/workload"},
	"examples/swarmanalysis": {"internal/swarm", "internal/workload"},
	"examples/timequery":     {"internal/bagio", "internal/core", "internal/rosbag", "internal/workload"},
	"internal/bench":         {"internal/bagio", "internal/build", "internal/client", "internal/cluster", "internal/cluster/ring", "internal/core", "internal/dbsim", "internal/layout", "internal/obs", "internal/pathsim", "internal/plfsim", "internal/rosbag", "internal/server", "internal/simio", "internal/swarm", "internal/tagman", "internal/workload"},
	"internal/build":         {"internal/container", "internal/core", "internal/obs"},
	"internal/client":        {"internal/bagio", "internal/cluster/ring", "internal/obs", "internal/server/wire", "internal/spec"},
	"internal/cluster":       {"internal/simio"},
	"internal/container":     {"internal/bagio", "internal/faultfs", "internal/obs", "internal/timeindex"},
	"internal/core":          {"internal/bagio", "internal/container", "internal/faultfs", "internal/msgdef", "internal/msgs", "internal/obs", "internal/rosbag", "internal/spec", "internal/tagman"},
	"internal/dbsim":         {"internal/bagio", "internal/msgs", "internal/simio"},
	"internal/graph":         {"internal/bagio", "internal/core", "internal/msgs"},
	"internal/msgs":          {"internal/bagio"},
	"internal/pathsim":       {"internal/layout", "internal/simio"},
	"internal/plfsim":        {"internal/layout", "internal/simio"},
	"internal/pool":          {"internal/container", "internal/core", "internal/obs"},
	"internal/replay":        {"internal/bagio", "internal/core", "internal/graph", "internal/rosbag"},
	"internal/rosbag":        {"internal/bagio", "internal/msgdef", "internal/msgs", "internal/obs"},
	"internal/server":        {"internal/bagio", "internal/container", "internal/core", "internal/obs", "internal/pool", "internal/server/wire"},
	"internal/server/wire":   {"internal/bagio", "internal/spec"},
	"internal/simio":         {"internal/obs"},
	"internal/spec":          {"internal/bagio"},
	"internal/swarm":         {"internal/cluster", "internal/core", "internal/layout", "internal/pathsim", "internal/rosbag", "internal/workload"},
	"internal/timeindex":     {"internal/bagio"},
	"internal/vfs":           {"internal/core", "internal/faultfs", "internal/obs", "internal/rosbag"},
	"internal/workload":      {"internal/bagio", "internal/layout", "internal/msgs", "internal/rosbag"},
}

// reachRoots are the programs: every declaration under them is reached.
var reachRoots = []string{"cmd", "examples", "benchmark"}

// ifaceMethods are methods the standard library calls through its
// interfaces (sort, heap, fmt, errors, io, json, http): a reached type's
// method of one of these names is reached with no call site by name.
var ifaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true, "ReadByte": true, "WriteByte": true, "WriteString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
}

// decl is one package-level declaration; a method's key carries its
// receiver type: "internal/core.Bag.Query".
type decl struct {
	key, dir, recv, name string
	node                 ast.Node
	file                 *srcFile
}

// unreached is the reachability report: every exported declaration
// under internal/ that no program reaches, through a parse-only closure
// that follows bare names within a package, pkg.Name selectors through
// each file's imports, and other selectors (methods) by name. A const
// block is one enumeration: reaching one of its names reaches all. A
// package no program reaches is reported whole, as its directory.
func (tr *tree) unreached() []string {
	decls := map[string][]*decl{}
	enums := map[string][]string{} // a const block's names: reaching one reaches all
	var all []*decl
	add := func(f *srcFile, recv, name string, n ast.Node) {
		key := f.dir + "." + name
		if recv != "" {
			key = f.dir + "." + recv + "." + name
		}
		d := &decl{key: key, dir: f.dir, recv: recv, name: name, node: n, file: f}
		decls[key] = append(decls[key], d)
		all = append(all, d)
	}
	for _, f := range tr.files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(f, recvType(d), d.Name.Name, d)
			case *ast.GenDecl:
				var block []string
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(f, "", s.Name.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(f, "", id.Name, s)
							block = append(block, f.dir+"."+id.Name)
						}
					}
				}
				if d.Tok == token.CONST {
					for _, key := range block {
						enums[key] = block
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	calledNames := map[string]bool{}
	var queue []string
	mark := func(key string) {
		if reached[key] || decls[key] == nil {
			return
		}
		for _, k := range append(enums[key], key) {
			if !reached[k] {
				reached[k] = true
				queue = append(queue, k)
			}
		}
	}
	for _, d := range all {
		if inDirs(d.dir, reachRoots...) || d.recv == "" && (d.name == "init" || d.name == "_") {
			mark(d.key)
		}
	}
	methodReached := func(m *decl) bool {
		return reached[m.dir+"."+m.recv] && (calledNames[m.name] || ifaceMethods[m.name])
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			for _, d := range decls[key] {
				d.refs(mark, func(name string) { calledNames[name] = true })
			}
		}
		for _, m := range all {
			if m.recv != "" && !reached[m.key] && methodReached(m) {
				mark(m.key)
			}
		}
	}

	pkgReached := map[string]bool{}
	for key := range reached {
		pkgReached[decls[key][0].dir] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, d := range all {
		if !inDirs(d.dir, "internal") || reached[d.key] {
			continue
		}
		name := path.Base(d.dir) + "." + strings.TrimPrefix(d.key, d.dir+".")
		switch {
		case !pkgReached[d.dir]:
			name = d.dir
		case !ast.IsExported(d.name), d.recv != "" && !reached[d.dir+"."+d.recv]:
			continue
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// refs reports what d's declaration names: same-package declarations
// by bare identifier, other packages' through pkg.Name, and every other
// selector's name as a possible method call.
func (d *decl) refs(mark func(key string), called func(name string)) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkg, name, ok := d.file.qualified(n); ok {
				mark(pkg + "." + name)
				return false
			}
			called(n.Sel.Name)
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field: // a field's or parameter's name is not a reference
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			mark(d.dir + "." + n.Name)
		}
		return true
	}
	if fd, ok := d.node.(*ast.FuncDecl); ok {
		if fd.Recv != nil {
			ast.Inspect(fd.Recv, visit)
		}
		ast.Inspect(fd.Type, visit)
		if fd.Body != nil {
			ast.Inspect(fd.Body, visit)
		}
		return
	}
	ast.Inspect(d.node, visit)
}

// recvType is a method's receiver type name, "" for a function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
