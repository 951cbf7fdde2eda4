package turboflux

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose docs cite code by name in backticks. Those citations go stale
// silently when code is renamed or removed, so every Go-looking token in
// them must name something the module declares, or be on the allow-list
// below.

// docFiles are the documents whose citations are checked.
var docFiles = []string{"DESIGN.md", "README.md"}

// docAllowed lists tokens that look like Go but name no declaration of the
// module: the paper's names for its algorithms, and two names from outside
// the code.
var docAllowed = map[string]bool{
	// The paper's names for its algorithms; the code spells its versions
	// in lower case.
	"BuildDCG": true, "ClearDCG": true, "SubgraphSearch": true, "IsJoinable": true,
	"InsertEdgeAndEval": true, "DeleteEdgeAndEval": true, "BuildUpwardsAndEval": true,
	"ClearUpwardsAndEval": true, "AdjustMatchingOrder": true,
	// A label name of the README's examples, and a /proc/PID/status field.
	"Person": true, "VmHWM": true,
}

// docStdlib lists the standard-library packages the docs cite members of
// (`runtime.GC`, `sync.Pool`).
var docStdlib = map[string]bool{
	"atomic": true, "bufio": true, "bytes": true, "context": true, "debug": true,
	"errors": true, "fmt": true, "io": true, "math": true, "net": true, "os": true,
	"pprof": true, "rand": true, "runtime": true, "slices": true, "sort": true,
	"strconv": true, "strings": true, "sync": true, "syscall": true, "testing": true,
	"time": true, "types": true, "unsafe": true, "binary": true, "filepath": true, "signal": true,
}

// fileExt lists the extensions that make a dotted token a file name.
var fileExt = map[string]bool{
	"go": true, "md": true, "json": true, "txt": true, "sh": true, "yml": true,
	"yaml": true, "csv": true, "mod": true, "log": true, "out": true, "pprof": true,
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// goToken is an identifier path: an optional receiver in parentheses,
	// dotted segments, an optional type-argument list and an optional ().
	goToken = regexp.MustCompile(`^(?:\(\*?([A-Za-z_]\w*)\)\.)?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\[[^\]]*\])?(\(\))?$`)
)

// goLooking reports whether the text of a code span is a Go name worth
// resolving and returns the name's last segment: dotted, ending in (), or
// mixed-case, and neither all-caps (protocol verbs, environment
// variables) nor a file name.
func goLooking(span string) (name string, ok bool) {
	m := goToken.FindStringSubmatch(span)
	if m == nil {
		return "", false
	}
	path, call := m[2], m[4] != ""
	segs := strings.Split(path, ".")
	last := segs[len(segs)-1]
	if len(segs) > 1 && fileExt[last] {
		return "", false
	}
	if strings.ToUpper(path) == path {
		return "", false
	}
	mixed := strings.ToLower(path) != path
	if len(segs) == 1 && m[1] == "" && !call && !mixed {
		return "", false
	}
	return last, true
}

// resolves reports whether the span, already Go-looking with last segment
// name, names a declaration, an allow-listed name, a standard-library
// member or a benchmark metric.
func resolves(span, name string, declared, metrics map[string]bool) bool {
	if declared[name] || docAllowed[name] || metrics[span] {
		return true
	}
	first, _, dotted := strings.Cut(span, ".")
	return dotted && docStdlib[first]
}

// moduleNames returns every name the module's Go files declare outside a
// function body, tests included (the docs cite tests), testdata
// excluded: functions, methods, types, constants, variables, struct
// fields and interface methods.
func moduleNames(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				names[fn.Name.Name] = true
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncType:
					return false // parameters are not declarations the docs cite
				case *ast.TypeSpec:
					names[n.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				case *ast.Field:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	metrics := make(map[string]bool)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	return metrics
}

// staleNames returns the Go-looking code spans of doc, outside fenced
// blocks, that resolve to nothing, as "line N: `span`".
func staleNames(doc string, declared, metrics map[string]bool) []string {
	var stale []string
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			span := strings.TrimLeft(m[1], "*&") // a pointer or address: *Graph, &opts
			name, ok := goLooking(span)
			if ok && !resolves(span, name, declared, metrics) {
				stale = append(stale, fmt.Sprintf("line %d: `%s`", i+1, span))
			}
		}
	}
	return stale
}

// TestDocNamesResolve: every Go-looking name DESIGN.md and README.md cite
// is declared in the module or allow-listed.
func TestDocNamesResolve(t *testing.T) {
	declared, metrics := moduleNames(t), benchmarkMetrics(t)
	for _, file := range docFiles {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleNames(string(doc), declared, metrics) {
			t.Errorf("%s %s names nothing the module declares", file, s)
		}
	}
}

// TestDocNamesCatchStale: the check is not blind — planted names no code
// declares (two the shard coordinator once had) are reported, and a
// declared name, a protocol verb, a file name, a flag, a standard-library
// member, a metric and a paper algorithm are not.
func TestDocNamesCatchStale(t *testing.T) {
	declared, metrics := moduleNames(t), benchmarkMetrics(t)
	doc := "The `shardHandle.storeMQO()` mirror and `rSubRelease`.\n" +
		"Fine: `MultiEngine.Register`, `(*DCG).slot`, `STATS`, `shard.go`, `-numeric-labels`,\n" +
		"`runtime.GC`, `core.apply_ns_per_update`, `insertTriggers[M]`, `SubgraphSearch`.\n" +
		"```\nnoSuchNameInFence()\n```\n"
	got := strings.Join(staleNames(doc, declared, metrics), "; ")
	want := "line 1: `shardHandle.storeMQO()`; line 1: `rSubRelease`"
	if got != want {
		t.Fatalf("stale = %s\nwant    %s", got, want)
	}
}
