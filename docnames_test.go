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
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
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
	}
	return names
}

// goFiles returns the module's Go files, tests included, testdata and
// dot-directories excluded.
func goFiles(t *testing.T) []string {
	t.Helper()
	var files []string
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
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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

// Code and the docs cite DESIGN.md by section number, and some quote a
// title inside the section. A renumbered or rewritten DESIGN.md leaves
// those citations pointing at the wrong text without failing anything
// else, so every citation in the Go files, README.md and DESIGN.md itself
// must name a numbered heading, and a quoted title must occur inside the
// section cited. ROADMAP.md and CHANGES.md are plan and history and are
// not checked.

var (
	// designCite is "DESIGN §N" or "DESIGN.md §N", with an optional quoted
	// title after it ("DESIGN §10, \"Render each id once\"").
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)(?:,?\s*"([^"]+)")?`)
	// sectionOf is "Section N.M of DESIGN.md".
	sectionOf = regexp.MustCompile(`Section (\d+(?:\.\d+)?) of DESIGN\.md`)
	// titleCite is "DESIGN.md, \"Title\"", optionally followed by
	// `and "Title"`: each title must be part of a numbered heading.
	titleCite = regexp.MustCompile(`DESIGN\.md, "([^"]+)"(?:\s+and\s+"([^"]+)")?`)
	// bareCite is "§N" in README.md and DESIGN.md, where the word DESIGN
	// is implied ("DESIGN.md §8 and §13"), with an optional quoted title.
	// DESIGN.md cites the paper's sections as "the paper's §N".
	bareCite = regexp.MustCompile(`(paper's )?§(\d+(?:\.\d+)?)(?:,?\s*"([^"]+)")?`)
	// headingLine is a numbered heading: "## 8. Title" or "### 3.1 Title".
	headingLine = regexp.MustCompile(`^#{2,3} (\d+(?:\.\d+)?)\.? (.*)$`)
	// commentBreak is a line break inside a // comment: a citation may wrap.
	commentBreak = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	whitespace   = regexp.MustCompile(`\s+`)
)

// designSection is one numbered heading of DESIGN.md and its text (up to
// the next heading of the same or a higher level), whitespace collapsed.
type designSection struct{ title, text string }

// designSections maps each numbered heading of doc ("8", "3.1") to its
// section.
func designSections(doc string) map[string]designSection {
	type open struct {
		num   string
		level int
		start int
	}
	lines := strings.Split(doc, "\n")
	secs := make(map[string]designSection)
	var stack []open
	closeTo := func(level, end int) {
		for len(stack) > 0 && stack[len(stack)-1].level >= level {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := secs[o.num]
			s.text = whitespace.ReplaceAllString(strings.Join(lines[o.start:end], " "), " ")
			secs[o.num] = s
		}
	}
	for i, line := range lines {
		level := len(line) - len(strings.TrimLeft(line, "#"))
		if level < 2 || level > 3 || !strings.HasPrefix(line[level:], " ") {
			continue
		}
		closeTo(level, i)
		if m := headingLine.FindStringSubmatch(line); m != nil {
			secs[m[1]] = designSection{title: m[2]}
			stack = append(stack, open{m[1], level, i})
		}
	}
	closeTo(2, len(lines))
	return secs
}

// staleCitations returns the citations of DESIGN.md in text that name no
// numbered heading, or quote a title their section does not hold, as
// "`citation`: reason". bare says whether every §N is a citation
// (README.md and DESIGN.md) or only "DESIGN §N" is (Go files).
func staleCitations(text string, bare bool, secs map[string]designSection) []string {
	text = commentBreak.ReplaceAllString(text, " ")
	var stale []string
	check := func(cite, num, title string) {
		s, ok := secs[num]
		switch {
		case !ok:
			stale = append(stale, fmt.Sprintf("`%s`: no heading §%s", cite, num))
		case title != "" && !strings.Contains(s.text, whitespace.ReplaceAllString(title, " ")):
			stale = append(stale, fmt.Sprintf("`%s`: §%s does not hold %q", cite, num, title))
		}
	}
	if bare {
		for _, m := range bareCite.FindAllStringSubmatch(text, -1) {
			if m[1] == "" {
				check(m[0], m[2], m[3])
			}
		}
	} else {
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			check(m[0], m[1], m[2])
		}
	}
	for _, m := range sectionOf.FindAllStringSubmatch(text, -1) {
		check(m[0], m[1], "")
	}
	for _, m := range titleCite.FindAllStringSubmatch(text, -1) {
		for _, title := range m[1:] {
			if title == "" {
				continue
			}
			found := false
			for _, s := range secs {
				found = found || strings.Contains(s.title, title)
			}
			if !found {
				stale = append(stale, fmt.Sprintf("`%s`: no numbered heading holds %q", m[0], title))
			}
		}
	}
	return stale
}

// TestDesignCitationsResolve: every citation of DESIGN.md in the Go files
// (tests included, testdata excluded), README.md and DESIGN.md names a
// numbered heading, and every title it quotes is in that section.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	secs := designSections(string(design))
	for _, n := range []string{"1", "8", "17"} {
		if _, ok := secs[n]; !ok {
			t.Fatalf("DESIGN.md has no heading §%s: the heading parser is broken", n)
		}
	}
	for _, file := range append([]string{"README.md", "DESIGN.md"}, goFiles(t)...) {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleCitations(string(b), strings.HasSuffix(file, ".md"), secs) {
			t.Errorf("%s: %s", file, s)
		}
	}
}

// TestDesignCitationsCatchStale: the check is not blind — a section that
// does not exist and a title quoted under the wrong section are reported,
// and every form of a good citation, wrapped across comment lines too,
// is not.
func TestDesignCitationsCatchStale(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	secs := designSections(string(design))
	// The stale section number is split so that this file's own citations
	// resolve.
	src := "// Stale: DESIGN §4" + "2, and (DESIGN.md §10, \"Order independence\").\n" +
		"// Fine: DESIGN.md §11, \"Order\n// independence\", Section 3.3 of DESIGN.md,\n" +
		"// DESIGN §16, and DESIGN.md, \"Enforced invariants\" and \"Concurrency\n// contracts\".\n"
	got := strings.Join(staleCitations(src, false, secs), "; ")
	want := "`DESIGN §4" + "2`: no heading §42; " +
		"`DESIGN.md §10, \"Order independence\"`: §10 does not hold \"Order independence\""
	if got != want {
		t.Fatalf("stale = %s\nwant    %s", got, want)
	}
	md := "See DESIGN.md §8 and §99; the paper's §4.1 is not ours.\n"
	if got, want := strings.Join(staleCitations(md, true, secs), "; "), "`§99`: no heading §99"; got != want {
		t.Fatalf("stale = %s\nwant    %s", got, want)
	}
}
