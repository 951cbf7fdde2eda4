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
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
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

// CHANGES.md is read by people, who need lines they can diff, and line by
// line by tools that collect its FOUND and MENDED items. So its prose is
// wrapped at changesWidth runes, each such item stays one line that starts
// at column 0 with its marker, and no other line starts with a marker.

// changesWidth is the widest prose line CHANGES.md may hold, in runes.
const changesWidth = 100

var (
	// changesMarker matches a line that starts with a marker, after
	// optional indentation and an optional "- ".
	changesMarker = regexp.MustCompile(`^\s*(?:- )?(?:FOUND|MENDED)`)
	// changesItem is a FOUND or MENDED item as it must be written.
	changesItem = regexp.MustCompile(`^- (?:FOUND:|MENDED)`)
	// changesHeading is an entry's heading: "## PR 53 [simplicity]".
	changesHeading = regexp.MustCompile(`^## PR (\d+)\b`)
)

// changesFaults returns the layout faults of a CHANGES.md text as
// "line N: reason", and the number of entry headings it holds.
func changesFaults(doc string) (faults []string, entries int) {
	last := 0
	for i, line := range strings.Split(doc, "\n") {
		item := changesItem.MatchString(line)
		if changesMarker.MatchString(line) && !item {
			faults = append(faults, fmt.Sprintf("line %d: starts with a marker but is not a column-0 `- FOUND:` or `- MENDED` item", i+1))
		}
		n := utf8.RuneCountInString(line)
		if n > changesWidth && !item && !strings.HasPrefix(line, "|") && len(strings.Fields(line)) > 1 {
			faults = append(faults, fmt.Sprintf("line %d: %d runes, wider than %d", i+1, n, changesWidth))
		}
		if m := changesHeading.FindStringSubmatch(line); m != nil {
			pr, _ := strconv.Atoi(m[1])
			if pr <= last {
				faults = append(faults, fmt.Sprintf("line %d: PR %d follows PR %d", i+1, pr, last))
			}
			last, entries = pr, entries+1
		}
	}
	return faults, entries
}

// TestChangesLayout: CHANGES.md keeps its layout — prose wrapped, FOUND
// and MENDED items whole, entries in PR order.
func TestChangesLayout(t *testing.T) {
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	faults, entries := changesFaults(string(doc))
	if entries == 0 {
		t.Fatal("CHANGES.md has no `## PR <n>` heading: the heading parser is broken")
	}
	for _, f := range faults {
		t.Errorf("CHANGES.md %s", f)
	}
}

// TestChangesLayoutCatchesBad: the check is not blind — a wide prose line,
// a marker that starts a wrapped or indented line, and a heading out of
// order are each reported, and a clean sample with a wide table row, a
// wide item and a wide single token is not.
func TestChangesLayoutCatchesBad(t *testing.T) {
	wide := strings.Repeat("word ", 20) + "µ" // 101 runes, more bytes
	clean := "## PR 7: first\n\n" + strings.Repeat("wörd ", 19) + "≈≈≈≈\n" +
		"| " + wide + " |\n\n- FOUND: " + wide + "\n- MENDED (PR 8: done): " + wide + "\n" +
		strings.Repeat("→", 150) + "\n\n## PR 8 [simplicity]\n"
	if faults, entries := changesFaults(clean); len(faults) != 0 || entries != 2 {
		t.Fatalf("clean sample: %d entries, faults %q", entries, faults)
	}
	bad := "## PR 9:\n" + wide + "\nFOUND: no list marker\n  - MENDED (PR 9): indented\n" +
		"MENDED by the change below\n## PR 9 [simplicity]\n## PR 3:\n"
	got, _ := changesFaults(bad)
	want := []string{
		"line 2: 101 runes, wider than 100",
		"line 3: starts with a marker but is not a column-0 `- FOUND:` or `- MENDED` item",
		"line 4: starts with a marker but is not a column-0 `- FOUND:` or `- MENDED` item",
		"line 5: starts with a marker but is not a column-0 `- FOUND:` or `- MENDED` item",
		"line 6: PR 9 follows PR 9",
		"line 7: PR 3 follows PR 9",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("faults:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
