// Package qlang parses a small Cypher-like pattern language into query
// graphs, so continuous queries can be written as text:
//
//	MATCH (a:Person)-[:follows]->(b:Person),
//	      (b)-[:likes]->(p:Post),
//	      (a)-[:likes]->(p)
//
// Grammar (whitespace-insensitive; the MATCH keyword is optional):
//
//	pattern := ["MATCH"] chain { "," chain }
//	chain   := node { edge node }
//	node    := "(" [ident] [":" label {"|" label}] ")"
//	edge    := "-[" ":" label "]->"  |  "<-[" ":" label "]-"
//	ident   := letter { letter | digit | "_" }
//
// Named nodes bind: reusing a name refers to the same query vertex (its
// label set is fixed at first mention). Anonymous nodes "()" are always
// fresh. Vertex and edge labels are resolved through the caller's
// dictionaries, interning unseen names.
package qlang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// Parse compiles src into a query graph. It returns the query and the
// mapping from node names to query vertex IDs (anonymous nodes are
// unnamed). Vertex labels intern through vdict, edge labels through edict.
func Parse(src string, vdict, edict *graph.Dict) (*query.Graph, map[string]graph.VertexID, error) {
	p := &parser{src: src, vdict: vdict, edict: edict}
	if err := p.run(); err != nil {
		return nil, nil, err
	}
	q := query.NewGraph(len(p.nodes))
	for i, n := range p.nodes {
		if len(n.labels) > 0 {
			q.SetLabels(graph.VertexID(i), n.labels...)
		}
	}
	for _, e := range p.edges {
		if err := q.AddEdge(e.From, e.Label, e.To); err != nil {
			return nil, nil, fmt.Errorf("qlang: %w", err)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, nil, fmt.Errorf("qlang: %w", err)
	}
	names := make(map[string]graph.VertexID, len(p.byName))
	for name, id := range p.byName {
		names[name] = id
	}
	return q, names, nil
}

type nodeDecl struct {
	name   string
	labels []graph.Label
}

type parser struct {
	src   string
	pos   int
	vdict *graph.Dict
	edict *graph.Dict

	nodes  []nodeDecl
	byName map[string]graph.VertexID
	edges  []graph.Edge
}

func (p *parser) run() error {
	p.byName = make(map[string]graph.VertexID)
	p.skipSpace()
	if p.hasKeyword("MATCH") {
		p.pos += len("MATCH")
	}
	for {
		if err := p.chain(); err != nil {
			return err
		}
		p.skipSpace()
		if p.eof() {
			return nil
		}
		if !p.consume(',') {
			return p.errf("expected ',' or end of pattern")
		}
	}
}

func (p *parser) chain() error {
	cur, err := p.node()
	if err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.eof() || p.peek() == ',' {
			return nil
		}
		label, forward, err := p.edge()
		if err != nil {
			return err
		}
		next, err := p.node()
		if err != nil {
			return err
		}
		if forward {
			p.edges = append(p.edges, graph.Edge{From: cur, Label: label, To: next})
		} else {
			p.edges = append(p.edges, graph.Edge{From: next, Label: label, To: cur})
		}
		cur = next
	}
}

// node parses "(" [ident] [":" labels] ")" and returns the query vertex.
func (p *parser) node() (graph.VertexID, error) {
	p.skipSpace()
	if !p.consume('(') {
		return 0, p.errf("expected '('")
	}
	p.skipSpace()
	name := p.ident()
	var labels []graph.Label
	p.skipSpace()
	if p.consume(':') {
		for {
			p.skipSpace()
			l := p.ident()
			if l == "" {
				return 0, p.errf("expected vertex label")
			}
			labels = append(labels, p.vdict.Intern(l))
			p.skipSpace()
			if !p.consume('|') {
				break
			}
		}
	}
	p.skipSpace()
	if !p.consume(')') {
		return 0, p.errf("expected ')'")
	}
	if name != "" {
		if id, ok := p.byName[name]; ok {
			if len(labels) > 0 {
				return 0, p.errf("node %q relabeled; labels bind at first mention", name)
			}
			return id, nil
		}
		id := graph.VertexID(len(p.nodes))
		p.nodes = append(p.nodes, nodeDecl{name: name, labels: labels})
		p.byName[name] = id
		return id, nil
	}
	id := graph.VertexID(len(p.nodes))
	p.nodes = append(p.nodes, nodeDecl{labels: labels})
	return id, nil
}

// edge parses "-[:label]->" (forward) or "<-[:label]-" (reverse) and
// returns the edge label and direction.
func (p *parser) edge() (graph.Label, bool, error) {
	p.skipSpace()
	forward := true
	if strings.HasPrefix(p.rest(), "<-[") {
		forward = false
		p.pos += 3
	} else if strings.HasPrefix(p.rest(), "-[") {
		p.pos += 2
	} else {
		return 0, false, p.errf("expected '-[' or '<-['")
	}
	p.skipSpace()
	if !p.consume(':') {
		return 0, false, p.errf("expected ':' before edge label")
	}
	p.skipSpace()
	name := p.ident()
	if name == "" {
		return 0, false, p.errf("expected edge label")
	}
	p.skipSpace()
	if forward {
		if !strings.HasPrefix(p.rest(), "]->") {
			return 0, false, p.errf("expected ']->'")
		}
		p.pos += 3
	} else {
		if !strings.HasPrefix(p.rest(), "]-") {
			return 0, false, p.errf("expected ']-'")
		}
		p.pos += 2
	}
	return p.edict.Intern(name), forward, nil
}

// ident accepts letter/digit/underscore runs; purely numeric identifiers
// are allowed so label names can be the numeric labels of data files.
func (p *parser) ident() string {
	start := p.pos
	for !p.eof() {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || r == '_' || unicode.IsDigit(r) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *parser) hasKeyword(kw string) bool {
	rest := p.rest()
	if len(rest) < len(kw) || !strings.EqualFold(rest[:len(kw)], kw) {
		return false
	}
	// Must be followed by a non-identifier rune.
	if len(rest) == len(kw) {
		return true
	}
	r := rune(rest[len(kw)])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' ||
		p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) consume(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) rest() string { return p.src[p.pos:] }
func (p *parser) eof() bool    { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...any) error {
	near := p.rest()
	if len(near) > 20 {
		near = near[:20] + "..."
	}
	return fmt.Errorf("qlang: %s at offset %d (near %q)",
		fmt.Sprintf(format, args...), p.pos, near)
}

// CheckNumeric refuses src, before anything is interned, when it names a
// label that looks decimal but is none of the labels "0".."255" a numeric
// dictionary starts with (graph.NumericDict, as the servers' dictionaries
// under -numeric-labels do, recovered ones included). Interned, "300" or
// "007" would be a new label that no numeric data label carries, and the
// query would silently match nothing. Dictionaries that are not numeric
// accept every name.
func CheckNumeric(src string, vdict, edict *graph.Dict) error {
	vd, ed := graph.NewDict(), graph.NewDict()
	if _, _, err := Parse(src, vd, ed); err != nil {
		return err
	}
	for _, c := range [...]struct{ named, dict *graph.Dict }{{vd, vdict}, {ed, edict}} {
		if !numeric(c.dict) {
			continue
		}
		for i := range c.named.Len() {
			name := c.named.Name(graph.Label(i))
			if strings.Trim(name, "0123456789") != "" {
				continue
			}
			if l, ok := c.dict.Lookup(name); !ok || l >= graph.NumericLabels {
				return fmt.Errorf("label %q is not one of the numeric labels 0..%d", name, graph.NumericLabels-1)
			}
		}
	}
	return nil
}

// numeric reports whether d starts with graph.NumericDict's labels.
func numeric(d *graph.Dict) bool {
	if d.Len() < graph.NumericLabels {
		return false
	}
	for i := range graph.NumericLabels {
		if d.Name(graph.Label(i)) != strconv.Itoa(i) {
			return false
		}
	}
	return true
}
