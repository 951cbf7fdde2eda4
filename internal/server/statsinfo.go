package server

import (
	"fmt"
	"strconv"
	"strings"
)

// StatsPayload is a STATS or SHARDSTATS payload, read by key. A line is a
// kind, then an id for the kinds that describe one of many things (shard,
// query, sub), then key=value fields. Readers ask for the keys they need,
// and a key a line lacks, or carries malformed, is an error naming the line
// and the key: a renamed or removed counter fails its reader instead of
// reading as zero.
type StatsPayload []StatsLine

// StatsLine is one payload line.
type StatsLine struct {
	Kind string
	ID   string // the shard, query or sub the line describes; "" for other kinds
	// text is the line as sent; "" for a line the payload does not have.
	text   string
	fields []string
}

// ParseStats splits payload lines into kind, id and fields; the getters
// read the values.
func ParseStats(lines []string) StatsPayload {
	p := make(StatsPayload, 0, len(lines))
	for _, text := range lines {
		f := strings.Fields(text)
		if len(f) == 0 {
			continue
		}
		l := StatsLine{Kind: f[0], text: text, fields: f[1:]}
		switch l.Kind {
		case "shard", "query", "sub":
			if len(l.fields) > 0 {
				l.ID, l.fields = l.fields[0], l.fields[1:]
			}
		}
		p = append(p, l)
	}
	return p
}

// Line returns the first line of the kind. When the payload has none, the
// returned line's getters report that.
func (p StatsPayload) Line(kind string) StatsLine { return p.Find(kind, "") }

// Find returns the line of the kind whose id is id ("" matches any id).
// When the payload has none, the returned line's getters report that.
func (p StatsPayload) Find(kind, id string) StatsLine {
	for _, l := range p {
		if l.Kind == kind && (id == "" || l.ID == id) {
			return l
		}
	}
	return StatsLine{Kind: kind, ID: id}
}

// Lines returns every line of the kind, in payload order.
func (p StatsPayload) Lines(kind string) []StatsLine {
	var out []StatsLine
	for _, l := range p {
		if l.Kind == kind {
			out = append(out, l)
		}
	}
	return out
}

// Role is the role the payload's sender serves in: "coordinator" (a
// cluster line), "leader" or "follower" (a replica line), or "standalone"
// (neither).
func (p StatsPayload) Role() (string, error) {
	l := p.Line("cluster")
	if l.text == "" {
		if l = p.Line("replica"); l.text == "" {
			return "standalone", nil
		}
	}
	role, err := l.Str("role")
	if err != nil {
		return "", err
	}
	switch role {
	case "coordinator", "leader", "follower":
		return role, nil
	}
	return "", fmt.Errorf("server: STATS line %q: bad role %q", l.text, role)
}

// String returns the line as sent.
func (l StatsLine) String() string { return l.text }

// Str returns the value of key.
func (l StatsLine) Str(key string) (string, error) {
	if l.text == "" {
		return "", fmt.Errorf("server: STATS has no %s line (reading %s)", strings.TrimSpace(l.Kind+" "+l.ID), key)
	}
	for _, f := range l.fields {
		if k, v, ok := strings.Cut(f, "="); ok && k == key {
			return v, nil
		}
	}
	return "", fmt.Errorf("server: STATS line %q has no %s", l.text, key)
}

// Uint returns the value of key as an unsigned integer.
func (l StatsLine) Uint(key string) (uint64, error) {
	return value(l, key, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
}

// Int returns the value of key as a signed integer.
func (l StatsLine) Int(key string) (int64, error) {
	return value(l, key, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
}

// Bool returns the value of key as a boolean.
func (l StatsLine) Bool(key string) (bool, error) {
	return value(l, key, strconv.ParseBool)
}

func value[T any](l StatsLine, key string, parse func(string) (T, error)) (T, error) {
	s, err := l.Str(key)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := parse(s)
	if err != nil {
		return v, fmt.Errorf("server: STATS line %q: bad %s %q", l.text, key, s)
	}
	return v, nil
}
