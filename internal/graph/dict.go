package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
)

// Dict interns strings to Labels. Vertex labels and edge labels use
// separate Dict instances (separate namespaces), mirroring how RDF loaders
// intern predicate and class IRIs independently.
type Dict struct {
	byName map[string]Label
	names  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]Label)}
}

// NumericLabels is how many labels NumericDict pre-interns.
const NumericLabels = 256

// NumericDict interns "0".."255" so Label(i) renders and parses as "i",
// matching the numeric labels of the data file formats (turboflux
// -pattern, -numeric-labels on turboflux-serve and turboflux-shard).
func NumericDict() *Dict {
	d := NewDict()
	for i := 0; i < NumericLabels; i++ {
		d.Intern(strconv.Itoa(i))
	}
	return d
}

// MaxLabels is how many labels a Dict holds: a Label is 16 bits.
const MaxLabels = 1 << 16

// Intern returns the Label for name, assigning the next free Label on first
// use. It panics when the dictionary already holds MaxLabels names, which is
// far beyond any workload in the paper (Netflow has 8 edge labels); names
// from clients are checked before they are interned (qlang.CheckLabel).
func (d *Dict) Intern(name string) Label {
	if l, ok := d.byName[name]; ok {
		return l
	}
	if len(d.names) >= MaxLabels {
		panic("graph: label dictionary overflow")
	}
	l := Label(len(d.names))
	d.byName[name] = l
	d.names = append(d.names, name)
	return l
}

// Lookup returns the Label for name and whether it was interned.
func (d *Dict) Lookup(name string) (Label, bool) {
	l, ok := d.byName[name]
	return l, ok
}

// Name returns the string for l. It returns a placeholder for labels never
// interned through this dictionary.
func (d *Dict) Name(l Label) string {
	if int(l) < len(d.names) {
		return d.names[l]
	}
	return fmt.Sprintf("label#%d", l)
}

// Len reports the number of interned labels.
func (d *Dict) Len() int { return len(d.names) }

// WriteBinary writes the dictionary in intern order: a varint count, then
// each name as a varint length + bytes. Reading the stream back and
// interning names in order reproduces identical Label assignments, which
// is what durable snapshots rely on.
func (d *Dict) WriteBinary(w io.Writer) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(d.names)))
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	for _, name := range d.names {
		n = binary.PutUvarint(buf[:], uint64(len(name)))
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
	}
	return nil
}

// maxDictNameLen bounds a single label name when decoding; corrupt length
// fields must not trigger huge allocations.
const maxDictNameLen = 1 << 20

// ReadDict loads a dictionary written by WriteBinary.
func ReadDict(r *bufio.Reader) (*Dict, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading dict count: %w", err)
	}
	if count > MaxLabels {
		return nil, fmt.Errorf("graph: dict count %d exceeds label space", count)
	}
	d := NewDict()
	for i := uint64(0); i < count; i++ {
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("graph: reading dict name length: %w", err)
		}
		if ln > maxDictNameLen {
			return nil, fmt.Errorf("graph: dict name length %d implausible", ln)
		}
		name := make([]byte, ln)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("graph: reading dict name: %w", err)
		}
		s := string(name)
		if _, dup := d.byName[s]; dup {
			return nil, fmt.Errorf("graph: duplicate dict name %q", s)
		}
		d.Intern(s)
	}
	return d, nil
}
