package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"turboflux/internal/stream"
)

// Policy selects when the WAL fsyncs appended records to stable storage.
type Policy uint8

const (
	// FsyncInterval syncs at most once per fsyncInterval, checked on append
	// and forced on Sync/Close — the default: bounded data loss without a
	// syscall per record.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append: no acknowledged record is ever
	// lost, at the cost of one fdatasync per update.
	FsyncAlways
	// FsyncNone never syncs except on Sync/Close; crash durability is
	// whatever the OS page cache survives.
	FsyncNone
)

// fsyncInterval is the FsyncInterval policy's period.
const fsyncInterval = 100 * time.Millisecond

// ParsePolicy parses the -fsync flag values "always", "interval", "none".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// String returns the flag spelling of p.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return "policy?"
	}
}

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix)
}

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// wal is the append side of the log. Not safe for concurrent use; the
// engine is single-threaded per stream and so is its journal.
type wal struct {
	dir     string
	policy  Policy
	segSize int64

	f        *os.File // active segment
	firstLSN uint64   // LSN of the active segment's first record
	size     int64    // bytes written to the active segment
	nextLSN  uint64   // LSN the next append receives
	buf      []byte   // reusable frame buffer
	lastSync time.Time
	dirty    bool
}

// AppendBatch journals every update in ups as one frame-and-write,
// returning the LSNs of the first and last record appended. The frame
// buffer, the write syscall, the fsync-policy check and the rotation
// check are paid once per batch instead of once per record. The caller
// guarantees ups is non-empty.
//
//tf:hotpath
func (w *wal) AppendBatch(ups []stream.Update) (first, last uint64, err error) {
	buf := w.buf[:0]
	for _, u := range ups {
		if buf, err = appendRecord(buf, u); err != nil {
			w.buf = buf[:0]
			return 0, 0, err
		}
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
		return 0, 0, err
	}
	w.size += int64(len(buf))
	first = w.nextLSN
	w.nextLSN += uint64(len(ups))
	last = w.nextLSN - 1
	w.dirty = true
	if err := w.maybeSync(); err != nil {
		return 0, 0, err
	}
	if w.size >= w.segSize {
		if err := w.rotate(); err != nil {
			return 0, 0, err
		}
	}
	return first, last, nil
}

// maybeSync applies the fsync policy after an append.
//
//tf:hotpath
func (w *wal) maybeSync() error {
	switch w.policy {
	case FsyncAlways:
		w.dirty = false
		return w.f.Sync()
	case FsyncInterval:
		now := time.Now()
		if now.Sub(w.lastSync) >= fsyncInterval {
			w.lastSync = now
			w.dirty = false
			return w.f.Sync()
		}
	}
	return nil
}

// Sync forces buffered records to stable storage regardless of policy.
func (w *wal) Sync() error {
	if !w.dirty {
		return nil
	}
	w.dirty = false
	w.lastSync = time.Now()
	return w.f.Sync()
}

// rotate closes the active segment and starts a new one whose first LSN is
// the next append's LSN. No-op on an empty active segment.
func (w *wal) rotate() error {
	if w.size == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.openSegment(w.nextLSN, true)
}

// openSegment makes the segment starting at firstLSN the active one,
// creating it if asked. The directory is synced after creation so the new
// name survives a crash.
func (w *wal) openSegment(firstLSN uint64, create bool) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(firstLSN)), flags, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //tf:unchecked-ok already failing
		return err
	}
	w.f = f
	w.firstLSN = firstLSN
	w.size = st.Size()
	w.dirty = false
	if create {
		return syncDir(w.dir)
	}
	return nil
}

// Close syncs and closes the active segment.
func (w *wal) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	cerr := w.f.Close()
	w.f = nil
	if err != nil {
		return err
	}
	return cerr
}

// syncDir fsyncs a directory so renames and creations in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// segmentList returns the segment first-LSNs present in dir, ascending.
func segmentList(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSegName(e.Name()); ok {
			firsts = append(firsts, lsn)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// scanResult describes the clean prefix of the log found by scanWAL.
type scanResult struct {
	lastLSN   uint64   // LSN of the last valid record (0 if none)
	activeLSN uint64   // first LSN of the segment appends continue in
	truncated int      // bytes of torn/corrupt tail discarded
	dropped   []uint64 // segments beyond the torn point, deleted
}

// scanWAL walks the segments of dir in order, calling apply for every
// valid record with LSN > afterLSN. The first torn or corrupt record ends
// the clean prefix: the segment is truncated there and any later segments
// are deleted. It returns where the prefix ends so the wal can resume
// appending.
func scanWAL(dir string, afterLSN uint64, apply func(lsn uint64, u stream.Update) error) (scanResult, error) {
	res := scanResult{}
	firsts, err := segmentList(dir)
	if err != nil {
		return res, err
	}
	if len(firsts) == 0 {
		res.lastLSN = afterLSN
		res.activeLSN = afterLSN + 1
		return res, nil
	}
	if firsts[0] > afterLSN+1 {
		return res, fmt.Errorf("durable: log gap: snapshot covers LSN %d but oldest segment starts at %d", afterLSN, firsts[0])
	}
	lsn := firsts[0] - 1
	active := firsts[0]
	for i, first := range firsts {
		if first != lsn+1 {
			// Missing records between segments: everything from here on is
			// unreachable. Treat like a torn tail.
			if err := dropSegments(dir, firsts[i:], &res); err != nil {
				return res, err
			}
			break
		}
		active = first
		path := filepath.Join(dir, segName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return res, err
		}
		off := 0
		for off < len(data) {
			u, n, derr := decodeRecord(data[off:])
			if derr != nil {
				// Clean prefix ends inside this segment: truncate it and
				// drop every later segment.
				res.truncated += len(data) - off
				if err := os.Truncate(path, int64(off)); err != nil {
					return res, err
				}
				if err := dropSegments(dir, firsts[i+1:], &res); err != nil {
					return res, err
				}
				res.lastLSN = lsn
				res.activeLSN = first
				return res, syncDir(dir)
			}
			lsn++
			if lsn > afterLSN {
				if err := apply(lsn, u); err != nil {
					return res, err
				}
			}
			off += n
		}
	}
	res.lastLSN = lsn
	res.activeLSN = active
	return res, nil
}

func dropSegments(dir string, firsts []uint64, res *scanResult) error {
	for _, first := range firsts {
		if err := os.Remove(filepath.Join(dir, segName(first))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		res.dropped = append(res.dropped, first)
	}
	return nil
}
