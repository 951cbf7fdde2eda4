package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"turboflux/internal/harness"
)

// TestRunCPUProfileOnError: an unknown experiment fails run() and still
// leaves a complete CPU profile (gzip-compressed, so it starts 1f 8b).
func TestRunCPUProfileOnError(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := run(harness.DefaultConfig(io.Discard), "nosuch", false, prof, ""); err == nil {
		t.Fatal("run() of an unknown experiment returned nil")
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile of %d bytes does not start with the gzip magic", len(b))
	}
}

// TestRunMissingExp: without -exp run() returns the error main exits 2 on,
// and -list needs no -exp.
func TestRunMissingExp(t *testing.T) {
	if err := run(harness.DefaultConfig(io.Discard), "", false, "", ""); !errors.Is(err, errNoExp) {
		t.Fatalf("run() without -exp = %v, want errNoExp", err)
	}
	if err := run(harness.DefaultConfig(io.Discard), "", true, "", ""); err != nil {
		t.Fatalf("run() with -list = %v", err)
	}
}
