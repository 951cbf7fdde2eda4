package core

import "fmt"

// HotFormat allocates a formatted string per call.
//
//tf:hotpath
func HotFormat(v int) string {
	return fmt.Sprintf("v%d", v)
}

// HotClosure builds a capturing closure per call.
//
//tf:hotpath
func HotClosure(vs []int, visit func(func() int)) {
	total := 0
	visit(func() int {
		total += len(vs)
		return total
	})
}

// HotGrow appends to an unsized local slice.
//
//tf:hotpath
func HotGrow(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// HotPrealloc sizes the slice up front: no finding.
//
//tf:hotpath
func HotPrealloc(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// HotSuppressed documents the deliberate allocation: no finding.
//
//tf:hotpath
func HotSuppressed(v int) string {
	return fmt.Sprintf("v%d", v) //tf:alloc-ok error path only
}

// ColdFormat is not annotated; the analyzer leaves it alone.
func ColdFormat(v int) string {
	return fmt.Sprintf("v%d", v)
}

// ApplyBatch is not annotated, but its name is an implicit hot-path
// entry point: the batch pipeline is checked even without //tf:hotpath.
func ApplyBatch(vs []int) string {
	return fmt.Sprintf("n=%d", len(vs))
}
