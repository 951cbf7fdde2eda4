package durable

import (
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// BenchmarkAppendPolicy measures Store.Append, one record per op, under
// each fsync policy, and reports the log's bytes per record after Close.
// Record i mixes one vertex declaration and one deletion per 16 records
// into inserts over 50,000 vertices and 8 labels.
func BenchmarkAppendPolicy(b *testing.B) {
	for _, pol := range []Policy{FsyncNone, FsyncInterval, FsyncAlways} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := range b.N {
				v := graph.VertexID(uint32(i*2654435761) % 50000)
				w := graph.VertexID(uint32((i+1)*40503) % 50000)
				l := graph.Label(i % 8)
				u := stream.Insert(v, l, w)
				switch i % 16 {
				case 0:
					u = stream.DeclareVertex(v, l)
				case 7:
					u = stream.Delete(v, l, w)
				}
				if _, err := s.Append(u); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			var bytes int
			for _, data := range segmentFiles(b, dir) {
				bytes += len(data)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/record")
		})
	}
}
