// Command turboflux-gen generates synthetic datasets and query sets in the
// text formats consumed by cmd/turboflux (see internal/stream).
//
// Usage:
//
//	turboflux-gen -dataset lsbench -users 1000 -queries 4 -qsize 6 -out ./data
//	turboflux-gen -dataset netflow -hosts 2000 -triples 40000 -qtype path -out ./data
//
// The output directory receives g0.txt (vertex declarations plus initial
// edges), stream.txt (the update stream) and query-<type>-<size>-<n>.txt
// files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "lsbench", "lsbench or netflow")
	users := flag.Int("users", 1000, "LSBench user scale factor")
	hosts := flag.Int("hosts", 2500, "Netflow host count")
	triples := flag.Int("triples", 50000, "Netflow triple count")
	streamFrac := flag.Float64("streamfrac", 0.1, "fraction of triples streamed as updates")
	delRate := flag.Float64("delrate", 0, "deletions per insertion in the stream")
	queries := flag.Int("queries", 4, "queries to generate")
	qtype := flag.String("qtype", "tree", "query shape: tree, graph, path, btree or overlap")
	qsize := flag.Int("qsize", 6, "query size (number of edges)")
	overlap := flag.Float64("overlap", 0.5, "fraction of queries sharing one spanning tree (qtype overlap)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	if err := run(*dataset, *users, *hosts, *triples, *streamFrac, *delRate,
		*queries, *qtype, *qsize, *overlap, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux-gen:", err)
		os.Exit(1)
	}
}

func run(dataset string, users, hosts, triples int, streamFrac, delRate float64,
	queries int, qtype string, qsize int, overlap float64, seed int64, out string) error {
	var ds *workload.Dataset
	switch dataset {
	case "lsbench":
		ds = workload.LSBench(workload.LSBenchConfig{
			Users: users, StreamFraction: streamFrac, DeletionRate: delRate, Seed: seed,
		})
	case "netflow":
		ds = workload.Netflow(workload.NetflowConfig{
			Hosts: hosts, Triples: triples, StreamFraction: streamFrac,
			DeletionRate: delRate, Seed: seed,
		})
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeGraph(filepath.Join(out, "g0.txt"), ds.Graph); err != nil {
		return err
	}
	if err := writeUpdates(filepath.Join(out, "stream.txt"), ds.Stream); err != nil {
		return err
	}
	var qs []*query.Graph
	switch qtype {
	case "tree":
		qs = ds.TreeQueries(queries, qsize, seed+int64(qsize))
	case "graph":
		qs = ds.CyclicQueries(queries, qsize, seed+int64(qsize))
	case "path":
		qs = ds.PathQueries(queries, qsize, seed+int64(qsize))
	case "btree":
		qs = ds.BinaryTreeQueries(queries, qsize, seed+int64(qsize))
	case "overlap":
		qs = ds.OverlappingQueries(queries, qsize, overlap, seed+int64(qsize))
	default:
		return fmt.Errorf("unknown query type %q", qtype)
	}
	for i, q := range qs {
		name := fmt.Sprintf("query-%s-%d-%02d.txt", qtype, qsize, i)
		if err := writeQuery(filepath.Join(out, name), q); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s: %d vertices, %d initial edges, %d stream updates, %d queries\n",
		out, ds.Graph.NumVertices(), ds.Graph.NumEdges(), len(ds.Stream), len(qs))
	return nil
}

// writeGraph emits vertex declarations followed by initial edges.
func writeGraph(path string, g *graph.Graph) error {
	var ups []stream.Update
	g.ForEachVertex(func(v graph.VertexID) {
		ups = append(ups, stream.DeclareVertex(v, g.Labels(v)...))
	})
	g.ForEachEdge(func(e graph.Edge) {
		ups = append(ups, stream.Insert(e.From, e.Label, e.To))
	})
	return writeUpdates(path, ups)
}

func writeQuery(path string, q *query.Graph) error {
	var ups []stream.Update
	for u := 0; u < q.NumVertices(); u++ {
		ups = append(ups, stream.DeclareVertex(graph.VertexID(u), q.Labels(graph.VertexID(u))...))
	}
	for _, e := range q.Edges() {
		ups = append(ups, stream.Insert(e.From, e.Label, e.To))
	}
	return writeUpdates(path, ups)
}

func writeUpdates(path string, ups []stream.Update) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stream.Encode(f, ups); err != nil {
		f.Close() //tf:unchecked-ok already failing; the write error wins
		return err
	}
	return f.Close()
}
