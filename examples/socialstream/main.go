// Social-stream monitoring over the LSBench-like workload: track a
// "viral post" pattern — a post created by a channel moderator that two
// distinct users like — as edges stream in and out.
//
// The example demonstrates the full dynamic cycle: initial matches over
// g0, positive matches as the stream inserts likes, and negative matches
// when edges are deleted (e.g. a user retracting a like).
//
// Run with: go run ./examples/socialstream
package main

import (
	"fmt"
	"log"

	"turboflux"
	"turboflux/internal/workload"
)

func main() {
	ds := workload.LSBench(workload.LSBenchConfig{
		Users:          800,
		StreamFraction: 0.15,
		DeletionRate:   0.05, // 5% of streamed inserts are followed by a deletion
		Seed:           3,
	})
	sc := ds.Schema

	// Query: a post pinned in a moderated channel that two distinct users
	// like — u0(User) -moderatorOf-> u1(Channel); u2(Post) -pinnedIn-> u1;
	// u3(User) -likes-> u2; u4(User) -likes-> u2.
	userL := sc.VertexTypes[workload.TypeUser]
	chanL := sc.VertexTypes[workload.TypeChannel]
	postL := sc.VertexTypes[workload.TypePost]
	q := turboflux.NewQuery(5)
	q.SetLabels(0, userL)
	q.SetLabels(1, chanL)
	q.SetLabels(2, postL)
	q.SetLabels(3, userL)
	q.SetLabels(4, userL)
	must(q.AddEdge(0, workload.EdgeModeratorOf, 1))
	must(q.AddEdge(2, workload.EdgePinnedIn, 1))
	must(q.AddEdge(3, workload.EdgeLikes, 2))
	must(q.AddEdge(4, workload.EdgeLikes, 2))

	var pos, neg int64
	var lastMatch []turboflux.VertexID
	eng, err := turboflux.NewEngine(ds.Graph, q, turboflux.Options{
		Semantics: turboflux.Isomorphism,
		OnMatch: func(positive bool, m []turboflux.VertexID) {
			if positive {
				pos++
				lastMatch = append(lastMatch[:0], m...)
				if pos <= 3 {
					fmt.Printf("viral: post %d in channel %d (moderator %d, fans %d & %d)\n",
						m[2], m[1], m[0], m[3], m[4])
				}
			} else {
				neg++
				if neg <= 3 {
					fmt.Printf("cooled off: post %d lost pattern support\n", m[2])
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initial viral posts: %d\n", eng.InitialMatches())
	if _, err := eng.ApplyBatch(ds.Stream); err != nil {
		log.Fatal(err)
	}

	// A fan retracts their like: the engine reports every pattern instance
	// the retraction destroys as a negative match.
	if lastMatch != nil {
		n, err := eng.Delete(lastMatch[3], workload.EdgeLikes, lastMatch[2])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("user %d unliked post %d: %d instance(s) retracted\n",
			lastMatch[3], lastMatch[2], n)
	}

	st := eng.Stats()
	fmt.Printf("replayed %d updates: +%d / -%d pattern changes, DCG %d edges\n",
		len(ds.Stream), st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
