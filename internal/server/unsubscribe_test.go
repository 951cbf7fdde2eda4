package server

import (
	"sync"
	"testing"

	"turboflux"
)

// TestUnsubscribeLiveWhileOthersEmit is the regression for UNSUBSCRIBE
// answering -ERR for a subscription the connection holds live. The old
// connection closed its subscriber and then asked the actor to remove it; an
// emitting update from another connection handled in between made the actor
// prune the closed entry itself, and the removal request then found nothing
// ("no subscription for query ... on this connection"). The connection's
// own bookkeeping is authoritative: a SUBSCRIBE that was answered +OK and not
// ended by the server since must UNSUBSCRIBE with +OK, however many
// emissions race it.
func TestUnsubscribeLiveWhileOthersEmit(t *testing.T) {
	_, addr := startServer(t, Options{})
	admin := dialTest(t, addr)
	if err := admin.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	p, err := admin.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	e, err := admin.Label("edge", "e")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := admin.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}

	// One writer toggles the matching edge: every update emits one event to
	// whoever is subscribed at that moment.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := admin.Insert(1, e, 2); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := admin.Delete(1, e, 2); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()

	sub := dialTest(t, addr)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range sub.Events() { // keep the push stream drained
		}
	}()
	for i := 0; i < 400 && !t.Failed(); i++ {
		if _, err := sub.Subscribe("q"); err != nil {
			t.Errorf("round %d: SUBSCRIBE: %v", i, err)
			break
		}
		if err := sub.Unsubscribe("q"); err != nil {
			t.Errorf("round %d: UNSUBSCRIBE of a live subscription: %v", i, err)
		}
	}
	close(stop)
	sub.Close() //tf:unchecked-ok ends the drain goroutine
	wg.Wait()

	// Nothing lingers on the actor: the closed subscribers are forgotten.
	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Find("query", "q"); stat(t, q.Uint, "subs") != 0 {
		t.Errorf("STATS query line = %s, want subs=0", q)
	}
	if subs := st.Lines("sub"); len(subs) != 0 {
		t.Errorf("STATS still lists a subscription: %v", subs)
	}
}
