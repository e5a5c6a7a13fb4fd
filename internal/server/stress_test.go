package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	slider "repro"
)

// TestServerStressConsistency hammers the server with concurrent
// inserters, a retractor and queriers (run it under -race), and checks
// the serving guarantee: every query answer is a consistent closure of
// some acknowledged prefix of the writes.
//
// Schema: C0 ⊂ C1 ⊂ … ⊂ C5 is loaded up front. Each writer w POSTs
// members m<w>_0 … m<w>_{n-1} typed C0, one statement per request, in
// order — so the acknowledged prefix of writer w at any instant is
// m<w>_0 … m<w>_{k}. Each query asks for all C0 members and its snapshot
// must satisfy, per writer, the prefix property (member k visible ⟹ all
// earlier members visible) — tearing a batch or reading mid-inference
// would break it. A separate retractor inserts and retracts its own
// members, exercising DRed under load; closure is checked cross-snapshot
// via monotone C5 growth on writer members only.
func TestServerStressConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, ts, _ := newTestServer(t, Config{MaxInflight: 128}, slider.WithViewMaxAge(-1))

	var schema strings.Builder
	for i := 0; i < 5; i++ {
		schema.WriteString(ntLine(fmt.Sprintf("C%d", i), slider.SubClassOf, fmt.Sprintf("C%d", i+1)))
	}
	if resp, b := post(t, ts.URL+"/v1/insert", "", schema.String()); resp.StatusCode != 200 {
		t.Fatalf("schema insert: %d %s", resp.StatusCode, b)
	}

	const writers, perWriter = 4, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				line := ntLine(fmt.Sprintf("m%d_%d", w, i), typeIRI(), "C0")
				resp, body := post(t, ts.URL+"/v1/insert", "", line)
				if resp.StatusCode != 200 {
					t.Errorf("writer %d insert %d: %d %s", w, i, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}

	// Retractor: inserts its own members and retracts them again,
	// running delete-and-rederive concurrently with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			line := ntLine(fmt.Sprintf("r%d", i), typeIRI(), "C0")
			if resp, b := post(t, ts.URL+"/v1/insert", "", line); resp.StatusCode != 200 {
				t.Errorf("retractor insert %d: %d %s", i, resp.StatusCode, b)
				return
			}
			if resp, b := post(t, ts.URL+"/v1/retract", "", line); resp.StatusCode != 200 {
				t.Errorf("retract %d: %d %s", i, resp.StatusCode, b)
				return
			}
		}
	}()

	// Queriers: check the per-writer prefix property within each
	// snapshot, and collect C0 members for the cross-snapshot closure
	// check below.
	type seenSet map[string]bool
	seenC0 := make(chan seenSet, 64)
	querierDone := make(chan struct{})
	queriers := 3
	var qwg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, rows, trailer := queryRows(t, ts.URL,
					`SELECT ?m WHERE { ?m a <http://example.org/C0> . }`)
				if e, ok := trailer["error"]; ok {
					t.Errorf("query error: %v", e)
					return
				}
				maxIdx := make([]int, writers)
				for i := range maxIdx {
					maxIdx[i] = -1
				}
				got := seenSet{}
				for _, row := range rows {
					m := row["m"]
					got[m] = true
					var w, i int
					if n, _ := fmt.Sscanf(m, "<"+exNS+"m%d_%d>", &w, &i); n == 2 && i > maxIdx[w] {
						maxIdx[w] = i
					}
				}
				// Prefix property: member k visible ⟹ members 0..k-1 visible.
				for w := 0; w < writers; w++ {
					for i := 0; i < maxIdx[w]; i++ {
						if !got[fmt.Sprintf("<%sm%d_%d>", exNS, w, i)] {
							t.Errorf("snapshot holds m%d_%d but not m%d_%d: not a prefix",
								w, maxIdx[w], w, i)
							return
						}
					}
				}
				select {
				case seenC0 <- got:
				default:
				}
			}
		}()
	}
	go func() { qwg.Wait(); close(querierDone) }()

	wg.Wait()
	close(stop)
	<-querierDone
	close(seenC0)

	// Cross-snapshot closure check: writes only grow the writer members'
	// closure (the retractor only touches its own r<i> subjects), so
	// every writer member a snapshot showed as C0 must be typed C5 in
	// the final state.
	_, rows, _ := queryRows(t, ts.URL,
		`SELECT ?m WHERE { ?m a <http://example.org/C5> . }`)
	finalC5 := map[string]bool{}
	for _, row := range rows {
		finalC5[row["m"]] = true
	}
	for got := range seenC0 {
		for m := range got {
			if strings.Contains(m, "/r") {
				continue // retractor's members may legitimately vanish
			}
			if strings.Contains(m, "/m") && !finalC5[m] {
				t.Fatalf("member %s was C0 in a snapshot but never closed to C5", m)
			}
		}
	}

	// Every writer's full set made it.
	_, rows, _ = queryRows(t, ts.URL,
		`SELECT ?m WHERE { ?m a <http://example.org/C0> . }`)
	count := 0
	for _, row := range rows {
		if strings.Contains(row["m"], "/m") {
			count++
		}
	}
	if count != writers*perWriter {
		t.Fatalf("final C0 members = %d, want %d", count, writers*perWriter)
	}
}

// TestServerStressCoalesces checks that sustained concurrent ingest
// actually exercises group commit: with many clients inserting at once,
// at least one of the reasoner's ingest drains must have run more than
// one request's batch.
func TestServerStressCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, ts, r := newTestServer(t, Config{MaxInflight: 128})
	const clients, perClient = 16, 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				line := ntLine("s"+strconv.Itoa(c)+"_"+strconv.Itoa(i), typeIRI(), "T")
				if resp, b := post(t, ts.URL+"/v1/insert", "", line); resp.StatusCode != 200 {
					t.Errorf("insert: %d %s", resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	reg := r.Metrics()
	flushes := reg.GetCounter("slider_ingest_flushes_total").Load()
	coalesced := reg.GetCounter("slider_ingest_coalesced_batches_total").Load()
	if flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	if flushes >= clients*perClient {
		t.Fatalf("every request flushed alone (%d flushes for %d requests): coalescing never engaged",
			flushes, clients*perClient)
	}
	if coalesced == 0 {
		t.Fatal("no request ever shared a flush")
	}
	t.Logf("%d requests → %d flushes (%d coalesced)", clients*perClient, flushes, coalesced)
}
