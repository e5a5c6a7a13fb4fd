// Slidingwindow: stream reasoning over a bounded window. The paper's
// conclusion notes that most stream reasoners "limit the amount of data
// in the knowledge base by eliminating former triples"; this example
// combines Slider's incremental additions with DRed-based retraction
// (Reasoner.Retract) to maintain a sliding window of observations whose
// inferred consequences appear and expire with their premises — no batch
// re-inference at any point.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const ns = "http://example.org/traffic/"

func iri(n string) slider.Term { return slider.IRI(ns + n) }

func main() {
	r := slider.New(slider.RhoDF, slider.WithBufferSize(4))
	defer r.Close(context.Background())
	ctx := context.Background()

	// Static background knowledge: an incident-type hierarchy. It never
	// expires.
	schema := []slider.Statement{
		slider.NewStatement(iri("Accident"), slider.IRI(slider.SubClassOf), iri("Incident")),
		slider.NewStatement(iri("Congestion"), slider.IRI(slider.SubClassOf), iri("Incident")),
		slider.NewStatement(iri("MajorAccident"), slider.IRI(slider.SubClassOf), iri("Accident")),
	}
	for _, st := range schema {
		if _, err := r.Add(st); err != nil {
			log.Fatal(err)
		}
	}

	// The stream: one typed observation per tick; the window keeps the
	// last 3 ticks.
	const windowSize = 3
	kinds := []string{"MajorAccident", "Congestion", "Accident", "MajorAccident", "Congestion", "Accident"}
	var window [][]slider.Statement

	for tick, kind := range kinds {
		obs := []slider.Statement{
			slider.NewStatement(iri(fmt.Sprintf("event-%d", tick)), slider.IRI(slider.Type), iri(kind)),
		}
		for _, st := range obs {
			if _, err := r.Add(st); err != nil {
				log.Fatal(err)
			}
		}
		window = append(window, obs)

		// Expire the oldest tick once the window is full.
		if len(window) > windowSize {
			expired := window[0]
			window = window[1:]
			if _, err := r.Retract(ctx, expired...); err != nil {
				log.Fatal(err)
			}
		}
		if err := r.Wait(ctx); err != nil {
			log.Fatal(err)
		}

		incidents := r.Query(slider.Statement{P: slider.IRI(slider.Type), O: iri("Incident")})
		fmt.Printf("tick %d (+%-13s): %d incidents in window:", tick, kind, len(incidents))
		for _, st := range incidents {
			fmt.Printf(" %s", st.S.Value[len(ns):])
		}
		fmt.Println()
	}

	s := r.Stats()
	fmt.Printf("\nfinal store: %d triples; %d inferred over the whole run\n", r.Len(), s.Inferred)
	fmt.Println("note: inferred incident typings expired together with their premises —")
	fmt.Println("inference never restarted from scratch (DRed retraction + incremental addition).")
}
