package stg_test

import (
	"testing"

	"repro/internal/benchdata"
	"repro/internal/stg"
)

// FuzzBuildSG asserts reachability's contract on top of the parser's:
// for any input Parse accepts, BuildSGLimit must return either a state
// graph or an error — never panic — including on unsafe nets, nets with
// source transitions, disconnected fragments and inconsistent encodings,
// and its graph or error must equal the reference build's.
// Run with
//
//	go test -fuzz FuzzBuildSG ./internal/stg
//
// for coverage-guided exploration; plain `go test` replays the seed
// corpus: the nine Table-1 .g sources plus known tricky shapes.
// CI's nightly job fuzzes it for a minute.
func FuzzBuildSG(f *testing.F) {
	for _, e := range benchdata.Table1 {
		f.Add(e.Source)
	}
	// An unsafe net (a+ produces into the marked place p).
	f.Add(".inputs a\n.outputs b\n.graph\nq a+\na+ p\np b+\n.marking { p q }\n.end\n")
	// A source transition (empty pre-set): never enabled.
	f.Add(".inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- p\n.marking { p }\n.end\n")
	// Inconsistent encoding: a+ twice in a row.
	f.Add(".inputs a\n.outputs b\n.graph\na+ a+/2\na+/2 b+\nb+ a+\n.marking { <b+,a+> }\n.end\n")
	// A signal that never fires.
	f.Add(".inputs a b\n.outputs c\n.graph\na+ c+\nc+ a-\na- c-\nc- a+\n.marking { <c-,a+> }\n.end\n")
	// Flipped directions: b rises twice in the cycle, which only
	// propagation finds; a rises twice around a concurrent pair.
	f.Add(".inputs a b\n.outputs c\n.graph\na+ b+\nb+ c+\nc+ a-\na- b+/2\nb+/2 c-\nc- a+\n.marking { <c-,a+> }\n.end\n")
	f.Add(".inputs a\n.outputs b c\n.graph\na+ b+ c+\nb+ a+/2\nc+ a+/2\na+/2 b- c-\nb- a+\nc- a+\n.marking { <b-,a+> <c-,a+> }\n.end\n")
	// A relabelled transition: c- fires as b-, so b falls twice.
	f.Add(".inputs a\n.outputs b c\n.graph\na+ b+\nb+ c+\nc+ a-\na- b-\nb- b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := stg.Parse(src)
		if err != nil {
			return
		}
		g, err := stg.BuildSGLimit(n, 1<<12)
		if (g == nil) == (err == nil) {
			t.Fatalf("BuildSGLimit returned graph=%v err=%v; want exactly one", g != nil, err)
		}
		// The word-per-state inference agrees with the byte-per-signal
		// reference: the same graph or the same error text.
		if diff := sameBuild(n, 1<<12); diff != "" {
			t.Fatal(diff)
		}
		if err != nil {
			return
		}
		// Every successfully built graph satisfies the consistency
		// invariants by construction.
		if cerr := g.CheckConsistency(); cerr != nil {
			t.Fatalf("built graph fails consistency: %v", cerr)
		}
	})
}
