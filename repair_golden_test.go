package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/encode"
	"repro/internal/stg"
	"repro/internal/synth"
)

// repairTrace is one Table-1 spec's repair outcome at default options:
// the inserted signals and the strategy that won each round (comma
// joined), the search tallies, and the sha-256 of the netlist text.
type repairTrace struct {
	added, strategy                     string
	models, candidates, deduped, pruned int
	netlistSHA                          string
}

// table1RepairGolden pins every Table-1 spec's repair trace. The
// tallies fingerprint the canonical model sequence: a change to which
// labellings the SAT layer enumerates, or in what order, moves them even
// when it moves them the same way in every run and at every worker
// count, which the cross-run determinism tests cannot see.
var table1RepairGolden = map[string]repairTrace{
	"nak-pa":         {"x0", "separate-high", 114, 114, 0, 111, "add18154a645f2822e656b56868e9cd54ca3fffa55e78166996fecc58b58edd5"},
	"nowick":         {"x0", "separate-high", 28, 28, 0, 19, "1dc6ee07f8b2e7a9f3d6b20df3927c5ebdcd910840944f12a51cfa1cee3c6c8f"},
	"duplicator":     {"x0,x1", "free,pack-low", 553, 550, 3, 329, "a407f06187e1489e7f5f25b42ba138beab7e291197df4b94c7d060fecf402d10"},
	"ganesh_8":       {"x0,x1", "separate-high,pack-low", 559, 540, 19, 302, "3f620c05f0e4090714be8529c317f99fcb8d1034509c6e75c6727ff826049ac9"},
	"berkel2":        {"x0", "pack-high", 4, 4, 0, 2, "1dc6ee07f8b2e7a9f3d6b20df3927c5ebdcd910840944f12a51cfa1cee3c6c8f"},
	"berkel3":        {"x0,x1", "free,pack-low", 564, 561, 3, 324, "b853234de75e52d759db36988e8da7603e3ba6c0d466c7a3b4b77fbf507a20d8"},
	"mp-forward-pkt": {"", "", 0, 0, 0, 0, "ca9c5e7dc6e9663617c5cbb1dca1d1650f8cddc080393a742ed62294215ab34e"},
	"luciano":        {"x0", "pack-low", 3, 3, 0, 0, "ff2ecfdbb3cad6f0f8f6444060b94bdfc1ed49d3ba21bf67284dc404dd3e1446"},
	"Delement":       {"x0", "pack-low", 3, 3, 0, 0, "407e4fa1b2f8f8c67591ec0e1334f00f046f4a1e07773cc0146b99bbe46ea636"},
}

// TestTable1RepairGolden runs each Table-1 spec through synth's stages
// at default options and compares its repair trace with the pinned one.
func TestTable1RepairGolden(t *testing.T) {
	if len(table1RepairGolden) != len(benchdata.Table1) {
		t.Fatalf("%d golden traces for %d Table-1 specs", len(table1RepairGolden), len(benchdata.Table1))
	}
	var total repairTrace
	for _, e := range benchdata.Table1 {
		t.Run(e.Name, func(t *testing.T) {
			g, err := stg.BuildSG(e.STG())
			if err != nil {
				t.Fatal(err)
			}
			an, err := synth.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := synth.Repair(an, encode.Options{})
			if err != nil {
				t.Fatal(err)
			}
			nl, _, err := synth.CoverNetlist(res.G, res.Report, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			strategies := make([]string, len(res.Strategy))
			for i, s := range res.Strategy {
				strategies[i] = s.String()
			}
			sum := sha256.Sum256([]byte(nl.String()))
			got := repairTrace{
				added:      strings.Join(res.Added, ","),
				strategy:   strings.Join(strategies, ","),
				models:     res.Models,
				candidates: res.Candidates,
				deduped:    res.Deduped,
				pruned:     res.Pruned,
				netlistSHA: hex.EncodeToString(sum[:]),
			}
			total.models += got.models
			total.candidates += got.candidates
			total.deduped += got.deduped
			total.pruned += got.pruned
			if want := table1RepairGolden[e.Name]; got != want {
				t.Errorf("repair trace changed:\n got %q: {%q, %q, %d, %d, %d, %d, %q}\nwant %+v",
					e.Name, got.added, got.strategy, got.models, got.candidates,
					got.deduped, got.pruned, got.netlistSHA, want)
			}
		})
	}
	t.Logf("totals: %d models, %d candidates, %d deduped, %d pruned",
		total.models, total.candidates, total.deduped, total.pruned)
}
