package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestDeterminism pivots the deterministic scope onto the fixture of
// in-package constructs: each one is reported where it is written.
func TestDeterminism(t *testing.T) {
	old := analysis.DeterministicScope
	analysis.DeterministicScope = map[string]bool{"determinism": true}
	defer func() { analysis.DeterministicScope = old }()
	analysistest.Run(t, analysis.DeterminismV2, "determinism")
}

// TestDeterminismV2 pivots the deterministic scope onto the fixture
// package; its helper dependency stays out of scope, so taint planted
// there must cross the boundary through serialized facts.
func TestDeterminismV2(t *testing.T) {
	old := analysis.DeterministicScope
	analysis.DeterministicScope = map[string]bool{"determinism2": true}
	defer func() { analysis.DeterministicScope = old }()
	analysistest.Run(t, analysis.DeterminismV2, "determinism2")
}

func TestCacheKey(t *testing.T) {
	analysistest.Run(t, analysis.CacheKey, "cachekey")
}

// TestLockDiscipline pivots the lock-discipline scope onto the fixture
// package; the transitive-wait case crosses into the out-of-scope
// helper through serialized facts.
func TestLockDiscipline(t *testing.T) {
	old := analysis.LockDisciplineScope
	analysis.LockDisciplineScope = map[string]bool{"lockdiscipline": true}
	defer func() { analysis.LockDisciplineScope = old }()
	analysistest.Run(t, analysis.LockDiscipline, "lockdiscipline")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysis.HotAlloc, "hotalloc")
}

func TestObsSafe(t *testing.T) {
	analysistest.Run(t, analysis.ObsSafe, "obssafe")
}

func TestParPool(t *testing.T) {
	analysistest.Run(t, analysis.ParPool, "parpool")
}

// TestHotAllocRequiredMarker pivots the required-marker list onto the
// fixture: a marked required function is clean, an unmarked one is
// reported at its declaration, and a listed function the package no
// longer defines is reported at the package clause.
func TestHotAllocRequiredMarker(t *testing.T) {
	old := analysis.RequiredHotpaths
	analysis.RequiredHotpaths = map[string][]string{
		"hotalloc_required": {"Explore", "Engine.Step", "Gone"},
	}
	defer func() { analysis.RequiredHotpaths = old }()
	analysistest.Run(t, analysis.HotAlloc, "hotalloc_required")
}
