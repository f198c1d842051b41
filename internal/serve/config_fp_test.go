package serve

import (
	"reflect"
	"strings"
	"testing"
)

// TestConfigFingerprintCoversAllFields is the runtime half of the
// cachekey analyzer's guarantee: every exported Config field must
// appear as "<name>=" in RepairFP()+NetlistFP(). A field that reaches
// neither fingerprint would let two semantically different
// configurations share a stage-cache key, serving one configuration's
// netlist for the other's request. Adding a Config field means
// extending a fingerprint (or, for genuinely non-semantic fields,
// annotating it //reprolint:nonsemantic — and then also excluding it
// here with a justification).
func TestConfigFingerprintCoversAllFields(t *testing.T) {
	var c Config
	blob := strings.ToLower(c.RepairFP() + "|" + c.NetlistFP())
	rt := reflect.TypeOf(c)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		if !strings.Contains(blob, strings.ToLower(f.Name)+"=") {
			t.Errorf("Config.%s does not appear in RepairFP()+NetlistFP() (%q): "+
				"two configurations differing only in %s would alias the same cache key",
				f.Name, blob, f.Name)
		}
	}
}

// TestConfigFingerprintFormat pins the convention the lexical
// analyzer checks for: fingerprints use "<lowercase field>=".
// If the format convention drifts, both this test and the cachekey
// analyzer need a coordinated update.
func TestConfigFingerprintFormat(t *testing.T) {
	c := Config{MaxModels: 7, RS: true, Share: false}
	if got := c.RepairFP(); got != "maxmodels=7" {
		t.Errorf("RepairFP() = %q; fingerprint format drifted", got)
	}
	if got := c.NetlistFP(); got != "rs=true|share=false" {
		t.Errorf("NetlistFP() = %q; fingerprint format drifted", got)
	}
}
