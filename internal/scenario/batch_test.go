package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestPopulationSpecValidateStrings pins the shared error-string contract:
// the message Validate returns is byte-identical to what RunPopulation (and
// therefore the CLI's exit-2 path) fails with, because both front ends —
// shell and HTTP — surface the same text.
func TestPopulationSpecValidateStrings(t *testing.T) {
	cases := []struct {
		name string
		spec PopulationSpec
		want string
	}{
		{"empty flows", PopulationSpec{Flows: ""}, "flows: group 0 is empty"},
		{"unknown cca", PopulationSpec{Flows: "nosuchcca*4"}, "unknown CCA"},
		{"bad topology", PopulationSpec{Flows: "reno*2", Topology: "ring:4"}, `unknown topology "ring"`},
		{"bad count", PopulationSpec{Flows: "reno*0"}, "count"},
		{"bad key", PopulationSpec{Flows: "reno:wat=1"}, "wat"},
		{"too many flows", PopulationSpec{Flows: "reno*4096;vegas*2"}, "population exceeds"},
		{"negative rate", PopulationSpec{Flows: "reno*2", RateMbps: -5},
			"population: network: link 0: link rate must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted a bad spec", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate error %q does not mention %q", err, c.want)
			}
			// The run itself must fail with the identical message.
			if _, rerr := c.spec.Run(); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("Run error %v != Validate error %v", rerr, err)
			}
		})
	}

	good := PopulationSpec{Flows: "reno*2", Duration: 100 * time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestPopulationSpecDefaults: the zero value of every optional field
// selects the CLI's documented default.
func TestPopulationSpecDefaults(t *testing.T) {
	cfg, err := PopulationSpec{Flows: "reno*2"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != DefaultPopulationSeed {
		t.Fatalf("default seed %d, want %d", cfg.Seed, DefaultPopulationSeed)
	}
	if cfg.Duration != DefaultPopulationDuration {
		t.Fatalf("default duration %v, want %v", cfg.Duration, DefaultPopulationDuration)
	}
	if len(cfg.Links) != 1 || cfg.Links[0].Name != "bottleneck" {
		t.Fatalf("default topology %+v is not the single bottleneck", cfg.Links)
	}
	if cfg.Links[0].Rate.BitsPerSec() != 48e6 {
		t.Fatalf("default rate %v, want 48 Mbit/s", cfg.Links[0].Rate)
	}
}

// TestPopulationSpecKey: the cache identity is stable across calls, covers
// the realization-changing fields, and an omitted field keys the same as
// its explicit default (so CLI-style and service-style specs of the same
// experiment share cache entries).
func TestPopulationSpecKey(t *testing.T) {
	base := PopulationSpec{Flows: "vegas*2;reno*2"}
	if base.Key().String() != base.Key().String() {
		t.Fatal("Key not deterministic")
	}
	explicit := PopulationSpec{
		Flows: "vegas*2;reno*2", Topology: "single",
		RateMbps: DefaultPopulationRateMbps,
		Duration: DefaultPopulationDuration,
		Seed:     DefaultPopulationSeed,
	}
	if base.Key().String() != explicit.Key().String() {
		t.Fatalf("defaulted key %v != explicit-default key %v", base.Key(), explicit.Key())
	}
	for name, variant := range map[string]PopulationSpec{
		"flows":    {Flows: "vegas*2;reno*3"},
		"topology": {Flows: "vegas*2;reno*2", Topology: "fanin:2"},
		"rate":     {Flows: "vegas*2;reno*2", RateMbps: 96},
		"buffer":   {Flows: "vegas*2;reno*2", BufferPkts: 64},
		"seed":     {Flows: "vegas*2;reno*2", Seed: 7},
		"duration": {Flows: "vegas*2;reno*2", Duration: time.Second},
		"epsilon":  {Flows: "vegas*2;reno*2", Epsilon: 0.2},
	} {
		if variant.Key().String() == base.Key().String() {
			t.Fatalf("changing %s does not change the cache key", name)
		}
	}
}

// TestPopulationSpecRunRender: repeated runs of one spec render identical
// bytes — the property the service's parity guarantee rests on — and the
// rendering carries both the population statistics and the network table.
func TestPopulationSpecRunRender(t *testing.T) {
	spec := PopulationSpec{Flows: "vegas*2;reno*2", Duration: 2 * time.Second, Seed: 3}
	first, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Render(), second.Render()
	if a != b {
		t.Fatalf("two runs of one spec rendered different bytes:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "population") || !strings.Contains(a, "flow") {
		t.Fatalf("rendering missing expected sections:\n%s", a)
	}
}
