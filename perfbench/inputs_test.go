package main

import (
	"testing"

	"grca/internal/simnet"
)

// The same seed must give the same request bodies and a different seed
// different ones, for every workload.
func TestInputsHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 1)
		if err != nil {
			t.Fatalf("%s seed 7: %v", w.name, err)
		}
		b, err := generate(w, 7, 1)
		if err != nil {
			t.Fatalf("%s seed 7 again: %v", w.name, err)
		}
		c, err := generate(w, 8, 1)
		if err != nil {
			t.Fatalf("%s seed 8: %v", w.name, err)
		}
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 7 hashed %s then %s", w.name, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 7 and 8 both hashed %s", w.name, a.sha256)
		}
	}
}

// Every workload's corpus config generates on seeds 1–10 without the
// derived-seed fallback.
func TestCorporaGenerateOnSeeds1To10(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := w.corpus
			cfg.Seed = seed
			if _, err := simnet.Generate(cfg); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
}
