package experiment

import (
	"context"
	"reflect"
	"testing"

	"aspp/internal/obs"
)

// TestSamplePairsBatchedLegsIdentical pins the tentpole output contract:
// running the attack legs K lanes at a time must reproduce the serial
// sweep's ranking exactly — same draws, same skips, same fractions —
// for K ∈ {8, 64} at both pair kinds.
func TestSamplePairsBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 260, 11)
	for _, kind := range []PairKind{PairsTier1, PairsRandom} {
		base := PairConfig{Kind: kind, N: 40, Prepend: 3, Seed: 7, Workers: 2}
		serial, err := SamplePairsCtx(context.Background(), g, base)
		if err != nil {
			t.Fatalf("kind %d serial: %v", kind, err)
		}
		for _, k := range []int{8, 64} {
			cfg := base
			cfg.Batch = k
			batched, err := SamplePairsCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("kind %d K=%d: %v", kind, k, err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("kind %d: -batch %d ranking differs from serial\nserial:  %v\nbatched: %v",
					kind, k, serial, batched)
			}
		}
	}
}

// TestSweepPrependBatchedLegsIdentical: the λ sweep's batched attack
// legs (one lane per λ, each reading its own baseline — the unshared-
// baseline lane shape) must reproduce the serial points exactly.
func TestSweepPrependBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 260, 11)
	victim, err := PickTier1ByDegree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := PickTier1ByDegree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8, Workers: 2}
	serial, err := SweepPrependCfgCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 8} {
		cfg := base
		cfg.Batch = k
		batched, err := SweepPrependCfgCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("-batch %d sweep differs from serial\nserial:  %v\nbatched: %v", k, serial, batched)
		}
	}
}

// TestSusceptibilityBatchedLegsIdentical: the tier matrix under batched
// attack legs must match the serial matrix cell for cell.
func TestSusceptibilityBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 220, 19)
	base := DefaultSusceptibilityConfig()
	base.PairsPerCell = 6
	serial, err := SusceptibilityMatrixCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{8, 64} {
		cfg := base
		cfg.Batch = k
		batched, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("-batch %d matrix differs from serial\nserial:  %v\nbatched: %v", k, serial, batched)
		}
	}
}

// TestBatchedSweepPropagationConservation is the counter-attribution
// audit: a batched sweep must account for exactly the same propagation
// work as the serial sweep of the same config — baselines move from
// prop_base to prop_batch, attack legs from prop_delta to
// prop_delta_batch, and the totals are conserved with nothing
// double-counted or dropped.
func TestBatchedSweepPropagationConservation(t *testing.T) {
	g := expGraph(t, 260, 11)
	run := func(batch int) obs.Snapshot {
		c := &obs.Counters{}
		cfg := PairConfig{Kind: PairsRandom, N: 60, Prepend: 3, Seed: 21, Workers: 2,
			Counters: c, Batch: batch}
		if _, err := SamplePairsCtx(context.Background(), g, cfg); err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		return c.Snapshot()
	}
	serial := run(0)
	batched := run(16)

	if serial.DeltaPropagations == 0 || serial.BatchPropagations != 0 || serial.DeltaBatchPropagations != 0 {
		t.Fatalf("serial attribution wrong: %v", serial)
	}
	if batched.DeltaBatchPropagations == 0 || batched.BatchPropagations == 0 {
		t.Fatalf("batched attribution wrong: %v", batched)
	}
	// Same draws succeed/skip on both paths, so the attack-leg counts
	// transfer 1:1 between prop_delta and prop_delta_batch...
	if batched.DeltaPropagations != 0 || batched.FullPropagations != 0 {
		t.Errorf("batched sweep leaked serial attack legs: %v", batched)
	}
	if got, want := batched.DeltaBatchPropagations, serial.DeltaPropagations; got != want {
		t.Errorf("prop_delta_batch = %d, want %d (serial prop_delta)", got, want)
	}
	if got, want := batched.SkippedUnreachable, serial.SkippedUnreachable; got != want {
		t.Errorf("skip_unreachable = %d batched vs %d serial", got, want)
	}
	// ... and baseline work moves wholesale from prop_base to prop_batch
	// (same distinct (victim, λ) keys → same count).
	if got, want := batched.BasePropagations+batched.BatchPropagations, serial.BasePropagations; got != want {
		t.Errorf("baseline legs: batched %d (base) + %d (batch) = %d, want %d",
			batched.BasePropagations, batched.BatchPropagations, got, want)
	}
	// The conservation identity over all propagation counters.
	serialTotal := serial.BasePropagations + serial.FullPropagations + serial.DeltaPropagations +
		serial.BatchPropagations + serial.DeltaBatchPropagations
	batchedTotal := batched.BasePropagations + batched.FullPropagations + batched.DeltaPropagations +
		batched.BatchPropagations + batched.DeltaBatchPropagations
	if serialTotal != batchedTotal {
		t.Errorf("propagation total not conserved: serial %d vs batched %d\nserial:  %v\nbatched: %v",
			serialTotal, batchedTotal, serial, batched)
	}
	if serial.AttackPropagations() != batched.AttackPropagations() {
		t.Errorf("AttackPropagations: serial %d vs batched %d",
			serial.AttackPropagations(), batched.AttackPropagations())
	}
	// Realized lane width: the batched run must actually batch.
	if batched.DeltaBatchCalls == 0 ||
		batched.DeltaBatchPropagations/batched.DeltaBatchCalls < 2 {
		t.Errorf("batched run mean lane width %d/%d too low",
			batched.DeltaBatchPropagations, batched.DeltaBatchCalls)
	}
}
