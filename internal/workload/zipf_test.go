package workload

import (
	"math"
	"testing"
)

// TestZipfDeterministic pins the property replayable runs rest on: a
// fixed seed replays the exact same draw sequence, and distinct seeds
// do not.
func TestZipfDeterministic(t *testing.T) {
	const n, theta = 10_000, 0.99
	a := NewZipf(n, theta, 42)
	b := NewZipf(n, theta, 42)
	c := NewZipf(n, theta, 43)
	var diverged bool
	for i := 0; i < 1000; i++ {
		av, bv, cv := a.Next(), b.Next(), c.Next()
		if av != bv {
			t.Fatalf("draw %d: same seed diverged: %d vs %d", i, av, bv)
		}
		if av != cv {
			diverged = true
		}
		if av < 0 || av >= n {
			t.Fatalf("draw %d: rank %d out of [0,%d)", i, av, n)
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical 1000-draw sequences")
	}

	s1 := NewScrambledZipf(n, theta, 7)
	s2 := NewScrambledZipf(n, theta, 7)
	for i := 0; i < 1000; i++ {
		v1, v2 := s1.Next(), s2.Next()
		if v1 != v2 {
			t.Fatalf("scrambled draw %d: same seed diverged: %d vs %d", i, v1, v2)
		}
		if v1 < 0 || v1 >= n {
			t.Fatalf("scrambled draw %d: key %d out of [0,%d)", i, v1, n)
		}
	}
}

// TestZipfSkew checks theta actually produces the advertised skew: the
// share of draws landing on the top 1% of ranks must match the
// analytic zeta ratio, and a uniform control must not be skewed. The
// analytic share for theta=0.99 over 10k keys is ≈0.47 — about half
// of all traffic on 100 keys, which is the whole point of the hotspot
// mix.
func TestZipfSkew(t *testing.T) {
	const (
		n     int64 = 10_000
		theta       = 0.99
		draws       = 200_000
	)
	want := zeta(n/100, theta) / zeta(n, theta)

	z := NewZipf(n, theta, 1)
	top := 0
	for i := 0; i < draws; i++ {
		if z.Next() < n/100 {
			top++
		}
	}
	got := float64(top) / draws
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("top-1%% share: got %.3f, analytic %.3f", got, want)
	}

	// The scrambled variant moves the hot set but not its weight: count
	// per-key frequencies and take the heaviest 1%.
	s := NewScrambledZipf(n, theta, 1)
	freq := make([]int, n)
	for i := 0; i < draws; i++ {
		freq[s.Next()]++
	}
	hot := topShare(freq, int(n/100), draws)
	// FNV collisions can merge ranks onto one key, so allow a little
	// more slack than the unscrambled bound — but the skew must be
	// intact.
	if math.Abs(hot-want) > 0.06 {
		t.Fatalf("scrambled top-1%% share: got %.3f, analytic %.3f", hot, want)
	}

	u := NewUniform(n, 1)
	top = 0
	for i := 0; i < draws; i++ {
		if u.Next() < n/100 {
			top++
		}
	}
	if got := float64(top) / draws; got > 0.05 {
		t.Fatalf("uniform control: top-1%% share %.3f, want ≈0.01", got)
	}
}

// topShare returns the draw share of the k most frequent keys.
func topShare(freq []int, k, draws int) float64 {
	// Selection by repeated max would be quadratic; a simple counting
	// cut-off is fine at test sizes.
	sorted := append([]int(nil), freq...)
	for i := range sorted { // insertion-sort descending the top k only
		maxAt := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[maxAt] {
				maxAt = j
			}
		}
		sorted[i], sorted[maxAt] = sorted[maxAt], sorted[i]
		if i >= k {
			break
		}
	}
	sum := 0
	for _, c := range sorted[:k] {
		sum += c
	}
	return float64(sum) / float64(draws)
}
