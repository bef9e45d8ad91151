package sched

import (
	"context"
	"errors"
	"testing"

	parcut "repro"
	"repro/internal/engine"
)

// TestEngineInResultCacheKey is the cache-key audit regression: the same
// graph and seed solved on two different engines must be two different
// jobs with two different cache entries — before the engine field joined
// the key, the second submission would have been served the first
// engine's cached result.
func TestEngineInResultCacheKey(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	g := cycle(t, 8)

	kGeis := Key{GraphID: "g1", Opt: SolveOptions{Seed: 3, Engine: "geissmann"}}
	kSW := Key{GraphID: "g1", Opt: SolveOptions{Seed: 3, Engine: "stoerwagner"}}

	j1, hit, err := s.Submit(kGeis, g, SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("geissmann Submit: hit=%v err=%v", hit, err)
	}
	if _, err := s.Wait(context.Background(), j1); err != nil {
		t.Fatal(err)
	}
	j2, hit, err := s.Submit(kSW, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("stoerwagner submission for the same graph/seed hit the geissmann cache entry")
	}
	if j1.ID() == j2.ID() {
		t.Fatalf("engines coalesced onto one job %s", j1.ID())
	}
	if _, err := s.Wait(context.Background(), j2); err != nil {
		t.Fatal(err)
	}
	st1, _ := s.Job(j1.ID())
	st2, _ := s.Job(j2.ID())
	if st1.Engine != "geissmann" || st2.Engine != "stoerwagner" {
		t.Fatalf("job engines = %q, %q", st1.Engine, st2.Engine)
	}
	// Both engines are exact on a cycle this small, so the values agree
	// even though the cache entries must not.
	if st1.Value != st2.Value {
		t.Fatalf("cycle cut: geissmann=%d stoerwagner=%d", st1.Value, st2.Value)
	}

	// Resubmitting each engine now hits its own entry.
	for _, k := range []Key{kGeis, kSW} {
		if _, hit, err := s.Submit(k, g, SubmitOpts{}); err != nil || !hit {
			t.Fatalf("resubmit %q: hit=%v err=%v", k.Opt.Engine, hit, err)
		}
	}
}

// TestEngineOptionNormalization: options an engine ignores are erased
// before keying, so requests that cannot differ in outcome share one
// cache entry — and the empty engine name means the default engine's
// entry, not a separate one.
func TestEngineOptionNormalization(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	g := cycle(t, 8)

	// The exact engine ignores seeds: all seeds share one entry.
	j, hit, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 1, Engine: "stoerwagner"}}, g, SubmitOpts{})
	if err != nil || hit {
		t.Fatalf("first SW Submit: hit=%v err=%v", hit, err)
	}
	if _, err := s.Wait(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 99, Engine: "stoerwagner"}}, g, SubmitOpts{}); err != nil || !hit {
		t.Fatalf("SW with a different seed: hit=%v err=%v, want a cache hit", hit, err)
	}
	// Boost cannot improve an exact engine: boosted SW folds into the
	// plain entry.
	if _, hit, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 5, Boost: 5, Engine: "stoerwagner"}}, g, SubmitOpts{}); err != nil || !hit {
		t.Fatalf("boosted SW: hit=%v err=%v, want the plain entry", hit, err)
	}
	// "" resolves to the default engine's entry.
	jd, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 2}}, g, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), jd); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Seed: 2, Engine: engine.Default}}, g, SubmitOpts{}); err != nil || !hit {
		t.Fatalf("explicit default engine: hit=%v err=%v, want the \"\" entry", hit, err)
	}
}

// TestSubmitRejectsUnresolvedEngine: the scheduler never guesses — an
// unknown engine name is rejected, and so is the "auto" pseudo-engine,
// which the API layer must resolve to a concrete engine before keying.
func TestSubmitRejectsUnresolvedEngine(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	g := cycle(t, 8)
	for _, name := range []string{"edmondskarp", "auto"} {
		_, _, err := s.Submit(Key{GraphID: "g1", Opt: SolveOptions{Engine: name}}, g, SubmitOpts{})
		if !errors.Is(err, ErrUnknownEngine) {
			t.Fatalf("Submit(engine=%q) err = %v, want ErrUnknownEngine", name, err)
		}
	}
}

// TestSubmitRefusesOversizedStoerWagner: a stoerwagner job on more
// vertices than its n×n matrix allows is refused at Submit with
// ErrGraphTooLarge, while the same graph on another engine, and a
// stoerwagner graph at the bound, are accepted. The only worker is kept
// busy so no accepted job starts: each is canceled while still queued.
func TestSubmitRefusesOversizedStoerWagner(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	unblock := block(t, s)
	defer unblock()
	accept := func(n int, eng string) error {
		j, _, err := s.Submit(Key{GraphID: eng, Opt: SolveOptions{Engine: eng}}, parcut.NewGraph(n), SubmitOpts{})
		if err == nil {
			s.Cancel(j.ID())
			s.Wait(context.Background(), j)
		}
		return err
	}
	if err := accept(maxStoerWagnerN+1, "stoerwagner"); !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("stoerwagner on %d vertices: err = %v, want ErrGraphTooLarge", maxStoerWagnerN+1, err)
	}
	if err := accept(maxStoerWagnerN, "stoerwagner"); err != nil {
		t.Fatalf("stoerwagner at the bound: %v", err)
	}
	if err := accept(maxStoerWagnerN+1, "andersonblelloch"); err != nil {
		t.Fatalf("andersonblelloch on %d vertices: %v", maxStoerWagnerN+1, err)
	}
}
