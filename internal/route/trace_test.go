package route

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestBuildCtxUntracedIdentical pins that tracing never changes the built
// problem.
func TestBuildCtxUntracedIdentical(t *testing.T) {
	plain, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, err := BuildCtx(obs.WithRecorder(context.Background(), rec), smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Objects) != len(traced.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(plain.Objects), len(traced.Objects))
	}
	for i := range plain.Cands {
		if len(plain.Cands[i]) != len(traced.Cands[i]) {
			t.Fatalf("object %d candidate counts differ", i)
		}
		for j := range plain.Cands[i] {
			if plain.Cands[i][j].Cost != traced.Cands[i][j].Cost {
				t.Errorf("object %d candidate %d cost differs", i, j)
			}
		}
	}
}
