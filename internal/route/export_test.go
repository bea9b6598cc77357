package route

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoutedJSONRoundTrip(t *testing.T) {
	p, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewAssignment()
	for i := range a.Choice {
		a.Choice[i] = 0
	}
	r := p.ExtractRouting(a)

	var buf bytes.Buffer
	if err := p.WriteRoutedJSON(&buf, r); err != nil {
		t.Fatalf("WriteRoutedJSON: %v", err)
	}
	trees, err := ReadRoutedJSON(&buf)
	if err != nil {
		t.Fatalf("ReadRoutedJSON: %v", err)
	}
	routed := 0
	for gi := range r.Bits {
		for _, br := range r.Bits[gi] {
			if br.Routed {
				routed++
			}
		}
	}
	if len(trees) != routed {
		t.Fatalf("exported %d trees, want %d", len(trees), routed)
	}
	for key, tree := range trees {
		if tree.WireLength() == 0 {
			t.Errorf("%s exported empty tree", key)
		}
	}
}

func TestRoutedJSONUnroutedBitsMarked(t *testing.T) {
	p, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.NewRouting() // nothing routed
	var buf bytes.Buffer
	if err := p.WriteRoutedJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"routed": false`) {
		t.Error("unrouted bits not marked")
	}
	trees, err := ReadRoutedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 0 {
		t.Errorf("expected no trees, got %d", len(trees))
	}
}

func TestReadRoutedJSONRejectsBrokenRoutes(t *testing.T) {
	// Disconnected route: segments don't touch the second pin.
	bad := `{"design":"x","bits":[{"group":"g","bit":"b","routed":true,
	 "pins":[[0,0],[9,0]],"driver":0,"segs":[[0,0,4,0]]}]}`
	if _, err := ReadRoutedJSON(strings.NewReader(bad)); err == nil {
		t.Error("disconnected route accepted")
	}
	diag := `{"design":"x","bits":[{"group":"g","bit":"b","routed":true,
	 "pins":[[0,0],[3,3]],"driver":0,"segs":[[0,0,3,3]]}]}`
	if _, err := ReadRoutedJSON(strings.NewReader(diag)); err == nil {
		t.Error("diagonal segment accepted")
	}
	if _, err := ReadRoutedJSON(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	// Routed bits without two pins used to panic in the connectivity check.
	for _, doc := range []string{
		`{"design":"d","bits":[{"group":"g","bit":"b","routed":true,"pins":[],"driver":0}]}`,
		`{"design":"d","bits":[{"group":"g","bit":"b","routed":true,"segs":[[1,1,1,1]],"driver":0}]}`,
	} {
		if _, err := ReadRoutedJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("routed bit with no pins accepted: %s", doc)
		}
	}
}
