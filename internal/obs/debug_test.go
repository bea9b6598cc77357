package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeDebugSmoke boots the debug endpoint on an ephemeral port and
// checks the three surfaces: /debug/streak (report JSON), /debug/vars
// (Go's expvar dump), and the pprof index.
func TestServeDebugSmoke(t *testing.T) {
	r := NewRecorder()
	r.SetLabel("bench", "smoke")
	sp := r.StartSpan(StagePD)
	sp.End()
	r.Add("pd.iterations", 5)

	srv, addr, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var rep Report
	if err := json.Unmarshal(get("/debug/streak"), &rep); err != nil {
		t.Fatalf("/debug/streak not JSON: %v", err)
	}
	if rep.Schema != SchemaVersion || rep.Counters["pd.iterations"] != 5 {
		t.Errorf("/debug/streak report = %+v", rep)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != StagePD {
		t.Errorf("/debug/streak spans = %+v", rep.Spans)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}

	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong: %.120s", body)
	}
}
