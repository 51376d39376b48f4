package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polce"
	"polce/internal/serve"
	"polce/internal/wal"
	"polce/internal/walreplay"
)

// TestWALVerifyRetractHeavy runs the offline log audit over a log in which
// half the batches were retracted: the manifest must record the retraction
// counters, and a second verification pass against the recorded manifest
// must find the replay deterministic.
func TestWALVerifyRetractHeavy(t *testing.T) {
	opt := polce.Options{Form: polce.IF, Cycles: polce.CycleOnline, Seed: 7, Retractable: true}
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Meta: walreplay.OptionsMeta(opt)})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Solver: polce.New(opt), WAL: log})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	var handles []uint64
	for i := 0; i < 10; i++ {
		prog := fmt.Sprintf("cons a%d\na%d <= V%d\nV%d <= S", i, i, i, i)
		resp, err := http.Post(base+"/v1/constraints/default?wait=1", "text/plain", strings.NewReader(prog))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d = %d %v", i, resp.StatusCode, body)
		}
		handles = append(handles, uint64(body["batch"].(float64)))
	}
	for i := 0; i < len(handles); i += 2 {
		req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/constraints/default/%d", base, handles[i]), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %d = %d", handles[i], resp.StatusCode)
		}
	}
	httpSrv.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := RunWALVerify(&out, WALVerifyOptions{Dir: dir}); err != nil {
		t.Fatalf("record pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "retracted: 5 batches") {
		t.Fatalf("record pass did not report retractions:\n%s", out.String())
	}

	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m walreplay.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Retractions != 5 || m.RetractConeVars == 0 {
		t.Fatalf("manifest counters = retractions %d, cone %d; want 5 and nonzero", m.Retractions, m.RetractConeVars)
	}

	out.Reset()
	if err := RunWALVerify(&out, WALVerifyOptions{Dir: dir}); err != nil {
		t.Fatalf("verify pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "manifest OK") {
		t.Fatalf("verify pass did not confirm the manifest:\n%s", out.String())
	}
}
