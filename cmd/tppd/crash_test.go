package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestCrashRecoveryChild is not a test of its own: TestCrashRecoverySmoke
// re-execs the test binary with TPPD_CRASH_DIR set to run this function as
// a separate process it can SIGKILL. The child serves a durable tppd
// (fsync-before-ack on) until it is killed.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv("TPPD_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-recovery child; driven by TestCrashRecoverySmoke")
	}
	srv := NewServer(2, 1<<20, 30*time.Second, 0, 0)
	store, err := durable.Open(dir, durable.Options{
		SyncWrites:   true,
		CompactEvery: 8, // small threshold so the kill also lands across compactions
		Metrics:      srv.durableMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.ConfigureDurability(store, 0)
	if _, _, err := srv.Rehydrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the address atomically so the parent never reads a half
	// written file.
	addrFile := os.Getenv("TPPD_CRASH_ADDR_FILE")
	if err := os.WriteFile(addrFile+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		t.Fatal(err)
	}
	// Serve until the parent kills the process; there is no graceful path
	// out of here — that is the point.
	t.Fatal(http.Serve(ln, srv.Handler()))
}

// spawnCrashChild re-execs the test binary as a durable tppd child on dir
// and waits for it to publish its listen address.
func spawnCrashChild(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild$")
	cmd.Env = append(os.Environ(),
		"TPPD_CRASH_DIR="+dir,
		"TPPD_CRASH_ADDR_FILE="+addrFile,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil {
			return cmd, string(addr)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("crash child never published its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// crashDelta is the i-th deterministic delta of the crash workload: a fresh
// node joins with two edges. Always valid regardless of which prefix
// survived, so both the recovered session and the control replay can absorb
// any prefix of the stream.
func crashDelta(i int) deltaRequest {
	n := fmt.Sprintf("x%d", i)
	return deltaRequest{
		AddNodes: []string{n},
		Insert:   [][2]string{{n, "0"}, {n, "1"}},
	}
}

// TestCrashRecoverySmoke is the end-to-end crash drill: SIGKILL a durable
// server mid-delta-stream, restart it on the same directory, and verify
// that (a) every acked delta survived — fsync-before-ack — and (b) the
// recovered session selects protectors identical to a control session that
// applied the same deltas without any crash.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash drill; skipped under -short")
	}
	dir := t.TempDir()
	cmd, addr := spawnCrashChild(t, dir)
	base := "http://" + addr

	resp, body := doJSON(t, http.MethodPost, base+"/v1/sessions", protectRequest{
		Edges:   quickstartEdges,
		Targets: [][2]string{{"0", "5"}, {"2", "7"}},
		Pattern: "Triangle",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created sessionResponse
	mustUnmarshal(t, body, &created)
	id := created.ID

	// Stream deltas until the kill lands mid-stream. Acks are counted the
	// moment the 200 arrives; the request in flight when the process dies
	// may or may not have committed — both are legal outcomes.
	var acked atomic.Int64
	killed := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		cmd.Process.Kill()
		close(killed)
	}()
	attempted := 0
	client := &http.Client{Timeout: 10 * time.Second}
	for {
		select {
		case <-killed:
		default:
		}
		req := crashDelta(attempted)
		attempted++
		r, err := postJSON(client, base+"/v1/sessions/"+id+"/delta", req)
		if err != nil {
			break // the kill landed mid-request
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			t.Fatalf("delta %d: status %d before the kill", attempted-1, r.StatusCode)
		}
		r.Body.Close()
		acked.Add(1)
		if attempted > 10_000 {
			t.Fatal("kill never landed")
		}
	}
	cmd.Wait()
	n := int(acked.Load())
	if n == 0 {
		t.Skip("kill landed before any delta was acked; nothing to verify")
	}
	t.Logf("killed after %d acked deltas (%d attempted)", n, attempted)

	// Restart on the same directory: the acked prefix must be there.
	_, addr2 := spawnCrashChild(t, dir)
	base2 := "http://" + addr2
	resp, body = doJSON(t, http.MethodGet, base2+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after crash: status %d: %s", resp.StatusCode, body)
	}
	var info sessionResponse
	mustUnmarshal(t, body, &info)
	d := int(info.DeltasApplied)
	// Every acked delta was fsynced before its 200; at most the one request
	// in flight at the kill may have committed un-acked.
	if d < n || d > n+1 {
		t.Fatalf("recovered %d deltas for %d acked (+1 in flight max)", d, n)
	}

	// Bit-for-bit parity with a crash-free control session fed the same
	// prefix.
	_, tsC := newSessionTestServer(t, 0)
	ctl := createQuickstartSession(t, tsC)
	for i := 0; i < d; i++ {
		mustDelta(t, tsC, ctl, crashDelta(i), fmt.Sprintf("control delta %d", i))
	}
	got := mustProtectAt(t, base2, id, "protect after crash recovery")
	want := mustProtect(t, tsC, ctl, "control protect")
	protectParity(t, "crash recovery", got, want)
}

func postJSON(client *http.Client, url string, payload any) (*http.Response, error) {
	body, err := jsonBody(payload)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return client.Do(req)
}

func jsonBody(payload any) (io.Reader, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, err
	}
	return &buf, nil
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding response %s: %v", data, err)
	}
}

func mustProtectAt(t *testing.T, base, id, step string) protectResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/sessions/"+id+"/protect", sessionProtectRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
	}
	var out protectResponse
	mustUnmarshal(t, body, &out)
	return out
}
