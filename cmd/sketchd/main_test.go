package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestMain lets the test binary double as the daemon: with
// SKETCHD_TEST_MAIN=1 in its environment it runs main() on its
// command-line flags instead of the tests, so a test can drive the real
// signal-handling and shutdown sequence in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("SKETCHD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShutdownReleasesParkedWatch is the daemon-behind-a-gateway
// shutdown: with a /watch long-poll parked (what every watching gateway
// keeps open), SIGTERM must still finish promptly, exit 0, and write
// the final -save-on-exit checkpoint holding every ingested point.
func TestShutdownReleasesParkedWatch(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGTERM")
	}
	ckpt := filepath.Join(t.TempDir(), "ck.bin")
	addr := freeAddr(t)
	base := "http://" + addr
	cmd := exec.Command(os.Args[0], "-dim", "2", "-alpha", "1", "-shards", "2",
		"-addr", addr, "-checkpoint", ckpt, "-save-on-exit")
	cmd.Env = append(os.Environ(), "SKETCHD_TEST_MAIN=1")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-exited
	})

	waitUp(t, base+"/healthz")
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader("1 2\n50 50\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// Park a watch at the current epoch (one ingest): no further ingest
	// ever wakes it.
	go func() {
		if resp, err := http.Get(base + "/watch?epoch=1&timeout=60s"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return bytes.Contains(get(t, base+"/stats"), []byte(`"watch_requests":1`)) })

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the cleanup
		if err != nil {
			t.Fatalf("daemon exited with %v after %v:\n%s", err, time.Since(start), logs.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon still running 20s after SIGTERM:\n%s", logs.String())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("shutdown took %v with a parked watch, want well under the 10s deadline:\n%s", d, logs.String())
	}

	// The final checkpoint restores both points (same options as main).
	eng, err := engine.NewSamplerEngine(core.Options{
		Alpha: 1, Dim: 2, StreamBound: 1 << 20, K: 1, Seed: 1, HighDim: true,
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RestoreFile(ckpt); err != nil {
		t.Fatalf("final checkpoint: %v\n%s", err, logs.String())
	}
	if n := eng.Stats().Enqueued; n != 2 {
		t.Fatalf("final checkpoint holds %d points, want 2", n)
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitUp polls url until it answers 200.
func waitUp(t *testing.T, url string) {
	t.Helper()
	waitFor(t, func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// waitFor polls cond every 10ms for up to 10s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatal("timed out waiting for the daemon")
}

// get fetches url and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
