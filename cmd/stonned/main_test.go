package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// daemon is one life of the real stonned binary on a kernel-chosen port.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:<port>
	drained chan struct{} // closed once stderr hit EOF
}

func startDaemon(t *testing.T, bin, cacheDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() }) // no-op after a clean stop
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "stonned: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		t.Fatalf("stonned exited before listening: %v", cmd.Wait())
	case <-time.After(30 * time.Second):
		t.Fatal("stonned did not announce its address")
	}
	return d
}

// stop sends SIGTERM and requires a clean drain: exit status 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("stonned did not exit 0 on SIGTERM: %v", err)
	}
}

func (d *daemon) post(t *testing.T, body string) serve.Envelope {
	t.Helper()
	resp, err := http.Post(d.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs: status %d, %v: %s", resp.StatusCode, err, raw)
	}
	var env serve.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestDaemonSmoke drives the real stonned and stonnetrace binaries: the
// daemon starts, serves, caches, drains on SIGTERM and serves the same bytes
// warm after a restart over its -cache-dir; replaying a trace against it
// twice yields one digest, the second time from the cache; and stonnetrace's
// own in-process server, run twice over one -cache-dir, does the same with
// only the disk tier to go warm from.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/stonned", "repro/cmd/stonnetrace").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cache := t.TempDir()
	const job = `{"op":"gemm","arch":"maeri","ms":32,"bw":16,"m":16,"n":16,"k":32,"seed":7}`

	d := startDaemon(t, filepath.Join(bin, "stonned"), cache)
	cold, warm := d.post(t, job), d.post(t, job)
	if cold.Cached || !warm.Cached {
		t.Errorf("cached flags cold=%v warm=%v, want false then true", cold.Cached, warm.Cached)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Error("cached result differs from the cold run")
	}
	d.stop(t)

	d = startDaemon(t, filepath.Join(bin, "stonned"), cache)
	if again := d.post(t, job); !again.Cached || !bytes.Equal(again.Result, cold.Result) {
		t.Errorf("after restart: cached=%v, identical=%v; want a warm byte-identical repeat",
			again.Cached, bytes.Equal(again.Result, cold.Result))
	}

	replay := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-trace", "../../examples/traces/tiny.json", "-json"}, extra...)
		cmd := exec.Command(filepath.Join(bin, "stonnetrace"), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("stonnetrace %v: %v\n%s", extra, err, stderr.Bytes())
		}
		var report serve.ReplayReport
		if err := json.Unmarshal(out, &report); err != nil || report.Digest == "" {
			t.Fatalf("stonnetrace report: %v\n%s", err, out)
		}
		return report.Digest
	}
	if first, second := replay("-addr", d.base), replay("-addr", d.base, "-min-warm-rate", "0.99"); first != second {
		t.Errorf("replay digests differ: %s vs %s", first, second)
	}
	d.stop(t)

	disk := t.TempDir()
	first := replay("-cache-dir", disk, "-speed", "5", "-max-rejected", "0")
	if entries, _ := filepath.Glob(filepath.Join(disk, "*.res")); len(entries) == 0 {
		t.Error("in-process replay persisted nothing under -cache-dir")
	}
	if second := replay("-cache-dir", disk, "-speed", "5", "-max-rejected", "0", "-min-warm-rate", "0.99"); first != second {
		t.Errorf("in-process replay digests differ across the restart: %s vs %s", first, second)
	}
}
